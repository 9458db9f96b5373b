"""The benchmark's own tests: contract, smoke runs, correctness gate, tracing.

Run from the repository root (a few tens of seconds):

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, check=True):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    if check:
        assert proc.returncode == 0, proc.stderr[-3000:]
    return proc


def result(proc) -> dict:
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    metric_map = json.loads((BENCH / "metric_map.json").read_text())
    assert set(metric_map["per_layer"]) == set(run.PER_LAYER)
    assert set(metric_map["workloads"]) == set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", "0", "--smoke")
    out = result(proc)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in out["metrics"].values())
    assert "fail_ratio = 0 ratio" in proc.stdout


@pytest.mark.parametrize("workload", ["grid_sweep", "cli_batch"])
def test_traced_run_reports_every_layer(workload):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", "1", "--smoke")
    out = result(proc)
    assert out["correct"]
    values = {k: v["value"] for k, v in out["metrics"].items()}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == run.PER_LAYER
    assert values["trace.missing"] == 0
    ran = {
        "grid_sweep": ["assembly.", "honeycomb.", "elements.", "plates.",
                       "experiments."],
        "cli_batch": ["assembly.", "honeycomb.", "elements.", "plates.",
                      "experiments.", "cli.", "reporting."],
    }[workload]
    for name, value in values.items():
        if name.startswith(tuple(ran)):
            assert value > 0, name
    assert values["assembly.max_rel_residual"] < 1e-9

    span_file = ROOT / json.loads(
        (ROOT / "bench" / "out" / f"{workload}-seed5-trace1.json").read_text()
    )["detail"]["spans_file"]
    unit = json.loads(span_file.read_text())["units"][-1]
    roots = [s for s in unit if s[4] < 0]
    # Each span's self time lands in exactly one reported time metric.
    reported = spans.layer_metrics(unit, spans.Tracer().stats)
    assert sum(reported[m] for m in spans.TIME_METRICS) == pytest.approx(
        sum(s[3] - s[2] for s in roots), rel=1e-9)
    assert set(spans.TIME_METRICS) <= set(run.PER_LAYER)
    if workload == "grid_sweep":
        assert {s[0] for s in roots} == {"experiments.run_case"}
        assert values["honeycomb.geometry_calls"] == 42 * len(roots)


def test_perturbed_reference_counts_as_failed(tmp_path):
    from workloads import GridSweep

    ref = json.loads(run.REFERENCE.read_text())
    assert GridSweep(ref, 5, True, tmp_path).unit()[1] == 0
    first = GridSweep(ref, 5, True, tmp_path).cases[0]
    ref["grid"][ref["grid"].index(first)][5] *= 1 + 1e-8
    assert GridSweep(ref, 5, True, tmp_path).unit()[1] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "grid_sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_missing_name_is_reported_and_wrappers_are_removed(monkeypatch):
    import chiralplate.assembly as assembly
    import chiralplate.experiments as experiments

    original = experiments.assemble
    monkeypatch.setitem(spans.WRAPS, "assembly",
                        spans.WRAPS["assembly"] + ["no_such_function"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert experiments.assemble is not original
        assert assembly.assemble is not original
    finally:
        tracer.uninstall()
    assert tracer.missing == ["assembly.no_such_function"]
    assert experiments.assemble is original and assembly.assemble is original


def test_tail_leaves_ten_samples_above():
    samples = list(range(100))
    value, pct = run.tail(samples)
    assert sum(s > value for s in samples) == 10 and pct == 90.0
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)
