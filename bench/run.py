"""chiralplate benchmark: one workload, one run, one JSON result line.

Usage (from the repository root):

    python3 bench/run.py --workload grid_sweep --seed 1 --seconds 30 --trace 0

Workloads: grid_sweep, refine_ladder, cli_batch (see workloads.py).

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time
from fresh interpreters, then operations in a closed loop for ``--seconds``.
``--trace 1`` alternates untraced and traced units of work (one unit runs
every operation of the workload once) for ``--seconds`` and reports the
per-layer metrics of spans.py, as the median over the traced units.

The package is imported from ``src/`` of the checkout that holds this file;
there is nothing to build. Outputs of a run go to ``bench/out/``. The last
line of standard output is the result object; the lines before it print
every metric by name and unit, and the environment record. ``--smoke``
shrinks every workload so the benchmark's own tests run in seconds.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10  # samples a tail percentile must leave above it
# One BLAS thread for this process and every child. With the default pool
# of one thread per CPU, OpenBLAS spins on the second CPU of a 2-CPU machine
# after each small factorization, and grid_sweep ran ~30% slower and less
# steadily than with one thread.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# End-to-end metric -> unit. ``op`` is a case on grid_sweep, a study on
# refine_ladder and a CLI call on cli_batch. The median latency and the
# throughput are printed and recorded too, without a bound: over ten runs
# their spread passed the largest allowed bound (0.39 on grid_sweep for the
# median, 0.28 on cli_batch for the throughput), because this machine's CPU
# speed drifts by that much over minutes (see README.md).
END_TO_END = {
    "setup_s": "s",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
}

# Per-layer metric -> unit, reported for one unit of work (one pass over
# every operation of the workload). A layer that does not run reads 0.
PER_LAYER = {
    "assembly.assemble_s": "s",
    "assembly.recover_s": "s",
    "assembly.solve_s": "s",
    "assembly.reduce_s": "s",
    "assembly.constrain_s": "s",
    "assembly.k_bytes": "bytes",
    "assembly.free_dofs": "count",
    "assembly.max_rel_residual": "ratio",
    "honeycomb.calls": "count",
    "honeycomb.self_s": "s",
    "honeycomb.geometry_calls": "count",
    "elements.stiffness_calls": "count",
    "elements.self_s": "s",
    "plates.calls": "count",
    "plates.self_s": "s",
    "experiments.self_s": "s",
    "cli.import_s": "s",
    "cli.config_s": "s",
    "cli.self_s": "s",
    "reporting.write_s": "s",
    "reporting.bytes": "bytes",
    "trace.unit_s": "s",
    "trace.overhead_s": "s",
    "trace.missing": "count",
}

# Per-workload names of the latency metrics (median, tail), printed next to
# op_ms_p50 and op_ms_tail; see metric_map.json.
ALIASES = {
    "grid_sweep": ("case_ms_p50", "case_ms_tail"),
    "refine_ladder": ("study_s", None),
    "cli_batch": ("cli_ms_p50", "cli_ms_tail"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("grid_sweep", "refine_ladder", "cli_batch"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and one set-up probe, for the tests")
    return p.parse_args(argv)


# -- environment ----------------------------------------------------------------


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas() -> dict:
    """Config string and thread count of each OpenBLAS loaded in this process."""
    import ctypes

    out = {}
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return out
    for path in sorted({l.split()[-1] for l in maps if "openblas" in l.lower()}):
        lib = ctypes.CDLL(path)
        info = {}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None and not info:
                    config.restype = ctypes.c_char_p
                    info = {"threads": threads(), "config": config().decode()}
        out[Path(path).name] = info
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "thread_env": {k: os.environ[k] for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS") if k in os.environ},
        "loadavg_start": _loadavg(),
    }


# -- statistics ------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that leaves at least
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def setup_probe(cmd: list[str], cwd: Path) -> float:
    """Wall seconds of a fresh process that imports and does one warm-up op."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, timeout=PROBE_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode()[-2000:])
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return wall


def closed_loop(wl, seconds: float, probes: int) -> dict:
    """Run blocks of the workload's operations, cycling through them, until
    the next block would end after ``seconds`` of loop time. Whole blocks
    keep the mix of operations the same on every seed.

    The ``probes`` set-up probes are spread over the run: probe i runs at the
    first block boundary after i * seconds / probes of loop time (the rest
    after the last block), so they sample the same fast and slow phases of
    the machine as the operations. Probe time is not loop time."""
    from workloads import run_op

    latencies, blocks, setup, failed = [], [], [], 0
    cmd = wl.probe_cmd()
    start = time.perf_counter()
    probe_s = block_s = 0.0

    def loop_s():
        return time.perf_counter() - start - probe_s

    ops = itertools.cycle(wl.ops)
    while not blocks or loop_s() + block_s <= seconds:
        while len(setup) < probes and loop_s() >= len(setup) * seconds / probes:
            setup.append(setup_probe(cmd, wl.workdir))
            probe_s += setup[-1]
        block_start = time.perf_counter()
        for call, check in itertools.islice(ops, wl.block):
            latency, ok = run_op(call, check)
            latencies.append(latency)
            failed += not ok
        block_s = time.perf_counter() - block_start
        blocks.append(wl.block / block_s)
    wall = loop_s()
    while len(setup) < probes:
        setup.append(setup_probe(cmd, wl.workdir))
    return {"latencies": latencies, "blocks": blocks, "failed": failed,
            "wall": wall, "setup": setup}


def end_to_end(wl, args) -> tuple[dict, dict, int, int]:
    wl.warm_up()
    loop = closed_loop(wl, args.seconds, 1 if args.smoke else SETUP_PROBES)
    setup = loop["setup"]
    if wl.name == "cli_batch":
        rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat_ms = [1000.0 * x for x in loop["latencies"]]
    n = len(lat_ms)
    tail_ms, tail_pct = tail(lat_ms)
    attempted, failed = n, loop["failed"]
    values = {
        "setup_s": statistics.median(setup),
        "op_ms_tail": tail_ms,
        "peak_rss_mb": rss_kib / 1024.0,
        "ok_ratio": (attempted - failed) / attempted,
    }
    detail = {
        "op_ms_p50": statistics.median(lat_ms),
        "ops_per_s": statistics.median(loop["blocks"]),
        "samples": n,
        "tail_percentile": tail_pct,
        "samples_beyond_tail": TAIL_BEYOND if n > TAIL_BEYOND else 0,
        "throughput_blocks": len(loop["blocks"]),
        "block_ops": wl.block,
        "loop_wall_s": loop["wall"],
        "setup_probes_s": setup,
        "fail_ratio": failed / attempted,
    }
    return values, detail, attempted, failed


def per_layer(wl, args) -> tuple[dict, dict, int, int]:
    import spans

    wl.warm_up()
    units, all_spans, missing = [], [], set()
    attempted = failed = 0
    start = time.perf_counter()
    while not units or time.perf_counter() - start < args.seconds:
        plain_wall, plain_failed = wl.unit()
        wall, unit_spans, stats, unit_missing, traced_failed = wl.traced_unit()
        attempted += 2 * len(wl.ops)
        failed += plain_failed + traced_failed
        metrics = spans.layer_metrics(unit_spans, stats)
        metrics["cli.import_s"] = stats.get("import_s", 0.0)
        metrics["trace.unit_s"] = plain_wall
        metrics["trace.overhead_s"] = wall - plain_wall
        metrics["trace.missing"] = len(unit_missing)
        units.append(metrics)
        all_spans.append(unit_spans)
        missing.update(unit_missing)
    values = {name: statistics.median(u[name] for u in units) for name in PER_LAYER}
    span_file = OUT / f"{wl.name}-seed{args.seed}-spans.json"
    span_file.write_text(json.dumps({"units": all_spans}))
    roots = [s for s in all_spans[-1] if s[4] < 0]
    reported = spans.TIME_METRICS
    detail = {
        "traced_units": len(units),
        "missing": sorted(missing),
        "spans_file": str(span_file.relative_to(ROOT)),
        "root_span_s": sum(s[3] - s[2] for s in roots),
        "reported_time_s": sum(units[-1][m] for m in reported),
        "reported_time_metrics": list(reported),
        "k_bytes_source": "computed: nbytes of the arrays assemble returns",
        "fail_ratio": failed / attempted,
    }
    return values, detail, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "chiralplate" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'chiralplate'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(BLAS_THREADS, PYTHONPATH=str(SRC))  # inherited by children
    import chiralplate

    if Path(chiralplate.__file__).resolve().parent != (SRC / "chiralplate").resolve():
        print(f"error: imported chiralplate from {chiralplate.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    env_record = environment()
    reference = json.loads(REFERENCE.read_text())
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        wl = WORKLOADS[args.workload](reference, args.seed, args.smoke, workdir)
        if args.trace:
            values, detail, attempted, failed = per_layer(wl, args)
            units = PER_LAYER
        else:
            values, detail, attempted, failed = end_to_end(wl, args)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env_record["loadavg_end"] = _loadavg()

    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "metrics": metrics,
              "detail": detail, "env": env_record}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        median_name, tail_name = ALIASES[args.workload]
        n, p50 = detail["samples"], detail["op_ms_p50"]
        print(f"{args.workload} op_ms_p50 = {p50:.6g} ms (n={n}, no bound)")
        print(f"{args.workload} ops_per_s = {detail['ops_per_s']:.6g} 1/s (median "
              f"over {detail['throughput_blocks']} blocks of {detail['block_ops']} "
              f"operations, no bound)")
        if tail_name is None:
            print(f"{args.workload} {median_name} = {p50 / 1000:.6g} s (median of {n})")
        else:
            print(f"{args.workload} {median_name} = {p50:.6g} ms (n={n})")
            print(f"{args.workload} {tail_name} = {values['op_ms_tail']:.6g} ms "
                  f"(p{detail['tail_percentile']:.2f}, "
                  f"{detail['samples_beyond_tail']} samples beyond, n={n})")
    print(f"{args.workload} fail_ratio = {detail['fail_ratio']:.6g} ratio "
          f"({failed}/{attempted})")
    if args.trace:
        print(f"{args.workload} last traced unit: root spans {detail['root_span_s']:.6g} s,"
              f" sum of the reported time metrics {detail['reported_time_s']:.6g} s")
    if args.trace and detail["missing"]:
        print(f"{args.workload} missing (not traced): {', '.join(detail['missing'])}")
    print("env " + json.dumps(env_record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
