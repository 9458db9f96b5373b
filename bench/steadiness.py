"""Run the benchmark several times per workload and report its spread.

Usage (from the repository root):

    python3 bench/steadiness.py --runs 10 --workloads grid_sweep,cli_batch

Each run uses another seed. For every end-to-end metric the script prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (Q3 - Q1) / median next to the metric's bound from BENCHMARK.json. A
spread below a third of the bound counts as steady; above the bound (for
every metric but ``setup_s``) the benchmark cannot resolve a regression of
that size. The median latency (``op_ms_p50``) and the throughput
(``ops_per_s``), which have no bound, are taken from each run's record and
summarized the same way. With ``--baseline`` (an
earlier report) it also prints by how much each median got worse. The
per-run values and the summary are written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Figures of a run's record that are not end-to-end metrics, summarized too.
UNBOUNDED = {"op_ms_p50": "ms", "ops_per_s": "1/s"}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["env"] = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    record = json.loads(
        (BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    for name in UNBOUNDED:
        if name in record["detail"]:
            out["metrics"][name] = {"value": record["detail"][name],
                                    "unit": UNBOUNDED[name]}
    return out


def summarize(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    out = {"median": median, "q1": q1, "q3": q3, "spread": spread}
    if bound is not None:
        out.update(bound=bound, steady=spread < bound / 3, within_bound=spread <= bound)
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1000)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=BENCH / "out" / "steadiness.json")
    p.add_argument("--baseline", type=Path,
                   help="an earlier report: say by how much each median got worse")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    baseline = json.loads(args.baseline.read_text()) if args.baseline else None

    report = {"runs": args.runs, "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            t0 = time.perf_counter()
            results.append(run_once(workload, args.seed0 + i, args.seconds, args.trace))
            print(f"{workload} run {i + 1}/{args.runs} "
                  f"({time.perf_counter() - t0:.0f} s)", file=sys.stderr)
        names = list(results[0]["metrics"])
        per_metric = {}
        for name in names:
            values = [r["metrics"][name]["value"] for r in results]
            per_metric[name] = {"values": values, **summarize(values, bounds.get(name))}
        report["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "env": results[0]["env"],
            "loadavg": [[r["env"]["loadavg_start"], r["env"]["loadavg_end"]]
                        for r in results],
            "metrics": per_metric,
        }
        for name, s in per_metric.items():
            flag = ""
            if "bound" in s:
                flag = "steady" if s["steady"] else (
                    "within bound" if s["within_bound"] else "OVER BOUND")
            print(f"{workload:14s} {name:28s} median {s['median']:.6g}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}  "
                  f"{flag}")
            if baseline and name in bounds:
                base = baseline["workloads"][workload]["metrics"][name]["median"]
                worse = (s["median"] - base) / base
                if better[name] == "higher":
                    worse = -worse
                s["worse_than_baseline"] = worse
                print(f"{'':14s} {'':28s} vs baseline median {base:.6g}: worse by "
                      f"{worse:+.4f} ({'ok' if worse <= bounds[name] else 'OVER BOUND'})")
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
