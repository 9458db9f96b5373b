"""The three benchmark workloads, their inputs and their correctness checks.

Every workload is one client in a closed loop: the next operation starts
when the previous one has returned. Inputs come from the seed only; the
program sees the generated cases, loads and config files, never the seed.

* ``grid_sweep``: ``run_case`` over all 288 paper cases (setup x bc x
  algorithm x d_a x rho). The seed permutes the case order and draws each
  case's probe load. One operation is one case.
* ``refine_ladder``: ``mesh_convergence_study(max_layers=8)``, 32 solid
  solves up to ~3.9k free DOFs. The seed draws the probe load. One
  operation is one study.
* ``cli_batch``: fresh ``python -m chiralplate.cli`` processes, one after
  another: solve (solid, setup2, with field dump), sweep (setup1),
  honeycomb, convergence. The seed permutes the command order and sets the
  load. One operation is one CLI call.

An operation is correct when every checked value is within 1e-9 relative
of ``reference.json`` (within the 9-digit rounding of the CSV format, plus
1e-9, for values read back from a CSV file).
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import subprocess
import sys
import time
import traceback
from pathlib import Path

from chiralplate import experiments as ex
from chiralplate.plates import BoundaryCondition

import spans

BENCH = Path(__file__).resolve().parent
LOAD_RANGE = (10.0, 100.0)  # N, probe loads the seed draws from
REL_TOL = 1e-9
CSV_REL_TOL = 5e-9 + REL_TOL  # 9 significant digits round by <= 5e-9 relative
LADDER_LAYERS = 8
CALL_TIMEOUT_S = 120


def rel_close(x: float, ref: float, tol: float = REL_TOL) -> bool:
    return abs(x - ref) <= tol * abs(ref)


def csv_close(cell: str, ref: float) -> bool:
    return rel_close(float(cell), ref, CSV_REL_TOL)


class Workload:
    """Operations of one workload; subclasses fill ``self.ops``.

    ``ops`` is a list of ``(call, check)`` pairs: ``call()`` runs the
    operation and ``check(result)`` says whether its output is correct.
    ``block`` is how many operations one throughput sample covers.
    """

    name = ""
    block = 1

    def __init__(self, ref: dict, seed: int, smoke: bool, workdir: Path):
        self.ref = ref
        self.rng = random.Random(seed)
        self.smoke = smoke
        self.workdir = workdir
        self.python = sys.executable
        self.ops: list = []

    def probe_cmd(self) -> list[str]:
        """Fresh-process command: import the package, do one warm-up operation."""
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def traced_unit(self) -> tuple[float, list, dict, list, int]:
        """Run every operation once with tracing on.

        Returns (wall seconds, spans, per-layer stats, missing names,
        failed operations).
        """
        tracer = spans.Tracer()
        tracer.install()
        try:
            wall, failed = self.unit(tracer)
        finally:
            tracer.uninstall()
        return wall, tracer.spans, tracer.stats, tracer.missing, failed

    def unit(self, tracer=None) -> tuple[float, int]:
        """Run every operation once; returns (wall seconds, failed count)."""
        failed = 0
        t0 = time.perf_counter()
        for i, (call, check) in enumerate(self.ops):
            if tracer is not None:
                tracer.op = i
            failed += not run_op(call, check)[1]
        return time.perf_counter() - t0, failed


def run_op(call, check) -> tuple[float, bool]:
    """Time one call; returns (latency seconds, output correct)."""
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception:  # an operation that raises counts as failed
        latency = time.perf_counter() - t0
        traceback.print_exc(limit=3, file=sys.stderr)
        return latency, False
    latency = time.perf_counter() - t0
    try:
        ok = bool(check(result))
    except Exception:
        traceback.print_exc(limit=3, file=sys.stderr)
        ok = False
    return latency, ok


# -- grid_sweep ---------------------------------------------------------------


class GridSweep(Workload):
    name = "grid_sweep"
    block = 36

    def __init__(self, *args):
        super().__init__(*args)
        cases = list(self.ref["grid"])
        self.rng.shuffle(cases)
        if self.smoke:
            cases = cases[:12]
        self.cases = cases
        for setup, bc, algorithm, d_a, rho, f_crit in cases:
            load = self.rng.uniform(*LOAD_RANGE)
            call = _case_call(setup, BoundaryCondition(bc), algorithm, d_a, rho, load)
            self.ops.append((call, _f_crit_check(f_crit)))

    def probe_cmd(self):
        return [self.python, "-c",
                "from chiralplate.experiments import run_case\n"
                "from chiralplate.plates import BoundaryCondition\n"
                "run_case(1, 1.0, 0.14, BoundaryCondition('clamped'))"]

    def warm_up(self):
        call, check = self.ops[0]
        check(call())


def _case_call(setup, bc, algorithm, d_a, rho, load):
    # ex.run_case is looked up per call, so an installed tracer sees it.
    return lambda: ex.run_case(setup, d_a, rho, bc, algorithm, F_probe=load)


def _f_crit_check(f_crit):
    return lambda ledger: rel_close(ledger.F_crit, f_crit)


# -- refine_ladder -----------------------------------------------------------


class RefineLadder(Workload):
    name = "refine_ladder"

    def __init__(self, *args):
        super().__init__(*args)
        self.layers = 2 if self.smoke else LADDER_LAYERS
        load = self.rng.uniform(*LOAD_RANGE)
        expected = {
            (kind, bc, layers): (dofs, sigma_per_n)
            for kind, bc, layers, dofs, sigma_per_n in self.ref["ladder"]
            if layers <= self.layers
        }

        def call():
            return ex.mesh_convergence_study(max_layers=self.layers, F_probe=load)

        def check(rows):
            got = {(r.element_kind, r.bc, r.layers): r for r in rows}
            return got.keys() == expected.keys() and all(
                got[k].dofs == dofs and rel_close(got[k].sigma_max / load, s)
                for k, (dofs, s) in expected.items()
            )

        self.ops.append((call, check))

    def probe_cmd(self):
        return [self.python, "-c",
                "from chiralplate.experiments import mesh_convergence_study\n"
                "mesh_convergence_study(max_layers=1)"]

    def warm_up(self):
        ex.mesh_convergence_study(max_layers=1)


# -- cli_batch ---------------------------------------------------------------

SOLVE_SETUP2 = (2, "supported", "incompatible_faces", 1.6, 0.353)
SWEEP_SETUP1 = (1, "clamped", "conforming")


class CliBatch(Workload):
    name = "cli_batch"

    def __init__(self, *args):
        super().__init__(*args)
        self.load = round(self.rng.uniform(*LOAD_RANGE), 3)
        self.conv_layers = 1 if self.smoke else 3
        self.digests: dict[str, str] = {}
        self.sweep_rows = ex.run_sweep(
            SWEEP_SETUP1[0], BoundaryCondition(SWEEP_SETUP1[1]), SWEEP_SETUP1[2],
            F_probe=self.load,
        )
        load = f"load: {{F_y_n: {self.load!r}}}\n"
        bc_s, alg_s, layers_s = (str(v) for v in self.ref["solid"][0][:3])
        _, bc2, _, d_a, rho = SOLVE_SETUP2
        configs = {
            "solid": f"scenario: solid\nbc: {bc_s}\nalgorithm: {alg_s}\n"
                     f"solid: {{layers: {layers_s}}}\n" + load,
            "setup2": f"scenario: setup2\nbc: {bc2}\nalgorithm: incompatible\n"
                      f"honeycomb: {{d_a_mm: {d_a!r}, rho_rel: {rho!r}}}\n" + load,
            "sweep": "scenario: setup1\n" + load,
            "honeycomb": "scenario: poisson\n",
            "convergence": "scenario: convergence\n"
                           f"convergence: {{max_layers: {self.conv_layers}}}\n" + load,
        }
        cfg_dir = self.workdir / "configs"
        cfg_dir.mkdir(parents=True)
        for key, text in configs.items():
            (cfg_dir / f"{key}.yaml").write_text(text)
        self.cfg_dir = cfg_dir
        grid_ref = {tuple(row[:5]): row[5] for row in self.ref["grid"]}
        commands = [
            ("solid", "solve", self._check_solve(self.ref["solid"][0][3])),
            ("setup2", "solve", self._check_solve(grid_ref[SOLVE_SETUP2])),
            ("sweep", "sweep", self._check_sweep(grid_ref)),
            ("honeycomb", "honeycomb", self._check_honeycomb),
            ("convergence", "convergence", self._check_convergence),
        ]
        self.rng.shuffle(commands)
        self.block = len(commands)
        self.commands = commands
        self.ops = [self._op(i, key, sub, check, None)
                    for i, (key, sub, check) in enumerate(commands)]

    def _op(self, i, key, sub, check, span_file):
        if span_file is None:
            argv = [self.python, "-m", "chiralplate.cli"]
        else:
            argv = [self.python, str(BENCH / "cli_traced.py"), str(span_file), str(i)]
        argv += [sub, "--config", str(self.cfg_dir / f"{key}.yaml"),
                 "--out", str(self.workdir / key), "--force"]

        def call():
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=CALL_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"{key}: exit {proc.returncode}: {proc.stderr[-500:]}")
            return self.workdir / key

        return call, lambda out: check(out) and self._same_bytes(key, out)

    def _same_bytes(self, key: str, out: Path) -> bool:
        """Repeated calls of one command must write byte-identical files."""
        h = hashlib.sha256()
        for path in sorted(out.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        digest = h.hexdigest()
        return self.digests.setdefault(key, digest) == digest

    def probe_cmd(self):
        return [self.python, "-m", "chiralplate.cli", "solve", "--dry-run",
                "--config", str(self.cfg_dir / "setup2.yaml")]

    def warm_up(self):
        subprocess.run(self.probe_cmd(), capture_output=True, check=True,
                       timeout=CALL_TIMEOUT_S)

    def traced_unit(self):
        span_dir = self.workdir / "spans"
        span_dir.mkdir(exist_ok=True)
        files = [span_dir / f"{i}.json" for i in range(len(self.commands))]
        ops = [self._op(i, key, sub, check, f)
               for i, ((key, sub, check), f) in enumerate(zip(self.commands, files))]
        failed = 0
        t0 = time.perf_counter()
        for call, check in ops:
            failed += not run_op(call, check)[1]
        wall = time.perf_counter() - t0
        parts, missing, import_s = [], set(), 0.0
        for f in files:
            if not f.exists():  # the call failed before writing its spans
                continue
            payload = json.loads(f.read_text())
            parts.append((payload["spans"], payload["stats"]))
            missing.update(payload["missing"])
            import_s += payload["import_s"]
            f.unlink()
        merged, stats = spans.merge(parts)
        stats["import_s"] = import_s
        return wall, merged, stats, sorted(missing), failed

    # -- checks of the files each command writes --

    @staticmethod
    def _rows(path: Path) -> list[dict]:
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))

    def _check_solve(self, f_crit: float):
        def check(out: Path) -> bool:
            summary = {r["quantity"]: r["value"] for r in self._rows(out / "summary.csv")}
            sigma_e = [float(r["sigma_e_mpa"]) for r in self._rows(out / "field.csv")]
            # The field dump and the summary render the same maximum.
            return (csv_close(summary["F_crit_n"], f_crit) and len(sigma_e) > 0
                    and max(sigma_e) == float(summary["sigma_max_mpa"]))

        return check

    def _check_sweep(self, grid_ref: dict):
        setup, bc, algorithm = SWEEP_SETUP1
        columns = ("d_a", "t_sw", "t_cl", "rho_rel", "F_probe", "sigma_core",
                   "sigma_top", "sigma_bottom", "F_crit")

        def check(out: Path) -> bool:
            rows = self._rows(out / "sweep.csv")
            if len(rows) != len(self.sweep_rows):
                return False
            for row, ledger in zip(rows, self.sweep_rows):
                cells = list(row.values())
                if cells[9:] != [ledger.governing, ledger.core_note]:
                    return False
                if not all(csv_close(c, getattr(ledger, n))
                           for c, n in zip(cells[:9], columns)):
                    return False
                key = (setup, bc, algorithm, ledger.d_a, ledger.rho_rel)
                if not csv_close(row["F_crit_n"], grid_ref[key]):
                    return False
            return True

        return check

    def _check_honeycomb(self, out: Path) -> bool:
        rows = self._rows(out / "honeycomb.csv")
        return len(rows) == len(self.ref["honeycomb"]) and all(
            all(_csv_close_or_nan(c, r) for c, r in zip(row.values(), ref))
            for row, ref in zip(rows, self.ref["honeycomb"])
        )

    def _check_convergence(self, out: Path) -> bool:
        expected = {
            (kind, bc, layers): (dofs, s * self.load)
            for kind, bc, layers, dofs, s in self.ref["ladder"]
            if layers <= self.conv_layers
        }
        rows = self._rows(out / "convergence.csv")
        got = {(r["element_kind"], r["bc"], int(r["layers"])): r for r in rows}
        return len(rows) == len(got) and got.keys() == expected.keys() and all(
            int(got[k]["dofs"]) == dofs and csv_close(got[k]["sigma_max_mpa"], sigma)
            for k, (dofs, sigma) in expected.items()
        )


def _csv_close_or_nan(cell: str, ref) -> bool:
    if ref is None:
        return cell == "nan"
    return csv_close(cell, ref)


WORKLOADS = {w.name: w for w in (GridSweep, RefineLadder, CliBatch)}
