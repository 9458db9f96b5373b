"""Write bench/reference.json: the values the benchmark checks results against.

Run from the repository root:

    python bench/make_reference.py

The stored file holds the values computed by the source commit named in it.
Regenerate it only when a change to the numerics is deliberate, and say so
where the change is recorded; the benchmark counts any result that differs
from these values by more than 1e-9 relative as a failed operation.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from chiralplate import experiments as ex  # noqa: E402
from chiralplate.plates import BoundaryCondition  # noqa: E402

LADDER_LAYERS = 8
LADDER_PROBE = 60.0
# (bc, algorithm, layers) of the solid plate the CLI solves.
SOLID_CASES = [("clamped", "conforming", 4)]


def _num(x: float):
    return None if math.isnan(x) else x


def _dumps(payload: dict) -> str:
    """JSON with one table row per line."""
    parts = []
    for key, value in payload.items():
        if isinstance(value, list):
            rows = ",\n  ".join(json.dumps(row) for row in value)
            parts.append(f" {json.dumps(key)}: [\n  {rows}\n ]")
        else:
            parts.append(f" {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main() -> None:
    grid = []
    for setup in (1, 2):
        for bc in ("clamped", "supported"):
            for algorithm in ("conforming", "incompatible_faces"):
                grid += [
                    [setup, bc, algorithm, led.d_a, led.rho_rel, led.F_crit]
                    for led in ex.run_sweep(setup, BoundaryCondition(bc), algorithm)
                ]
    ladder = [
        [r.element_kind, r.bc, r.layers, r.dofs, r.sigma_max / LADDER_PROBE]
        for r in ex.mesh_convergence_study(LADDER_LAYERS, LADDER_PROBE)
    ]
    solid = [
        [bc, algorithm, layers,
         ex.run_solid_case(BoundaryCondition(bc), algorithm, layers).F_crit]
        for bc, algorithm, layers in SOLID_CASES
    ]
    honeycomb = [
        [_num(v) for v in (r.d_a, r.t_sw, r.rho_rel, r.E1, r.E2, r.G2, r.mu_qi, r.mu_lu)]
        for r in ex.honeycomb_grid()
    ]
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
        capture_output=True, text=True,
    ).stdout.strip()
    payload = {
        "source_commit": commit,
        "grid": grid,
        "ladder": ladder,
        "solid": solid,
        "honeycomb": honeycomb,
    }
    path = ROOT / "bench" / "reference.json"
    path.write_text(_dumps(payload))
    print(f"wrote {path}: {len(grid)} grid cases, {len(ladder)} ladder rows")


if __name__ == "__main__":
    main()
