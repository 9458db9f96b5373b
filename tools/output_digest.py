"""Print one SHA-256 per output family of chiralplate.

Two checkouts whose digests agree give bitwise the same results on every
family below; a family whose digest differs has moved somewhere in it.

* ``cases d_a=<d_a>``: :func:`evaluate` on the paper cases of one cell
  diameter (2 setups x 2 algorithms x 9 densities, both BCs per call); per
  BC it hashes ``u`` (the sign of zeros included), ``sxx``, ``syy``, ``se``
  and the ``repr`` of ``(by_tag, F_crit)``;
* ``ladder <snap> <kind>``: the same for the 1-12-layer solid plates under
  30 N;
* ``convergence``: the rows of ``mesh_convergence_study(12)``;
* ``honeycomb_grid``: the rows of ``honeycomb_grid()``;
* ``cli <run>/<file>``: each file that five standard CLI runs write to a
  temporary directory: ``solve`` on a 4-layer solid plate, ``solve`` on
  setup 2 (d_a 1.6, rho 0.353, supported, incompatible), ``sweep`` on
  setup 1, ``convergence`` to 8 layers and ``honeycomb``.

Standard library plus the package, which is imported from ``sys.path``, so
``PYTHONPATH`` picks the checkout. Usage::

    PYTHONPATH=src python tools/output_digest.py
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import chiralplate
from chiralplate import BoundaryCondition, Layer, PlateSpec, build_solid_mesh, evaluate
from chiralplate.cli import main as cli_main
from chiralplate.experiments import (
    DA_GRID,
    DEFAULT_PROBE,
    FORMLABS_CLEAR,
    RHO_GRID,
    composite_model,
    honeycomb_grid,
    mesh_convergence_study,
)

BCS = (BoundaryCondition.CLAMPED, BoundaryCondition.SUPPORTED)
ALGORITHMS = ("conforming", "incompatible_faces")

CLI_RUNS = {
    "solve-solid": ("solve", "scenario: solid\nsolid: {layers: 4}\n"),
    "solve-setup2": ("solve", "scenario: setup2\nbc: supported\n"
                     "algorithm: incompatible\n"
                     "honeycomb: {d_a_mm: 1.6, rho_rel: 0.353}\n"),
    "sweep-setup1": ("sweep", "scenario: setup1\n"),
    "convergence": ("convergence", "scenario: convergence\n"
                    "convergence: {max_layers: 8}\n"),
    "honeycomb": ("honeycomb", "scenario: poisson\n"),
}


def hash_models(h, models):
    """Feed each BC's displacements, stresses, maxima and F_crit of every
    ``(mesh, cards, spec, F_y)`` model into ``h``."""
    for mesh, cards, spec, F_y in models:
        for analysis, by_tag, F_crit in evaluate(mesh, cards, spec, BCS, F_y,
                                                 FORMLABS_CLEAR):
            field = analysis.field
            for array in (analysis.u, field.sxx, field.syy, field.se):
                h.update(array.tobytes())
            h.update(repr((by_tag, F_crit)).encode())


def paper_cases(d_a):
    for setup in (1, 2):
        for algorithm in ALGORITHMS:
            for rho in RHO_GRID:
                spec, _, mesh, cards = composite_model(
                    setup, d_a, rho, algorithm, FORMLABS_CLEAR, PlateSpec())
                yield mesh, cards, spec, DEFAULT_PROBE[setup]


def solid_ladder(snap, kind):
    spec = PlateSpec().solid()
    for layers in range(1, 13):
        mesh, tags = build_solid_mesh(spec, layers, snap)
        yield mesh, [Layer(FORMLABS_CLEAR, kind, tag) for tag in tags], spec, 30.0


def digests():
    """``(family, hex digest)`` pairs in a fixed order."""
    for d_a in DA_GRID:
        h = hashlib.sha256()
        hash_models(h, paper_cases(d_a))
        yield f"cases d_a={d_a}", h.hexdigest()
    for snap in ("exact", "equal_aspect"):
        for kind in ("conforming", "incompatible"):
            h = hashlib.sha256()
            hash_models(h, solid_ladder(snap, kind))
            yield f"ladder {snap} {kind}", h.hexdigest()
    yield "convergence", hashlib.sha256(
        repr(mesh_convergence_study(12)).encode()).hexdigest()
    yield "honeycomb_grid", hashlib.sha256(repr(honeycomb_grid()).encode()).hexdigest()
    with tempfile.TemporaryDirectory() as tmp:
        for run, (command, config) in CLI_RUNS.items():
            cfg, out = Path(tmp, f"{run}.yaml"), Path(tmp, run)
            cfg.write_text(config)
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli_main([command, "--config", str(cfg), "--out", str(out)])
            if status != 0:
                raise SystemExit(f"{run}: exit status {status}")
            for path in sorted(out.iterdir()):
                yield f"cli {run}/{path.name}", hashlib.sha256(
                    path.read_bytes()).hexdigest()


def main():
    print(f"# chiralplate from {os.path.dirname(chiralplate.__file__)}")
    for family, digest in digests():
        print(f"{digest}  {family}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
