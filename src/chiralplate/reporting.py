"""CSV and manifest writers with deterministic, byte-stable formatting."""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable

from .assembly import _XO, _YO, StressField
from .experiments import ConvergenceRow, HoneycombRow, LayerStressLedger

__all__ = [
    "fmt",
    "write_sweep_csv",
    "write_convergence_csv",
    "write_honeycomb_csv",
    "write_field_csv",
    "write_summary_csv",
    "write_manifest",
]


def fmt(x: float) -> str:
    """Stable decimal rendering: 9 significant digits, '.' separator."""
    if x != x:  # nan
        return "nan"
    return format(x, ".9g")


def _open_writer(path: Path):
    handle = open(path, "w", newline="")
    return handle, csv.writer(handle, lineterminator="\n")


SWEEP_HEADER = [
    "d_a_mm", "t_sw_mm", "t_cl_mm", "rho_rel", "F_probe_n",
    "sigma_core_mpa", "sigma_top_mpa", "sigma_bottom_mpa",
    "F_crit_n", "governing", "core_note",
]


def write_sweep_csv(rows: Iterable[LayerStressLedger], path: Path) -> None:
    handle, writer = _open_writer(path)
    with handle:
        writer.writerow(SWEEP_HEADER)
        for r in rows:
            writer.writerow([
                fmt(r.d_a), fmt(r.t_sw), fmt(r.t_cl), fmt(r.rho_rel),
                fmt(r.F_probe), fmt(r.sigma_core), fmt(r.sigma_top),
                fmt(r.sigma_bottom), fmt(r.F_crit), r.governing, r.core_note,
            ])


CONVERGENCE_HEADER = ["element_kind", "bc", "layers", "dofs", "sigma_max_mpa"]


def write_convergence_csv(rows: Iterable[ConvergenceRow], path: Path) -> None:
    handle, writer = _open_writer(path)
    with handle:
        writer.writerow(CONVERGENCE_HEADER)
        for r in rows:
            writer.writerow(
                [r.element_kind, r.bc, r.layers, r.dofs, fmt(r.sigma_max)]
            )


HONEYCOMB_HEADER = [
    "d_a_mm", "t_sw_mm", "rho_rel", "E1_mpa", "E2_mpa", "G2_mpa",
    "mu_qi", "mu_lu",
]


def write_honeycomb_csv(rows: Iterable[HoneycombRow], path: Path) -> None:
    handle, writer = _open_writer(path)
    with handle:
        writer.writerow(HONEYCOMB_HEADER)
        for r in rows:
            writer.writerow([
                fmt(r.d_a), fmt(r.t_sw), fmt(r.rho_rel), fmt(r.E1),
                fmt(r.E2), fmt(r.G2), fmt(r.mu_qi), fmt(r.mu_lu),
            ])


FIELD_HEADER = [
    "element", "corner", "x_mm", "y_mm", "u_x_mm", "u_y_mm",
    "sigma_xx_mpa", "sigma_yy_mpa", "sigma_e_mpa", "layer",
]


def write_field_csv(
    field: StressField, u, path: Path, max_rows: int | None = None
) -> int:
    """Per-corner field dump of the solution ``u``; returns the number of rows
    written. Corner q of element (i, j) is grid node (i + _XO[q], j + _YO[q])."""
    mesh = field.mesh
    u_grid = mesh.grid(u)
    handle, writer = _open_writer(path)
    written = 0
    with handle:
        writer.writerow(FIELD_HEADER)
        for e in range(mesh.n_elements):
            j, i = divmod(e, mesh.nx)
            for q in range(4):
                if max_rows is not None and written >= max_rows:
                    return written
                ni, nj = i + _XO[q], j + _YO[q]
                writer.writerow([
                    e, q + 1, fmt(mesh.x[ni]), fmt(mesh.y[nj]),
                    fmt(u_grid[ni, nj, 0]), fmt(u_grid[ni, nj, 1]),
                    fmt(field.sxx[e, q]), fmt(field.syy[e, q]),
                    fmt(field.se[e, q]), field.tags[j],
                ])
                written += 1
    return written


def write_summary_csv(
    sigma_by_tag: dict[str, float], f_crit: float, path: Path
) -> None:
    """Peak equivalent stress per layer tag and overall, and the critical load."""
    handle, writer = _open_writer(path)
    with handle:
        writer.writerow(["quantity", "value"])
        for tag, val in sorted(sigma_by_tag.items()):
            writer.writerow([f"sigma_max_{tag}_mpa", fmt(val)])
        writer.writerow(["sigma_max_mpa", fmt(max(sigma_by_tag.values()))])
        writer.writerow(["F_crit_n", fmt(f_crit)])


def write_manifest(path: Path, config: dict, outputs: list[str]) -> None:
    """Normalized scenario echo for reproducibility."""
    from . import __version__

    payload = {
        "chiralplate_version": __version__,
        "config": config,
        "outputs": sorted(outputs),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
