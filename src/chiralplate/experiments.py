"""Numerical-experiment campaigns over the honeycomb-core design grid.

Two sweep setups share the 4 x 9 grid of cylinder diameters and relative
densities:

* setup 1 keeps all layer thicknesses fixed (t_fl = 0.5 mm, t_cl = 1 mm)
  and varies the core density;
* setup 2 keeps the solid volume of the core fixed at V_cl = 351 mm^3, so
  the core thickness follows t_cl = V_cl / (rho_rel * a * h).

Each case homogenizes the core, builds the composite mesh, solves one
probe load and scales linearly to the critical force at which the largest
equivalent stress reaches the material's elastic limit. Core maxima are
read from the homogenized continuum field and are tagged as such in the
ledger: they do not resolve cell-wall stress concentrations.

The mesh-convergence study refines the solid plate through the thickness
(1..N element layers, both element kinds, both boundary conditions) on the
equal-aspect mesh family; the Poisson diagram tabulates both closed-form
ratio estimates along the density grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .assembly import Layer, Mesh, analyze
from .errors import GeometryError
from . import honeycomb as hc
from .materials import IsotropicMaterial
from .plates import (
    BoundaryCondition,
    LoadCase,
    PlateSpec,
    apply_boundary,
    apply_load,
    build_composite_mesh,
    build_solid_mesh,
)

__all__ = [
    "RHO_GRID",
    "DA_GRID",
    "V_CL",
    "FORMLABS_CLEAR",
    "LayerStressLedger",
    "composite_model",
    "run_case",
    "run_solid_case",
    "run_sweep",
    "mesh_convergence_study",
    "poisson_diagram",
    "honeycomb_grid",
]

# Relative-density design grid (fractions) and cell diameters (mm).
RHO_GRID = (0.140, 0.211, 0.282, 0.353, 0.425, 0.496, 0.567, 0.638, 0.709)
DA_GRID = (1.0, 1.3, 1.6, 1.9)

V_CL = 351.0  # mm^3, solid volume of the core in setup 2

FORMLABS_CLEAR = IsotropicMaterial(E=2800.0, mu=0.35, rho=1200.0, sigma_el=35.0)

DEFAULT_PROBE = {1: 30.0, 2: 60.0}


@dataclass(frozen=True)
class LayerStressLedger:
    """Per-case stress summary and the linearly scaled critical load."""

    setup: int
    d_a: float
    rho_rel: float
    t_sw: float
    t_cl: float
    bc: str
    algorithm: str
    F_probe: float
    sigma_core: float
    sigma_top: float
    sigma_bottom: float
    F_crit: float
    governing: str
    core_note: str = "homogenized"

    @property
    def sigma_max(self) -> float:
        return max(self.sigma_core, self.sigma_top, self.sigma_bottom)


def composite_model(
    setup: int,
    d_a: float,
    rho_rel: float,
    algorithm: str,
    material: IsotropicMaterial,
    spec: PlateSpec,
    core_layers: int | None = None,
) -> tuple[PlateSpec, float, Mesh, list[Layer]]:
    """Homogenized three-layer model of one design case.

    Setup 1 keeps the layer thicknesses of ``spec``; setup 2 derives the
    core thickness from the volume rule. The wall thickness is inverted
    from ``rho_rel`` and the cell homogenized into the core card. Returns
    the case's plate spec, the wall thickness, the mesh and its layer cards.
    """
    # The cell first: it rejects a rho_rel outside (0, 1) before setup 2
    # divides by it.
    t_sw = hc.wall_thickness_for_density(d_a, rho_rel)
    if setup == 1:
        t_cl = spec.t_cl
    elif setup == 2:
        t_cl = V_CL / (rho_rel * spec.a * spec.h)
    else:
        raise GeometryError(f"setup must be 1 or 2, got {setup}")
    case_spec = PlateSpec(
        a=spec.a, h=spec.h, t_p=2 * spec.t_fl + t_cl, t_fl=spec.t_fl, t_cl=t_cl,
        l_1=spec.l_1, x1=spec.x1, x2=spec.x2,
    )
    core = hc.effective_material(hc.geometry_from_cell(d_a, t_sw), material)
    mesh, layers = build_composite_mesh(
        case_spec, core, material, core_layers=core_layers, algorithm=algorithm
    )
    return case_spec, t_sw, mesh, layers


def run_case(
    setup: int,
    d_a: float,
    rho_rel: float,
    bc: BoundaryCondition,
    algorithm: str = "conforming",
    F_probe: float | None = None,
    material: IsotropicMaterial = FORMLABS_CLEAR,
    spec: PlateSpec = PlateSpec(),
    core_layers: int | None = None,
    allow_off_grid: bool = False,
) -> LayerStressLedger:
    """Solve one composite case and report the layer-stress ledger.

    Grid membership of (d_a, rho_rel) is enforced unless
    ``allow_off_grid=True``. The critical load comes from linear scaling of
    one probe solve: F_crit = F_probe * sigma_el / sigma_max.
    """
    if not allow_off_grid:
        if not any(math.isclose(d_a, v) for v in DA_GRID):
            raise GeometryError(f"d_a = {d_a} not on the design grid {DA_GRID}")
        if not any(math.isclose(rho_rel, v) for v in RHO_GRID):
            raise GeometryError(
                f"rho_rel = {rho_rel} not on the design grid {RHO_GRID}"
            )
    if F_probe is None:
        F_probe = DEFAULT_PROBE[setup]
    case_spec, t_sw, mesh, layers = composite_model(
        setup, d_a, rho_rel, algorithm, material, spec, core_layers
    )
    P = apply_load(mesh, LoadCase(F_probe), case_spec)
    analysis = analyze(mesh, layers, apply_boundary(mesh, bc, case_spec), P)
    by_tag = analysis.field.max_se_by_tag()

    sigma = {
        "core": by_tag.get("core", 0.0),
        "face_top": by_tag.get("face_top", 0.0),
        "face_bottom": by_tag.get("face_bottom", 0.0),
    }
    governing = max(sigma, key=sigma.get)
    sigma_max = sigma[governing]
    return LayerStressLedger(
        setup=setup,
        d_a=d_a,
        rho_rel=rho_rel,
        t_sw=t_sw,
        t_cl=case_spec.t_cl,
        bc=bc.value,
        algorithm=algorithm,
        F_probe=F_probe,
        sigma_core=sigma["core"],
        sigma_top=sigma["face_top"],
        sigma_bottom=sigma["face_bottom"],
        F_crit=F_probe * material.sigma_el / sigma_max,
        governing=governing,
    )


def run_solid_case(
    bc: BoundaryCondition,
    algorithm: str = "conforming",
    layers: int = 2,
    F_probe: float = 30.0,
    material: IsotropicMaterial = FORMLABS_CLEAR,
    spec: PlateSpec = PlateSpec(),
) -> LayerStressLedger:
    """Solid-plate reference case on the snapped near-square mesh.

    This is the degenerate configuration behind the critical-load anchors:
    one material throughout, the chosen element kind everywhere.
    """
    solid_spec = spec.solid()
    mesh, tags = build_solid_mesh(solid_spec, layers)
    kind = "incompatible" if algorithm == "incompatible_faces" else algorithm
    cards = [Layer(material, kind, tag) for tag in tags]
    P = apply_load(mesh, LoadCase(F_probe), solid_spec)
    analysis = analyze(mesh, cards, apply_boundary(mesh, bc, solid_spec), P)
    sigma_max = analysis.field.max_se()
    return LayerStressLedger(
        setup=0,
        d_a=float("nan"),
        rho_rel=1.0,
        t_sw=float("nan"),
        t_cl=float("nan"),
        bc=bc.value,
        algorithm=algorithm,
        F_probe=F_probe,
        sigma_core=0.0,
        sigma_top=sigma_max,
        sigma_bottom=sigma_max,
        F_crit=F_probe * material.sigma_el / sigma_max,
        governing="plate",
        core_note="solid plate",
    )


def run_sweep(
    setup: int,
    bc: BoundaryCondition,
    algorithm: str = "conforming",
    F_probe: float | None = None,
    material: IsotropicMaterial = FORMLABS_CLEAR,
    spec: PlateSpec = PlateSpec(),
    d_a_values: Sequence[float] = DA_GRID,
    rho_values: Sequence[float] = RHO_GRID,
) -> list[LayerStressLedger]:
    """All grid cases in deterministic order (d_a outer, rho inner)."""
    return [
        run_case(setup, d_a, rho, bc, algorithm, F_probe, material, spec)
        for d_a in d_a_values
        for rho in rho_values
    ]


@dataclass(frozen=True)
class ConvergenceRow:
    element_kind: str
    bc: str
    layers: int
    dofs: int
    sigma_max: float


def mesh_convergence_study(
    max_layers: int = 5,
    F_probe: float = 60.0,
    material: IsotropicMaterial = FORMLABS_CLEAR,
    spec: PlateSpec = PlateSpec(),
) -> list[ConvergenceRow]:
    """Solid-plate refinement study, both element kinds and both BCs.

    Uses the equal-aspect mesh family (nx = round(a / b_fe)); on odd layer
    counts the load abscissa falls between nodes and the force is split
    consistently between the straddling top nodes.
    """
    solid_spec = spec.solid()
    # Each layer count's mesh, tags and load serve all four families.
    models = []
    for layers in range(1, max_layers + 1):
        mesh, tags = build_solid_mesh(solid_spec, layers, snap="equal_aspect")
        P = apply_load(mesh, LoadCase(F_probe), solid_spec, split=True)
        models.append((layers, mesh, tags, P))
    rows = []
    for kind in ("conforming", "incompatible"):
        for bc in (BoundaryCondition.CLAMPED, BoundaryCondition.SUPPORTED):
            for layers, mesh, tags, P in models:
                analysis = analyze(
                    mesh,
                    [Layer(material, kind, t) for t in tags],
                    apply_boundary(mesh, bc, solid_spec),
                    P,
                )
                rows.append(
                    ConvergenceRow(
                        element_kind=kind,
                        bc=bc.value,
                        layers=layers,
                        dofs=len(analysis.free_dofs),
                        sigma_max=analysis.field.max_se(),
                    )
                )
    return rows


@dataclass(frozen=True)
class HoneycombRow:
    d_a: float
    t_sw: float
    rho_rel: float
    E1: float
    E2: float
    G2: float
    mu_qi: float
    mu_lu: float  # nan where the flexure model loses validity


def honeycomb_grid(
    d_a_values: Sequence[float] = DA_GRID,
    rho_values: Sequence[float] = RHO_GRID,
    material: IsotropicMaterial = FORMLABS_CLEAR,
) -> list[HoneycombRow]:
    """Cell properties and both Poisson estimates along the density grid."""
    rows = []
    for d_a in d_a_values:
        for rho in rho_values:
            t_sw = hc.wall_thickness_for_density(d_a, rho)
            g = hc.geometry_from_cell(d_a, t_sw)
            try:
                mu_lu = hc.poisson_lu(g)
            except GeometryError:
                mu_lu = float("nan")
            rows.append(
                HoneycombRow(
                    d_a=d_a,
                    t_sw=t_sw,
                    rho_rel=hc.relative_density(g),
                    E1=hc.effective_E1(g, material.E),
                    E2=hc.effective_E2(g, material.E),
                    G2=hc.effective_G2(g, material.G),
                    mu_qi=hc.poisson_qi(g),
                    mu_lu=mu_lu,
                )
            )
    return rows


def poisson_diagram(
    d_a_values: Sequence[float] = DA_GRID,
    rho_values: Sequence[float] = RHO_GRID,
) -> list[HoneycombRow]:
    """Data behind the Poisson sign-transition diagram (alias of the grid)."""
    return honeycomb_grid(d_a_values, rho_values)
