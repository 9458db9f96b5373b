"""Numerical-experiment campaigns over the honeycomb-core design grid.

Two sweep setups share the 4 x 9 grid of cylinder diameters and relative
densities:

* setup 1 keeps all layer thicknesses fixed (t_fl = 0.5 mm, t_cl = 1 mm)
  and varies the core density;
* setup 2 keeps the solid volume of the core fixed at V_cl = 351 mm^3, so
  the core thickness follows t_cl = V_cl / (rho_rel * a * h).

Each case homogenizes the core and builds the composite mesh, whose layer
tags :func:`_cards` turns into cards, as for every model. Every campaign
then calls the one :func:`evaluate`: it solves one probe load and scales
linearly to the critical force at which the largest equivalent stress
reaches the material's elastic limit. Core maxima are read from the
homogenized continuum field and are tagged as such in the ledger: they do
not resolve cell-wall stress concentrations.

The mesh-convergence study refines the solid plate through the thickness
(1..N element layers, both element kinds, both boundary conditions) on the
equal-aspect mesh family; the Poisson diagram tabulates both closed-form
ratio estimates along the density grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .assembly import Analysis, Layer, Mesh, analyze
from .errors import ConfigError, GeometryError, MaterialError, MeshError
from . import honeycomb as hc
from .materials import IsotropicMaterial
from .plates import (
    BoundaryCondition,
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
    "solid_model",
    "evaluate",
    "run_case",
    "run_solid_case",
    "run_sweep",
    "mesh_convergence_study",
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


def composite_model(
    setup: int,
    d_a: float,
    rho_rel: float,
    algorithm: str,
    material: IsotropicMaterial,
    spec: PlateSpec,
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
    case_spec = replace(spec, t_p=2 * spec.t_fl + t_cl, t_cl=t_cl)
    core = hc.effective_material(hc.geometry_from_cell(d_a, t_sw), material)
    mesh, tags = build_composite_mesh(case_spec)
    if algorithm not in ("conforming", "incompatible_faces"):
        raise MeshError(f"unknown algorithm {algorithm!r}")
    return case_spec, t_sw, mesh, _cards(tags, algorithm, material, core)


def solid_model(
    spec: PlateSpec, layers: int, algorithm: str, material: IsotropicMaterial
) -> tuple[Mesh, list[Layer]]:
    """Solid plate of one material: its mesh and one card per element layer.

    ``algorithm`` is an element kind, or ``"incompatible_faces"``, which on
    a plate that is all face means incompatible elements throughout.
    """
    mesh, tags = build_solid_mesh(spec, layers)
    return mesh, _cards(tags, algorithm, material)


def _cards(tags, algorithm: str, face: IsotropicMaterial, core=None) -> list[Layer]:
    """The one card builder: ``core`` and conforming elements on a core
    layer, else ``face`` and the kind ``algorithm`` names."""
    kind = "incompatible" if algorithm == "incompatible_faces" else algorithm
    return [
        Layer(core, "conforming", tag) if tag == "core" else Layer(face, kind, tag)
        for tag in tags
    ]


def evaluate(
    mesh: Mesh, layers: Sequence[Layer], spec: PlateSpec,
    bcs: Sequence[BoundaryCondition], F_probe: float, material: IsotropicMaterial,
) -> list[tuple[Analysis, dict[str, float], float]]:
    """Solve one probe load on a plate model and scale to its critical load.

    ``F_probe`` acts downward at ``spec.l_1`` on the top surface, split
    between the two straddling nodes where ``l_1`` is off the node lines.
    The model is linear, so the load at which the largest equivalent stress
    reaches ``material.sigma_el`` is F_crit = F_probe * sigma_el / sigma_max.
    Every boundary condition in ``bcs`` is solved on the one stiffness
    :func:`analyze` assembles. Returns, per boundary condition in order, the
    analysis, the maximum equivalent stress per layer tag and F_crit. A load
    on fixed DOFs only, a peak stress that is not a normal float or an
    F_crit that overflows raises :class:`ConfigError`.
    """
    if not 0 < F_probe < math.inf:
        raise ConfigError(f"probe load must be positive and finite, got {F_probe}")
    if material.sigma_el is None:
        raise MaterialError("critical-load scaling needs the material's sigma_el")
    P = apply_load(mesh, F_probe, spec)
    fixed_sets = [apply_boundary(mesh, bc, spec) for bc in bcs]
    for bc, fixed in zip(bcs, fixed_sets):
        if not np.delete(P, fixed).any():
            raise ConfigError(f"probe load at l_1 = {spec.l_1} mm acts on no free "
                              f"DOF: {bc.value} fixes DOFs {fixed.tolist()}")
    # stresses past the float range become inf or NaN, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        analyses = analyze(mesh, layers, fixed_sets, P)
    results = []
    for analysis in analyses:
        by_tag = analysis.field.max_se_by_tag()
        peak = max(by_tag.values())
        # a subnormal peak has lost digits and F_probe * sigma_el may overflow
        ok = peak >= np.finfo(float).tiny and all(s < math.inf for s in by_tag.values())
        F_crit = F_probe * material.sigma_el / peak if ok else math.nan
        if not F_crit < math.inf:
            raise ConfigError(f"probe load {F_probe} N gives no stress to scale "
                              f"within the float range: {by_tag}")
        results.append((analysis, by_tag, F_crit))
    return results


def run_case(
    setup: int,
    d_a: float,
    rho_rel: float,
    bc: BoundaryCondition,
    algorithm: str = "conforming",
    F_probe: float | None = None,
    material: IsotropicMaterial = FORMLABS_CLEAR,
    spec: PlateSpec = PlateSpec(),
    allow_off_grid: bool = False,
) -> LayerStressLedger:
    """Solve one composite case and report the layer-stress ledger.

    Grid membership of (d_a, rho_rel) is enforced unless
    ``allow_off_grid=True``. The stresses and the critical load come from
    :func:`evaluate`.
    """
    if not allow_off_grid:
        if not any(math.isclose(d_a, v) for v in DA_GRID):
            raise GeometryError(f"d_a = {d_a} not on the design grid {DA_GRID}")
        if not any(math.isclose(rho_rel, v) for v in RHO_GRID):
            raise GeometryError(
                f"rho_rel = {rho_rel} not on the design grid {RHO_GRID}"
            )
    # composite_model checks setup before it picks the default probe
    case_spec, t_sw, mesh, layers = composite_model(
        setup, d_a, rho_rel, algorithm, material, spec
    )
    if F_probe is None:
        F_probe = DEFAULT_PROBE[setup]
    [(_, by_tag, F_crit)] = evaluate(mesh, layers, case_spec, (bc,), F_probe, material)
    # The ledger's order, which also breaks ties for the governing layer
    sigma = {tag: by_tag[tag] for tag in ("core", "face_top", "face_bottom")}
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
        F_crit=F_crit,
        governing=max(sigma, key=sigma.get),
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
    mesh, cards = solid_model(solid_spec, layers, algorithm, material)
    [(_, by_tag, F_crit)] = evaluate(mesh, cards, solid_spec, (bc,), F_probe, material)
    sigma_max = by_tag["plate"]
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
        F_crit=F_crit,
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
    consistently between the straddling top nodes. Rows run by element
    kind, BC and layer count; ``max_layers`` is an int >= 1.
    """
    if type(max_layers) is not int or max_layers < 1:  # bool is not int here
        raise ConfigError(f"max_layers must be an integer >= 1, got {max_layers!r}")
    solid_spec = spec.solid()
    kinds = ("conforming", "incompatible")
    bcs = (BoundaryCondition.CLAMPED, BoundaryCondition.SUPPORTED)
    counts = range(1, max_layers + 1)
    kept = {}
    for layers in counts:
        mesh, tags = build_solid_mesh(solid_spec, layers, "equal_aspect")
        for kind in kinds:
            cards = _cards(tags, kind, material)
            results = evaluate(mesh, cards, solid_spec, bcs, F_probe, material)
            for bc, (analysis, by_tag, _) in zip(bcs, results):
                dofs = mesh.n_dofs - len(analysis.fixed_dofs)
                kept[kind, bc, layers] = dofs, by_tag["plate"]
            del results, analysis  # only (dofs, sigma_max) outlives a model
    order = [(kind, bc, n) for kind in kinds for bc in bcs for n in counts]
    return [ConvergenceRow(kind, bc.value, n, *kept[kind, bc, n]) for kind, bc, n in order]


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
