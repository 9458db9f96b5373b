"""Plate scenarios: meshes, boundary conditions and load cases.

Geometry only: a mesh builder returns the mesh and one tag per element
layer, and :mod:`chiralplate.experiments` gives each layer its card.

The analysis domain is the plate's longitudinal side face: span ``a`` along
x, thickness ``t_p`` along y, width ``h`` as the out-of-plane depth. Two
boundary conditions, each a set of fixed DOF ids, are supported:

* clamped: both DOFs of every node on the vertical lines ``x = x1`` and
  ``x = x2`` are fixed, leaving the overhangs beyond the clamps meshed but
  unloaded;
* supported with elastic rotation: both DOFs of the single bottom node at
  ``x1`` and ``x2`` are fixed (rotation stays free).

The load is the total force ``F_y`` assigned to the one top-surface node
at ``x = l_1``, acting downward.

Mesh construction snaps the element count along x so that ``x1``, ``x2``
and ``l_1`` fall on node lines (within 1e-9 mm, :meth:`Mesh.column_at`)
while keeping the elements as close to square as possible. The refinement
family used by the mesh-convergence study instead keeps the exact
equal-aspect count from the paper's meshes (nx = round(a / b_fe)); on that
family the support lines still land on nodes, but the load abscissa may
fall between two nodes for odd layer counts; the load is then split
consistently between them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .assembly import Mesh
from .errors import MeshError

__all__ = [
    "PlateSpec",
    "BoundaryCondition",
    "build_solid_mesh",
    "build_composite_mesh",
    "apply_boundary",
    "apply_load",
    "core_layer_count",
]


@dataclass(frozen=True)
class PlateSpec:
    """Plate dimensions and load/support abscissas (mm).

    For composites ``t_p = 2 t_fl + t_cl`` must hold; for solid plates set
    ``t_fl = t_cl = None``. Defaults give the baseline bending scenario.
    """

    a: float = 54.0
    h: float = 13.0
    t_p: float = 2.0
    t_fl: float | None = 0.5
    t_cl: float | None = 1.0
    l_1: float = 27.0
    x1: float = 12.0
    x2: float = 42.0

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.a, self.h, self.t_p)):
            raise MeshError("plate dimensions must be positive and finite")
        if not (0 < self.x1 < self.l_1 < self.x2 < self.a):
            raise MeshError(
                f"require 0 < x1 < l_1 < x2 < a, got "
                f"x1={self.x1}, l_1={self.l_1}, x2={self.x2}, a={self.a}"
            )
        if (self.t_fl is None) != (self.t_cl is None):
            raise MeshError("t_fl and t_cl must be given together (or both None)")
        if self.t_fl is not None:
            if not (self.t_fl > 0 and self.t_cl > 0):
                raise MeshError("layer thicknesses must be positive")
            if abs(2 * self.t_fl + self.t_cl - self.t_p) > 1e-9:
                raise MeshError(
                    f"t_p = 2*t_fl + t_cl violated: "
                    f"{self.t_p} != 2*{self.t_fl} + {self.t_cl}"
                )

    def solid(self) -> "PlateSpec":
        """Copy without the composite layering."""
        return replace(self, t_fl=None, t_cl=None)


class BoundaryCondition(enum.Enum):
    CLAMPED = "clamped"
    SUPPORTED = "supported"  # elastic rotation at the two bottom supports


_MAX_ELEMENTS = 100_000  # bound on a solid mesh's element count


def _node_count_constraint(spec: PlateSpec) -> int:
    """Smallest nx for which x1, x2 and l_1 all fall on node lines."""
    lcm = 1
    for x0 in (spec.x1, spec.x2, spec.l_1):
        q = (Fraction(x0).limit_denominator(10**9) / Fraction(spec.a).limit_denominator(10**9)).denominator
        lcm = lcm * q // math.gcd(lcm, q)
    if lcm > _MAX_ELEMENTS:
        raise MeshError(
            "no admissible element count places nodes at x1, x2 and l_1 "
            f"(smallest candidate would need {lcm} elements)"
        )
    return lcm


def _snap_count(spec: PlateSpec, target: float) -> int:
    """Nearest admissible element count along x; prefers the finer count on ties."""
    step = _node_count_constraint(spec)
    lo = max(step, step * math.floor(target / step))
    hi = lo + step
    if abs(hi - target) <= abs(lo - target):
        return hi
    return lo


def build_solid_mesh(
    spec: PlateSpec, layers: int, snap: str = "exact"
) -> tuple[Mesh, list[str]]:
    """Mesh a solid plate with ``layers`` element rows through the thickness.

    ``snap="exact"`` (default) adjusts the element count along x to the
    nearest value that puts nodes on ``x1``, ``x2`` and ``l_1`` while
    keeping ``a_fe`` close to ``b_fe``. ``snap="equal_aspect"`` uses
    ``nx = round(a / b_fe)`` like the refinement meshes of the convergence
    study; support lines must still land on nodes. More than 100 000
    elements raise :class:`MeshError` before anything is allocated.

    Returns the mesh and the per-layer tag list (all ``"plate"``).
    """
    if layers < 1:
        raise MeshError(f"need at least one layer, got {layers}")
    b_fe = spec.t_p / layers
    target = spec.a / b_fe
    if not target * layers <= _MAX_ELEMENTS:  # tested as a float: it may be inf
        raise MeshError(
            f"{layers} layers of b_fe = {b_fe:g} mm need about "
            f"{target * layers:.3g} elements, more than {_MAX_ELEMENTS}"
        )
    if snap == "exact":
        nx = _snap_count(spec, target)
    elif snap == "equal_aspect":
        nx = max(1, round(target))
    else:
        raise MeshError(f"unknown snap mode {snap!r}")
    if nx * layers > _MAX_ELEMENTS:  # the snap may add a node-count step
        raise MeshError(f"{layers} layers of {nx} elements are more than {_MAX_ELEMENTS}")
    x_lines = np.linspace(0.0, spec.a, nx + 1)
    y_lines = np.linspace(0.0, spec.t_p, layers + 1)
    mesh = Mesh(x_lines, y_lines, spec.h)
    for x0 in (spec.x1, spec.x2):
        if mesh.column_at(x0) is None:
            raise MeshError(
                f"no admissible element count places a node at x = {x0} "
                f"(nx = {nx}); supports cannot be shifted"
            )
    return mesh, ["plate"] * layers


CORE_SINGLE_LAYER_BAND = (0.7, 1.4)  # mm, one element layer through the core
CORE_DOUBLE_LAYER_BAND = (1.7, 3.6)  # mm, two element layers


def core_layer_count(t_cl: float) -> int:
    """Element layers through the core as a function of its thickness.

    Band edges are compared after rounding the thickness to 0.1 mm, which
    is how the published band limits were stated; exact grid thicknesses
    such as 1.416 mm therefore fall into the single-layer band.
    """
    t = round(t_cl, 1)
    if CORE_SINGLE_LAYER_BAND[0] <= t <= CORE_SINGLE_LAYER_BAND[1]:
        return 1
    if CORE_DOUBLE_LAYER_BAND[0] <= t <= CORE_DOUBLE_LAYER_BAND[1]:
        return 2
    raise MeshError(
        f"core thickness {t_cl:g} mm outside the layering bands "
        f"{CORE_SINGLE_LAYER_BAND} and {CORE_DOUBLE_LAYER_BAND}, for which "
        "no core layer count is defined"
    )


COMPOSITE_NX = 36  # elements along the span for composite plates


def build_composite_mesh(
    spec: PlateSpec, core_layers: int | None = None
) -> tuple[Mesh, list[str]]:
    """Mesh a three-layer plate: face / core / face.

    The span is divided into 36 elements (a_fe = a/36); each face carries
    one element layer, the core ``core_layers``, by default one or two
    depending on its thickness. Returns the mesh and the layer tags.
    """
    if spec.t_fl is None or spec.t_cl is None:
        raise MeshError("composite mesh needs t_fl and t_cl in the plate spec")
    if core_layers is None:
        core_layers = core_layer_count(spec.t_cl)
    if core_layers < 1:
        raise MeshError(f"core needs at least one layer, got {core_layers}")

    x_lines = np.linspace(0.0, spec.a, COMPOSITE_NX + 1)
    core_y = [spec.t_fl + spec.t_cl * k / core_layers for k in range(core_layers + 1)]
    mesh = Mesh(x_lines, [0.0, *core_y, spec.t_p], spec.h)
    for x0 in (spec.x1, spec.x2, spec.l_1):
        if mesh.column_at(x0) is None:
            raise MeshError(f"composite mesh has no node line at x = {x0}")
    return mesh, ["face_bottom", *["core"] * core_layers, "face_top"]


def apply_boundary(mesh: Mesh, bc: BoundaryCondition, spec: PlateSpec) -> np.ndarray:
    """Fixed DOF ids of ``bc``, strictly increasing: both DOFs of the nodes
    it fixes in node columns ``x1`` and ``x2``, marked on ``mesh.grid``."""
    if bc is BoundaryCondition.CLAMPED:  # every node of both lines
        nodes, line = slice(None), "clamp line"
    elif bc is BoundaryCondition.SUPPORTED:  # the bottom node of each line
        nodes, line = 0, "support line"
    else:
        raise MeshError(f"unknown boundary condition {bc!r}")
    fixed = np.zeros(mesh.n_dofs, dtype=bool)
    for x0 in (spec.x1, spec.x2):
        if (i := mesh.column_at(x0)) is None:
            raise MeshError(f"{line} x = {x0} does not coincide with a node line")
        mesh.grid(fixed)[i, nodes] = True
    return np.flatnonzero(fixed)


def apply_load(mesh: Mesh, F_y: float, spec: PlateSpec) -> np.ndarray:
    """Load vector: total force ``F_y`` [N], downward, on the top edge at ``l_1``.

    The force goes to the y DOF of the top node at ``x = l_1``,
    ``mesh.grid(P)[i, -1, 1]``. Where ``l_1`` falls between two node lines
    (the odd layer counts of the refinement family), it is split linearly
    between the two straddling top nodes, the consistent nodal load.
    """
    P = np.zeros(mesh.n_dofs)
    top = mesh.grid(P)[:, -1, 1]  # y DOFs of the top nodes, a view of P
    if (i := mesh.column_at(spec.l_1)) is not None:
        top[i] = -F_y
        return P
    i_lo = int(np.searchsorted(mesh.x, spec.l_1)) - 1
    if not 0 <= i_lo < mesh.nx:  # checked before writing: -1 would wrap
        raise MeshError(f"load abscissa l_1 = {spec.l_1} outside the mesh")
    w_hi = (spec.l_1 - mesh.x[i_lo]) / (mesh.x[i_lo + 1] - mesh.x[i_lo])
    top[i_lo] = -F_y * (1.0 - w_hi)
    top[i_lo + 1] = -F_y * w_hi
    return P
