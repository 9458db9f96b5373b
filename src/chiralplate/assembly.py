"""Mesh, global assembly, constraints, solve and stress recovery.

:func:`analyze` runs the whole linear pipeline for one load case:
:func:`assemble` the global stiffness, eliminate the fixed DOFs
(:func:`free_dofs`), :func:`solve` the reduced system and :func:`recover`
the corner stresses. Each step is a pure function of its inputs.

The mesh is a structured grid of axis-aligned rectangles grouped into
horizontal layers; every element of a layer shares the same height and
material. Degrees of freedom are node-major (x then y per node), matching
the element block layout.

Assembly sums expanded element matrices: for element ``i`` with local node
``q`` sitting at global node ``m``, the element's 2x2 block ``(q, s)`` lands
at global block ``(m, n)``. The node-correspondence matrix ``A`` with
``A[m, i] = q`` (1-based, 0 when node ``m`` does not belong to element
``i``) expresses the same placement rule and is available for inspection.

Constraints are handled by physical row/column elimination over the free
DOFs, so the reduced matrix stays symmetric positive definite once enough
DOFs are fixed; the full displacement vector is reconstructed with zeros at
the fixed slots. The solve is a dense symmetric (Cholesky) factorization:
problem sizes stay in the low thousands of DOFs and determinism matters
more than asymptotics here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import ConstraintError, MeshError, SolveError
from .elements import (
    ETA_CORNERS,
    XI_CORNERS,
    ElementGeometry,
    element_stiffness,
    full_elasticity_matrix,
    strain_displacement,
    strain_displacement_full,
)
from .materials import (
    IsotropicMaterial,
    TransverselyIsotropicMaterial,
    stress_recovery_matrix_iso,
    stress_recovery_matrix_ti,
    von_mises_plane,
)

__all__ = [
    "Layer",
    "Mesh",
    "StressField",
    "Analysis",
    "analyze",
    "assemble",
    "free_dofs",
    "solve",
    "recover",
    "correspondence_matrix",
    "expanded_stiffness",
]

Material = IsotropicMaterial | TransverselyIsotropicMaterial


@dataclass(frozen=True)
class Layer:
    """One horizontal band of elements: material, element kind and a tag."""

    material: Material
    kind: str  # "conforming" | "incompatible"
    tag: str  # e.g. "plate", "core", "face_top", "face_bottom"

    def __post_init__(self):
        if self.kind not in ("conforming", "incompatible"):
            raise MeshError(f"unknown element kind {self.kind!r}")
        if self.kind == "incompatible" and isinstance(
            self.material, TransverselyIsotropicMaterial
        ):
            raise MeshError("incompatible elements require an isotropic material")


class Mesh:
    """Structured rectangle mesh over a grid of x lines and layer bands.

    Parameters
    ----------
    x_lines : array_like
        Strictly increasing node abscissas [mm].
    y_lines : array_like
        Strictly increasing node ordinates [mm]; one entry per layer
        interface, so ``len(y_lines) - 1`` element layers.
    h : float
        Out-of-plane depth [mm].

    Nodes are numbered row-major (x fastest); element corner order is
    (-1,-1), (1,-1), (1,1), (-1,1). Elements are numbered row-major as
    well, so the layer of element ``i`` is ``i // nx``.
    """

    def __init__(self, x_lines, y_lines, h: float):
        self.x = np.asarray(x_lines, dtype=float)
        self.y = np.asarray(y_lines, dtype=float)
        if self.x.ndim != 1 or len(self.x) < 2 or np.any(np.diff(self.x) <= 0):
            raise MeshError("x_lines must be strictly increasing with >= 2 entries")
        if self.y.ndim != 1 or len(self.y) < 2 or np.any(np.diff(self.y) <= 0):
            raise MeshError("y_lines must be strictly increasing with >= 2 entries")
        widths = np.diff(self.x)
        if not np.allclose(widths, widths[0], rtol=1e-12, atol=1e-12):
            raise MeshError("all elements must share the same width a_fe")
        if not 0 < h < np.inf:
            raise MeshError(f"depth must be positive and finite, got {h}")
        self.h = float(h)
        self.a_fe = float(widths[0])
        self.nx = len(self.x) - 1
        self.n_layers = len(self.y) - 1

    @property
    def n_nodes(self) -> int:
        return len(self.x) * len(self.y)

    @property
    def n_elements(self) -> int:
        return self.nx * self.n_layers

    @property
    def n_dofs(self) -> int:
        return 2 * self.n_nodes

    def node_id(self, i: int, j: int) -> int:
        return j * len(self.x) + i

    def node_coords(self) -> np.ndarray:
        """(n_nodes, 2) array of node positions."""
        xx, yy = np.meshgrid(self.x, self.y)
        return np.column_stack([xx.ravel(), yy.ravel()])

    def layer_height(self, j: int) -> float:
        return float(self.y[j + 1] - self.y[j])

    def layer_of(self, elem: int) -> int:
        return elem // self.nx

    def element_nodes(self, elem: int) -> tuple[int, int, int, int]:
        """Global node ids of the element's corners in local order 1..4."""
        j, i = divmod(elem, self.nx)
        return (
            self.node_id(i, j),
            self.node_id(i + 1, j),
            self.node_id(i + 1, j + 1),
            self.node_id(i, j + 1),
        )

    def element_geometry(self, elem: int) -> ElementGeometry:
        return ElementGeometry(self.a_fe, self.layer_height(self.layer_of(elem)), self.h)

    def nodes_on_line_x(self, x0: float, tol: float = 1e-9) -> np.ndarray:
        """Global ids of all nodes on the vertical line x = x0."""
        cols = np.where(np.abs(self.x - x0) <= tol)[0]
        return np.array(
            [self.node_id(i, j) for j in range(len(self.y)) for i in cols], dtype=int
        )

    def bottom_nodes_at(self, xs, tol: float = 1e-9) -> np.ndarray:
        """Global ids of the bottom-edge nodes at the given abscissas."""
        out = []
        for x0 in np.atleast_1d(xs):
            cols = np.where(np.abs(self.x - x0) <= tol)[0]
            if len(cols) == 0:
                raise MeshError(f"no node line at x = {x0}")
            out.extend(self.node_id(i, 0) for i in cols)
        return np.array(out, dtype=int)


def correspondence_matrix(mesh: Mesh) -> np.ndarray:
    """Dense node-correspondence matrix A with A[m, i] in {0, 1, 2, 3, 4}.

    ``A[m, i] = q`` when global node ``m`` is local corner ``q`` (1-based)
    of element ``i``; zero otherwise. Each element column carries exactly
    four nonzero entries with distinct values 1..4.
    """
    A = np.zeros((mesh.n_nodes, mesh.n_elements), dtype=int)
    for e in range(mesh.n_elements):
        for q, m in enumerate(mesh.element_nodes(e), start=1):
            A[m, e] = q
    return A


def expanded_stiffness(mesh: Mesh, elem: int, k_e: np.ndarray) -> np.ndarray:
    """Element stiffness scattered to global size via the A-matrix rule.

    Dense and quadratic in mesh size; used as a brute-force oracle in tests,
    not in production assembly.
    """
    A = correspondence_matrix(mesh)
    K = np.zeros((mesh.n_dofs, mesh.n_dofs))
    for m in range(mesh.n_nodes):
        r = A[m, elem]
        if r == 0:
            continue
        for n in range(mesh.n_nodes):
            s = A[n, elem]
            if s == 0:
                continue
            K[2 * m : 2 * m + 2, 2 * n : 2 * n + 2] = k_e[
                2 * (r - 1) : 2 * r, 2 * (s - 1) : 2 * s
            ]
    return K


def assemble(mesh: Mesh, layers) -> np.ndarray:
    """Global stiffness K, summed from the expanded element matrices.

    ``layers`` maps layer index to a :class:`Layer`; every element of a
    layer shares one stiffness matrix, computed once per layer.
    """
    layers = tuple(layers)
    if len(layers) != mesh.n_layers:
        raise MeshError(
            f"{mesh.n_layers} element layers but {len(layers)} layer cards"
        )
    K = np.zeros((mesh.n_dofs, mesh.n_dofs))
    for j, layer in enumerate(layers):
        g = ElementGeometry(mesh.a_fe, mesh.layer_height(j), mesh.h)
        k_e = element_stiffness(layer.kind, g, layer.material)
        for i in range(mesh.nx):
            nodes = mesh.element_nodes(j * mesh.nx + i)
            dofs = np.empty(8, dtype=int)
            dofs[0::2] = [2 * m for m in nodes]
            dofs[1::2] = [2 * m + 1 for m in nodes]
            K[np.ix_(dofs, dofs)] += k_e
    return K


def free_dofs(mesh: Mesh, fixed_nodes) -> np.ndarray:
    """Sorted DOFs left free once both DOFs of ``fixed_nodes`` are fixed."""
    fixed_nodes = np.unique(np.asarray(fixed_nodes, dtype=int))
    if len(fixed_nodes) == 0:
        raise ConstraintError("no nodes to fix; the system would be singular")
    if len(fixed_nodes) >= mesh.n_nodes:
        raise ConstraintError("every node fixed; nothing left to solve")
    fixed = np.concatenate([2 * fixed_nodes, 2 * fixed_nodes + 1])
    return np.setdiff1d(np.arange(mesh.n_dofs), fixed)


def solve(K: np.ndarray, free: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Direct symmetric solve of the reduced system; returns the full u.

    Eliminates the fixed rows and columns of ``K`` and factors the reduced
    matrix by Cholesky, so an indefinite or singular reduced matrix (not
    enough constraints) raises :class:`SolveError` naming the number of
    non-positive eigenvalues found. Fixed DOFs get zero displacement.
    """
    K_a = K[np.ix_(free, free)]
    try:
        c, low = cho_factor(K_a, check_finite=False)
    except np.linalg.LinAlgError as exc:
        eigvals = np.linalg.eigvalsh(K_a)
        bad = int(np.sum(eigvals <= 1e-10 * max(eigvals.max(), 1.0)))
        raise SolveError(
            f"reduced stiffness not positive definite "
            f"({bad} near-zero/negative modes); fix more DOFs",
            rigid_modes=bad,
        ) from exc
    u = np.zeros(len(K))
    u[free] = cho_solve((c, low), P[free], check_finite=False)
    return u


@dataclass
class StressField:
    """Per-element, per-corner strains and stresses.

    Arrays are shaped ``(n_elements, 4)`` in local corner order. ``layer``
    holds the layer index of each element and ``tags`` the layer tag
    strings. ``sxy``/``exy`` are populated in diagnostic mode only.
    """

    mesh: Mesh
    exx: np.ndarray
    eyy: np.ndarray
    sxx: np.ndarray
    syy: np.ndarray
    se: np.ndarray
    layer: np.ndarray
    tags: tuple[str, ...]
    exy: np.ndarray | None = None
    sxy: np.ndarray | None = None

    def max_se_by_tag(self) -> dict[str, float]:
        """Maximum von Mises value over all recovery points, per layer tag."""
        out: dict[str, float] = {}
        for tag in dict.fromkeys(self.tags):
            sel = np.array([self.tags[j] == tag for j in self.layer])
            out[tag] = float(self.se[sel].max()) if sel.any() else 0.0
        return out

    def max_se(self) -> float:
        return float(self.se.max())


def recover(mesh: Mesh, layers, u: np.ndarray, mode: str = "standard") -> StressField:
    """Recover nodal strains and stresses at the four element corners.

    ``u`` is the full displacement vector of the mesh under the layer cards
    ``layers``. ``mode="standard"`` applies the 2-row strain matrix and the
    2x2 recovery matrix (shear eliminated) and treats the recovered normal
    stresses as the principal pair for the equivalent stress.
    ``mode="diagnostic"`` additionally evaluates the shear strain/stress
    from the full 3-row matrix and rotates to principal stresses before the
    equivalent stress; it sits outside the normative pipeline and exists
    for inspection.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.n_dofs,):
        raise SolveError(f"need a solved displacement vector of {mesh.n_dofs} entries")
    if mode not in ("standard", "diagnostic"):
        raise MeshError(f"unknown recovery mode {mode!r}")
    n_el = mesh.n_elements
    exx = np.zeros((n_el, 4))
    eyy = np.zeros((n_el, 4))
    sxx = np.zeros((n_el, 4))
    syy = np.zeros((n_el, 4))
    se = np.zeros((n_el, 4))
    exy = np.zeros((n_el, 4)) if mode == "diagnostic" else None
    sxy = np.zeros((n_el, 4)) if mode == "diagnostic" else None
    layer_idx = np.array([mesh.layer_of(e) for e in range(n_el)], dtype=int)

    for j, layer in enumerate(layers):
        g = ElementGeometry(mesh.a_fe, mesh.layer_height(j), mesh.h)
        mat = layer.material
        if isinstance(mat, TransverselyIsotropicMaterial):
            chi2 = stress_recovery_matrix_ti(mat)
            mu = mat.mu1
        else:
            chi2 = stress_recovery_matrix_iso(mat)
            mu = mat.mu
        chi3 = full_elasticity_matrix(mat)
        B2 = [
            strain_displacement(layer.kind, g, XI_CORNERS[q], ETA_CORNERS[q], mu)
            for q in range(4)
        ]
        B3 = [
            strain_displacement_full(layer.kind, g, XI_CORNERS[q], ETA_CORNERS[q], mu)
            for q in range(4)
        ]
        for i in range(mesh.nx):
            e = j * mesh.nx + i
            nodes = mesh.element_nodes(e)
            v = np.empty(8)
            v[0::2] = u[[2 * m for m in nodes]]
            v[1::2] = u[[2 * m + 1 for m in nodes]]
            for q in range(4):
                eps = B2[q] @ v
                sig = chi2 @ eps
                exx[e, q], eyy[e, q] = eps
                sxx[e, q], syy[e, q] = sig
                if mode == "standard":
                    se[e, q] = von_mises_plane(sig[0], sig[1])
                else:
                    eps3 = B3[q] @ v
                    sig3 = chi3 @ eps3
                    exy[e, q] = eps3[2]
                    sxy[e, q] = sig3[2]
                    mid = 0.5 * (sig[0] + sig[1])
                    rad = np.hypot(0.5 * (sig[0] - sig[1]), sig3[2])
                    se[e, q] = von_mises_plane(mid + rad, mid - rad)

    return StressField(
        mesh=mesh,
        exx=exx,
        eyy=eyy,
        sxx=sxx,
        syy=syy,
        se=se,
        layer=layer_idx,
        tags=tuple(layer.tag for layer in layers),
        exy=exy,
        sxy=sxy,
    )


@dataclass(frozen=True)
class Analysis:
    """One linear analysis: free DOFs, full displacements and stresses."""

    free_dofs: np.ndarray
    u: np.ndarray
    field: StressField


def analyze(mesh: Mesh, layers, fixed_nodes, P: np.ndarray) -> Analysis:
    """Assemble, constrain, solve and recover one load case.

    ``layers`` is the sequence of layer cards, ``fixed_nodes`` the nodes
    whose two DOFs are fixed and ``P`` the full load vector.
    """
    free = free_dofs(mesh, fixed_nodes)
    u = solve(assemble(mesh, layers), free, P)
    return Analysis(free_dofs=free, u=u, field=recover(mesh, layers, u))
