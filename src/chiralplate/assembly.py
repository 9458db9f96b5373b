"""Mesh, global assembly, constraints, solve and stress recovery.

:func:`analyze` runs the whole linear pipeline for one load under one or
more boundary conditions: :func:`assemble` the global stiffness once, then
per set of fixed DOF ids :func:`solve` for the displacements, and
:func:`recover` the corner stresses of all solutions in one pass. Each
step is a pure function of its inputs.

The mesh is a structured grid of axis-aligned rectangles grouped into
horizontal layers; every element of a layer shares the same height and
material. :meth:`Mesh.grid` states the DOF layout once: a per-DOF axis is
``(len(x), len(y), 2)``, node columns outermost. Every per-DOF array
(``K``'s band, fixed DOFs, loads, ``u``) is indexed through it, and
``Mesh.element_dofs`` is sliced from it. ``K`` is stored as its lower band,
``(height, n_dofs)``: ``K[d, c]`` couples DOFs ``c + d`` and ``c``
(LAPACK's lower band storage); the height is 1 + the largest DOF gap within
an element, read off ``mesh.element_dofs`` (:func:`_element_gaps`).

Every element of a layer is the same element, so assembly and recovery
work per distinct layer card ``(kind, material, height)``, not per
element: one element stiffness, strain matrix and elasticity matrix per
card; layers of one nominal height share one (:meth:`Mesh.layer_height`).
The DOF gap ``d`` between two corners of an element is the same for every
element, so with ``K`` viewed through ``mesh.grid`` each column corner adds
the blocks of all elements in one strided slice. Recovery gathers the
corner displacements as ``u[mesh.element_dofs]`` and applies each card's
operator, the four corners' stress rows stacked into one matrix, to all
layers of that card in one matmul.

:func:`solve` holds the fixed DOFs, a sorted array of DOF ids, at zero by
pinning them in a Fortran-ordered copy of ``K``'s band, which LAPACK reads
as its lower band as it stands: their rows, columns and loads are zeroed and
their diagonal set to a positive ``scale``, so the matrix stays symmetric
positive definite once enough DOFs are fixed and the solve returns the full
displacement vector, zero at the fixed DOFs. A node column whose DOFs are
all fixed (a clamp line) cuts the band into independent segments, runs of
node columns of ``mesh.grid``, and only those that carry load are factored.
An unloaded one borders a fixed column, so its stiffness is positive
definite and its ``u`` exactly ``+0.0``: a clamped plate factors its span,
not its overhangs. Each loaded segment is factored and solved by banded
Cholesky in one call of LAPACK's ``dpbsv``, lower form (see
:func:`_pinned_band`). It comes from the ILP64 OpenBLAS that numpy's wheels
bundle (``scipy-openblas``), found on the first solve by its
``scipy_dpbsv_64_`` symbol and called through ctypes, so solving imports no
scipy. Where numpy ships no such library (conda/MKL or system-BLAS builds,
older wheels) the same routine comes from ``scipy.linalg.lapack``. A failed
factorization imports ``scipy.linalg`` either way, to count the rigid modes.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import logging
import os
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError, MeshError, SolveError
from .elements import (
    ETA_CORNERS,
    XI_CORNERS,
    ElementGeometry,
    element_stiffness,
    strain_displacement_full,
)
from .materials import (
    IsotropicMaterial,
    TransverselyIsotropicMaterial,
    full_elasticity_matrix,
    von_mises_plane,
)

__all__ = [
    "Layer",
    "Mesh",
    "StressField",
    "Analysis",
    "analyze",
    "assemble",
    "solve",
    "recover",
]

Material = IsotropicMaterial | TransverselyIsotropicMaterial

_log = logging.getLogger(__name__)

# Corner q of an element sits _XO[q] node columns right of and _YO[q] node
# rows above its corner 1: (0, 1, 1, 0) and (0, 0, 1, 1).
_XO = (1 + np.array(XI_CORNERS, dtype=int)) // 2
_YO = (1 + np.array(ETA_CORNERS, dtype=int)) // 2


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

    :meth:`grid` is the one statement of the DOF layout. Element corner
    order is (-1,-1), (1,-1), (1,1), (-1,1). Elements are numbered row-major
    (x fastest within a layer), so the layer of element ``i`` is ``i // nx``.
    ``element_dofs``, the read-only ``(n_elements, 8)`` table of each
    element's DOFs in local block order (x, y of corner 1, then corner 2,
    ...), is sliced from the grid for the recovery's gather. Widths within
    ``1e-12 + 1e-12 * |w0|`` of the first, ``w0``, are all ``a_fe = w0``;
    :meth:`layer_height` merges layer heights by the same rule.
    """

    def __init__(self, x_lines, y_lines, h: float):
        self.x = np.asarray(x_lines, dtype=float)
        self.y = np.asarray(y_lines, dtype=float)
        for name, lines in (("x_lines", self.x), ("y_lines", self.y)):
            if lines.ndim != 1 or len(lines) < 2:
                raise MeshError(f"{name} must be strictly increasing with >= 2 entries")
            if not np.isfinite(lines).all():
                raise MeshError(f"{name} must be finite")
            if np.any(np.diff(lines) <= 0):
                raise MeshError(f"{name} must be strictly increasing with >= 2 entries")
        widths = np.diff(self.x)
        # np.allclose(widths, widths[0], rtol=1e-12, atol=1e-12), spelled out
        if not np.abs(widths - widths[0]).max() <= 1e-12 + 1e-12 * abs(widths[0]):
            raise MeshError("all elements must share the same width a_fe")
        if not 0 < h < np.inf:
            raise MeshError(f"depth must be positive and finite, got {h}")
        self.h = float(h)
        self.a_fe = float(widths[0])
        y, self._heights = self.y.tolist(), []
        for b in map(float.__sub__, y[1:], y):  # y[j + 1] - y[j]
            same = (c for c in self._heights if abs(b - c) <= 1e-12 + 1e-12 * c)
            self._heights.append(next(same, b))
        self.nx = len(self.x) - 1
        self.n_layers = len(self.y) - 1
        # element (i, j)'s corner q is node (i + _XO[q], j + _YO[q])
        ids = self.grid(np.arange(self.n_dofs)).swapaxes(0, 1)  # [j, i, c]
        corners = [ids[yo : yo + self.n_layers, xo : xo + self.nx]
                   for xo, yo in zip(_XO, _YO)]
        dofs = np.stack(corners, axis=2).reshape(-1, 8)
        dofs.flags.writeable = False
        self.element_dofs = dofs

    @property
    def n_nodes(self) -> int:
        return len(self.x) * len(self.y)

    @property
    def n_elements(self) -> int:
        return self.nx * self.n_layers

    @property
    def n_dofs(self) -> int:
        return 2 * self.n_nodes

    def grid(self, a: np.ndarray) -> np.ndarray:
        """``a``'s last, per-DOF axis as ``(len(x), len(y), 2)``; ``[..., i, j, c]``
        is DOF ``c`` (x, y) of node ``(x[i], y[j])``, a view if ``a`` is contiguous."""
        return a.reshape(*a.shape[:-1], len(self.x), len(self.y), 2)

    def layer_height(self, j: int) -> float:
        """``y[j + 1] - y[j]``, or the first earlier height within tolerance."""
        return self._heights[j]

    def column_at(self, x0: float) -> int | None:
        """Index ``i`` of the node line ``x[i]`` within 1e-9 mm of ``x0``, or None."""
        d = np.abs(self.x - x0)
        i = int(np.argmin(d))
        return i if d[i] <= 1e-9 else None


def _layer_cards(mesh: Mesh, layers) -> tuple[Layer, ...]:
    """The layer cards as a tuple, one per element layer of ``mesh``."""
    layers = tuple(layers)
    if len(layers) != mesh.n_layers:
        raise MeshError(
            f"{mesh.n_layers} element layers but {len(layers)} layer cards"
        )
    return layers


def _card_groups(mesh: Mesh, layers) -> list[tuple]:
    """``(kind, g, chi, mu, js)`` per distinct card ``(kind, material, height)``.

    Its :class:`ElementGeometry`, elasticity matrix, the Poisson's ratio of
    the incompatible coupling terms (0 for the conforming kind) and the
    indices of the layers that carry it.
    """
    groups: dict[tuple, list[int]] = {}
    for j, layer in enumerate(layers):
        key = (layer.kind, layer.material, mesh.layer_height(j))
        groups.setdefault(key, []).append(j)
    return [
        (kind, ElementGeometry(mesh.a_fe, height, mesh.h),
         full_elasticity_matrix(material),
         material.mu if kind == "incompatible" else 0.0, np.array(js))
        for (kind, material, height), js in groups.items()
    ]


def _element_gaps(mesh: Mesh) -> tuple[np.ndarray, int]:
    """``(gap, height)``: ``gap[p, q]`` is element DOF ``p`` minus DOF ``q``
    (local block order), the same for every element, so read off element 0.
    An entry ``>= 0`` lies in ``K``'s lower band, in band row ``gap[p, q]``;
    the largest, corner 3's y DOF minus corner 1's x DOF, plus 1 is its height.
    """
    e = mesh.element_dofs[0]
    gap = e[:, None] - e
    return gap, int(gap.max()) + 1


def assemble(mesh: Mesh, layers) -> np.ndarray:
    """Lower band of the global stiffness K, shape ``(height, n_dofs)``.

    ``K[d, c]`` couples DOFs ``c + d`` and ``c``; the height is 1 + the
    largest DOF gap within an element, read off ``mesh.element_dofs``
    (:func:`_element_gaps`). ``layers`` maps layer index to a :class:`Layer`;
    the element stiffness is computed once per card ``(kind, material, height)``.

    ``mesh.grid(K)`` is ``(height, len(x), len(y), 2)``. For a column
    corner ``s`` at grid offset ``(xs, ys)`` from corner 1, element
    ``(i, j)``'s column DOF ``b`` is ``[.., i + xs, j + ys, b]`` and each
    of its lower-band rows is a fixed gap ``d`` below it, so one strided add
    ``K4[d, xs:xs + nx, ys:ys + n_layers, b] += k[j, row, col]`` places that
    entry of all elements. The adds run over the column corners in the order
    3, 4, 2, 1. A band entry at node ``(I, J)`` is shared by the elements
    ``(I-1, J-1)``, ``(I, J-1)``, ``(I-1, J)`` and ``(I, J)``, which see
    that node as their corner 3, 4, 2 and 1, so each entry receives its terms
    in element order (row-major, x fastest), starting from 0.0, exactly as
    one ``bincount`` over the elements' entries in turn adds them; ``K`` is
    the same to the last bit.
    """
    layers = _layer_cards(mesh, layers)
    k_layers = np.empty((mesh.n_layers, 8, 8))
    for kind, g, chi, mu, js in _card_groups(mesh, layers):
        k_layers[js] = element_stiffness(kind, g, chi, mu)
    gap, height = _element_gaps(mesh)
    K = np.zeros((height, mesh.n_dofs))
    K4 = mesh.grid(K)
    for s in (2, 3, 1, 0):  # corners 3, 4, 2, 1: each entry sums in element order
        rows, b = np.nonzero(gap[:, 2 * s : 2 * s + 2] >= 0)  # lower-band entries
        xs, ys, col = _XO[s], _YO[s], 2 * s + b
        window = K4[:, xs : xs + mesh.nx, ys : ys + mesh.n_layers]
        window[gap[rows, col], ..., b] += k_layers[:, rows, col].T[:, None]
    return K


def solve(mesh: Mesh, K: np.ndarray, fixed_dofs, P: np.ndarray) -> np.ndarray:
    """Direct symmetric solve with the DOFs ``fixed_dofs`` held at zero.

    ``K`` is the band :func:`assemble` returns for ``mesh`` and ``P`` the
    full, finite load vector; anything else raises :class:`MeshError`.
    Neither is modified. ``fixed_dofs`` is one strictly increasing 1-D
    sequence of integer DOF ids in ``[0, n_dofs)``, neither empty nor all of
    them; anything else raises :class:`ConstraintError`. Factors and solves
    ``K``'s band with the fixed DOFs pinned (:func:`_pinned_band`) in one
    ``dpbsv`` call per segment and returns the full ``u``, ``+0.0`` at each
    fixed DOF. Only the loaded segments between fully fixed node columns are
    solved (see the module docstring); with no such column, the whole band,
    even under zero load. A stiffness over the free DOFs that is singular or
    indefinite (not enough constraints), has a pivot below 1e-10 of its
    largest diagonal entry or reads a non-finite entry of ``K`` raises
    :class:`SolveError`, naming that entry or the number of near-zero or
    negative eigenvalues.
    """
    _, height = _element_gaps(mesh)
    if np.shape(K) != (height, mesh.n_dofs):
        raise MeshError(
            f"K must be the ({height}, {mesh.n_dofs}) band assemble returns "
            f"for this mesh, got shape {np.shape(K)}"
        )
    if np.shape(P) != (mesh.n_dofs,):
        raise MeshError(f"P must have shape ({mesh.n_dofs},), got {np.shape(P)}")
    if not np.isfinite(P).all():
        dof = np.flatnonzero(~np.isfinite(P))[0]
        raise MeshError(f"P must be finite, got {P[dof]} at DOF {dof}")
    ids = np.asarray(fixed_dofs)
    if ids.ndim != 1:
        raise ConstraintError("fixed DOFs must be a 1-D sequence of DOF ids")
    if ids.dtype.kind not in "iu":
        raise ConstraintError(f"fixed DOF ids must be integers, got dtype {ids.dtype}")
    if not 0 < ids.size < mesh.n_dofs:
        raise ConstraintError(f"fix some but not all {mesh.n_dofs} DOFs, got {ids.size}")
    if not (0 <= ids[0] and ids[-1] < mesh.n_dofs and np.all(ids[1:] > ids[:-1])):
        raise ConstraintError(
            f"fixed DOF ids must lie in [0, {mesh.n_dofs}) and increase strictly"
        )
    fixed = np.zeros(mesh.n_dofs, dtype=bool)
    fixed[ids] = True
    scale = np.max(K[0, ~fixed])
    u = np.array(P, dtype=float)
    u[fixed] = 0.0
    K4, u4, fixed4 = mesh.grid(K), mesh.grid(u), mesh.grid(fixed)
    cut = np.flatnonzero(fixed4.all(axis=(1, 2))).tolist()  # clamp lines
    pbsv = _banded_solver()
    for i, j in zip([-1, *cut], [*cut, len(mesh.x)]):
        seg = u4[i + 1 : j].reshape(-1)  # a view of u: node columns i + 1 to j - 1
        if cut and not seg.any():
            seg[:] = 0.0  # unloaded and held by a fixed column: u = 0
            continue
        ab = _pinned_band(K4[:, i + 1 : j], fixed4[i + 1 : j], scale)
        cb, x, info = pbsv(ab, seg)
        if info < 0:
            raise ValueError(f"dpbsv: illegal value in argument {-info}")
        if info > 0 or not np.min(cb[0] ** 2) > 1e-10 * scale:  # NaN fails too
            raise _rigid_mode_error(K, fixed, scale)
        seg[:] = x
    return u


def _pinned_band(K_seg: np.ndarray, fixed_seg: np.ndarray, scale: float) -> np.ndarray:
    """F-ordered copy of ``K``'s band over a run of DOFs, fixed ones pinned.

    ``K_seg`` and ``fixed_seg`` are the band and the fixed-DOF mask over the
    run, flat or through ``mesh.grid``. A fixed DOF's row and column are
    zeroed and its diagonal set to ``scale``, which leaves the stiffness
    over the free DOFs decoupled from one eigenvalue ``scale`` per fixed
    DOF. The copy keeps ``K``'s ``[d, c]`` indexing, LAPACK's column-major
    lower band, so entries past the run's last DOF are left as copied:
    LAPACK never reads them. The upper form factored ~5x slower on a 2-CPU
    host, with stalls of up to 1 s, unless OpenBLAS ran single-threaded.
    """
    ab = np.array(K_seg.reshape(len(K_seg), -1), dtype=float, order="F")
    f = np.flatnonzero(fixed_seg)
    d, i = np.nonzero(np.arange(len(ab))[:, None] <= f)
    ab[d, f[i] - d] = 0.0  # row f: K[d, f - d]
    ab[:, f] = 0.0  # column f: K[:, f]
    ab[0, f] = scale
    return ab


def _banded_solver():
    """``pbsv(ab, b) -> (cb, x, info)``: LAPACK ``dpbsv``, lower form.

    Factors the Fortran-ordered band ``ab`` by Cholesky and solves with the
    factor for one right-hand side ``b``; returns the factor, the solution
    and LAPACK's ``info``. It may overwrite both arguments. It runs in
    numpy's own OpenBLAS when that has it, else in scipy's.
    """
    pbsv = _numpy_openblas()
    if pbsv is None:
        from scipy.linalg.lapack import dpbsv

        pbsv = functools.partial(dpbsv, lower=1, overwrite_ab=1, overwrite_b=1)
    return pbsv


@functools.cache
def _numpy_openblas():
    """:func:`_banded_solver`'s routine on numpy's bundled OpenBLAS.

    numpy's wheels link ``scipy-openblas`` and ship it next to the package
    (``numpy.libs/``, or ``numpy/.dylibs/`` on macOS). Its ILP64 build,
    with 64-bit integers, exports LAPACK as ``scipy_<name>_64_``, so finding
    ``scipy_dpbsv_64_`` in a ``libscipy_openblas64_*`` there is the whole
    test. Returns None where there is no such file or symbol.
    """
    here = os.path.dirname(np.__file__)
    paths = glob.glob(os.path.join(here + ".libs", "libscipy_openblas64_*"))
    paths += glob.glob(os.path.join(here, ".dylibs", "libscipy_openblas64_*"))
    try:
        dpbsv = ctypes.CDLL(paths[0]).scipy_dpbsv_64_
    except (IndexError, OSError, AttributeError):
        return None
    ptr, ints = ctypes.c_void_p, ctypes.c_int64 * 6
    # Fortran passes every argument by reference and appends the length of
    # each CHARACTER argument (here UPLO) as a trailing size_t. The integers
    # go by address into one int64 array: one ctypes object a call.
    dpbsv.argtypes = [ctypes.c_char_p, *[ptr] * 8, ctypes.c_size_t]
    dpbsv.restype = None

    def pbsv(ab, b):
        ab = np.asfortranarray(ab, dtype=float)
        b = np.ascontiguousarray(b, dtype=float)
        kd, n = ab.shape[0] - 1, ab.shape[1]
        if b.shape != (n,):
            raise ValueError(f"need {n} right-hand side entries, got shape {b.shape}")
        iv = ints(n, kd, 1, kd + 1, n)  # N, KD, NRHS, LDAB, LDB, INFO
        p = ctypes.addressof(iv)
        dpbsv(b"L", p, p + 8, p + 16, ab.ctypes.data, p + 24, b.ctypes.data,
              p + 32, p + 40, 1)
        return ab, b, iv[5]

    return pbsv


def _rigid_mode_error(K: np.ndarray, fixed: np.ndarray, scale: float) -> SolveError:
    """SolveError for ``K`` pinned as :func:`solve` pins it: the first non-finite
    entry of ``K`` at free DOFs, else the count of near-zero/negative modes."""
    ab = _pinned_band(K, fixed, scale)
    nonfinite = ~np.isfinite(ab)
    nonfinite[0, fixed] = False  # scale: the largest free diagonal entry, checked there
    if nonfinite.any():
        d, c = np.argwhere(nonfinite)[0]
        return SolveError(f"K must be finite, got {ab[d, c]} at K[{d}, {c}]")
    from scipy.linalg import eigvals_banded

    eigvals = eigvals_banded(ab, lower=True, check_finite=False)
    bad = int(np.sum(eigvals <= 1e-10 * eigvals.max()))
    return SolveError(
        f"reduced stiffness not positive definite "
        f"({bad} near-zero/negative modes); fix more DOFs",
        rigid_modes=bad,
    )


@dataclass(frozen=True)
class StressField:
    """Per-element, per-corner normal stresses and their von Mises value.

    Arrays are shaped ``(n_elements, 4)`` in local corner order. ``tags``
    holds the tag of each element layer; element ``e`` lies in layer
    ``e // mesh.nx``.
    """

    mesh: Mesh
    sxx: np.ndarray
    syy: np.ndarray
    se: np.ndarray
    tags: tuple[str, ...]

    def max_se_by_tag(self) -> dict[str, float]:
        """Maximum von Mises value over all recovery points, per layer tag."""
        layer_peaks = self.se.reshape(len(self.tags), -1).max(axis=1)
        out: dict[str, float] = {}
        for tag, peak in zip(self.tags, layer_peaks):
            out[tag] = float(np.maximum(out.get(tag, peak), peak))
        return out


def recover(mesh: Mesh, layers, u: np.ndarray):
    """Recover the normal and von Mises stresses at the four element corners.

    ``u`` is the full displacement vector of the mesh under the layer cards
    ``layers``, which gives one :class:`StressField`, or a ``(k, n_dofs)``
    stack of k of them, recovered in one pass into a list of k fields.
    The 2x2 recovery matrix ``chi[:2, :2]`` (shear eliminated) applied to
    rows 0-1 of the strain matrix gives the normal stresses, which are
    taken as the principal pair for the equivalent stress. Layers that
    share a card ``(kind, material, height)`` share one ``(8, 8)``
    operator, the stress rows ``chi[:2, :2] @ B[:2]`` of the four corners
    (sxx of corners 1-4, then syy), so each distinct card is one
    :func:`strain_displacement_full` call, one gather of its elements'
    corner displacements through ``mesh.element_dofs``, the DOF table
    sliced from ``mesh.grid``, and one matmul.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim not in (1, 2) or u.shape[-1] != mesh.n_dofs:
        raise SolveError(f"need a solved displacement vector of {mesh.n_dofs} entries")
    layers = _layer_cards(mesh, layers)
    us = u.reshape(-1, mesh.n_dofs)
    layer_dofs = mesh.element_dofs.reshape(mesh.n_layers, mesh.nx, 8)
    # Per element: sxx, syy, four corners each
    out = np.empty((len(us), mesh.n_layers, mesh.nx, 8))

    for kind, g, chi, mu, js in _card_groups(mesh, layers):
        B3 = strain_displacement_full(kind, g, XI_CORNERS, ETA_CORNERS, mu)
        rows = np.swapaxes(chi[:2, :2] @ B3[:, :2], 0, 1)  # (sxx, syy) x corner
        # C-ordered (8, 8): the matmul runs ~2x faster than on a .T view
        op = np.concatenate([r.T for r in rows], axis=1)
        out[:, js] = np.take(us, layer_dofs[js], axis=1) @ op  # u[element_dofs]

    tags = tuple(layer.tag for layer in layers)
    # (k, n_elements, 4) views of every corner's sxx and syy
    sxx, syy = out.reshape(len(us), mesh.n_elements, 2, 4).transpose(2, 0, 1, 3)
    se = von_mises_plane(sxx, syy)
    fields = [StressField(mesh, *f, tags) for f in zip(sxx, syy, se)]
    return fields[0] if u.ndim == 1 else fields


@dataclass(frozen=True)
class Analysis:
    """One linear analysis: fixed DOFs, full displacements and stresses."""

    fixed_dofs: np.ndarray
    u: np.ndarray
    field: StressField


def analyze(mesh: Mesh, layers, fixed_sets, P: np.ndarray) -> list[Analysis]:
    """Assemble once, then constrain, solve and recover per boundary condition.

    ``layers`` is the sequence of layer cards, ``fixed_sets`` a sequence of
    fixed-DOF sets (each the DOF ids :func:`solve` holds at zero) and ``P``
    the full load vector. ``K`` does not depend on the constraints, so it is
    assembled once and solved against each set; the solutions are recovered
    in one pass. Returns one :class:`Analysis` per set, in order.
    """
    fixed_sets = [np.asarray(fixed) for fixed in fixed_sets]
    if not fixed_sets:
        raise ConstraintError("no fixed-DOF sets to analyze")
    t0 = time.perf_counter()
    K = assemble(mesh, layers)
    t1 = time.perf_counter()
    us = np.array([solve(mesh, K, fixed, P) for fixed in fixed_sets])
    band_rows = len(K)
    del K  # free the band before recovery allocates its arrays
    t2 = time.perf_counter()
    fields = recover(mesh, layers, us)
    _log.debug(
        "analyze: %d DOFs, %d band rows, %d fixed sets; assemble %.3f ms, "
        "solve %.3f ms, recover %.3f ms", mesh.n_dofs, band_rows, len(fixed_sets),
        1e3 * (t1 - t0), 1e3 * (t2 - t1), 1e3 * (time.perf_counter() - t2),
    )
    return [Analysis(*args) for args in zip(fixed_sets, us, fields)]
