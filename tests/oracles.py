"""Brute-force reference implementations the tests check the library against.

Each oracle follows the textbook rule one element, node or corner at a time
and trades speed for obviousness:

* :func:`node_id` numbers the nodes column by column, y fastest, the
  layout ``Mesh.grid`` states once in the library, :func:`node_coords` lists
  their positions in that order, :func:`element_nodes` reads an element's
  corner nodes off the grid indices and the corner signs, and
  :func:`element_dof_table` lists every element's DOFs one element at a
  time from those nodes, independently of ``Mesh.element_dofs``, which the
  library slices from ``Mesh.grid``;
* :func:`correspondence_matrix` and :func:`expanded_stiffness` place an
  element matrix at global size through the node-correspondence matrix A;
* :func:`assemble_dense` sums every element block into a dense ``n x n``
  stiffness in node-major DOF order, and :func:`dense_from_band` unpacks
  the band that ``assemble`` returns into that same dense matrix;
* :func:`band_matvec` multiplies ``K @ u`` straight from that band, for
  residuals and reactions on meshes whose dense K would not fit;
* :func:`assemble_scatter` adds every element block into the band in one
  ``bincount`` through that table, in element order;
* :func:`node_dofs` lists the DOF ids of whole nodes, one node at a time,
  and :func:`solve_dense` factors the dense reduced matrix
  ``K[free, free]`` over the DOFs a fixed-DOF set leaves free;
* :func:`recover_loop` recovers the corner stresses element by element and
  corner by corner with scalar von Mises evaluations, and
  :func:`recover_per_layer` layer by layer, with the per-card operator
  ``recover`` applies to a group of layers;
* :func:`quadrature_stiffness` integrates an element stiffness by
  Gauss-Legendre quadrature from the shape functions, the check on every
  closed form;
* :func:`plane_strain_submatrices` and :func:`ti_submatrices` split the
  elasticity matrices into normal and shear parts, and :func:`von_mises_3d`
  is the triaxial equivalent stress.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from chiralplate import (
    GeometryError,
    IsotropicMaterial,
    Mesh,
    StressField,
    TransverselyIsotropicMaterial,
    full_elasticity_matrix,
    plane_strain_matrix,
    ti_plane_strain_matrix,
    von_mises_plane,
)
from chiralplate.elements import (
    ETA_CORNERS,
    XI_CORNERS,
    ElementGeometry,
    element_stiffness,
    strain_displacement_full,
)


def node_id(mesh: Mesh, i: int, j: int) -> int:
    """Number of the node at ``(x[i], y[j])``: column by column, y fastest.
    Its DOFs are ``2 n`` (x) and ``2 n + 1`` (y)."""
    return i * len(mesh.y) + j


def node_coords(mesh: Mesh) -> np.ndarray:
    """``(n_nodes, 2)`` node positions in :func:`node_id` order."""
    return np.array([(x, y) for x in mesh.x for y in mesh.y])


def element_nodes(mesh: Mesh, elem: int) -> tuple[int, ...]:
    """Global node ids of the element's corners in local order 1..4.

    Elements are numbered row-major, x fastest within a layer; the corner at
    signs ``(xi, eta)`` sits on the element's right (xi = 1) or left grid
    line and on its top (eta = 1) or bottom grid line.
    """
    i, j = elem % mesh.nx, elem // mesh.nx
    return tuple(
        node_id(mesh, i + (xi > 0), j + (eta > 0))
        for xi, eta in zip(XI_CORNERS, ETA_CORNERS)
    )


def element_dof_table(mesh: Mesh) -> np.ndarray:
    """``(n_elements, 8)``: the x and y DOF of each corner of each element,
    corners in local order, built one element at a time."""
    return np.array([
        [2 * m + c for m in element_nodes(mesh, e) for c in (0, 1)]
        for e in range(mesh.n_elements)
    ])


def correspondence_matrix(mesh: Mesh) -> np.ndarray:
    """Dense node-correspondence matrix A with A[m, i] in {0, 1, 2, 3, 4}.

    ``A[m, i] = q`` when global node ``m`` is local corner ``q`` (1-based)
    of element ``i``; zero otherwise. Each element column carries exactly
    four nonzero entries with distinct values 1..4.
    """
    A = np.zeros((mesh.n_nodes, mesh.n_elements), dtype=int)
    for e in range(mesh.n_elements):
        for q, m in enumerate(element_nodes(mesh, e), start=1):
            A[m, e] = q
    return A


def expanded_stiffness(mesh: Mesh, elem: int, k_e: np.ndarray) -> np.ndarray:
    """Element stiffness scattered to global size via the A-matrix rule."""
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


def _layer_stiffness(mesh: Mesh, layers) -> np.ndarray:
    """``(n_layers, 8, 8)``: each layer's element stiffness."""
    return np.array([
        element_stiffness(
            layer.kind, ElementGeometry(mesh.a_fe, mesh.layer_height(j), mesh.h),
            full_elasticity_matrix(layer.material),
            layer.material.mu if layer.kind == "incompatible" else 0.0,
        )
        for j, layer in enumerate(layers)
    ])


def assemble_dense(mesh: Mesh, layers) -> np.ndarray:
    """Dense global stiffness K in node-major DOF order.

    Every element of a layer shares one stiffness matrix. All element
    blocks are scattered in one pass through :func:`element_dof_table`,
    adding the contributions to each entry in element order.
    """
    k_layers = _layer_stiffness(mesh, tuple(layers))
    n = mesh.n_dofs
    dofs = element_dof_table(mesh)
    flat = (dofs[:, :, None] * n + dofs[:, None, :]).ravel()
    weights = np.repeat(k_layers, mesh.nx, axis=0).ravel()
    return np.bincount(flat, weights=weights, minlength=n * n).reshape(n, n)


def assemble_scatter(mesh: Mesh, layers) -> np.ndarray:
    """Lower band of K, ``(bw + 1, n_dofs)``, in one scatter of all elements.

    Every lower-triangle entry of every element block goes through
    :func:`element_dof_table` to its band slot, and ``np.bincount`` adds the
    contributions to each slot in element order.
    """
    k_layers = _layer_stiffness(mesh, tuple(layers))
    n, bw = mesh.n_dofs, 2 * len(mesh.y) + 3
    dofs = element_dof_table(mesh)
    row, col = dofs[:, :, None], dofs[:, None, :]
    lower = row >= col
    flat = ((row - col) * n + col)[lower]
    weights = np.repeat(k_layers, mesh.nx, axis=0)[lower]
    return np.bincount(flat, weights=weights, minlength=(bw + 1) * n).reshape(bw + 1, n)


def dense_from_band(mesh: Mesh, band: np.ndarray) -> np.ndarray:
    """Dense symmetric K (node-major DOFs) from the lower band of ``assemble``.

    ``K[r, c] = band[|r - c|, min(r, c)]``; entries farther apart than the
    band are zero.
    """
    dofs = np.arange(mesh.n_dofs)
    offset = np.abs(dofs[:, None] - dofs[None, :])
    first = np.minimum(dofs[:, None], dofs[None, :])
    inside = offset < len(band)
    K = np.zeros((mesh.n_dofs, mesh.n_dofs))
    K[inside] = band[offset[inside], first[inside]]
    return K


def band_matvec(band: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``K @ u`` from the lower band of K, never forming the matrix."""
    y = band[0] * u
    for d in range(1, len(band)):
        y[d:] += band[d, :-d] * u[:-d]
        y[:-d] += band[d, :-d] * u[d:]
    return y


def node_dofs(nodes) -> np.ndarray:
    """The fixed DOF ids of whole nodes: ``2 n`` and ``2 n + 1`` of each
    node ``n``, sorted."""
    return np.array(sorted(2 * n + c for n in nodes for c in (0, 1)), dtype=int)


def solve_dense(K: np.ndarray, fixed: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Dense Cholesky solve of ``K[free, free] u_f = P[free]``, ``free`` the
    DOFs outside ``fixed``; full u."""
    free = np.delete(np.arange(len(K)), fixed)
    u = np.zeros(len(K))
    factor = cho_factor(K[np.ix_(free, free)])
    u[free] = cho_solve(factor, P[free])
    return u


def recover_loop(mesh: Mesh, layers, u: np.ndarray):
    """Corner stresses, one element and one corner at a time.

    Each corner's normal strains ``B[:2] @ v`` are formed first and then
    multiplied by the 2x2 block ``chi[:2, :2]``, the textbook order.
    """
    n_el = mesh.n_elements
    sxx, syy, se = (np.zeros((n_el, 4)) for _ in range(3))
    for j, layer in enumerate(layers):
        g = ElementGeometry(mesh.a_fe, mesh.layer_height(j), mesh.h)
        mat = layer.material
        if isinstance(mat, TransverselyIsotropicMaterial):
            chi2, mu = ti_plane_strain_matrix(mat)[:2, :2], mat.mu1
        else:
            chi2, mu = plane_strain_matrix(mat)[:2, :2], mat.mu
        for i in range(mesh.nx):
            e = j * mesh.nx + i
            nodes = element_nodes(mesh, e)
            v = np.empty(8)
            v[0::2] = u[[2 * m for m in nodes]]
            v[1::2] = u[[2 * m + 1 for m in nodes]]
            for q in range(4):
                xi, eta = XI_CORNERS[q], ETA_CORNERS[q]
                B = strain_displacement_full(layer.kind, g, xi, eta, mu)
                sig = chi2 @ (B[:2] @ v)
                sxx[e, q], syy[e, q] = sig
                se[e, q] = von_mises_plane(sig[0], sig[1])
    return StressField(
        mesh=mesh, sxx=sxx, syy=syy, se=se,
        tags=tuple(layer.tag for layer in layers),
    )


def recover_per_layer(mesh: Mesh, layers, u: np.ndarray):
    """Corner stresses, one layer at a time.

    Each layer is one strain-matrix call over its four corners, one gather
    through :func:`element_dof_table` and one matmul with the operator
    ``recover`` builds per card, the stress rows of the four corners
    stacked in the same order (sxx of corners 1-4, then syy), so each
    element's values come out to the same bits.
    """
    n_el = mesh.n_elements
    sxx, syy, se = (np.zeros((n_el, 4)) for _ in range(3))
    U = u[element_dof_table(mesh)]
    for j, layer in enumerate(layers):
        g = ElementGeometry(mesh.a_fe, mesh.layer_height(j), mesh.h)
        chi = full_elasticity_matrix(layer.material)
        mu = layer.material.mu if layer.kind == "incompatible" else 0.0
        B3 = strain_displacement_full(layer.kind, g, XI_CORNERS, ETA_CORNERS, mu)
        sig_rows = np.swapaxes(chi[:2, :2] @ B3[:, :2], 0, 1)
        rows = slice(j * mesh.nx, (j + 1) * mesh.nx)
        values = U[rows] @ np.concatenate([r.T for r in sig_rows], axis=1)
        q = values.reshape(mesh.nx, 2, 4)  # (element, quantity, corner)
        sxx[rows], syy[rows] = q[:, 0], q[:, 1]
        se[rows] = von_mises_plane(sxx[rows], syy[rows])
    return StressField(
        mesh=mesh, sxx=sxx, syy=syy, se=se,
        tags=tuple(layer.tag for layer in layers),
    )


def quadrature_stiffness(
    kind: str,
    g: ElementGeometry,
    chi_full: np.ndarray,
    order: int = 2,
    mu: float = 0.0,
) -> np.ndarray:
    """Gauss-Legendre integration of ``beta^T chi beta`` over the element.

    Independent oracle for the closed-form stiffness matrices; order 2 is
    exact for the conforming element and order >= 2 for the incompatible
    one, so results are order-independent above the exactness threshold.
    """
    if order < 2:
        raise GeometryError(f"quadrature order must be >= 2, got {order}")
    pts, wts = np.polynomial.legendre.leggauss(order)
    k = np.zeros((8, 8))
    for xi, wx in zip(pts, wts):
        for eta, wy in zip(pts, wts):
            B = strain_displacement_full(kind, g, xi, eta, mu)
            k += wx * wy * (B.T @ chi_full @ B)
    return k * (g.a_fe * g.b_fe * g.h / 4.0)


def plane_strain_submatrices(mat: IsotropicMaterial) -> tuple[np.ndarray, np.ndarray]:
    """Split the isotropic plane-strain matrix into normal and shear parts.

    Returns ``(chi_E, chi_G)`` with ``chi_E + chi_G == plane_strain_matrix``:
    ``chi_E`` carries the normal-strain block with a zero shear row/column,
    ``chi_G`` carries the shear modulus G in the (2, 2) slot only.
    """
    chi = plane_strain_matrix(mat)
    chi_E = chi.copy()
    chi_E[2, 2] = 0.0
    chi_G = np.zeros((3, 3))
    chi_G[2, 2] = mat.G
    return chi_E, chi_G


def ti_submatrices(
    mat: TransverselyIsotropicMaterial,
) -> tuple[np.ndarray, np.ndarray]:
    """Normal/shear split of the transversely isotropic matrix."""
    chi = ti_plane_strain_matrix(mat)
    chi_E = chi.copy()
    chi_E[2, 2] = 0.0
    chi_G = np.zeros((3, 3))
    chi_G[2, 2] = mat.G2
    return chi_E, chi_G


def von_mises_3d(s1: float, s2: float, s3: float) -> float:
    """Equivalent stress from three principal stresses [MPa].

    Vanishes for hydrostatic states and is invariant under permutation of
    the arguments.
    """
    return float(
        np.sqrt(((s1 - s2) ** 2 + (s2 - s3) ** 2 + (s3 - s1) ** 2) / 2.0)
    )
