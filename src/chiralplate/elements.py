"""Rectangular 4-node plane-strain elements with analytic stiffness.

Local corner numbering follows the sign pattern

    q:      1        2        3        4
    (xi_q, eta_q): (-1,-1)  (1,-1)   (1,1)   (-1,1)

with dimensionless coordinates ``xi = 2(x - x_c)/a_fe`` and
``eta = 2(y - y_c)/b_fe``. Degrees of freedom are node-major:
``(v1x, v1y, v2x, v2y, v3x, v3y, v4x, v4y)``.

Two element families are implemented, both with closed-form 8x8 stiffness
assembled from 2x2 blocks indexed by the corner signs:

* the conforming element with bilinear shape functions, for isotropic and
  transversely isotropic materials;
* the incompatible element, whose displacement field adds quadratic modes
  tied to the opposite-axis nodal displacements. The additions cancel the
  varying part of the shear strain, which is what softens the element in
  bending. Only the isotropic form exists.

:func:`strain_displacement_full` is the one strain/displacement matrix of
both families. The corner stress recovery evaluates it at the four corners
in one call per layer, and the test suite integrates ``beta^T chi beta``
from it by Gauss-Legendre quadrature as the independent check on every
closed form (the integrands are quadratic per direction, so order 2 is
already exact; higher orders must agree identically).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .errors import GeometryError, MaterialError
from .materials import (
    IsotropicMaterial,
    TransverselyIsotropicMaterial,
    plane_strain_matrix,
    ti_plane_strain_matrix,
)

__all__ = [
    "XI_CORNERS",
    "ETA_CORNERS",
    "ElementGeometry",
    "conforming_stiffness_iso",
    "conforming_stiffness_ti",
    "incompatible_stiffness_iso",
    "incompatible_stiffness_iso_layered",
    "strain_displacement_full",
]

XI_CORNERS = (-1.0, 1.0, 1.0, -1.0)
ETA_CORNERS = (-1.0, -1.0, 1.0, 1.0)

# Corner signs as arrays: _XR, _ER (shape (4, 1)) run down the block rows r
# of an 8x8 matrix, _XS, _ES (shape (4,)) across its block columns s, so one
# formula in them gives all 16 2x2 blocks at once.
_XS, _ES = np.array(XI_CORNERS), np.array(ETA_CORNERS)
_XR, _ER = _XS[:, None], _ES[:, None]


@dataclass(frozen=True)
class ElementGeometry:
    """Axis-aligned rectangle: side lengths and out-of-plane depth [mm]."""

    a_fe: float
    b_fe: float
    h: float

    def __post_init__(self):
        if min(self.a_fe, self.b_fe, self.h) <= 0:
            raise GeometryError(
                f"element dimensions must be positive, got "
                f"a_fe={self.a_fe}, b_fe={self.b_fe}, h={self.h}"
            )

    @property
    def gamma(self) -> float:
        """Aspect ratio b_fe / a_fe."""
        return self.b_fe / self.a_fe


def _blocks_to_matrix(blocks: np.ndarray) -> np.ndarray:
    """8x8 matrix from ``blocks[a, b, r, s]``, entry (a, b) of 2x2 block (r, s)."""
    return blocks.transpose(2, 0, 3, 1).reshape(8, 8)


def conforming_stiffness_iso(
    g: ElementGeometry, mat: IsotropicMaterial
) -> np.ndarray:
    """Closed-form stiffness of the conforming element, isotropic material.

    Sum of the normal-strain and shear blocks; symmetric, positive
    semidefinite with exactly the three rigid-body zero modes.
    """
    return conforming_stiffness_ti(
        g,
        TransverselyIsotropicMaterial(
            E1=mat.E, mu1=mat.mu, E2=mat.E, mu2=mat.mu, G2=mat.G
        ),
    )


def conforming_stiffness_ti(
    g: ElementGeometry, mat: TransverselyIsotropicMaterial
) -> np.ndarray:
    """Closed-form stiffness of the conforming element, TI material.

    Reduces to the isotropic form under isotropic degeneration of the
    material card.
    """
    gam, h = g.gamma, g.h
    n1, mu1, mu2, G2 = mat.n1, mat.mu1, mat.mu2, mat.G2
    cE = mat.E2 * h / (4.0 * (1.0 + mu1) * (1.0 - mu1 - 2.0 * n1 * mu2**2))
    cG = G2 * h / 4.0
    a11 = n1 - n1**2 * mu2**2
    a12 = n1 * mu2 * (1.0 + mu1)
    a22 = 1.0 - mu1**2
    xr, xs, er, es = _XR, _XS, _ER, _ES
    kE = cE * np.array(
        [
            [a11 * gam * xr * xs * (1.0 + er * es / 3.0), a12 * xr * es],
            [a12 * er * xs, a22 * (er * es / gam) * (1.0 + xr * xs / 3.0)],
        ]
    )
    kG = cG * np.array(
        [
            [(er * es / gam) * (1.0 + xr * xs / 3.0), er * xs],
            [xr * es, gam * xr * xs * (1.0 + er * es / 3.0)],
        ]
    )
    return _blocks_to_matrix(kE + kG)


def incompatible_stiffness_iso(
    g: ElementGeometry, mat: IsotropicMaterial
) -> np.ndarray:
    """Closed-form stiffness of the incompatible element.

    The shear block loses the 1/3 correction terms of the conforming
    element (the added modes make the shear strain constant), and the
    normal block's bracket becomes ``1 - mu + (1 - mu - mu^2 - mu^3)/3``
    on the diagonal coupling.
    """
    gam, h = g.gamma, g.h
    E, mu, G = mat.E, mat.mu, mat.G
    cE = E * h / (4.0 * (1.0 + mu) * (1.0 - 2.0 * mu))
    cG = G * h / 4.0
    br = (1.0 - mu - mu**2 - mu**3) / 3.0
    xr, xs, er, es = _XR, _XS, _ER, _ES
    kE = cE * np.array(
        [
            [gam * xr * xs * (1.0 - mu + br * er * es), mu * xr * es],
            [mu * er * xs, (er * es / gam) * (1.0 - mu + br * xr * xs)],
        ]
    )
    kG = cG * np.array(
        [
            [er * es / gam, er * xs],
            [xr * es, gam * xr * xs],
        ]
    )
    return _blocks_to_matrix(kE + kG)


# The layered formulas parameterize gamma, E and mu by the layer index but
# are otherwise identical to the single-layer incompatible element.
incompatible_stiffness_iso_layered = incompatible_stiffness_iso


def strain_displacement_full(
    kind: str, g: ElementGeometry, xi: ArrayLike, eta: ArrayLike, mu: float = 0.0
) -> np.ndarray:
    """Strain/displacement matrix at local points, shape ``(..., 3, 8)``.

    Rows give ``(eps_xx, eps_yy, eps_xy)``. ``xi`` and ``eta`` broadcast
    against each other: scalars give one ``(3, 8)`` matrix, the four corner
    coordinates a ``(4, 3, 8)`` stack. The corner stress recovery stacks
    rows 0-1 and their stress rows ``chi[:2, :2] @ B[:2]`` (plus the shear
    row and ``chi[2] @ B`` in its diagnostic mode) into one operator per
    layer card; the quadrature oracle integrates all three rows.
    ``kind`` is ``"conforming"`` or ``"incompatible"``. The incompatible
    normal rows add coupling terms, which carry a factor ``mu`` and vanish
    for ``mu = 0``, and its added modes cancel the bilinear variation of the
    shear strain, leaving a constant shear row.
    """
    xi, eta = np.asarray(xi, dtype=float), np.asarray(eta, dtype=float)
    if not np.all((-1.0 <= xi) & (xi <= 1.0) & (-1.0 <= eta) & (eta <= 1.0)):
        raise GeometryError(f"local point ({xi}, {eta}) outside [-1, 1]^2")
    if kind not in ("conforming", "incompatible"):
        raise MaterialError(f"unknown element kind {kind!r}")
    B = np.zeros(np.broadcast_shapes(xi.shape, eta.shape) + (3, 8))
    a_fe, b_fe = g.a_fe, g.b_fe
    xq, eq = _XS, _ES  # one entry per corner q, along the last axis
    xi, eta = xi[..., None], eta[..., None]
    B[..., 0, 0::2] = xq * (1.0 + eq * eta) / a_fe / 2.0
    B[..., 1, 1::2] = eq * (1.0 + xq * xi) / b_fe / 2.0
    if kind == "incompatible":
        B[..., 0, 1::2] = -mu * xq * eq * xi / b_fe / 2.0
        B[..., 1, 0::2] = -mu * xq * eq * eta / a_fe / 2.0
        B[..., 2, 0::2] = eq / (2.0 * b_fe)
        B[..., 2, 1::2] = xq / (2.0 * a_fe)
    else:
        B[..., 2, 0::2] = eq * (1.0 + xq * xi) / (2.0 * b_fe)
        B[..., 2, 1::2] = xq * (1.0 + eq * eta) / (2.0 * a_fe)
    return B


def element_stiffness(
    kind: str,
    g: ElementGeometry,
    mat: IsotropicMaterial | TransverselyIsotropicMaterial,
) -> np.ndarray:
    """Dispatch to the right closed form for a (kind, material) pair."""
    if isinstance(mat, TransverselyIsotropicMaterial):
        if kind != "conforming":
            raise MaterialError(
                "incompatible elements are defined for isotropic layers only"
            )
        return conforming_stiffness_ti(g, mat)
    if kind == "conforming":
        return conforming_stiffness_iso(g, mat)
    if kind == "incompatible":
        return incompatible_stiffness_iso(g, mat)
    raise MaterialError(f"unknown element kind {kind!r}")


def full_elasticity_matrix(
    mat: IsotropicMaterial | TransverselyIsotropicMaterial,
) -> np.ndarray:
    """Full 3x3 elasticity matrix for either material model."""
    if isinstance(mat, TransverselyIsotropicMaterial):
        return ti_plane_strain_matrix(mat)
    return plane_strain_matrix(mat)
