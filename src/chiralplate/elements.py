"""Rectangular 4-node plane-strain elements with analytic stiffness.

Local corner numbering follows the sign pattern

    q:      1        2        3        4
    (xi_q, eta_q): (-1,-1)  (1,-1)   (1,1)   (-1,1)

with dimensionless coordinates ``xi = 2(x - x_c)/a_fe`` and
``eta = 2(y - y_c)/b_fe``. Degrees of freedom are node-major:
``(v1x, v1y, v2x, v2y, v3x, v3y, v4x, v4y)``.

Two element kinds are implemented, the conforming element with bilinear
shape functions and the incompatible element, whose displacement field adds
quadratic modes tied to the opposite-axis nodal displacements. The additions
cancel the varying part of the shear strain, which is what softens the
element in bending. :func:`element_stiffness` is the one closed-form 8x8
stiffness of both, assembled from 2x2 blocks indexed by the corner signs. It
reads a material card only as its 3x3 elasticity matrix ``chi`` (and the
Poisson's ratio of the incompatible coupling terms), so this module knows
nothing of material cards.

:func:`strain_displacement_full` is the one strain/displacement matrix of
both kinds. The corner stress recovery evaluates it at the four corners
in one call per layer card, and the test suite integrates ``beta^T chi beta``
from it by Gauss-Legendre quadrature as the independent check on the
closed form (the integrands are quadratic per direction, so order 2 is
already exact; higher orders must agree identically).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

from .errors import GeometryError, MaterialError

__all__ = [
    "XI_CORNERS",
    "ETA_CORNERS",
    "ElementGeometry",
    "element_stiffness",
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
        if not all(0 < d < np.inf for d in (self.a_fe, self.b_fe, self.h)):
            raise GeometryError(
                f"element dimensions must be positive and finite, got "
                f"a_fe={self.a_fe}, b_fe={self.b_fe}, h={self.h}"
            )

    @property
    def gamma(self) -> float:
        """Aspect ratio b_fe / a_fe."""
        return self.b_fe / self.a_fe


def _blocks_to_matrix(blocks: np.ndarray) -> np.ndarray:
    """8x8 matrix from ``blocks[a, b, r, s]``, entry (a, b) of 2x2 block (r, s)."""
    return blocks.transpose(2, 0, 3, 1).reshape(8, 8)


def element_stiffness(
    kind: str, g: ElementGeometry, chi: ArrayLike, mu: float = 0.0
) -> np.ndarray:
    """Closed-form 8x8 stiffness ``int B^T chi B dA`` of either element kind.

    ``chi`` is the 3x3 elasticity matrix of an orthotropic card (zero
    ``chi[0, 2]`` and ``chi[1, 2]``, which are not read) and ``mu`` the
    Poisson's ratio in the incompatible element's coupling terms; the
    conforming kind ignores it, as :func:`strain_displacement_full` does.
    With ``c_ij = chi[i, j]`` and ``w = h/4``, block ``(r, s)`` is

    * xx: ``w [gamma xi_r xi_s (c00 + w0 eta_r eta_s / 3)
      + c22 (eta_r eta_s / gamma)(1 + t xi_r xi_s / 3)]``,
    * yy: ``w [(eta_r eta_s / gamma)(c11 + w1 xi_r xi_s / 3)
      + c22 gamma xi_r xi_s (1 + t eta_r eta_s / 3)]``,
    * xy: ``w (c01 xi_r eta_s + c22 eta_r xi_s)``, and yx its transpose,

    with ``w0 = c00 - 2 mu c01 + mu^2 c11`` and ``w1 = c11 - 2 mu c01 +
    mu^2 c00`` from the coupling terms, and ``t = 1`` for the conforming
    kind (``mu = 0``, so ``w0 = c00``, ``w1 = c11``) but ``t = 0`` for the
    incompatible one, whose added modes make the shear strain constant.
    Symmetric, positive semidefinite with exactly the three rigid-body zero
    modes for a positive definite ``chi``.
    """
    if kind not in ("conforming", "incompatible"):
        raise MaterialError(f"unknown element kind {kind!r}")
    chi = np.asarray(chi, dtype=float)
    c00, c01, c11, c22 = chi[0, 0], chi[0, 1], chi[1, 1], chi[2, 2]
    t = 1.0 if kind == "conforming" else 0.0
    mu = 0.0 if kind == "conforming" else mu
    w0 = c00 - 2.0 * mu * c01 + mu**2 * c11
    w1 = c11 - 2.0 * mu * c01 + mu**2 * c00
    gam = g.gamma
    xr, xs, er, es = _XR, _XS, _ER, _ES
    k = np.array(
        [
            [
                gam * xr * xs * (c00 + w0 * er * es / 3.0)
                + c22 * (er * es / gam) * (1.0 + t * xr * xs / 3.0),
                c01 * xr * es + c22 * er * xs,
            ],
            [
                c01 * er * xs + c22 * xr * es,
                (er * es / gam) * (c11 + w1 * xr * xs / 3.0)
                + c22 * gam * xr * xs * (1.0 + t * er * es / 3.0),
            ],
        ]
    )
    return _blocks_to_matrix(g.h / 4.0 * k)


def strain_displacement_full(
    kind: str, g: ElementGeometry, xi: ArrayLike, eta: ArrayLike, mu: float = 0.0
) -> np.ndarray:
    """Strain/displacement matrix at local points, shape ``(..., 3, 8)``.

    Rows give ``(eps_xx, eps_yy, eps_xy)``. ``xi`` and ``eta`` broadcast
    against each other: scalars give one ``(3, 8)`` matrix, the four corner
    coordinates a ``(4, 3, 8)`` stack. The corner stress recovery stacks
    the stress rows ``chi[:2, :2] @ B[:2]`` of rows 0-1 into one operator
    per layer card; the quadrature oracle integrates all three rows.
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

