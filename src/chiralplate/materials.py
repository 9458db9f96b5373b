"""Elastic materials and their plane-strain constitutive matrices.

Unit system is fixed to mm / N / MPa throughout the library. Two material
models are supported: isotropic solids and transversely isotropic media
(used for the homogenized honeycomb core). For each, the module builds
the full 3x3 plane-strain elasticity matrix ``chi`` ordered
``(eps_xx, eps_yy, eps_xy)``; the nodal stress recovery uses its upper 2x2
block ``chi[:2, :2]``, the matrix with the shear row and column dropped.
:func:`full_elasticity_matrix` gives ``chi`` for either card; the element
stiffness and the stress recovery read a card only through it.

The von Mises equivalent stress of two principal stresses rounds out the
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MaterialError

__all__ = [
    "IsotropicMaterial",
    "TransverselyIsotropicMaterial",
    "full_elasticity_matrix",
    "plane_strain_matrix",
    "ti_plane_strain_matrix",
    "von_mises_plane",
]


@dataclass(frozen=True)
class IsotropicMaterial:
    """Isotropic linear-elastic solid.

    Parameters
    ----------
    E : float
        Young's modulus [MPa]. Must be positive.
    mu : float
        Poisson's ratio. Must satisfy ``0 <= mu < 0.5``; the plane-strain
        matrix is singular at 0.5.
    rho : float, optional
        Density [kg/m^3]; informational only.
    sigma_el : float, optional
        Elastic-limit stress [MPa] used for critical-load scaling.
    """

    E: float
    mu: float
    rho: float = 0.0
    sigma_el: float | None = None

    def __post_init__(self):
        if not 0 < self.E < math.inf:
            raise MaterialError(
                f"Young's modulus must be positive and finite, got E={self.E}"
            )
        if not (0.0 <= self.mu < 0.5):
            raise MaterialError(
                f"Poisson's ratio must lie in [0, 0.5), got mu={self.mu}"
            )
        if not math.isfinite(self.rho):
            raise MaterialError(f"density must be finite, got rho={self.rho}")
        if self.sigma_el is not None and not 0 < self.sigma_el < math.inf:
            raise MaterialError(
                f"sigma_el must be positive and finite, got {self.sigma_el}"
            )

    @property
    def G(self) -> float:
        """Shear modulus E / (2 (1 + mu)) [MPa]."""
        return self.E / (2.0 * (1.0 + self.mu))


@dataclass(frozen=True)
class TransverselyIsotropicMaterial:
    """Transversely isotropic medium for the plane problem.

    ``E1``/``mu1`` describe the isotropy plane, ``E2``/``mu2``/``G2`` the
    response along and across the symmetry axis. Dimensionless ratios
    ``n1 = E1/E2`` and ``m1 = G2/E2`` enter the elasticity matrix.

    Parameters
    ----------
    E1 : float
        In-plane modulus [MPa], ``E1 >= 0``.
    mu1 : float
        In-plane Poisson's ratio.
    E2 : float
        Out-of-plane modulus [MPa], ``E2 > 0``.
    mu2 : float
        Out-of-plane Poisson's ratio.
    G2 : float
        Out-of-plane shear modulus [MPa], ``G2 > 0``.
    """

    E1: float
    mu1: float
    E2: float
    mu2: float
    G2: float

    def __post_init__(self):
        card = (self.E1, self.mu1, self.E2, self.mu2, self.G2)
        if not all(map(math.isfinite, card)):
            raise MaterialError(f"card entries must be finite, got {card}")
        if self.E1 < 0:
            raise MaterialError(f"E1 must be non-negative, got {self.E1}")
        if not self.E2 > 0:
            raise MaterialError(f"E2 must be positive, got {self.E2}")
        if not self.G2 > 0:
            raise MaterialError(f"G2 must be positive, got {self.G2}")
        # Each factor, not only their product: two negative factors give a
        # positive denominator but an indefinite chi.
        f1, f2 = 1.0 + self.mu1, 1.0 - self.mu1 - 2.0 * self.n1 * self.mu2**2
        if not (f1 > 0 and f2 > 0):
            raise MaterialError(
                f"elasticity matrix ill-posed: 1+mu1 = {f1:g} and "
                f"1-mu1-2*n1*mu2^2 = {f2:g} must both be positive"
            )

    @property
    def n1(self) -> float:
        return self.E1 / self.E2

    @property
    def m1(self) -> float:
        return self.G2 / self.E2

    def _denominator(self) -> float:
        return (1.0 + self.mu1) * (1.0 - self.mu1 - 2.0 * self.n1 * self.mu2**2)


def plane_strain_matrix(mat: IsotropicMaterial) -> np.ndarray:
    """Full 3x3 plane-strain elasticity matrix of an isotropic solid.

    Rows and columns are ordered ``(eps_xx, eps_yy, eps_xy)``. The matrix is
    symmetric and positive definite for ``0 <= mu < 0.5``.
    """
    E, mu = mat.E, mat.mu
    c = E / ((1.0 + mu) * (1.0 - 2.0 * mu))
    return c * np.array(
        [
            [1.0 - mu, mu, 0.0],
            [mu, 1.0 - mu, 0.0],
            [0.0, 0.0, (1.0 - 2.0 * mu) / 2.0],
        ]
    )


def ti_plane_strain_matrix(mat: TransverselyIsotropicMaterial) -> np.ndarray:
    """3x3 plane-strain elasticity matrix of a transversely isotropic medium.

    The (2, 2) shear entry reduces to exactly ``G2``. Degenerates to the
    isotropic matrix when ``E1 = E2``, ``mu1 = mu2`` and ``G2 = E/(2(1+mu))``.
    """
    n1, mu1, mu2 = mat.n1, mat.mu1, mat.mu2
    c = mat.E2 / mat._denominator()
    return c * np.array(
        [
            [n1 * (1.0 - n1 * mu2**2), n1 * mu2 * (1.0 + mu1), 0.0],
            [n1 * mu2 * (1.0 + mu1), 1.0 - mu1**2, 0.0],
            [0.0, 0.0, mat.m1 * mat._denominator()],
        ]
    )


def full_elasticity_matrix(
    mat: IsotropicMaterial | TransverselyIsotropicMaterial,
) -> np.ndarray:
    """Full 3x3 plane-strain elasticity matrix ``chi`` of either card."""
    if isinstance(mat, TransverselyIsotropicMaterial):
        return ti_plane_strain_matrix(mat)
    return plane_strain_matrix(mat)


def von_mises_plane(s1, s2):
    """Equivalent stress from two principal stresses [MPa].

    ``sqrt(s1^2 + s2^2 - s1*s2)``; symmetric in its arguments and equal to
    ``|s|`` for equal-biaxial or uniaxial states. Scalars give a float;
    arrays are evaluated elementwise. Scaling by the power of two of
    ``max(|s1|, |s2|)`` keeps the squares from over- and underflowing.
    """
    _, e = np.frexp(np.maximum(np.abs(s1), np.abs(s2)))
    t1, t2 = np.ldexp(s1, -e), np.ldexp(s2, -e)
    se = np.ldexp(np.sqrt(t1 * t1 + t2 * t2 - t1 * t2), e)
    return float(se) if np.ndim(se) == 0 else se
