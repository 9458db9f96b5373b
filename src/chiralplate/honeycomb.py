"""Tetrachiral cell geometry and homogenized core properties.

The core is a square lattice of thin-walled cylinders (pitch ``L_h``, mean
diameter ``d_a``) joined by ribs tangent to the mean circle of each pair of
neighbours. With the pitch fixed at ``L_h = 1.6 d_a`` the rib length and
rib angle follow from the tangency construction:

    l     = sqrt(L_h^2 - d_a^2)
    theta = arctan(2 r_a / l)            (r_a = d_a / 2)

All homogenized properties depend only on ratios such as ``t_sw / l``, so
a cell is its shape ratio ``tau = t_sw / d_a`` and ``d_a`` enters only as
the length scale ``t_sw = d_a * tau``.

The closed-form relative density uses ``alpha = l/r`` and ``beta = t_sw/r``
with ``r = r_a + t_sw/2`` the outer cylinder radius and
``phi = arccos(1 - beta)``; its denominator ``(2-beta)^2 + alpha^2`` is the
cell area in units of ``r^2``. It is inverted for ``tau`` by bisection on
the unit cell ``d_a = 1`` (the value is strictly increasing in ``tau``).

Two independent closed-form estimates of the in-plane Poisson's ratio are
provided (``poisson_qi``, ``poisson_lu``). Both are negative for thin
walls; the first crosses into positive values as the relative density
grows, the second stays in ``[-1, 0]`` and loses validity once the walls
are thick enough that the effective rib span ``l_e`` vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import GeometryError
from .materials import IsotropicMaterial, TransverselyIsotropicMaterial

__all__ = [
    "TetrachiralGeometry",
    "geometry_from_cell",
    "relative_density",
    "wall_thickness_for_density",
    "effective_E1",
    "effective_E2",
    "effective_G2",
    "effective_material",
    "poisson_qi",
    "poisson_lu",
]

PITCH_RATIO = 1.6  # L_h / d_a, fixed by the cell family under study

_BISECTION_TOL = 1e-12
_UNIT_RIB = math.sqrt(PITCH_RATIO**2 - 1.0)  # rib length of the unit cell, d_a = 1
_TAU_MAX = 1.0 - 1e-12  # t_sw / d_a as the walls close up


@dataclass(frozen=True)
class TetrachiralGeometry:
    """Geometry of one tetrachiral unit cell (lengths in mm).

    Attributes:
        d_a: mean cylinder diameter.
        t_sw: wall thickness (cylinders and ribs).
        L_h: lattice pitch, ``1.6 * d_a``.
        l: rib length between tangency points.
        theta: rib angle against the line of centres [rad].
    """

    d_a: float
    t_sw: float
    L_h: float
    l: float
    theta: float

    @property
    def r_a(self) -> float:
        """Mean cylinder radius d_a / 2."""
        return self.d_a / 2.0

    @property
    def r(self) -> float:
        """Outer cylinder radius r_a + t_sw / 2."""
        return self.r_a + self.t_sw / 2.0

    @property
    def alpha(self) -> float:
        """Rib length over outer radius, l / r."""
        return self.l / self.r

    @property
    def beta(self) -> float:
        """Wall thickness over outer radius, t_sw / r; in (0, 1)."""
        return self.t_sw / self.r


def geometry_from_cell(d_a: float, t_sw: float) -> TetrachiralGeometry:
    """Construct the cell geometry from diameter and wall thickness.

    Parameters
    ----------
    d_a : float
        Mean cylinder diameter [mm], positive and finite.
    t_sw : float
        Wall thickness [mm], positive and finite; must satisfy
        ``t_sw < d_a`` so that ``beta = t_sw / r`` stays below 1.
    """
    if not 0 < d_a < math.inf:
        raise GeometryError(f"cylinder diameter must be positive and finite, got {d_a}")
    if not 0 < t_sw < math.inf:
        raise GeometryError(f"wall thickness must be positive and finite, got {t_sw}")
    L_h = PITCH_RATIO * d_a
    l = math.sqrt(L_h**2 - d_a**2)
    theta = math.atan2(d_a, l)
    g = TetrachiralGeometry(d_a=d_a, t_sw=t_sw, L_h=L_h, l=l, theta=theta)
    if not g.beta < 1.0:
        raise GeometryError(
            f"wall thickness {t_sw} too large for d_a={d_a}: t_sw/r = {g.beta:g} >= 1"
        )
    return g


def relative_density(g: TetrachiralGeometry) -> float:
    """Solid-area fraction of the unit cell, in (0, 1).

    Closed form over ``alpha = l/r``, ``beta = t_sw/r``: two ribs and one
    annulus per cell, less the junction double-count, normalized by the cell
    area ``(2-beta)^2 + alpha^2`` (in ``r^2`` units).
    """
    alpha, beta = g.alpha, g.beta
    if not beta < 1.0:
        raise GeometryError(f"beta = t_sw/r = {beta:g} must be below 1")
    return _density(alpha, beta)


def _density_of_cell(tau: float) -> float:
    """:func:`relative_density` of the unit cell ``(1, tau)``, ``0 < tau < 1``,
    by the same float operations, without building its geometry."""
    r = 0.5 + tau / 2.0
    return _density(_UNIT_RIB / r, tau / r)


def _density(alpha: float, beta: float) -> float:
    """The closed form of :func:`relative_density` in ``alpha``, ``beta``."""
    phi = math.acos(1.0 - beta)
    num = beta * (2.0 * alpha + math.pi * (2.0 - beta)) - 2.0 * (
        phi - (1.0 - beta) * math.sin(phi)
    )
    den = 4.0 * ((1.0 - beta / 2.0) ** 2 + alpha**2 / 4.0)
    return num / den


_RHO_MAX = _density_of_cell(_TAU_MAX)  # reachable supremum, walls closed up


def wall_thickness_for_density(d_a: float, rho_target: float) -> float:
    """Invert the relative-density relation for the wall thickness ``d_a * tau``."""
    return d_a * _wall_ratio_for_density(d_a, rho_target)


def _wall_ratio_for_density(d_a: float, rho_target: float) -> float:
    """The shape ratio ``tau = t_sw / d_a`` of density ``rho_target``, by
    bisection on the unit cell, to better than 1e-10 in density; one float
    for every ``d_a``, which is only checked and named in the messages."""
    if not 0.0 < rho_target < 1.0:
        raise GeometryError(f"target density must lie in (0, 1), got {rho_target}")
    if not 0 < d_a < math.inf:
        raise GeometryError(f"cylinder diameter must be positive and finite, got {d_a}")
    if rho_target >= _RHO_MAX:
        raise GeometryError(
            f"target density {rho_target:g} unreachable: maximum for "
            f"d_a={d_a} is {_RHO_MAX:g}"
        )
    lo, hi = 0.0, _TAU_MAX
    while hi - lo > _BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if _density_of_cell(mid) < rho_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def effective_E1(g: TetrachiralGeometry, E_s: float) -> float:
    """Homogenized in-plane Young's modulus [MPa].

    Bending-dominated: scales like ``(t_sw/l)^3`` for thin walls, hence the
    strong in-plane compliance of the lattice.
    """
    tl = g.t_sw / g.l
    return E_s * tl / (math.cos(g.theta) ** 2 + math.sin(g.theta) ** 2 / tl**2)


def effective_E2(g: TetrachiralGeometry, E_s: float) -> float:
    """Homogenized out-of-plane Young's modulus, E_s * rho_rel [MPa]."""
    return E_s * relative_density(g)


def effective_G2(g: TetrachiralGeometry, G_s: float) -> float:
    """Homogenized out-of-plane shear modulus [MPa]."""
    alpha, beta, theta = g.alpha, g.beta, g.theta
    num = math.cos(theta) ** 2 + alpha * math.cos(math.pi / 2.0 - theta) ** 2 + math.pi
    return G_s * beta * num / (1.0 + alpha**2)


def effective_material(
    g: TetrachiralGeometry, solid: IsotropicMaterial
) -> TransverselyIsotropicMaterial:
    """Homogenized core as a transversely isotropic material card.

    In the bending cross-section the honeycomb's in-plane direction lies
    along the span (axis 1) and the out-of-plane direction along the load
    path (axis 2). The in-plane Poisson's ratio of the card is taken as
    zero and the out-of-plane one as the solid's ratio.
    """
    return TransverselyIsotropicMaterial(
        E1=effective_E1(g, solid.E),
        mu1=0.0,
        E2=effective_E2(g, solid.E),
        mu2=solid.mu,
        G2=effective_G2(g, solid.G),
    )


def poisson_qi(g: TetrachiralGeometry) -> float:
    """Closed-form in-plane Poisson's ratio, rib-rotation model.

    Uses ``alpha_h = r_a / l`` and ``beta_h = t_sw / l``. Negative for thin
    walls, crossing to positive values as the walls thicken.
    """
    ah = g.r_a / g.l
    bh = g.t_sw / g.l
    s = math.sin(g.theta)
    num = -s * (ah - ah * (math.pi - 2.0 * g.theta) * (ah + bh))
    den = 2.0 * ah * (ah - ah * s + bh * s)
    return num / den


def poisson_lu(g: TetrachiralGeometry) -> float:
    """Closed-form in-plane Poisson's ratio, rib flexure/stretch model.

    A negative ratio of non-negative quantities, always in ``[-1, 0]``.
    Built from the rib's flexural compliance ``a_h = l_e^3 / (24 E I)`` and
    stretch compliance ``b_h = l / (2 t_h t_sw E)`` with the effective span
    ``l_e = l - 2 sqrt(2 r t_sw - t_sw^2)``; the modulus ``E`` and the core
    thickness ``t_h`` cancel in the ratio. Raises once ``l_e < 0`` (walls
    too thick for the rib to flex).
    """
    t, r, l = g.t_sw, g.r, g.l
    l_e = l - 2.0 * math.sqrt(2.0 * r * t - t * t)
    if l_e < 0:
        raise GeometryError(
            f"effective rib span negative (l_e = {l_e:g}); "
            "walls too thick for the flexure model"
        )
    t_h = E = 1.0  # core thickness and modulus cancel in the ratio
    I = t_h * t**3 / 12.0
    a_h = l_e**3 / (24.0 * E * I)
    b_h = l / (2.0 * t_h * t * E)
    s2 = math.sin(g.theta) ** 2
    c2 = math.cos(g.theta) ** 2
    num = (a_h - b_h) ** 2 * s2 * c2
    den = 2.0 * a_h * b_h * (math.sin(g.theta) ** 4 + math.cos(g.theta) ** 4) + (
        a_h + b_h
    ) ** 2 * s2 * c2
    return -num / den
