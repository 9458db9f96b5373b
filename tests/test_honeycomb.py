"""Tetrachiral geometry, relative density and homogenized constants.

The tangency construction gives every derived length an elementary
right-triangle oracle (l^2 + d_a^2 = L_h^2, tan(theta) = d_a / l), used
here instead of rounded constants. Density and moduli reference values
are frozen from 30-digit evaluations of the closed forms.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from chiralplate import honeycomb
from chiralplate import (
    GeometryError,
    IsotropicMaterial,
    MaterialError,
    effective_E1,
    effective_E2,
    effective_G2,
    effective_material,
    geometry_from_cell,
    plane_strain_matrix,
    poisson_lu,
    poisson_qi,
    relative_density,
    ti_plane_strain_matrix,
    wall_thickness_for_density,
)
from chiralplate.experiments import DA_GRID, RHO_GRID

# Published (t_sw, rho_rel) pairs for the d_a = 1 and 1.6 mm cells.
TABLE_PAIRS = {
    1.0: [(0.0782, 0.140), (0.2217, 0.353), (0.5489, 0.709)],
    1.6: [(0.1250, 0.140), (0.3526, 0.353), (0.8606, 0.709)],
}


class TestGeometry:
    def test_unit_cell_lengths(self):
        g = geometry_from_cell(1.0, 0.1)
        assert g.L_h == pytest.approx(1.6)
        assert g.l == pytest.approx(1.24899959967967964, rel=1e-15)
        # right-triangle oracle: rib tangent to both mean circles
        assert g.l**2 + g.d_a**2 == pytest.approx(g.L_h**2, rel=1e-15)
        assert math.tan(g.theta) * g.l == pytest.approx(g.d_a, rel=1e-15)

    def test_scaled_cell(self):
        g = geometry_from_cell(1.9, 0.1)
        assert g.l == pytest.approx(2.37309923939139132, rel=1e-15)
        assert g.l**2 + g.d_a**2 == pytest.approx(g.L_h**2, rel=1e-15)

    def test_theta_scale_invariant(self):
        ref = geometry_from_cell(1.0, 0.08).theta
        for d_a in (1.3, 1.6, 1.9):
            g = geometry_from_cell(d_a, 0.08 * d_a)
            assert g.theta == pytest.approx(ref, rel=1e-14)

    def test_outer_radius_and_ratios(self):
        g = geometry_from_cell(1.0, 0.2)
        assert g.r == pytest.approx(0.6)
        assert g.alpha == pytest.approx(g.l / 0.6)
        assert g.beta == pytest.approx(0.2 / 0.6)

    @pytest.mark.parametrize("d_a,t_sw", [(0.0, 0.1), (-1.0, 0.1), (1.0, 0.0), (1.0, -0.1)])
    def test_rejects_nonpositive(self, d_a, t_sw):
        with pytest.raises(GeometryError):
            geometry_from_cell(d_a, t_sw)

    @pytest.mark.parametrize(
        "d_a,t_sw",
        [(math.inf, 0.1), (1.0, math.inf), (math.nan, 0.1), (1.0, math.nan)],
    )
    def test_rejects_non_finite(self, d_a, t_sw):
        with pytest.raises(GeometryError, match="must be positive and finite"):
            geometry_from_cell(d_a, t_sw)

    def test_rejects_walls_too_thick(self):
        with pytest.raises(GeometryError):
            geometry_from_cell(1.0, 1.0)  # beta = 1


class TestRelativeDensity:
    def test_frozen_value(self):
        g = geometry_from_cell(1.0, 0.0782)
        assert relative_density(g) == pytest.approx(
            0.149140297654752078, rel=1e-13
        )

    def test_density_rejects_hand_built_thick_walls(self):
        # a geometry built by hand skips geometry_from_cell's check
        g = honeycomb.TetrachiralGeometry(d_a=1.0, t_sw=1.0, L_h=1.6, l=1.0, theta=0.5)
        with pytest.raises(GeometryError, match="beta = t_sw/r = 1 must be below 1"):
            relative_density(g)

    def test_vanishes_with_walls(self):
        assert relative_density(geometry_from_cell(1.0, 1e-8)) < 1e-7

    @pytest.mark.parametrize("d_a", DA_GRID)
    def test_strictly_monotone(self, d_a):
        ts = np.linspace(1e-4, d_a * 0.999, 100)
        vals = [relative_density(geometry_from_cell(d_a, t)) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert 0.0 < vals[0] < vals[-1] < 1.0

    def test_scale_invariance(self, rng):
        for _ in range(20):
            t_ratio = rng.uniform(0.01, 0.9)
            s = rng.uniform(0.2, 5.0)
            r1 = relative_density(geometry_from_cell(1.0, t_ratio))
            r2 = relative_density(geometry_from_cell(s, s * t_ratio))
            assert r2 == pytest.approx(r1, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-6, 1.0 - 1e-9))
    def test_bisection_density_bitwise(self, tau):
        # the bisection evaluates the unit cell's rho(tau) without building
        # a geometry
        g = geometry_from_cell(1.0, tau)
        assert honeycomb._density_of_cell(tau) == relative_density(g)

    @pytest.mark.xfail(
        reason="published (t_sw, rho_rel) tables are not self-similar across "
        "d_a and cannot originate from any closed form over the cell alone; "
        "the unit-cell expression evaluates 0.9..9 density points above them "
        "(see acceptance criterion 3 analysis)",
        strict=True,
    )
    def test_published_table_pairs(self):
        for d_a, pairs in TABLE_PAIRS.items():
            for t_sw, rho in pairs:
                got = relative_density(geometry_from_cell(d_a, t_sw))
                assert got == pytest.approx(rho, abs=0.0015)


class TestInversion:
    def test_round_trip_grid(self):
        for d_a in DA_GRID:
            for rho in RHO_GRID:
                t = wall_thickness_for_density(d_a, rho)
                back = relative_density(geometry_from_cell(d_a, t))
                assert back == pytest.approx(rho, abs=1e-9)

    def test_frozen_inverse(self):
        assert wall_thickness_for_density(1.0, 0.353) == pytest.approx(
            0.20633489396666221, abs=1e-9
        )

    def test_rejects_unreachable(self):
        with pytest.raises(GeometryError):
            wall_thickness_for_density(1.0, 0.99)
        with pytest.raises(GeometryError):
            wall_thickness_for_density(1.0, 0.0)
        with pytest.raises(GeometryError):
            wall_thickness_for_density(1.0, 1.2)
        with pytest.raises(GeometryError, match="must be positive and finite"):
            wall_thickness_for_density(math.inf, 0.353)


class TestEffectiveModuli:
    def test_E1_vanishes_with_walls(self):
        g = geometry_from_cell(1.0, 1e-6)
        assert effective_E1(g, 2800.0) < 1e-12

    def test_E1_frozen(self):
        g = geometry_from_cell(1.0, 0.2217)
        assert effective_E1(g, 2800.0) == pytest.approx(
            38.2094006197226608, rel=1e-13
        )

    def test_E1_linear_and_monotone(self):
        g = geometry_from_cell(1.0, 0.2)
        assert effective_E1(g, 5600.0) == pytest.approx(
            2 * effective_E1(g, 2800.0), rel=1e-14
        )
        vals = [
            effective_E1(geometry_from_cell(1.0, t), 2800.0)
            for t in np.linspace(0.01, 0.9, 50)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_E2_is_density_scaled(self):
        g = geometry_from_cell(1.0, 0.2217)
        assert effective_E2(g, 2800.0) == pytest.approx(
            2800.0 * relative_density(g), rel=1e-14
        )

    def test_G2_frozen(self):
        g = geometry_from_cell(1.6, 0.4389)
        G_s = 2800.0 / 2.7
        assert effective_G2(g, G_s) == pytest.approx(
            416.418956847904972, rel=1e-13
        )

    def test_G2_linearity_and_limit(self):
        g = geometry_from_cell(1.0, 0.3)
        assert effective_G2(g, 2.0) == pytest.approx(2 * effective_G2(g, 1.0))
        assert effective_G2(geometry_from_cell(1.0, 1e-8), 1000.0) < 1e-4

    def test_moduli_scale_invariant(self, rng):
        for _ in range(10):
            t_ratio = rng.uniform(0.02, 0.8)
            s = rng.uniform(0.3, 4.0)
            g1 = geometry_from_cell(1.0, t_ratio)
            g2 = geometry_from_cell(s, s * t_ratio)
            for f in (effective_E1, effective_E2, effective_G2):
                assert f(g2, 1000.0) == pytest.approx(f(g1, 1000.0), rel=1e-12)


class TestEffectiveMaterial:
    def test_card_wiring(self, resin):
        g = geometry_from_cell(1.0, 0.2217)
        card = effective_material(g, resin)
        assert card.mu1 == 0.0
        assert card.mu2 == resin.mu
        assert card.E1 == pytest.approx(effective_E1(g, resin.E))
        assert card.E2 == pytest.approx(effective_E2(g, resin.E))
        assert card.G2 == pytest.approx(effective_G2(g, resin.G))

    def test_never_isotropic(self, resin):
        for t in (0.05, 0.2, 0.5):
            card = effective_material(geometry_from_cell(1.0, t), resin)
            assert card.E1 < card.E2  # in-plane always far softer

    def test_matrix_cross_check(self, resin):
        # independent evaluation of the elasticity matrix from the card
        g = geometry_from_cell(1.0, wall_thickness_for_density(1.0, 0.353))
        card = effective_material(g, resin)
        n1 = card.E1 / card.E2
        c = card.E2 / ((1 + card.mu1) * (1 - card.mu1 - 2 * n1 * card.mu2**2))
        expected = np.array(
            [
                [c * n1 * (1 - n1 * card.mu2**2), c * n1 * card.mu2 * (1 + card.mu1), 0.0],
                [c * n1 * card.mu2 * (1 + card.mu1), c * (1 - card.mu1**2), 0.0],
                [0.0, 0.0, card.G2],
            ]
        )
        assert_allclose(ti_plane_strain_matrix(card), expected, rtol=1e-13)

    def test_degenerate_solid_rejected(self):
        # a zero-modulus solid cannot produce a valid card
        with pytest.raises(MaterialError):
            IsotropicMaterial(E=0.0, mu=0.35)


class TestPoissonEstimates:
    def test_qi_frozen_values(self):
        assert poisson_qi(geometry_from_cell(1.0, 0.0782)) == pytest.approx(
            -0.281931295693342924, rel=1e-12
        )
        assert poisson_qi(geometry_from_cell(1.0, 0.5489)) == pytest.approx(
            0.371024858567174872, rel=1e-12
        )

    def test_qi_sign_transition(self):
        rhos = [relative_density(geometry_from_cell(1.0, t)) for t in (0.07, 0.6)]
        assert rhos[0] < 0.2 and rhos[1] > 0.7  # spans the transition
        assert poisson_qi(geometry_from_cell(1.0, 0.07)) < 0
        assert poisson_qi(geometry_from_cell(1.0, 0.6)) > 0

    def test_lu_frozen_values(self):
        assert poisson_lu(geometry_from_cell(1.0, 0.0782)) == pytest.approx(
            -0.829856458515465577, rel=1e-12
        )
        assert poisson_lu(geometry_from_cell(1.0, 0.2217)) == pytest.approx(
            -0.0654254672202508826, rel=1e-12
        )

    def test_lu_bounded(self):
        for t in np.linspace(0.01, 0.38, 20):
            val = poisson_lu(geometry_from_cell(1.0, t))
            assert -1.0 <= val <= 0.0

    def test_lu_rejects_thick_walls(self):
        with pytest.raises(GeometryError):
            poisson_lu(geometry_from_cell(1.0, 0.5489))

    def test_both_negative_at_low_density(self):
        for d_a in DA_GRID:
            for rho in (0.140, 0.211, 0.282):
                t = wall_thickness_for_density(d_a, rho)
                g = geometry_from_cell(d_a, t)
                assert poisson_qi(g) < 0
                assert poisson_lu(g) < 0
