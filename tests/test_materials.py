"""Constitutive matrices and von Mises helpers.

Reference numbers were frozen from 30-digit evaluations of the closed
forms; the recovery block is additionally cross-checked by inverting the
plane-strain compliance matrix, an independent route to the same entries.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from chiralplate import (
    IsotropicMaterial,
    MaterialError,
    TransverselyIsotropicMaterial,
    plane_strain_matrix,
    ti_plane_strain_matrix,
    von_mises_plane,
)
from conftest import random_iso, random_ti
from oracles import plane_strain_submatrices, ti_submatrices, von_mises_3d

# frozen from high-precision evaluation at E = 2800 MPa, mu = 0.35
CHI00 = 4493.82716049382716
CHI01 = 2419.75308641975309
G_RESIN = 1037.03703703703704

valid_mu = st.floats(min_value=0.0, max_value=0.49)
valid_E = st.floats(min_value=1e-3, max_value=1e6)


class TestIsotropicMatrix:
    def test_mu_zero_is_diagonal(self):
        chi = plane_strain_matrix(IsotropicMaterial(E=1.0, mu=0.0))
        assert_allclose(chi, np.diag([1.0, 1.0, 0.5]), rtol=0, atol=0)

    def test_resin_values(self, resin):
        chi = plane_strain_matrix(resin)
        assert_allclose(chi[0, 0], CHI00, rtol=1e-14)
        assert_allclose(chi[1, 1], CHI00, rtol=1e-14)
        assert_allclose(chi[0, 1], CHI01, rtol=1e-14)

    def test_zero_shear_coupling(self, rng):
        for _ in range(20):
            chi = plane_strain_matrix(random_iso(rng))
            assert chi[0, 2] == chi[1, 2] == 0.0
            assert chi[2, 0] == chi[2, 1] == 0.0

    def test_compliance_inverse_oracle(self, resin):
        # plane-strain compliance for the normal components, inverted
        E, mu = resin.E, resin.mu
        S = (1 + mu) / E * np.array([[1 - mu, -mu], [-mu, 1 - mu]])
        assert_allclose(
            np.linalg.inv(S), plane_strain_matrix(resin)[:2, :2], rtol=1e-12
        )

    @given(E=valid_E, mu=valid_mu)
    def test_symmetric_positive_definite(self, E, mu):
        chi = plane_strain_matrix(IsotropicMaterial(E=E, mu=mu))
        assert_allclose(chi, chi.T, rtol=0, atol=0)
        # leading principal minors
        assert chi[0, 0] > 0
        assert np.linalg.det(chi[:2, :2]) > 0
        assert np.linalg.det(chi) > 0

    @pytest.mark.parametrize("mu", [0.5, 0.6, -0.01])
    def test_rejects_bad_poisson(self, mu):
        with pytest.raises(MaterialError):
            IsotropicMaterial(E=1.0, mu=mu)

    def test_rejects_nonpositive_modulus(self):
        with pytest.raises(MaterialError):
            IsotropicMaterial(E=0.0, mu=0.3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        for card in ({"E": bad}, {"mu": bad}, {"rho": bad}, {"sigma_el": bad}):
            with pytest.raises(MaterialError):
                IsotropicMaterial(**{"E": 1.0, "mu": 0.3, **card})


class TestSubmatrices:
    def test_mu_zero_split(self):
        chi_E, chi_G = plane_strain_submatrices(IsotropicMaterial(E=1.0, mu=0.0))
        assert_allclose(chi_E, np.diag([1.0, 1.0, 0.0]))
        assert_allclose(chi_G, np.diag([0.0, 0.0, 0.5]))

    @given(E=valid_E, mu=valid_mu)
    def test_decomposition_identity(self, E, mu):
        mat = IsotropicMaterial(E=E, mu=mu)
        chi_E, chi_G = plane_strain_submatrices(mat)
        assert_allclose(chi_E + chi_G, plane_strain_matrix(mat), rtol=1e-15)

    def test_shear_entry_is_G(self, resin):
        _, chi_G = plane_strain_submatrices(resin)
        assert_allclose(chi_G[2, 2], G_RESIN, rtol=1e-14)
        assert np.count_nonzero(chi_G) == 1


class TestTransverselyIsotropic:
    def test_isotropic_degeneration(self, rng):
        for _ in range(25):
            iso = random_iso(rng)
            ti = TransverselyIsotropicMaterial(
                E1=iso.E, mu1=iso.mu, E2=iso.E, mu2=iso.mu, G2=iso.G
            )
            assert_allclose(
                ti_plane_strain_matrix(ti), plane_strain_matrix(iso), rtol=1e-12
            )

    def test_mu2_zero_decouples(self):
        ti = TransverselyIsotropicMaterial(E1=100.0, mu1=0.2, E2=400.0, mu2=0.0, G2=50.0)
        chi = ti_plane_strain_matrix(ti)
        assert chi[0, 1] == chi[1, 0] == 0.0

    def test_shear_entry_equals_G2(self, rng):
        for _ in range(20):
            ti = random_ti(rng)
            assert_allclose(ti_plane_strain_matrix(ti)[2, 2], ti.G2, rtol=1e-12)

    def test_honeycomb_card_frozen_values(self):
        # effective card of the rho_rel ~ 0.375 cell; entries frozen from a
        # 30-digit evaluation of the closed form
        ti = TransverselyIsotropicMaterial(
            E1=38.2094006197226608,
            mu1=0.0,
            E2=1049.94823217929712,
            mu2=0.35,
            G2=330.530949281025278,
        )
        chi = ti_plane_strain_matrix(ti)
        assert_allclose(chi[0, 0], 38.3812698660456571, rtol=1e-13)
        assert_allclose(chi[0, 1], 13.4935986893290287, rtol=1e-13)
        assert_allclose(chi[1, 1], 1059.39375126182744, rtol=1e-13)
        assert_allclose(chi[2, 2], 330.530949281025278, rtol=1e-13)

    def test_submatrix_sum(self, rng):
        for _ in range(20):
            ti = random_ti(rng)
            chi_E, chi_G = ti_submatrices(ti)
            assert_allclose(chi_E + chi_G, ti_plane_strain_matrix(ti), rtol=1e-15)
            assert chi_G[2, 2] == ti.G2

    def test_rejects_zero_G2(self):
        with pytest.raises(MaterialError):
            TransverselyIsotropicMaterial(E1=1.0, mu1=0.3, E2=1.0, mu2=0.3, G2=0.0)

    def test_rejects_indefinite_card_with_positive_denominator(self):
        # both factors of (1+mu1)(1-mu1-2*n1*mu2^2) negative (-1 and -2):
        # the product is positive, but chi = [[-7.5, -2.5], [-2.5, -1.5]] (+)
        # [1] has eigenvalues -8.4, -0.59 and 1
        with pytest.raises(MaterialError, match="must both be positive"):
            TransverselyIsotropicMaterial(E1=10.0, mu1=-2.0, E2=1.0, mu2=0.5, G2=1.0)

    @pytest.mark.parametrize(
        "field, value",
        [("E1", math.nan), ("mu1", math.nan), ("E2", math.inf), ("G2", math.inf),
         ("mu2", math.nan), ("E1", math.inf)],
    )
    def test_rejects_non_finite_entry(self, field, value):
        card = dict(E1=100.0, mu1=0.2, E2=400.0, mu2=0.1, G2=50.0)
        card[field] = value
        with pytest.raises(MaterialError, match="finite"):
            TransverselyIsotropicMaterial(**card)

    @pytest.mark.parametrize(
        "field, value, message",
        [("E1", -1.0, "E1 must be non-negative, got -1.0"),
         ("E2", 0.0, "E2 must be positive, got 0.0"),
         ("E2", -400.0, "E2 must be positive, got -400.0")],
        ids=["negative-E1", "zero-E2", "negative-E2"],
    )
    def test_rejects_bad_modulus(self, field, value, message):
        card = dict(E1=100.0, mu1=0.2, E2=400.0, mu2=0.1, G2=50.0)
        card[field] = value
        with pytest.raises(MaterialError, match=message):
            TransverselyIsotropicMaterial(**card)

    def test_rejects_illposed_denominator(self):
        # n1 * mu2^2 large enough to flip the denominator sign
        with pytest.raises(MaterialError):
            TransverselyIsotropicMaterial(
                E1=5000.0, mu1=0.0, E2=100.0, mu2=0.45, G2=10.0
            )


class TestRecoveryMatrices:
    """The recovery block ``chi[:2, :2]``: shear row and column dropped."""

    def test_iso_mu_zero_identity(self):
        assert_allclose(
            plane_strain_matrix(IsotropicMaterial(E=1.0, mu=0.0))[:2, :2], np.eye(2)
        )

    def test_iso_resin_values(self, resin):
        assert_allclose(
            plane_strain_matrix(resin)[:2, :2],
            [[CHI00, CHI01], [CHI01, CHI00]],
            rtol=1e-14,
        )


class TestVonMises:
    def test_plane_anchors(self):
        assert von_mises_plane(35.0, 35.0) == pytest.approx(35.0)
        assert von_mises_plane(35.0, 0.0) == pytest.approx(35.0)
        assert von_mises_plane(30.0, -30.0) == pytest.approx(
            51.9615242270663188, rel=1e-14
        )

    def test_3d_anchors(self):
        assert von_mises_3d(17.0, 17.0, 17.0) == pytest.approx(0.0, abs=1e-12)
        assert von_mises_3d(35.0, 0.0, 0.0) == pytest.approx(35.0)
        assert von_mises_3d(10.0, 5.0, -5.0) == pytest.approx(
            13.2287565553229530, rel=1e-14
        )

    def test_scaling_changes_no_bit_of_the_plain_formula(self, rng):
        # dividing by a power of two is exact while the squares stay normal
        s1, s2 = rng.choice([-1.0, 1.0], (2, 10**5)) * 10.0 ** rng.uniform(
            -12, 3, (2, 10**5)
        )
        plain = np.sqrt(s1 * s1 + s2 * s2 - s1 * s2)
        assert von_mises_plane(s1, s2).tobytes() == plain.tobytes()

    @pytest.mark.parametrize("s", [5e-324, 1e-300, 1e300, 1e308])
    def test_squares_neither_underflow_nor_overflow(self, s):
        # the plain formula gives 0 or inf here, with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert von_mises_plane(s, 0.0) == s
            assert von_mises_plane(0.0, -s) == s
            if s > 1e-300:
                assert von_mises_plane(s, -s) == pytest.approx(
                    math.sqrt(3.0) * s, rel=1e-15
                )

    @given(s=st.floats(min_value=-1e6, max_value=1e6))
    def test_equibiaxial_is_abs(self, s):
        assert von_mises_plane(s, s) == pytest.approx(abs(s), rel=1e-12, abs=1e-9)

    @given(
        s1=st.floats(min_value=-1e4, max_value=1e4),
        s2=st.floats(min_value=-1e4, max_value=1e4),
        s3=st.floats(min_value=-1e4, max_value=1e4),
    )
    def test_symmetry_properties(self, s1, s2, s3):
        assert von_mises_plane(s1, s2) == pytest.approx(von_mises_plane(s2, s1))
        ref = von_mises_3d(s1, s2, s3)
        assert von_mises_3d(s2, s3, s1) == pytest.approx(ref, rel=1e-12, abs=1e-9)
        assert von_mises_3d(s3, s1, s2) == pytest.approx(ref, rel=1e-12, abs=1e-9)
        assert ref >= 0.0
