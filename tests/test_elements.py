"""Element stiffness: the closed form against the quadrature oracle.

The oracle integrates beta^T chi beta with Gauss-Legendre rules built
straight from the shape functions, so it shares no code path with the
block formulas. Strain-displacement entries are checked against central
finite differences of the displacement interpolation, a second independent
route. Each element family is one (kind, card) pair fed to
``element_stiffness`` as the card's elasticity matrix.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chiralplate import (
    ElementGeometry,
    GeometryError,
    IsotropicMaterial,
    MaterialError,
    element_stiffness,
    plane_strain_matrix,
    strain_displacement_full,
    ti_plane_strain_matrix,
    TransverselyIsotropicMaterial,
)
from chiralplate.elements import ETA_CORNERS, XI_CORNERS
from conftest import random_iso, random_ti
from oracles import quadrature_stiffness

UNIT_SQUARE = ElementGeometry(1.0, 1.0, 1.0)

RIGID_MODES = [
    np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=float),
    np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=float),
]


def rotation_mode(g: ElementGeometry) -> np.ndarray:
    """Infinitesimal rotation about the element centre: v = (-y, x)."""
    v = np.empty(8)
    for q in range(4):
        x = XI_CORNERS[q] * g.a_fe / 2
        y = ETA_CORNERS[q] * g.b_fe / 2
        v[2 * q] = -y
        v[2 * q + 1] = x
    return v


def rel_frobenius(A, B) -> float:
    return np.linalg.norm(A - B) / np.linalg.norm(B)


def conforming_iso(g, mat):
    return element_stiffness("conforming", g, plane_strain_matrix(mat))


def incompatible_iso(g, mat):
    return element_stiffness("incompatible", g, plane_strain_matrix(mat), mat.mu)


def conforming_ti(g, ti):
    return element_stiffness("conforming", g, ti_plane_strain_matrix(ti))


def assert_rigid_modes(g, k):
    scale = np.abs(k).max()
    for v in RIGID_MODES + [rotation_mode(g)]:
        assert np.abs(k @ v).max() < 1e-12 * scale


def nullity(k) -> int:
    eig = np.linalg.eigvalsh(k)
    return int(np.sum(np.abs(eig) < 1e-10 * eig.max()))


class TestConformingIso:
    def test_unit_square_corner_entry(self):
        # E part contributes 1/3, shear part 1/6 at mu = 0
        k = conforming_iso(UNIT_SQUARE, IsotropicMaterial(E=1.0, mu=0.0))
        assert k[0, 0] == pytest.approx(0.5, rel=1e-14)

    def test_symmetry_exact(self, rng):
        for _ in range(10):
            g = ElementGeometry(1.0, float(rng.uniform(0.2, 5.0)), 1.0)
            k = conforming_iso(g, random_iso(rng))
            assert np.array_equal(k, k.T)

    def test_rigid_modes(self, rng):
        g = ElementGeometry(1.3, 0.7, 2.0)
        assert_rigid_modes(g, conforming_iso(g, random_iso(rng)))

    def test_nullity_exactly_three(self, rng):
        assert nullity(conforming_iso(UNIT_SQUARE, random_iso(rng))) == 3

    def test_quadrature_oracle(self, rng):
        for _ in range(50):
            g = ElementGeometry(1.0, float(rng.uniform(0.2, 5.0)), float(rng.uniform(0.5, 20)))
            mat = random_iso(rng)
            k = conforming_iso(g, mat)
            kq = quadrature_stiffness("conforming", g, plane_strain_matrix(mat))
            assert rel_frobenius(kq, k) < 1e-12

    def test_ignores_mu(self, rng):
        # the conforming strain matrix has no coupling terms to carry mu
        chi = plane_strain_matrix(random_iso(rng))
        g = ElementGeometry(1.0, 0.4, 2.0)
        assert np.array_equal(
            element_stiffness("conforming", g, chi, 0.3),
            element_stiffness("conforming", g, chi),
        )


class TestIncompatibleIso:
    def test_symmetry_and_rigid_modes(self, rng):
        g = ElementGeometry(2.0, 0.5, 1.5)
        k = incompatible_iso(g, random_iso(rng))
        assert np.array_equal(k, k.T)
        assert_rigid_modes(g, k)
        assert nullity(k) == 3

    def test_shear_block_loses_correction_terms(self):
        # with chi_G alone, the incompatible diagonal block is G/4 * eta_r
        # eta_s / gamma with no 1/3 term
        mat = IsotropicMaterial(E=1.0, mu=0.0)
        g = UNIT_SQUARE
        chi_G = np.zeros((3, 3))
        chi_G[2, 2] = mat.G
        kG = element_stiffness("incompatible", g, chi_G, mat.mu)
        assert kG[0, 0] == pytest.approx(mat.G / 4.0, rel=1e-14)
        assert_allclose(kG, quadrature_stiffness("incompatible", g, chi_G, mu=mat.mu),
                        rtol=0, atol=1e-15)
        # conforming counterpart keeps the (1 + 1/3) factor
        kG_conf = element_stiffness("conforming", g, chi_G)
        assert kG_conf[0, 0] == pytest.approx(mat.G / 4.0 * (4.0 / 3.0), rel=1e-14)
        assert_allclose(kG_conf, quadrature_stiffness("conforming", g, chi_G),
                        rtol=0, atol=1e-15)

    def test_mu_zero_normal_block_matches_conforming(self):
        # at mu = 0 the incompatible bracket (1 - mu + (1-mu-mu^2-mu^3)/3 *
        # eta_r eta_s) collapses to the conforming (1-mu)(1 + eta_r eta_s/3)
        mat = IsotropicMaterial(E=1.0, mu=0.0)
        chi_E = plane_strain_matrix(mat)
        chi_E[2, 2] = 0.0
        kE_inc = element_stiffness("incompatible", UNIT_SQUARE, chi_E, 0.0)
        kE_conf = element_stiffness("conforming", UNIT_SQUARE, chi_E)
        assert_allclose(kE_inc, kE_conf, rtol=0, atol=1e-15)
        assert_allclose(
            kE_inc, quadrature_stiffness("incompatible", UNIT_SQUARE, chi_E, mu=0.0),
            rtol=0, atol=1e-15,
        )

    def test_quadrature_oracle(self, rng):
        for _ in range(50):
            g = ElementGeometry(1.0, float(rng.uniform(0.2, 5.0)), float(rng.uniform(0.5, 20)))
            mat = random_iso(rng)
            k = incompatible_iso(g, mat)
            kq = quadrature_stiffness(
                "incompatible", g, plane_strain_matrix(mat), order=3, mu=mat.mu
            )
            assert rel_frobenius(kq, k) < 1e-12

    def test_softer_in_bending_cantilever(self):
        # tip-loaded cantilever, one element through the depth; the
        # incompatible element must land closer to beam theory
        E, mu = 1000.0, 0.3
        mat = IsotropicMaterial(E=E, mu=mu)
        L, d, h = 10.0, 1.0, 1.0
        n = 10
        g = ElementGeometry(L / n, d, h)
        k_conf = conforming_iso(g, mat)
        k_inc = incompatible_iso(g, mat)

        def tip_deflection(k_e):
            nn = 2 * (n + 1)
            K = np.zeros((2 * nn, 2 * nn))
            def nid(i, j):
                return j * (n + 1) + i
            for i in range(n):
                nodes = [nid(i, 0), nid(i + 1, 0), nid(i + 1, 1), nid(i, 1)]
                dofs = np.array([[2 * m, 2 * m + 1] for m in nodes]).ravel()
                K[np.ix_(dofs, dofs)] += k_e
            fixed = [nid(0, 0), nid(0, 1)]
            keep = np.setdiff1d(
                np.arange(2 * nn), np.array([[2 * m, 2 * m + 1] for m in fixed]).ravel()
            )
            P = np.zeros(2 * nn)
            P[2 * nid(n, 0) + 1] = -0.5
            P[2 * nid(n, 1) + 1] = -0.5
            u = np.zeros(2 * nn)
            u[keep] = np.linalg.solve(K[np.ix_(keep, keep)], P[keep])
            return -u[2 * nid(n, 1) + 1]

        E_eff = E / (1 - mu**2)  # plane-strain bending modulus
        w_beam = 1.0 * L**3 / (3 * E_eff * (h * d**3 / 12))
        err_conf = abs(tip_deflection(k_conf) - w_beam)
        err_inc = abs(tip_deflection(k_inc) - w_beam)
        assert err_inc < err_conf


class TestConformingTI:
    def test_isotropic_degeneration(self, rng):
        for _ in range(10):
            iso = random_iso(rng)
            ti = TransverselyIsotropicMaterial(
                E1=iso.E, mu1=iso.mu, E2=iso.E, mu2=iso.mu, G2=iso.G
            )
            g = ElementGeometry(1.0, float(rng.uniform(0.2, 5.0)), 3.0)
            assert rel_frobenius(conforming_ti(g, ti), conforming_iso(g, iso)) < 1e-12

    def test_symmetry_rigid_modes_and_nullity(self, rng):
        g = ElementGeometry(0.8, 1.9, 2.5)
        k = conforming_ti(g, random_ti(rng))
        assert np.array_equal(k, k.T)
        assert_rigid_modes(g, k)
        assert nullity(k) == 3

    def test_quadrature_oracle(self, rng):
        for _ in range(50):
            g = ElementGeometry(1.0, float(rng.uniform(0.2, 5.0)), float(rng.uniform(0.5, 20)))
            ti = random_ti(rng)
            k = conforming_ti(g, ti)
            kq = quadrature_stiffness("conforming", g, ti_plane_strain_matrix(ti))
            assert rel_frobenius(kq, k) < 1e-12

    def test_linear_in_depth(self, rng):
        ti = random_ti(rng)
        k1 = conforming_ti(ElementGeometry(1.0, 0.5, 1.0), ti)
        k2 = conforming_ti(ElementGeometry(1.0, 0.5, 2.0), ti)
        assert_allclose(k2, 2 * k1, rtol=1e-14)


class TestIncompatibleTI:
    """The general bracket: an anisotropic chi with an independent mu.

    No card reaches this pair through :class:`Layer`, but the closed form
    covers it, and it is the one case where ``w0 != w1`` and neither
    reduces to the isotropic bracket.
    """

    def test_quadrature_oracle(self, rng):
        for _ in range(50):
            g = ElementGeometry(
                float(rng.uniform(0.2, 5.0)), float(rng.uniform(0.2, 5.0)),
                float(rng.uniform(0.5, 20)),
            )
            chi = ti_plane_strain_matrix(random_ti(rng))
            mu = float(rng.uniform(0.0, 0.45))
            k = element_stiffness("incompatible", g, chi, mu)
            kq = quadrature_stiffness("incompatible", g, chi, order=3, mu=mu)
            assert rel_frobenius(kq, k) < 1e-12

    def test_symmetry_rigid_modes_and_nullity(self, rng):
        g = ElementGeometry(1.7, 0.6, 3.0)
        k = element_stiffness("incompatible", g, ti_plane_strain_matrix(random_ti(rng)), 0.3)
        assert np.array_equal(k, k.T)
        assert_rigid_modes(g, k)
        assert nullity(k) == 3


def test_rejects_unknown_kind():
    with pytest.raises(MaterialError):
        element_stiffness("serendipity", UNIT_SQUARE, np.eye(3))


def test_strain_displacement_rejects_unknown_kind():
    with pytest.raises(MaterialError, match="unknown element kind 'serendipity'"):
        strain_displacement_full("serendipity", UNIT_SQUARE, 0.0, 0.0, 0.3)


class TestStrainDisplacement:
    def test_constant_stretch_field(self, rng):
        # pure x-stretch of the corners: eps_xx constant, eps_yy zero
        g = ElementGeometry(2.0, 1.0, 1.0)
        v = np.zeros(8)
        for q in range(4):
            v[2 * q] = 0.01 * (XI_CORNERS[q] * g.a_fe / 2)
        for _ in range(10):
            xi, eta = rng.uniform(-1, 1, 2)
            eps = strain_displacement_full("conforming", g, xi, eta)[:2] @ v
            assert eps[0] == pytest.approx(0.01, rel=1e-12)
            assert eps[1] == pytest.approx(0.0, abs=1e-15)

    def test_corner_entries_match_fd_oracle(self, rng):
        # central finite differences of the bilinear interpolation
        g = ElementGeometry(1.7, 0.6, 1.0)
        step = 1e-6

        def disp(xi, eta, v):
            ux = uy = 0.0
            for q in range(4):
                psi = (1 + XI_CORNERS[q] * xi) * (1 + ETA_CORNERS[q] * eta) / 4
                ux += psi * v[2 * q]
                uy += psi * v[2 * q + 1]
            return ux, uy

        v = rng.uniform(-1, 1, 8)
        for q in range(4):
            xi, eta = XI_CORNERS[q] * (1 - step), ETA_CORNERS[q] * (1 - step)
            eps = strain_displacement_full("conforming", g, xi, eta)[:2] @ v
            dx = step * g.a_fe / 2
            dy = step * g.b_fe / 2
            ux_p, _ = disp(xi + step, eta, v)
            ux_m, _ = disp(xi - step, eta, v)
            _, uy_p = disp(xi, eta + step, v)
            _, uy_m = disp(xi, eta - step, v)
            assert eps[0] == pytest.approx((ux_p - ux_m) / (2 * dx), rel=1e-7)
            assert eps[1] == pytest.approx((uy_p - uy_m) / (2 * dy), rel=1e-7)

    def test_incompatible_coupling_vanishes_at_mu_zero(self):
        g = ElementGeometry(1.0, 2.0, 1.0)
        B = strain_displacement_full("incompatible", g, 0.3, -0.4, mu=0.0)[:2]
        B_conf = strain_displacement_full("conforming", g, 0.3, -0.4)[:2]
        assert_allclose(B, B_conf, rtol=0, atol=0)

    def test_incompatible_shear_row_constant(self, rng):
        g = ElementGeometry(1.0, 0.5, 1.0)
        rows = [
            strain_displacement_full("incompatible", g, xi, eta, mu=0.3)[2]
            for xi, eta in rng.uniform(-1, 1, (5, 2))
        ]
        for row in rows[1:]:
            assert_allclose(row, rows[0], rtol=0, atol=0)

    def test_rejects_points_outside(self):
        with pytest.raises(GeometryError):
            strain_displacement_full("conforming", UNIT_SQUARE, 1.2, 0.0)

    def test_rejects_array_with_a_point_outside(self):
        # one bad entry among good ones, in either coordinate, NaN included
        for bad in (1.0 + 1e-12, -1.5, np.nan):
            points = np.array([-1.0, -0.2, bad, 1.0])
            for kind in ("conforming", "incompatible"):
                with pytest.raises(GeometryError):
                    strain_displacement_full(kind, UNIT_SQUARE, points, 0.0)
                with pytest.raises(GeometryError):
                    strain_displacement_full(kind, UNIT_SQUARE, 0.0, points)

    @pytest.mark.parametrize("kind", ["conforming", "incompatible"])
    def test_broadcast_equals_stacked_scalar_calls(self, rng, kind):
        g = ElementGeometry(1.3, 0.4, 2.0)
        assert strain_displacement_full(kind, g, 0.1, -0.7, mu=0.3).shape == (3, 8)
        random_points = tuple(rng.uniform(-1, 1, (2, 3, 5)))
        for xi, eta in ((XI_CORNERS, ETA_CORNERS), random_points):
            xi, eta = np.asarray(xi), np.asarray(eta)
            stacked = np.array([
                strain_displacement_full(kind, g, float(x), float(e), mu=0.3)
                for x, e in zip(xi.ravel(), eta.ravel())
            ]).reshape(xi.shape + (3, 8))
            got = strain_displacement_full(kind, g, xi, eta, mu=0.3)
            assert np.array_equal(got, stacked)


class TestQuadratureOracle:
    def test_order_independence(self, rng):
        g = ElementGeometry(1.0, 1.7, 2.0)
        mat = random_iso(rng)
        chi = plane_strain_matrix(mat)
        k2 = quadrature_stiffness("conforming", g, chi, order=2)
        k5 = quadrature_stiffness("conforming", g, chi, order=5)
        assert rel_frobenius(k2, k5) < 1e-13
        k3 = quadrature_stiffness("incompatible", g, chi, order=3, mu=mat.mu)
        k6 = quadrature_stiffness("incompatible", g, chi, order=6, mu=mat.mu)
        assert rel_frobenius(k3, k6) < 1e-13

    def test_rejects_low_order(self):
        with pytest.raises(GeometryError):
            quadrature_stiffness("conforming", UNIT_SQUARE, np.eye(3), order=1)

    def test_rejects_bad_geometry(self):
        with pytest.raises(GeometryError):
            ElementGeometry(0.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "dims", [(np.nan, 1.0, 1.0), (1.0, np.inf, 1.0), (1.0, 1.0, -np.inf), (1.0, 1.0, np.nan)]
)
def test_geometry_rejects_non_finite_dimensions(dims):
    with pytest.raises(GeometryError):
        ElementGeometry(*dims)
