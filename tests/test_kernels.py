"""Assembly, banded solve and array recovery against the reference oracles.

Hypothesis draws structured meshes (wide, tall and single-row), fixed DOF
sets (whole nodes and single DOFs, some with whole node columns, which split
the band, and loads zeroed on some columns), conforming and incompatible
layers, and isotropic and transversely isotropic cards. The oracles in
``oracles.py`` are the dense Cholesky solve of ``K[free, free]``, the
element-by-element, corner-by-corner recovery, and the one-scatter assembly
and per-layer recovery, which ``assemble`` and ``recover`` must match to the
last bit when layers repeat a card.
The same draws run through ``analyze`` to check physical invariants that
need no oracle: Maxwell-Betti reciprocity, positive work and linearity in
the load. The solve checks run on both LAPACK routes, numpy's bundled
OpenBLAS and the scipy fallback, which must agree to the last bit.
"""

import glob
import os
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from chiralplate import (
    FORMLABS_CLEAR,
    BoundaryCondition,
    IsotropicMaterial,
    Layer,
    Mesh,
    MeshError,
    PlateSpec,
    SolveError,
    TransverselyIsotropicMaterial,
    analyze,
    apply_boundary,
    apply_load,
    assemble,
    composite_model,
    recover,
    solid_model,
    solve,
)
from chiralplate import assembly
from oracles import (
    assemble_scatter,
    dense_from_band,
    node_dofs,
    recover_loop,
    recover_per_layer,
    solve_dense,
)

# Moduli within one decade keep cond(K[free, free]) below ~1e6 on these
# meshes, so the rounding of either solver (~eps * cond) stays well under
# the 1e-10 agreement asserted below; wider contrasts reach cond ~1e7.
moduli = st.floats(1e3, 1e4)
poisson = st.floats(0.0, 0.3)


@st.composite
def iso_cards(draw):
    return IsotropicMaterial(E=draw(moduli), mu=draw(poisson))


@st.composite
def ti_cards(draw):
    E1, mu1, E2, mu2 = draw(moduli), draw(poisson), draw(moduli), draw(poisson)
    assume((1 + mu1) * (1 - mu1 - 2 * (E1 / E2) * mu2**2) > 0.05)
    return TransverselyIsotropicMaterial(
        E1=E1, mu1=mu1, E2=E2, mu2=mu2, G2=draw(moduli)
    )


@st.composite
def layer_cards(draw, tags=("plate",)):
    tag = draw(st.sampled_from(tags))
    if draw(st.booleans()):
        return Layer(draw(ti_cards()), "conforming", tag)
    kind = draw(st.sampled_from(("conforming", "incompatible")))
    return Layer(draw(iso_cards()), kind, tag)


@st.composite
def meshes(draw, max_cells=7):
    nx = draw(st.integers(1, max_cells))
    ny = draw(st.integers(1, max_cells))
    a_fe = draw(st.floats(0.5, 2.0))
    heights = draw(st.lists(st.floats(0.5, 2.0), min_size=ny, max_size=ny))
    y = np.concatenate([[0.0], np.cumsum(heights)])
    return Mesh(a_fe * np.arange(nx + 1), y, draw(st.floats(0.5, 3.0)))


@st.composite
def repeated_card_models(draw, tags=("plate",)):
    """A mesh of 1-6 layers and its cards, drawn from a pool of 1-3 (kind,
    material) pairs and 1-2 heights, so layers repeat a card or not; tags
    are drawn per layer, as the faces of a composite share one card."""
    pool = draw(st.lists(layer_cards(), min_size=1, max_size=3))
    heights = draw(st.lists(st.floats(0.5, 2.0), min_size=1, max_size=2))
    n_layers, nx = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    y = np.concatenate(
        [[0.0], np.cumsum([draw(st.sampled_from(heights)) for _ in range(n_layers)])]
    )
    mesh = Mesh(draw(st.floats(0.5, 2.0)) * np.arange(nx + 1), y, draw(st.floats(0.5, 3.0)))
    layers = []
    for _ in range(n_layers):
        card = draw(st.sampled_from(pool))
        layers.append(Layer(card.material, card.kind, draw(st.sampled_from(tags))))
    return mesh, layers


@st.composite
def systems(draw):
    """A mesh, its layer cards, fixed DOFs and P: both DOFs of >= 2 nodes (no
    rigid mode left) and some single DOFs, leaving some DOF free."""
    mesh = draw(meshes())
    layers = [draw(layer_cards()) for _ in range(mesh.n_layers)]
    nodes = draw(st.lists(st.integers(0, mesh.n_nodes - 1), min_size=2, unique=True))
    singles = draw(st.lists(st.integers(0, mesh.n_dofs - 1), max_size=4))
    fixed = np.union1d(node_dofs(nodes), np.array(singles, dtype=int))
    assume(len(fixed) < mesh.n_dofs)
    seed = draw(st.integers(0, 2**32 - 1))
    P = np.random.default_rng(seed).normal(0.0, 10.0, mesh.n_dofs)
    return mesh, layers, fixed, P


@st.composite
def split_systems(draw):
    """A system of :func:`systems` with whole node columns fixed as well,
    which split the band into segments, and the load zeroed on some node
    columns, so that some segments carry no load."""
    mesh, layers, fixed, P = draw(systems())
    columns = st.lists(st.integers(0, len(mesh.x) - 1), unique=True)
    ny = len(mesh.y)
    whole = node_dofs(i * ny + j for i in draw(columns) for j in range(ny))
    fixed = np.union1d(fixed, whole)
    assume(len(fixed) < mesh.n_dofs)
    P = P.reshape(len(mesh.x), 2 * ny).copy()
    P[draw(columns)] = 0.0
    return mesh, layers, fixed, P.ravel()


def split_segments(mesh, fixed, P):
    """The band segments a solve works on, as ``(loaded, unloaded)`` lists of
    DOF ranges. A node column whose DOFs are all fixed cuts the band; the
    segments are the nonempty ranges between cuts, loaded when ``P`` is
    nonzero on a free DOF of theirs. With no cut, the whole band is one
    segment, counted as loaded whatever ``P``."""
    col = 2 * len(mesh.y)
    load = P.copy()
    load[fixed] = 0.0
    fixed_columns = np.isin(np.arange(mesh.n_dofs), fixed).reshape(-1, col)
    cut = np.flatnonzero(fixed_columns.all(axis=1)).tolist()
    if not cut:
        return [(0, mesh.n_dofs)], []
    starts, ends = [0] + [(i + 1) * col for i in cut], [i * col for i in cut]
    bounds = [(lo, hi) for lo, hi in zip(starts, ends + [mesh.n_dofs]) if hi > lo]
    loaded = [(lo, hi) for lo, hi in bounds if load[lo:hi].any()]
    return loaded, [seg for seg in bounds if seg not in loaded]


def _solve_properties():
    """The banded solve's hypothesis tests, as new functions on each call:
    hypothesis ties a test function to the one class that runs it, and
    both solve routes run these."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(systems(), split_systems()))
    def test_matches_dense_oracle(self, system):
        mesh, layers, fixed, P = system
        K = assemble(mesh, layers)
        u = solve(mesh, K, fixed, P)
        u_ref = solve_dense(dense_from_band(mesh, K), fixed, P)
        assert np.linalg.norm(u - u_ref) <= 1e-10 * np.linalg.norm(u_ref)
        assert_allclose(u[fixed], 0.0, atol=0)
        assert not np.signbit(u[fixed]).any()
        # a segment left unsolved keeps u = +0.0
        for lo, hi in split_segments(mesh, fixed, P)[1]:
            assert np.all(u[lo:hi] == 0.0) and not np.signbit(u[lo:hi]).any()

    @settings(max_examples=60, deadline=None)
    @given(meshes(), st.data())
    def test_under_constrained_reports_rigid_modes(self, mesh, data):
        # one fixed node leaves the rigid rotation about it
        kinds = st.sampled_from(("conforming", "incompatible"))
        layers = [
            Layer(data.draw(iso_cards()), data.draw(kinds), "plate")
            for _ in range(mesh.n_layers)
        ]
        node = data.draw(st.integers(0, mesh.n_nodes - 1))
        K = assemble(mesh, layers)
        with pytest.raises(SolveError) as err:
            solve(mesh, K, node_dofs([node]), np.ones(mesh.n_dofs))
        assert err.value.rigid_modes >= 1

    return test_matches_dense_oracle, test_under_constrained_reports_rigid_modes


class TestConstrainedBand:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(systems(), split_systems()))
    def test_is_the_pinned_band_of_K(self, system):
        mesh, layers, fixed, P = system
        K = assemble(mesh, layers)
        pbsv = assembly._banded_solver()
        factored = []

        def recording_pbsv(ab, b):
            factored.append((ab.flags.f_contiguous, ab.copy(order="F")))
            return pbsv(ab, b)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(assembly, "_banded_solver", lambda: recording_pbsv)
            solve(mesh, K, fixed, P)
        K_pinned = dense_from_band(mesh, K)
        scale = np.delete(np.diagonal(K_pinned), fixed).max()
        K_pinned[fixed] = 0.0
        K_pinned[:, fixed] = 0.0
        K_pinned[fixed, fixed] = scale
        # solve must factor exactly the loaded segments, in order, so every
        # segment it skips is one that carries no load
        loaded, _ = split_segments(mesh, fixed, P)
        assert len(factored) == len(loaded)
        for (f_contiguous, ab), (lo, hi) in zip(factored, loaded):
            ref = np.zeros((len(K), hi - lo))
            for d in range(min(len(ref), hi - lo)):
                ref[d, : hi - lo - d] = np.diagonal(K_pinned[lo:hi, lo:hi], -d)
            read = ~_unread(ab)
            assert f_contiguous and ab.shape == ref.shape
            assert ab[read].tobytes() == ref[read].tobytes()
        # NaN where LAPACK does not read leaves u as it was, to the last bit
        for route in (assembly._numpy_openblas, lambda: None):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(assembly, "_numpy_openblas", route)
                u = solve(mesh, K, fixed, P)
                mp.setattr(assembly, "_banded_solver", _nan_unread(assembly._banded_solver()))
                assert solve(mesh, K, fixed, P).tobytes() == u.tobytes()

    def test_is_a_fortran_copy_that_leaves_K_alone(self):
        mesh = Mesh(np.arange(4.0), np.arange(3.0), 1.0)
        card = IsotropicMaterial(E=1e3, mu=0.3)
        K = np.asfortranarray(assemble(mesh, [Layer(card, "conforming", "plate")] * 2))
        before = K.copy()
        fixed = np.zeros(mesh.n_dofs, dtype=bool)
        fixed[[0, 1, 7]] = True
        ab = assembly._pinned_band(mesh.grid(K)[:, :2], mesh.grid(fixed)[:2], 1e3)
        assert ab.flags.f_contiguous and not np.shares_memory(ab, K)
        assert K.tobytes() == before.tobytes()


def _unread(ab):
    """Mask of the band entries ``[d, c]`` with ``c + d >= n``, which LAPACK's
    lower band storage holds but never reads."""
    return np.add.outer(np.arange(len(ab)), np.arange(ab.shape[1])) >= ab.shape[1]


def _nan_unread(pbsv):
    """``pbsv`` on its band with NaN written where LAPACK does not read."""

    def nan_pbsv(ab, b):
        ab[_unread(ab)] = np.nan
        return pbsv(ab, b)

    return lambda: nan_pbsv


class TestBandedSolve:
    test_matches_dense_oracle, test_under_constrained_reports_rigid_modes = (
        _solve_properties()
    )

    @pytest.mark.parametrize("nx, ny", [(12, 1), (1, 12), (3, 9)])
    def test_single_row_and_tall_meshes(self, nx, ny):
        mesh = Mesh(np.arange(nx + 1.0), np.arange(ny + 1.0), 1.0)
        card = IsotropicMaterial(E=1000.0, mu=0.3)
        layers = [Layer(card, "conforming", "plate")] * ny
        K = assemble(mesh, layers)
        fixed = node_dofs([0, mesh.n_nodes - 1])
        P = np.linspace(-1.0, 1.0, mesh.n_dofs)
        u_ref = solve_dense(dense_from_band(mesh, K), fixed, P)
        u = solve(mesh, K, fixed, P)
        assert np.linalg.norm(u - u_ref) <= 1e-10 * np.linalg.norm(u_ref)

    @pytest.mark.parametrize("nx, ny", [(1, 1), (4, 3), (6, 2)])
    def test_one_fixed_node_leaves_exactly_one_rigid_mode(self, nx, ny):
        # the pinned DOFs' eigenvalues equal the pivot scale, never a mode
        mesh = Mesh(np.arange(nx + 1.0), np.arange(ny + 1.0), 1.0)
        card = IsotropicMaterial(E=1000.0, mu=0.3)
        K = assemble(mesh, [Layer(card, "conforming", "plate")] * ny)
        with pytest.raises(SolveError) as err:
            solve(mesh, K, node_dofs([0]), np.ones(mesh.n_dofs))
        assert err.value.rigid_modes == 1

    @pytest.mark.parametrize("routine", ["dpbtrf", "dpbtrs"])
    def test_illegal_argument_raises(self, monkeypatch, routine):
        # dpbsv is dpbtrf then dpbtrs, and checks the arguments of both. An
        # empty band has KD = -1, which LAPACK rejects with info = -3. A
        # right-hand side one entry short has LDB < N, info = -8 on scipy's
        # route; the ctypes wrapper refuses its shape before the call.
        pbsv = assembly._banded_solver()
        if routine == "dpbtrf":
            assert pbsv(np.zeros((0, 4), order="F"), np.zeros(4))[2] == -3
            routes = lambda ab, b: pbsv(ab[:0], b)
            message = "dpbsv: illegal value in argument 3"
        else:
            routes = lambda ab, b: pbsv(ab, b[:-1])
            message = (
                "dpbsv: illegal value in argument 8"
                if assembly._numpy_openblas() is None
                else r"need 12 right-hand side entries, got shape \(11,\)"
            )
        monkeypatch.setattr(assembly, "_banded_solver", lambda: routes)
        mesh = Mesh(np.arange(3.0), np.arange(2.0), 1.0)
        card = IsotropicMaterial(E=1e3, mu=0.3)
        K = assemble(mesh, [Layer(card, "conforming", "plate")])
        with pytest.raises(ValueError, match=message):
            solve(mesh, K, node_dofs([0, 3]), np.ones(mesh.n_dofs))

    @staticmethod
    def supported_solid():
        """A 2-layer supported solid plate: its mesh, K, fixed DOFs and load."""
        spec = PlateSpec()
        mesh, layers = solid_model(spec, 2, "conforming", FORMLABS_CLEAR)
        fixed = apply_boundary(mesh, BoundaryCondition.SUPPORTED, spec)
        return mesh, assemble(mesh, layers), fixed, apply_load(mesh, 30.0, spec)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_load_rejected(self, value):
        mesh, K, fixed, P = self.supported_solid()
        P[7] = value
        with pytest.raises(MeshError, match=f"P must be finite, got {value} at DOF 7"):
            solve(mesh, K, fixed, P)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "entry", [(0, 50), (0, 100), (3, 20)], ids=["diagonal", "past-fixed", "coupling"]
    )
    def test_non_finite_stiffness_rejected(self, entry, value):
        # DOFs 20, 23, 50 and 100 are free and 72 is fixed. A non-finite
        # diagonal entry is the pivot scale too, which solve writes on the
        # fixed DOFs' diagonal; the error names K's own entry, not DOF 72's
        mesh, K, fixed, P = self.supported_solid()
        assert not np.isin([20, 23, 50, 100], fixed).any() and 72 in fixed
        K[entry] = value
        message = f"K must be finite, got {value} at K[{entry[0]}, {entry[1]}]"
        with pytest.raises(SolveError, match=re.escape(message)):
            solve(mesh, K, fixed, P)


@pytest.mark.usefixtures("scipy_lapack")
class TestBandedSolveScipyLapack(TestBandedSolve):
    """The same checks with solve on scipy's LAPACK, the fallback route."""

    test_matches_dense_oracle, test_under_constrained_reports_rigid_modes = (
        _solve_properties()
    )


# numpy's FFT extension loads but neither has nor links scipy_dpbsv_64_;
# _multiarray_umath would not do: dlsym also searches the OpenBLAS it links
_NUMPY_EXTENSION = glob.glob(
    os.path.join(os.path.dirname(np.__file__), "fft", "_pocketfft*")
)[0]


@pytest.mark.parametrize(
    "found", [[], [_NUMPY_EXTENSION], [__file__]],
    ids=["no-file", "no-symbol", "not-a-library"],
)
def test_numpy_openblas_is_none_without_the_routine(monkeypatch, found):
    # the uncached lookup, so the binding solve uses stays as it is
    monkeypatch.setattr(assembly.glob, "glob", lambda pattern: list(found))
    assert assembly._numpy_openblas.__wrapped__() is None


def _on_both_routes(*args):
    """``solve(*args)`` on numpy's bundled OpenBLAS, then on scipy's LAPACK."""
    u = solve(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assembly, "_numpy_openblas", lambda: None)
        return u, solve(*args)


@pytest.mark.skipif(
    assembly._numpy_openblas() is None,
    reason="numpy's wheel has no ILP64 scipy-openblas; solve has only the "
    "scipy route",
)
class TestLapackRoutesAgree:
    @settings(max_examples=60, deadline=None)
    @given(systems())
    def test_random_systems_bitwise(self, system):
        mesh, layers, fixed, P = system
        K = assemble(mesh, layers)
        u, u_scipy = _on_both_routes(mesh, K, fixed, P)
        assert np.array_equal(u, u_scipy)

    @pytest.mark.parametrize("setup", [1, 2])
    @pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
    def test_paper_cases_bitwise(self, setup, bc):
        spec, _, mesh, layers = composite_model(
            setup, 1.3, 0.353, "incompatible_faces", FORMLABS_CLEAR, PlateSpec()
        )
        P = apply_load(mesh, 30.0, spec)
        fixed = apply_boundary(mesh, bc, spec)
        u, u_scipy = _on_both_routes(mesh, assemble(mesh, layers), fixed, P)
        assert np.array_equal(u, u_scipy)


class TestBandScatter:
    @settings(max_examples=150, deadline=None)
    @given(repeated_card_models())
    def test_matches_bincount_scatter_bitwise(self, model):
        mesh, layers = model
        K = assemble(mesh, layers)
        assert K.tobytes() == assemble_scatter(mesh, layers).tobytes()


class TestArrayRecovery:
    @settings(max_examples=100, deadline=None)
    @given(
        repeated_card_models(tags=("core", "face_top", "face_bottom")),
        st.integers(0, 2**32 - 1),
    )
    def test_repeated_cards_match_per_layer_bitwise(self, model, seed):
        mesh, layers = model
        u = np.random.default_rng(seed).normal(0.0, 1e-2, mesh.n_dofs)
        field = recover(mesh, layers, u)
        ref = recover_per_layer(mesh, layers, u)
        assert field.tags == ref.tags
        for name in ("sxx", "syy", "se"):
            got, want = getattr(field, name), getattr(ref, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(meshes(), st.data())
    def test_matches_loop_oracle(self, mesh, data):
        tags = ("core", "face_top", "face_bottom")
        layers = [data.draw(layer_cards(tags)) for _ in range(mesh.n_layers)]
        seed = data.draw(st.integers(0, 2**32 - 1))
        u = np.random.default_rng(seed).normal(0.0, 1e-2, mesh.n_dofs)
        field = recover(mesh, layers, u)
        ref = recover_loop(mesh, layers, u)
        for name in ("sxx", "syy", "se"):
            got, want = getattr(field, name), getattr(ref, name)
            assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        by_tag = field.max_se_by_tag()
        assert list(by_tag) == list(dict.fromkeys(ref.tags))
        for tag, value in by_tag.items():
            layer = np.arange(mesh.n_elements) // mesh.nx
            sel = np.array([ref.tags[j] == tag for j in layer])
            assert value == field.se[sel].max()


class TestPhysicsInvariants:
    @settings(max_examples=100, deadline=None)
    @given(systems(), st.integers(0, 2**32 - 1))
    def test_maxwell_betti_reciprocity(self, system, seed):
        mesh, layers, fixed, P1 = system
        P2 = np.random.default_rng(seed).normal(0.0, 10.0, mesh.n_dofs)
        u1 = analyze(mesh, layers, [fixed], P1)[0].u
        u2 = analyze(mesh, layers, [fixed], P2)[0].u
        # |u1 . P2| <= sqrt((u1 . P1)(u2 . P2)) (Cauchy-Schwarz in the
        # energy inner product), so this is the scale of either product
        scale = np.sqrt((u1 @ P1) * (u2 @ P2))
        assert abs(u1 @ P2 - u2 @ P1) <= 1e-10 * scale

    @settings(max_examples=100, deadline=None)
    @given(systems())
    def test_work_of_a_load_is_positive(self, system):
        mesh, layers, fixed, P = system
        [result] = analyze(mesh, layers, [fixed], P)
        assert np.delete(P, result.fixed_dofs).any()
        assert result.u @ P > 0

    @settings(max_examples=100, deadline=None)
    @given(
        systems(), st.integers(0, 2**32 - 1), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)
    )
    def test_linear_in_the_load(self, system, seed, a, b):
        mesh, layers, fixed, P1 = system
        P2 = np.random.default_rng(seed).normal(0.0, 10.0, mesh.n_dofs)
        [r1] = analyze(mesh, layers, [fixed], P1)
        [r2] = analyze(mesh, layers, [fixed], P2)
        [r12] = analyze(mesh, layers, [fixed], a * P1 + b * P2)
        outputs = [(r.u, r.field.sxx, r.field.syy) for r in (r1, r2, r12)]
        for x1, x2, x12 in zip(*outputs):
            scale = abs(a) * np.linalg.norm(x1) + abs(b) * np.linalg.norm(x2)
            assert np.linalg.norm(x12 - (a * x1 + b * x2)) <= 1e-10 * scale
