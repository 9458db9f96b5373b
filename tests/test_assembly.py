"""Assembly, constraints, solve and recovery on small meshes.

Oracles: dense brute-force summation of expanded element matrices for the
assembly rule (``oracles.py``), numpy's generic solver for the reduced
system, and hand-computed constant-strain patches for the recovery path.
``assemble`` returns the lower band of K; the tests that read K as a matrix
unpack it with ``oracles.dense_from_band``, and one test holds that view
equal to the dense reference assembly ``oracles.assemble_dense``.
"""

import logging

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chiralplate import (
    FORMLABS_CLEAR,
    BoundaryCondition,
    ConstraintError,
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
    build_solid_mesh,
    composite_model,
    element_stiffness,
    plane_strain_matrix,
    recover,
    solid_model,
    solve,
)
from chiralplate import assembly
from chiralplate.elements import ETA_CORNERS, XI_CORNERS, ElementGeometry
from oracles import (
    assemble_dense,
    correspondence_matrix,
    dense_from_band,
    element_dof_table,
    element_nodes,
    expanded_stiffness,
    node_coords,
    node_dofs,
    node_id,
    solve_dense,
)


def single_element_mesh(a=1.0, b=1.0, h=1.0):
    return Mesh([0.0, a], [0.0, b], h)


def grid_mesh(nx, ny, a_fe=1.0, b_fe=1.0, h=1.0):
    return Mesh(
        np.linspace(0, nx * a_fe, nx + 1), np.linspace(0, ny * b_fe, ny + 1), h
    )


@pytest.fixture
def steelish():
    return IsotropicMaterial(E=1000.0, mu=0.3)


class TestMesh:
    def test_counts(self):
        mesh = grid_mesh(3, 2)
        assert mesh.n_nodes == 12
        assert mesh.n_elements == 6
        assert mesh.n_dofs == 24
        assert mesh.element_dofs.shape == (6, 8)

    def test_corner_order(self):
        mesh = grid_mesh(2, 1)
        # element 1 spans x in [1, 2]: corners (-1,-1),(1,-1),(1,1),(-1,1);
        # nodes are numbered column by column, y fastest
        assert tuple(mesh.element_dofs[1, 0::2] // 2) == (2, 4, 5, 3)

    def test_node_ids_match_coordinates(self):
        # the grid's [i, j, c] is DOF c of the node at (x[i], y[j])
        mesh = Mesh([0.0, 1.5, 3.0, 4.5], [0.0, 0.5, 2.0], 1.0)
        coords = node_coords(mesh)
        grid = mesh.grid(np.arange(mesh.n_dofs))
        assert grid.shape == (4, 3, 2)
        for i, x in enumerate(mesh.x):
            for j, y in enumerate(mesh.y):
                assert tuple(coords[node_id(mesh, i, j)]) == (x, y)
                for c in (0, 1):
                    assert grid[i, j, c] == 2 * node_id(mesh, i, j) + c

    def test_grid_is_a_view_of_each_row(self):
        mesh = grid_mesh(3, 2)
        stack = np.zeros((2, mesh.n_dofs))
        mesh.grid(stack)[1, 2, 0, 1] = 1.0  # y DOF of node (2, 0), second row
        assert np.flatnonzero(stack[1]).tolist() == [2 * node_id(mesh, 2, 0) + 1]
        assert not stack[0].any()

    @pytest.mark.parametrize("nx, ny", [(1, 1), (3, 2), (2, 5), (36, 3)])
    def test_element_dofs_match_oracle_table(self, nx, ny):
        mesh = grid_mesh(nx, ny)
        assert np.array_equal(mesh.element_dofs, element_dof_table(mesh))
        assert not mesh.element_dofs.flags.writeable

    def test_element_dofs_sit_at_corner_signs(self):
        mesh = Mesh([0.0, 1.5, 3.0, 4.5], [0.0, 0.5, 2.0], 1.0)
        coords = node_coords(mesh)
        for e in range(mesh.n_elements):
            i, j = e % mesh.nx, e // mesh.nx
            dofs = mesh.element_dofs[e]
            assert list(dofs[1::2]) == list(dofs[0::2] + 1)
            for q, m in enumerate(dofs[0::2] // 2):
                # the corner at signs (xi, eta) is the grid node on the
                # element's left/right (xi = -1/1) and bottom/top (eta) line
                i_q = i + int(1 + XI_CORNERS[q]) // 2
                j_q = j + int(1 + ETA_CORNERS[q]) // 2
                assert tuple(coords[m]) == (mesh.x[i_q], mesh.y[j_q])

    @pytest.mark.parametrize(
        "x0, want",
        [(2.0, 2), (2.0 + 0.9e-9, 2), (2.0 - 0.9e-9, 2), (2.0 + 1.1e-9, None),
         (0.0, 0), (3.0, 3), (-1e-9, 0), (2.5, None), (7.0, None)],
    )
    def test_column_at_within_tolerance(self, x0, want):
        # the one node-line lookup: the line within 1e-9 mm, else None
        assert grid_mesh(3, 2).column_at(x0) == want

    def test_rejects_uneven_widths(self):
        with pytest.raises(MeshError):
            Mesh([0.0, 1.0, 2.5], [0.0, 1.0], 1.0)

    @pytest.mark.parametrize("jitter", [0.0, 5e-13, 1.5e-12, 3e-12, 1e-9])
    def test_width_tolerance_is_allclose(self, jitter):
        x = [0.0, 1.0, 2.0 + jitter]
        widths = np.diff(x)
        if np.allclose(widths, widths[0], rtol=1e-12, atol=1e-12):
            assert Mesh(x, [0.0, 1.0], 1.0).a_fe == 1.0
        else:
            with pytest.raises(MeshError, match="same width"):
                Mesh(x, [0.0, 1.0], 1.0)

    @pytest.mark.parametrize("jitter", [0.0, 5e-13, 1.5e-12, 3e-12, 1e-9])
    def test_height_tolerance_is_the_width_tolerance(self, steelish, jitter):
        # a layer takes the first earlier height within 1e-12 + 1e-12 * |b|
        y = [0.0, 1.0, 2.0 + jitter, 3.0 + jitter]
        mesh = Mesh([0.0, 1.0], y, 1.0)
        heights = [mesh.layer_height(j) for j in range(3)]
        layers = [Layer(steelish, "conforming", "plate")] * 3
        cards = assembly._card_groups(mesh, layers)
        if np.isclose(np.diff(y)[1], 1.0, rtol=1e-12, atol=1e-12):
            assert heights == [1.0, 1.0, 1.0] and len(cards) == 1
        else:
            assert heights == [1.0, np.diff(y)[1], 1.0] and len(cards) == 2

    @pytest.mark.parametrize(
        "x, y, name",
        [
            ([0.0, 1.0, 2.0], [0.0, np.nan, 2.0], "y_lines"),
            ([0.0, 1.0, 2.0], [0.0, 1.0, np.inf], "y_lines"),
            ([0.0, 1.0, 2.0], [-np.inf, 0.0], "y_lines"),
            ([0.0, np.nan, 2.0], [0.0, 1.0], "x_lines"),
            ([0.0, 1.0, np.inf], [0.0, 1.0], "x_lines"),
        ],
        ids=["nan-y", "inf-y", "minus-inf-y", "nan-x", "inf-x"],
    )
    def test_rejects_non_finite_lines(self, x, y, name):
        # a NaN line used to pass, or fail as "uneven widths", and
        # analyze then returned NaN stresses
        with pytest.raises(MeshError, match=f"{name} must be finite"):
            Mesh(x, y, 1.0)

    @pytest.mark.parametrize(
        "x, y, name",
        [([0.0, 1.0], [0.0], "y_lines"), ([0.0, 1.0], [[0.0, 1.0]], "y_lines"),
         ([0.0], [0.0, 1.0], "x_lines"), ([0.0, 1.0], [0.0, 1.0, 1.0, 2.0], "y_lines")],
        ids=["one-y-line", "2d-y-lines", "one-x-line", "repeated-y-line"],
    )
    def test_rejects_too_few_or_repeated_lines(self, x, y, name):
        with pytest.raises(MeshError, match=f"{name} must be strictly increasing"):
            Mesh(x, y, 1.0)

    def test_rejects_non_monotone(self):
        with pytest.raises(MeshError):
            Mesh([0.0, 2.0, 1.0], [0.0, 1.0], 1.0)

    def test_correspondence_matrix_invariants(self):
        mesh = grid_mesh(3, 2)
        A = correspondence_matrix(mesh)
        assert A.shape == (mesh.n_nodes, mesh.n_elements)
        assert set(np.unique(A)) <= {0, 1, 2, 3, 4}
        for e in range(mesh.n_elements):
            col = A[:, e]
            assert sorted(col[col > 0]) == [1, 2, 3, 4]


class TestAssemble:
    def test_single_element_equals_element_matrix(self, steelish):
        # equal up to the local->global corner permutation of the A rule
        mesh = single_element_mesh()
        K = dense_from_band(
            mesh, assemble(mesh, [Layer(steelish, "conforming", "plate")])
        )
        k_e = element_stiffness(
            "conforming", ElementGeometry(1, 1, 1), plane_strain_matrix(steelish)
        )
        assert_allclose(K, expanded_stiffness(mesh, 0, k_e), rtol=0, atol=0)
        nodes = element_nodes(mesh, 0)
        for q_r, m in enumerate(nodes):
            for q_s, n in enumerate(nodes):
                assert_allclose(
                    K[2 * m : 2 * m + 2, 2 * n : 2 * n + 2],
                    k_e[2 * q_r : 2 * q_r + 2, 2 * q_s : 2 * q_s + 2],
                    rtol=0,
                    atol=0,
                )

    def test_two_elements_against_expanded_sum(self, steelish):
        mesh = grid_mesh(2, 1)
        K = dense_from_band(
            mesh, assemble(mesh, [Layer(steelish, "conforming", "plate")])
        )
        k_e = element_stiffness(
            "conforming", ElementGeometry(1, 1, 1), plane_strain_matrix(steelish)
        )
        K_oracle = expanded_stiffness(mesh, 0, k_e) + expanded_stiffness(mesh, 1, k_e)
        assert_allclose(K, K_oracle, rtol=0, atol=1e-15)

    def test_symmetry_and_rigid_translation(self, steelish):
        mesh = grid_mesh(4, 3)
        K = dense_from_band(
            mesh, assemble(mesh, [Layer(steelish, "conforming", "plate")] * 3)
        )
        assert_allclose(K, K.T, rtol=0, atol=0)
        v = np.zeros(mesh.n_dofs)
        v[0::2] = 1.0  # pure x translation
        assert np.abs(K @ v).max() < 1e-11 * np.abs(K).max()

    @pytest.mark.parametrize("algorithm", ["conforming", "incompatible_faces"])
    @pytest.mark.parametrize("plate", ["solid", "composite"])
    def test_band_unpacks_to_dense_reference(self, plate, algorithm):
        spec = PlateSpec()
        if plate == "solid":
            mesh, tags = build_solid_mesh(spec.solid(), 3)
            kind = "incompatible" if algorithm == "incompatible_faces" else algorithm
            layers = [Layer(FORMLABS_CLEAR, kind, t) for t in tags]
        else:
            _, _, mesh, layers = composite_model(
                2, 1.3, 0.353, algorithm, FORMLABS_CLEAR, spec
            )
            # isotropic faces around a transversely isotropic core
            assert isinstance(layers[1].material, TransverselyIsotropicMaterial)
        band = assemble(mesh, layers)
        assert band.shape == (2 * len(mesh.y) + 4, mesh.n_dofs)
        assert_allclose(
            dense_from_band(mesh, band), assemble_dense(mesh, layers), rtol=0, atol=0
        )

    def test_layer_rejects_incompatible_ti_card(self):
        # the element kinds share one closed form in chi, so this card check
        # is what keeps a TI card off the incompatible kind, whose coupling
        # terms need an isotropic card's mu
        ti = TransverselyIsotropicMaterial(E1=40.0, mu1=0.0, E2=1000.0, mu2=0.35, G2=300.0)
        with pytest.raises(MeshError, match="isotropic"):
            Layer(ti, "incompatible", "core")
        assert Layer(ti, "conforming", "core").kind == "conforming"

    def test_layer_rejects_unknown_kind(self, steelish):
        with pytest.raises(MeshError, match="unknown element kind 'quad'"):
            Layer(steelish, "quad", "plate")

    def test_layer_count_mismatch(self, steelish):
        mesh = grid_mesh(2, 2)
        layers = [Layer(steelish, "conforming", "plate")]
        with pytest.raises(MeshError):
            assemble(mesh, layers)
        with pytest.raises(MeshError):
            recover(mesh, layers, np.zeros(mesh.n_dofs))

    def test_unconstrained_K_has_three_zero_modes(self, steelish):
        # connected conforming mesh: two translations + one rotation
        mesh = grid_mesh(4, 2)
        eig = np.linalg.eigvalsh(
            dense_from_band(
                mesh, assemble(mesh, [Layer(steelish, "conforming", "plate")] * 2)
            )
        )
        assert np.sum(np.abs(eig) < 1e-10 * eig.max()) == 3


def solve_single_element(fixed):
    """``solve`` on one unit element under ``fixed`` and a unit load."""
    mesh = single_element_mesh()
    K = assemble(mesh, [Layer(FORMLABS_CLEAR, "conforming", "plate")])
    return solve(mesh, K, fixed, np.ones(mesh.n_dofs))


class TestConstraintsAndSolve:
    def test_fix_everything_rejected(self):
        for fixed in (np.arange(8), np.arange(0)):
            with pytest.raises(ConstraintError, match="fix some but not all 8 DOFs"):
                solve_single_element(fixed)
        with pytest.raises(ConstraintError):  # an empty list has no int dtype
            solve_single_element([])

    @pytest.mark.parametrize("fixed", [[0, 999], [-1], [0, 8]],
                             ids=["past-end", "negative", "one-past-end"])
    def test_node_outside_mesh_rejected(self, fixed):
        # none may be dropped or wrapped round to a real DOF
        with pytest.raises(ConstraintError, match="must lie in"):
            solve_single_element(fixed)

    @pytest.mark.parametrize(
        "fixed", [[0.9, 3.2], [True, False, False, False]], ids=["float", "mask"]
    )
    def test_non_integer_node_ids_rejected(self, fixed):
        # neither may be read as DOF ids: not truncated to DOFs 0 and 3,
        # nor a DOF mask taken as the ids 1 and 0
        with pytest.raises(ConstraintError, match="must be integers"):
            solve_single_element(fixed)

    @pytest.mark.parametrize("fixed", [[1, 0, 2, 3], [0, 1, 1, 2, 3]],
                             ids=["unsorted", "repeated"])
    def test_dof_ids_not_increasing_rejected(self, fixed):
        # the fixed count len(fixed) must be exact, whatever the order
        with pytest.raises(ConstraintError, match="increase strictly"):
            solve_single_element(fixed)

    def test_nested_dof_ids_rejected(self):
        with pytest.raises(ConstraintError, match="1-D sequence"):
            solve_single_element([[0, 1], [2, 3]])

    def test_single_dofs_fixed(self):
        # a pin at node (0, 0) and a roller at (1, 0): only its y DOF fixed
        mesh = single_element_mesh()
        K = assemble(mesh, [Layer(FORMLABS_CLEAR, "conforming", "plate")])
        P = np.zeros(mesh.n_dofs)
        P[2 * node_id(mesh, 1, 1) + 1] = -1.0
        roller = 2 * node_id(mesh, 1, 0)
        fixed = np.array([0, 1, roller + 1])
        u = solve(mesh, K, fixed, P)
        u_ref = solve_dense(dense_from_band(mesh, K), fixed, P)
        assert_allclose(u, u_ref, rtol=1e-12, atol=0)
        assert np.all(u[fixed] == 0.0)
        assert u[roller] != 0.0

    def test_reduced_matrix_positive_definite(self, steelish):
        mesh = single_element_mesh()
        K = dense_from_band(
            mesh, assemble(mesh, [Layer(steelish, "conforming", "plate")])
        )
        # bottom edge: 4 DOFs > 3 rigid modes
        fixed = node_dofs([node_id(mesh, 0, 0), node_id(mesh, 1, 0)])
        free = np.delete(np.arange(mesh.n_dofs), fixed)
        eig = np.linalg.eigvalsh(K[np.ix_(free, free)])
        assert eig.min() > 0

    def test_underconstrained_reports_rigid_modes(self, steelish):
        mesh = single_element_mesh()
        K = assemble(mesh, [Layer(steelish, "conforming", "plate")])
        fixed = node_dofs([0])  # rotation about node 0 remains
        P = np.zeros(mesh.n_dofs)
        P[2 * node_id(mesh, 0, 1) + 1] = 1.0
        with pytest.raises(SolveError) as err:
            solve(mesh, K, fixed, P)
        assert err.value.rigid_modes >= 1

    def test_dense_K_rejected(self, steelish):
        mesh = grid_mesh(3, 1)
        layers = [Layer(steelish, "conforming", "plate")]
        K = dense_from_band(mesh, assemble(mesh, layers))
        left_edge = [node_id(mesh, 0, 0), node_id(mesh, 0, 1)]
        with pytest.raises(MeshError, match="band"):
            solve(mesh, K, node_dofs(left_edge), np.ones(mesh.n_dofs))

    @pytest.mark.parametrize("shape", [(31,), (23,), (24, 2)], ids=["31", "23", "24x2"])
    def test_wrong_load_shape_rejected(self, steelish, shape):
        # 24 DOFs, 18 free: no load may be truncated or counted over the free DOFs
        mesh = grid_mesh(3, 2)
        K = assemble(mesh, [Layer(steelish, "conforming", "plate")] * 2)
        fixed = node_dofs(range(len(mesh.y)))  # node column 0
        with pytest.raises(MeshError, match=r"P must have shape \(24,\)"):
            solve(mesh, K, fixed, np.ones(shape))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_inputs_untouched_and_fixed_dofs_plus_zero(self, steelish, order):
        mesh = grid_mesh(3, 2)
        layers = [Layer(steelish, "conforming", "plate")] * 2
        K = np.array(assemble(mesh, layers), order=order)
        fixed = node_dofs(range(len(mesh.y)))  # node column 0
        P = np.random.default_rng(7).normal(0.0, 10.0, mesh.n_dofs)
        K_in, P_in, fixed_in = K.copy(order="K"), P.copy(), fixed.copy()
        u = solve(mesh, K, fixed, P)
        assert K.tobytes(order="A") == K_in.tobytes(order="A")
        assert P.tobytes() == P_in.tobytes()
        assert fixed.tobytes() == fixed_in.tobytes()
        u_fixed = u[fixed]
        assert len(u_fixed) == 2 * len(mesh.y)
        assert np.all(u_fixed == 0.0) and not np.signbit(u_fixed).any()
        assert np.all(np.delete(u, fixed) != 0.0)

    def test_clamped_plate_factors_the_span_only(self, monkeypatch):
        # the overhangs beyond the clamp lines are unloaded and held by a
        # fixed column: they are not factored and keep u = +0.0
        spec = PlateSpec().solid()
        mesh, layers = solid_model(spec, 4, "conforming", FORMLABS_CLEAR)
        K = assemble(mesh, layers)
        fixed = apply_boundary(mesh, BoundaryCondition.CLAMPED, spec)
        P = apply_load(mesh, 30.0, spec)
        pbsv = assembly._banded_solver()
        widths = []
        monkeypatch.setattr(
            assembly, "_banded_solver",
            lambda: lambda ab, b: widths.append(ab.shape[1]) or pbsv(ab, b),
        )
        u = solve(mesh, K, fixed, P)
        u_ref = solve_dense(dense_from_band(mesh, K), fixed, P)
        assert np.linalg.norm(u - u_ref) <= 1e-10 * np.linalg.norm(u_ref)
        span = (mesh.x > spec.x1 + 1e-9) & (mesh.x < spec.x2 - 1e-9)
        assert widths == [2 * len(mesh.y) * span.sum()]
        outside = (mesh.x < spec.x1 - 1e-9) | (mesh.x > spec.x2 + 1e-9)
        overhang = np.repeat(outside, 2 * len(mesh.y))
        assert overhang.any() and np.all(u[overhang] == 0.0)
        assert not np.signbit(u[overhang]).any()

    def test_zero_load_without_a_fixed_column_is_still_checked(self, steelish):
        # with no fully fixed node column the whole band is factored, so a
        # rigid mode raises even where there is nothing to solve for
        mesh = grid_mesh(3, 2)
        K = assemble(mesh, [Layer(steelish, "conforming", "plate")] * 2)
        with pytest.raises(SolveError) as err:
            solve(mesh, K, node_dofs([0]), np.zeros(mesh.n_dofs))
        assert err.value.rigid_modes == 1

    def test_zero_load_zero_displacement(self, steelish):
        mesh = grid_mesh(3, 1)
        K = assemble(mesh, [Layer(steelish, "conforming", "plate")])
        left_edge = [node_id(mesh, 0, 0), node_id(mesh, 0, 1)]
        u = solve(mesh, K, node_dofs(left_edge), np.zeros(mesh.n_dofs))
        assert_allclose(u, 0.0, atol=0)

    def test_against_dense_oracle_and_linearity(self, steelish):
        mesh = single_element_mesh()
        K = assemble(mesh, [Layer(steelish, "conforming", "plate")])
        bottom = [node_id(mesh, 0, 0), node_id(mesh, 1, 0)]
        fixed = node_dofs(bottom)
        keep = np.delete(np.arange(mesh.n_dofs), fixed)
        P = np.zeros(mesh.n_dofs)
        P[2 * node_id(mesh, 1, 1) + 1] = -1.0  # unit downward load at a top node
        u = solve(mesh, K, fixed, P)
        K_dense = dense_from_band(mesh, K)
        u_oracle = np.linalg.solve(K_dense[np.ix_(keep, keep)], P[keep])
        assert_allclose(u[keep], u_oracle, rtol=1e-12)
        assert_allclose(u[[2 * m + c for m in bottom for c in (0, 1)]], 0.0, atol=0)
        assert_allclose(solve(mesh, K, fixed, 2 * P), 2 * u, rtol=1e-12)

    def test_residual_small(self, steelish):
        mesh = grid_mesh(6, 2)
        layers = [Layer(steelish, "conforming", "plate")] * 2
        P = np.zeros(mesh.n_dofs)
        P[2 * node_id(mesh, 3, 2) + 1] = -5.0
        fixed = node_dofs([node_id(mesh, 0, 0), node_id(mesh, 6, 0)])
        [result] = analyze(mesh, layers, [fixed], P)
        free = np.delete(np.arange(mesh.n_dofs), result.fixed_dofs)
        K_a = dense_from_band(mesh, assemble(mesh, layers))[np.ix_(free, free)]
        res = K_a @ result.u[free] - P[free]
        assert np.linalg.norm(res) <= 1e-8 * np.linalg.norm(P[free])


@pytest.mark.usefixtures("scipy_lapack")
class TestConstraintsAndSolveScipyLapack(TestConstraintsAndSolve):
    """The same checks with solve on scipy's LAPACK, the fallback route."""


class TestRecovery:
    def test_zero_displacement_zero_stress(self, steelish):
        mesh = grid_mesh(2, 1)
        layers = [Layer(steelish, "conforming", "plate")]
        bottom_corners = node_dofs([node_id(mesh, 0, 0), node_id(mesh, 2, 0)])
        [result] = analyze(mesh, layers, [bottom_corners], np.zeros(mesh.n_dofs))
        field = result.field
        assert_allclose(field.se, 0.0, atol=0)

    def test_uniform_stretch_patch(self, steelish):
        # prescribe a linear displacement field directly: eps_xx = 1e-3
        mesh = grid_mesh(3, 2)
        coords = node_coords(mesh)
        eps = 1e-3
        u = np.zeros(mesh.n_dofs)
        u[0::2] = eps * coords[:, 0]
        field = recover(mesh, [Layer(steelish, "conforming", "plate")] * 2, u)
        chi2 = plane_strain_matrix(steelish)[:2, :2]
        assert_allclose(field.sxx, chi2[0, 0] * eps, rtol=1e-12)
        assert_allclose(field.syy, chi2[1, 0] * eps, rtol=1e-12)

    def test_unsolved_system_rejected(self, steelish):
        mesh = grid_mesh(2, 1)
        layers = [Layer(steelish, "conforming", "plate")]
        with pytest.raises(SolveError):
            recover(mesh, layers, None)
        with pytest.raises(SolveError):
            recover(mesh, layers, np.zeros(mesh.n_dofs - 1))

    def test_se_nonnegative_random_solve(self, steelish, rng):
        mesh = grid_mesh(5, 2)
        P = np.zeros(mesh.n_dofs)
        above_bottom = [
            2 * node_id(mesh, i, j) + c for i in range(6) for j in (1, 2) for c in (0, 1)
        ]
        P[rng.choice(above_bottom, 5)] = rng.normal(0, 3, 5)
        layers = [Layer(steelish, "conforming", "plate")] * 2
        bottom_corners = node_dofs([node_id(mesh, 0, 0), node_id(mesh, 5, 0)])
        assert analyze(mesh, layers, [bottom_corners], P)[0].field.se.min() >= 0.0

    def test_superposition_componentwise(self, steelish):
        mesh = grid_mesh(4, 2)
        layers = [Layer(steelish, "conforming", "plate")] * 2
        fixed = node_dofs([node_id(mesh, 0, 0), node_id(mesh, 4, 0)])

        def run(*loads):
            P = np.zeros(mesh.n_dofs)
            for load_dof, value in loads:
                P[load_dof] = value
            return analyze(mesh, layers, [fixed], P)[0].field

        right, middle = 2 * node_id(mesh, 4, 2) + 1, 2 * node_id(mesh, 2, 2) + 1
        f1 = run((right, -2.0))
        f2 = run((middle, 1.5))
        f12 = run((right, -2.0), (middle, 1.5))
        for name in ("sxx", "syy"):
            a = getattr(f1, name) + getattr(f2, name)
            b = getattr(f12, name)
            assert_allclose(b, a, rtol=1e-9, atol=1e-12 * np.abs(b).max())

    def test_max_by_tag(self, steelish):
        mesh = grid_mesh(2, 2)
        soft = IsotropicMaterial(E=10.0, mu=0.0)
        layers = [
            Layer(steelish, "conforming", "bottom"),
            Layer(soft, "conforming", "top"),
        ]
        P = np.zeros(mesh.n_dofs)
        P[2 * node_id(mesh, 1, 2) + 1] = -1.0
        bottom_corners = node_dofs([node_id(mesh, 0, 0), node_id(mesh, 2, 0)])
        [result] = analyze(mesh, layers, [bottom_corners], P)
        by_tag = result.field.max_se_by_tag()
        assert set(by_tag) == {"bottom", "top"}
        assert by_tag["bottom"] > 0 and by_tag["top"] > 0


class TestPatchTest:
    def test_constant_strain_patch_6x4(self, steelish):
        # linear displacement field imposed on the boundary reproduces the
        # constant stress state chi . eps at every interior recovery point
        mesh = grid_mesh(6, 4, a_fe=0.9, b_fe=0.5)
        layers = [Layer(steelish, "conforming", "plate")] * 4
        K = dense_from_band(mesh, assemble(mesh, layers))
        coords = node_coords(mesh)
        exx, eyy = 2e-3, -1e-3
        u_exact = np.zeros(mesh.n_dofs)
        u_exact[0::2] = exx * coords[:, 0]
        u_exact[1::2] = eyy * coords[:, 1]

        boundary = [
            m
            for m in range(mesh.n_nodes)
            if coords[m, 0] in (mesh.x[0], mesh.x[-1])
            or coords[m, 1] in (mesh.y[0], mesh.y[-1])
        ]
        bdofs = np.array([[2 * m, 2 * m + 1] for m in boundary]).ravel()
        free = np.setdiff1d(np.arange(mesh.n_dofs), bdofs)
        # Dirichlet lift: K_ff u_f = -K_fb u_b
        rhs = -K[np.ix_(free, bdofs)] @ u_exact[bdofs]
        u = u_exact.copy()
        u[free] = np.linalg.solve(K[np.ix_(free, free)], rhs)
        assert_allclose(u, u_exact, rtol=1e-9, atol=1e-15)

        field = recover(mesh, layers, u)
        sxx, syy = plane_strain_matrix(steelish)[:2, :2] @ [exx, eyy]
        assert_allclose(field.sxx, sxx, rtol=1e-9)
        assert_allclose(field.syy, syy, rtol=1e-9)


FIELD_ARRAYS = ("sxx", "syy", "se")


def two_bc_model(kind):
    """A 3-layer solid model (two raw layer heights, one card), its clamped
    and supported fixed-DOF sets and a midspan probe load."""
    spec = PlateSpec().solid()
    mesh, tags = build_solid_mesh(spec, 3, "equal_aspect")
    layers = [Layer(FORMLABS_CLEAR, kind, tag) for tag in tags]
    fixed_sets = [apply_boundary(mesh, bc, spec) for bc in BoundaryCondition]
    return mesh, layers, fixed_sets, apply_load(mesh, 60.0, spec)


class TestAnalyze:
    @pytest.mark.parametrize("kind", ["conforming", "incompatible"])
    def test_shared_assembly_equals_single_sets_bitwise(self, kind):
        mesh, layers, fixed_sets, P = two_bc_model(kind)
        both = analyze(mesh, layers, fixed_sets, P)
        assert len(both) == 2
        for fixed, shared in zip(fixed_sets, both):
            [single] = analyze(mesh, layers, [fixed], P)
            assert shared.u.tobytes() == single.u.tobytes()
            assert shared.fixed_dofs.tobytes() == single.fixed_dofs.tobytes()
            assert shared.field.tags == single.field.tags
            for name in FIELD_ARRAYS:
                got, want = getattr(shared.field, name), getattr(single.field, name)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_stacked_recovery_equals_single_recovery_bitwise(self):
        mesh, layers, _, _ = two_bc_model("incompatible")
        us = np.random.default_rng(5).normal(0.0, 1e-2, (3, mesh.n_dofs))
        fields = recover(mesh, layers, us)
        assert len(fields) == 3
        for u, field in zip(us, fields):
            single = recover(mesh, layers, u)
            for name in FIELD_ARRAYS:
                got, want = getattr(field, name), getattr(single, name)
                assert got.tobytes() == want.tobytes()

    def test_K_assembled_once_and_untouched_by_the_solves(self, monkeypatch):
        mesh, layers, fixed_sets, P = two_bc_model("conforming")
        assembled = []

        def keeping_assemble(*args):
            assembled.append(assemble(*args))
            return assembled[-1]

        monkeypatch.setattr(assembly, "assemble", keeping_assemble)
        analyze(mesh, layers, fixed_sets, P)
        assert len(assembled) == 1
        assert assembled[0].tobytes() == assemble(mesh, layers).tobytes()

    def test_fixed_sets_must_be_a_sequence_of_node_sets(self, steelish):
        mesh = grid_mesh(3, 1)
        layers = [Layer(steelish, "conforming", "plate")]
        P = np.zeros(mesh.n_dofs)
        with pytest.raises(ConstraintError, match="no fixed-DOF sets"):
            analyze(mesh, layers, [], P)
        # one flat DOF list is not a sequence of sets
        with pytest.raises(ConstraintError, match="1-D sequence"):
            analyze(mesh, layers, list(node_dofs([0, node_id(mesh, 3, 0)])), P)

    def test_debug_record_per_call(self, caplog):
        mesh, layers, fixed_sets, P = two_bc_model("conforming")
        with caplog.at_level(logging.DEBUG, logger="chiralplate.assembly"):
            analyze(mesh, layers, fixed_sets, P)
        [record] = caplog.records
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        assert message.startswith(
            f"analyze: {mesh.n_dofs} DOFs, {2 * len(mesh.y) + 4} band rows, "
            "2 fixed sets; "
        )
        for stage in ("assemble", "solve", "recover"):
            assert f"{stage} " in message and message.endswith(" ms")
