"""Plate mesh builders, boundary conditions and load cases."""

import ast
import math
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chiralplate import (
    BoundaryCondition,
    IsotropicMaterial,
    Layer,
    Mesh,
    MeshError,
    PlateSpec,
    TransverselyIsotropicMaterial,
    analyze,
    apply_boundary,
    apply_load,
    assemble,
    build_composite_mesh,
    build_solid_mesh,
    composite_model,
    core_layer_count,
)
from chiralplate import assembly, plates
from oracles import band_matvec, dense_from_band, node_dofs


@pytest.fixture
def spec():
    return PlateSpec()


def test_plates_is_geometry_only():
    # the card of each layer (material and element kind) is decided in
    # experiments; plates imports neither materials nor the Layer card
    tree = ast.parse(Path(plates.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[-1] != "materials", ast.unparse(node)
            assert "Layer" not in {a.name for a in node.names}, ast.unparse(node)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[-1] != "materials", ast.unparse(node)


REJECTED = {
    "t_fl-without-t_cl": (lambda: PlateSpec(t_cl=None),
                          "t_fl and t_cl must be given together"),
    "unknown-snap": (lambda: build_solid_mesh(PlateSpec().solid(), 2, snap="odd"),
                     "unknown snap mode 'odd'"),
    "composite-of-solid": (lambda: build_composite_mesh(PlateSpec().solid()),
                           "composite mesh needs t_fl and t_cl"),
    "no-core-layer": (lambda: build_composite_mesh(PlateSpec(), core_layers=0),
                      "core needs at least one layer, got 0"),
    # a 10 mm mesh built by hand, under the default l_1 = 27 mm
    "load-past-mesh": (lambda: apply_load(Mesh(np.arange(11.0), [0.0, 1.0], 1.0),
                                          1.0, PlateSpec()),
                       "load abscissa l_1 = 27.0 outside the mesh"),
}


@pytest.mark.parametrize("call, message", REJECTED.values(), ids=REJECTED)
def test_malformed_input_rejected(call, message):
    with pytest.raises(MeshError, match=message):
        call()


class TestPlateSpec:
    def test_defaults_consistent(self, spec):
        assert spec.t_p == 2 * spec.t_fl + spec.t_cl

    def test_rejects_inconsistent_thickness(self):
        with pytest.raises(MeshError):
            PlateSpec(t_p=2.0, t_fl=0.5, t_cl=1.5)

    def test_rejects_bad_abscissas(self):
        with pytest.raises(MeshError):
            PlateSpec(x1=30.0, l_1=27.0)  # x1 must precede l_1

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        for field in ("a", "h", "t_p", "t_fl", "t_cl", "l_1", "x1", "x2"):
            with pytest.raises(MeshError):
                PlateSpec(**{field: bad})
        with pytest.raises(MeshError):
            Mesh([0.0, 1.0], [0.0, 1.0], bad)


class TestSolidMesh:
    def test_two_layer_baseline(self, spec):
        mesh, tags = build_solid_mesh(spec.solid(), 2)
        assert mesh.nx == 54 and mesh.n_layers == 2
        assert mesh.a_fe == pytest.approx(1.0)
        assert tags == ["plate", "plate"]
        for x0 in (12.0, 27.0, 42.0):
            assert np.any(np.isclose(mesh.x, x0))

    def test_snapped_counts_hit_required_nodes(self, spec):
        for layers in range(1, 6):
            mesh, _ = build_solid_mesh(spec.solid(), layers)
            assert mesh.nx % 18 == 0  # lcm of the node constraints
            for x0 in (12.0, 27.0, 42.0):
                assert np.any(np.abs(mesh.x - x0) < 1e-9)

    def test_dof_growth_monotone(self, spec):
        dofs = [build_solid_mesh(spec.solid(), n)[0].n_dofs for n in range(1, 6)]
        assert all(b > a for a, b in zip(dofs, dofs[1:]))

    def test_zero_layers_rejected(self, spec):
        with pytest.raises(MeshError):
            build_solid_mesh(spec.solid(), 0)

    @pytest.mark.parametrize("snap", ["exact", "equal_aspect"])
    def test_one_height_per_nominal_layer(self, spec, snap):
        # np.linspace's layers differ in the last bit; they share one height
        for layers in range(1, 13):
            mesh, _ = build_solid_mesh(spec.solid(), layers, snap)
            heights = {mesh.layer_height(j) for j in range(layers)}
            assert heights == {mesh.layer_height(0)}
            assert mesh.layer_height(0) == pytest.approx(spec.t_p / layers, rel=1e-14)

    def test_equal_aspect_family(self, spec):
        mesh, _ = build_solid_mesh(spec.solid(), 1, snap="equal_aspect")
        assert mesh.nx == 27  # exactly square elements, no node at midspan
        assert not np.any(np.isclose(mesh.x, 27.0))
        for x0 in (12.0, 42.0):  # supports still on nodes
            assert np.any(np.isclose(mesh.x, x0))


class TestCompositeMesh:
    def test_setup1_baseline(self, spec):
        mesh, tags = build_composite_mesh(spec)
        assert mesh.nx == 36
        assert mesh.a_fe == pytest.approx(1.5)
        assert mesh.n_layers == 3
        assert tags == ["face_bottom", "core", "face_top"]
        assert np.any(np.isclose(mesh.x, 27.0))

    def test_thick_core_gets_two_layers(self):
        spec = PlateSpec(t_p=2 * 0.5 + 3.6, t_fl=0.5, t_cl=3.6)
        mesh, tags = build_composite_mesh(spec)
        assert mesh.n_layers == 4
        assert tags == ["face_bottom", "core", "core", "face_top"]

    @pytest.mark.parametrize("rho", [0.425, 0.496])
    def test_faces_share_one_card(self, rho):
        # setup 2's faces here differ in the last bit of y: one face card
        _, _, mesh, layers = composite_model(
            2, 1.0, rho, "conforming", IsotropicMaterial(E=2800.0, mu=0.35),
            PlateSpec(),
        )
        faces = np.diff(mesh.y)[[0, -1]]
        assert faces[0] != faces[1]
        assert mesh.layer_height(0) == mesh.layer_height(mesh.n_layers - 1)
        assert len(assembly._card_groups(mesh, layers)) == 2  # faces and core

    def test_band_rounding_keeps_grid_point(self):
        # 1.4164 mm (the constant-volume grid at rho = 0.353) is a
        # single-layer core once rounded to the published band edge
        assert core_layer_count(1.41643) == 1
        assert core_layer_count(1.77305) == 2

    def test_out_of_band_needs_override(self):
        spec = PlateSpec(t_p=2 * 0.5 + 0.4, t_fl=0.5, t_cl=0.4)
        with pytest.raises(MeshError):
            build_composite_mesh(spec)
        mesh, _ = build_composite_mesh(spec, core_layers=1)
        assert mesh.n_layers == 3

    def test_band_areas(self):
        spec = PlateSpec(t_p=2 * 0.5 + 2.0, t_fl=0.5, t_cl=2.0)
        mesh, tags = build_composite_mesh(spec)
        core_area = sum(
            mesh.a_fe * mesh.layer_height(j) * mesh.nx
            for j, tag in enumerate(tags)
            if tag == "core"
        )
        assert core_area == pytest.approx(spec.t_cl * spec.a, rel=1e-12)
        face_area = mesh.a_fe * mesh.layer_height(0) * mesh.nx
        assert face_area == pytest.approx(spec.t_fl * spec.a, rel=1e-12)

    def test_incompatible_faces_algorithm(self, resin):
        _, _, _, layers = composite_model(
            1, 1.0, 0.353, "incompatible_faces", resin, PlateSpec()
        )
        kinds = {l.tag: l.kind for l in layers}
        assert kinds["face_top"] == kinds["face_bottom"] == "incompatible"
        assert kinds["core"] == "conforming"
        materials = {l.tag: l.material for l in layers}
        assert materials["face_top"] == materials["face_bottom"] == resin
        assert isinstance(materials["core"], TransverselyIsotropicMaterial)

    @pytest.mark.parametrize("algorithm", ["incompatible", "mixed"])
    def test_unknown_algorithm_rejected(self, resin, algorithm):
        # an element kind is not a composite algorithm
        with pytest.raises(MeshError, match="unknown algorithm"):
            composite_model(1, 1.0, 0.353, algorithm, resin, PlateSpec())


class TestBoundaryAndLoad:
    def test_clamped_node_count(self, spec, resin):
        mesh, _ = build_solid_mesh(spec.solid(), 2)
        fixed = apply_boundary(mesh, BoundaryCondition.CLAMPED, spec)
        nodes = np.unique(fixed // 2)
        # both DOFs of each fixed node, strictly increasing
        assert fixed.tolist() == node_dofs(nodes).tolist()
        assert len(nodes) == 2 * (2 + 1)  # two columns x (layers+1) nodes
        coords = mesh.node_coords()[nodes]
        assert set(np.round(coords[:, 0], 9)) == {12.0, 42.0}

    def test_supported_fixes_two_bottom_nodes(self, spec, resin):
        mesh, _ = build_solid_mesh(spec.solid(), 3)
        fixed = apply_boundary(mesh, BoundaryCondition.SUPPORTED, spec)
        nodes = np.unique(fixed // 2)
        assert fixed.tolist() == node_dofs(nodes).tolist()
        assert len(nodes) == 2
        coords = mesh.node_coords()[nodes]
        assert_allclose(coords[:, 1], 0.0)

    def test_unknown_bc_rejected(self, spec):
        mesh, _ = build_solid_mesh(spec.solid(), 2)
        with pytest.raises(MeshError):
            apply_boundary(mesh, "pinned", spec)

    def test_clamp_line_off_grid_rejected(self, resin):
        # a hand-built mesh missing one clamp line must not half-clamp
        from chiralplate import Mesh

        mesh = Mesh(np.linspace(0.0, 54.0, 11), [0.0, 1.0, 2.0], 13.0)  # a_fe = 5.4
        spec = PlateSpec()
        with pytest.raises(MeshError, match="clamp line"):
            apply_boundary(mesh, BoundaryCondition.CLAMPED, spec)

    def test_zero_force_zero_vector(self, spec):
        mesh, _ = build_solid_mesh(spec.solid(), 2)
        P = apply_load(mesh, 0.0, spec)
        assert not P.any()

    def test_point_load_placement(self, spec):
        mesh, _ = build_solid_mesh(spec.solid(), 2)
        P = apply_load(mesh, 30.0, spec)
        nz = np.flatnonzero(P)
        assert len(nz) == 1
        assert P[nz[0]] == -30.0
        m = nz[0] // 2
        coords = mesh.node_coords()
        assert coords[m, 0] == pytest.approx(27.0)
        assert coords[m, 1] == pytest.approx(2.0)  # top surface
        assert nz[0] % 2 == 1  # y DOF

    def test_load_off_node_split_between_straddling_nodes(self, spec):
        mesh, _ = build_solid_mesh(spec.solid(), 1, snap="equal_aspect")
        P = apply_load(mesh, 30.0, spec)
        # l_1 = 27 lies midway between the top nodes at x = 26 and x = 28
        nz = np.flatnonzero(P)
        assert nz.tolist() == [2 * mesh.node_id(i, 1) + 1 for i in (13, 14)]
        assert_allclose(mesh.x[[13, 14]], [26.0, 28.0])
        assert P[nz].tolist() == [-15.0, -15.0]


class TestMirrorSymmetry:
    @pytest.mark.parametrize("bc", [BoundaryCondition.CLAMPED, BoundaryCondition.SUPPORTED])
    def test_solid_plate_field_symmetric(self, spec, resin, bc):
        # l_1 = a/2 and x1 + x2 = a: u_y even, u_x odd about midspan
        solid = spec.solid()
        mesh, tags = build_solid_mesh(solid, 2)
        [result] = analyze(
            mesh,
            [Layer(resin, "conforming", t) for t in tags],
            [apply_boundary(mesh, bc, solid)],
            apply_load(mesh, 60.0, solid),
        )
        u = result.u
        nxn = len(mesh.x)
        scale = np.abs(u).max()
        for j in range(len(mesh.y)):
            for i in range(nxn):
                m = mesh.node_id(i, j)
                m_ref = mesh.node_id(nxn - 1 - i, j)
                assert u[2 * m + 1] == pytest.approx(
                    u[2 * m_ref + 1], abs=1e-8 * scale
                )
                assert u[2 * m] == pytest.approx(-u[2 * m_ref], abs=1e-8 * scale)

        # recovered equivalent stresses mirror as well: element i maps to
        # nx-1-i with corners swapped left-right
        field = result.field
        corner_mirror = {0: 1, 1: 0, 2: 3, 3: 2}
        se_scale = field.se.max()
        for e in range(mesh.n_elements):
            j, i = divmod(e, mesh.nx)
            e_ref = j * mesh.nx + (mesh.nx - 1 - i)
            for q in range(4):
                assert field.se[e, q] == pytest.approx(
                    field.se[e_ref, corner_mirror[q]], abs=1e-8 * se_scale
                )


class TestEquilibrium:
    @pytest.mark.parametrize("bc", [BoundaryCondition.CLAMPED, BoundaryCondition.SUPPORTED])
    @pytest.mark.parametrize("plate", ["solid", "composite"])
    def test_reactions_balance_load(self, spec, resin, bc, plate):
        # the y-reactions (K u - P) at the fixed DOFs carry the applied F_y
        if plate == "solid":
            case_spec = spec.solid()
            mesh, tags = build_solid_mesh(case_spec, 2)
            layers = [Layer(resin, "incompatible", t) for t in tags]
        else:
            case_spec, _, mesh, layers = composite_model(
                2, 1.6, 0.14, "incompatible_faces", resin, spec
            )
        F_y = 45.0
        P = apply_load(mesh, F_y, case_spec)
        [result] = analyze(mesh, layers, [apply_boundary(mesh, bc, case_spec)], P)
        reactions = dense_from_band(mesh, assemble(mesh, layers)) @ result.u - P
        fixed = result.fixed_dofs
        assert len(fixed) > 0
        assert reactions[fixed[fixed % 2 == 1]].sum() == pytest.approx(F_y, rel=1e-9)


class TestLargeMesh:
    def test_sixteen_layer_solid_plate(self, spec, resin):
        # 14.7k DOFs: the dense K of this mesh would take 1.65 GB
        solid = spec.solid()
        mesh, tags = build_solid_mesh(solid, 16)
        layers = [Layer(resin, "incompatible", t) for t in tags]
        F_y = 45.0
        start = time.perf_counter()
        K = assemble(mesh, layers)
        P = apply_load(mesh, F_y, solid)
        fixed = apply_boundary(mesh, BoundaryCondition.CLAMPED, solid)
        [result] = analyze(mesh, layers, [fixed], P)
        elapsed = time.perf_counter() - start
        assert mesh.n_dofs > 14_000
        assert K.nbytes == (2 * len(mesh.y) + 4) * mesh.n_dofs * 8
        reactions = band_matvec(K, result.u) - P
        assert reactions[fixed[fixed % 2 == 1]].sum() == pytest.approx(F_y, rel=1e-9)
        assert elapsed < 1.0
