"""Physical invariants of whole solves: residual, equilibrium and mirror symmetry.

The residual and the reactions come from ``oracles.band_matvec``, which
multiplies ``K @ u`` straight from the band ``assemble`` returns, so the
12-layer ladder (8.5k DOFs) needs no dense matrix. Every model is solved
through :func:`evaluate`, the path the campaigns and the CLI take.

* Residual: ``||(K u - P)[free]|| / ||P|| <= 1e-10``.
* Equilibrium: the y-entries of ``K u`` at the fixed DOFs (the support
  reactions) sum to the applied ``F_y`` within ``1e-9 F_y``.
* Energy: the strain energy ``u.K u`` equals the work ``P.u`` within
  ``1e-10 P.u``.
* Reciprocity (Maxwell-Betti): two unit loads on the top face do equal work
  on each other's displacements, ``u_a.P_b = u_b.P_a``, within 1e-10.
* Pin and roller: the supported set without the x DOF at ``x2`` is
  statically determinate, so the x reaction at ``x1`` vanishes and each
  support carries ``F_y / 2``; the pinned set instead ties the supports
  together with a horizontal force of about ``2.7 F_y``.
* Mirror symmetry: the default plate is symmetric about midspan
  (``l_1 = a/2``, ``x1 + x2 = a``), so ``u_y`` is even and ``u_x`` odd
  about node line ``nx/2``, and the corner ``se`` of element column ``c``
  equals that of column ``nx - 1 - c`` with its corners swapped left-right,
  within 1e-9 of each array's maximum. Hypothesis also draws other
  symmetric plates, solid and composite, with their supports on node lines.
  On those the check is that the mirror maps the model onto itself: the
  fixed DOFs exactly, ``P`` exactly but for the rounding of a split load,
  and ``K`` so far that the mirrored ``u`` leaves a free-DOF residual within
  ``1e-10 ||P||``, or within twice the solve's own where that is larger.
  Rounding in a solve grows with the conditioning of ``K`` and can blur the
  comparison of ``u`` with its mirror image past 1e-9; it blurs the
  residuals of ``u`` and its mirror image alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from chiralplate import (
    BoundaryCondition,
    Layer,
    PlateSpec,
    analyze,
    apply_boundary,
    apply_load,
    assemble,
    build_solid_mesh,
    composite_model,
    evaluate,
    solve,
)
from chiralplate.experiments import (
    DA_GRID,
    DEFAULT_PROBE,
    FORMLABS_CLEAR,
    RHO_GRID,
    V_CL,
)
from chiralplate.plates import COMPOSITE_NX
from oracles import band_matvec, dense_from_band, node_id

BCS = (BoundaryCondition.CLAMPED, BoundaryCondition.SUPPORTED)
ALGORITHMS = ("conforming", "incompatible_faces")
KINDS = ("conforming", "incompatible")
SPEC = PlateSpec()


def solid_cards(spec, layers, snap, kind):
    mesh, tags = build_solid_mesh(spec, layers, snap)
    return mesh, [Layer(FORMLABS_CLEAR, kind, tag) for tag in tags]


def balance(mesh, layers, spec, F_y):
    """Worst residual, equilibrium and energy error of one model over both BCs."""
    K = assemble(mesh, layers)
    P = apply_load(mesh, F_y, spec)
    residual = equilibrium = energy = 0.0
    for analysis, _, _ in evaluate(mesh, layers, spec, BCS, F_y, FORMLABS_CLEAR):
        u, fixed = analysis.u, analysis.fixed_dofs
        Ku = band_matvec(K, u)
        residual = max(
            residual, np.linalg.norm(np.delete(Ku - P, fixed)) / np.linalg.norm(P)
        )
        equilibrium = max(equilibrium, abs(Ku[fixed[fixed % 2 == 1]].sum() - F_y) / F_y)
        energy = max(energy, abs(u @ Ku - P @ u) / (P @ u))
    return residual, equilibrium, energy


@pytest.mark.parametrize(
    "mesh_of",
    [
        lambda: build_solid_mesh(SPEC.solid(), 3, "equal_aspect")[0],
        lambda: composite_model(2, 1.9, 0.14, "conforming", FORMLABS_CLEAR, SPEC)[2],
    ],
    ids=["solid-3-layers", "composite-2-core-layers"],
)
def test_band_matvec_is_the_dense_product(mesh_of, rng):
    mesh = mesh_of()
    band = rng.normal(size=(2 * len(mesh.y) + 4, mesh.n_dofs))
    u = rng.normal(size=mesh.n_dofs)
    want = dense_from_band(mesh, band) @ u
    assert_allclose(band_matvec(band, u), want, rtol=0, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("setup", [1, 2])
def test_paper_cases_balance(setup, algorithm):
    # 36 designs x 2 BCs per parameter set: with both sets, the 288 paper cases
    worst = []
    for d_a in DA_GRID:
        for rho in RHO_GRID:
            spec, _, mesh, layers = composite_model(
                setup, d_a, rho, algorithm, FORMLABS_CLEAR, SPEC
            )
            worst.append((*balance(mesh, layers, spec, DEFAULT_PROBE[setup]), d_a, rho))
    residual = max(worst, key=lambda w: w[0])
    equilibrium = max(worst, key=lambda w: w[1])
    energy = max(worst, key=lambda w: w[2])
    assert residual[0] <= 1e-10, residual
    assert equilibrium[1] <= 1e-9, equilibrium
    assert energy[2] <= 1e-10, energy


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("setup", [1, 2])
def test_paper_cases_reciprocal(setup, algorithm):
    # Maxwell-Betti: unit loads at the top node at l_1 (a) and at node line
    # 13, x = 19.5 mm (b), give u_a . P_b = u_b . P_a under either BC
    worst = (0.0,)
    for d_a in DA_GRID:
        for rho in RHO_GRID:
            spec, _, mesh, layers = composite_model(
                setup, d_a, rho, algorithm, FORMLABS_CLEAR, SPEC
            )
            assert mesh.x[13] == pytest.approx(19.5)
            P_a = apply_load(mesh, 1.0, spec)
            P_b = np.zeros(mesh.n_dofs)
            P_b[2 * node_id(mesh, 13, len(mesh.y) - 1) + 1] = -1.0
            K = assemble(mesh, layers)
            for bc in BCS:
                fixed = apply_boundary(mesh, bc, spec)
                ab, ba = solve(mesh, K, fixed, P_a) @ P_b, solve(mesh, K, fixed, P_b) @ P_a
                worst = max(worst, (abs(ab - ba) / abs(ab), d_a, rho, bc.value))
    assert worst[0] <= 1e-10, worst


@pytest.mark.parametrize("layers", range(1, 13))
def test_refinement_ladder_balances(layers):
    # the equal-aspect family of the convergence study, at its probe load
    spec = SPEC.solid()
    for kind in KINDS:
        mesh, cards = solid_cards(spec, layers, "equal_aspect", kind)
        residual, equilibrium, energy = balance(mesh, cards, spec, 60.0)
        assert residual <= 1e-10, (kind, residual)
        assert equilibrium <= 1e-9, (kind, equilibrium)
        assert energy <= 1e-10, (kind, energy)


def support_reactions(layers, kind):
    """Reactions ``K u - P`` of a solid plate under 60 N, its pinned and its
    pin-roller fixed sets, and the x DOFs of its two supports."""
    spec = SPEC.solid()
    mesh, cards = solid_cards(spec, layers, "exact", kind)
    pinned = apply_boundary(mesh, BoundaryCondition.SUPPORTED, spec)
    x1, x2 = (2 * node_id(mesh, mesh.column_at(x0), 0) for x0 in (spec.x1, spec.x2))
    roller = pinned[pinned != x2]  # the pin at x1 keeps both DOFs
    P = apply_load(mesh, 60.0, spec)
    K = assemble(mesh, cards)
    analyses = analyze(mesh, cards, [pinned, roller], P)
    return *(band_matvec(K, a.u) - P for a in analyses), x1, x2


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("layers", range(1, 9))
def test_pin_roller_is_statically_determinate(layers, kind):
    _, reactions, x1, x2 = support_reactions(layers, kind)
    assert abs(reactions[x1]) <= 1e-9 * 60.0
    assert_allclose(reactions[[x1 + 1, x2 + 1]], [30.0, 30.0], rtol=1e-9)


@pytest.mark.parametrize("layers", [2, 4, 8])
def test_pinned_supports_carry_a_tie_force(layers):
    # with both supports pinned the bending plate pulls on them: a
    # horizontal tie force of ~2.7 F_y, which a simple support (a roller)
    # would not carry
    reactions, _, x1, x2 = support_reactions(layers, "conforming")
    assert 160.0 <= reactions[x1] <= 165.0
    assert reactions[x2] == pytest.approx(-reactions[x1], rel=1e-9)


def assert_mirror_symmetric(mesh, layers, spec, F_y):
    for analysis, _, _ in evaluate(mesh, layers, spec, BCS, F_y, FORMLABS_CLEAR):
        u = analysis.u.reshape(len(mesh.x), len(mesh.y), 2)  # node (i, j), DOF
        ux, uy = u[..., 0], u[..., 1]
        assert_allclose(uy, uy[::-1], rtol=0, atol=1e-9 * np.abs(uy).max())
        assert_allclose(ux, -ux[::-1], rtol=0, atol=1e-9 * np.abs(ux).max())
        se = analysis.field.se.reshape(mesh.n_layers, mesh.nx, 4)
        mirrored = se[:, ::-1][..., [1, 0, 3, 2]]
        assert_allclose(se, mirrored, rtol=0, atol=1e-9 * se.max())


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("snap", ["exact", "equal_aspect"])
@pytest.mark.parametrize("layers", range(1, 7))
def test_solid_plate_mirror_symmetric(layers, snap, kind):
    spec = SPEC.solid()
    mesh, cards = solid_cards(spec, layers, snap, kind)
    assert_mirror_symmetric(mesh, cards, spec, 30.0)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("setup", [1, 2])
def test_composite_mirror_symmetric(setup, algorithm):
    for rho in RHO_GRID:
        spec, _, mesh, layers = composite_model(
            setup, 1.3, rho, algorithm, FORMLABS_CLEAR, SPEC
        )
        assert_mirror_symmetric(mesh, layers, spec, DEFAULT_PROBE[setup])


def mirror(mesh, v):
    """A DOF vector reflected about midspan: node line ``i`` goes to
    ``len(mesh.x) - 1 - i`` and ``u_x`` changes sign."""
    return (v.reshape(len(mesh.x), len(mesh.y), 2)[::-1] * [-1.0, 1.0]).reshape(-1)


def assert_mirror_invariant(mesh, layers, spec, F_y):
    K = assemble(mesh, layers)
    P = apply_load(mesh, F_y, spec)
    # exact, but for the rounding of a load split between two node lines
    # (measured <= 3.8e-15 F_y)
    assert_allclose(mirror(mesh, P), P, rtol=0, atol=1e-13 * F_y)
    for analysis, _, _ in evaluate(mesh, layers, spec, BCS, F_y, FORMLABS_CLEAR):
        fixed = np.zeros(mesh.n_dofs)
        fixed[analysis.fixed_dofs] = 1.0
        assert np.array_equal(np.abs(mirror(mesh, fixed)), fixed)
        own, mirrored = (
            np.linalg.norm(np.delete(band_matvec(K, u) - P, analysis.fixed_dofs))
            for u in (analysis.u, mirror(mesh, analysis.u))
        )
        # a thin supported plate leaves even its own solve a residual past
        # 1e-10 ||P||; the mirrored u must then do as well as that
        assert mirrored <= max(1e-10 * np.linalg.norm(P), 2.0 * own), (own, mirrored)


@st.composite
def mirror_solids(draw):
    """A solid plate symmetric about midspan and its layer count.

    Its span is ``nx`` squares of side ``t_p / layers``, with
    ``x1 = k a / nx`` and ``x2 = a - x1``. Both snaps put node lines on the
    supports: ``"equal_aspect"`` meshes the ``nx`` drawn, ``"exact"`` a
    common multiple of the denominators of ``k / nx`` and ``1 / 2``, which
    it reads off ``x1 / a`` and ``l_1 / a`` exactly because ``t_p`` is a
    whole number of quarter millimetres. ``l_1 = a / 2`` falls on a node
    line, or midway between two for an odd equal-aspect ``nx``;
    ``k < (nx - 1) / 2`` keeps those two off the clamp lines, which would
    take the whole load.
    """
    layers = draw(st.integers(1, 4))
    t_p = draw(st.integers(4, 16)) / 4
    nx = draw(st.integers(4, 40))
    k = draw(st.integers(1, (nx - 2) // 2))
    a = nx * t_p / layers
    x1 = k * a / nx
    spec = PlateSpec(
        a=a, h=draw(st.floats(5.0, 20.0)), t_p=t_p, t_fl=None, t_cl=None,
        l_1=a / 2, x1=x1, x2=a - x1,
    )
    return spec, layers


@st.composite
def mirror_composites(draw, setup):
    """A composite spec symmetric about midspan, a cell and a density.

    The supports sit on node lines ``k`` and ``36 - k`` of the composite
    mesh and the load on line 18. The core thickness is drawn inside a
    layering band, 0.05 mm clear of its edges; setup 2 derives it from the
    depth, so there the depth is the one that gives the drawn thickness.
    """
    a = draw(st.floats(20.0, 100.0))
    x1 = draw(st.integers(1, COMPOSITE_NX // 2 - 1)) * a / COMPOSITE_NX
    t_fl = draw(st.floats(0.3, 1.0))
    t_cl = draw(st.floats(0.75, 1.35) | st.floats(1.75, 3.55))
    rho = draw(st.floats(0.14, 0.709))
    h = V_CL / (rho * a * t_cl) if setup == 2 else draw(st.floats(5.0, 20.0))
    spec = PlateSpec(
        a=a, h=h, t_p=2 * t_fl + t_cl, t_fl=t_fl, t_cl=t_cl,
        l_1=a / 2, x1=x1, x2=a - x1,
    )
    return spec, draw(st.floats(1.0, 1.9)), rho


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("snap", ["exact", "equal_aspect"])
@settings(max_examples=50, deadline=None)
@given(drawn=mirror_solids())
def test_drawn_solid_plates_mirror_symmetric(snap, kind, drawn):
    spec, layers = drawn
    mesh, cards = solid_cards(spec, layers, snap, kind)
    assert_mirror_invariant(mesh, cards, spec, 30.0)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("setup", [1, 2])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_drawn_composites_mirror_symmetric(setup, algorithm, data):
    spec, d_a, rho = data.draw(mirror_composites(setup))
    case_spec, _, mesh, layers = composite_model(
        setup, d_a, rho, algorithm, FORMLABS_CLEAR, spec
    )
    assert_mirror_invariant(mesh, layers, case_spec, DEFAULT_PROBE[setup])


def test_conditioned_composite_mirror_invariant():
    # a draw of the test above on which the supported u_y misses its mirror
    # image by 1.06e-9 of its maximum, while the mirrored u leaves a
    # residual of 2.7e-11 ||P||, as the solve's own u does
    a = 94.25
    x1 = 13 * a / COMPOSITE_NX
    spec = PlateSpec(
        a=a, h=6.0, t_p=1.375, t_fl=0.3125, t_cl=0.75, l_1=a / 2, x1=x1, x2=a - x1,
    )
    case_spec, _, mesh, layers = composite_model(
        1, 1.0, 0.375, "incompatible_faces", FORMLABS_CLEAR, spec
    )
    assert_mirror_invariant(mesh, layers, case_spec, DEFAULT_PROBE[1])
