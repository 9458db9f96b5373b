"""Sweep campaigns, convergence study and the Poisson diagram."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chiralplate import (
    BoundaryCondition,
    ConfigError,
    GeometryError,
    IsotropicMaterial,
    Layer,
    MaterialError,
    PlateSpec,
    analyze,
    apply_boundary,
    apply_load,
    composite_model,
    honeycomb_grid,
    mesh_convergence_study,
    run_case,
    run_solid_case,
    run_sweep,
)
from chiralplate import assembly, experiments
from chiralplate.experiments import (
    DA_GRID, DEFAULT_PROBE, FORMLABS_CLEAR, RHO_GRID, V_CL,
)

CLAMPED = BoundaryCondition.CLAMPED
SUPPORTED = BoundaryCondition.SUPPORTED


class TestRunCase:
    def test_grid_membership_enforced(self):
        with pytest.raises(GeometryError):
            run_case(1, 1.1, 0.353, CLAMPED)
        with pytest.raises(GeometryError):
            run_case(1, 1.0, 0.3, CLAMPED)
        ledger = run_case(1, 1.0, 0.3, CLAMPED, allow_off_grid=True)
        assert ledger.rho_rel == 0.3

    def test_ledger_consistency(self):
        ledger = run_case(1, 1.0, 0.353, CLAMPED)
        sigma_gov = {
            "core": ledger.sigma_core,
            "face_top": ledger.sigma_top,
            "face_bottom": ledger.sigma_bottom,
        }[ledger.governing]
        assert sigma_gov * ledger.F_crit / ledger.F_probe == pytest.approx(
            35.0, rel=1e-9
        )
        assert ledger.core_note == "homogenized"

    def test_probe_force_invariance(self):
        # critical load is probe-independent by linearity
        vals = [
            run_case(1, 1.3, 0.425, CLAMPED, F_probe=F).F_crit
            for F in (1.0, 30.0, 60.0)
        ]
        assert vals[1] == pytest.approx(vals[0], rel=1e-9)
        assert vals[2] == pytest.approx(vals[0], rel=1e-9)

    def test_doubling_limit_doubles_critical_load(self):
        base = run_case(1, 1.0, 0.353, CLAMPED)
        harder = run_case(
            1, 1.0, 0.353, CLAMPED,
            material=IsotropicMaterial(E=2800.0, mu=0.35, sigma_el=70.0),
        )
        assert harder.F_crit == pytest.approx(2 * base.F_crit, rel=1e-9)

    def test_setup2_volume_rule(self):
        for rho in RHO_GRID:
            ledger = run_case(2, 1.6, rho, CLAMPED, F_probe=60.0)
            assert ledger.t_cl * rho * 54.0 * 13.0 == pytest.approx(V_CL, rel=1e-12)

    @pytest.mark.parametrize("probe", [{}, {"F_probe": 30.0}], ids=["default", "given"])
    def test_unknown_setup_is_a_geometry_error(self, probe):
        # the default probe is looked up only once the setup is known
        with pytest.raises(GeometryError, match="setup must be 1 or 2, got 3"):
            run_case(3, 1.0, 0.353, CLAMPED, **probe)

    def test_solid_anchors(self):
        clamped = run_solid_case(CLAMPED)
        assert clamped.F_crit == pytest.approx(92.0, rel=0.03)
        supported = run_solid_case(SUPPORTED)
        assert supported.F_crit == pytest.approx(60.1, rel=0.03)


# Every campaign reaches evaluate, which checks the probe load and sigma_el
CAMPAIGNS = {
    "run_case": lambda **kw: run_case(1, 1.0, 0.14, CLAMPED, **kw),
    "run_solid_case": lambda **kw: run_solid_case(CLAMPED, **kw),
    "mesh_convergence_study": lambda **kw: mesh_convergence_study(1, **kw),
}


@pytest.mark.parametrize("campaign", CAMPAIGNS.values(), ids=CAMPAIGNS)
@pytest.mark.parametrize(
    "bad, error",
    [({"F_probe": -30.0}, ConfigError), ({"F_probe": 0.0}, ConfigError),
     ({"F_probe": math.nan}, ConfigError), ({"F_probe": math.inf}, ConfigError),
     ({"material": IsotropicMaterial(E=2800.0, mu=0.35)}, MaterialError)],
    ids=["negative", "zero", "nan", "inf", "no_sigma_el"],
)
def test_evaluate_rejects_bad_probe_or_material(campaign, bad, error):
    with pytest.raises(error):
        campaign(**bad)


@pytest.mark.parametrize(
    "F_probe", [1.0e307, 1.0e-310, 6.0e306, 1.0e-320],
    ids=["overflow", "underflow", "F_crit-overflow", "zero-stress"],
)
def test_probe_at_the_ends_of_the_float_range_rejected(F_probe):
    # the stresses overflow to NaN; or their peak is subnormal (digits lost)
    # or 0; or the peak is finite but F_probe * sigma_el overflows: no
    # F_crit to trust
    with pytest.raises(ConfigError, match=re.escape(f"probe load {F_probe} N")):
        run_solid_case(CLAMPED, F_probe=F_probe)


EXTREME_LOAD_CASES = {
    **{f"solid-{bc.value}": (run_solid_case, (bc,)) for bc in (CLAMPED, SUPPORTED)},
    **{
        f"setup2-{algorithm}-{bc.value}": (run_case, (2, 1.6, 0.353, bc, algorithm))
        for algorithm in ("conforming", "incompatible_faces")
        for bc in (CLAMPED, SUPPORTED)
    },
}


@pytest.mark.parametrize("F_probe", [1.0e-300, 1.0e300])
@pytest.mark.parametrize("case", EXTREME_LOAD_CASES.values(), ids=EXTREME_LOAD_CASES)
def test_extreme_probe_scales_to_the_default_F_crit(case, F_probe):
    # the model is linear and the von Mises stress is scaled before it is
    # squared, so no stress under- or overflows and numpy warns of nothing
    campaign, args = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = campaign(*args, F_probe=F_probe).F_crit
    assert got == pytest.approx(campaign(*args).F_crit, rel=1e-12)


def _moduli_times(material, c):
    """The card with every modulus multiplied by ``c``."""
    if isinstance(material, IsotropicMaterial):
        return replace(material, E=c * material.E)
    return replace(material, E1=c * material.E1, E2=c * material.E2, G2=c * material.G2)


@pytest.mark.parametrize("algorithm", ["conforming", "incompatible_faces"])
@pytest.mark.parametrize("setup", [1, 2])
def test_scaling_every_modulus_keeps_stresses_and_scales_u_inversely(setup, algorithm):
    spec, _, mesh, layers = composite_model(
        setup, 1.6, 0.353, algorithm, FORMLABS_CLEAR, PlateSpec()
    )
    fixed_sets = [apply_boundary(mesh, bc, spec) for bc in (CLAMPED, SUPPORTED)]
    P = apply_load(mesh, DEFAULT_PROBE[setup], spec)
    base = analyze(mesh, layers, fixed_sets, P)
    for c in (1e-3, 7.0, 1e4):
        scaled = [Layer(_moduli_times(layer.material, c), layer.kind, layer.tag)
                  for layer in layers]
        for want, got in zip(base, analyze(mesh, scaled, fixed_sets, P), strict=True):
            assert_allclose(c * got.u, want.u, rtol=0, atol=1e-9 * np.abs(want.u).max())
            for name in ("sxx", "syy", "se"):
                ref = getattr(want.field, name)
                assert_allclose(
                    getattr(got.field, name), ref, rtol=0, atol=1e-9 * np.abs(ref).max()
                )


class TestSweeps:
    def test_row_count_and_order(self):
        rows = run_sweep(1, CLAMPED, d_a_values=(1.0, 1.3), rho_values=RHO_GRID[:3])
        assert len(rows) == 6
        assert [r.d_a for r in rows] == [1.0] * 3 + [1.3] * 3
        assert [r.rho_rel for r in rows[:3]] == list(RHO_GRID[:3])

    def test_setup1_clamped_faces_decrease(self):
        rows = run_sweep(1, CLAMPED, d_a_values=(1.0,))
        tops = [r.sigma_top for r in rows]
        bots = [r.sigma_bottom for r in rows]
        assert all(b < a for a, b in zip(tops, tops[1:]))
        assert all(b < a for a, b in zip(bots, bots[1:]))

    def test_face_stress_da_independent(self):
        # homogenized cards depend on density ratios only, so face maxima
        # coincide across cell sizes at equal density
        rows = {
            d_a: run_case(1, d_a, 0.425, CLAMPED).sigma_top for d_a in DA_GRID
        }
        ref = rows[1.0]
        for val in rows.values():
            assert abs(val / ref - 1) < 0.03

    @pytest.mark.xfail(
        reason="homogenized continuum core stresses stay far below face "
        "stresses; the published core-governed regime at low density comes "
        "from cell-resolved 3D fields (see acceptance criterion 9 analysis)",
        strict=True,
    )
    def test_setup2_governing_switches_once(self):
        rows = run_sweep(2, CLAMPED, d_a_values=(1.0,), F_probe=60.0)
        governing = [r.governing for r in rows]
        assert governing[0] == "core"
        switches = sum(1 for a, b in zip(governing, governing[1:]) if a != b)
        assert switches == 1


@pytest.fixture(scope="module")
def convergence_rows():
    return mesh_convergence_study(max_layers=5)


class TestConvergenceStudy:
    def test_one_assembly_and_evaluation_per_model(self, monkeypatch):
        calls = dict.fromkeys(
            ("assemble", "evaluate", "element_stiffness", "build_solid_mesh"), 0
        )

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, wrapper)

        counting(assembly, "assemble")
        counting(experiments, "evaluate")
        counting(assembly, "element_stiffness")
        counting(experiments, "build_solid_mesh")
        rows = mesh_convergence_study(max_layers=8)
        # 2 element kinds x 8 layer counts, each solved for both BCs, with
        # one card per model and one mesh per layer count
        assert calls == {
            "assemble": 16, "evaluate": 16, "element_stiffness": 16,
            "build_solid_mesh": 8,
        }
        assert [(r.element_kind, r.bc, r.layers) for r in rows] == [
            (kind, bc, layers)
            for kind in ("conforming", "incompatible")
            for bc in ("clamped", "supported")
            for layers in range(1, 9)
        ]

    @pytest.mark.parametrize("max_layers", [0, -2, 2.0, True, "3", None])
    def test_max_layers_must_be_a_positive_int(self, max_layers):
        with pytest.raises(ConfigError, match="max_layers"):
            mesh_convergence_study(max_layers=max_layers)

    def test_shape(self, convergence_rows):
        assert len(convergence_rows) == 2 * 2 * 5
        assert {r.element_kind for r in convergence_rows} == {"conforming", "incompatible"}
        assert {r.bc for r in convergence_rows} == {"clamped", "supported"}

    def test_one_layer_runs(self, convergence_rows):
        ones = [r for r in convergence_rows if r.layers == 1]
        assert len(ones) == 4
        assert all(r.sigma_max > 0 for r in ones)

    def test_dofs_grow(self, convergence_rows):
        for kind in ("conforming", "incompatible"):
            counts = [
                r.dofs
                for r in convergence_rows
                if r.element_kind == kind and r.bc == "clamped"
            ]
            assert all(b > a for a, b in zip(counts, counts[1:]))

    def test_element_kinds_converge_toward_each_other(self, convergence_rows):
        for bc in ("clamped", "supported"):
            by_kind = {
                kind: {
                    r.layers: r.sigma_max
                    for r in convergence_rows
                    if r.element_kind == kind and r.bc == bc
                }
                for kind in ("conforming", "incompatible")
            }
            gap_coarse = abs(by_kind["conforming"][1] - by_kind["incompatible"][1])
            gap_fine = abs(by_kind["conforming"][5] - by_kind["incompatible"][5])
            assert gap_fine < gap_coarse

    def test_clamped_flattens(self, convergence_rows):
        for kind in ("conforming", "incompatible"):
            s = {
                r.layers: r.sigma_max
                for r in convergence_rows
                if r.element_kind == kind and r.bc == "clamped"
            }
            assert abs(s[5] - s[4]) / s[5] < 0.05


@pytest.fixture(scope="module")
def diagram_rows():
    return honeycomb_grid()


class TestPoissonDiagram:

    def test_grid_shape(self, diagram_rows):
        assert len(diagram_rows) == len(DA_GRID) * len(RHO_GRID)

    def test_negative_at_low_density(self, diagram_rows):
        for r in diagram_rows:
            if r.rho_rel < 0.3:
                assert r.mu_qi < 0
                assert r.mu_lu < 0

    def test_qi_positive_by_max_density(self, diagram_rows):
        for r in diagram_rows:
            if math.isclose(r.rho_rel, 0.709, abs_tol=1e-6):
                assert r.mu_qi > 0

    def test_narrow_band_across_cell_sizes(self, diagram_rows):
        for rho in RHO_GRID:
            vals = [r.mu_qi for r in diagram_rows if math.isclose(r.rho_rel, rho, abs_tol=1e-6)]
            assert max(vals) - min(vals) < 0.05

    def test_lu_invalid_region_is_nan(self, diagram_rows):
        # flexure model loses validity above roughly 55% density
        high = [r.mu_lu for r in diagram_rows if r.rho_rel > 0.63]
        assert all(math.isnan(v) for v in high)
        low = [r.mu_lu for r in diagram_rows if r.rho_rel < 0.5]
        assert not any(math.isnan(v) for v in low)

    def test_grid_matches_direct_evaluation(self, diagram_rows):
        import chiralplate as cp

        r = diagram_rows[0]
        g = cp.geometry_from_cell(r.d_a, r.t_sw)
        assert r.rho_rel == pytest.approx(cp.relative_density(g), rel=1e-12)
        assert r.E2 == pytest.approx(cp.effective_E2(g, 2800.0), rel=1e-12)
        assert r.mu_qi == pytest.approx(cp.poisson_qi(g), rel=1e-12)


def test_honeycomb_grid_columns():
    diagram_rows = honeycomb_grid(d_a_values=(1.0,), rho_values=(0.353,))
    r = diagram_rows[0]
    assert r.rho_rel == pytest.approx(0.353, abs=1e-9)
    assert 0 < r.E1 < r.E2
    assert r.G2 > 0
