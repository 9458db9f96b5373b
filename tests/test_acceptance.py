"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Criteria are asserted exactly at their stated tolerances; no
tolerance is relaxed here. Four criteria probe behavior that the
homogenized plane model demonstrably does not possess: 3 (the published
density table), 8 (conforming and incompatible faces agreeing at the
softest cores), 9 (the cell-resolved core-governed regime) and 10
(flattening of the supported-edge singularity under refinement). They are
asserted faithfully and fail with diagnostics rather than being weakened.
"""

import time

import numpy as np
import pytest

import chiralplate as cp
from chiralplate.elements import ElementGeometry
from chiralplate.experiments import DA_GRID, RHO_GRID
from conftest import random_iso, random_ti
from oracles import dense_from_band, node_coords, quadrature_stiffness

CLAMPED = cp.BoundaryCondition.CLAMPED
SUPPORTED = cp.BoundaryCondition.SUPPORTED

# Published (t_sw [mm] -> rho_rel) rows for the clamped constant-thickness
# campaign, all four cell sizes.
PUBLISHED_DENSITY_TABLE = {
    1.0: [
        (0.0782, 0.140), (0.1229, 0.211), (0.1706, 0.282), (0.2217, 0.353),
        (0.2764, 0.425), (0.3354, 0.496), (0.3996, 0.567), (0.4701, 0.638),
        (0.5489, 0.709),
    ],
    1.3: [
        (0.1073, 0.140), (0.1687, 0.211), (0.2345, 0.282), (0.3049, 0.353),
        (0.3807, 0.425), (0.4625, 0.496), (0.5519, 0.567), (0.6507, 0.638),
        (0.7620, 0.709),
    ],
    1.6: [
        (0.1250, 0.140), (0.1961, 0.211), (0.2719, 0.282), (0.3526, 0.353),
        (0.4389, 0.425), (0.5314, 0.496), (0.6313, 0.567), (0.7402, 0.638),
        (0.8606, 0.709),
    ],
    1.9: [
        (0.1658, 0.140), (0.2606, 0.211), (0.3620, 0.282), (0.4707, 0.353),
        (0.5876, 0.425), (0.7139, 0.496), (0.8519, 0.567), (1.0044, 0.638),
        (1.1766, 0.709),
    ],
}


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {detail}")


def test_criterion_01_clamped_anchor():
    start = time.perf_counter()
    ledger = cp.run_solid_case(CLAMPED, layers=2)
    elapsed = time.perf_counter() - start
    dev = ledger.F_crit / 92.0 - 1.0
    ok = abs(dev) <= 0.03 and elapsed < 1.0
    report(1, ok, f"clamped F_crit = {ledger.F_crit:.2f} N "
                  f"(anchor 92 N, {dev:+.2%}), {elapsed:.2f} s")
    assert abs(dev) <= 0.03
    assert elapsed < 1.0


def test_criterion_02_supported_anchor():
    ledger = cp.run_solid_case(SUPPORTED, layers=2)
    dev = ledger.F_crit / 60.1 - 1.0
    report(2, abs(dev) <= 0.03,
           f"supported F_crit = {ledger.F_crit:.2f} N (anchor 60.1 N, {dev:+.2%})")
    assert abs(dev) <= 0.03


def test_criterion_03_relative_density_table():
    start = time.perf_counter()
    errors = []
    for d_a, pairs in PUBLISHED_DENSITY_TABLE.items():
        for t_sw, rho_tab in pairs:
            rho = cp.relative_density(cp.geometry_from_cell(d_a, t_sw))
            errors.append((abs(rho - rho_tab), d_a, t_sw, rho, rho_tab))
    elapsed = time.perf_counter() - start
    worst = max(errors)
    n_bad = sum(1 for e in errors if e[0] > 0.0015)
    ok = n_bad == 0 and elapsed < 1.0
    report(3, ok,
           f"{n_bad}/36 pairs outside +-0.0015; worst |err| = {worst[0]:.4f} "
           f"at d_a = {worst[1]}, t_sw = {worst[2]} "
           f"(formula {worst[3]:.4f} vs table {worst[4]:.4f})")
    assert n_bad == 0, (
        "the closed-form cell density disagrees with the published table; "
        "the tabulated pairs are not self-similar across d_a and therefore "
        "cannot follow from any cell-level expression (see decision notes)"
    )


def test_criterion_04_density_inversion_round_trip():
    worst = 0.0
    for d_a in DA_GRID:
        for rho in RHO_GRID:
            t = cp.wall_thickness_for_density(d_a, rho)
            back = cp.relative_density(cp.geometry_from_cell(d_a, t))
            worst = max(worst, abs(back - rho))
    report(4, worst <= 1e-9, f"round-trip worst |err| = {worst:.2e} over 36 points")
    assert worst <= 1e-9


def test_criterion_05_analytic_vs_quadrature(rng):
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        g = ElementGeometry(1.0, float(rng.uniform(0.2, 5.0)), float(rng.uniform(0.5, 15.0)))
        iso = random_iso(rng)
        ti = random_ti(rng)
        iso2 = random_iso(rng)
        g2 = ElementGeometry(1.0, float(rng.uniform(0.2, 5.0)), g.h)
        chi, chi_ti, chi2 = (cp.full_elasticity_matrix(m) for m in (iso, ti, iso2))
        checks = [
            (cp.element_stiffness("conforming", g, chi),
             quadrature_stiffness("conforming", g, chi, 2)),
            (cp.element_stiffness("incompatible", g, chi, iso.mu),
             quadrature_stiffness("incompatible", g, chi, 3, mu=iso.mu)),
            (cp.element_stiffness("conforming", g, chi_ti),
             quadrature_stiffness("conforming", g, chi_ti, 2)),
            (cp.element_stiffness("incompatible", g2, chi2, iso2.mu),
             quadrature_stiffness("incompatible", g2, chi2, 3, mu=iso2.mu)),
        ]
        for analytic, quadrature in checks:
            rel = np.linalg.norm(analytic - quadrature) / np.linalg.norm(analytic)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 10.0
    report(5, ok,
           f"worst rel. Frobenius = {worst:.2e} over 1000 draws x 4 families, "
           f"{elapsed:.1f} s")
    assert worst < 1e-12
    assert elapsed < 10.0


def test_criterion_06_rigid_modes_and_patch(rng, resin):
    k = cp.element_stiffness(
        "conforming", ElementGeometry(1.3, 0.8, 2.0),
        cp.plane_strain_matrix(random_iso(rng)),
    )
    eig = np.linalg.eigvalsh(k)
    n_zero = int(np.sum(np.abs(eig) < 1e-10 * eig.max()))

    mesh = cp.Mesh(np.linspace(0, 6.0, 7), np.linspace(0, 2.0, 5), 1.0)
    layers = [cp.Layer(resin, "conforming", "plate")] * 4
    K = dense_from_band(mesh, cp.assemble(mesh, layers))
    coords = node_coords(mesh)
    exx, eyy = 1.5e-3, -0.5e-3
    u_exact = np.zeros(mesh.n_dofs)
    u_exact[0::2] = exx * coords[:, 0]
    u_exact[1::2] = eyy * coords[:, 1]
    boundary = [
        m for m in range(mesh.n_nodes)
        if coords[m, 0] in (0.0, 6.0) or coords[m, 1] in (0.0, 2.0)
    ]
    bdofs = np.array([[2 * m, 2 * m + 1] for m in boundary]).ravel()
    free = np.setdiff1d(np.arange(mesh.n_dofs), bdofs)
    u = u_exact.copy()
    u[free] = np.linalg.solve(
        K[np.ix_(free, free)], -K[np.ix_(free, bdofs)] @ u_exact[bdofs]
    )
    field = cp.recover(mesh, layers, u)
    sxx, syy = cp.plane_strain_matrix(resin)[:2, :2] @ [exx, eyy]
    patch_err = max(
        np.abs(field.sxx / sxx - 1).max(), np.abs(field.syy / syy - 1).max()
    )
    ok = n_zero == 3 and patch_err < 1e-9
    report(6, ok, f"{n_zero} zero modes; patch-test worst rel err = {patch_err:.2e}")
    assert n_zero == 3
    assert patch_err < 1e-9


def test_criterion_07_poisson_sign_transition():
    rows = cp.honeycomb_grid()
    low_ok = all(
        r.mu_qi < 0 and r.mu_lu < 0 for r in rows if r.rho_rel < 0.3
    )
    top_ok = all(
        r.mu_qi > 0 for r in rows if abs(r.rho_rel - 0.709) < 1e-6
    )
    spread = max(
        max(r.mu_qi for r in rows if abs(r.rho_rel - rho) < 1e-6)
        - min(r.mu_qi for r in rows if abs(r.rho_rel - rho) < 1e-6)
        for rho in RHO_GRID
    )
    ok = low_ok and top_ok and spread < 0.05
    report(7, ok,
           f"negative at low densities: {low_ok}; positive at 70.9%: {top_ok}; "
           f"cross-d_a spread = {spread:.2e}")
    assert low_ok and top_ok
    assert spread < 0.05


def test_criterion_08_setup1_trends_and_algorithm_agreement():
    failures = []
    worst_gap = 0.0
    for d_a in DA_GRID:
        conf = cp.run_sweep(1, CLAMPED, "conforming", F_probe=30.0, d_a_values=(d_a,))
        inc = cp.run_sweep(1, CLAMPED, "incompatible_faces", F_probe=30.0, d_a_values=(d_a,))
        for rows in (conf, inc):
            tops = [r.sigma_top for r in rows]
            bots = [r.sigma_bottom for r in rows]
            if not all(b < a for a, b in zip(tops, tops[1:])):
                failures.append(f"sigma_top not decreasing at d_a={d_a}")
            if not all(b < a for a, b in zip(bots, bots[1:])):
                failures.append(f"sigma_bottom not decreasing at d_a={d_a}")
        for rc, ri in zip(conf, inc):
            for name, a, b in (
                ("top", rc.sigma_top, ri.sigma_top),
                ("bottom", rc.sigma_bottom, ri.sigma_bottom),
            ):
                gap = abs(b / a - 1.0)
                worst_gap = max(worst_gap, gap)
                if gap > 0.05:
                    failures.append(
                        f"{name} face disagreement {gap:.1%} at "
                        f"d_a={d_a}, rho={rc.rho_rel}"
                    )
    ok = not failures
    report(8, ok,
           f"face maxima strictly decreasing; worst conforming-vs-incompatible "
           f"gap = {worst_gap:.1%} (limit 5%)" if ok else
           f"worst conforming-vs-incompatible gap = {worst_gap:.1%}; "
           f"{len(failures)} point(s) over the 5% limit")
    assert not failures, (
        "the two element families distribute the face maxima differently "
        "once the homogenized core becomes very soft (clamp corner vs load "
        "vicinity); gaps exceed 5% at the lowest densities: "
        + "; ".join(failures[:4])
    )


def test_criterion_09_setup2_strength_peak():
    problems = []
    for d_a in DA_GRID:
        rows = cp.run_sweep(2, CLAMPED, "conforming", F_probe=60.0, d_a_values=(d_a,))
        by_tcl = sorted(rows, key=lambda r: r.t_cl)
        f_crit = [r.F_crit for r in by_tcl]
        interior_max = any(
            f_crit[i] > f_crit[i - 1] and f_crit[i] > f_crit[i + 1]
            for i in range(1, len(f_crit) - 1)
        )
        governing = [r.governing for r in sorted(rows, key=lambda r: r.rho_rel)]
        switches = sum(1 for a, b in zip(governing, governing[1:]) if a != b)
        core_to_face = governing[0] == "core" and switches == 1
        if not interior_max:
            problems.append(f"d_a={d_a}: F_crit monotone in t_cl (no interior peak)")
        if not core_to_face:
            problems.append(
                f"d_a={d_a}: governing layer never leaves the faces "
                f"(core sigma stays homogenized-low)"
            )
    ok = not problems
    report(9, ok, "interior strength peak and single core->face switch"
           if ok else f"{len(problems)} failure(s): {problems[0]} ...")
    assert not problems, (
        "the homogenized continuum core cannot reach the cell-resolved "
        "stress levels that govern the published low-density cases: "
        + "; ".join(problems)
    )


def test_criterion_10_mesh_convergence():
    rows = cp.mesh_convergence_study(max_layers=5, F_probe=60.0)
    table = {
        (r.element_kind, r.bc, r.layers): r.sigma_max for r in rows
    }
    problems = []
    details = []
    for kind in ("conforming", "incompatible"):
        for bc in ("clamped", "supported"):
            s4 = table[(kind, bc, 4)]
            s5 = table[(kind, bc, 5)]
            change = abs(s5 - s4) / s5
            details.append(f"{kind}/{bc}: {change:.1%}")
            if change >= 0.05:
                problems.append(f"{kind}/{bc} changes {change:.1%} from 4 to 5 layers")
    ok = not problems
    report(10, ok, "; ".join(details))
    assert not problems, (
        "refinement drives the recovery points at the two point supports "
        "(both DOFs pinned at one node) into their logarithmic singularity, "
        "so the supported-edge maxima keep growing: " + "; ".join(problems)
    )


def test_criterion_11_determinism(tmp_path):
    from chiralplate.reporting import write_sweep_csv

    blobs = []
    for name in ("first", "second"):
        rows = cp.run_sweep(1, CLAMPED, "conforming", d_a_values=(1.0, 1.6))
        path = tmp_path / f"{name}.csv"
        write_sweep_csv(rows, path)
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1]
    report(11, ok, f"two sweep runs produced byte-identical CSVs: {ok}")
    assert ok
