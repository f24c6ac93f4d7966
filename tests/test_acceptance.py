"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here; nothing is deferred to later calibration.  The
suite exercises the verdict matrix, the boundary-symbol eigenstructure, the
Clifford invariants, the discrete energy inequality, finite propagation
speed, manufactured-solution convergence, Green operators, the compatibility
recursion against an independent oracle, the λ-shift equivalence, and the
adjoint boundary spaces.
"""

import time

import numpy as np
import pytest

from friedrichs import boundary, clifford, geometry, reduction, solver, system
from friedrichs.boundary import adjoint_boundary_space, admissibility, boundary_symbol
from friedrichs.geometry import LEFT, RIGHT
from friedrichs.linalg import kernel

from conftest import forcing_support_levels, sampled_boundary_points, smooth_bump
from test_reduction import random_time_polynomial_system, taylor_oracle


def report(num, desc, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:2d} {tag} — {desc}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {num}: {desc} {detail}"


def make_dirac(t_range=(0.0, 0.5)):
    chart = geometry.minkowski_strip(t_range, (1.0,))
    rep = clifford.build_rep(2)
    return rep, clifford.dirac_system(rep, chart)


def make_wave(chart=None):
    chart = chart or geometry.minkowski_strip((0.0, 1.0), (1.0,))
    prob = reduction.SecondOrderProblem("normally_hyperbolic", chart, k=1)
    return reduction.wave_to_first_order(prob)


def make_kg(mass=1.0):
    chart = geometry.minkowski_strip((0.0, 0.5), (1.0,))
    prob = reduction.SecondOrderProblem("klein_gordon", chart, k=1, mass=mass)
    return reduction.kg_to_first_order(prob)


def test_criterion_01_admissibility_verdict_matrix():
    t0 = time.time()
    rep, dirac = make_dirac()
    wave = make_wave()
    kg = make_kg()
    rd = reduction.reaction_diffusion_to_first_order(
        reduction.SecondOrderProblem("reaction_diffusion",
                                     geometry.minkowski_strip((0.0, 0.5), (1.0,)),
                                     k=1), 1.0)
    cases = [
        ("lorentzian MIT −", dirac, boundary.mit_bag(rep, -1), True),
        ("lorentzian MIT +", dirac, boundary.mit_bag(rep, +1), True),
        ("lorentzian chirality −", dirac, boundary.chirality(rep, -1), True),
        ("lorentzian chirality +", dirac, boundary.chirality(rep, +1), True),
        ("riemannian chirality +", dirac, boundary.riemannian_chirality(rep, +1), True),
        ("riemannian chirality −", dirac, boundary.riemannian_chirality(rep, -1), True),
        ("riemannian MIT −", dirac, boundary.riemannian_mit(rep, -1), True),
        ("riemannian MIT +", dirac, boundary.riemannian_mit(rep, +1), False),
        ("neumann-like", wave, boundary.neumann_like(wave.layout), True),
        ("transparent b=1", wave, boundary.transparent(1.0, wave.layout), True),
        ("transparent b=0", wave, boundary.transparent(0.0, wave.layout), True),
        ("KG robin a=1 b=1", kg, boundary.robin(1.0, 1.0, kg.layout), True),
        ("KG robin a=0 b=1", kg, boundary.robin(0.0, 1.0, kg.layout), True),
        ("KG robin a=1 b=0", kg, boundary.robin(1.0, 0.0, kg.layout), True),
        ("KG robin a=-2 b=-1", kg, boundary.robin(-2.0, -1.0, kg.layout), True),
        ("KG robin a=1 b=-1", kg, boundary.robin(1.0, -1.0, kg.layout), False),
        ("RD robin a=1 b=1", rd, boundary.robin(1.0, 1.0, rd.layout), True),
        ("RD robin a=1 b=-1", rd, boundary.robin(1.0, -1.0, rd.layout), False),
    ]
    failures = []
    for name, sys_, bc, expect in cases:
        r = admissibility(sys_, bc, n_time=4)
        if r.admissible != expect:
            failures.append(name)
        if not expect and not (r.witness is not None and r.witness_form_value < -1e-6):
            failures.append(name + " (missing witness)")
    elapsed = time.time() - t0
    report(1, "admissibility verdict matrix reproduces the catalog",
           not failures and elapsed < 5.0,
           f"{len(cases)} verdicts in {elapsed:.2f}s" +
           (f"; wrong: {failures}" if failures else ""))


def test_criterion_02_wave_boundary_spectrum():
    worst = 0.0
    counts_ok = True
    for n in (1, 2):
        for k in (1, 2):
            chart = geometry.minkowski_strip((0.0, 1.0), (1.0,) * n)
            prob = reduction.SecondOrderProblem("normally_hyperbolic", chart, k=k)
            sys_ = reduction.wave_to_first_order(prob)
            for face in chart.faces():
                q = sampled_boundary_points(chart, 3, 2, [face])[0]
                sn = sys_.symbol(q.t, q.x, geometry.outward_normal(chart, q))
                lam = np.sort(np.linalg.eigvalsh(sn))
                expect = np.sort([0.0] * (n * k) + [1.0] * k + [-1.0] * k)
                worst = max(worst, float(np.max(np.abs(lam - expect))))
                counts_ok &= int(np.sum(lam >= -1e-10)) == (n + 1) * k
    report(2, "wave-reduction σ(n♭) spectrum {0×nk, ±1×k}, nonneg count (n+1)k",
           worst < 1e-10 and counts_ok, f"max eigenvalue defect {worst:.2e}")


def test_criterion_03_clifford_invariants_and_dirac_characteristic():
    worst = 0.0
    for d in (2, 3, 4, 5, 6):
        res = clifford.rep_invariant_residuals(clifford.build_rep(d))
        worst = max(worst, res["anticommutator"], res["symmetry"],
                    res.get("chirality_involution", 0.0),
                    res.get("chirality_anticommute", 0.0),
                    res.get("chirality_skew", 0.0))
    nowhere_char = True
    for n in (1, 2):
        chart = geometry.minkowski_strip((0.0, 1.0), (1.0,) * n)
        dirac = clifford.dirac_system(clifford.build_rep(n + 1), chart)
        for q in sampled_boundary_points(chart, 6, 3):
            sn = boundary_symbol(dirac, q)
            nowhere_char &= kernel(sn).rank == 0
    report(3, "Clifford invariant suite exact to 1e-12; Dirac nowhere characteristic",
           worst < 1e-12 and nowhere_char, f"max residual {worst:.2e}")


def test_criterion_04_dirac_mit_energy_inequality():
    t0 = time.time()
    rep, dirac = make_dirac((0.0, 0.5))
    mit = boundary.mit_bag(rep, -1)
    rng = np.random.default_rng(2026)
    devs = {512: [], 1024: []}
    for _ in range(10):
        center = rng.uniform(0.4, 0.6)
        width = rng.uniform(0.2, 0.3)
        amp2 = rng.uniform(-0.5, 0.5)
        for nx in (512, 1024):
            grid = solver.make_grid(dirac, nx, cfl=0.5)
            h = np.zeros((grid.xs.size, 2), dtype=complex)
            h[:, 0] = smooth_bump(grid.xs, center, width)
            h[:, 1] = amp2 * smooth_bump(grid.xs, center, width * 0.9)
            tr = solver.energy_trace(solver.solve(dirac, mit, h=h, grid=grid), dirac)
            devs[nx].append(abs(tr.final_ratio - 1.0))
    elapsed = time.time() - t0
    devs512 = np.array(devs[512])
    ratio = float(np.mean(np.array(devs[1024]) / devs512))
    ok = bool(np.all(devs512 <= 0.05) and 0.35 <= ratio <= 0.65 and elapsed < 30.0)
    report(4, "Dirac+MIT energy conserved to 5% at nx=512, deviation halves at nx=1024",
           ok, f"max dev {devs512.max():.4f}, refinement ratio {ratio:.2f}, {elapsed:.1f}s")


def test_criterion_05_finite_propagation_speed():
    chart = geometry.minkowski_strip((0.0, 0.4), (1.0,))
    rep = clifford.build_rep(2)
    setups = []
    adv = system.advection_system(chart)
    setups.append(("advection", adv,
                   {LEFT: boundary.zero_trace(1), RIGHT: boundary.no_condition(1)}))
    dirac = clifford.dirac_system(rep, chart)
    setups.append(("dirac+MIT", dirac, boundary.mit_bag(rep, -1)))
    wave = make_wave(chart)
    setups.append(("wave+neumann", wave, boundary.neumann_like(wave.layout)))
    worst = np.inf
    for name, sys_, bcs in setups:
        grid = solver.make_grid(sys_, 256, cfl=0.5)
        h = np.zeros((grid.xs.size, sys_.fiber_rank), dtype=complex)
        h[:, 0] = smooth_bump(grid.xs, 0.5, 0.12)
        fld = solver.solve(sys_, bcs, h=h, grid=grid)
        c_max = geometry.max_characteristic_speed(chart, sys_)
        margins = solver.support_growth_margins(fld, c_max, threshold=1e-8)
        worst = min(worst, float(margins.min()))
    report(5, "support growth ≤ c_max·Δt + 2Δx at every step (3 configurations)",
           worst >= 0.0, f"worst margin {worst:.2e}")


def test_criterion_06_manufactured_convergence():
    chart = geometry.minkowski_strip((0.0, 0.5), (1.0,))
    adv = system.advection_system(chart)
    bcs = {LEFT: boundary.zero_trace(1), RIGHT: boundary.no_condition(1)}

    def adv_exact(t, xs):
        return (np.sin(2 * np.pi * xs) * np.exp(-t))[:, None]

    def adv_forcing(t, xs2):
        xs = xs2[:, 0]
        return ((-np.sin(2 * np.pi * xs) + 2 * np.pi * np.cos(2 * np.pi * xs))
                * np.exp(-t))[:, None]

    def adv_factory(nx):
        grid = solver.make_grid(adv, nx, cfl=0.5)
        return adv, bcs, adv_forcing, lambda xs: adv_exact(0.0, xs), grid

    rep_a = solver.convergence_study(adv_factory, [64, 128, 256], adv_exact)

    wchart = geometry.minkowski_strip((0.0, 1.0), (1.0,))
    wave = make_wave(wchart)
    nl = boundary.neumann_like(wave.layout)

    def wave_exact(t, xs):
        return np.stack([-np.pi * np.cos(np.pi * xs) * np.sin(np.pi * t),
                         -np.pi * np.sin(np.pi * xs) * np.cos(np.pi * t),
                         np.cos(np.pi * xs) * np.cos(np.pi * t)], axis=1)

    def wave_factory(nx):
        grid = solver.make_grid(wave, nx, cfl=0.5)
        return wave, nl, None, lambda xs: wave_exact(0.0, xs), grid

    rep_w = solver.convergence_study(wave_factory, [64, 128, 256], wave_exact)
    orders = np.concatenate([rep_a.orders, rep_w.orders])
    ok = bool(np.all((orders >= 0.8) & (orders <= 1.2)))
    report(6, "manufactured solutions converge at first order (advection sine, "
              "wave cosine + Neumann-like)", ok,
           "orders " + ", ".join(f"{o:.2f}" for o in orders))


def test_criterion_07_green_operators():
    chart = geometry.minkowski_strip((0.0, 1.0), (1.0,))
    adv = system.advection_system(chart)
    bcs_fwd = {LEFT: boundary.zero_trace(1), RIGHT: boundary.no_condition(1)}
    bcs_rev = {LEFT: boundary.no_condition(1), RIGHT: boundary.zero_trace(1)}

    def src(tc):
        def f(t, xs2):
            out = np.zeros((xs2.shape[0], 1), dtype=complex)
            s = (t - tc) / 0.15
            if abs(s) < 1:
                out[:, 0] = np.exp(1 - 1 / (1 - s ** 2)) * smooth_bump(xs2[:, 0], 0.35, 0.12)
            return out

        return f

    results = {}
    for direction, op, bcs, f, future in (
            ("G+", solver.green_plus, bcs_fwd, src(0.35), True),
            ("G-", solver.green_minus, bcs_rev, src(0.6), False)):
        residuals = []
        overshoot_1e8 = []
        finest = None
        for nx in (128, 256, 512):
            grid = solver.make_grid(adv, nx, cfl=0.5)
            fld = op(adv, bcs, f, grid)
            residuals.append(solver.green_residual(adv, fld, f))
            _, margin = solver.causal_support_ok(fld, f, 1.0, cells=0,
                                                 threshold=1e-8, future=future)
            overshoot_1e8.append(max(0.0, -margin))
            finest = (fld, grid)
        ratios = [residuals[i] / residuals[i + 1] for i in range(2)]
        contained, _ = solver.causal_support_ok(finest[0], f, 1.0, cells=2,
                                                threshold=1e-3, future=future)
        levels = forcing_support_levels(f, finest[1], 1, threshold=0.0)
        if future:
            outside_exact = bool(np.all(finest[0].values[:levels[0]] == 0))
        else:
            outside_exact = bool(np.all(finest[0].values[levels[-1] + 1:] == 0))
        shrink = overshoot_1e8[2] <= overshoot_1e8[0] + 1e-12
        results[direction] = dict(ratios=ratios, contained=contained,
                                  outside_exact=outside_exact, shrink=shrink,
                                  overshoot=overshoot_1e8)
    ok = all(all(r >= 1.6 for r in v["ratios"]) and v["contained"]
             and v["outside_exact"] and v["shrink"] for v in results.values())
    detail = "; ".join(
        f"{d}: ratios {v['ratios'][0]:.2f}/{v['ratios'][1]:.2f}, "
        f"cone+2cells@1e-3 {v['contained']}, exact-outside {v['outside_exact']}"
        for d, v in results.items())
    report(7, "Green operators: residual drops ≥1.6×/refinement, causal support",
           ok, detail)


def test_criterion_08_compatibility_recursion_oracle():
    chart = geometry.minkowski_strip((0.0, 1.0), (1.0,))
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(20):
        N = int(rng.integers(1, 5))
        K = int(rng.integers(1, 4))
        sys_ = random_time_polynomial_system(chart, N, rng)
        xs = np.linspace(0.0, 1.0, 40)
        h = rng.standard_normal((40, N)) + 1j * rng.standard_normal((40, N))
        h *= smooth_bump(xs, 0.5, 0.45)[:, None]
        fpoly = rng.standard_normal(3)

        def f(t, xs2):
            env = fpoly[0] + fpoly[1] * t + fpoly[2] * t ** 2
            return env * np.stack([np.cos((j + 1) * np.pi * xs2[:, 0])
                                   for j in range(N)], axis=1)

        hs = reduction.corner_derivatives(sys_, f, h, K, xs)
        oracle = taylor_oracle(sys_, f, h, K, xs)
        for k in range(K + 1):
            scale = max(1.0, float(np.max(np.abs(oracle[k]))))
            worst = max(worst, float(np.max(np.abs(hs[k] - oracle[k]))) / scale)
    wave = make_wave()
    bc = boundary.robin(0.0, 1.0, wave.layout)  # Dirichlet on the first block

    def h_good(xs_):
        out = np.zeros((xs_.size, 3), dtype=complex)
        out[:, 0] = smooth_bump(xs_, 0.5, 0.2)
        return out

    def h_bad(xs_):
        out = np.zeros((xs_.size, 3), dtype=complex)
        out[:, 0] = 1.0
        return out

    good = reduction.compatibility_check(wave, bc, None, h_good, 0, nx=64).passed
    bad = reduction.compatibility_check(wave, bc, None, h_bad, 0, nx=64)
    ok = worst < 1e-8 and good and not bad.passed \
        and bad.residuals[0].max() == pytest.approx(1.0, abs=1e-12)
    report(8, "compatibility recursion matches independent Taylor oracle (20 systems)",
           ok, f"worst relative defect {worst:.2e}")


def test_criterion_09_lambda_shift_equivalence():
    chart = geometry.minkowski_strip((0.0, 0.5), (1.0,))
    adv = system.advection_system(chart)
    bcs = {LEFT: boundary.zero_trace(1), RIGHT: boundary.no_condition(1)}
    h_adv = lambda xs: smooth_bump(xs, 0.3, 0.15)[:, None]
    kg = make_kg(mass=1.0)
    rob = boundary.robin(1.0, 1.0, kg.layout)

    def h_kg(xs):
        out = np.zeros((xs.size, 3), dtype=complex)
        out[:, 0] = np.sin(np.pi * xs)
        out[:, 2] = np.pi * np.cos(np.pi * xs)
        return out

    ratios = []
    for lam in (0.0, 1.0, 2.0):
        ratios.append(solver.lambda_equivalence_check(adv, lam, bcs, None, h_adv,
                                                      nx=128).ratio)
        ratios.append(solver.lambda_equivalence_check(kg, lam, rob, None, h_kg,
                                                      nx=64).ratio)
    ok = bool(np.all(np.array(ratios) <= 5.0))
    report(9, "λ-shift solutions match e^{−λt}-scaled originals within 5× the "
              "discretization-error estimate (advection, KG; λ∈{0,1,2})", ok,
           "ratios " + ", ".join(f"{r:.2f}" for r in ratios))


def test_criterion_10_adjoint_boundary_spaces():
    rep, dirac = make_dirac()
    wave = make_wave()
    kg = make_kg()
    rd = reduction.reaction_diffusion_to_first_order(
        reduction.SecondOrderProblem("reaction_diffusion",
                                     geometry.minkowski_strip((0.0, 0.5), (1.0,)),
                                     k=1), 1.0)
    cases = [
        (dirac, boundary.mit_bag(rep, -1)),
        (dirac, boundary.mit_bag(rep, +1)),
        (dirac, boundary.chirality(rep, -1)),
        (dirac, boundary.chirality(rep, +1)),
        (dirac, boundary.riemannian_chirality(rep, +1)),
        (dirac, boundary.riemannian_chirality(rep, -1)),
        (dirac, boundary.riemannian_mit(rep, -1)),
        (wave, boundary.neumann_like(wave.layout)),
        (wave, boundary.transparent(1.0, wave.layout)),
        (kg, boundary.robin(1.0, 1.0, kg.layout)),
        (kg, boundary.robin(0.0, 1.0, kg.layout)),
        (rd, boundary.robin(1.0, 1.0, rd.layout)),
    ]
    worst_pairing = 0.0
    dims_ok = True
    for sys_, bc in cases:
        rep_adm = admissibility(sys_, bc, n_time=4)
        assert rep_adm.admissible, bc.name
        chart = sys_.chart
        for face in chart.faces():
            for q in sampled_boundary_points(chart, 16, faces=[face]):
                bdag = adjoint_boundary_space(sys_, bc, q)
                dims_ok &= bdag.rank == rep_adm.nonneg_count
                B = bc.kernel_space(chart, q)
                sn = boundary_symbol(sys_, q)
                G = sys_.metric_at(q.t, q.x[None, :])[0]
                pairing = bdag.basis.conj().T @ G @ sn @ B.basis
                if pairing.size:
                    worst_pairing = max(worst_pairing, float(np.max(np.abs(pairing))))
    report(10, "adjoint spaces: mutual annihilation < 1e-9 and dim B† = nonneg "
               "count at 32 boundary samples per condition",
           worst_pairing < 1e-9 and dims_ok, f"max pairing {worst_pairing:.2e}")
