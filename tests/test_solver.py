import dataclasses
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from friedrichs import boundary, cli, clifford, geometry, reduction, solver, system
from friedrichs.errors import (BoundaryClosureError, ConfigError, ContractError,
                               NotAdmissibleError, NotHyperbolicError, NotSymmetricError)
from friedrichs.geometry import LEFT, RIGHT
from friedrichs.linalg import pairwise_sum
from friedrichs.solver import (GridField, apply_operator, causal_support_ok,
                               convergence_study, energy_trace,
                               estimate_energy_constant, green_minus,
                               green_plus, green_residual, l2_norm,
                               lambda_equivalence_check, make_grid, solve,
                               support_growth_margins, write_field)

from conftest import block_length, level_by_level, short_blocks, smooth_bump

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def advection_setup(chart):
    sys_ = system.advection_system(chart)
    bcs = {LEFT: boundary.zero_trace(1), RIGHT: boundary.no_condition(1)}
    return sys_, bcs


def wave_setup(chart):
    sys_ = reduction.wave_to_first_order(
        reduction.SecondOrderProblem("normally_hyperbolic", chart, k=1))
    return sys_, boundary.neumann_like(sys_.layout)


def dirac_setup(chart):
    rep = clifford.build_rep(2)
    sys_ = clifford.dirac_system(rep, chart)
    return sys_, boundary.mit_bag(rep, -1)


def bump_state(xs, components, N):
    out = np.zeros((xs.size, N), dtype=complex)
    for comp, (c, w, a) in components.items():
        out[:, comp] = a * smooth_bump(xs, c, w)
    return out


def test_grid_cfl_relation(short_strip):
    sys_, _ = advection_setup(short_strip)
    grid = make_grid(sys_, 64, cfl=0.5)
    assert grid.dt <= 0.5 * grid.dx / 1.0 + 1e-15
    with pytest.raises(ConfigError):
        make_grid(sys_, 64, cfl=0.95)


def test_grid_refuses_booleans(short_strip):
    # True is an Integral and a Real; neither is a grid size or a CFL number
    sys_, _ = advection_setup(short_strip)
    for nx, cfl in [(True, 0.5), (64, True)]:
        with pytest.raises(ConfigError):
            make_grid(sys_, nx, cfl)


@pytest.mark.parametrize("kwargs, name", [
    ({"nt": 0}, "nt"), ({"nt": -3}, "nt"), ({"nt": 2.5}, "nt"), ({"nt": True}, "nt"),
    ({"t_final": -0.5}, "t_final"), ({"t_final": 0.0}, "t_final")],
    ids=["nt=0", "nt=-3", "nt=2.5", "nt=True", "t_final=-0.5", "t_final=0"])
def test_grid_refuses_a_bad_nt_or_t_final(strip, kwargs, name):
    # an nt that is not a positive integer, or a run that does not go forward
    sys_, _ = advection_setup(strip)
    with pytest.raises(ConfigError, match=rf"^{name} must be"):
        make_grid(sys_, 16, **kwargs)


def test_zero_problem_zero_solution(short_strip):
    sys_, bcs = advection_setup(short_strip)
    grid = make_grid(sys_, 64)
    fld = solve(sys_, bcs, grid=grid)
    assert np.all(fld.values == 0)


def test_advection_transports_bump(short_strip):
    sys_, bcs = advection_setup(short_strip)
    grid = make_grid(sys_, 512, cfl=0.5)
    fld = solve(sys_, bcs, h=lambda xs: smooth_bump(xs, 0.3, 0.12)[:, None], grid=grid)
    exact = smooth_bump(grid.xs, 0.3 + 0.4, 0.12)
    err = l2_norm(fld.values[-1] - exact[:, None], grid)
    assert err < 0.05 * l2_norm(exact[:, None], grid) + 0.02


def test_wave_neumann_manufactured_error_first_order(strip):
    sys_, bc = wave_setup(strip)

    def exact(t, xs):
        return np.stack([-np.pi * np.cos(np.pi * xs) * np.sin(np.pi * t),
                         -np.pi * np.sin(np.pi * xs) * np.cos(np.pi * t),
                         np.cos(np.pi * xs) * np.cos(np.pi * t)], axis=1)

    errs = []
    for nx in (64, 128):
        grid = make_grid(sys_, nx, cfl=0.5)
        fld = solve(sys_, bc, h=lambda xs: exact(0.0, xs), grid=grid)
        errs.append(l2_norm(fld.values[-1] - exact(grid.t1, grid.xs), grid))
    assert errs[1] < 0.65 * errs[0]


def test_refusal_without_force_and_forced_run(strip):
    # transparent with b = −1/3 reflects with gain |r| = 2: the boundary form
    # is negative on B but the characteristic closure stays nonsingular
    sys_, _ = wave_setup(strip)
    bad = boundary.transparent(-1.0 / 3.0, sys_.layout)
    grid = make_grid(sys_, 256)
    h = lambda xs: bump_state(xs, {0: (0.5, 0.3, 1.0)}, 3)
    with pytest.raises(ContractError):
        solve(sys_, bad, h=h, grid=grid)
    fld = solve(sys_, bad, h=h, grid=grid, force=True)
    tr = energy_trace(fld, sys_)
    good = solve(sys_, boundary.transparent(1.0, sys_.layout), h=h, grid=grid)
    tr_good = energy_trace(good, sys_)
    # counterexample diagnostic: the non-admissible closure pumps energy in
    assert tr.final_ratio > 1.5 > 1.0 > tr_good.final_ratio


def test_energy_zero_field(short_strip):
    sys_, bcs = advection_setup(short_strip)
    grid = make_grid(sys_, 32)
    tr = energy_trace(solve(sys_, bcs, grid=grid), sys_)
    assert np.all(tr.energy == 0)


def test_dirac_mit_energy_conserved_first_order(short_strip):
    sys_, bc = dirac_setup(short_strip)
    devs = []
    for nx in (128, 256):
        grid = make_grid(sys_, nx, cfl=0.5)
        h = bump_state(grid.xs, {0: (0.5, 0.25, 1.0)}, 2)
        tr = energy_trace(solve(sys_, bc, h=h, grid=grid), sys_)
        assert np.all(tr.energy > 0)
        devs.append(abs(tr.final_ratio - 1.0))
    assert devs[0] < 0.1
    assert devs[1] < 0.7 * devs[0]


def test_transparent_energy_nonincreasing(strip):
    sys_, _ = wave_setup(strip)
    bc = boundary.transparent(1.0, sys_.layout)
    grid = make_grid(sys_, 128, t_final=0.6)
    h = lambda xs: bump_state(xs, {0: (0.5, 0.2, 1.0)}, 3)
    tr = energy_trace(solve(sys_, bc, h=h, grid=grid), sys_)
    assert tr.max_step_growth <= 1.0 + 1e-10
    assert tr.final_ratio < 1.0


def test_energy_inequality_with_estimated_constant(short_strip):
    # zero-order term −Id makes the energy grow like e^{2t}; the coefficient
    # estimate must bound the discrete growth with 10% slack
    sys_ = system.constant_system(short_strip, [np.eye(1), np.eye(1)], -np.eye(1))
    bcs = {LEFT: boundary.zero_trace(1), RIGHT: boundary.no_condition(1)}
    grid = make_grid(sys_, 128)
    fld = solve(sys_, bcs, h=lambda xs: smooth_bump(xs, 0.4, 0.2)[:, None], grid=grid)
    tr = energy_trace(fld, sys_)
    C = estimate_energy_constant(sys_)
    assert C == pytest.approx(2.0, abs=1e-6)
    bound = np.exp(C * (tr.ts - tr.ts[0])) * tr.energy[0] * 1.1
    assert np.all(tr.energy <= bound)


def test_support_of_the_initial_slice_and_of_zero(short_strip):
    sys_, bcs = advection_setup(short_strip)
    grid = make_grid(sys_, 128)
    h = lambda xs: smooth_bump(xs, 0.4, 0.1)[:, None]
    fld = solve(sys_, bcs, h=h, grid=grid)
    mask = solver._support_mask(fld, 1e-8)
    found, first, last = solver._row_hulls(mask)
    assert found[0] and mask[0, first[0]:last[0] + 1].all()      # one interval
    lo, hi = grid.xs[first[0]], grid.xs[last[0]]
    assert abs(lo - 0.3) < 2 * grid.dx and abs(hi - 0.5) < 2 * grid.dx
    zero = GridField(np.zeros_like(fld.values), grid)
    assert not solver._row_hulls(solver._support_mask(zero, 1e-8))[0].any()


@pytest.mark.parametrize("setup", [advection_setup, dirac_setup, wave_setup])
def test_finite_speed_margins(short_strip, setup):
    sys_, bcs = setup(short_strip)
    grid = make_grid(sys_, 256, cfl=0.5)
    h = lambda xs: bump_state(xs, {0: (0.5, 0.12, 1.0)}, sys_.fiber_rank)
    fld = solve(sys_, bcs, h=h, grid=grid)
    c_max = geometry.max_characteristic_speed(short_strip, sys_)
    margins = support_growth_margins(fld, c_max)
    assert margins.size
    assert margins.min() >= 0.0


def reference_support_radius(fld, level, threshold=1e-8):
    """Per-level support intervals as first written: the whole norm table per
    call and a Python loop over the indices."""
    norms = fld.pointwise_norm()
    ref = float(norms.max())
    if ref == 0.0:
        return []
    mask = norms[level] > threshold * ref
    if not mask.any():
        return []
    xs = fld.grid.xs
    intervals = []
    idx = np.flatnonzero(mask)
    start = idx[0]
    prev = idx[0]
    for i in idx[1:]:
        if i != prev + 1:
            intervals.append((float(xs[start]), float(xs[prev])))
            start = i
        prev = i
    intervals.append((float(xs[start]), float(xs[prev])))
    return intervals


def reference_support_growth_margins(fld, c_max, threshold=1e-8):
    grid = fld.grid
    allowed = c_max * grid.dt + 2 * grid.dx
    margins = []
    prev = None
    for m in range(grid.nt + 1):
        iv = reference_support_radius(fld, m, threshold)
        hull = (iv[0][0], iv[-1][1]) if iv else None
        if prev is not None and hull is not None:
            growth_right = hull[1] - prev[1]
            growth_left = prev[0] - hull[0]
            margins.append(allowed - max(0.0, growth_right))
            margins.append(allowed - max(0.0, growth_left))
        if hull is not None:
            prev = hull
    return np.asarray(margins)


def reference_causal_support_ok(fld, f_vals, c_max, cells, threshold, future):
    grid = fld.grid
    fnorm = np.linalg.norm(f_vals, axis=2)
    fref = fnorm.max()
    levels = range(grid.nt + 1) if future else range(grid.nt, -1, -1)
    lo, hi = np.inf, -np.inf
    have_src = False
    slack = cells * grid.dx
    worst = np.inf
    for m in levels:
        t_idx = np.flatnonzero(fnorm[m] > 1e-10 * fref)
        if t_idx.size:
            have_src = True
            lo = min(lo, grid.xs[t_idx[0]])
            hi = max(hi, grid.xs[t_idx[-1]])
        iv = reference_support_radius(fld, m, threshold)
        if iv:
            if not have_src:
                return False, -np.inf
            worst = min(worst, iv[0][0] - (lo - slack), (hi + slack) - iv[-1][1])
            if iv[0][0] < lo - slack - 1e-12 or iv[-1][1] > hi + slack + 1e-12:
                return False, float(worst)
        lo -= c_max * grid.dt
        hi += c_max * grid.dt
    return True, float(worst if np.isfinite(worst) else 0.0)


def random_table(rng, nt1, nx, N, density, zero_rows):
    """Complex values over decades of magnitude, with gaps (entries dropped
    at random) and all-zero levels."""
    vals = (rng.standard_normal((nt1, nx, N)) + 1j * rng.standard_normal((nt1, nx, N)))
    vals *= 10.0 ** rng.uniform(-12, 0, (nt1, nx, 1))
    vals *= (rng.random((nt1, nx)) < density)[:, :, None]
    vals[rng.random(nt1) < zero_rows] = 0
    return vals


thresholds = st.one_of(st.sampled_from([0.0, 1e-10, 1e-8, 1e-3, 1.0]),
                       st.floats(0.0, 1.0))


@settings(max_examples=150, deadline=None, database=None)
@given(nt=st.integers(0, 39), nx=st.integers(1, 40), N=st.integers(1, 3),
       density=st.floats(0.0, 1.0), zero_rows=st.floats(0.0, 1.0),
       zero_field=st.booleans(), threshold=thresholds, c_max=st.floats(0.0, 3.0),
       cells=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_support_diagnostics_match_the_per_level_scan(nt, nx, N, density, zero_rows,
                                                      zero_field, threshold, c_max,
                                                      cells, seed):
    rng = np.random.default_rng(seed)
    dx, dt = 1.0 / nx, 0.5 / nx
    grid = solver.Grid(nx, dx, dt, nt, (np.arange(nx) + 0.5) * dx,
                       dt * np.arange(nt + 1), True)
    vals = random_table(rng, nt + 1, nx, N, density, zero_rows)
    if zero_field:
        vals[:] = 0
    fld = GridField(vals, grid)
    f_vals = random_table(rng, nt + 1, nx, N, rng.random(), rng.random())
    by_time = dict(zip(grid.ts, f_vals))

    def f(t, xs2):
        return by_time[t]

    found, first, last = solver._row_hulls(solver._support_mask(fld, threshold))
    for m in range(nt + 1):
        iv = reference_support_radius(fld, m, threshold)
        assert found[m] == bool(iv)
        if iv:
            assert (float(grid.xs[first[m]]), float(grid.xs[last[m]])) == (iv[0][0], iv[-1][1])
    assert np.array_equal(support_growth_margins(fld, c_max, threshold),
                          reference_support_growth_margins(fld, c_max, threshold))
    for future in (True, False):
        assert (causal_support_ok(fld, f, c_max, cells, threshold, future)
                == reference_causal_support_ok(fld, f_vals, c_max, cells, threshold, future))


def test_solve_deterministic(short_strip):
    sys_, bcs = advection_setup(short_strip)
    h = lambda xs: smooth_bump(xs, 0.3, 0.15)[:, None]
    a = solve(sys_, bcs, h=h, grid=make_grid(sys_, 128))
    b = solve(sys_, bcs, h=h, grid=make_grid(sys_, 128))
    assert np.array_equal(a.values, b.values)


def test_field_io_roundtrip(tmp_path, short_strip):
    sys_, bcs = advection_setup(short_strip)
    grid = make_grid(sys_, 32)
    fld = solve(sys_, bcs, h=lambda xs: smooth_bump(xs)[:, None], grid=grid)
    path = tmp_path / "field.bin"
    write_field(path, fld)
    header, payload = path.read_bytes().split(b"\n", 1)
    nt1, nx, N = fld.values.shape
    assert header.decode() == (f"field nt1={nt1} nx={nx} N={N} dtype=complex128 "
                               f"byteorder=little")
    assert payload == fld.values.astype("<c16").tobytes()


def spacetime_source(N, comp=0, tc=0.35, tw=0.15, xc=0.35, xw=0.12):
    def f(t, xs2):
        out = np.zeros((xs2.shape[0], N), dtype=complex)
        s = (t - tc) / tw
        if abs(s) < 1:
            out[:, comp] = np.exp(1 - 1 / (1 - s ** 2)) * smooth_bump(xs2[:, 0], xc, xw)
        return out

    return f


def test_green_zero_source(strip):
    sys_, bcs = advection_setup(strip)
    grid = make_grid(sys_, 64)
    fld = green_plus(sys_, bcs, lambda t, xs2: np.zeros((xs2.shape[0], 1)), grid)
    assert np.all(fld.values == 0)


def test_green_operators_reject_a_missing_source(strip):
    sys_, bcs = advection_setup(strip)
    grid = make_grid(sys_, 16)
    fld = green_plus(sys_, bcs, spacetime_source(1), grid)
    with pytest.raises(ConfigError):
        green_plus(sys_, bcs, None, grid)
    with pytest.raises(ConfigError):
        green_minus(sys_, bcs, None, grid)
    with pytest.raises(ConfigError):
        green_residual(sys_, fld, None)
    with pytest.raises(ConfigError):
        causal_support_ok(fld, None, 1.0)


def test_green_source_on_initial_slice_rejected(strip):
    sys_, bcs = advection_setup(strip)
    grid = make_grid(sys_, 64)

    def f(t, xs2):
        return np.ones((xs2.shape[0], 1), dtype=complex)

    with pytest.raises(ContractError):
        green_plus(sys_, bcs, f, grid)


def test_green_plus_residual_refines(strip):
    sys_, bcs = advection_setup(strip)
    f = spacetime_source(1)
    res = []
    for nx in (128, 256):
        grid = make_grid(sys_, nx, cfl=0.5)
        res.append(green_residual(sys_, green_plus(sys_, bcs, f, grid), f))
    assert res[1] < res[0] / 1.6


def test_green_plus_past_containment_exact(strip):
    sys_, bcs = advection_setup(strip)
    f = spacetime_source(1)
    grid = make_grid(sys_, 128, cfl=0.5)
    fld = green_plus(sys_, bcs, f, grid)
    first = solver.forcing_support_levels(f, grid, 1, threshold=0.0)[0]
    assert np.all(fld.values[:first] == 0)


def test_green_minus_mirror(strip):
    sys_, _ = advection_setup(strip)
    bcs_rev = {LEFT: boundary.no_condition(1), RIGHT: boundary.zero_trace(1)}
    f = spacetime_source(1, tc=0.6)
    grid = make_grid(sys_, 128, cfl=0.5)
    fld = green_minus(sys_, bcs_rev, f, grid)
    last = solver.forcing_support_levels(f, grid, 1, threshold=0.0)[-1]
    assert np.all(fld.values[last + 1:] == 0)
    assert green_residual(sys_, fld, f) < 0.15
    ok, _ = causal_support_ok(fld, f, 1.0, cells=2, threshold=1e-3, future=False)
    assert ok


def test_green_minus_refuses_non_admissible(strip):
    # transparent(+1) dissipates forward in time; the reversed evolution the
    # retarded operator runs gains energy through it, so the library refuses
    # exactly as the CLI does
    sys_, _ = wave_setup(strip)
    bc = boundary.transparent(1.0, sys_.layout)
    grid = make_grid(sys_, 32)
    with pytest.raises(NotAdmissibleError) as exc:
        green_minus(sys_, bc, spacetime_source(3, tc=0.5), grid)
    err = exc.value
    assert err.bc is bc and err.face == LEFT
    assert not err.report.admissible
    assert err.report.summary() in str(err)
    assert "admissible: False" in str(err)


def test_green_minus_rejects_parabolic(strip):
    prob = reduction.SecondOrderProblem("reaction_diffusion", strip, k=1)
    rd = reduction.reaction_diffusion_to_first_order(prob, 1.0)
    grid = make_grid(rd, 32)
    with pytest.raises(ContractError):
        green_minus(rd, boundary.robin(0.0, 1.0, rd.layout),
                    spacetime_source(2, tc=0.6), grid)


def test_green_dirac_mit_both_directions(strip):
    # MIT has vanishing boundary form, so the same condition closes the
    # forward and the time-reversed solve; containment is measured at the
    # scheme-accuracy threshold (the acceptance suite sharpens this at finer
    # grids)
    sys_, bc = dirac_setup(strip)
    f = spacetime_source(2, tc=0.5, tw=0.15)
    grid = make_grid(sys_, 256, cfl=0.5)
    for op, future in ((green_plus, True), (green_minus, False)):
        fld = op(sys_, bc, f, grid)
        assert green_residual(sys_, fld, f) < 0.2
        ok, _ = causal_support_ok(fld, f, 1.0, cells=2, threshold=1e-2, future=future)
        assert ok


@pytest.mark.parametrize("case", ["advection", "sine_beta_wave"])
def test_green_minus_reverses_time_about_the_grid(case):
    # a grid that ends at t_final before its chart does gives the field of
    # the same grid on a chart that ends at t_final
    def setup(t1):
        if case == "advection":
            sys_, _ = advection_setup(geometry.minkowski_strip((0.0, t1), (1.0,)))
            bcs = {LEFT: boundary.no_condition(1), RIGHT: boundary.zero_trace(1)}
        else:
            sys_, bcs = wave_setup(geometry.named_profile_chart((0.0, t1), (1.0,),
                                                                beta=SINE_BETA))
        return sys_, bcs

    (long_sys, bcs), (short_sys, _) = setup(1.0), setup(0.6)
    f = spacetime_source(long_sys.fiber_rank, tc=0.3)
    long_grid, short_grid = make_grid(long_sys, 64, t_final=0.6), make_grid(short_sys, 64)
    assert np.array_equal(long_grid.ts, short_grid.ts)
    short = green_minus(short_sys, bcs, f, short_grid).values
    long = green_minus(long_sys, bcs, f, long_grid).values
    assert np.max(np.abs(long - short)) <= 1e-12 * np.max(np.abs(short))


def test_convergence_study_exact_at_zero_steps(short_strip):
    sys_, bcs = advection_setup(short_strip)

    def exact(t, xs):
        return smooth_bump(xs, 0.4, 0.2)[:, None]

    grid = make_grid(sys_, 64, nt=1)
    grid.ts[:] = grid.ts[0]  # zero-length window: initial data is the answer
    fld = solve(sys_, bcs, h=lambda xs: exact(0, xs),
                grid=solver.Grid(grid.nx, grid.dx, grid.dt, 0,
                                 grid.xs, grid.ts[:1], grid.staggered))
    assert l2_norm(fld.values[-1] - exact(0, grid.xs), grid) == 0.0


def test_lambda_equivalence_zero_identity(short_strip):
    sys_, bcs = advection_setup(short_strip)
    h = lambda xs: smooth_bump(xs, 0.3, 0.15)[:, None]
    rep = lambda_equivalence_check(sys_, 0.0, bcs, None, h, nx=64)
    assert rep.discrepancy == 0.0


@pytest.mark.parametrize("lam", [1.0, 2.0])
def test_lambda_equivalence_advection(short_strip, lam):
    sys_, bcs = advection_setup(short_strip)
    h = lambda xs: smooth_bump(xs, 0.3, 0.15)[:, None]
    rep = lambda_equivalence_check(sys_, lam, bcs, None, h, nx=96)
    assert rep.ratio <= 5.0


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_lambda_equivalence_with_a_forcing(short_strip, lam):
    # K_λ is forced by e^{−λt}f: at λ = 0 that is f itself, so the two solves
    # agree bitwise; an unforced K_λ would not
    sys_, bcs = advection_setup(short_strip)
    f = lambda t, xs: smooth_bump(xs, 0.3, 0.15) * np.exp(-t)
    rep = lambda_equivalence_check(sys_, lam, bcs, f, None, nx=96)
    if lam == 0.0:
        assert rep.discrepancy == 0.0
    else:
        assert 0.0 < rep.ratio <= 5.0


def test_lambda_scaled_energy_relation(short_strip):
    # |e^{−λt}Ψ|² carries the pointwise factor e^{−2λt} against |Ψ|²
    sys_, bcs = advection_setup(short_strip)
    lam = 1.0
    h = lambda xs: smooth_bump(xs, 0.4, 0.2)[:, None]
    grid = make_grid(sys_, 128)
    fld = solve(sys_, bcs, h=h, grid=grid)
    shifted = system.lambda_shift(sys_, lam)
    fld_s = solve(shifted, bcs, h=h, grid=make_grid(shifted, 128))
    e = energy_trace(fld, sys_).energy
    e_s = energy_trace(fld_s, shifted).energy
    expect = e * np.exp(-2 * lam * grid.ts)
    mask = e > 1e-12
    assert np.max(np.abs(e_s[mask] / expect[mask] - 1.0)) < 0.2


def test_implicit_heat_decays(strip):
    prob = reduction.SecondOrderProblem("reaction_diffusion", strip, k=1)
    rd = reduction.reaction_diffusion_to_first_order(prob, 1.0)
    bc = boundary.robin(0.0, 1.0, rd.layout)  # Dirichlet
    grid = make_grid(rd, 64, t_final=0.2)
    assert not grid.staggered

    def h(xs):
        out = np.zeros((xs.size, 2), dtype=complex)
        out[:, 0] = np.sin(np.pi * xs)
        out[:, 1] = np.pi * np.cos(np.pi * xs)
        return out

    fld = solve(rd, bc, h=h, grid=grid)
    # K_1-shifted heat mode: u(t) = e^{(1−π²)t} sin(πx) up to O(Δt)
    u_end = np.real(fld.values[-1][:, 0])
    expect = np.exp((1 - np.pi ** 2) * 0.2) * np.sin(np.pi * grid.xs)
    assert np.max(np.abs(u_end - expect)) < 0.05


def test_implicit_kg_matches_cosine_mode(strip):
    prob = reduction.SecondOrderProblem("klein_gordon", strip, k=1, mass=0.0)
    kg = reduction.kg_to_first_order(prob)
    bc = boundary.robin(1.0, 0.0, kg.layout)  # Neumann
    grid = make_grid(kg, 96, t_final=0.5)

    def exact(t, xs):
        # u = cos(πx)cos(πt) solves the massless equation with ∂_n u = 0
        return np.stack([np.cos(np.pi * xs) * np.cos(np.pi * t),
                         -np.pi * np.cos(np.pi * xs) * np.sin(np.pi * t),
                         -np.pi * np.sin(np.pi * xs) * np.cos(np.pi * t)], axis=1)

    fld = solve(kg, bc, h=lambda xs: exact(0.0, xs), grid=grid)
    err = np.max(np.abs(fld.values[-1][:, 0] - exact(grid.t1, grid.xs)[:, 0]))
    assert err < 0.12


def test_time_dependent_chart_explicit_path():
    # β(t) varies: coefficient tables and boundary closures refresh per step
    chart = geometry.named_profile_chart(
        (0.0, 0.4), (1.0,),
        beta={"profile": "sine", "base": 1.2, "amplitude": 0.2, "waves": 1,
              "waves_t": 1.0})
    assert not chart.time_independent
    sys_ = reduction.wave_to_first_order(
        reduction.SecondOrderProblem("normally_hyperbolic", chart, k=1))
    assert not sys_.time_independent
    bc = boundary.neumann_like(sys_.layout)
    grid = make_grid(sys_, 48, cfl=0.4)
    h = lambda xs: bump_state(xs, {0: (0.5, 0.2, 1.0)}, 3)
    fld = solve(sys_, bc, h=h, grid=grid)
    tr = energy_trace(fld, sys_)
    assert np.all(np.isfinite(fld.values))
    assert 0.1 < tr.final_ratio < 3.0


def test_time_dependent_reaction_implicit_path(strip):
    prob = reduction.SecondOrderProblem(
        "reaction_diffusion", strip, k=1,
        c=lambda t, xs: 0.3 * np.sin(2 * np.pi * t), static_coeffs=False)
    rd = reduction.reaction_diffusion_to_first_order(prob, 1.0)
    assert not rd.time_independent
    bc = boundary.robin(0.0, 1.0, rd.layout)
    grid = make_grid(rd, 48, t_final=0.2)
    h = lambda xs: bump_state(xs, {0: (0.5, 0.3, 1.0)}, 2)
    fld = solve(rd, bc, h=h, grid=grid)
    assert np.all(np.isfinite(fld.values))


def test_wave_on_curved_chart_classified(curved_strip):
    sys_ = reduction.wave_to_first_order(
        reduction.SecondOrderProblem("normally_hyperbolic", curved_strip, k=1))
    assert system.check_symmetric(sys_).verdict
    assert system.check_hyperbolic(sys_).verdict


def test_dirac_mit_on_curved_chart_near_conservative():
    chart = geometry.ultrastatic((0.0, 0.4), (1.0,), eps=0.3)
    rep = clifford.build_rep(2)
    sys_ = clifford.dirac_system(rep, chart)
    grid = make_grid(sys_, 256, cfl=0.5)
    h = np.zeros((grid.xs.size, 2), dtype=complex)
    h[:, 0] = smooth_bump(grid.xs, 0.5, 0.25)
    tr = energy_trace(solve(sys_, boundary.mit_bag(rep, -1), h=h, grid=grid), sys_)
    assert np.all(tr.energy > 0)
    assert abs(tr.final_ratio - 1.0) < 0.08


def test_apply_operator_on_exact_solution_small(strip):
    sys_, bcs = advection_setup(strip)
    grid = make_grid(sys_, 128, t_final=0.5)
    vals = np.stack([smooth_bump(grid.xs - t, 0.3, 0.15) for t in grid.ts])
    fld = GridField(vals[:, :, None], grid)
    res = l2_norm(apply_operator(sys_, fld).values, grid)
    assert res < 0.2


def test_energy_trace_time_dependent_without_positive_metric():
    # Klein-Gordon has singular σ(dt), hence no positive companion metric;
    # on a time-dependent chart the trace falls back to the fiber metric at
    # every level, as it does for static systems
    chart = geometry.named_profile_chart(
        (0.0, 0.3), (1.0,),
        beta={"profile": "sine", "base": 1.3, "amplitude": 0.2, "waves": 1,
              "waves_t": 1.0})
    kg = reduction.kg_to_first_order(
        reduction.SecondOrderProblem("klein_gordon", chart, k=1, mass=1.0))
    assert not kg.static
    grid = make_grid(kg, 32)
    xs2 = grid.xs[:, None]
    assert kg.positive_metric_at(grid.t1, xs2) is None
    fld = solve(kg, boundary.dirichlet(kg.layout),
                h=lambda xs: bump_state(xs, {0: (0.5, 0.2, 1.0)}, 3), grid=grid)
    tr = energy_trace(fld, kg)
    psi = fld.values[-1]
    G = kg.metric_at(grid.t1, xs2)
    dens = np.real(np.einsum("pi,pij,pj->p", psi.conj(), G, psi))
    weights = np.full(grid.xs.size, grid.dx)
    weights[0] = weights[-1] = grid.dx / 2
    expected = np.sum(dens * geometry.spatial_density(chart, grid.t1, xs2) * weights)
    assert tr.energy[-1] == pytest.approx(expected, rel=1e-12)


def counting(name, fn, calls):
    """fn, counting its calls under ``name`` in ``calls``."""
    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def counted(monkeypatch, owner, name, calls):
    monkeypatch.setattr(owner, name, counting(name, getattr(owner, name), calls))


def counted_lapack(monkeypatch, calls):
    """Count ``get_lapack_funcs`` lookups and the calls of the routines they return."""
    from scipy.linalg import lapack

    lookup = lapack.get_lapack_funcs
    monkeypatch.setattr(lapack, "get_lapack_funcs", counting(
        "get_lapack_funcs", lambda names, *args, **kwargs: [
            counting(name, fn, calls) for name, fn in zip(names, lookup(names, *args, **kwargs))],
        calls))


@pytest.mark.parametrize("static", [False, True])
def test_implicit_assembles_once_per_block_and_factors_once_per_level(strip, static,
                                                                      monkeypatch):
    # a time-dependent solve evaluates, row-reduces and lays out its operators
    # once per block of levels and factors each level; a static one
    # assembles and lays out its operator once and factors it once with SuperLU
    import scipy.sparse.linalg

    prob = reduction.SecondOrderProblem(
        "reaction_diffusion", strip, k=1,
        c=(lambda t, xs: -1.0) if static else (lambda t, xs: 0.3 * np.sin(2 * np.pi * t)),
        static_coeffs=static)
    rd = reduction.reaction_diffusion_to_first_order(prob, 1.0)
    assert rd.static == static
    grid = make_grid(rd, 48, t_final=0.4)
    short_blocks(monkeypatch, grid, "implicit")
    bcs = boundary.robin(0.0, 1.0, rd.layout)
    calls = {}
    for name in ("_implicit_tables", "row_reduce", "_entries", "_band", "_factor"):
        counted(monkeypatch, solver, name, calls)
    counted(monkeypatch, rd, "coeff_at", calls)
    counted(monkeypatch, scipy.sparse.linalg, "splu", calls)
    counted_lapack(monkeypatch, calls)
    solve(rd, bcs, grid=grid, force=True)
    block = block_length(rd, grid, "implicit")
    blocks = 1 if static else -(-grid.nt // block)
    assert grid.nt > 2 * block
    expected = {"_implicit_tables": blocks, "coeff_at": blocks, "row_reduce": 2 * blocks,
                "_entries": blocks, "_band": blocks, "_factor": 1 if static else grid.nt}
    if static:
        expected["splu"] = 1
    else:
        expected.update(get_lapack_funcs=1, gbtrf=grid.nt, gbtrs=grid.nt)
    assert calls == expected


@pytest.mark.parametrize("eps", [5e-10, -5e-10])
def test_admissible_pair_has_a_solvable_closure(strip, eps):
    # a near-tangent characteristic of speed ε, inside the rank tolerance:
    # condition (iii) counts it as nonnegative, so the closure must too
    sys_ = system.constant_system(strip, [np.eye(2), np.diag([1.0, eps])], None)
    bcs = {LEFT: boundary.custom_bc(np.diag([1.0, 0.0])), RIGHT: boundary.no_condition(2)}
    for face, bc in bcs.items():
        assert boundary.admissibility(sys_, bc, faces=[face]).admissible
    fld = solve(sys_, bcs, h=lambda xs: bump_state(xs, {0: (0.5, 0.2, 1.0)}, 2),
                grid=make_grid(sys_, 16))
    assert np.all(np.isfinite(fld.values))


def closure_fallbacks(monkeypatch):
    """From now on, "pinv" for each np.linalg.pinv call and "singular" for
    each LinAlgError that np.linalg.solve raises, in call order."""
    seen = []
    pinv, linear_solve = np.linalg.pinv, np.linalg.solve

    def recording_pinv(*args, **kwargs):
        seen.append("pinv")
        return pinv(*args, **kwargs)

    def recording_solve(*args, **kwargs):
        try:
            return linear_solve(*args, **kwargs)
        except np.linalg.LinAlgError:
            seen.append("singular")
            raise

    monkeypatch.setattr(np.linalg, "pinv", recording_pinv)
    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    return seen


def test_forced_closure_with_more_conditions_than_incoming_is_least_squares(
        short_strip, monkeypatch):
    # zero_trace on the outflow face: a rank-1 condition and no incoming
    # characteristic, which (iii) refuses; forced, pinv closes that face
    sys_ = system.advection_system(short_strip)
    bcs = {LEFT: boundary.zero_trace(1), RIGHT: boundary.zero_trace(1)}
    h, grid = lambda xs: smooth_bump(xs, 0.5, 0.2)[:, None], make_grid(sys_, 32)
    with pytest.raises(NotAdmissibleError, match=r"face \(0, 1\)"):
        solve(sys_, bcs, h=h, grid=grid)
    seen = closure_fallbacks(monkeypatch)
    fld = solve(sys_, bcs, h=h, grid=grid, force=True)
    assert seen == ["pinv"]
    assert np.isfinite(fld.values).all()


def test_forced_singular_closure_falls_back_to_least_squares(short_strip, monkeypatch):
    # speeds ±1; the left face's diag(0, 1) constrains the outgoing component,
    # so its square closure is singular: LinAlgError, then pinv
    sys_ = system.constant_system(short_strip, [np.eye(2), np.diag([1.0, -1.0])], None)
    bcs = {face: boundary.custom_bc(np.diag([0.0, 1.0])) for face in (LEFT, RIGHT)}
    h, grid = lambda xs: bump_state(xs, {0: (0.5, 0.2, 1.0)}, 2), make_grid(sys_, 32)
    with pytest.raises(NotAdmissibleError, match=r"face \(0, 0\)"):
        solve(sys_, bcs, h=h, grid=grid)
    seen = closure_fallbacks(monkeypatch)
    fld = solve(sys_, bcs, h=h, grid=grid, force=True)
    assert seen == ["singular", "pinv"]
    assert np.isfinite(fld.values).all()


def test_a_static_solve_whose_one_table_refuses_raises_that_refusal(strip):
    # 4 levels on 32 cells: Δt = 0.25 against Δx = 1/32, a realised CFL of 8
    # at the one level a static system tables
    sys_, bcs = advection_setup(strip)
    grid = make_grid(sys_, 32, nt=4)
    with pytest.raises(ContractError, match=r"realised CFL 8 > 1 at t=0"):
        solve(sys_, bcs, h=lambda xs: smooth_bump(xs)[:, None], grid=grid)


def test_green_minus_refuses_a_source_at_the_final_level(strip):
    sys_ = system.advection_system(strip)
    bcs = {LEFT: boundary.no_condition(1), RIGHT: boundary.zero_trace(1)}
    grid = make_grid(sys_, 32)
    f = lambda t, xs: np.full((xs.shape[0], 1), float(t == grid.ts[-1]))
    with pytest.raises(ContractError, match="supp f touches the final slice"):
        green_minus(sys_, bcs, f, grid)


def test_solve_refuses_a_face_map_that_leaves_out_a_face(strip):
    sys_, bcs = advection_setup(strip)
    with pytest.raises(ConfigError, match=r"missing boundary condition for faces \[\(0, 1\)\]"):
        solve(sys_, {LEFT: bcs[LEFT]}, h=None, grid=make_grid(sys_, 32))


@pytest.mark.parametrize("op", ["solve", "green_minus"])
def test_a_face_map_that_names_a_face_the_chart_lacks_is_refused(strip, op):
    # (1, 0) would be the first face of a second spatial axis: the strip has
    # none, and the refusal names it before any sampling reaches it
    sys_ = system.advection_system(strip)
    bcs = {LEFT: boundary.no_condition(1), RIGHT: boundary.zero_trace(1),
           (1, 0): boundary.no_condition(1)}
    grid = make_grid(sys_, 32)
    with pytest.raises(ConfigError, match=r"boundary condition for faces \[\(1, 0\)\] not on"):
        if op == "solve":
            solve(sys_, bcs, h=None, grid=grid)
        else:
            green_minus(sys_, bcs, lambda t, xs: np.full((xs.shape[0], 1), float(
                abs(t - 0.5) < 0.1)), grid)


def vettings(monkeypatch):
    """The (system, face) of every admissibility sampling from now on."""
    calls = []
    admissibility = solver.admissibility
    monkeypatch.setattr(solver, "admissibility", lambda sys_, bc, **kw: calls.append(
        (sys_, *kw["faces"])) or admissibility(sys_, bc, **kw))
    return calls


def test_repeated_green_operators_and_solves_vet_each_face_once(strip, monkeypatch):
    # MIT's boundary form vanishes, so G⁺, G⁻ and a plain solve all take it:
    # over three rounds the system's two faces and its reversed system's two
    # are each sampled once, and G⁻ reverses the system once per interval
    sys_, mit = dirac_setup(strip)
    grid, short = make_grid(sys_, 32), make_grid(sys_, 32, t_final=0.5)
    N = sys_.fiber_rank

    def f(t, xs):
        return np.full((xs.shape[0], N), float(abs(t - 0.25) < 0.1))

    vetted, reversals = vettings(monkeypatch), []
    time_reversed = solver.time_reversed
    monkeypatch.setattr(solver, "time_reversed", lambda s, interval: reversals.append(
        interval) or time_reversed(s, interval))
    h = bump_state(grid.xs, {0: (0.5, 0.2, 1.0)}, N)
    fields = [[op(sys_, mit, f, grid).values for op in (green_plus, green_minus)]
              + [solve(sys_, mit, h=h, grid=grid).values] for _ in range(3)]
    assert reversals == [(grid.t0, grid.t1)]
    rev = sys_._cache["reversed", grid.t0, grid.t1]
    assert vetted == [(sys_, LEFT), (sys_, RIGHT), (rev, LEFT), (rev, RIGHT)]
    for again in fields[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(fields[0], again))
    green_minus(sys_, mit, f, short)            # another interval: another reversed system
    assert reversals == [(grid.t0, grid.t1), (short.t0, short.t1)]
    assert [face for s, face in vetted[4:]] == [LEFT, RIGHT] and vetted[4][0] not in (sys_, rev)


def test_each_condition_object_is_vetted_afresh(strip, monkeypatch):
    # the verdicts are kept per condition object: a refused condition on a
    # face whose admissible one is cached is still refused, a refusal is
    # repeated from the cache, and an admissible condition still passes on a
    # face where another was refused
    good = {LEFT: boundary.zero_trace(1), RIGHT: boundary.no_condition(1)}
    bad = boundary.no_condition(1)              # leaves the left inflow free: (iii)
    grid = make_grid(system.advection_system(strip), 32)
    first, second = system.advection_system(strip), system.advection_system(strip)
    vetted = vettings(monkeypatch)
    solve(first, good, h=None, grid=grid)
    with pytest.raises(NotAdmissibleError) as err:
        solve(first, {**good, LEFT: bad}, h=None, grid=grid)
    assert err.value.face == LEFT and err.value.bc is bad
    refusals = []
    for _ in range(2):
        with pytest.raises(NotAdmissibleError) as err:
            solve(second, {**good, LEFT: bad}, h=None, grid=grid)
        refusals.append(err.value.report)
    assert refusals[0] is refusals[1] and not refusals[0].rank_matches_nonneg_count
    solve(second, good, h=None, grid=grid)
    assert vetted == [(first, LEFT), (first, RIGHT), (first, LEFT), (second, LEFT),
                      (second, LEFT), (second, RIGHT)]


def test_a_forced_solve_neither_reads_nor_fills_the_verdict_cache(strip, monkeypatch):
    # a cached refusal does not stop a forced solve, and a forced solve of a
    # new condition leaves the cache as it was
    sys_ = system.advection_system(strip)
    grid = make_grid(sys_, 32)
    refused, unvetted = boundary.no_condition(1), boundary.no_condition(1)
    with pytest.raises(NotAdmissibleError):
        solve(sys_, refused, h=None, grid=grid)
    cached = dict(sys_._cache)
    vetted = vettings(monkeypatch)
    h = np.ones((grid.nx, 1))
    assert np.isfinite(solve(sys_, refused, h=h, grid=grid, force=True).values).all()
    solve(sys_, unvetted, h=h, grid=grid, force=True)
    assert vetted == []
    assert sys_._cache.keys() == cached.keys()
    assert all(sys_._cache[key] is value for key, value in cached.items())
    with pytest.raises(NotAdmissibleError):
        solve(sys_, unvetted, h=h, grid=grid)
    assert vetted == [(sys_, LEFT)]


def test_solve_refuses_initial_data_of_the_wrong_shape(strip):
    sys_, bcs = advection_setup(strip)
    with pytest.raises(ConfigError, match=r"initial data must have shape \(32, 1\)"):
        solve(sys_, bcs, h=np.ones((32, 2)), grid=make_grid(sys_, 32))


def peaked_advection(chart, speed, time_independent=True):
    """Scalar transport ∂_t + a(t, x)∂_x with the speed profile a."""
    def coeff(t, xs):
        A = np.zeros((xs.shape[0], 2, 1, 1), dtype=complex)
        A[:, 0] = 1.0
        A[:, 1, 0, 0] = speed(t, xs[:, 0])
        return A, np.zeros((xs.shape[0], 1, 1), dtype=complex)

    return system.FriedrichsSystem(chart, 1, coeff, lambda t, xs: np.ones((xs.shape[0], 1, 1)),
                                   metric_positive=True, time_independent=time_independent)


def realised_cfl(sys_, grid, t):
    """max |λ|·Δt/Δx over the faces of the grid at time t."""
    faces = np.linspace(0.0, sys_.chart.space_extent[0], grid.nx + 1)[:, None]
    return float(np.max(np.abs(sys_.characteristics(t, faces, (0.0, 1.0))[0]))) * grid.dt / grid.dx


def test_static_speed_peak_sizes_the_grid():
    # the speed peaks at 4 at x = 0.125, a face of the grid: Δt is sized from
    # it, so the solve runs to the end at a realised CFL of at most 0.5
    sys_ = peaked_advection(geometry.minkowski_strip((0.0, 0.2), (1.0,)),
                            lambda t, x: 1.0 + 3.0 * np.exp(-((x - 0.125) / 0.01) ** 2))
    grid = make_grid(sys_, 512, cfl=0.5)
    assert geometry.max_characteristic_speed(sys_.chart, sys_, per_axis=512) == 4.0
    assert 0.499 < realised_cfl(sys_, grid, grid.t0) <= 0.5
    bcs = {LEFT: boundary.zero_trace(1), RIGHT: boundary.no_condition(1)}
    fld = solve(sys_, bcs, h=lambda xs: np.ones((xs.size, 1)), grid=grid)
    assert np.isfinite(fld.values).all()


def test_cfl_guard_refuses_an_unresolved_speed_peak(monkeypatch):
    # the speed peaks at 4 at t = 0.05, between the chart's sample times that
    # size Δt (they read 1): the per-level guard refuses the level before it
    chart = geometry.minkowski_strip((0.0, 0.7), (1.0,))
    sys_ = peaked_advection(chart, lambda t, x: np.full_like(
        x, 1.0 + 3.0 * np.exp(-((t - 0.05) / 0.005) ** 2)), time_independent=False)
    grid = make_grid(sys_, 128, cfl=0.5)
    assert geometry.max_characteristic_speed(chart, sys_, per_axis=128) == pytest.approx(1.0)
    steps = stepped_levels(monkeypatch)
    bcs = {LEFT: boundary.zero_trace(1), RIGHT: boundary.no_condition(1)}
    with pytest.raises(ContractError, match=r"realised CFL \S+ > 1 at t=") as err:
        solve(sys_, bcs, h=lambda xs: np.ones((xs.size, 1)), grid=grid)
    m = int(np.argmin(np.abs(grid.ts - float(re.search(r"at t=([^,]+),", str(err.value))[1]))))
    assert grid.ts[m] == pytest.approx(0.047, abs=1e-3)
    assert steps == list(grid.ts[:m + 1])       # the levels up to it were stepped
    cfl = float(str(err.value).split()[2])
    assert cfl == pytest.approx(realised_cfl(sys_, grid, grid.ts[m]), rel=1e-3)
    assert cfl == pytest.approx(1.455, abs=1e-3)


#: the static shipped configs whose systems are solved explicitly
STATIC_EXPLICIT_CONFIGS = ["advection_green.json", "dirac_mit_check.json",
                           "riemannian_mit_counterexample.json", "ultrastatic_wave_compat.json",
                           "wave_neumann_converge.json"]


@pytest.mark.parametrize("name", STATIC_EXPLICIT_CONFIGS)
def test_grid_speed_is_the_speed_the_first_level_splits_at(name, monkeypatch):
    cfg = cli.read_config(json.loads((CONFIGS / name).read_text()))
    if cfg["system"] is None:                   # converge: the wave_cosine case
        (sys_, bcs), sizes = wave_setup(cli.build_chart(cfg)), cfg["task"]["grids"]
    else:
        (sys_, bcs), sizes = cli.build_problem(cfg), [cfg["grid"]["nx"]]
    assert sys_.static and sys_.time_sign != 0
    split_tables = sys_._split
    for nx in sizes:
        split = []
        monkeypatch.setattr(sys_, "_split",
                            lambda *args: split.append(split_tables(*args)) or split[-1])
        grid = make_grid(sys_, nx, cfg["grid"]["cfl"])
        solver._explicit_tables(sys_, boundary.as_bc_map(sys_, bcs), grid, grid.t0, force=True)
        monkeypatch.setattr(sys_, "_split", split_tables)
        (sized, _, _), (lam, _, _) = split
        assert np.max(np.abs(sized)) == geometry.max_characteristic_speed(
            sys_.chart, sys_, per_axis=nx)
        assert np.max(np.abs(lam[:-2])) == pytest.approx(np.max(np.abs(sized)), rel=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("setup", ["explicit", "implicit"])
def test_solve_stops_at_the_first_non_finite_level(strip, setup):
    # the forcing blows up at t_5: the explicit step carries it into level 6,
    # the implicit step into level 5; the forcing is tabled up front, each
    # level evaluated once
    if setup == "explicit":
        sys_, bcs = advection_setup(strip)
    else:
        sys_ = reduction.reaction_diffusion_to_first_order(
            reduction.SecondOrderProblem("reaction_diffusion", strip, k=1), 1.0)
        bcs = boundary.robin(0.0, 1.0, sys_.layout)
    grid = make_grid(sys_, 16)
    calls = []

    def f(t, xs2):
        calls.append(t)
        return np.full((xs2.shape[0], sys_.fiber_rank), np.inf if t == grid.ts[5] else 0.0)

    m = 6 if setup == "explicit" else 5
    with pytest.raises(BoundaryClosureError, match=rf"level m={m}, t={grid.ts[m]:.6g}$"):
        solve(sys_, bcs, f=f, grid=grid)
    assert calls == list(grid.ts)


def test_an_explicit_block_that_goes_non_finite_mid_block_is_refused_at_that_level(strip):
    # a dense two-speed system, forced with Inf at one cell at t_5: level 6,
    # mid-block, goes infinite there, and the block's later levels step
    # through Inf − Inf with no warning (an error under the test settings)
    # before the refusal names level 6
    S0, S1 = np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([[0.3, 1.0], [1.0, -0.4]])
    sys_ = system.constant_system(strip, [S0, S1], None)
    bcs = {face: boundary.custom_bc(maximal_nonnegative(sign * S1, S0)[0])
           for face, sign in ((LEFT, -1.0), (RIGHT, 1.0))}
    grid = make_grid(sys_, 16)
    assert sys_.static and grid.nt > solver._BLOCK > 7

    def f(t, xs2):
        out = np.zeros((xs2.shape[0], 2))
        out[8, 0] = np.inf if t == grid.ts[5] else 0.0
        return out

    with pytest.raises(BoundaryClosureError, match=rf"^solution is not finite at level m=6, "
                                                   rf"t={grid.ts[6]:.6g}$"):
        solve(sys_, bcs, f=f, h=lambda xs: np.outer(np.sin(np.pi * xs), [1.0, 0.5]), grid=grid)


def switching_off_system(chart, t_off):
    """σ(dt) = diag(1, 0), no flux, C = diag(0, c(t)) with c = 1 before t_off
    and 0 from it on: stepped implicitly, one level at a time within a block,
    each level's operator diag(1/Δt, c) singular from t_off on."""

    def coeff(t, xs):
        A = np.zeros((xs.shape[0], 2, 2, 2))
        A[:, 0, 0, 0] = 1.0
        C = np.zeros((xs.shape[0], 2, 2))
        C[:, 1, 1] = np.broadcast_to(t, xs.shape[:1]) < t_off
        return A, C

    return system.FriedrichsSystem(chart, 2, coeff, lambda t, xs: np.eye(2)[None].repeat(
        xs.shape[0], axis=0), metric_positive=True, time_independent=False)


@pytest.mark.parametrize("blow_up", [True, False])
def test_a_time_dependent_implicit_block_refuses_its_first_non_finite_level(strip, blow_up):
    # the forcing is infinite at t_5, so level 5 is; level 12's operator is
    # singular, later in the same block: the non-finite level is refused
    # first, with no warning (an error under the test settings); without it
    # the singular operator is refused at its own time
    grid = make_grid(switching_off_system(strip, 0.0), 16)
    sys_ = switching_off_system(strip, grid.ts[12])
    assert not grid.staggered and block_length(sys_, grid, "implicit") > grid.nt > 12

    def f(t, xs2):
        return np.full((xs2.shape[0], 2), np.inf if blow_up and t == grid.ts[5] else 1.0)

    message = (f"^solution is not finite at level m=5, t={grid.ts[5]:.6g}$" if blow_up else
               rf"^the implicit operator at t={grid.ts[12]:.6g} is singular$")
    with pytest.raises(BoundaryClosureError, match=message):
        solve(sys_, boundary.no_condition(2), f=f, h=np.ones((grid.xs.size, 2)), grid=grid)


ENTRIES = st.floats(-1.0, 1.0)


@st.composite
def symmetric_hyperbolic(draw):
    """(G, S⁰, S¹): Hermitian positive G and S⁰ and Hermitian S¹, N ≤ 3."""
    N = draw(st.integers(1, 3))

    def matrix():
        re, im = (np.array(draw(st.lists(ENTRIES, min_size=N * N, max_size=N * N)))
                  for _ in range(2))
        return (re + 1j * im).reshape(N, N)

    X, Y, Z = matrix(), matrix(), matrix()
    eye = np.eye(N)
    return (X @ X.conj().T + 0.5 * eye, Y @ Y.conj().T + 0.5 * eye,
            0.5 * (Z + Z.conj().T))


def maximal_nonnegative(S1, S0):
    """G_B whose kernel is the span of the eigenvectors of the pencil
    (S¹, S⁰) with nonnegative eigenvalue (zero speeds within 1e-9 count),
    and those eigenvalues: a maximal nonnegative boundary space."""
    lam, U = scipy.linalg.eigh(S1, S0)
    keep = lam >= -1e-9 * max(1.0, float(np.max(np.abs(lam))))
    complement = np.linalg.qr(U[:, keep], mode="complete")[0][:, int(keep.sum()):]
    return complement @ complement.conj().T, lam


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(symmetric_hyperbolic())
def test_maximal_nonnegative_conditions_are_admissible_and_dissipative(matrices):
    # A^μ = G⁻¹S^μ: G·A^μ = S^μ is Hermitian and s* = +1, so σ(dt)⁻¹σ(±dx)
    # has the speeds of the pencil (±S¹, S⁰) in the companion metric S⁰
    G, S0, S1 = matrices
    N = G.shape[0]
    chart = geometry.minkowski_strip((0.0, 0.25), (1.0,))
    Ginv = np.linalg.inv(G)
    sys_ = system.constant_system(chart, [Ginv @ S0, Ginv @ S1], None, gram=G)
    bcs = {}
    for face, sign in ((LEFT, -1.0), (RIGHT, 1.0)):
        GB, speeds = maximal_nonnegative(sign * S1, S0)
        bcs[face] = boundary.custom_bc(GB)
        rep = boundary.admissibility(sys_, bcs[face], faces=[face])
        assert rep.admissible
        assert np.max(np.abs(rep.spectra[face] - speeds)) <= 1e-10
    # data nonzero at both faces, so both closures act from the first step
    fld = solve(sys_, bcs, h=lambda xs: np.outer(1.5 + np.cos(3 * xs), np.arange(1, N + 1)),
                grid=make_grid(sys_, 32))
    assert energy_trace(fld, sys_).max_step_growth <= 1 + 1e-12


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(symmetric_hyperbolic(), st.data())
def test_non_maximal_nonnegative_conditions_are_refused_by_iii(matrices, data):
    # each face's kernel is a random r-dimensional subspace of the span of
    # the nonnegative eigenvectors, the kernel of a random G_B = M·QQ* with Q
    # an orthonormal basis of its complement:
    # a nonnegative boundary space, maximal only when r is the whole count
    # (Lax & Phillips, CPAM 1960); a non-maximal one leaves an incoming
    # characteristic free and is refused by (iii), a maximal pair is
    # admissible and the solve dissipative
    G, S0, S1 = matrices
    N = G.shape[0]
    chart = geometry.minkowski_strip((0.0, 0.25), (1.0,))
    Ginv = np.linalg.inv(G)
    sys_ = system.constant_system(chart, [Ginv @ S0, Ginv @ S1], None, gram=G)

    def near_identity(n):
        # ‖Id − it‖ ≤ 0.2·‖Z‖_F < 1 for n ≤ 3: invertible, so any r columns are independent
        re, im = (np.array(data.draw(st.lists(ENTRIES, min_size=n * n, max_size=n * n)))
                  for _ in range(2))
        return np.eye(n) + 0.2 * (re + 1j * im).reshape(n, n)

    bcs, short = {}, []
    for face, sign in ((LEFT, -1.0), (RIGHT, 1.0)):
        lam, U = scipy.linalg.eigh(sign * S1, S0)
        U = U[:, lam >= -1e-9 * max(1.0, float(np.max(np.abs(lam))))]
        r = data.draw(st.integers(0, U.shape[1]))
        Q = np.linalg.qr(U @ near_identity(U.shape[1])[:, :r], mode="complete")[0][:, r:]
        bcs[face] = boundary.custom_bc(near_identity(N) @ Q @ Q.conj().T)
        if r < U.shape[1]:
            short.append((face, r, U.shape[1]))
    grid = make_grid(sys_, 32)
    h = lambda xs: np.outer(1.5 + np.cos(3 * xs), np.arange(1, N + 1))    # noqa: E731
    if short:
        with pytest.raises(NotAdmissibleError) as err:
            solve(sys_, bcs, h=h, grid=grid)
        rep = err.value.report
        assert (err.value.face, rep.rank_B, rep.nonneg_count) == short[0]
        assert rep.rank_constant and rep.semidefinite and not rep.rank_matches_nonneg_count
    else:
        assert energy_trace(solve(sys_, bcs, h=h, grid=grid), sys_).max_step_growth <= 1 + 1e-12


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(symmetric_hyperbolic(), st.sampled_from([1, -1]))
def test_green_minus_runs_the_reversed_flow_under_its_literal_form(matrices, s_star):
    # the same A^μ = G⁻¹S^μ with fiber metric s*·G: the reversed system has
    # s* = +1 either way, and its literal boundary form is the one of the
    # reversed flow, whose maximal nonnegative conditions flip the faces'
    # roles; a forward condition is refused wherever the two differ
    G, S0, S1 = matrices
    N = G.shape[0]
    chart = geometry.minkowski_strip((0.0, 0.25), (1.0,))
    Ginv = np.linalg.inv(G)
    sys_ = system.constant_system(chart, [Ginv @ S0, Ginv @ S1], None, gram=s_star * G)
    assert sys_.time_sign == s_star
    # at least 48 steps: make_grid takes one step when every speed is 0
    grid = make_grid(sys_, 32, nt=max(48, make_grid(sys_, 32).nt))
    rev = solver.time_reversed(sys_, (grid.t0, grid.t1))
    assert rev.time_sign == 1 and not rev.metric_positive
    forward, reversed_ = {}, {}
    for face, sign in ((LEFT, -1.0), (RIGHT, 1.0)):
        forward[face] = maximal_nonnegative(sign * S1, S0)[0]
        reversed_[face] = maximal_nonnegative(-sign * S1, S0)[0]
    bcs = {face: boundary.custom_bc(GB) for face, GB in reversed_.items()}

    def f(t, xs2):
        # active for t in (0.16, 0.22): the reversed run is free after it
        bump = np.clip(1.0 - ((t - 0.19) / 0.03) ** 2, 0.0, None)
        return bump * np.outer(1.5 + np.cos(3 * xs2[:, 0]), np.arange(1, N + 1))

    fld = green_minus(sys_, bcs, f, grid)
    values = fld.values[::-1].copy()
    free = grid.ts[::-1] < 0.16 - grid.dt
    e = energy_trace(GridField(values, grid), rev).energy[free]
    assert np.all(e > 0)
    assert np.max(e[1:] / e[:-1]) <= 1 + 1e-12
    for face in (LEFT, RIGHT):
        if np.allclose(forward[face], reversed_[face]):
            continue
        with pytest.raises(NotAdmissibleError):
            green_minus(sys_, {**bcs, face: boundary.custom_bc(forward[face])}, f, grid)


def reference_explicit_solve(sys_, bcs, f, h0, grid):
    """The explicit upwind solve step by step as three einsums over a padded
    field: ghost cells from the closures, |Ã|·jump at the faces, the central
    difference of ÃΨ, C̃Ψ and σ(dt)⁻¹f at the cells."""
    chart, bc_map = sys_.chart, boundary.as_bc_map(sys_, bcs)
    nx, N, dt, dx = grid.nx, sys_.fiber_rank, grid.dt, grid.dx
    faces = np.append(np.arange(nx) * dx, chart.space_extent[0])[:, None]
    out = [h0]
    for t in grid.ts[:-1]:
        A, C = sys_.coeff_at(t, grid.xs[:, None])
        a0inv = np.linalg.inv(A[:, 0])
        lam, V, P = sys_.characteristics(t, faces, (0.0, 1.0))
        Aabs = (V * np.abs(lam)[:, None, :]) @ np.conj(np.swapaxes(V, 1, 2)) @ P
        psi = out[-1]
        pad = np.empty((nx + 2, N), dtype=complex)
        pad[1:-1] = psi
        for face, edge in ((LEFT, 0), (RIGHT, -1)):      # the ghost beside each edge cell
            q = geometry.BoundaryPoint([t], face, [[chart.face_position(face)]])
            split = sys_.characteristics(t, q.x, geometry.outward_normal(chart, q))
            T, = solver._boundary_closure(bc_map[face].matrix(chart, q), face, *split, False)
            pad[edge] = T @ psi[edge]
        diss = np.einsum("fij,fj->fi", Aabs, pad[1:] - pad[:-1])
        rhs = -np.einsum("pij,pj->pi", a0inv @ A[:, 1], (pad[2:] - pad[:-2]) / (2 * dx))
        rhs += (diss[1:] - diss[:-1]) / (2 * dx)
        rhs -= np.einsum("pij,pj->pi", a0inv @ C, psi)
        if f is not None:
            rhs += np.einsum("pij,pj->pi", a0inv, f(t, grid.xs[:, None]))
        out.append(psi + dt * rhs)
    return np.stack(out)


def lapse_scaled_system(chart, G, S0, S1, C):
    """A^0 = G⁻¹S⁰, A^1 = β·G⁻¹S¹: speeds scale with the lapse, so on a
    chart with β(t, x) every level has its own step."""
    N = G.shape[0]
    Ginv = np.linalg.inv(G)

    def coeff(t, xs):
        A = np.empty((xs.shape[0], 2, N, N), dtype=complex)
        A[:, 0] = Ginv @ S0
        A[:, 1] = chart.beta_at(t, xs)[:, None, None] * (Ginv @ S1)
        return A, np.broadcast_to(C, (xs.shape[0], N, N))

    return system.FriedrichsSystem(
        chart, N, coeff, lambda t, xs: np.broadcast_to(G, (xs.shape[0], N, N)),
        metric_positive=True, time_independent=chart.time_independent)


SINE_BETA = {"profile": "sine", "base": 1.2, "amplitude": 0.2, "waves": 1, "waves_t": 1.0}


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(symmetric_hyperbolic())
def test_block_row_step_matches_the_einsum_step(matrices):
    G, S0, S1 = matrices
    N = G.shape[0]
    C = 0.3 * np.linalg.inv(G) @ (S1 - S0)
    bcs = {face: boundary.custom_bc(maximal_nonnegative(sign * S1, S0)[0])
           for face, sign in ((LEFT, -1.0), (RIGHT, 1.0))}

    def h(xs):
        return np.outer(1.5 + np.cos(3 * xs), np.arange(1, N + 1))

    def f(t, xs2):
        return np.sin(3 * xs2 + 2 * t) * np.arange(1, N + 1)

    for chart in (geometry.minkowski_strip((0.0, 0.25), (1.0,)),
                  geometry.named_profile_chart((0.0, 0.25), (1.0,), beta=SINE_BETA)):
        sys_ = lapse_scaled_system(chart, G, S0, S1, C)
        assert sys_.static == chart.time_independent
        dt = make_grid(sys_, 16).dt
        grid = make_grid(sys_, 16, t_final=20 * dt, nt=20)
        for forcing in (None, f):
            new = solve(sys_, bcs, f=forcing, h=h, grid=grid, force=True).values
            ref = reference_explicit_solve(sys_, bcs, forcing, h(grid.xs).astype(complex), grid)
            assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref))


def reference_energy_trace(fld, sys_):
    """energy_trace level by level: the 3-operand einsum, one pairwise sum
    per level and ``boundary_symbol`` at each face."""
    grid, chart = fld.grid, sys_.chart
    weights = np.full(grid.xs.size, grid.dx)
    if not grid.staggered:
        weights[0] = weights[-1] = grid.dx / 2
    xs2 = grid.xs[:, None]
    s = sys_.time_sign or 1
    energy, flux = [], []
    for t, psi in zip(grid.ts, fld.values):
        P = sys_.positive_metric_at(t, xs2)
        P = sys_.metric_at(t, xs2) if P is None else P
        dens = np.real(np.einsum("pi,pij,pj->p", psi.conj(), P, psi))
        energy.append(pairwise_sum(dens * geometry.spatial_density(chart, t, xs2) * weights))
        phi = 0.0
        for face in chart.faces():
            q = geometry.BoundaryPoint(t, face, np.array([chart.face_position(face)]))
            G = sys_.metric_at(t, q.x[None, :])[0]
            sbeta = s * chart.beta_at(t, q.x[None, :])[0]
            trace = psi[0 if face[1] == 0 else -1]
            sn = boundary.boundary_symbol(sys_, q)
            phi += sbeta * float(np.real(trace.conj() @ G @ sn @ trace))
        flux.append(phi)
    return np.array(energy), np.array(flux)


def energy_cases():
    strip = geometry.minkowski_strip((0.0, 0.4), (1.0,))
    sine = geometry.named_profile_chart((0.0, 0.3), (1.0,),
                                        beta=dict(SINE_BETA, base=1.3))
    heat = reduction.reaction_diffusion_to_first_order(
        reduction.SecondOrderProblem("reaction_diffusion", strip, k=1), 1.0)
    kg = reduction.kg_to_first_order(
        reduction.SecondOrderProblem("klein_gordon", sine, k=1, mass=1.0))
    return {"advection": (system.advection_system(strip), 40),
            "dirac": (dirac_setup(strip)[0], 40),
            "heat": (heat, 40),
            "wave_sine_beta": (wave_setup(sine)[0], 24),
            "kg_sine_beta": (kg, 32)}


@pytest.mark.parametrize("case", sorted(energy_cases()))
def test_energy_trace_is_bitwise_the_per_level_trace(case, monkeypatch):
    sys_, nx = energy_cases()[case]
    grid = make_grid(sys_, nx)
    short_blocks(monkeypatch, grid, "energy")
    block = block_length(sys_, grid, "energy")
    assert (grid.nt + 1) % block != 0 and grid.nt + 1 > block     # a partial last block
    rng = np.random.default_rng(11)
    shape = (grid.nt + 1, grid.xs.size, sys_.fiber_rank)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    vals[3] = 0.0
    tr = energy_trace(GridField(vals, grid), sys_)
    energy, flux = reference_energy_trace(GridField(vals, grid), sys_)
    assert np.array_equal(tr.energy, energy)
    assert np.array_equal(tr.flux, flux)


def test_explicit_path_loads_no_scipy():
    # scipy.sparse costs ~18 MB of RSS; only the implicit solver may load it
    src = str(Path(solver.__file__).resolve().parent.parent)
    code = """if True:
        import sys
        import numpy as np
        from friedrichs import boundary, geometry, solver, system
        chart = geometry.minkowski_strip((0.0, 0.5), (1.0,))
        adv = system.advection_system(chart)
        bcs = {geometry.LEFT: boundary.zero_trace(1), geometry.RIGHT: boundary.no_condition(1)}
        grid = solver.make_grid(adv, 64)
        fld = solver.solve(adv, bcs, h=lambda xs: np.exp(-(xs - 0.5) ** 2 / 0.01)[:, None],
                           grid=grid)
        solver.energy_trace(fld, adv)

        def f(t, xs2):
            return (abs(t - 0.25) < 0.1) * np.exp(-(xs2 - 0.5) ** 2 / 0.01)

        solver.green_plus(adv, bcs, f, grid)
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.stdout.strip() == "[]"


def test_grid_is_sized_over_the_run_not_the_chart():
    # the speed peaks at 4 at t = 0.9, outside a run to t_final = 0.2: only
    # the speeds inside [0, 0.2] (≈ 1) size Δt, and the run stays resolved
    chart = geometry.minkowski_strip((0.0, 1.0), (1.0,))
    sys_ = peaked_advection(chart, lambda t, x: np.full_like(
        x, 1.0 + 3.0 * np.exp(-((t - 0.9) / 0.05) ** 2)), time_independent=False)
    assert geometry.max_characteristic_speed(chart, sys_, per_axis=128) > 2.0
    grid = make_grid(sys_, 128, cfl=0.5, t_final=0.2)
    assert grid.nt <= 52
    bcs = {LEFT: boundary.zero_trace(1), RIGHT: boundary.no_condition(1)}
    fld = solve(sys_, bcs, h=lambda xs: np.ones((xs.size, 1)), grid=grid)
    assert np.isfinite(fld.values).all()
    assert max(realised_cfl(sys_, grid, t) for t in grid.ts) <= 0.5


def test_time_dependent_grid_evaluates_its_coefficients_once(monkeypatch):
    # the speeds and the zero-order rate come from one coeff_at call at the
    # speed samples
    sys_, _ = sine_beta_wave()
    assert not sys_.static and sys_.time_sign != 0      # time_sign is cached here
    calls = []
    coeff_at = sys_.coeff_at
    monkeypatch.setattr(sys_, "coeff_at", lambda *args: calls.append(1) or coeff_at(*args))
    make_grid(sys_, 24)
    assert len(calls) == 1


@pytest.mark.parametrize("speed, c", [(0.0, 3.0), (0.01, 300.0)])
def test_grid_resolves_the_zero_order_term(speed, c):
    # Δt·ρ(σ(dt)⁻¹C) ≤ cfl as well as the CFL bound: with (almost) no
    # characteristic speed, a decay rate c is still never stepped across in
    # one forward-Euler step (at nt = 1, Ψ(1) = 1 − c instead of e⁻ᶜ)
    chart = geometry.minkowski_strip((0.0, 1.0), (1.0,))
    sys_ = system.constant_system(chart, [np.eye(1), speed * np.eye(1)], c * np.eye(1))
    grid = make_grid(sys_, 32, cfl=0.5)
    assert grid.dt * c <= 0.5 * (1 + 1e-12) and grid.nt == math.ceil(2 * c)
    bcs = {LEFT: boundary.zero_trace(1) if speed else boundary.no_condition(1),
           RIGHT: boundary.no_condition(1)}
    fld = solve(sys_, bcs, h=lambda xs: np.ones((xs.size, 1)), grid=grid)
    far = fld.values[-1, grid.xs > 0.5, 0].real      # beyond the inflow's reach
    euler = (1 - c * grid.dt) ** grid.nt
    assert np.allclose(far, euler, rtol=1e-9, atol=0.0)
    assert np.all((0.0 <= far) & (far <= np.exp(-c)))     # 0 ≤ (1 − cΔt)ⁿ ≤ e^{−cT}
    assert np.max(np.exp(-c) - far) <= 0.5 * c ** 2 * grid.dt     # first order in Δt


def forcing_cases():
    strip = geometry.minkowski_strip((0.0, 0.4), (1.0,))
    sine = geometry.named_profile_chart((0.0, 0.3), (1.0,), beta=dict(SINE_BETA, base=1.3))

    def heat(chart):
        return reduction.reaction_diffusion_to_first_order(
            reduction.SecondOrderProblem("reaction_diffusion", chart, k=1), 1.0)

    return {"explicit_static": (*wave_setup(strip), 24),
            "explicit_sine_beta": (*wave_setup(sine), 24),
            "implicit_static": (heat(strip), boundary.robin(0.0, 1.0, heat(strip).layout), 24),
            "implicit_sine_beta": (heat(sine), boundary.robin(0.0, 1.0, heat(sine).layout), 24)}


@pytest.mark.parametrize("case", sorted(forcing_cases()))
def test_solving_from_a_table_is_bitwise_solving_from_the_callable(case):
    sys_, bcs, nx = forcing_cases()[case]
    assert sys_.static == case.endswith("static")
    N = sys_.fiber_rank
    grid = make_grid(sys_, nx)

    def f(t, xs2):
        return np.sin(3 * xs2 + 2 * t) * np.arange(1, N + 1)

    def h(xs):
        return np.outer(np.cos(2 * xs), np.arange(1, N + 1))

    table = np.stack([f(t, grid.xs[:, None]) for t in grid.ts])
    from_callable = solve(sys_, bcs, f=f, h=h, grid=grid).values
    assert np.array_equal(solve(sys_, bcs, f=table, h=h, grid=grid).values, from_callable)
    for wrong in (table[:-1], table[:, 1:], table[..., None], table[0]):
        with pytest.raises(ConfigError, match="forcing table"):
            solve(sys_, bcs, f=wrong, h=h, grid=grid)


def reference_apply_operator(sys_, fld):
    """apply_operator level by level: three einsums per level."""
    grid, vals = fld.grid, fld.values
    dpsi_dt = np.gradient(vals, grid.dt, axis=0)
    dpsi_dx = np.gradient(vals, grid.dx, axis=1)
    out = np.empty_like(vals)
    for m, t in enumerate(grid.ts):
        A, C = sys_.coeff_at(t, grid.xs[:, None])
        out[m] = (np.einsum("pij,pj->pi", A[:, 0], dpsi_dt[m])
                  + np.einsum("pij,pj->pi", A[:, 1], dpsi_dx[m])
                  + np.einsum("pij,pj->pi", C, vals[m]))
    return out


def operator_cases():
    strip = geometry.minkowski_strip((0.0, 0.4), (1.0,))
    sine = geometry.named_profile_chart((0.0, 0.4), (1.0,), beta=dict(SINE_BETA, base=1.3))
    return {"advection": (system.advection_system(strip), 40),
            "dirac_mit": (dirac_setup(strip)[0], 40),
            "wave_sine_beta": (wave_setup(sine)[0], 24)}


@pytest.mark.parametrize("case", sorted(operator_cases()))
def test_apply_operator_is_bitwise_the_per_level_operator(case, monkeypatch):
    sys_, nx = operator_cases()[case]
    grid = make_grid(sys_, nx)
    short_blocks(monkeypatch, grid, "operator")
    block = block_length(sys_, grid, "operator")
    assert (grid.nt + 1) % block != 0 and grid.nt + 1 > block     # a partial last block
    rng = np.random.default_rng(5)
    shape = (grid.nt + 1, grid.xs.size, sys_.fiber_rank)
    fld = GridField(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), grid)
    assert np.array_equal(apply_operator(sys_, fld).values, reference_apply_operator(sys_, fld))


@pytest.mark.parametrize("direction", ["+", "-"])
def test_green_diagnostics_read_the_carried_table_as_a_fresh_one(strip, direction):
    # the field's own f reads the table it carries; an equal-valued other
    # callable builds a fresh one: both give the same numbers
    sys_, bcs = advection_setup(strip)
    grid = make_grid(sys_, 64)
    if direction == "+":
        f, op, future = spacetime_source(1), green_plus, True
    else:
        f, op, future = spacetime_source(1, tc=0.6), green_minus, False
        bcs = {LEFT: boundary.no_condition(1), RIGHT: boundary.zero_trace(1)}
    fld = op(sys_, bcs, f, grid)
    assert fld.source[0] is f
    assert np.array_equal(fld.source[1], np.stack([f(t, grid.xs[:, None]) for t in grid.ts]))

    def other(t, xs2):
        return f(t, xs2)

    assert green_residual(sys_, fld, f) == green_residual(sys_, fld, other)
    for cells, threshold in itertools.product((0, 2), (1e-8, 1e-3)):
        assert (causal_support_ok(fld, f, 1.0, cells, threshold, future)
                == causal_support_ok(fld, other, 1.0, cells, threshold, future))


def test_green_forcing_table_is_checked_per_level_and_narrowed_once(strip, monkeypatch):
    # f is evaluated and its shape checked at every level; the stacked table
    # is narrowed once: float64 when every level is real, else complex128
    # with each level's own values (a real level keeps its −0.0 imaginary parts).
    # A solve tables a callable f the same way, and steps bitwise as from its table
    sys_, bcs = advection_setup(strip)
    grid = make_grid(sys_, 32)
    f = spacetime_source(1)
    calls = {}
    counted(monkeypatch, solver, "_real", calls)
    table = solver._forcing_table(f, grid, 1)
    levels = np.stack([f(t, grid.xs[:, None]) for t in grid.ts])
    assert calls == {"_real": 1}
    assert table.dtype == np.float64 and table.tobytes() == levels.real.tobytes()

    def mixed(t, xs2):
        out = f(t, xs2)
        out.imag = 0.5 if t == grid.ts[4] else -0.0
        return out

    table = solver._forcing_table(mixed, grid, 1)
    assert table.tobytes() == np.stack([mixed(t, grid.xs[:, None]) for t in grid.ts]).tobytes()
    assert np.signbit(table[0].imag).all()

    def misshaped(t, xs2):
        return np.zeros((xs2.shape[0], 1 if t < grid.ts[3] else 2))

    with pytest.raises(ConfigError, match=r"^forcing must return shape \(32, 1\)$"):
        solver._forcing_table(misshaped, grid, 1)

    calls.clear()
    unforced = solve(sys_, bcs, h=np.ones((32, 1)), grid=grid)
    without = calls.pop("_real")
    forced = solve(sys_, bcs, f=f, h=np.ones((32, 1)), grid=grid)
    assert calls == {"_real": without + 1}
    assert forced.values.tobytes() == solve(sys_, bcs, f=table.real, h=np.ones((32, 1)),
                                            grid=grid).values.tobytes()
    assert forced.values.dtype == unforced.values.dtype == np.float64
    levels = []
    with pytest.raises(ConfigError, match=r"^forcing must return shape \(32, 1\)$"):
        solve(sys_, bcs, f=lambda t, xs2: levels.append(t) or misshaped(t, xs2), grid=grid)
    assert levels == list(grid.ts[:4])          # none evaluated past the misshaped level


def sine_beta_wave():
    return wave_setup(geometry.named_profile_chart((0.0, 0.3), (1.0,),
                                                   beta=dict(SINE_BETA, base=1.3)))


@pytest.mark.parametrize("nt", [None, 15, 5])   # a partial last block, a full one, one short one
def test_energy_trace_of_a_time_dependent_solve_is_the_per_level_trace(nt, monkeypatch):
    # a solve carries no energy; energy_trace, the one energy path, gives
    # the level-by-level trace bitwise
    sys_, bcs = sine_beta_wave()
    grid = make_grid(sys_, 24)
    short_blocks(monkeypatch, grid, "energy")
    block = block_length(sys_, grid, "energy")
    if nt is None:
        assert (grid.nt + 1) % block != 0 and grid.nt + 1 > block
    else:                                       # the same step, fewer levels
        grid = make_grid(sys_, 24, t_final=nt * grid.dt, nt=nt)
        assert (grid.nt + 1 == block) == (nt == 15)
    fld = solve(sys_, bcs, h=lambda xs: bump_state(xs, {0: (0.5, 0.2, 1.0), 2: (0.4, 0.2, 0.5)}, 3),
                grid=grid)
    assert [f.name for f in dataclasses.fields(fld)] == ["values", "grid", "source"]
    tr = energy_trace(fld, sys_)
    energy, flux = reference_energy_trace(fld, sys_)
    assert np.array_equal(tr.energy, energy) and np.array_equal(tr.flux, flux)
    assert np.array_equal(tr.ts, grid.ts)


@pytest.mark.parametrize("case", ["wave_sine_beta", "kg_sine_beta", "dirac"])
def test_energy_trace_evaluates_its_tables_once_per_block(case, monkeypatch):
    # explicit and implicit, static and time-dependent alike: one evaluation
    # per block of levels, once in total for a static system
    sys_, nx = energy_cases()[case]
    bcs = {"wave_sine_beta": lambda: sine_beta_wave()[1],
           "kg_sine_beta": lambda: boundary.dirichlet(sys_.layout),
           "dirac": lambda: dirac_setup(sys_.chart)[1]}[case]()
    grid = make_grid(sys_, nx)
    short_blocks(monkeypatch, grid, "energy")
    fld = solve(sys_, bcs, h=lambda xs: bump_state(xs, {0: (0.5, 0.2, 1.0)}, sys_.fiber_rank),
                grid=grid)
    calls = []
    real = solver._energy_tables
    monkeypatch.setattr(solver, "_energy_tables",
                        lambda sys_, grid, ts: calls.append(list(ts)) or real(sys_, grid, ts))
    tr = energy_trace(fld, sys_)
    block = block_length(sys_, grid, "energy")
    blocks = [list(grid.ts[i:i + block]) for i in range(0, grid.nt + 1, block)]
    assert grid.nt + 1 > block
    assert calls == ([[grid.t0]] if sys_.static else blocks)
    energy, flux = reference_energy_trace(fld, sys_)
    assert np.array_equal(tr.energy, energy) and np.array_equal(tr.flux, flux)


def reference_split(sys_, t, xs, xi):
    """The characteristic split through σ(dt)⁻¹: the pencil (P·σ(dt)⁻¹σ(ξ), P)."""
    A, G, beta = sys_.coeff_at(t, xs)[0], sys_.metric_at(t, xs), sys_.chart.beta_at(t, xs)
    P = system.companion_metric(sys_.time_sign, beta, G, A[:, 0])
    M = np.linalg.inv(A[:, 0]) @ np.einsum("m,pmij->pij", np.asarray(xi, complex), A)
    return (*solver.eigh_pencil(P @ M, P), P)


def characteristic_abs(lam, V, P):
    """|Ã| = V·|λ|·Vᴴ·P."""
    return (V * np.abs(lam)[:, None, :]) @ np.conj(np.swapaxes(V, 1, 2)) @ P


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(symmetric_hyperbolic())
def test_the_split_without_the_inverse_matches_the_split_through_it(matrices):
    G, S0, S1 = matrices
    chart = geometry.named_profile_chart((0.0, 0.25), (1.0,), beta=SINE_BETA)
    sys_ = lapse_scaled_system(chart, G, S0, S1, np.zeros_like(G))
    xs = np.linspace(0.0, 1.0, 9)[:, None]
    for t, xi in itertools.product((0.0, 0.13), ((0.0, 1.0), (0.0, -0.7), (0.4, 1.3))):
        lam, V, P = sys_.characteristics(t, xs, xi)
        ref = reference_split(sys_, t, xs, xi)
        assert np.array_equal(P, ref[2])
        scale = max(1.0, float(np.max(np.abs(ref[0]))))
        assert np.max(np.abs(lam - ref[0])) <= 1e-12 * scale
        ref_abs = characteristic_abs(*ref)
        assert (np.max(np.abs(characteristic_abs(lam, V, P) - ref_abs))
                <= 1e-12 * max(1.0, float(np.max(np.abs(ref_abs)))))


def reference_csc(B):
    """The block-tridiagonal operator of B through scipy: COO → CSR → CSC."""
    import scipy.sparse

    npts, _, N, _ = B.shape
    i = np.arange(npts)[:, None, None, None]
    ii = np.arange(N)[:, None]
    rows = np.broadcast_to(i * N + ii, B.shape)
    cols = np.broadcast_to((i + np.arange(-1, 2)[:, None, None]) * N + ii.T, B.shape)
    nz = np.abs(B) > 0
    return scipy.sparse.csr_matrix((B[nz], (rows[nz], cols[nz])), shape=(npts * N,) * 2).tocsc()


def implicit_cases():
    strip = geometry.minkowski_strip((0.0, 0.3), (1.0,))
    sine_h = geometry.named_profile_chart((0.0, 0.3), (1.0,), h_scale=SINE_BETA)

    def heat(chart):
        sys_ = reduction.reaction_diffusion_to_first_order(
            reduction.SecondOrderProblem("reaction_diffusion", chart, k=1, c=lambda t, xs: -1.0),
            2.0)
        return sys_, boundary.robin(0.0, 1.0, sys_.layout)

    kg = reduction.kg_to_first_order(
        reduction.SecondOrderProblem("klein_gordon", sine_h, k=2, mass=1.0))
    return {"heat_static": heat(strip), "heat_sine_h": heat(sine_h),
            "kg_sine_h": (kg, boundary.dirichlet(kg.layout))}


def static_solves_heat():
    """The benchmark's static heat + Robin problem: c = −1 as a complex table."""
    strip = geometry.minkowski_strip((0.0, 0.3), (1.0,))
    c = np.full((1, 1), -1.0, dtype=complex)
    sys_ = reduction.reaction_diffusion_to_first_order(reduction.SecondOrderProblem(
        "reaction_diffusion", strip, k=1, c=lambda t, xs: np.broadcast_to(c, (xs.shape[0], 1, 1))),
        2.0)
    return sys_, boundary.robin(0.0, 1.0, sys_.layout)


@pytest.mark.parametrize("case", sorted(implicit_cases()) + ["static_solves_heat_2048"])
def test_implicit_operator_is_bitwise_scipys_csc(case, monkeypatch):
    # each level of a block's operators is laid out in band storage bitwise
    # as its own block rows, and read back from it as scipy's CSC bitwise
    sys_, bcs = static_solves_heat() if case.startswith("static") else implicit_cases()[case]
    grid = make_grid(sys_, 2048 if case.endswith("2048") else 32)
    built = []
    band = solver._band
    monkeypatch.setattr(solver, "_band", lambda B: built.append(B) or band(B))
    ts = grid.ts[3:3 + solver._BLOCK]
    ops, _, _ = solver._implicit_tables(sys_, boundary.as_bc_map(sys_, bcs), grid, ts)
    Bs, = built
    assert len(Bs) == len(ops) == len(ts) == solver._BLOCK
    for level, B in enumerate(Bs):
        csc, ref = solver._csc(ops[level]), reference_csc(B)
        assert ref.has_sorted_indices and ref.nnz < B.size
        assert csc.dtype == ref.dtype == B.dtype
        assert csc.data.tobytes() == ref.data.tobytes()
        assert csc.indices.tobytes() == ref.indices.tobytes()
        assert csc.indptr.tobytes() == ref.indptr.tobytes()
        assert ops[level].flags.f_contiguous
        assert ops[level].tobytes("F") == band(B).tobytes("F")


def test_implicit_csc_masks_the_out_of_range_edge_blocks():
    # nonzero blocks beyond the two edges have no column and are dropped, and
    # so are exact zeros, for real and complex block rows of each N
    for N, kind in itertools.product((2, 1, 3), (complex, float)):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((5, 3, N, N))
        if kind is complex:
            B = B + 1j * rng.standard_normal((5, 3, N, N))
        B[2, 1, 0, N - 1] = 0.0
        csc = solver._csc(solver._band(B))
        inner = B.copy()
        inner[0, 0] = inner[-1, 2] = 0.0
        ref = reference_csc(inner)
        assert csc.dtype == B.dtype and ref.nnz == np.count_nonzero(inner)
        assert csc.data.tobytes() == ref.data.tobytes()
        assert np.array_equal(csc.indices, ref.indices) and np.array_equal(csc.indptr, ref.indptr)


def reference_active_levels(table, threshold):
    norms = np.array([float(np.linalg.norm(arr)) for arr in table])
    return np.flatnonzero(norms > threshold * max(norms.max(), 1e-300))


@pytest.mark.parametrize("seed", range(4))
def test_active_levels_match_the_per_level_norms(seed):
    rng = np.random.default_rng(seed)
    table = np.zeros((40, 17, 2), dtype=complex)
    for m in rng.choice(40, 25, replace=False):
        scale = 10.0 ** rng.uniform(-18, -2)      # norms below 0.25
        table[m] = scale * (rng.standard_normal((17, 2)) + 1j * rng.standard_normal((17, 2)))
    table[5:12] = 0.0
    table[6, 3, 1] = 1.0                        # one entry: norm exactly 1, the largest
    table[7, 9, 0] = 0.25                       # exactly 0.25 · the largest: not active
    table[8, 2, 1] = np.nextafter(0.25, 1.0)    # just above it: active
    table[9, 0, 0] = 1e-14                      # exactly the default threshold: not active
    table[10, 16, 1] = -1e-14j
    table[11, 4, 0] = np.nextafter(1e-14, 1.0)
    for threshold in (1e-14, 0.25, 0.0):
        levels = solver._active_levels(table, threshold)
        assert np.array_equal(levels, reference_active_levels(table, threshold))
    assert {6, 8, 11} <= set(solver._active_levels(table)) and not {5, 9, 10} & set(
        solver._active_levels(table))
    assert 7 not in solver._active_levels(table, 0.25) and 8 in solver._active_levels(table, 0.25)


# -- the implicit factor: SuperLU for a static system, banded LAPACK otherwise


def reference_band(B):
    """The LAPACK band (3kl + 1, n) of the block-tridiagonal matrix of B, read
    entry by entry from its dense form: A[i, j] at row 2kl + i − j."""
    npts, _, N, _ = B.shape
    n, kl = npts * N, 2 * N - 1
    dense = np.zeros((n, n), dtype=complex)
    for i, d in itertools.product(range(npts), range(3)):
        if 0 <= i + d - 1 < npts:
            dense[i * N:(i + 1) * N, (i + d - 1) * N:(i + d) * N] = B[i, d]
    assert not np.any(np.triu(dense, kl + 1)) and not np.any(np.tril(dense, -kl - 1))
    band = np.zeros((3 * kl + 1, n), dtype=complex)
    for i, j in itertools.product(range(n), repeat=2):
        if abs(i - j) <= kl:
            band[2 * kl + i - j, j] = dense[i, j]
    return band


@pytest.mark.parametrize("npts, N", [(5, 2), (4, 3), (6, 1)])
def test_band_holds_the_block_rows_entries(npts, N):
    # the out-of-range edge blocks B[0, 0] and B[-1, 2] are masked; every
    # other entry lands where LAPACK's gbtrf reads it, for one level and for
    # each level of a stack
    rng = np.random.default_rng(npts * N)
    shape = (3, npts, 3, N, N)
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    bands = solver._band(stack)
    for B, band in [(stack[0], solver._band(stack[0])), *zip(stack, bands)]:
        assert band.flags.f_contiguous
        assert band.tobytes(order="F") == reference_band(B).tobytes(order="F")
        inner = B.copy()
        inner[0, 0] = inner[-1, 2] = 0.0
        assert np.array_equal(band, reference_band(inner))


@pytest.mark.parametrize("case", ["heat_sine_h", "kg_sine_h"])
def test_banded_implicit_fields_match_superlu(case, monkeypatch):
    sys_, bcs = implicit_cases()[case]
    assert not sys_.static
    grid = make_grid(sys_, 48)
    h = bump_state(grid.xs, {0: (0.5, 0.25, 1.0), 1: (0.4, 0.2, 0.5)}, sys_.fiber_rank)
    banded = solve(sys_, bcs, h=h, grid=grid).values
    real = solver._factor
    monkeypatch.setattr(solver, "_factor", lambda op, t, banded: real(op, t, None))
    superlu = solve(sys_, bcs, h=h, grid=grid).values
    assert np.max(np.abs(banded - superlu)) <= 1e-12 * np.max(np.abs(superlu))
    assert not np.array_equal(banded, superlu)      # two factorizations ran


@pytest.mark.parametrize("case", sorted(implicit_cases()))
def test_implicit_factor_kind_follows_static(case, monkeypatch):
    # a static solve factors once with SuperLU; a time-dependent one never
    import scipy.sparse.linalg

    sys_, bcs = implicit_cases()[case]
    grid = make_grid(sys_, 16)
    calls = []
    splu = scipy.sparse.linalg.splu
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda *args, **kw: calls.append(1) or splu(*args, **kw))
    solve(sys_, bcs, h=bump_state(grid.xs, {0: (0.5, 0.25, 1.0)}, sys_.fiber_rank), grid=grid)
    assert len(calls) == (1 if sys_.static else 0)


def recorded_right_hand_sides(monkeypatch, sys_, bcs, grid, h):
    """Solve, recording each level's right-hand side as handed to the
    operator's solve, and the A⁰ = σ(dt) (as the operator's real-or-complex
    tables hold it) and boundary rows of each level ``_implicit_tables``
    builds."""
    rhss, mats = [], []
    tables, factor = solver._implicit_tables, solver._factor

    def recording(sys_, bc_map, grid_, ts):
        ops, brows, entries = tables(sys_, bc_map, grid_, ts)
        A0 = solver.aos(entries[0])
        mats.extend((A0[level], {node: tuple(a[level] for a in rows)
                                 for node, rows in brows.items()})
                    for level in range(len(ts)))
        return ops, brows, entries

    def factoring(*args):
        solve_level = factor(*args)
        return lambda rhs: rhss.append(rhs.copy()) or solve_level(rhs)

    monkeypatch.setattr(solver, "_implicit_tables", recording)
    monkeypatch.setattr(solver, "_factor", factoring)
    fld = solve(sys_, bcs, h=h, grid=grid, force=True)
    return fld, rhss, mats


def reference_right_hand_side(A0, brows, psi, dt):
    """A⁰Ψ/Δt as one einsum, projected at the boundary rows."""
    rhs = np.einsum("pij,pj->pi", A0, psi) / dt
    for node, (_, _, V2) in brows.items():
        rhs[node] = V2 @ (V2.conj().T @ rhs[node])
    return rhs.ravel()


@pytest.mark.parametrize("case", sorted(implicit_cases()))
def test_implicit_right_hand_side_is_bitwise_the_einsum(case, monkeypatch):
    # σ(dt) is singular here, so its products skip entries that vanish
    # everywhere; a static solve assembles its operator once
    sys_, bcs = implicit_cases()[case]
    grid = make_grid(sys_, 24)
    h = bump_state(grid.xs, {0: (0.5, 0.25, 1.0), 1: (0.4, 0.2, 0.5)}, sys_.fiber_rank)
    fld, rhss, mats = recorded_right_hand_sides(monkeypatch, sys_, bcs, grid, h)
    assert len(mats) == (1 if sys_.static else grid.nt) and len(rhss) == grid.nt
    assert np.any(mats[0][0] == 0.0) and np.any(mats[0][0] != 0.0)
    for m, rhs in enumerate(rhss):
        A0, brows = mats[0 if sys_.static else m]
        ref = reference_right_hand_side(A0, brows, fld.values[m], grid.dt)
        assert rhs.dtype == ref.dtype and rhs.tobytes() == ref.tobytes()


def test_implicit_right_hand_side_with_an_off_diagonal_singular_sigma_dt(strip, monkeypatch):
    # σ(dt) = [[1, 1, 0], [1, 1, 0], [0, 0, 0]]: singular, with off-diagonal entries
    A0 = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    sys_ = system.constant_system(strip, [A0, np.diag([1.0, -1.0, 0.5])], np.eye(3))
    assert sys_.time_sign == 0
    grid = make_grid(sys_, 24, t_final=0.1)
    h = bump_state(grid.xs, {0: (0.5, 0.25, 1.0), 1: (0.4, 0.2, 0.5), 2: (0.5, 0.2, 1.0)}, 3)
    fld, rhss, mats = recorded_right_hand_sides(monkeypatch, sys_, boundary.no_condition(3),
                                                grid, h)
    assert len(mats) == 1 and len(rhss) == grid.nt > 1
    for m, rhs in enumerate(rhss):
        ref = reference_right_hand_side(*mats[0], fld.values[m], grid.dt)
        assert np.max(np.abs(rhs - ref)) <= 1e-15 * np.max(np.abs(ref))


def density_tables(P):
    """P laid out as ``_energy_tables`` hands it to ``_quadratic_density``."""
    M, nz = solver._entries(*solver._real(P))
    return (*solver._parts(M), nz)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(N=st.integers(3, 4), levels=st.sampled_from([1, 5]), n=st.integers(1, 9),
       density=st.floats(0.0, 1.0), real_metric=st.booleans(), real_field=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_quadratic_density_over_its_tables_is_bitwise_the_einsum(
        N, levels, n, density, real_metric, real_field, seed):
    # a Hermitian P (static: one level for all five, or one per level) with
    # entries that vanish everywhere or at some points, a zero row and an
    # imaginary-only entry
    rng = np.random.default_rng(seed)
    shape = (levels, n, N, N)
    P = rng.standard_normal(shape) + (0.0 if real_metric else 1j * rng.standard_normal(shape))
    P = P + np.conj(np.swapaxes(P, -1, -2))
    mask = rng.random((N, N)) < density
    zero = rng.integers(N)
    a, b = rng.choice(np.delete(np.arange(N), zero), 2, replace=False)
    mask = mask | mask.T
    mask[zero] = mask[:, zero] = False
    where = rng.random(shape) < 0.8                 # and entries that vanish at some points
    P = P * mask * (where & np.swapaxes(where, -1, -2))
    if not real_metric:
        P[..., a, b] = 1j * (1.0 + rng.random((levels, n)))
        P[..., b, a] = np.conj(P[..., a, b])
    psi = rng.standard_normal((5, n, N))
    if not real_field:
        psi = psi + 1j * rng.standard_normal((5, n, N))
    _, Pi, nz = tables = density_tables(P)
    assert (Pi is None) == real_metric and psi.dtype == (float if real_field else complex)
    assert all(zero not in entry for entry in nz)
    dens = solver._quadratic_density(psi, *tables)
    for level in range(5):
        ref = np.real(np.einsum("pi,pij,pj->p", psi[level].conj(), P[min(level, levels - 1)],
                                psi[level]))
        assert dens[level].tobytes() == ref.tobytes()


def singular_system(chart):
    """σ(dt) = diag(1, 0), σ(dx) = 0, C = 0: every backward-Euler operator is singular."""
    return system.constant_system(chart, [np.diag([1.0, 0.0]), np.zeros((2, 2))], None)


@pytest.mark.parametrize("chart", [
    geometry.minkowski_strip((0.0, 0.1), (1.0,)),
    geometry.named_profile_chart((0.0, 0.1), (1.0,), beta=SINE_BETA)])
def test_a_singular_implicit_operator_names_its_time(chart):
    sys_ = singular_system(chart)
    grid = make_grid(sys_, 8)
    with pytest.raises(BoundaryClosureError,
                       match=rf"implicit operator at t={grid.ts[1]:.6g} is singular") as err:
        solve(sys_, boundary.no_condition(2), grid=grid)
    # SuperLU's RuntimeError for the static one, zgbtrf's info > 0 otherwise
    assert isinstance(err.value.__cause__, RuntimeError) == sys_.static


# -- the explicit level tables, built in blocks of levels


def recorded_blocks(monkeypatch):
    blocks = []
    real = solver._explicit_tables

    def recording(sys_, bc_map, grid, ts, force):
        blocks.append([np.atleast_1d(ts).copy(), None])     # None: the block refused
        blocks[-1][1] = real(sys_, bc_map, grid, ts, force)
        return blocks[-1][1]

    monkeypatch.setattr(solver, "_explicit_tables", recording)
    return blocks


def assert_close(a, b, rel):
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) <= rel * max(np.max(np.abs(b)), 1e-300)


@pytest.mark.parametrize("nt", [None, 16, 5])   # a partial last block, full ones, nt + 1 < block
def test_block_tables_equal_the_per_level_tables(nt, monkeypatch):
    sys_, bcs = sine_beta_wave()
    grid = make_grid(sys_, 24)
    if nt is not None:
        grid = make_grid(sys_, 24, t_final=nt * grid.dt, nt=nt)
    short_blocks(monkeypatch, grid, "explicit")
    block = block_length(sys_, grid, "explicit")
    assert (grid.nt % block == 0) == (nt == 16) and (grid.nt > block) == (nt is None)
    bc_map = boundary.as_bc_map(sys_, bcs)
    blocks = recorded_blocks(monkeypatch)
    solve(sys_, bcs, h=lambda xs: bump_state(xs, {0: (0.5, 0.2, 1.0)}, 3), grid=grid)
    monkeypatch.undo()
    sizes = [len(ts) for ts, _ in blocks]
    assert sum(sizes) == grid.nt and all(s == block for s in sizes[:-1])
    assert (sizes[-1] == block) == (grid.nt % block == 0)
    for ts, (B, dt_a0inv) in blocks:
        for level, t in enumerate(ts):
            ref = solver._explicit_tables(sys_, bc_map, grid, t, False)
            assert_close(B[level], ref[0][0], 1e-14)
            assert_close(dt_a0inv[level], ref[1][0], 1e-14)


def dipping_advection(chart, a0, a1):
    """Scalar ∂_t-coefficient a0(t, x) and ∂_x-coefficient a1(t, x), G = 1."""
    def coeff(t, xs):
        A = np.zeros((xs.shape[0], 2, 1, 1), dtype=complex)
        A[:, 0, 0, 0], A[:, 1, 0, 0] = a0(t, xs[:, 0]), a1(t, xs[:, 0])
        return A, np.zeros((xs.shape[0], 1, 1), dtype=complex)

    return system.FriedrichsSystem(chart, 1, coeff, lambda t, xs: np.ones((xs.shape[0], 1, 1)),
                                   metric_positive=True, time_independent=False)


def stepped_levels(monkeypatch):
    """The times of the levels a solve steps, h₀'s level first, recorded a
    block at a time as each block's levels pass ``solver._finite``."""
    steps = []
    finite = solver._finite

    def record(levels, m, ts):
        finite(levels, m, ts)
        steps.extend(ts[m:m + len(levels)])

    monkeypatch.setattr(solver, "_finite", record)
    return steps


def in_window(t):
    return (0.035 < t) & (t < 0.065)    # between the times the set-up checks sample


def test_not_hyperbolic_level_raises_after_the_levels_before_it(monkeypatch):
    # σ(dt) turns negative on x > 0.5 inside a window of time in the middle of
    # the first block: its first level raises, naming t and the first bad face,
    # once the levels before it are stepped
    chart = geometry.minkowski_strip((0.0, 0.7), (1.0,))
    sys_ = dipping_advection(chart, lambda t, x: np.where(in_window(t) & (x > 0.5), -1.0, 1.0),
                             lambda t, x: np.zeros_like(x))
    grid = make_grid(sys_, 16, nt=70)
    short_blocks(monkeypatch, grid, "explicit")
    m = next(m for m, t in enumerate(grid.ts) if in_window(t))
    assert 0 < m < block_length(sys_, grid, "explicit")
    steps = stepped_levels(monkeypatch)
    bcs = boundary.no_condition(1)
    faces = np.arange(grid.nx + 1) * grid.dx
    x = faces[faces > 0.5][0]
    with pytest.raises(NotHyperbolicError) as err:
        solve(sys_, bcs, h=lambda xs: np.ones((xs.size, 1)), grid=grid)
    assert str(err.value) == f"σ(dt)-form singular or indefinite at t={grid.ts[m]}, x=[{x}]"
    assert steps == list(grid.ts[:m + 1])


def test_a_non_finite_sigma_dt_is_refused_at_its_level_and_point(monkeypatch):
    # σ(dt) turns NaN on x > 0.5 inside the window: LAPACK's Cholesky would
    # pass the NaN on, so the split refuses it, naming the first level of the
    # window and its first face past 0.5, once the levels before it are stepped
    chart = geometry.minkowski_strip((0.0, 0.7), (1.0,))
    sys_ = dipping_advection(chart, lambda t, x: np.where(in_window(t) & (x > 0.5), np.nan, 1.0),
                             lambda t, x: np.zeros_like(x))
    grid = make_grid(sys_, 16, nt=70)
    short_blocks(monkeypatch, grid, "explicit")
    m = next(m for m, t in enumerate(grid.ts) if in_window(t))
    assert 0 < m < block_length(sys_, grid, "explicit")
    steps = stepped_levels(monkeypatch)
    faces = np.arange(grid.nx + 1) * grid.dx
    x = faces[faces > 0.5][0]
    with pytest.raises(NotHyperbolicError) as err:
        solve(sys_, boundary.no_condition(1), h=lambda xs: np.ones((xs.size, 1)), grid=grid)
    assert str(err.value) == f"σ(dt)-form not finite at t={grid.ts[m]}, x=[{x}]"
    assert steps == list(grid.ts[:m + 1])


def test_closure_error_raises_at_its_level_after_the_levels_before_it(monkeypatch):
    # the speed turns negative inside a window of time: the left face's zero
    # trace then has no incoming characteristic to fix, and that level's
    # closure refuses once the levels before it are stepped
    chart = geometry.minkowski_strip((0.0, 0.7), (1.0,))
    sys_ = dipping_advection(chart, lambda t, x: np.ones_like(x),
                             lambda t, x: np.where(in_window(t), -1.0, np.ones_like(x)))
    grid = make_grid(sys_, 16)
    short_blocks(monkeypatch, grid, "explicit")
    m = next(m for m, t in enumerate(grid.ts) if in_window(t))
    assert 0 < m and m % block_length(sys_, grid, "explicit") != 0
    steps = stepped_levels(monkeypatch)
    bcs = {LEFT: boundary.zero_trace(1), RIGHT: boundary.no_condition(1)}
    with pytest.raises(BoundaryClosureError, match=r"face \(0, 0\): 0 incoming characteristics"):
        solve(sys_, bcs, h=lambda xs: np.ones((xs.size, 1)), grid=grid)
    assert steps == list(grid.ts[:m + 1])


def test_a_block_that_closes_unlike_is_stepped_level_by_level(monkeypatch):
    # the flow reverses inside a window, and each face's condition follows
    # its inflow: every level closes, but not alike within the blocks that
    # straddle the window, which are built one level at a time instead
    chart = geometry.minkowski_strip((0.0, 0.7), (1.0,))
    sys_ = dipping_advection(chart, lambda t, x: np.ones_like(x),
                             lambda t, x: np.where(in_window(t), -1.0, np.ones_like(x)))
    bcs = {face: boundary.custom_bc(lambda chart, q, face=face: np.asarray(
        in_window(q.t) == (face == RIGHT), float)[..., None, None]) for face in (LEFT, RIGHT)}
    grid = make_grid(sys_, 16)
    short_blocks(monkeypatch, grid, "explicit")

    def run():
        fld = solve(sys_, bcs, h=lambda xs: np.ones((xs.size, 1)), grid=grid, force=True)
        return fld.values, energy_trace(fld, sys_).energy

    blocks = recorded_blocks(monkeypatch)
    values, energy = run()
    assert any(tables is None for _, tables in blocks)
    level_by_level(monkeypatch)
    ref_values, ref_energy = run()
    assert_close(values, ref_values, 1e-14)
    assert_close(energy, ref_energy, 1e-14)


def test_an_implicit_block_whose_ranks_differ_is_stepped_level_by_level(monkeypatch):
    # the left face fixes both components inside a window of time and only the
    # first outside it: a block that straddles the window cannot row-reduce
    # its G_B in one stack, so it is built one level at a time instead, and
    # the field is bitwise the field built level by level throughout
    sys_, _ = implicit_cases()["heat_sine_h"]
    assert not sys_.static
    bcs = {LEFT: boundary.custom_bc(lambda chart, q: np.where(
               in_window(np.asarray(q.t))[..., None, None], np.eye(2), np.diag([1.0, 0.0]))),
           RIGHT: boundary.custom_bc(np.diag([1.0, 0.0]))}
    grid = make_grid(sys_, 32)
    short_blocks(monkeypatch, grid, "implicit")
    h = bump_state(grid.xs, {0: (0.5, 0.25, 1.0), 1: (0.4, 0.2, 0.5)}, 2)
    built = []
    tables = solver._implicit_tables

    def recording(sys_, bc_map, grid_, ts):
        built.append([len(ts), False])              # False: the block refused
        out = tables(sys_, bc_map, grid_, ts)
        built[-1][1] = True
        return out

    monkeypatch.setattr(solver, "_implicit_tables", recording)
    values = solve(sys_, bcs, h=h, grid=grid, force=True).values
    refused = [size for size, ok in built if not ok]
    assert refused and all(size == block_length(sys_, grid, "implicit") for size in refused)
    assert sum(size for size, ok in built if ok) == grid.nt
    level_by_level(monkeypatch)
    assert values.tobytes() == solve(sys_, bcs, h=h, grid=grid, force=True).values.tobytes()


@pytest.mark.parametrize("case", ["advection", "wave", "wave_sine_beta"])
def test_explicit_tables_of_a_real_problem_are_built_in_real_arithmetic(case, monkeypatch):
    # the split, σ(dt)⁻¹, the closures and the block products run in float64,
    # bitwise the tables built in complex arithmetic
    sys_, bcs, nx, _ = real_cases()[case]
    grid = make_grid(sys_, nx)
    assert grid.nt >= solver._BLOCK
    bc_map, ts = boundary.as_bc_map(sys_, bcs), grid.ts[:1 if sys_.static else solver._BLOCK]
    tables = solver._explicit_tables(sys_, bc_map, grid, ts, False)
    complex_arithmetic(monkeypatch)
    ref = solver._explicit_tables(sys_, bc_map, grid, ts, False)
    for table, cplx in zip(tables, ref):
        assert table.dtype == np.float64 and cplx.dtype == np.complex128
        assert not np.any(cplx.imag) and table.tobytes() == cplx.real.tobytes()


def test_time_dependent_explicit_solve_splits_once_per_block(monkeypatch):
    # one eigh_pencil call per block of levels, not one per level
    sys_, bcs = sine_beta_wave()
    grid = make_grid(sys_, 40)
    short_blocks(monkeypatch, grid, "explicit")
    calls = []
    pencil = system.eigh_pencil
    monkeypatch.setattr(system, "eigh_pencil", lambda *a: calls.append(1) or pencil(*a))
    solve(sys_, bcs, h=lambda xs: bump_state(xs, {0: (0.5, 0.2, 1.0)}, 3), grid=grid,
          force=True)
    block = block_length(sys_, grid, "explicit")
    assert grid.nt > 2 * block
    assert len(calls) == -(-grid.nt // block)



@pytest.mark.parametrize("case", ["wave_sine_beta", "dirac"])
def test_diagonal_tables_are_inverted_and_factored_without_lapack(case, monkeypatch):
    # the time-dependent wave's σ(dt) and companion metric are diagonal: its
    # explicit solve calls neither np.linalg.inv nor np.linalg.cholesky.
    # Dirac's σ(dt) is not diagonal: one inv per table build, and its
    # diagonal companion metric takes no cholesky either
    sys_, bcs = sine_beta_wave() if case == "wave_sine_beta" else dirac_setup(
        geometry.minkowski_strip((0.0, 0.3), (1.0,)))
    grid = make_grid(sys_, 40)
    short_blocks(monkeypatch, grid, "explicit")
    calls = {}
    for name in ("inv", "cholesky"):
        counted(monkeypatch, np.linalg, name, calls)
    counted(monkeypatch, solver, "_explicit_tables", calls)
    solve(sys_, bcs, h=lambda xs: bump_state(xs, {0: (0.5, 0.2, 1.0)}, sys_.fiber_rank),
          grid=grid, force=True)
    block = block_length(sys_, grid, "explicit")
    builds = 1 if sys_.static else -(-grid.nt // block)
    assert builds == 1 or grid.nt > 2 * block
    assert calls == ({"_explicit_tables": builds} if case == "wave_sine_beta"
                     else {"_explicit_tables": builds, "inv": builds})


@pytest.mark.parametrize("case", ["advection", "wave", "wave_sine_beta", "wave_reversed"])
def test_diagonal_sigma_dt_inverse_is_bitwise_lapacks(case, monkeypatch):
    # the reciprocal of a diagonal σ(dt), negative entries included (the
    # time-reversed wave), gives bitwise the tables of LAPACK's inverse
    sys_, bcs, nx, _ = real_cases()["wave" if case == "wave_reversed" else case]
    if case == "wave_reversed":
        sys_ = solver.time_reversed(sys_, sys_.chart.t_range)
    grid = make_grid(sys_, nx)
    bc_map, ts = boundary.as_bc_map(sys_, bcs), grid.ts[:solver._BLOCK]
    tables = solver._explicit_tables(sys_, bc_map, grid, ts, False)
    monkeypatch.setattr(solver, "_entries", lambda M: (M, [(0, 1)]))    # as if σ(dt) were full
    ref = solver._explicit_tables(sys_, bc_map, grid, ts, False)
    assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(tables, ref))


def test_energy_constant_refuses_a_system_without_a_positive_metric(strip):
    # the Klein-Gordon reduction's σ(dt) is singular and its metric G is
    # diag(1, −1, 1): the diagonal factor hands it to LAPACK, which refuses
    kg = reduction.kg_to_first_order(
        reduction.SecondOrderProblem("klein_gordon", strip, k=1, mass=1.0))
    assert kg.positive_metric_at(0.0, [[0.5]]) is None
    with pytest.raises(ContractError, match="kg_reduction: no positive companion metric") as err:
        estimate_energy_constant(kg)
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)


# -- the refusal policy requires (S)


def test_solve_refuses_a_system_that_fails_s(strip):
    sys_ = system.constant_system(strip, [[[1.0, 0.3], [0.0, 1.0]], np.diag([1.0, -1.0])], None)
    bcs = {LEFT: boundary.custom_bc(np.diag([1.0, 0.0])),
           RIGHT: boundary.custom_bc(np.diag([0.0, 1.0]))}
    for face, bc in bcs.items():
        assert boundary.admissibility(sys_, bc, faces=[face]).admissible
    assert not system.check_symmetric(sys_).verdict
    grid = make_grid(sys_, 16)
    h = lambda xs: bump_state(xs, {0: (0.5, 0.2, 1.0)}, 2)     # noqa: E731
    with pytest.raises(NotSymmetricError, match=r"system 'custom' fails \(S\)"):
        solve(sys_, bcs, h=h, grid=grid)
    assert np.isfinite(solve(sys_, bcs, h=h, grid=grid, force=True).values).all()


# -- real problems step in real arithmetic


def complex_arithmetic(monkeypatch):
    """Make every solve pick complex128, as for a problem with complex tables."""
    monkeypatch.setattr(solver, "_real",
                        lambda *arrays: [np.asarray(a, dtype=complex) for a in arrays])


def with_complex_c(sys_, after=-np.inf):
    """sys_ with C + ½i·I at the times after ``after``: a skew-Hermitian shift,
    so (S), (P) and the boundary form are those of sys_."""
    N = sys_.fiber_rank

    def coeff(t, xs):
        A, C = sys_.coeff_at(t, xs)
        on = np.broadcast_to(np.asarray(t) > after, (xs.shape[0],))
        return A, C + 0.5j * on[:, None, None] * np.eye(N)

    return system.FriedrichsSystem(sys_.chart, N, coeff, sys_.metric, sys_.metric_positive,
                                   layout=sys_.layout,
                                   time_independent=after == -np.inf and sys_.time_independent)


def real_cases():
    strip = geometry.minkowski_strip((0.0, 0.3), (1.0,))
    wave = wave_setup(strip)
    return {"advection": (*advection_setup(strip), 64, {0: (0.5, 0.2, 1.0)}),
            "wave": (*wave, 48, {0: (0.5, 0.2, 1.0), 1: (0.4, 0.2, 0.5)}),
            "wave_sine_beta": (*sine_beta_wave(), 24, {0: (0.5, 0.2, 1.0)}),
            **{case: (*pair, 48, {0: (0.5, 0.25, 1.0), 1: (0.4, 0.2, 0.5)})
               for case, pair in implicit_cases().items()}}


@pytest.mark.parametrize("case", sorted(real_cases()))
def test_real_problems_step_in_real_arithmetic(case, monkeypatch):
    # a real system with real data gives a float64 field within float noise
    # of the same solve in complex arithmetic, and the same energy
    sys_, bcs, nx, bumps = real_cases()[case]
    grid = make_grid(sys_, nx)
    h = bump_state(grid.xs, bumps, sys_.fiber_rank)
    fld = solve(sys_, bcs, h=h, grid=grid)
    complex_arithmetic(monkeypatch)
    ref = solve(sys_, bcs, h=h, grid=grid)
    assert fld.values.dtype == np.float64 and ref.values.dtype == np.complex128
    assert_close(fld.values, ref.values, 1e-11)
    assert_close(energy_trace(fld, sys_).energy, energy_trace(ref, sys_).energy, 1e-12)


@pytest.mark.parametrize("case", ["wave_sine_beta", "heat_static", "kg_sine_h"])
def test_energy_of_a_real_field_is_that_of_the_field_in_complex(case):
    sys_, _, nx, _ = real_cases()[case]
    grid = make_grid(sys_, nx)
    vals = np.random.default_rng(7).standard_normal((grid.nt + 1, grid.xs.size,
                                                      sys_.fiber_rank))
    real, cplx = (energy_trace(GridField(v, grid), sys_) for v in (vals, vals.astype(complex)))
    assert real.energy.tobytes() == cplx.energy.tobytes()
    assert real.flux.tobytes() == cplx.flux.tobytes()


def test_a_real_field_is_written_as_complex128(strip, tmp_path):
    sys_, bcs = advection_setup(strip)
    grid = make_grid(sys_, 16)
    fld = solve(sys_, bcs, h=bump_state(grid.xs, {0: (0.5, 0.2, 1.0)}, 1), grid=grid)
    assert fld.values.dtype == np.float64
    write_field(tmp_path / "real.bin", fld)
    write_field(tmp_path / "complex.bin", GridField(fld.values.astype(complex), grid))
    assert (tmp_path / "real.bin").read_bytes() == (tmp_path / "complex.bin").read_bytes()


def complex_cases():
    heat, robin = implicit_cases()["heat_static"]
    return {"dirac_mit": (*dirac_setup(geometry.minkowski_strip((0.0, 0.3), (1.0,))), 48),
            "heat_complex_c": (with_complex_c(heat), robin, 48)}


@pytest.mark.parametrize("case", sorted(complex_cases()))
def test_complex_problems_run_bitwise_in_complex_arithmetic(case, monkeypatch):
    # a problem with complex tables never touches the real path: its field and
    # energy are bitwise those of a solve made complex throughout
    sys_, bcs, nx = complex_cases()[case]
    grid = make_grid(sys_, nx)
    h = bump_state(grid.xs, {0: (0.5, 0.2, 1.0)}, sys_.fiber_rank).real

    def run():
        fld = solve(sys_, bcs, h=h, grid=grid)
        return fld.values, energy_trace(fld, sys_)

    values, trace = run()
    complex_arithmetic(monkeypatch)
    ref_values, ref_trace = run()
    assert values.dtype == np.complex128 and np.any(values.imag)
    assert values.tobytes() == ref_values.tobytes()
    assert trace.energy.tobytes() == ref_trace.energy.tobytes()
    assert trace.flux.tobytes() == ref_trace.flux.tobytes()


def late_complex_forcing(N, t_star):
    """A forcing bump that gains an imaginary part after t_star."""
    def f(t, xs2):
        out = np.zeros((xs2.shape[0], N))
        out[:, 0] = smooth_bump(xs2[:, 0], 0.5, 0.2) * math.exp(-((t - 0.15) / 0.1) ** 2)
        return out * (1 + 1j) if t > t_star else out

    return f


def widening_cases():
    strip = geometry.minkowski_strip((0.0, 0.3), (1.0,))
    heat, robin = implicit_cases()["heat_static"]
    heat_h, robin_h = implicit_cases()["heat_sine_h"]
    return {"advection_forcing": (*advection_setup(strip), late_complex_forcing(1, 0.1)),
            "heat_forcing": (heat, robin, late_complex_forcing(2, 0.1)),
            "heat_sine_h_complex_c": (with_complex_c(heat_h, 0.1), robin_h, None)}


@pytest.mark.parametrize("case", sorted(widening_cases()))
def test_a_field_widens_to_complex_from_its_first_complex_level(case, monkeypatch):
    # a real problem whose C turns complex after t* is stepped in real
    # arithmetic up to t* and in complex arithmetic from its first complex
    # block; a forcing that turns complex fixes complex arithmetic for the
    # whole solve, its field real-valued up to t*.  No ComplexWarning, and
    # close to the solve that is complex from the start
    import warnings

    sys_, bcs, f = widening_cases()[case]
    grid = make_grid(sys_, 32)
    h = bump_state(grid.xs, {0: (0.4, 0.2, 1.0)}, sys_.fiber_rank)
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        fld = solve(sys_, bcs, f=f, h=h, grid=grid)
    complex_arithmetic(monkeypatch)
    ref = solve(sys_, bcs, f=f, h=h, grid=grid)
    assert fld.values.dtype == np.complex128
    assert not np.any(fld.values[grid.ts <= 0.1].imag) and np.any(fld.values[-1].imag)
    assert_close(fld.values, ref.values, 1e-11)
