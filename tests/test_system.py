import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friedrichs import boundary, clifford, geometry, reduction, solver, system
from friedrichs.errors import ContractError, NotHyperbolicError
from friedrichs.system import (HyperbolicReport, advection_system, beta_normalize,
                               check_conditions, check_hyperbolic, check_positive,
                               check_symmetric, constant_system,
                               constant_characteristic, find_lambda,
                               formal_adjoint, lambda_shift)

from conftest import smooth_bump


def wave_system(chart, k=1):
    prob = reduction.SecondOrderProblem("normally_hyperbolic", chart, k=k)
    return reduction.wave_to_first_order(prob)


def kg_system(chart, mass):
    prob = reduction.SecondOrderProblem("klein_gordon", chart, k=1, mass=mass)
    return reduction.kg_to_first_order(prob)


def test_symbol_zero_covector(strip):
    adv = advection_system(strip)
    assert np.allclose(adv.symbol(0.1, [0.5], [0.0, 0.0]), 0.0)


def test_symbol_dt_advection(strip):
    adv = advection_system(strip)
    assert np.allclose(adv.symbol(0.1, [0.5], [1.0, 0.0]), [[1.0]])


def test_symbol_linearity(strip):
    rng = np.random.default_rng(0)
    wave = wave_system(strip)
    for _ in range(5):
        xi, eta = rng.standard_normal((2, 2))
        a, b = rng.standard_normal(2)
        lhs = wave.symbol(0.2, [0.3], a * xi + b * eta)
        rhs = a * wave.symbol(0.2, [0.3], xi) + b * wave.symbol(0.2, [0.3], eta)
        assert np.allclose(lhs, rhs, atol=1e-13)


def test_symbol_rejects_wrong_arity(strip):
    with pytest.raises(ContractError):
        advection_system(strip).symbol(0.0, [0.5], [1.0, 0.0, 0.0])


def test_dirac_symmetric(strip):
    from friedrichs import clifford

    dirac = clifford.dirac_system(clifford.build_rep(2), strip)
    assert check_symmetric(dirac).verdict


def test_nonsymmetric_detected(strip):
    bad = constant_system(strip, [np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])], None)
    rep = check_symmetric(bad)
    assert not rep.verdict
    assert rep.max_asymmetry > 0.1


def test_wave_symmetric_and_hyperbolic(strip):
    wave = wave_system(strip)
    assert check_symmetric(wave).verdict
    rep = check_hyperbolic(wave)
    assert rep.verdict and rep.oriented_verdict and rep.dt_form_positive


def test_advection_hyperbolic(strip):
    assert check_hyperbolic(advection_system(strip)).verdict


def test_kg_not_hyperbolic(strip):
    # σ(dt) for the Klein-Gordon reduction is the singular off-diagonal block;
    # brute-force near-null covectors confirm the form is indefinite
    kg = kg_system(strip, 1.0)
    rep = check_hyperbolic(kg)
    assert not rep.verdict
    assert not rep.dt_form_positive
    assert kg.time_sign == 0
    tau = np.array([1.0, 0.999])
    W = kg.metric_at(0.2, np.array([[0.5]]))[0] @ kg.symbol(0.2, [0.5], tau)
    ev = np.linalg.eigvalsh(0.5 * (W + W.conj().T))
    assert ev[0] < -1e-3 < 1e-3 < ev[-1]


def test_check_hyperbolic_requires_symmetric(strip):
    bad = constant_system(strip, [np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])], None)
    with pytest.raises(ContractError):
        check_hyperbolic(bad)


def test_adjoint_flips_time_derivative(strip):
    ddt = constant_system(strip, [np.eye(1), np.zeros((1, 1))], None)
    adj = formal_adjoint(ddt)
    A, C = adj.coeff_at(0.3, np.array([[0.4]]))
    assert np.allclose(A[0, 0], -1.0, atol=1e-9)
    assert np.allclose(A[0, 1], 0.0, atol=1e-9)
    assert np.allclose(C[0], 0.0, atol=1e-7)


def test_adjoint_constant_coefficients_kill_divergence(strip):
    sys_ = constant_system(strip, [np.eye(2), np.diag([1.0, -1.0])], None)
    _, C = formal_adjoint(sys_).coeff_at(0.5, np.array([[0.5]]))
    assert np.max(np.abs(C)) < 1e-7


def test_adjoint_integration_by_parts():
    # variable-coefficient symmetric system: the defect of the discrete
    # pairing identity is pure discretization error, O(Δx)
    chart = geometry.SpacetimeChart(
        1, (0.0, 0.5), (1.0,),
        beta=lambda t, xs: np.ones(xs.shape[0]),
        h=lambda t, xs: (1.0 + 0.4 * np.sin(2 * np.pi * xs[:, 0]))[:, None, None] ** 2,
        time_independent=True)

    def coeff(t, xs):
        m = xs.shape[0]
        A = np.zeros((m, 2, 1, 1), dtype=complex)
        A[:, 0, 0, 0] = 1.0
        A[:, 1, 0, 0] = 1.0 + 0.5 * np.sin(2 * np.pi * xs[:, 0])
        C = np.zeros((m, 1, 1), dtype=complex)
        C[:, 0, 0] = np.cos(xs[:, 0]) * t
        return A, C

    sys_ = system.FriedrichsSystem(
        chart, 1, coeff, lambda t, xs: np.ones((xs.shape[0], 1, 1), dtype=complex),
        metric_positive=True, time_independent=False)
    adj = formal_adjoint(sys_)
    defects = []
    for nx in (32, 64):
        grid = solver.make_grid(sys_, nx, cfl=0.5)
        vals = np.zeros((grid.nt + 1, grid.nx, 1), dtype=complex)
        for m, t in enumerate(grid.ts):
            tb = smooth_bump(np.array([t]), 0.25, 0.2)[0]
            vals[m, :, 0] = tb * smooth_bump(grid.xs, 0.5, 0.25) * (1 + 0.3j)
        fld = solver.GridField(vals, grid)
        Sv = solver.apply_operator(sys_, fld).values
        Sadj = solver.apply_operator(adj, fld).values
        mu = geometry.volume_density(chart, 0.0, grid.xs[:, None])
        w = mu * grid.dx * grid.dt
        lhs = np.sum(Sv.conj() * vals * w[None, :, None])
        rhs = np.sum(vals.conj() * Sadj * w[None, :, None]).conj()
        defects.append(abs(lhs - rhs))
    assert defects[0] < 0.05
    assert defects[1] < 0.8 * defects[0]


def test_positivity_kg_mass_one(strip):
    rep = check_positive(kg_system(strip, 1.0))
    assert rep.passed
    assert rep.c_min == pytest.approx(2.0, abs=1e-6)


def test_positivity_kg_massless_fails(strip):
    rep = check_positive(kg_system(strip, 0.0))
    assert not rep.passed
    assert rep.c_min == pytest.approx(0.0, abs=1e-6)


def test_positivity_reaction_diffusion_shift(strip):
    prob = reduction.SecondOrderProblem("reaction_diffusion", strip, k=1,
                                        c=lambda t, xs: -1.0)
    assert check_positive(reduction.reaction_diffusion_to_first_order(prob, 2.0)).passed


def test_constant_characteristic_catalog(strip):
    from friedrichs import clifford

    dirac = clifford.dirac_system(clifford.build_rep(2), strip)
    assert constant_characteristic(dirac) == (True, 0)
    assert constant_characteristic(wave_system(strip)) == (True, 1)
    kg = kg_system(strip, 1.0)
    assert constant_characteristic(kg) == (True, 1)
    # oracle: σ(n♭)(0, dt-slot) = 0 spans the kernel at a sample point
    q = geometry.BoundaryPoint(0.3, geometry.RIGHT, [1.0])
    sn = kg.symbol(q.t, q.x, geometry.outward_normal(strip, q))
    v = np.array([0.0, 1.0, 0.0])
    assert np.linalg.norm(sn @ v) < 1e-12


def test_beta_normalize_fixes_nothing_when_trivial(strip):
    adv = advection_system(strip)
    norm = beta_normalize(adv)
    xs = np.array([[0.3], [0.8]])
    A0, C0 = adv.coeff_at(0.2, xs)
    A1, C1 = norm.coeff_at(0.2, xs)
    assert np.allclose(A0, A1) and np.allclose(C0, C1)
    assert np.allclose(adv.metric_at(0.2, xs), norm.metric_at(0.2, xs))


def test_beta_normalize_dirac_positive(strip):
    from friedrichs import clifford

    dirac = clifford.dirac_system(clifford.build_rep(2), strip)
    norm = beta_normalize(dirac)
    assert norm.metric_positive
    xs = np.array([[0.1], [0.6]])
    for G in norm.metric_at(0.4, xs):
        assert np.min(np.linalg.eigvalsh(G)) > 0.5
    A, _ = norm.coeff_at(0.4, xs)
    assert np.allclose(A[:, 0], np.eye(2))


def test_beta_normalize_preserves_boundary_form(strip):
    # time-sign +1 system on a β = 1 chart: the form is preserved exactly
    wave = wave_system(strip)
    norm = beta_normalize(wave)
    q = geometry.BoundaryPoint(0.7, geometry.LEFT, [0.0])
    nb = geometry.outward_normal(strip, q)
    rng = np.random.default_rng(1)
    for _ in range(5):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        f0 = v.conj() @ wave.metric_at(q.t, q.x[None, :])[0] @ wave.symbol(q.t, q.x, nb) @ v
        f1 = v.conj() @ norm.metric_at(q.t, q.x[None, :])[0] @ norm.symbol(q.t, q.x, nb) @ v
        assert abs(f0 - f1) < 1e-10


def test_admissibility_verdict_invariant_under_normalization(strip):
    from friedrichs import boundary

    wave = wave_system(strip)
    nl = boundary.neumann_like(wave.layout)
    before = boundary.admissibility(wave, nl, n_time=4)
    after = boundary.admissibility(beta_normalize(wave), nl, n_time=4)
    assert before.admissible == after.admissible == True
    tr_bad = boundary.transparent(-1.0, wave.layout)
    assert (boundary.admissibility(wave, tr_bad, n_time=4).admissible
            == boundary.admissibility(beta_normalize(wave), tr_bad, n_time=4).admissible
            == False)


def test_lambda_shift_identity_and_symbols(strip):
    wave = wave_system(strip)
    shift0 = lambda_shift(wave, 0.0)
    xs = np.array([[0.25]])
    A0, C0 = wave.coeff_at(0.1, xs)
    A1, C1 = shift0.coeff_at(0.1, xs)
    assert np.allclose(A0, A1) and np.allclose(C0, C1)
    shifted = lambda_shift(wave, 3.0)
    rng = np.random.default_rng(2)
    for _ in range(4):
        xi = rng.standard_normal(2)
        assert np.allclose(shifted.symbol(0.1, [0.25], xi),
                           wave.symbol(0.1, [0.25], xi))
    _, C2 = shifted.coeff_at(0.1, xs)
    assert np.allclose(C2 - C0, 3.0 * A0[:, 0])


TRANSFORMS = {"time_reversed": lambda s: solver.time_reversed(s, s.chart.t_range),
              "lambda_shift": lambda s: lambda_shift(s, 2.0),
              "formal_adjoint": formal_adjoint,
              "beta_normalize": beta_normalize}

PARENTS = {
    "dirac": lambda: clifford.dirac_system(clifford.build_rep(2),
                                           geometry.minkowski_strip((0.0, 1.0), (1.0,))),
    "wave_in_time": lambda: wave_system(geometry.named_profile_chart(
        (0.0, 1.0), (1.0,), beta={"profile": "sine", "waves_t": 1.0})),
}


@pytest.mark.parametrize("parent", PARENTS)
@pytest.mark.parametrize("transform", TRANSFORMS)
def test_a_transform_starts_with_an_empty_cache_and_reports_its_own_time_sign(
        transform, parent):
    # the parent's s* is cached before the transform; the transform must not
    # read it, and it keeps the parent's fiber rank, layout and time dependence
    sys_ = PARENTS[parent]()
    assert sys_.time_sign != 0 and "time_sign" in sys_._cache
    out = TRANSFORMS[transform](sys_)
    assert out._cache == {}
    assert out.time_sign == TRANSFORMS[transform](PARENTS[parent]()).time_sign
    assert (out.fiber_rank, out.layout, out.time_independent) == (
        sys_.fiber_rank, sys_.layout, sys_.time_independent)
    assert out.chart.constant == sys_.chart.constant
    assert out.chart.time_independent == sys_.chart.time_independent


def test_the_reversed_dirac_system_has_time_sign_plus_one():
    dirac = PARENTS["dirac"]()
    assert dirac.time_sign == -1
    assert solver.time_reversed(dirac, dirac.chart.t_range).time_sign == 1
    assert dirac.time_sign == -1


def test_advection_is_the_constant_system_of_its_speed(strip):
    t, xs = np.array([0.1, 0.7]), np.array([[0.2], [0.9]])
    for speed in (2, -0.5, 1.5 + 0.5j):
        adv, const = advection_system(strip, speed), constant_system(
            strip, [[[1.0]], [[speed]]], None)
        for a, b in zip((*adv.coeff_at(t, xs), adv.metric_at(t, xs)),
                        (*const.coeff_at(t, xs), const.metric_at(t, xs))):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert adv.coeff_at(t, xs)[0][:, 1, 0, 0].tolist() == [speed, speed]
        assert (adv.name, adv.metric_positive, adv.static, adv.time_sign) == (
            "advection", True, True, 1)
    with pytest.raises(ContractError, match="1\\+1D"):
        advection_system(geometry.minkowski_strip((0.0, 1.0), (1.0, 1.0)))


def test_find_lambda_reaction_diffusion(strip):
    prob = reduction.SecondOrderProblem("reaction_diffusion", strip, k=1,
                                        c=lambda t, xs: -1.0)
    base = reduction.reaction_diffusion_to_first_order(prob, 0.0)
    assert find_lambda(base) == 2


def test_positivity_monotone_in_lambda(strip):
    prob = reduction.SecondOrderProblem("reaction_diffusion", strip, k=1,
                                        c=lambda t, xs: -1.0)
    base = reduction.reaction_diffusion_to_first_order(prob, 0.0)
    lam_star = find_lambda(base)
    assert not check_positive(lambda_shift(base, lam_star - 1)).passed
    for lam in range(lam_star, lam_star + 3):
        assert check_positive(lambda_shift(base, lam)).passed


def test_check_conditions_of_the_wave(strip):
    sym, hyp, pos, (constant, char_dim) = check_conditions(wave_system(strip))
    assert sym.verdict and hyp.oriented_verdict and constant
    assert char_dim == 1
    assert pos is not None


def test_check_conditions_certifies_symmetry_once(strip, monkeypatch):
    # check_hyperbolic certifies (S) as its guard; check_conditions has just
    # certified it and must not repeat the (S) evaluation
    sys_ = clifford.dirac_system(clifford.build_rep(2), strip)
    assert sys_.time_sign == -1      # cached before counting
    calls = []
    coeff_at = system.FriedrichsSystem.coeff_at
    monkeypatch.setattr(system.FriedrichsSystem, "coeff_at",
                        lambda self, t, xs: calls.append(t) or coeff_at(self, t, xs))

    def counted(check, *args, **kwargs):
        calls.clear()
        return check(*args, **kwargs), len(calls)

    _, n_sym = counted(check_symmetric, sys_)
    hyp, n_hyp = counted(check_hyperbolic, sys_, seed=3)
    pos, n_pos = counted(check_positive, sys_)
    char, n_char = counted(constant_characteristic, sys_)
    (sym2, hyp2, pos2, char2), n_all = counted(check_conditions, sys_, seed=3)
    assert n_sym == 1 and n_hyp == 2 and n_char == 1     # each check's samples in one call
    assert n_all == n_hyp + n_pos + n_char       # one (S), not two
    assert sym2.verdict and hyp2 == hyp and char2 == char
    assert np.array_equal(pos2.c_by_slice, pos.c_by_slice) and pos2.c_min == pos.c_min


def hyperbolic_reference(sys_, seed, per_axis=8, n_cone=16, tol=1e-10):
    """check_hyperbolic point by point, from the same seeded stream: one
    ``symbol`` call per covector and one ``eigvalsh`` call per matrix."""
    rng = np.random.default_rng(seed)
    ts, xs = sys_.chart.sample_interior(per_axis)
    n, s = sys_.dim_space, sys_.time_sign
    eigs, dt_eigs = [], []
    for t in ts[:: max(1, len(ts) // 4)]:
        for x in xs[:: max(1, xs.shape[0] // 16)]:
            G = sys_.metric_at(t, x[None])[0]
            hinv = sys_.chart.h_inv_at(t, x[None])[0]
            beta = sys_.chart.beta_at(t, x[None])[0]
            taus = [np.eye(n + 1)[0]]
            for _ in range(n_cone):
                u = rng.standard_normal(n)
                rho = rng.uniform(0.0, 0.95) / beta
                taus.append(np.concatenate([[1.0], rho * u / np.sqrt(u @ hinv @ u)]))
            for j, tau in enumerate(taus):
                W = G @ sys_.symbol(t, x, tau)
                eigs.append(np.linalg.eigvalsh(0.5 * (W + W.conj().T)))
                if j == 0:
                    dt_eigs.append(eigs[-1][0])
    eigs = np.array(eigs)
    min_eig = float(eigs[:, 0].min())
    return HyperbolicReport(min_eig > tol, bool(s != 0 and (s * eigs).min() > tol),
                            min_eig, s, bool(min(dt_eigs) > tol))


def hyperbolic_catalog():
    strip = geometry.minkowski_strip((0.0, 1.0), (1.0,))
    sine_beta = geometry.named_profile_chart(
        (0.0, 0.4), (1.0,), beta={"profile": "sine", "base": 1.3, "amplitude": 0.2,
                                  "waves": 1, "waves_t": 1.0})
    square = geometry.minkowski_strip((0.0, 1.0), (1.0, 1.0))
    return {
        "wave": wave_system(strip),
        "dirac": clifford.dirac_system(clifford.build_rep(2), strip),
        "kg": kg_system(strip, 1.0),
        "advection": advection_system(strip),
        "wave_sine_beta": wave_system(sine_beta),
        "dirac_2+1": clifford.dirac_system(clifford.build_rep(3), square),
        "wave_ultrastatic_2+1": wave_system(
            geometry.ultrastatic((0.0, 1.0), (1.0, 1.0), eps=0.25)),
    }


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", sorted(hyperbolic_catalog()))
def test_check_hyperbolic_matches_the_pointwise_reference(name, seed):
    sys_ = hyperbolic_catalog()[name]
    rep, ref = check_hyperbolic(sys_, seed=seed), hyperbolic_reference(sys_, seed)
    assert (rep.verdict, rep.oriented_verdict, rep.time_sign, rep.dt_form_positive) == (
        ref.verdict, ref.oriented_verdict, ref.time_sign, ref.dt_form_positive)
    assert rep.min_eigenvalue == pytest.approx(ref.min_eigenvalue, rel=1e-12)


def test_check_hyperbolic_evaluates_coefficients_once_per_check(strip, monkeypatch):
    # the 8 slices of check_symmetric's guard in one call, and the 4 of the
    # cone in one more, with s* cached
    wave = wave_system(strip)
    assert wave.time_sign == 1
    calls = []
    coeff_at = system.FriedrichsSystem.coeff_at
    monkeypatch.setattr(system.FriedrichsSystem, "coeff_at",
                        lambda self, t, xs: calls.append(t) or coeff_at(self, t, xs))
    check_hyperbolic(wave, per_axis=8)
    assert len(calls) == 2


def test_characteristics_split_in_the_companion_metric(strip):
    # σ(dt) ≠ Id: the speeds are the eigenvalues of σ(dt)⁻¹σ(dx), the
    # eigenvectors are orthonormal in P = s*·β·G·σ(dt) = σ(dt) (G = I, β = 1)
    A0 = np.array([[1.0, -2.0], [-2.0, 5.0]])
    sys_ = constant_system(strip, [A0, np.diag([0.1, 0.3])], None)
    lam, V, P = sys_.characteristics(0.2, np.array([[0.3], [0.7]]), (0.0, 1.0))
    assert lam == pytest.approx(np.tile(0.4 + np.array([-1.0, 1.0]) * np.sqrt(0.13), (2, 1)),
                                abs=1e-12)
    assert np.allclose(P, A0)
    assert np.allclose(np.conj(np.swapaxes(V, 1, 2)) @ P @ V, np.eye(2))
    assert np.allclose(sys_.positive_metric_at(0.2, [[0.5]])[0], A0)


def test_characteristics_refuse_a_point_where_the_dt_form_is_indefinite(strip):
    # σ(dt) = diag(1, ±1) is definite at the samples behind the time sign
    # (x ≤ 0.94) and indefinite past x = 0.97; diag(1, ±0) there is singular,
    # and the split names the point too
    def dipping(entry):
        def coeff(t, xs):
            A = np.zeros((xs.shape[0], 2, 2, 2), dtype=complex)
            A[:, 0, 0, 0] = 1.0
            A[:, 0, 1, 1] = np.where(xs[:, 0] > 0.97, entry, 1.0)
            A[:, 1] = np.eye(2)
            return A, np.zeros((xs.shape[0], 2, 2), dtype=complex)

        return system.FriedrichsSystem(
            strip, 2, coeff, lambda t, xs: np.broadcast_to(np.eye(2), (xs.shape[0], 2, 2)),
            metric_positive=True)

    for entry in (0.0, -0.0):
        with pytest.raises(NotHyperbolicError, match=r"at t=0\.0, x=\[0\.99\]"):
            dipping(entry).characteristics(0.0, np.array([[0.5], [0.99]]), (0.0, 1.0))
    sys_ = dipping(-1.0)
    assert sys_.time_sign == 1
    with pytest.raises(NotHyperbolicError, match=r"x=\[0\.99\]"):
        sys_.characteristics(0.0, np.array([[0.5], [0.99]]), (0.0, 1.0))
    with pytest.raises(NotHyperbolicError):
        solver.solve(sys_, boundary.no_condition(2), grid=solver.make_grid(sys_, 16),
                     force=True)


def _catalog():
    """Catalog builders on charts whose coefficients vary in x (and in t),
    and the formal adjoint of each."""
    chart = geometry.named_profile_chart(
        (0.0, 1.0), (1.0,),
        beta={"profile": "sine", "base": 1.3, "amplitude": 0.2, "waves": 1, "waves_t": 1.0},
        h_scale={"profile": "sine", "amplitude": 0.1, "waves": 2, "waves_t": 0.5})
    heat = reduction.SecondOrderProblem("reaction_diffusion", chart, k=1, c=lambda t, xs: -1.0)
    base = {"wave": wave_system(chart), "kg": kg_system(chart, 1.0),
            "heat": reduction.reaction_diffusion_to_first_order(heat, 2.0),
            "dirac": clifford.dirac_system(clifford.build_rep(2),
                                           geometry.ultrastatic((0.0, 1.0), (1.0,), eps=0.3))}
    return {**base, **{name + "_adjoint": formal_adjoint(s) for name, s in base.items()}}


CATALOG = _catalog()


def _evaluators():
    """name -> fn(t, xs): the tables of each catalog system and its adjoint,
    of the systems derived from them, and of the chart's β and h."""
    systems = {**CATALOG,
               "wave_normalized": system.beta_normalize(CATALOG["wave"]),
               "dirac_normalized": system.beta_normalize(CATALOG["dirac"]),
               "heat_shift": system.lambda_shift(CATALOG["heat"], 0.7),
               "wave_reversed": solver.time_reversed(CATALOG["wave"], (0.1, 0.9)),
               "dirac_reversed": solver.time_reversed(CATALOG["dirac"], (0.0, 1.0))}
    fns = {name: lambda t, xs, s=s: (*s.coeff_at(t, xs), s.metric_at(t, xs))
           for name, s in systems.items()}
    chart = CATALOG["wave"].chart
    fns["chart"] = lambda t, xs: (chart.beta_at(t, xs), chart.h_at(t, xs), chart.h_inv_at(t, xs))
    return fns


EVALUATORS = _evaluators()


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(EVALUATORS)),
       st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=2, max_size=12),
       st.booleans(), st.data())
def test_a_coefficient_row_does_not_depend_on_the_rest_of_the_batch(name, rows, one_time, data):
    # the solver evaluates a block of levels on cells ∪ faces in one call,
    # one time per row, so every row must be exactly what evaluating at that
    # (t, x) alone gives; ``one_time`` passes the first row's t as a scalar
    ts, xs = np.array(rows).T
    ts, xs = (ts[0] if one_time else ts), xs[:, None]
    i = data.draw(st.integers(0, len(xs) - 1))
    batch = EVALUATORS[name](ts, xs)
    alone = EVALUATORS[name](float(np.broadcast_to(ts, len(xs))[i]), xs[i:i + 1])
    for table, row in zip(batch, alone):
        assert table.shape[0] == len(xs)
        assert table[i].tobytes() == row[0].tobytes()


def time_sign_reference(sys_):
    """The time sign point by point: one eigvalsh per subsampled point."""
    ts, xs = sys_.chart.sample_interior(8)
    signs = set()
    for t in ts[::3]:
        A, _ = sys_.coeff_at(t, xs)
        W = np.einsum("pij,pjk->pik", sys_.metric_at(t, xs), A[:, 0])
        for i in range(0, xs.shape[0], max(1, xs.shape[0] // 16)):
            ev = np.linalg.eigvalsh(0.5 * (W[i] + W[i].conj().T))
            tol = 1e-12 * max(1.0, float(np.max(np.abs(ev))))
            signs.add(1 if np.all(ev > tol) else -1 if np.all(ev < -tol) else 0)
    return signs.pop() if len(signs) == 1 else 0


def time_sign_cases():
    strip = geometry.minkowski_strip((0.0, 1.0), (1.0,))

    def split_dt_form(t, xs):
        # σ(dt) = diag(1, ±1): definite at every point, with both signs
        A = np.zeros((xs.shape[0], 2, 2, 2), dtype=complex)
        A[:, 0, 0, 0] = 1.0
        A[:, 0, 1, 1] = np.where(xs[:, 0] > 0.5, -1.0, 1.0)
        A[:, 1] = np.eye(2)
        return A, np.zeros((xs.shape[0], 2, 2), dtype=complex)

    custom = {
        "custom_indefinite": constant_system(strip, [np.diag([1.0, -1.0]), np.eye(2)], None),
        "custom_split": system.FriedrichsSystem(
            strip, 2, split_dt_form,
            lambda t, xs: np.broadcast_to(np.eye(2), (xs.shape[0], 2, 2)),
            metric_positive=True)}
    catalog = {**hyperbolic_catalog(), **CATALOG}
    return {**catalog, **{name + "_reversed": solver.time_reversed(s, s.chart.t_range)
                          for name, s in catalog.items() if s.chart.dim_space == 1}, **custom}


@pytest.mark.parametrize("name", sorted(time_sign_cases()))
def test_time_sign_matches_the_per_point_reference(name):
    sys_ = time_sign_cases()[name]
    assert sys_.time_sign == time_sign_reference(sys_)
