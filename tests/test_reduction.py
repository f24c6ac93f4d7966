import math

import numpy as np
import pytest

from friedrichs import boundary, clifford, geometry, reduction, solver, system
from friedrichs.reduction import (SecondOrderProblem, compatibility_check,
                                  constrain_gradient, corner_derivatives, kg_to_first_order,
                                  reaction_diffusion_to_first_order,
                                  taylor_coefficients, wave_to_first_order)

from conftest import sampled_boundary_points, smooth_bump


def wave_sys(chart, k=1):
    return wave_to_first_order(
        SecondOrderProblem("normally_hyperbolic", chart, k=k))


# -- wave reduction eigenstructure -------------------------------------------


@pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_wave_boundary_spectrum(n, k):
    chart = geometry.minkowski_strip((0.0, 1.0), (1.0,) * n)
    sys_ = wave_sys(chart, k)
    assert sys_.fiber_rank == k * (n + 2)
    for face in chart.faces():
        q = sampled_boundary_points(chart, 2, 2, [face])[0]
        nb = geometry.outward_normal(chart, q)
        lam = np.sort(np.linalg.eigvalsh(sys_.symbol(q.t, q.x, nb)))
        expect = np.sort([0.0] * (n * k) + [1.0] * k + [-1.0] * k)
        assert np.max(np.abs(lam - expect)) < 1e-10
        nonneg = int(np.sum(lam >= -1e-10))
        assert nonneg == (n + 1) * k


def test_wave_reduction_2d_curved_chart():
    # curved two-dimensional slices: the h⁻¹-weighted gradient pairing keeps
    # the symbol symmetric and the boundary kernel dimension constant (= nk)
    chart = geometry.ultrastatic((0.0, 1.0), (1.0, 1.0), eps=0.25)
    sys_ = wave_sys(chart, 1)
    assert system.check_symmetric(sys_, per_axis=8).verdict
    assert system.check_hyperbolic(sys_, per_axis=4).verdict
    assert system.constant_characteristic(sys_, n_time=4, n_tang=3) == (True, 2)
    nl = boundary.neumann_like(sys_.layout)
    r = boundary.admissibility(sys_, nl, n_time=3, n_tang=3)
    assert r.admissible and r.rank_B == 3


def test_wave_eigenspace_closed_form(strip):
    # ker(σ(n♭)+ε) = (Id ⊕ ε n♭⊗)(V) ⊕ {0}
    sys_ = wave_sys(strip, 1)
    q = geometry.BoundaryPoint(0.4, geometry.RIGHT, [1.0])
    sn = sys_.symbol(q.t, q.x, geometry.outward_normal(strip, q))
    for eps in (-1.0, 1.0):
        v = np.array([1.0, eps, 0.0])
        assert np.linalg.norm(sn @ v + eps * v) < 1e-12


def test_wave_reduction_soundness(strip):
    # manufactured u = cos(πx)cos(πt) solves the homogeneous wave equation;
    # its first-order state has O(Δx + Δt) residual under the discrete operator
    sys_ = wave_sys(strip)

    def state(t, xs):
        return np.stack([-np.pi * np.cos(np.pi * xs) * np.sin(np.pi * t),
                         -np.pi * np.sin(np.pi * xs) * np.cos(np.pi * t),
                         np.cos(np.pi * xs) * np.cos(np.pi * t)], axis=1)

    res = []
    for nx in (32, 64):
        grid = solver.make_grid(sys_, nx, cfl=0.5)
        vals = np.stack([state(t, grid.xs) for t in grid.ts]).astype(complex)
        fld = solver.GridField(vals, grid)
        res.append(solver.l2_norm(solver.apply_operator(sys_, fld).values, grid))
    assert res[0] < 0.2
    assert res[1] < 0.7 * res[0]


def test_wave_drift_terms_on_static_chart(strip):
    A, C = wave_sys(strip).coeff_at(0.3, np.array([[0.4]]))
    assert np.allclose(C[0, :1, :], 0.0)          # b₀ = 0, b = 0, c = 0
    assert np.allclose(C[0, 1, :], 0.0)           # no Weingarten term
    assert np.allclose(C[0, 2, 0], -1.0)          # u̇-consistency row


def test_wave_zero_order_with_reaction(strip):
    prob = SecondOrderProblem("normally_hyperbolic", strip, k=1,
                              c=lambda t, xs: 2.5)
    _, C = wave_to_first_order(prob).coeff_at(0.0, np.array([[0.5]]))
    assert C[0, 0, 2] == pytest.approx(2.5)


# -- Klein-Gordon and reaction-diffusion --------------------------------------


@pytest.mark.parametrize("k", [1, 2])
def test_kg_boundary_spectrum(strip, k):
    kg = kg_to_first_order(SecondOrderProblem("klein_gordon", strip, k=k, mass=1.0))
    q = geometry.BoundaryPoint(0.1, geometry.LEFT, [0.0])
    sn = kg.symbol(q.t, q.x, geometry.outward_normal(strip, q))
    lam = np.sort(np.linalg.eigvals(sn).real)
    expect = np.sort([0.0] * k + [1.0] * k + [-1.0] * k)
    assert np.max(np.abs(lam - expect)) < 1e-10


def test_kg_positivity_values(strip):
    assert system.check_positive(
        kg_to_first_order(SecondOrderProblem("klein_gordon", strip, k=1, mass=1.0))
    ).c_min == pytest.approx(2.0, abs=1e-6)
    assert not system.check_positive(
        kg_to_first_order(SecondOrderProblem("klein_gordon", strip, k=1, mass=0.0))
    ).passed


def test_reaction_diffusion_heat_shift(strip):
    heat = SecondOrderProblem("reaction_diffusion", strip, k=1)
    assert system.check_positive(reaction_diffusion_to_first_order(heat, 1.0)).passed
    rep0 = system.check_positive(reaction_diffusion_to_first_order(heat, 0.0))
    assert not rep0.passed  # zero-order block has a zero eigenvalue


def test_reaction_diffusion_not_hyperbolic(strip):
    rd = reaction_diffusion_to_first_order(
        SecondOrderProblem("reaction_diffusion", strip, k=1), 1.0)
    A, _ = rd.coeff_at(0.0, np.array([[0.5]]))
    assert np.linalg.matrix_rank(A[0, 0]) == 1  # σ(dt) = diag(1, 0)
    assert not system.check_hyperbolic(rd).verdict


def reference_tables(kind, prob, t, xs):
    """A, C and G of a reduction written out block by block, each gradient
    block filled by its own loop as the three reductions once did."""
    chart, k, n = prob.chart, prob.k, prob.chart.dim_space
    N, Ik = k * (n + 1 if kind == "reaction_diffusion" else n + 2), np.eye(k)
    layout = {"normally_hyperbolic": wave_to_first_order, "klein_gordon": kg_to_first_order,
              "reaction_diffusion": reaction_diffusion_to_first_order}[kind](prob).layout
    m, slot = xs.shape[0], layout.grad_slot
    beta2, hinv = chart.beta_at(t, xs) ** 2, chart.h_inv_at(t, xs)
    A = np.zeros((m, n + 1, N, N), dtype=complex)
    C = np.zeros((m, N, N), dtype=complex)
    G = np.zeros((m, N, N), dtype=complex)
    G[:, :k, :k] = Ik
    for i in range(n):
        for j in range(n):
            A[:, 1 + i, :k, slot(j)] = -hinv[:, i, j, None, None] * Ik
            G[:, slot(i), slot(j)] = hinv[:, i, j, None, None] * Ik
        A[:, 1 + i, slot(i), :k] = -Ik
    rest = np.arange(k, N)
    if kind == "normally_hyperbolic":
        A[:, 0, :k, :k] = (1.0 / beta2)[:, None, None] * Ik
        A[:, 0, rest, rest] = 1.0
        b0, b = reduction._wave_drift(prob.chart, t, xs, beta2, hinv)
        C[:, :k, :k] = b0[:, None, None] * Ik
        for j in range(n):
            C[:, :k, slot(j)] = b[:, j, None, None] * Ik
        C[:, :k, layout.tail_start:] = prob.c_at(t, xs)
        W = reduction._weingarten(chart, t, xs, hinv)
        for i in range(n):
            for j in range(n):
                C[:, slot(i), slot(j)] = W[:, i, j, None, None] * Ik
        C[:, layout.tail_start:, :k] = -Ik
        G[:, layout.tail_start:, layout.tail_start:] = Ik
        return A, C, G
    C[:, rest, rest] = 1.0
    if kind == "klein_gordon":
        tslot = slice(k, 2 * k)
        A[:, 0, :k, tslot] = (1.0 / beta2)[:, None, None] * Ik
        A[:, 0, tslot, :k] = -Ik
        C[:, :k, :k] = prob.mass ** 2 * Ik
        G[:, tslot, tslot] = -(1.0 / beta2)[:, None, None] * Ik
    else:
        A[:, 0, :k, :k] = Ik
        C[:, :k, :k] = prob.c_at(t, xs)
    return A, C, G


@pytest.mark.parametrize("kind", ["normally_hyperbolic", "klein_gordon", "reaction_diffusion"])
@pytest.mark.parametrize("chart_name", ["sine_beta_and_h_in_time", "ultrastatic_2d"])
@pytest.mark.parametrize("k", [1, 2])
def test_reductions_are_bitwise_the_block_by_block_tables(kind, chart_name, k):
    sine = {"profile": "sine", "amplitude": 0.2, "waves_t": 1.0}
    chart = {"sine_beta_and_h_in_time": geometry.named_profile_chart(
                 (0.0, 0.5), (1.0,), beta=dict(sine, base=1.3), h_scale=sine),
             "ultrastatic_2d": geometry.ultrastatic((0.0, 1.0), (1.0, 2.0), eps=0.3)}[chart_name]
    c = 0.7 * np.eye(k) - 0.1
    prob = SecondOrderProblem(kind, chart, k=k, mass=1.3,
                              c=lambda t, xs: np.broadcast_to(c, (xs.shape[0], k, k)))
    sys_ = {"normally_hyperbolic": wave_to_first_order, "klein_gordon": kg_to_first_order,
            "reaction_diffusion": reaction_diffusion_to_first_order}[kind](prob)
    xs = np.random.default_rng(5).uniform(0.0, 1.0, (13, chart.dim_space))
    for t in (0.0, 0.37):
        got = (*sys_.coeff_at(t, xs), sys_.metric_at(t, xs))
        for new, ref in zip(got, reference_tables(kind, prob, t, xs)):
            assert_real_part_of(new, ref)


def assert_real_part_of(new, ref):
    """A real builder's float64 table is bitwise the real part of its complex
    reference, and the reference's imaginary part is exactly zero."""
    assert new.dtype == np.float64 and ref.dtype == np.complex128
    assert not np.any(ref.imag)
    assert new.tobytes() == np.ascontiguousarray(ref.real).tobytes()


SINE_BETA = {"profile": "sine", "base": 1.3, "amplitude": 0.2, "waves": 1, "waves_t": 1.0}


def test_real_builders_table_in_float64_and_complex_ones_in_complex128():
    # every real-valued A, C, G and G_B is float64 where it comes in
    # (``as_table``), whatever its builder's dtype: the 1+1-D Dirac operator's
    # too, whose bag condition, a complex c and a complex custom table stay
    # complex128, and so does the 3+1-D Dirac operator
    chart = geometry.named_profile_chart((0.0, 0.4), (1.0,), beta=SINE_BETA)
    t, xs = np.array([0.0, 0.13, 0.31]), np.array([[0.0], [0.4], [1.0]])

    def reduced(kind, c=None, lam=0.0):
        prob = SecondOrderProblem(kind, chart, k=1, mass=1.0, c=c)
        return {"normally_hyperbolic": wave_to_first_order, "klein_gordon": kg_to_first_order,
                "reaction_diffusion": lambda p: reaction_diffusion_to_first_order(p, lam)}[kind](
                    prob)

    def dtypes(sys_, bcs, xs=xs):
        q = geometry.boundary_points(sys_.chart, geometry.LEFT, t)
        return ([a.dtype for a in (*sys_.coeff_at(t, xs), sys_.metric_at(t, xs))]
                + [bc.matrix(sys_.chart, q).dtype for bc in bcs])

    real, cplx = np.dtype(np.float64), np.dtype(np.complex128)
    wave, kg, heat = (reduced(kind, lambda t, xs: -1.0, 2.0)
                      for kind in ("normally_hyperbolic", "klein_gordon", "reaction_diffusion"))
    families = [boundary.neumann_like, boundary.dirichlet, lambda layout: boundary.robin(
        0.5, 1.0, layout), lambda layout: boundary.transparent(1.0, layout)]
    for sys_ in (wave, kg, heat, reduced("normally_hyperbolic")):
        assert dtypes(sys_, [bc(sys_.layout) for bc in families]) == [real] * 7
    flat = [[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]
    for sys_ in (system.advection_system(chart), system.constant_system(chart, flat, None)):
        N = sys_.fiber_rank
        assert dtypes(sys_, [boundary.zero_trace(N), boundary.no_condition(N)]) == [real] * 5
    for kind in ("normally_hyperbolic", "reaction_diffusion"):
        assert dtypes(reduced(kind, lambda t, xs: -1.0 + 0.5j), []) == [real, cplx, real]
    custom = system.constant_system(chart, flat, 0.5j * np.eye(2), [[1.0, 0.0], [0.0, 2.0]])
    assert dtypes(custom, [boundary.custom_bc(np.diag([1j, 0.0]))]) == [real, cplx, real, cplx]
    rep = clifford.build_rep(2)
    dirac = clifford.dirac_system(rep, geometry.minkowski_strip((0.0, 0.4), (1.0,)))
    assert dtypes(dirac, [boundary.mit_bag(rep)]) == [real] * 3 + [cplx]
    # γ² = Id ⊗ iσ₁ is imaginary, the other γ^μ are real, and C is zero
    rep = clifford.build_rep(4)
    dirac = clifford.dirac_system(rep, geometry.minkowski_strip((0.0, 0.4), (1.0,) * 3))
    assert dtypes(dirac, [boundary.mit_bag(rep)], np.repeat(xs, 3, axis=1)) == [
        cplx, real, real, cplx]


# -- initial data --------------------------------------------------------------


def test_constrained_data_constant(strip):
    # wave layout (h', ∇^Σh, h): the gradient of a constant h is zero
    layout = wave_to_first_order(SecondOrderProblem("normally_hyperbolic", strip)).layout
    xs = np.linspace(0.0, 1.0, 65)
    values = np.ones((65, 3), dtype=complex)
    assert constrain_gradient(values, layout, xs) is values
    assert np.max(np.abs(values[:, layout.grad_slot(0)])) < 1e-12
    assert np.array_equal(values[:, [0, 2]], np.ones((65, 2)))


def sine_gradient_error(sys_, value_column):
    """Max error of the constrained gradient of sin(2πx) placed in ``value_column``."""
    xs = np.linspace(0.0, 1.0, 257)
    values = np.zeros((xs.size, sys_.fiber_rank), dtype=complex)
    values[:, value_column] = np.sin(2 * np.pi * xs)
    grad = constrain_gradient(values, sys_.layout, xs)[:, sys_.layout.grad_slot(0)][:, 0]
    return np.max(np.abs(grad - 2 * np.pi * np.cos(2 * np.pi * xs)))


def test_constrained_data_sine(strip):
    # the wave layout differentiates its tail block h
    sys_ = wave_to_first_order(SecondOrderProblem("normally_hyperbolic", strip))
    assert sine_gradient_error(sys_, -1) < 5e-3


def test_constrained_data_differentiates_the_value_block(strip):
    # layouts without a tail block differentiate their value block u
    for sys_ in (kg_to_first_order(SecondOrderProblem("klein_gordon", strip)),
                 reaction_diffusion_to_first_order(SecondOrderProblem("reaction_diffusion",
                                                                      strip))):
        assert sys_.layout.tail_start is None
        assert sine_gradient_error(sys_, 0) < 5e-3


# -- compatibility conditions --------------------------------------------------


def taylor_oracle(sys_, f, h, order, xs, delta=1e-3):
    """Independent corner-derivative recursion: match plain Taylor series.

    Expand every coefficient matrix and the forcing as Taylor series in t and
    solve A⁰(t)∂_tΨ = −(A¹(t)∂_x + C(t))Ψ + f(t) order by order for the plain
    coefficients a_m of Ψ;  𝔥_k = k!·a_k.  Shares only the series extraction
    and the spatial stencil with the shipped recursion.
    """
    xs2 = xs[:, None]
    n_der = max(order, 1)

    def coeffs_of(fn):
        return taylor_coefficients(lambda ts: np.stack([fn(t) for t in ts]),
                                   sys_.chart.t_range[0], n_der - 1, delta)

    A0 = coeffs_of(lambda t: sys_.coeff_at(t, xs2)[0][:, 0])
    A1 = coeffs_of(lambda t: sys_.coeff_at(t, xs2)[0][:, 1])
    Cc = coeffs_of(lambda t: sys_.coeff_at(t, xs2)[1])
    if f is None:
        fc = [np.zeros((xs.size, sys_.fiber_rank), dtype=complex)] * n_der
    else:
        fc = coeffs_of(lambda t: f(t, xs2))
    a = [np.asarray(h, dtype=complex)]
    a0inv0 = np.linalg.inv(A0[0])
    for m in range(order):
        rhs = fc[m] if m < len(fc) else 0.0 * a[0]
        for p in range(m + 1):
            if p < len(A1):
                grad = np.gradient(a[m - p], xs, axis=0)
                rhs = rhs - np.einsum("pij,pj->pi", A1[p], grad)
                rhs = rhs - np.einsum("pij,pj->pi", Cc[p], a[m - p])
        for p in range(1, m + 1):
            if p < len(A0):
                rhs = rhs - (m - p + 1) * np.einsum("pij,pj->pi", A0[p], a[m - p + 1])
        a.append(np.einsum("pij,pj->pi", a0inv0, rhs) / (m + 1))
    return [math.factorial(k) * a[k] for k in range(order + 1)]


def random_time_polynomial_system(chart, N, rng):
    """Constant σ(dt), quadratic-in-t spatial symbol and zero order.

    Polynomial time dependence keeps the shared Taylor extraction exact, so
    the oracle comparison isolates the recursion algebra itself.
    """
    a0 = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    a0 = a0 @ a0.conj().T + (N + 1) * np.eye(N)
    herm = rng.standard_normal((3, N, N)) + 1j * rng.standard_normal((3, N, N))
    herm = 0.5 * (herm + np.conj(np.swapaxes(herm, 1, 2)))
    czero = rng.standard_normal((3, N, N)) + 1j * rng.standard_normal((3, N, N))

    def coeff(t, xs):
        m = xs.shape[0]
        t = np.reshape(t, (-1, 1, 1))       # a scalar, or one time per row
        A = np.zeros((m, 2, N, N), dtype=complex)
        A[:, 0] = a0
        A[:, 1] = herm[0] + t * herm[1] + t ** 2 * herm[2]
        C = czero[0] + t * czero[1] + t ** 2 * czero[2]
        return A, np.broadcast_to(C, (m, N, N))

    return system.FriedrichsSystem(
        chart, N, coeff,
        lambda t, xs: np.broadcast_to(np.eye(N), (xs.shape[0], N, N)),
        metric_positive=True, time_independent=False)


def test_compat_dirichlet_order_zero(strip):
    # Dirichlet Ψ₀ = 0 on the wave reduction (robin with a = 0)
    wave = wave_sys(strip)
    bc = boundary.robin(0.0, 1.0, wave.layout)
    nx = 64

    def h_good(xs_):
        out = np.zeros((xs_.size, 3), dtype=complex)
        out[:, 0] = smooth_bump(xs_, 0.5, 0.2)
        return out

    rep = compatibility_check(wave, bc, None, h_good, 0, nx=nx)
    assert rep.passed

    def h_bad(xs_):
        out = np.zeros((xs_.size, 3), dtype=complex)
        out[:, 0] = 1.0
        return out

    rep_bad = compatibility_check(wave, bc, None, h_bad, 0, nx=nx)
    assert not rep_bad.passed
    assert rep_bad.residuals[0].max() == pytest.approx(1.0, abs=1e-12)


def test_compat_rejects_singular_time_symbol(strip):
    from friedrichs.errors import ContractError

    kg = kg_to_first_order(SecondOrderProblem("klein_gordon", strip, k=1, mass=1.0))
    bc = boundary.robin(0.0, 1.0, kg.layout)
    with pytest.raises(ContractError):
        compatibility_check(kg, bc, None,
                            lambda xs_: np.zeros((48, 3), dtype=complex), 1, nx=48)


def test_compat_time_independent_reduces_to_gb_hk(strip):
    # static coefficients: ∂_t^j G_B = 0 for j ≥ 1, so order k needs G_B 𝔥_k = 0
    wave = wave_sys(strip)
    bc = boundary.neumann_like(wave.layout)
    nx = 96
    xs = np.linspace(0.0, 1.0, nx)

    def h(xs_):
        out = np.zeros((xs_.size, 3), dtype=complex)
        out[:, 2] = np.cos(np.pi * xs_)
        out[:, 1] = -np.pi * np.sin(np.pi * xs_)
        return out

    K = 2
    rep = compatibility_check(wave, bc, None, h, K, nx=nx, tol=1e-6)
    hs = corner_derivatives(wave, None, h(xs), K, xs)
    q0 = geometry.BoundaryPoint(0.0, geometry.LEFT, [0.0])
    GB = bc.matrix(strip, q0)
    for k in range(K + 1):
        direct = np.linalg.norm(GB @ hs[k][0])
        assert rep.residuals[k, 0] == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_compat_matches_taylor_oracle(strip, seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(2, 5))
    sys_ = random_time_polynomial_system(strip, N, rng)
    nx = 48
    xs = np.linspace(0.0, 1.0, nx)
    h = rng.standard_normal((nx, N)) + 1j * rng.standard_normal((nx, N))
    h *= smooth_bump(xs, 0.5, 0.4)[:, None]
    fpoly = rng.standard_normal(3)

    def f(t, xs2):
        envelope = fpoly[0] + fpoly[1] * t + fpoly[2] * t ** 2
        return envelope * np.stack(
            [np.sin((j + 1) * np.pi * xs2[:, 0]) for j in range(N)], axis=1)

    K = 3
    hs = corner_derivatives(sys_, f, h, K, xs)
    oracle = taylor_oracle(sys_, f, h, K, xs)
    for k in range(K + 1):
        scale = max(1.0, float(np.max(np.abs(oracle[k]))))
        assert np.max(np.abs(hs[k] - oracle[k])) / scale < 1e-8, k


def test_compat_oracle_smooth_coefficients_within_fd_truncation(strip):
    # non-polynomial time dependence: both routes carry the finite-difference
    # truncation of the series extraction; they agree to that level only
    rng = np.random.default_rng(11)

    def coeff(t, xs):
        m = xs.shape[0]
        t = np.reshape(t, (-1, 1, 1))       # a scalar, or one time per row
        A = np.zeros((m, 2, 2, 2), dtype=complex)
        A[:, 0] = (2.0 + np.sin(t)) * np.eye(2)
        A[:, 1] = np.array([[0.0, 1.0], [1.0, 0.0]]) * np.cos(t)
        C = np.broadcast_to(np.exp(0.3 * t) * np.eye(2), (m, 2, 2))
        return A, C

    sys_ = system.FriedrichsSystem(
        strip, 2, coeff,
        lambda t, xs: np.broadcast_to(np.eye(2), (xs.shape[0], 2, 2)),
        metric_positive=True, time_independent=False)
    xs = np.linspace(0.0, 1.0, 48)
    h = rng.standard_normal((48, 2)) * smooth_bump(xs, 0.5, 0.4)[:, None]
    hs = corner_derivatives(sys_, None, h.astype(complex), 3, xs)
    oracle = taylor_oracle(sys_, None, h.astype(complex), 3, xs)
    for k in range(4):
        scale = max(1.0, float(np.max(np.abs(oracle[k]))))
        assert np.max(np.abs(hs[k] - oracle[k])) / scale < 2e-4, k


@pytest.mark.parametrize("chart_name", ["sine_beta_in_time", "sine_h_in_time"])
def test_wave_tables_take_one_time_difference_of_h(chart_name):
    # b₀ and the Weingarten block share one ∂_t h: h is evaluated three times
    # per coefficient call (h⁻¹ and h(t ± ht)), and A, C are bitwise the
    # tables of two separate differences
    sine = {"profile": "sine", "base": 1.3, "amplitude": 0.2, "waves": 1, "waves_t": 1.0}
    chart = {"sine_beta_in_time": geometry.named_profile_chart((0.0, 0.4), (1.0,), beta=sine),
             "sine_h_in_time": geometry.named_profile_chart(
                 (0.0, 0.4), (1.0,), h_scale=dict(sine, base=1.0))}[chart_name]
    prob = SecondOrderProblem("normally_hyperbolic", chart, k=1)
    sys_ = wave_to_first_order(prob)
    xs = np.linspace(0.0, 1.0, 33)[:, None]
    h, calls = chart.h, []
    chart.h = lambda t, xs2: calls.append(t) or h(t, xs2)
    for t in (0.0, 0.17, 0.4):
        calls.clear()
        A, C = sys_.coeff_at(t, xs)
        assert len(calls) == 3
        ref_A, ref_C, _ = reference_tables("normally_hyperbolic", prob, t, xs)
        assert_real_part_of(A, ref_A)
        assert_real_part_of(C, ref_C)
    assert np.any(C[:, 1, 1] != 0) == (chart_name == "sine_h_in_time")
