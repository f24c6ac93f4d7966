"""First-order reductions of second-order operators and compatibility checks.

Wave reduction (state Ψ = (∇_t u, ∇^Σ u, u), N = k(n+2)):

    A₀ = diag(1/β², Id, Id)
    A_Σ(ξ) = [[0, −tr_h(ξ⊗·), 0], [−ξ⊗, 0, 0], [0, 0, 0]]
    C  = [[b₀, b⌟, c], [0, ½h⁻¹(∂_t h)⌟, 0], [−1, 0, 0]]

Klein-Gordon reduction (state Ψ = (u, ∇u) with a spacetime gradient,
N = k(n+2)); the trace contracts with the Lorentzian metric, so the gradient
block carries the indefinite pairing g⁻¹ ⊗ ⟨,⟩ and σ(dt) is singular:

    S = [[0, −tr_g], [−1, 0]]∇ + diag(m², 1)

Reaction-diffusion (state Ψ = (u, ∇^Σ u), N = k(n+1)):

    S = diag(1, 0)∇_t + [[0, −tr_h], [−1, 0]]∇^Σ + diag(c, 1),
    K_λ = S + λ·diag(1, 0).

The compatibility checker realises the order-k corner conditions through the
recursion  𝔥_k = Σ_j binom(k−1, j) H_j 𝔥_{k−1−j} + ∇_t^{k−1}(σ(dt)⁻¹𝔣)  with
H₀ = σ(dt)⁻¹H and H_j = [∇_t, H_{j−1}] realised as time-derivatives of the
coefficient matrices of H₀.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import geometry
from .errors import ContractError
from .system import FD_STEP, FriedrichsSystem, GradientLayout, lambda_shift


@dataclass
class SecondOrderProblem:
    kind: str                      # normally_hyperbolic | klein_gordon | reaction_diffusion
    chart: geometry.SpacetimeChart
    k: int = 1
    mass: float = 0.0              # klein_gordon
    c: Optional[Callable] = None   # zero-order term: c(t, xs) -> (m, k, k)
    static_coeffs: bool = True     # set False when c depends on t

    @property
    def time_independent(self):
        return self.chart.time_independent and self.static_coeffs

    def c_at(self, t, xs):
        if self.c is None:
            return np.zeros((xs.shape[0], self.k, self.k), dtype=complex)
        out = np.asarray(self.c(t, xs), dtype=complex)
        if out.ndim == 0:
            out = out * np.broadcast_to(np.eye(self.k), (xs.shape[0], self.k, self.k))
        try:
            return np.broadcast_to(out, (xs.shape[0], self.k, self.k))
        except ValueError as exc:
            raise ContractError(f"c must be a number or k×k matrices (k = {self.k}), "
                                f"got shape {out.shape}") from exc


def _dt_h(chart, t, xs):
    """∂_t h at the sampled points by a centred difference."""
    ht = FD_STEP * (1.0 + abs(t))
    return (chart.h_at(t + ht, xs) - chart.h_at(t - ht, xs)) / (2 * ht)


def _weingarten(chart, t, xs, hinv, dh=None):
    """½ h⁻¹ ∂_t h at the sampled points, given h⁻¹ and, when the caller has
    it, ∂_t h (zero on static charts)."""
    if chart.time_independent:
        return np.zeros((xs.shape[0], chart.dim_space, chart.dim_space))
    dh = _dt_h(chart, t, xs) if dh is None else dh
    return 0.5 * np.einsum("pij,pjk->pik", hinv, dh)


def _wave_drift(chart, t, xs, beta2, hinv, dh=None):
    """b₀ = (1/2β²)(tr_h ∂_t h − ∂_t β²/β²) and b = −(1/2β²)grad_h β²,
    given h⁻¹ and, when the caller has it, ∂_t h."""
    m, n = xs.shape
    if chart.time_independent:
        b0 = np.zeros(m)
    else:
        ht = FD_STEP * (1.0 + abs(t))
        dh = _dt_h(chart, t, xs) if dh is None else dh
        trh = np.einsum("pij,pji->p", hinv, dh)
        db2 = (chart.beta_at(t + ht, xs) ** 2 - chart.beta_at(t - ht, xs) ** 2) / (2 * ht)
        b0 = (trh - db2 / beta2) / (2 * beta2)
    grad = np.zeros((m, n))
    for a in range(n):
        hx = FD_STEP * (1.0 + np.abs(xs[:, a]))
        dx = np.zeros_like(xs)
        dx[:, a] = hx
        grad[:, a] = (chart.beta_at(t, xs + dx) ** 2 - chart.beta_at(t, xs - dx) ** 2) / (2 * hx)
    return b0, -np.einsum("pij,pj->pi", hinv, grad) / (2 * beta2[:, None])


def _gradient_blocks(layout, hinv, N, metric=False):
    """The blocks every reduction shares, from h⁻¹: for ``metric`` the fiber
    metric (m, N, N) with I and h⁻¹ᵢⱼ·I on the value and gradient slots, else
    A (m, n+1, N, N) with −h⁻¹ᵢⱼ·I at (value, slot j) and −I at (slot i, value) of Aⁱ."""
    m, k, n, Ik = hinv.shape[0], layout.k, layout.n, np.eye(layout.k)
    if metric:
        G = np.zeros((m, N, N), dtype=complex)
        G[:, :k, :k] = Ik
        for i in range(n):
            for j in range(n):
                G[:, layout.grad_slot(i), layout.grad_slot(j)] = hinv[:, i, j, None, None] * Ik
        return G
    A = np.zeros((m, n + 1, N, N), dtype=complex)
    for i in range(n):
        for j in range(n):
            A[:, 1 + i, :k, layout.grad_slot(j)] = -hinv[:, i, j, None, None] * Ik
        A[:, 1 + i, layout.grad_slot(i), :k] = -Ik
    return A


def wave_to_first_order(prob):
    """Normally hyperbolic P = (1/β²)∇²_t + b₀∇_t + (∇^Σ)*∇^Σ + ∇_b + c → system."""
    if prob.kind != "normally_hyperbolic":
        raise ContractError("wave_to_first_order expects kind='normally_hyperbolic'")
    chart, k, n = prob.chart, prob.k, prob.chart.dim_space
    N = k * (n + 2)
    layout = GradientLayout(k=k, n=n, tail_start=k * (n + 1))
    Ik = np.eye(k)

    def coeff(t, xs):
        m = xs.shape[0]
        beta2 = chart.beta_at(t, xs) ** 2
        hinv = chart.h_inv_at(t, xs)
        A = _gradient_blocks(layout, hinv, N)
        A[:, 0, :k, :k] = (1.0 / beta2)[:, None, None] * Ik
        idx = np.arange(k, N)
        A[:, 0, idx, idx] = 1.0
        C = np.zeros((m, N, N), dtype=complex)
        dh = None if chart.time_independent else _dt_h(chart, t, xs)  # one difference, two terms
        b0, b = _wave_drift(chart, t, xs, beta2, hinv, dh)
        C[:, :k, :k] = b0[:, None, None] * Ik
        for j in range(n):
            C[:, :k, layout.grad_slot(j)] = b[:, j, None, None] * Ik
        C[:, :k, layout.tail_start:] = prob.c_at(t, xs)
        W = _weingarten(chart, t, xs, hinv, dh)
        for i in range(n):
            for j in range(n):
                C[:, layout.grad_slot(i), layout.grad_slot(j)] = W[:, i, j, None, None] * Ik
        C[:, layout.tail_start:, :k] = -Ik
        return A, C

    def metric(t, xs):
        G = _gradient_blocks(layout, chart.h_inv_at(t, xs), N, metric=True)
        G[:, layout.tail_start:, layout.tail_start:] = Ik
        return G

    return FriedrichsSystem(chart, N, coeff, metric, metric_positive=True,
                            name="wave_reduction", layout=layout,
                            time_independent=prob.time_independent)


def kg_to_first_order(prob):
    """Klein-Gordon ∇*∇ + m² → symmetric positive system on V ⊕ T*M⊗V."""
    if prob.kind != "klein_gordon":
        raise ContractError("kg_to_first_order expects kind='klein_gordon'")
    chart, k, n = prob.chart, prob.k, prob.chart.dim_space
    N = k * (n + 2)
    layout = GradientLayout(k=k, n=n, has_time_slot=True)
    Ik = np.eye(k)
    m2 = prob.mass ** 2
    tslot = slice(k, 2 * k)

    def coeff(t, xs):
        m = xs.shape[0]
        beta2 = chart.beta_at(t, xs) ** 2
        A = _gradient_blocks(layout, chart.h_inv_at(t, xs), N)
        A[:, 0, :k, tslot] = (1.0 / beta2)[:, None, None] * Ik
        A[:, 0, tslot, :k] = -Ik
        C = np.zeros((m, N, N), dtype=complex)
        C[:, :k, :k] = m2 * Ik
        idx = np.arange(k, N)
        C[:, idx, idx] = 1.0
        return A, C

    def metric(t, xs):
        beta2 = chart.beta_at(t, xs) ** 2
        G = _gradient_blocks(layout, chart.h_inv_at(t, xs), N, metric=True)
        G[:, tslot, tslot] = -(1.0 / beta2)[:, None, None] * Ik
        return G

    return FriedrichsSystem(chart, N, coeff, metric, metric_positive=False,
                            name="kg_reduction", layout=layout,
                            time_independent=chart.time_independent)


def reaction_diffusion_to_first_order(prob, lam=0.0):
    """∇_t − tr(∇^Σ∇^Σ) + c → K_λ = S + λ·σ(dt) on V ⊕ T*Σ⊗V."""
    if prob.kind != "reaction_diffusion":
        raise ContractError("reaction_diffusion_to_first_order expects "
                            "kind='reaction_diffusion'")
    chart, k, n = prob.chart, prob.k, prob.chart.dim_space
    N = k * (n + 1)
    layout = GradientLayout(k=k, n=n)
    Ik = np.eye(k)

    def coeff(t, xs):
        m = xs.shape[0]
        A = _gradient_blocks(layout, chart.h_inv_at(t, xs), N)
        A[:, 0, :k, :k] = Ik
        C = np.zeros((m, N, N), dtype=complex)
        C[:, :k, :k] = prob.c_at(t, xs)
        idx = np.arange(k, N)
        C[:, idx, idx] = 1.0
        return A, C

    def metric(t, xs):
        return _gradient_blocks(layout, chart.h_inv_at(t, xs), N, metric=True)

    base = FriedrichsSystem(chart, N, coeff, metric, metric_positive=True,
                            name="reaction_diffusion", layout=layout,
                            time_independent=prob.time_independent)
    return lambda_shift(base, lam) if lam else base


# -- initial data -----------------------------------------------------------


def constrain_gradient(values, layout, xs):
    """Sampled initial data (m, N) on the 1D grid ``xs`` with the gradient
    slot set, in place, to the numerical x-derivative of the value the layout
    differentiates: its tail block u when it has one (wave reduction), else
    its value block."""
    u = values[:, layout.tail_start:] if layout.tail_start is not None else values[:, :layout.k]
    values[:, layout.grad_slot(0)] = np.gradient(u, xs, axis=0)
    return values


# -- compatibility conditions ----------------------------------------------


def taylor_coefficients(fn, t0, order, delta=1e-3):
    """Taylor coefficients a_j (fn(t) ≈ Σ a_j (t−t0)^j) by polynomial fitting.

    ``fn`` maps t to an ndarray; evaluated on a centered stencil of
    2·order + 1 points.  Shared by the compatibility recursion and its test
    oracle so their comparison isolates the recursion algebra.
    """
    if order == 0:
        return [np.asarray(fn(t0))]
    npts = 2 * order + 1
    offsets = (np.arange(npts) - order) * delta
    samples = np.stack([np.asarray(fn(t0 + dt), dtype=complex) for dt in offsets])
    vander = np.vander(offsets / delta, order + 1, increasing=True)
    scaled, *_ = np.linalg.lstsq(vander, samples.reshape(npts, -1), rcond=None)
    return [(c / delta ** j).reshape(samples.shape[1:]) for j, c in enumerate(scaled)]


def _fd_x(values, xs):
    return np.gradient(values, xs, axis=0)


@dataclass
class CompatibilityReport:
    order: int
    residuals: np.ndarray          # (order+1, n_faces)
    tolerance: float
    pass_flags: np.ndarray = field(init=False)

    def __post_init__(self):
        self.pass_flags = np.all(self.residuals <= self.tolerance, axis=1)

    @property
    def passed(self):
        return bool(np.all(self.pass_flags))

    @property
    def max_residual(self):
        return float(np.max(self.residuals))


def corner_derivatives(sys, f, h, order, xs):
    """𝔥₀ … 𝔥_order on the initial slice from the commutator recursion."""
    chart = sys.chart
    t0 = chart.t_range[0]
    xs2 = xs[:, None]
    n_der = max(order, 1)

    def h0_coeffs(t):
        A, C = sys.coeff_at(t, xs2)
        try:
            a0inv = np.linalg.inv(A[:, 0])
        except np.linalg.LinAlgError as exc:
            raise ContractError(
                "compatibility recursion needs an invertible σ(dt) "
                "on the initial slice") from exc
        M = -np.einsum("pij,pjk->pik", a0inv, A[:, 1])
        D = -np.einsum("pij,pjk->pik", a0inv, C)
        return np.stack([M, D])

    H_coeffs = taylor_coefficients(h0_coeffs, t0, n_der - 1)
    # ∂_t^j of the coefficients = j! · (Taylor coefficient j)
    H_ops = [(math.factorial(j) * c[0], math.factorial(j) * c[1])
             for j, c in enumerate(H_coeffs)]

    if f is None:
        f_td = [np.zeros((xs.size, sys.fiber_rank), dtype=complex)] * n_der
    else:
        def sigma_inv_f(t):
            A, _ = sys.coeff_at(t, xs2)
            return np.linalg.solve(A[:, 0], np.asarray(f(t, xs2))[..., None])[..., 0]

        f_coeffs = taylor_coefficients(sigma_inv_f, t0, n_der - 1)
        f_td = [math.factorial(j) * c for j, c in enumerate(f_coeffs)]

    def apply_H(j, v):
        M, D = H_ops[j]
        return (np.einsum("pij,pj->pi", M, _fd_x(v, xs))
                + np.einsum("pij,pj->pi", D, v))

    hs = [np.asarray(h, dtype=complex)]
    for k in range(1, order + 1):
        acc = f_td[k - 1].copy()
        for j in range(k):
            acc += math.comb(k - 1, j) * apply_H(j, hs[k - 1 - j])
        hs.append(acc)
    return hs


def compatibility_check(sys, bc, f, h, order, nx=128, tol=1e-8):
    """Corner compatibility residuals of orders 0..order for 1+1D problems.

    ``f`` is a callable (t, xs2) -> (m, N) or None; ``h`` an array (nx, N)
    sampled on the node grid of the initial slice (or a callable of xs).
    """
    chart = sys.chart
    if chart.dim_space != 1:
        raise ContractError("compatibility_check supports one spatial dimension")
    L = chart.space_extent[0]
    xs = np.linspace(0.0, L, nx)
    h_arr = h(xs) if callable(h) else np.asarray(h, dtype=complex)
    if h_arr.shape != (nx, sys.fiber_rank):
        raise ContractError(f"initial data must have shape ({nx}, {sys.fiber_rank})")
    hs = corner_derivatives(sys, f, h_arr, order, xs)

    t0 = chart.t_range[0]
    faces = chart.faces()
    residuals = np.zeros((order + 1, len(faces)))
    for fi, face in enumerate(faces):
        pos = chart.face_position(face)
        node = 0 if face[1] == 0 else nx - 1

        def gb_of_t(t):
            return bc.matrix(chart, geometry.BoundaryPoint(t, face, np.array([pos])))

        gb_coeffs = taylor_coefficients(gb_of_t, t0, order)
        gb_td = [math.factorial(j) * c for j, c in enumerate(gb_coeffs)]
        for k in range(order + 1):
            r = np.zeros(sys.fiber_rank, dtype=complex)
            for j in range(k + 1):
                r += math.comb(k, j) * (gb_td[j] @ hs[k - j][node])
            residuals[k, fi] = float(np.linalg.norm(r))
    return CompatibilityReport(order, residuals, tol)
