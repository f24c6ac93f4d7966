"""First-order operators S = Σ_μ A^μ ∇_μ + C with a Hermitian fiber metric.

A system carries its chart, its batched coefficient evaluator and its fiber
metric G (possibly indefinite).  Conditions on the operator are certified by
sampling:

(S)  G·A^μ Hermitian at every sample,
(H)  ⟨σ(τ)·,·⟩ positive definite for sampled future timelike covectors τ,
(P)  the zero-order endomorphism of S + S† bounded below by c > 0.

The *time sign* s* ∈ {+1, −1} is the sign that makes s*·G·σ(dt) positive
definite.  For every catalog system except the Dirac operator s* = +1; the
Dirac operator with the standard spin product pairs negatively against dt,
and s* = −1 keeps the normalized metric s*·β·G·σ(dt) positive definite while
boundary forms stay in the original metric.
"""

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import geometry
from .errors import ContractError, NormalizationError, NotHyperbolicError
from .linalg import aos, as_table, definiteness_sign, eigh_pencil, matrix_rank, soa, soa_mul

#: finite-difference step scale for coefficient derivatives
FD_STEP = float(np.cbrt(np.finfo(float).eps))


@dataclass
class GradientLayout:
    """Block layout of a reduced second-order problem.

    The state vector is  [value block (k)] [gradient block] [tail block]: the
    value block comes first and the gradient block starts at k.  The gradient
    block stores covariant components, one k-wide slot per covector
    direction; ``has_time_slot`` marks a leading dt slot (Klein-Gordon
    reduction).  Boundary-condition constructors use this to place normal
    contractions.
    """

    k: int
    n: int
    has_time_slot: bool = False
    tail_start: Optional[int] = None

    @property
    def width(self):
        """Length of the state vector: value block, dt slot, n spatial slots, tail."""
        return self.k * (1 + int(self.has_time_slot) + self.n + int(self.tail_start is not None))

    def grad_slot(self, axis):
        """Column range of the spatial covector slot for coordinate ``axis``."""
        off = self.k * (2 if self.has_time_slot else 1)
        return slice(off + axis * self.k, off + (axis + 1) * self.k)


@dataclass(eq=False)
class FriedrichsSystem:
    chart: geometry.SpacetimeChart
    fiber_rank: int
    coeff: Callable    # coeff(t, xs) -> (A (m, n+1, N, N), C (m, N, N)); t scalar or (m,)
    metric: Callable   # metric(t, xs) -> (m, N, N)
    metric_positive: bool
    name: str = "custom"
    layout: Optional[GradientLayout] = None
    time_independent: bool = True
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def dim_space(self):
        return self.chart.dim_space

    @property
    def static(self):
        """Coefficients and chart are both time independent: one evaluation
        serves every time level."""
        return self.time_independent and self.chart.time_independent

    def coeff_at(self, t, xs):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        A, C = self.coeff(t, xs)
        N, n = self.fiber_rank, self.dim_space
        return (np.broadcast_to(as_table(A), (xs.shape[0], n + 1, N, N)),
                np.broadcast_to(as_table(C), (xs.shape[0], N, N)))

    def metric_at(self, t, xs):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        N = self.fiber_rank
        return np.broadcast_to(as_table(self.metric(t, xs)), (xs.shape[0], N, N))

    def symbol(self, t, x, xi):
        """Principal symbol σ(ξ) = Σ_μ ξ_μ A^μ at the point (t, x)."""
        xi = np.asarray(xi, dtype=complex)
        if xi.shape != (self.dim_space + 1,):
            raise ContractError(f"covector must have {self.dim_space + 1} components")
        A, _ = self.coeff_at(t, np.atleast_2d(x))
        return np.einsum("m,mij->ij", xi, A[0])

    @property
    def time_sign(self):
        """Sign s* with s*·G·σ(dt) ≻ 0 at samples; 0 if indefinite/singular."""
        if "time_sign" not in self._cache:
            ts, xs = self.chart.sample_interior(8)
            t, x = geometry.spacetime_rows(ts[::3], xs[::max(1, xs.shape[0] // 16)])
            W = np.einsum("pij,pjk->pik", self.metric_at(t, x), self.coeff_at(t, x)[0][:, 0])
            signs = set(definiteness_sign(W).tolist())
            self._cache["time_sign"] = signs.pop() if len(signs) == 1 else 0
        return self._cache["time_sign"]

    def positive_metric_at(self, t, xs):
        """Positive companion metric P: s*·β·G·σ(dt) when σ(dt) is definite
        (s* ≠ 0), G when σ(dt) is singular and G ≻ 0, None otherwise."""
        if self.time_sign != 0:
            return companion_metric(self.time_sign, self.chart.beta_at(t, xs),
                                    self.metric_at(t, xs), self.coeff_at(t, xs)[0][:, 0])
        return self.metric_at(t, xs) if self.metric_positive else None

    def characteristics(self, t, xs, xi):
        """Speeds λ (m, N), ascending, P-orthonormal eigenvectors V and the
        companion metric P of σ(dt)⁻¹σ(ξ) at a batch of points, for one covector
        ξ or one per point: the one characteristic split, read by condition
        (iii), the ghost-cell closure, |Ã| and the time step.  NotHyperbolicError,
        naming the first such point, where a form is NaN or Inf, or P not ≻ 0."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return self._split(t, xs, xi, self.coeff_at(t, xs)[0], self.metric_at(t, xs))

    def _split(self, t, xs, xi, A, G, beta=None):
        """``characteristics`` for a caller that holds the coefficient table A,
        the metric table G and, optionally, the lapse table β at the rows
        (t, xs), t a scalar or one time per row.

        Under (S), P·σ(dt)⁻¹σ(ξ) = s*·β·G·σ(ξ) is Hermitian, so the pencil
        (s*·β·G·σ(ξ), P) gives the speeds without inverting σ(dt) (Golub &
        Van Loan, *Matrix Computations*, §8.7)."""
        if self.time_sign == 0:
            raise NotHyperbolicError("σ(dt)-form singular or indefinite at samples")
        s = self.time_sign
        beta = self.chart.beta_at(t, xs) if beta is None else beta
        P = companion_metric(s, beta, G, A[:, 0])
        xi = np.asarray(xi)
        xi = np.broadcast_to(xi.astype(np.result_type(xi, A), copy=False), A.shape[:2])
        F = companion_metric(s, beta, G, np.einsum("pm,pmij->pij", xi, A))
        ts = np.broadcast_to(t, len(xs))
        bad = np.flatnonzero(~(np.isfinite(P) & np.isfinite(F)).all(axis=(1, 2)))
        if bad.size:        # LAPACK's Cholesky would pass a NaN on instead of refusing it
            raise NotHyperbolicError(f"σ(dt)-form not finite at t={ts[bad[0]]}, x={xs[bad[0]]}")
        try:
            lam, V = eigh_pencil(F, P)
        except np.linalg.LinAlgError as exc:
            bad = np.flatnonzero(np.linalg.eigvalsh(P)[:, 0] <= 0)
            at, where = ts[bad[0] if bad.size else 0], f", x={xs[bad[0]]}" if bad.size else ""
            raise NotHyperbolicError(f"σ(dt)-form singular or indefinite at t={at}{where}") from exc
        return lam, V, P


def companion_metric(sign, beta, G, A0):
    """Hermitian part of sign·β·G·A0 from tables of β, G and A0.  For A0 =
    σ(dt) it is the companion metric, and the fiber metric of σ(dt)⁻¹·S; for
    A0 = σ(ξ), the left side of the characteristic pencil."""
    P = sign * beta * soa_mul(soa(G), soa(A0))
    return aos(0.5 * (P + np.conj(P.swapaxes(0, 1))))


@dataclass
class SymmetryReport:
    verdict: bool
    max_asymmetry: float


@dataclass
class HyperbolicReport:
    verdict: bool            # literal (H): ⟨σ(τ)·,·⟩ ≻ 0 on the future dt-cone
    oriented_verdict: bool   # (H) after orienting time with s*
    min_eigenvalue: float
    time_sign: int
    dt_form_positive: bool


@dataclass
class PositivityReport:
    c_by_slice: np.ndarray   # per-time-slice lower bound c_t
    c_min: float
    passed: bool


def check_symmetric(sys, per_axis=16):
    """Condition (S): G·A^μ Hermitian at every sampled point, to a relative
    asymmetry of 1e−9."""
    ts, xs = sys.chart.sample_interior(per_axis)
    t, x = geometry.spacetime_rows(ts[:: max(1, len(ts) // 8)], xs)
    W = np.einsum("pij,pmjk->pmik", sys.metric_at(t, x), sys.coeff_at(t, x)[0])
    asym = np.linalg.norm(W - np.conj(np.swapaxes(W, 2, 3)), axis=(2, 3))
    worst = float(np.max(asym / np.maximum(1.0, np.linalg.norm(W, axis=(2, 3)))))
    return SymmetryReport(worst < 1e-9, worst)


def check_hyperbolic(sys, per_axis=8, seed=0):
    """Condition (H) over sampled points and a sampled future timelike cone.

    Every sampled (time, point) gets dt and 16 random future timelike
    covectors (dx-part of β-scaled h⁻¹-length below 0.95), drawn point by
    point, times outer, from one seeded stream; the coefficients of every
    sample are evaluated in one call, every σ(τ) and its spectrum is formed
    in one batch, and a form counts as positive above 1e−10.
    ``verdict`` is the literal condition for the +dt cone;
    ``oriented_verdict`` allows the system's time sign s*.
    ``dt_form_positive`` reports the weaker hypothesis that ⟨σ(dt)·,·⟩ alone
    is positive definite.
    """
    if not check_symmetric(sys).verdict:
        raise ContractError("check_hyperbolic requires a symmetric system")
    return _hyperbolic(sys, per_axis, seed)


def _hyperbolic(sys, per_axis=8, seed=0):
    """The body of ``check_hyperbolic``, for callers that certified (S)."""
    n_cone, tol = 16, 1e-10
    rng = np.random.default_rng(seed)
    ts, xs = sys.chart.sample_interior(per_axis)
    t, x = geometry.spacetime_rows(ts[:: max(1, len(ts) // 4)], xs[:: max(1, xs.shape[0] // 16)])
    n, m = sys.dim_space, len(x)
    A, _ = sys.coeff_at(t, x)
    G, hinv, beta = sys.metric_at(t, x), sys.chart.h_inv_at(t, x), sys.chart.beta_at(t, x)
    u, rho = np.empty((m, n_cone, n)), np.empty((m, n_cone))
    for k in np.ndindex(rho.shape):
        u[k], rho[k] = rng.standard_normal(n), rng.uniform(0.0, 0.95)
    norm = np.sqrt(np.einsum("pci,pij,pcj->pc", u, hinv, u))
    taus = np.zeros((m, n_cone + 1, n + 1), dtype=complex)
    taus[:, :, 0] = 1.0
    taus[:, 1:, 1:] = (rho / beta[:, None])[..., None] * u / norm[..., None]
    W = G[:, None] @ np.einsum("pcm,pmij->pcij", taus, A)
    ev = np.linalg.eigvalsh(0.5 * (W + np.conj(np.swapaxes(W, 2, 3))))
    # ev: (sample, covector with dt first, ascending)
    s = sys.time_sign
    min_eig = float(ev[..., 0].min())
    oriented = s != 0 and float((s * ev).min()) > tol
    return HyperbolicReport(min_eig > tol, oriented, min_eig, s, bool(np.all(ev[:, 0, 0] > tol)))


def check_conditions(sys, seed=0):
    """The Friedrichs conditions of ``sys``: the (S) report, the (H) and (P)
    reports (None unless (S) holds) and ``constant_characteristic``."""
    sym = check_symmetric(sys)
    hyp = _hyperbolic(sys, seed=seed) if sym.verdict else None
    pos = check_positive(sys) if sym.verdict else None
    return sym, hyp, pos, constant_characteristic(sys)


def formal_adjoint(sys):
    """Formal adjoint S† in L²(G, β√det h): −A^{μ†}∇_μ − divergence term + C†.

    Adjoints of matrices are taken with respect to the fiber Gram matrix;
    coefficient and volume-density derivatives are centered differences, in
    t with a step per row.
    """
    chart = sys.chart
    n = sys.dim_space

    def weighted(t, xs):
        A, _ = sys.coeff_at(t, xs)
        G = sys.metric_at(t, xs)
        mu = geometry.volume_density(chart, t, xs)
        GA = np.einsum("pij,pmjk->pmik", G, A)
        return mu[:, None, None, None] * np.conj(np.swapaxes(GA, 2, 3))

    def coeff(t, xs):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        A, C = sys.coeff_at(t, xs)
        G = sys.metric_at(t, xs)
        Ginv = np.linalg.inv(G)
        mu = geometry.volume_density(chart, t, xs)
        A_adj = -np.einsum("pij,pmkj,pkl->pmil", Ginv, np.conj(A), G)
        C_adj = np.einsum("pij,pkj,pkl->pil", Ginv, np.conj(C), G)
        div = np.zeros(C.shape, np.result_type(A, C, G))
        ht = FD_STEP * (1.0 + np.abs(t))
        div += ((weighted(t + ht, xs)[:, 0] - weighted(t - ht, xs)[:, 0])
                / (2 * np.reshape(ht, (-1, 1, 1))))
        for a in range(n):
            hx = FD_STEP * (1.0 + np.abs(xs[:, a]))
            dx = np.zeros_like(xs)
            dx[:, a] = hx
            div += ((weighted(t, xs + dx)[:, 1 + a] - weighted(t, xs - dx)[:, 1 + a])
                    / (2 * hx[:, None, None]))
        C_adj = C_adj - np.einsum("pij,pjk->pik", Ginv, div) / mu[:, None, None]
        return A_adj, C_adj

    return replace(sys, coeff=coeff, name=sys.name + "_adjoint")


def zero_order_symmetrization(sys, t, xs):
    """Hermitian part (w.r.t. G) of the zero-order endomorphism of S + S†."""
    if "adjoint" not in sys._cache:
        sys._cache["adjoint"] = formal_adjoint(sys)
    adj = sys._cache["adjoint"]
    _, C = sys.coeff_at(t, xs)
    _, C_adj = adj.coeff_at(t, xs)
    G = sys.metric_at(t, xs)
    Ginv = np.linalg.inv(G)
    Z = C + C_adj
    Z_h = 0.5 * (Z + np.einsum("pij,pkj,pkl->pil", Ginv, np.conj(Z), G))
    return Z_h, G


def check_positive(sys):
    """Condition (P): per-slice lower bound of the symmetrized zero-order term.

    c_t is the smallest eigenvalue of the endomorphism Re(S† + S) over the
    24-cell lattice of each of 9 slices, all evaluated in one call; for an
    indefinite fiber metric the spectrum is taken from the endomorphism
    directly (real up to roundoff for the catalog systems).  (P) holds when
    every c_t exceeds 1e−10.
    """
    ts = sys.chart.sample_times(9)
    _, xs = sys.chart.sample_interior(24)
    Z_h, G = zero_order_symmetrization(sys, *geometry.spacetime_rows(ts, xs))
    ev = eigh_pencil(G @ Z_h, G)[0] if sys.metric_positive else np.linalg.eigvals(Z_h)
    c_by_slice = np.min(ev.real.reshape(len(ts), -1), axis=1)
    c_min = float(np.min(c_by_slice))
    return PositivityReport(c_by_slice, c_min, c_min > 1e-10)


def constant_characteristic(sys, n_time=8, n_tang=4):
    """dim ker σ(n♭) along the boundary: (is it constant, common dimension),
    from one evaluation of the conormals per face and of the coefficients."""
    qs = [geometry.boundary_points(sys.chart, face, sys.chart.sample_times(n_time), n_tang)
          for face in sys.chart.faces()]
    nb = np.concatenate([geometry.outward_normal(sys.chart, q) for q in qs])
    A, _ = sys.coeff_at(np.concatenate([q.t for q in qs]), np.concatenate([q.x for q in qs]))
    dims = [sys.fiber_rank - matrix_rank(sn) for sn in np.einsum("pm,pmij->pij", nb, A)]
    return len(set(dims)) == 1, dims[0]


def beta_normalize(sys):
    """σ(dt)⁻¹·S with fiber metric s*·β·G·σ(dt).

    The returned system has A⁰ = Id.  ``metric_positive`` is set when the
    input was hyperbolic up to time orientation (s* ≠ 0); otherwise the
    algebraic normalization is still returned with an indefinite metric.
    """
    s = sys.time_sign
    chart = sys.chart

    def coeff(t, xs):
        A, C = sys.coeff_at(t, xs)
        try:
            a0inv = np.linalg.inv(A[:, 0])
        except np.linalg.LinAlgError as exc:
            raise NormalizationError("σ(dt) singular; cannot beta-normalize") from exc
        A_new = np.einsum("pij,pmjk->pmik", a0inv, A)
        C_new = np.einsum("pij,pjk->pik", a0inv, C)
        return A_new, C_new

    # fail fast on singular σ(dt)
    _, xs_probe = chart.sample_interior(4)
    coeff(chart.sample_times(3)[1], xs_probe[:2])

    return replace(
        sys, coeff=coeff, metric=lambda t, xs: companion_metric(
            s or 1, chart.beta_at(t, xs), sys.metric_at(t, xs), sys.coeff_at(t, xs)[0][:, 0]),
        metric_positive=s != 0, name=sys.name + "_normalized")


def lambda_shift(sys, lam):
    """K_λ = S + λ·σ(dt): the zero-order term becomes C + λ·A⁰."""
    def coeff(t, xs):
        A, C = sys.coeff_at(t, xs)
        return A, C + lam * A[:, 0]

    return replace(sys, coeff=coeff, name=f"{sys.name}_shift{lam}")


def find_lambda(sys):
    """Smallest integer λ in [0, 64] making K_λ a positive symmetric system."""
    for lam in range(65):
        if check_positive(lambda_shift(sys, lam)).passed:
            return lam
    raise ContractError("no positive shift found with λ ≤ 64")


# -- elementary builders ----------------------------------------------------


def advection_system(chart, speed=1.0):
    """Scalar transport ∂_t + a·∂_x (1+1D): the constant system A⁰ = 1, A¹ = a."""
    if chart.dim_space != 1:
        raise ContractError("advection builder is 1+1D")
    return replace(constant_system(chart, [[[1.0]], [[speed]]], None), name="advection")


def constant_system(chart, A_list, C, gram=None):
    """System with constant coefficient matrices (CLI custom tables, tests)."""
    A_const = as_table(A_list)
    N = A_const.shape[-1] if A_const.ndim == 3 else 0
    C_const = np.zeros((N, N)) if C is None else as_table(C)
    G_const = np.eye(N) if gram is None else as_table(gram)
    if N == 0 or (A_const.shape, C_const.shape, G_const.shape) != (
            (chart.dim_space + 1, N, N), (N, N), (N, N)):
        raise ContractError(f"A must be {chart.dim_space + 1} N×N matrices and C, gram N×N; "
                            f"got shapes {A_const.shape}, {C_const.shape}, {G_const.shape}")

    def coeff(t, xs):
        m = xs.shape[0]
        return (np.broadcast_to(A_const, (m,) + A_const.shape),
                np.broadcast_to(C_const, (m, N, N)))

    def metric(t, xs):
        return np.broadcast_to(G_const, (xs.shape[0], N, N))

    return FriedrichsSystem(chart, N, coeff, metric,
                            metric_positive=definiteness_sign(G_const) == 1)
