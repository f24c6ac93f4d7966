"""Gamma-matrix representations and the Dirac operator on product strips.

Conventions (signature −, +, …, +):

    γ(u)γ(v) + γ(v)γ(u) = −2 g(u, v) Id        (timelike generator squares to +Id)
    ⟨γ(u)ψ, φ⟩ = ⟨ψ, γ(u)φ⟩                    with spin Gram matrix G_spin = γ⁰

so γ⁰ is Hermitian, spatial generators are anti-Hermitian, and the form
⟨γ(e₀)ψ, ψ⟩ = |ψ|² is the canonical positive product on spinors.  The
representation is built by the tensor recursion from the 1+1-dimensional base
γ⁰ = σ₁, γ¹ = iσ₂; any basis satisfying the invariants above is acceptable.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, UnsupportedDimensionError
from .system import FriedrichsSystem

_SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass
class CliffordRep:
    """Gamma matrices γ₀…γ_n (index 0 timelike) with spin Gram matrix."""

    dim: int
    gammas: np.ndarray  # (d, N, N)
    gram: np.ndarray    # (N, N), indefinite Hermitian

    @property
    def rank(self):
        return self.gammas.shape[-1]

    def gamma_frame(self, coeffs):
        """γ(v) for v = Σ_μ coeffs[μ]·e_μ in the orthonormal frame, per row of coeffs."""
        return np.einsum("...m,mij->...ij", np.asarray(coeffs, dtype=complex), self.gammas)


def build_rep(d):
    """Representation in spacetime dimension d (2 ≤ d ≤ 6), N = 2^⌊d/2⌋."""
    if not 2 <= d <= 6:
        raise UnsupportedDimensionError(f"supported spacetime dimensions are 2..6, got {d}")
    if d == 2:
        gammas = np.stack([_SIGMA1, 1j * _SIGMA2])
    elif d % 2 == 1:
        lower = build_rep(d - 1)
        extra = 1j * chirality_operator(lower)
        gammas = np.concatenate([lower.gammas, extra[None]], axis=0)
    else:
        lower = build_rep(d - 2)
        N = lower.rank
        gammas = np.empty((d, 2 * N, 2 * N), dtype=complex)
        for mu in range(d - 2):
            gammas[mu] = np.kron(lower.gammas[mu], _SIGMA3)
        gammas[d - 2] = np.kron(np.eye(N), 1j * _SIGMA1)
        gammas[d - 1] = np.kron(np.eye(N), 1j * _SIGMA2)
    return CliffordRep(d, gammas, gammas[0].copy())


def chirality_operator(rep):
    """𝒢 = i^⌊n/2⌋ γ(e₀)γ(e₁)…γ(e_n); involutive, anticommuting, even d only."""
    if rep.dim % 2 != 0:
        raise UnsupportedDimensionError(
            "chirality operator requires even spacetime dimension "
            f"(odd spatial dimension); got d={rep.dim}")
    n = rep.dim - 1
    G = (1j) ** (n // 2) * np.eye(rep.rank, dtype=complex)
    for mu in range(rep.dim):
        G = G @ rep.gammas[mu]
    return G


def riemannian_chirality_operator(rep, candidate=None):
    """A 𝒢 commuting with γ(e₀), unitary, involutive, anticommuting spatially.

    γ(e₀) itself satisfies all four invariants in every supported dimension
    and is the built-in default; a user-supplied ``candidate`` is validated
    against the same invariants, each to 1e−12.
    """
    G = rep.gammas[0].copy() if candidate is None else np.asarray(candidate, dtype=complex)
    N, tol = rep.rank, 1e-12
    if np.linalg.norm(G @ G - np.eye(N)) > tol:
        raise ContractError("riemannian chirality operator must be involutive")
    if np.linalg.norm(G @ rep.gammas[0] - rep.gammas[0] @ G) > tol:
        raise ContractError("riemannian chirality operator must commute with γ(e₀)")
    for j in range(1, rep.dim):
        if np.linalg.norm(G @ rep.gammas[j] + rep.gammas[j] @ G) > tol:
            raise ContractError("riemannian chirality operator must anticommute "
                                "with spatial Clifford multiplication")
    W = rep.gram @ G
    if np.linalg.norm(W - W.conj().T) > tol:
        raise ContractError("riemannian chirality operator must be symmetric "
                            "with respect to the spin product")
    return G


def rep_invariant_residuals(rep):
    """Max residuals of the Clifford relations; all should vanish to 1e−12."""
    d, N = rep.dim, rep.rank
    eta = np.diag([-1.0] + [1.0] * (d - 1))
    anti = 0.0
    herm = 0.0
    for mu in range(d):
        for nu in range(d):
            acomm = rep.gammas[mu] @ rep.gammas[nu] + rep.gammas[nu] @ rep.gammas[mu]
            anti = max(anti, np.linalg.norm(acomm + 2 * eta[mu, nu] * np.eye(N)))
        W = rep.gram @ rep.gammas[mu]
        herm = max(herm, np.linalg.norm(W - W.conj().T))
    out = {"anticommutator": float(anti), "symmetry": float(herm)}
    ew = np.linalg.eigvalsh(rep.gram)
    out["gram_pm_balance"] = abs(int(np.sum(ew > 0)) - N // 2)
    if d % 2 == 0:
        G = chirality_operator(rep)
        out["chirality_involution"] = float(np.linalg.norm(G @ G - np.eye(N)))
        out["chirality_anticommute"] = float(max(
            np.linalg.norm(G @ rep.gammas[mu] + rep.gammas[mu] @ G) for mu in range(d)))
        W = rep.gram @ G
        out["chirality_skew"] = float(np.linalg.norm(W + W.conj().T))
    return out


def spatial_frame(chart, t, x):
    """E with orthonormal spatial frame e_j = Σ_i E[i, j] ∂_i, E = h^{−1/2}, per row of x."""
    w, V = np.linalg.eigh(chart.h_at(t, np.atleast_2d(x)))
    E = (V / np.sqrt(w)[:, None, :]) @ V.conj().swapaxes(-1, -2)
    return E.reshape(np.shape(x)[:-1] + E.shape[1:])


def gamma_of_vector(rep, chart, t, x, v):
    """γ(v) for a spatial vector with coordinate components v, per row of x and v."""
    Einv_v = np.linalg.solve(spatial_frame(chart, t, x), np.asarray(v, dtype=float)[..., None])
    coeffs = np.concatenate([np.zeros(Einv_v.shape[:-2] + (1,)), Einv_v[..., 0]], axis=-1)
    return rep.gamma_frame(coeffs)


def gamma_time(rep, chart, t, x):
    """γ(∂_t) = β·γ(e₀), per row of x."""
    beta = chart.beta_at(t, np.atleast_2d(x)).reshape(np.shape(x)[:-1])
    return beta[..., None, None] * rep.gammas[0]


def dirac_system(rep, chart):
    """D = Σ_μ ε_μ γ(e_μ)∇_{e_μ} as a first-order system on the chart.

    Its domain is the charts whose spin connection vanishes, so that the
    zero-order term is 0: flat charts and static 1+1-D charts.
    """
    if rep.dim != chart.dim_space + 1:
        raise ContractError(
            f"representation dimension {rep.dim} does not match chart "
            f"spacetime dimension {chart.dim_space + 1}")
    if not (chart.constant or (chart.dim_space == 1 and chart.time_independent)):
        raise ContractError(
            "spin connection does not vanish on this chart; dirac_system "
            "supports flat charts and static 1+1-D charts")
    N = rep.rank
    n = chart.dim_space

    def coeff(t, xs):
        m = xs.shape[0]
        beta = chart.beta_at(t, xs)
        h = chart.h_at(t, xs)
        w, V = np.linalg.eigh(h)
        E = np.einsum("pij,pj,pkj->pik", V, 1.0 / np.sqrt(w), V.conj())
        A = np.zeros((m, n + 1, N, N), dtype=complex)
        A[:, 0] = -(1.0 / beta)[:, None, None] * rep.gammas[0]
        for i in range(n):
            A[:, 1 + i] = np.einsum("pj,jab->pab", E[:, i, :], rep.gammas[1:])
        return A, np.zeros((m, N, N), dtype=complex)

    def metric(t, xs):
        return np.broadcast_to(rep.gram, (xs.shape[0], N, N))

    return FriedrichsSystem(chart, N, coeff, metric, metric_positive=False,
                            name="dirac", time_independent=chart.time_independent)
