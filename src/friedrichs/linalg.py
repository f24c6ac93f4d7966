"""Small dense complex linear algebra for fiber-wise computations.

Everything here operates on N×N matrices with N ≲ 64: plain dense
eigendecompositions, SVD-based kernels and orthocomplements, and stacks of
Hermitian definite pencils (A, B) with B positive definite.  Subspaces are
stored with orthonormal spanning columns in the standard inner product;
orthogonality *relative to a Gram matrix* is a property of the span and is
taken where the operation says so.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError

#: relative rank tolerance (largest singular value sets the scale)
RANK_TOL = 1e-9


def as_table(x):
    """A table that comes in, in the arithmetic its values need: float64 when
    no entry has a nonzero imaginary part, else complex128."""
    x = np.asarray(x)
    if np.iscomplexobj(x) and np.any(x.imag):
        return x.astype(complex, copy=False)
    return x.real.astype(float, copy=False)


def herm_eigen(M):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian M
    (ContractError unless ‖M − M*‖ ≤ 1e−10·max(1, ‖M‖))."""
    M = np.asarray(M, dtype=complex)
    if np.linalg.norm(M - M.conj().T) > 1e-10 * max(1.0, np.linalg.norm(M)):
        raise ContractError("herm_eigen input is not Hermitian within 1e-10")
    return np.linalg.eigh(0.5 * (M + M.conj().T))


def _herm(M):
    M = np.asarray(M)
    return 0.5 * (M + np.conj(np.swapaxes(M, -1, -2)))


def soa(M):
    """A stack of matrices (..., N, N) in structure-of-arrays layout, the
    matrix indices leading: contiguous (N, N, ...).  Products of such stacks
    (``soa_mul``) run as one einsum over the whole stack, without the
    per-matrix cost of numpy's stacked ``@`` on small N."""
    return np.ascontiguousarray(M.transpose((M.ndim - 2, M.ndim - 1, *range(M.ndim - 2))))


def aos(M):
    """The stack (..., N, N) of a structure-of-arrays stack (N, N, ...), as a view."""
    return M.transpose((*range(2, M.ndim), 0, 1))


def soa_mul(X, Y):
    """The matrix products X·Y of two structure-of-arrays stacks."""
    return np.einsum("ij...,jk...->ik...", X, Y)


def _lower_inverse(L):
    """The inverses of the lower triangular structure-of-arrays stack L by
    forward substitution, one row of all the matrices at a time."""
    X = np.zeros_like(L)
    for i in range(L.shape[0]):
        X[i, i] = 1.0 / L[i, i]
        if i:
            X[i, :i] = -X[i, i] * (L[i, :i, None] * X[:i, :i]).sum(axis=0)
    return X


def _cholesky(B):
    """Lower Cholesky factors of the Hermitian stack B in ``soa`` layout: the square
    roots of a positive diagonal when no off-diagonal entry is nonzero (bitwise LAPACK's
    factor), else LAPACK's, which raises LinAlgError where some B is not ≻ 0."""
    S = soa(B)
    diag = S[range(len(S)), range(len(S))].real
    if np.all(diag > 0) and np.count_nonzero(S) == diag.size:
        S[range(len(S)), range(len(S))] = np.sqrt(diag)
        return S
    return soa(np.linalg.cholesky(B))


def eigh_pencil(A, B):
    """Real eigenvalues (ascending) and B-orthonormal eigenvector columns of the
    Hermitian pencils A v = λ B v, B ≻ 0, over stacks of shape (..., N, N).

    Cholesky reduction B = LLᴴ (``_cholesky``), C = L⁻¹AL⁻ᴴ, V = L⁻ᴴU (Golub &
    Van Loan, *Matrix Computations*, §4.2, §8.7); LinAlgError when some B is not ≻ 0.
    L⁻¹ and the products are taken in structure-of-arrays layout (``soa``), and
    ``np.linalg.eigh`` solves the Hermitian cores C.  Real symmetric pencils
    stay in real arithmetic; any complex input makes the pencil complex.
    """
    Linv = _lower_inverse(_cholesky(_herm(B)))
    LinvH = np.conj(Linv.swapaxes(0, 1))
    A = soa(np.asarray(A))
    C = soa_mul(soa_mul(Linv, 0.5 * (A + np.conj(A.swapaxes(0, 1)))), LinvH)
    w, U = np.linalg.eigh(aos(0.5 * (C + np.conj(C.swapaxes(0, 1)))))
    return w, aos(soa_mul(LinvH, soa(U)))


@dataclass
class Subspace:
    """Subspace of ℂ^N spanned by orthonormal columns of ``basis`` (N × rank)."""

    basis: np.ndarray

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=complex)
        if self.basis.ndim != 2:
            raise ContractError("subspace basis must be a 2D array")

    @property
    def rank(self):
        return self.basis.shape[1]


def full_space(N):
    return Subspace(np.eye(N, dtype=complex))


def kernel(M):
    """Numerical null space: singular vectors with σ_i ≤ RANK_TOL·σ_max."""
    M = np.asarray(M, dtype=complex)
    if M.size == 0:
        return full_space(M.shape[1] if M.ndim == 2 else 0)
    _, s, Vh = np.linalg.svd(M)
    smax = s[0] if s.size else 0.0
    ns = Vh.conj().T[:, np.concatenate([s <= RANK_TOL * smax, np.ones(M.shape[1] - s.size, bool)])]
    return Subspace(ns)


def matrix_rank(M):
    M = np.asarray(M, dtype=complex)
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_TOL * s[0]))


def row_reduce(GB):
    """SVD row reduction of a square boundary matrix G_B, or of a stack
    (..., N, N) of them that share one rank (ContractError otherwise).

    Returns ``(R, V1, V2)``: the r = rank G_B independent constraint rows
    R = U_r* G_B (ker R = ker G_B), and orthonormal bases of the constrained
    directions V1 (the row space) and the unconstrained directions V2 = ker G_B.
    """
    U, s, Vh = np.linalg.svd(GB)
    ranks = (s > RANK_TOL * s[..., :1]).sum(axis=-1)
    r = int(ranks.flat[0])
    if (ranks != r).any():
        raise ContractError(f"the stacked boundary matrices have ranks {np.unique(ranks)}")
    V = Vh.conj().swapaxes(-1, -2)
    return U[..., :r].conj().swapaxes(-1, -2) @ GB, V[..., :r], V[..., r:]


def restrict_form(M, W):
    """The form W* M W in the orthonormal basis of W (rank × rank)."""
    B = W.basis
    return B.conj().T @ np.asarray(M, dtype=complex) @ B


def orthogonal_complement_of_image(M, W, gram=None):
    """Orthocomplement of M·W with respect to the fiber Gram matrix.

    With pairing ⟨u, v⟩ = v* G u the returned span is
    {v : ⟨M w, v⟩ = 0 for all w ∈ W}, i.e. the null space of (G·M·W)ᴴ.
    ``gram=None`` means the standard inner product.
    """
    M = np.asarray(M, dtype=complex)
    N = M.shape[0]
    G = np.eye(N) if gram is None else np.asarray(gram, dtype=complex)
    image = G @ M @ W.basis
    return kernel(image.conj().T)


def definiteness_sign(W):
    """+1 / −1 for a definite Hermitian matrix, 0 if singular or indefinite,
    with eigenvalues compared against 1e−12·max(1, max|λ|); one sign per
    matrix of a stack (..., N, N)."""
    ev = np.linalg.eigvalsh(0.5 * (W + np.conj(np.swapaxes(W, -1, -2))))
    scale = np.maximum(1.0, np.max(np.abs(ev), axis=-1, initial=0.0))[..., None]
    sign = np.all(ev > 1e-12 * scale, axis=-1).astype(int) - np.all(ev < -1e-12 * scale, axis=-1)
    return sign if sign.ndim else int(sign)


def pairwise_sum(values):
    """Deterministic pairwise summation along the last axis: neighbours add in
    pairs, an odd last entry carried, until one is left (the same order per row)."""
    vals = np.asarray(values)
    if vals.shape[-1] == 0:
        return np.zeros(vals.shape[:-1], vals.dtype)[()]
    while (n := vals.shape[-1]) > 1:
        head = vals[..., 0:n - 1:2] + vals[..., 1:n:2]
        vals = head if n % 2 == 0 else np.concatenate([head, vals[..., -1:]], axis=-1)
    return vals[..., 0][()]
