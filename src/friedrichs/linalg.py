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

#: default relative rank tolerance (largest singular value sets the scale)
RANK_TOL = 1e-9


def require_hermitian(M, tol=1e-10, what="matrix"):
    M = np.asarray(M, dtype=complex)
    scale = max(1.0, np.linalg.norm(M))
    if np.linalg.norm(M - M.conj().T) > tol * scale:
        raise ContractError(f"{what} is not Hermitian within {tol}")
    return 0.5 * (M + M.conj().T)


def herm_eigen(M, tol=1e-10):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian M."""
    M = require_hermitian(M, tol=tol, what="herm_eigen input")
    w, V = np.linalg.eigh(M)
    return w, V


def _herm(M):
    M = np.asarray(M, dtype=complex)
    return 0.5 * (M + np.conj(np.swapaxes(M, -1, -2)))


def eigh_pencil(A, B):
    """Real eigenvalues (ascending) and B-orthonormal eigenvector columns of the
    Hermitian pencils A v = λ B v, B ≻ 0, over stacks of shape (..., N, N).

    Cholesky reduction B = LLᴴ, C = L⁻¹AL⁻ᴴ, V = L⁻ᴴU (Golub & Van Loan,
    *Matrix Computations*, §8.7); LinAlgError when some B is not ≻ 0.
    """
    Linv = np.linalg.inv(np.linalg.cholesky(_herm(B)))
    LinvH = np.conj(np.swapaxes(Linv, -1, -2))
    w, U = np.linalg.eigh(_herm(Linv @ _herm(A) @ LinvH))
    return w, LinvH @ U


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

    def gram_residual(self):
        gram = self.basis.conj().T @ self.basis
        return float(np.linalg.norm(gram - np.eye(self.rank)))

    def projector(self):
        return self.basis @ self.basis.conj().T


def full_space(N):
    return Subspace(np.eye(N, dtype=complex))


def kernel(M, tol=RANK_TOL):
    """Numerical null space: singular vectors with σ_i ≤ tol·σ_max."""
    M = np.asarray(M, dtype=complex)
    if M.size == 0:
        return full_space(M.shape[1] if M.ndim == 2 else 0)
    _, s, Vh = np.linalg.svd(M)
    smax = s[0] if s.size else 0.0
    ns = Vh.conj().T[:, np.concatenate([s <= tol * smax, np.ones(M.shape[1] - s.size, bool)])]
    return Subspace(ns)


def matrix_rank(M, tol=RANK_TOL):
    M = np.asarray(M, dtype=complex)
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def row_reduce(GB, tol=RANK_TOL):
    """SVD row reduction of a square boundary matrix G_B.

    Returns ``(R, V1, V2)``: the r = rank G_B independent constraint rows
    R = U_r* G_B (ker R = ker G_B), and orthonormal bases of the constrained
    directions V1 (the row space) and the unconstrained directions V2 = ker G_B.
    """
    U, s, Vh = np.linalg.svd(GB)
    r = int(np.sum(s > tol * s[0])) if s.size and s[0] > 0 else 0
    V = Vh.conj().T
    return U[:, :r].conj().T @ GB, V[:, :r], V[:, r:]


def restrict_form(M, W):
    """The form W* M W in the orthonormal basis of W (rank × rank)."""
    B = W.basis
    return B.conj().T @ np.asarray(M, dtype=complex) @ B


def orthogonal_complement_of_image(M, W, gram=None, tol=RANK_TOL):
    """Orthocomplement of M·W with respect to the fiber Gram matrix.

    With pairing ⟨u, v⟩ = v* G u the returned span is
    {v : ⟨M w, v⟩ = 0 for all w ∈ W}, i.e. the null space of (G·M·W)ᴴ.
    ``gram=None`` means the standard inner product.
    """
    M = np.asarray(M, dtype=complex)
    N = M.shape[0]
    G = np.eye(N) if gram is None else np.asarray(gram, dtype=complex)
    image = G @ M @ W.basis
    return kernel(image.conj().T, tol=tol)


def definiteness_sign(W, tol=1e-12):
    """+1 / −1 for a definite Hermitian matrix, 0 if singular or indefinite."""
    ev = np.linalg.eigvalsh(0.5 * (W + W.conj().T))
    scale = max(1.0, float(np.max(np.abs(ev))) if ev.size else 0.0)
    if np.all(ev > tol * scale):
        return 1
    if np.all(ev < -tol * scale):
        return -1
    return 0


def pairwise_sum(values):
    """Deterministic pairwise summation (fixed reduction order)."""
    vals = np.asarray(values)
    if vals.size == 0:
        return vals.dtype.type(0)
    vals = vals.ravel().copy()
    while vals.size > 1:
        half = vals.size // 2
        head = vals[: 2 * half].reshape(half, 2).sum(axis=1)
        vals = np.concatenate([head, vals[2 * half:]])
    return vals[0]
