from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from friedrichs import linalg
from friedrichs.errors import ContractError
from friedrichs.linalg import (Subspace, eigh_pencil, full_space, herm_eigen,
                               kernel, matrix_rank, orthogonal_complement_of_image,
                               pairwise_sum, restrict_form)


def random_hermitian(n, rng):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return M + M.conj().T


def test_herm_eigen_diagonal():
    w, _ = herm_eigen(np.diag([-1.0, 0.0, 1.0]))
    assert np.allclose(w, [-1.0, 0.0, 1.0])


def test_herm_eigen_pauli_x():
    w, _ = herm_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0])


def test_herm_eigen_reconstruction():
    rng = np.random.default_rng(0)
    M = random_hermitian(6, rng)
    w, V = herm_eigen(M)
    assert np.linalg.norm(M - (V * w) @ V.conj().T) < 1e-10 * np.linalg.norm(M)
    assert len(w) == 6
    assert abs(np.sum(w) - np.trace(M).real) < 1e-10 * max(1, np.linalg.norm(M))


def test_herm_eigen_rejects_non_hermitian():
    with pytest.raises(ContractError):
        herm_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigenvectors_orthonormal():
    rng = np.random.default_rng(1)
    _, V = herm_eigen(random_hermitian(5, rng))
    assert np.linalg.norm(V.conj().T @ V - np.eye(5)) < 1e-12


def test_kernel_zero_matrix():
    assert kernel(np.zeros((3, 3))).rank == 3


def test_kernel_identity():
    assert kernel(np.eye(4)).rank == 0


def test_kernel_wave_boundary_symbol():
    # n=1, k=1 wave reduction symbol at the boundary: kernel rank 1
    sn = np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert kernel(sn).rank == 1


def test_kernel_orthogonal_to_row_space():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((4, 5))
    ker = kernel(M)
    assert np.linalg.norm(M @ ker.basis) < 1e-10


def test_restrict_form_identity():
    W = Subspace(np.eye(4)[:, :2])
    assert np.allclose(restrict_form(np.eye(4), W), np.eye(2))


def test_restrict_form_diag():
    W = Subspace(np.eye(2)[:, :1])
    assert np.allclose(restrict_form(np.diag([1.0, -1.0]), W), [[1.0]])


def test_restriction_interlacing():
    # Cauchy interlacing: eigenvalues of a rank-3 restriction sit between
    # the outer eigenvalues of the 5x5 form
    rng = np.random.default_rng(3)
    M = random_hermitian(5, rng)
    Q, _ = np.linalg.qr(rng.standard_normal((5, 3)))
    W = Subspace(Q)
    lam, _ = herm_eigen(M)
    mu, _ = herm_eigen(restrict_form(M, W))
    for j, m in enumerate(mu):
        assert lam[j] - 1e-10 <= m <= lam[j + 2] + 1e-10


def test_complement_of_identity_image():
    W = Subspace(np.eye(2)[:, :1])
    comp = orthogonal_complement_of_image(np.eye(2), W)
    assert comp.rank == 1
    assert abs(comp.basis[1, 0]) == pytest.approx(1.0)


def test_complement_of_zero_map():
    W = Subspace(np.eye(3)[:, :2])
    assert orthogonal_complement_of_image(np.zeros((3, 3)), W).rank == 3


def test_complement_with_indefinite_gram():
    rng = np.random.default_rng(4)
    G = np.diag([1.0, -1.0, 1.0])
    M = random_hermitian(3, rng)
    W = Subspace(np.linalg.qr(rng.standard_normal((3, 2)))[0])
    comp = orthogonal_complement_of_image(M, W, gram=G)
    pairing = comp.basis.conj().T @ G @ M @ W.basis
    assert np.max(np.abs(pairing)) < 1e-10


def test_eigh_pencil_matches_transformed_problem():
    rng = np.random.default_rng(5)
    A = random_hermitian(4, rng)
    B = random_hermitian(4, rng)
    B = B @ B.conj().T + np.eye(4)
    w, V = eigh_pencil(A, B)
    assert np.linalg.norm(A @ V - B @ V @ np.diag(w)) < 1e-9
    assert np.linalg.norm(V.conj().T @ B @ V - np.eye(4)) < 1e-10


@st.composite
def pencil_stacks(draw):
    """Stacks (batch ≤ 8, N ≤ 4) of random Hermitian A and B ≻ 0 with
    cond(B) ≤ 1e6, real symmetric in a real draw, and an index into the stack."""
    batch, N, real = draw(st.integers(1, 8)), draw(st.integers(1, 4)), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = np.stack([random_hermitian(N, rng) for _ in range(batch)])
    Z = rng.standard_normal((batch, N, N)) + 1j * rng.standard_normal((batch, N, N))
    if real:
        A, Z = A.real, Z.real
    Q = np.linalg.qr(Z)[0]
    spectrum = 10.0 ** rng.uniform(0.0, draw(st.floats(0.0, 6.0)), (batch, N))
    B = (Q * spectrum[:, None, :]) @ np.conj(np.swapaxes(Q, 1, 2))
    return A, B, Q, spectrum, draw(st.integers(0, batch - 1))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(pencil_stacks())
def test_batched_pencil_matches_scipy_per_slice(stack):
    # eigenvalues on the scale ‖A‖‖B⁻¹‖ that bounds them, and AV = BVΛ on the
    # normwise scale ‖A‖ + |λ|‖B‖: the entries of BVΛ reach cond(B); a real
    # symmetric pencil is solved in real arithmetic
    A, B, Q, spectrum, j = stack
    w, V = eigh_pencil(A, B)
    assert w.dtype == np.float64 and V.dtype == B.dtype == A.dtype
    for a, b, wi, vi, s in zip(A, B, w, V, spectrum):
        expect = scipy.linalg.eigh(a, b, eigvals_only=True)
        norm_a = np.linalg.norm(a, 2)
        assert np.max(np.abs(wi - expect)) <= 1e-10 * norm_a / s.min()
        resid = np.max(np.abs(a @ vi - b @ vi * wi))
        assert resid <= 1e-10 * (norm_a + np.max(np.abs(wi)) * s.max())
    Vh = np.conj(np.swapaxes(V, 1, 2))
    assert np.max(np.abs(Vh @ B @ V - np.eye(A.shape[1]))) <= 1e-10
    spectrum[j, 0] = -spectrum[j, 0]
    with pytest.raises(np.linalg.LinAlgError):
        eigh_pencil(A, (Q * spectrum[:, None, :]) @ np.conj(np.swapaxes(Q, 1, 2)))


def lapack_pencil(A, B):
    """eigh_pencil with every factor B = LLᴴ taken by LAPACK's Cholesky."""
    with mock.patch.object(linalg, "_cholesky", lambda B: linalg.soa(np.linalg.cholesky(B))):
        return eigh_pencil(A, B)


def outcome(pencil, A, B):
    """The bytes of pencil(A, B)'s λ and V, or the type of the error it raises."""
    try:
        with np.errstate(invalid="ignore"):
            return [a.tobytes() for a in pencil(A, B)]
    except np.linalg.LinAlgError as exc:
        return type(exc)


@st.composite
def diagonal_pencil_stacks(draw):
    """Stacks (batch ≤ 8, N ≤ 4) of random Hermitian A, real symmetric in a
    real draw, and diagonal B ≻ 0 with cond(B) ≤ 1e6 whose off-diagonal
    entries are zeros of either sign."""
    batch, N, real = draw(st.integers(1, 8)), draw(st.integers(1, 4)), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = np.stack([random_hermitian(N, rng) for _ in range(batch)])
    zeros = rng.choice([0.0, -0.0], (2, batch, N, N))
    B = zeros[0] if real else zeros[0] + 1j * zeros[1]
    i = np.arange(N)
    B[:, i, i] = 10.0 ** rng.uniform(0.0, draw(st.floats(0.0, 6.0)), (batch, N))
    return (A.real, B) if real else (A, B)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(diagonal_pencil_stacks())
def test_diagonal_pencil_is_bitwise_the_cholesky_path(stack):
    # a diagonal B ≻ 0 is factored by square roots, without LAPACK, and gives
    # bitwise the eigenvalues and eigenvectors of LAPACK's factor
    A, B = stack
    expect = outcome(lapack_pencil, A, B)
    with mock.patch.object(np.linalg, "cholesky", None):
        assert outcome(eigh_pencil, A, B) == expect


@pytest.mark.parametrize("entry", [0.0, -0.0, -1.0, np.nan])
@pytest.mark.parametrize("dtype", [float, complex])
def test_diagonal_pencil_that_is_not_positive_is_lapacks(entry, dtype):
    # a zero, negative or NaN diagonal entry is handed to LAPACK, which
    # raises LinAlgError where B is not ≻ 0 and lets a NaN through to eigh:
    # the outcome is LAPACK's, as for any B
    A = np.stack([random_hermitian(3, np.random.default_rng(7))] * 2)
    A = A.real if dtype is float else A
    B = np.stack([np.diag([1.0, 2.0, 3.0])] * 2).astype(dtype)
    B[1, 1, 1] = entry
    got = outcome(eigh_pencil, A, B)
    assert got == outcome(lapack_pencil, A, B)
    assert got is np.linalg.LinAlgError or entry != entry


def test_matrix_rank_tolerance():
    M = np.diag([1.0, 1e-12, 0.0])
    assert matrix_rank(M) == 1


def test_subspace_bases_are_orthonormal():
    M = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 0.0]])
    for space in (full_space(3), kernel(M)):
        B = space.basis
        assert np.linalg.norm(B.conj().T @ B - np.eye(space.rank)) < 1e-12


def test_pairwise_sum_deterministic_and_accurate():
    rng = np.random.default_rng(6)
    vals = rng.standard_normal(1000)
    s1 = pairwise_sum(vals)
    s2 = pairwise_sum(vals.copy())
    assert s1 == s2
    assert abs(s1 - np.sum(vals, dtype=np.longdouble)) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 7, 64, 1025])
def test_pairwise_sum_along_the_last_axis_is_bitwise_the_row_sums(n):
    rng = np.random.default_rng(n)
    vals = rng.standard_normal((3, 4, n)) * 10.0 ** rng.integers(-8, 8, (3, 4, n))
    rows = pairwise_sum(vals)
    assert rows.shape == (3, 4)
    assert np.array_equal(rows, [[pairwise_sum(row) for row in block] for block in vals])
