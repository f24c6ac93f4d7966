"""Boundary conditions, the admissibility verifier, and adjoint boundary spaces.

A boundary condition is a bundle map G_B on the boundary fibers; its pointwise
kernel B is the boundary space.  Admissibility of (S, G_B) requires

  (i)   rank B constant along the boundary,
  (ii)  ⟨σ(n♭)Ψ, Ψ⟩ positive semi-definite on B,
  (iii) rank B = number of nonnegative eigenvalues of σ(n♭), counted in the
        positive companion metric.

Projector-defined spinor conditions store G_B as the complementary projector,
so ker G_B is exactly the projector's range:

    mit_bag:              range ½(Id ∓ iγ(n))
    chirality:            range ½(Id ∓ γ(n)𝒢)          (even spacetime dim)
    riemannian_mit:       range ½(Id ∓ (1/β)γ(n)γ(∂_t))
    riemannian_chirality: range ½(Id ± (i/β)γ(n)γ(∂_t)𝒢_R)

Reduction conditions place normal contractions into block rows:

    neumann_like:  [[0, n⌟, 0], 0, 0]
    transparent:   [[b, n⌟, 0], 0, 0]
    robin:         [[−b, a ν⌟], 0]     with ν the inward normal

(The Robin contraction uses the inward normal: the outward reading flips the
sign of the boundary form and the admissible parameter range.)
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import clifford, geometry
from .errors import ContractError
from .linalg import (RANK_TOL, eigh_pencil, herm_eigen, kernel, matrix_rank,
                     orthogonal_complement_of_image, restrict_form)


@dataclass
class BoundaryCondition:
    name: str
    matrix_fn: Callable  # (chart, BoundaryPoint) -> (N, N) complex
    params: dict = field(default_factory=dict)

    def matrix(self, chart, q):
        return np.asarray(self.matrix_fn(chart, q), dtype=complex)

    def kernel_space(self, chart, q):
        return kernel(self.matrix(chart, q))


@dataclass
class AdmissibilityReport:
    rank_constant: bool
    ranks_by_face: dict
    semidefinite: bool
    min_form_eigenvalue: float
    rank_matches_nonneg_count: bool
    rank_B: int
    nonneg_count: int
    admissible: bool
    witness: Optional[np.ndarray] = None
    witness_form_value: float = 0.0
    cause: Optional[str] = None
    spectra: dict = field(default_factory=dict)

    def summary(self):
        lines = [
            f"admissible: {self.admissible}",
            f"  (i)   rank constant: {self.rank_constant}  ranks={self.ranks_by_face}",
            f"  (ii)  semidefinite:  {self.semidefinite}  "
            f"min form eigenvalue {self.min_form_eigenvalue:.3e}",
            f"  (iii) rank B = {self.rank_B}, nonneg eigenvalues = {self.nonneg_count}: "
            f"{self.rank_matches_nonneg_count}",
        ]
        if self.cause:
            lines.append(f"  cause: {self.cause}")
        if self.witness is not None:
            vec = np.array2string(self.witness, precision=4, suppress_small=True)
            lines.append(f"  witness: {vec}  form value {self.witness_form_value:.3e}")
        return "\n".join(lines)


def boundary_symbol(sys, q):
    """σ(n♭) at a boundary point."""
    nb = geometry.outward_normal(sys.chart, q)
    return sys.symbol(q.t, q.x, nb)


def nonneg_mask(ev):
    """ev ≥ −RANK_TOL·max(1, |ev|), the maximum taken over the last axis (one set
    of speeds per row): characteristic directions count as nonnegative.

    Condition (iii) and the solver's boundary closure both split the speeds
    of ``FriedrichsSystem.characteristics`` with it, so admissibility implies
    a square closure.
    """
    scale = np.maximum(1.0, np.max(np.abs(ev), axis=-1, keepdims=True))
    return ev >= -RANK_TOL * scale


def _nonneg_count(sys, q, nb, A, G, sigma_n):
    """Eigenvalues of σ(n♭) counted in the beta-normalized system: the speeds
    of σ(dt)⁻¹σ(n♭), or the eigenvalues of σ(n♭) itself when σ(dt) is
    singular.  A and G are the coefficient and metric tables at q."""
    if sys.time_sign != 0:
        ev = sys._split(q.t, q.x[None, :], nb, A, G)[0][0]
    elif sys.metric_positive:
        F = G[0] @ sigma_n
        ev, _ = eigh_pencil(0.5 * (F + F.conj().T), G[0])
    else:
        ev = np.linalg.eigvals(sigma_n)
        if np.max(np.abs(ev.imag)) > 1e-8 * max(1.0, np.max(np.abs(ev))):
            raise ContractError("boundary symbol has genuinely complex spectrum; "
                                "no positive companion metric available")
        ev = np.sort(ev.real)
    return int(np.sum(nonneg_mask(ev))), ev


def admissibility(sys, bc, n_time=8, n_tang=4, faces=None, orient_form=False):
    """Verify conditions (i)-(iii) at sampled boundary points.

    The quadratic form of condition (ii) is evaluated in the system's own
    fiber metric (beta-normalization rescales it by the positive factor s*β,
    so the verdict is normalization-invariant for time-sign +1 systems).
    Condition (ii) fails where the form drops below −1e−9·max(1, ‖form‖).
    Eigenvalue counting in (iii) uses the normalized boundary symbol;
    eigenvalues within −RANK_TOL·scale count as nonnegative so characteristic
    directions are included.  ``faces`` restricts the sampling when a
    condition is declared per face.

    ``orient_form=True`` weights the condition-(ii) form by the system's time
    sign — the energy-dissipation criterion of the evolution actually run.
    It agrees with the literal form for time-sign +1 systems and is used to
    vet boundary conditions for time-reversed solves.
    """
    chart = sys.chart
    ranks_by_face = {}
    ker_dims = set()
    min_form = np.inf
    witness = None
    witness_val = 0.0
    counts = set()
    ranks = set()
    spectra = {}
    sign = sys.time_sign if (orient_form and sys.time_sign != 0) else 1
    for face in (chart.faces() if faces is None else faces):
        for q in geometry.boundary_points(chart, face, n_time, n_tang):
            nb = geometry.outward_normal(chart, q)
            A, G = sys.coeff_at(q.t, q.x[None, :])[0], sys.metric_at(q.t, q.x[None, :])
            sigma_n = np.einsum("m,mij->ij", nb.astype(complex), A[0])
            ker_dims.add(sys.fiber_rank - matrix_rank(sigma_n))
            B = bc.kernel_space(chart, q)
            ranks_by_face.setdefault(face, set()).add(B.rank)
            ranks.add(B.rank)
            lowest, v = _form_on_boundary_space(sign * (G[0] @ sigma_n), B)
            if lowest < min_form:
                min_form = lowest
                if v is not None:
                    witness, witness_val = v, lowest
            count, spec = _nonneg_count(sys, q, nb, A, G, sigma_n)
            counts.add(count)
            spectra.setdefault(face, spec)
    ranks_by_face = {f: sorted(r) for f, r in ranks_by_face.items()}
    rank_constant = len(ranks) == 1
    cause = None
    if len(ker_dims) != 1:
        cause = "constant-characteristic violation: dim ker σ(n♭) jumps across samples"
    if not np.isfinite(min_form):
        min_form = 0.0
    semidefinite = witness is None
    rank_B = ranks.pop() if rank_constant else -1
    nonneg = counts.pop() if len(counts) == 1 else -1
    rank_matches = rank_constant and nonneg >= 0 and rank_B == nonneg
    admissible = rank_constant and semidefinite and rank_matches and cause is None
    return AdmissibilityReport(
        rank_constant=rank_constant, ranks_by_face=ranks_by_face,
        semidefinite=semidefinite, min_form_eigenvalue=float(min_form),
        rank_matches_nonneg_count=rank_matches, rank_B=rank_B,
        nonneg_count=nonneg, admissible=admissible,
        witness=witness, witness_form_value=witness_val, cause=cause,
        spectra=spectra)


def _form_on_boundary_space(F, B):
    """Condition (ii) at one point: the Hermitian part of the form F on B.

    Returns its lowest eigenvalue (+inf when B = {0}) and a minimizing vector
    of B when that eigenvalue is below −1e−9·max(1, ‖F‖), else None.
    """
    F = 0.5 * (F + F.conj().T)
    ev, V = herm_eigen(restrict_form(F, B))
    if not ev.size:
        return np.inf, None
    if ev[0] < -1e-9 * max(1.0, float(np.linalg.norm(F))):
        return float(ev[0]), B.basis @ V[:, 0]
    return float(ev[0]), None


def adjoint_boundary_space(sys, bc, q):
    """B† = (σ(n♭)(B))^⊥ in the fiber metric; annihilates σ(n♭)B by construction."""
    G = sys.metric_at(q.t, q.x[None, :])[0]
    sigma_n = boundary_symbol(sys, q)
    B = bc.kernel_space(sys.chart, q)
    return orthogonal_complement_of_image(sigma_n, B, gram=G)


# -- catalog ---------------------------------------------------------------


def _projector_condition(name, params, projector_fn):
    def matrix_fn(chart, q):
        pi = projector_fn(chart, q)
        N = pi.shape[0]
        if np.linalg.norm(pi @ pi - pi) > 1e-10 * max(1.0, np.linalg.norm(pi)):
            raise ContractError(f"{name}: boundary map is not a projection")
        return np.eye(N) - pi

    return BoundaryCondition(name, matrix_fn, params)


def mit_bag(rep, sign=-1):
    """B = range ½(Id + sign·iγ(n)); sign −1 is the classical bag projector."""

    def projector(chart, q):
        n_vec = geometry.normal_vector(chart, q)
        gn = clifford.gamma_of_vector(rep, chart, q.t, q.x, n_vec)
        return 0.5 * (np.eye(rep.rank) + sign * 1j * gn)

    return _projector_condition("mit_bag", {"sign": sign}, projector)


def chirality(rep, sign=-1):
    """B = range ½(Id + sign·γ(n)𝒢) with the volume-form chirality operator."""
    G = clifford.chirality_operator(rep)

    def projector(chart, q):
        n_vec = geometry.normal_vector(chart, q)
        gn = clifford.gamma_of_vector(rep, chart, q.t, q.x, n_vec)
        return 0.5 * (np.eye(rep.rank) + sign * gn @ G)

    return _projector_condition("chirality", {"sign": sign}, projector)


def riemannian_mit(rep, sign=-1):
    """B = range ½(Id + sign·(1/β)γ(n)γ(∂_t)); only the minus sign is admissible."""

    def projector(chart, q):
        beta = chart.beta_at(q.t, q.x[None, :])[0]
        n_vec = geometry.normal_vector(chart, q)
        gn = clifford.gamma_of_vector(rep, chart, q.t, q.x, n_vec)
        gt = clifford.gamma_time(rep, chart, q.t, q.x)
        return 0.5 * (np.eye(rep.rank) + sign * (1.0 / beta) * gn @ gt)

    return _projector_condition("riemannian_mit", {"sign": sign}, projector)


def riemannian_chirality(rep, sign=1):
    """B = range ½(Id + sign·(i/β)γ(n)γ(∂_t)𝒢_R), 𝒢_R commuting with γ(∂_t)."""
    GR = clifford.riemannian_chirality_operator(rep)

    def projector(chart, q):
        beta = chart.beta_at(q.t, q.x[None, :])[0]
        n_vec = geometry.normal_vector(chart, q)
        gn = clifford.gamma_of_vector(rep, chart, q.t, q.x, n_vec)
        gt = clifford.gamma_time(rep, chart, q.t, q.x)
        return 0.5 * (np.eye(rep.rank) + sign * (1j / beta) * gn @ gt @ GR)

    return _projector_condition("riemannian_chirality", {"sign": sign}, projector)


def _normal_contraction_row(layout, chart, q, weight, inward=False):
    """Row block contracting the gradient slots with the (unit) normal."""
    k, n = layout.k, layout.n
    N_rows = np.zeros((k, layout_total(layout)), dtype=complex)
    n_vec = geometry.normal_vector(chart, q)
    if inward:
        n_vec = -n_vec
    for axis in range(n):
        N_rows[:, layout.grad_slot(axis)] += weight * n_vec[axis] * np.eye(k)
    return N_rows


def layout_total(layout):
    k, n = layout.k, layout.n
    width = k + layout.grad_width
    if layout.tail_start is not None:
        width += k
    return width


def robin(a, b, layout):
    """a ∇_ν u − b u = 0 with inward normal ν: G_B = [[−b, −a n_out⌟], 0]."""

    def matrix_fn(chart, q):
        N = layout_total(layout)
        GB = np.zeros((N, N), dtype=complex)
        GB[: layout.k, layout.value_start: layout.value_start + layout.k] = -b * np.eye(layout.k)
        GB[: layout.k] += _normal_contraction_row(layout, chart, q, a, inward=True)
        return GB

    return BoundaryCondition("robin", matrix_fn, {"a": a, "b": b})


def neumann_like(layout):
    """∇_n^Σ u = 0: G_B = [[0, n⌟, 0], 0, 0]."""

    def matrix_fn(chart, q):
        N = layout_total(layout)
        GB = np.zeros((N, N), dtype=complex)
        GB[: layout.k] = _normal_contraction_row(layout, chart, q, 1.0)
        return GB

    return BoundaryCondition("neumann_like", matrix_fn, {})


def transparent(b, layout):
    """∇_n^Σ u = −b ∇_{∂_t} u: G_B = [[b, n⌟, 0], 0, 0]."""

    def matrix_fn(chart, q):
        N = layout_total(layout)
        GB = np.zeros((N, N), dtype=complex)
        GB[: layout.k, layout.value_start: layout.value_start + layout.k] = b * np.eye(layout.k)
        GB[: layout.k] += _normal_contraction_row(layout, chart, q, 1.0)
        return GB

    return BoundaryCondition("transparent", matrix_fn, {"b": b})


def dirichlet(layout):
    """u = 0 at the boundary (Robin with a = 0, b = 1)."""
    return robin(0.0, 1.0, layout)


def zero_trace(N):
    """B = {0}: every characteristic is prescribed (inflow wall)."""
    return custom_bc(np.eye(N), name="zero_trace")


def no_condition(N):
    """B = full fiber: nothing prescribed (pure outflow)."""
    return custom_bc(np.zeros((N, N)), name="no_condition")


def custom_bc(matrix, name="custom"):
    """Constant G_B matrix, or a callable (chart, q) -> matrix."""
    if callable(matrix):
        return BoundaryCondition(name, matrix, {})
    M = np.asarray(matrix, dtype=complex)
    return BoundaryCondition(name, lambda chart, q: M, {})
