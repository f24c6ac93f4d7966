"""Boundary conditions, the admissibility verifier, and adjoint boundary spaces.

A boundary condition is a bundle map G_B on the boundary fibers; its pointwise
kernel B is the boundary space.  Admissibility of (S, G_B) requires

  (i)   rank B constant along the boundary,
  (ii)  ⟨σ(n♭)Ψ, Ψ⟩ positive semi-definite on B,
  (iii) rank B = number of nonnegative eigenvalues of σ(n♭), counted in the
        positive companion metric.

Condition (ii) reads the literal form ⟨G·σ(n♭)Ψ, Ψ⟩ of the system it is
given; a time-reversed system carries its orientation in its own metric.

A condition is evaluated like the coefficients: ``bc.matrix(chart, q)`` at a
``BoundaryPoint`` q gives one G_B per row of q, (m, N, N), or (N, N) at a
single point, so a face's samples cost one call.

The catalog has two families, each with one builder.  A spinor condition
has B = range ½(Id + sign·X) and stores G_B = Id − ½(Id + sign·X):

    mit_bag:              X = iγ(n)
    chirality:            X = γ(n)𝒢                   (even spacetime dim)
    riemannian_mit:       X = (1/β)γ(n)γ(∂_t)
    riemannian_chirality: X = (i/β)γ(n)γ(∂_t)𝒢_R

A reduction condition writes value·Id on the value block and weight·n⌟ on
the gradient slots of the first k rows, n the outward unit normal:

    neumann_like:  [[0, n⌟, 0], 0, 0]
    transparent:   [[b, n⌟, 0], 0, 0]
    robin:         [[−b, −a n⌟], 0]     (a ∇_ν u − b u = 0, ν = −n inward)
    dirichlet:     robin(0, 1)

(The Robin contraction uses the inward normal: the outward reading flips the
sign of the boundary form and the admissible parameter range.)
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import clifford, geometry
from .errors import ConfigError, ContractError
from .linalg import (RANK_TOL, as_table, eigh_pencil, herm_eigen, kernel, matrix_rank,
                     orthogonal_complement_of_image, restrict_form)


@dataclass(eq=False)        # hashed by identity: admissibility verdicts are cached per object
class BoundaryCondition:
    name: str
    matrix_fn: Callable  # (chart, BoundaryPoint q) -> (N, N) G_B per row of q, or one for all
    params: dict = field(default_factory=dict)

    def matrix(self, chart, q):
        """G_B at the boundary point q, (N, N), or at its rows, (m, N, N)."""
        M = as_table(self.matrix_fn(chart, q))
        return np.broadcast_to(M, q.x.shape[:-1] + M.shape[-2:])

    def kernel_space(self, chart, q):
        return kernel(self.matrix(chart, q))


def as_bc_map(sys, bcs):
    """One condition per face of the system's chart: a face map, which must
    name every face and no other, or one condition for all of them."""
    faces = sys.chart.faces()
    if isinstance(bcs, dict):
        missing = [f for f in faces if f not in bcs]
        if missing:
            raise ConfigError(f"missing boundary condition for faces {missing}")
        unknown = [f for f in bcs if f not in faces]
        if unknown:
            raise ConfigError(f"boundary condition for faces {unknown} not on the chart")
        return bcs
    return {f: bcs for f in faces}


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


def _nonneg_count(sys, speeds, G, sigma_n):
    """Eigenvalues of σ(n♭) at one point counted in the beta-normalized
    system: ``speeds``, the point's speeds of σ(dt)⁻¹σ(n♭) from its face's
    characteristic split, or, when σ(dt) is singular (``speeds`` None), the
    eigenvalues of σ(n♭) itself.  G is the metric at the point."""
    if speeds is not None:
        ev = speeds
    elif sys.metric_positive:
        F = G @ sigma_n
        ev, _ = eigh_pencil(0.5 * (F + F.conj().T), G)
    else:
        ev = np.linalg.eigvals(sigma_n)
        if np.max(np.abs(ev.imag)) > 1e-8 * max(1.0, np.max(np.abs(ev))):
            raise ContractError("boundary symbol has genuinely complex spectrum; "
                                "no positive companion metric available")
        ev = np.sort(ev.real)
    return int(np.sum(nonneg_mask(ev))), ev


def admissibility(sys, bc, n_time=8, n_tang=4, faces=None):
    """Verify conditions (i)-(iii) at sampled boundary points.

    The quadratic form of condition (ii) is evaluated in the system's own
    fiber metric (beta-normalization rescales it by the positive factor s*β,
    so the verdict is normalization-invariant for time-sign +1 systems).
    Condition (ii) fails where the form drops below −1e−9·max(1, ‖form‖).
    Eigenvalue counting in (iii) uses the normalized boundary symbol;
    eigenvalues within −RANK_TOL·scale count as nonnegative so characteristic
    directions are included.  ``faces`` restricts the sampling when a
    condition is declared per face.  Each face's conormals and G_B, and then
    the coefficients, metric and (σ(dt) definite) characteristic split of
    all the points, come from one evaluation; the kernel, form and count of
    each point are then taken point by point.  ContractError, naming the face
    and t, at the first point where G_B or σ(n♭) is NaN or Inf.
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
    qs = [geometry.boundary_points(chart, face, chart.sample_times(n_time), n_tang)
          for face in (chart.faces() if faces is None else faces)]
    point_faces = [q.face for q in qs for _ in q.t]
    ts, xs = np.concatenate([q.t for q in qs]), np.concatenate([q.x for q in qs])
    nbs = np.concatenate([geometry.outward_normal(chart, q) for q in qs])
    GB = np.concatenate([bc.matrix(chart, q) for q in qs])
    A, G = sys.coeff_at(ts, xs)[0], sys.metric_at(ts, xs)
    gb_ok = np.isfinite(GB).all(axis=(1, 2))
    ok = gb_ok & np.isfinite(A).all(axis=(1, 2, 3)) & np.isfinite(nbs).all(axis=1)
    if not ok.all():        # the SVDs below would fail without naming the point
        p = int(np.argmin(ok))
        raise ContractError(f"{'σ(n♭)' if gb_ok[p] else 'G_B'} of bc '{bc.name}' is not finite "
                            f"at face {point_faces[p]}, t={ts[p]:.6g}")
    speeds = sys._split(ts, xs, nbs, A, G)[0] if sys.time_sign != 0 else [None] * len(ts)
    for face, nb, GB_q, A_q, G_q, speeds_q in zip(point_faces, nbs, GB, A, G, speeds):
        # complex also for a real A: ``check`` writes this pencil's spectrum, and in
        # real arithmetic kg_robin_check's −0.99999999999999989 would read −1
        sigma_n = np.einsum("m,mij->ij", nb.astype(complex), A_q)
        ker_dims.add(sys.fiber_rank - matrix_rank(sigma_n))
        B = kernel(GB_q)
        ranks_by_face.setdefault(face, set()).add(B.rank)
        ranks.add(B.rank)
        lowest, v = _form_on_boundary_space(G_q @ sigma_n, B)
        if lowest < min_form:
            min_form = lowest
            if v is not None:
                witness, witness_val = v, lowest
        count, spec = _nonneg_count(sys, speeds_q, G_q, sigma_n)
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


def _projector_condition(name, rep, sign, X):
    """B = range ½(Id + sign·X(chart, q)), stored as G_B = Id − ½(Id + sign·X)."""

    def matrix_fn(chart, q):
        pi = 0.5 * (np.eye(rep.rank) + sign * X(chart, q))
        norm = np.linalg.norm(pi, axis=(-2, -1))
        if np.any(np.linalg.norm(pi @ pi - pi, axis=(-2, -1)) > 1e-10 * np.maximum(1.0, norm)):
            raise ContractError(f"{name}: boundary map is not a projection")
        return np.eye(rep.rank) - pi

    return BoundaryCondition(name, matrix_fn, {"sign": sign})


def _gamma_normal(rep, chart, q):
    """γ(n), n the outward unit normal at q."""
    return clifford.gamma_of_vector(rep, chart, q.t, q.x, geometry.normal_vector(chart, q))


def _gamma_normal_time(rep, chart, q):
    """(1/β)γ(n)γ(∂_t)."""
    beta = chart.beta_at(q.t, np.atleast_2d(q.x)).reshape(q.x.shape[:-1])
    return ((1.0 / beta)[..., None, None] * _gamma_normal(rep, chart, q)
            @ clifford.gamma_time(rep, chart, q.t, q.x))


def mit_bag(rep, sign=-1):
    """B = range ½(Id + sign·iγ(n)); sign −1 is the classical bag projector."""
    return _projector_condition("mit_bag", rep, sign,
                                lambda chart, q: 1j * _gamma_normal(rep, chart, q))


def chirality(rep, sign=-1):
    """B = range ½(Id + sign·γ(n)𝒢) with the volume-form chirality operator."""
    G = clifford.chirality_operator(rep)
    return _projector_condition("chirality", rep, sign,
                                lambda chart, q: _gamma_normal(rep, chart, q) @ G)


def riemannian_mit(rep, sign=-1):
    """B = range ½(Id + sign·(1/β)γ(n)γ(∂_t)); only the minus sign is admissible."""
    return _projector_condition("riemannian_mit", rep, sign,
                                lambda chart, q: _gamma_normal_time(rep, chart, q))


def riemannian_chirality(rep, sign=1):
    """B = range ½(Id + sign·(i/β)γ(n)γ(∂_t)𝒢_R), 𝒢_R commuting with γ(∂_t)."""
    GR = clifford.riemannian_chirality_operator(rep)
    return _projector_condition("riemannian_chirality", rep, sign,
                                lambda chart, q: 1j * _gamma_normal_time(rep, chart, q) @ GR)


def _contraction_condition(name, params, layout, value, weight):
    """G_B = [[value·Id, weight·n⌟], 0] with n the outward unit normal: the
    first k rows act on the value block and contract the gradient slots."""

    def matrix_fn(chart, q):
        k, n_vec = layout.k, geometry.normal_vector(chart, q)
        GB = np.zeros(n_vec.shape[:-1] + (layout.width,) * 2, np.result_type(value, weight, n_vec))
        GB[..., :k, :k] += value * np.eye(k)
        for axis in range(layout.n):
            GB[..., :k, layout.grad_slot(axis)] += weight * n_vec[..., axis, None, None] * np.eye(k)
        return GB

    return BoundaryCondition(name, matrix_fn, params)


def robin(a, b, layout):
    """a ∇_ν u − b u = 0 with inward normal ν: G_B = [[−b, −a n_out⌟], 0]."""
    return _contraction_condition("robin", {"a": a, "b": b}, layout, -b, -a)


def neumann_like(layout):
    """∇_n^Σ u = 0: G_B = [[0, n⌟, 0], 0, 0]."""
    return _contraction_condition("neumann_like", {}, layout, 0.0, 1.0)


def transparent(b, layout):
    """∇_n^Σ u = −b ∇_{∂_t} u: G_B = [[b, n⌟, 0], 0, 0]."""
    return _contraction_condition("transparent", {"b": b}, layout, b, 1.0)


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
    """Constant G_B matrix, or a callable (chart, q) -> a matrix per row of q, or one for all."""
    if callable(matrix):
        return BoundaryCondition(name, matrix, {})
    M = as_table(matrix)
    return BoundaryCondition(name, lambda chart, q: M, {})
