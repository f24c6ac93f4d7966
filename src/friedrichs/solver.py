"""Time-stepping on the strip: characteristic upwind, implicit positive systems,
energy traces, propagation-speed measurement, Green operators, convergence.

Hyperbolic systems are advanced explicitly after beta-normalization:

    ∂_t Ψ + Ã ∂_x Ψ + C̃ Ψ = f̃,   Ã = σ(dt)⁻¹σ(dx),   P = s*·β·G·σ(dt) ≻ 0

with the first-order local-characteristic upwind update (central difference
plus |Ã| dissipation, |Ã| the P-spectral absolute value at cell faces) and a
ghost-cell boundary closure: outgoing/zero characteristic components of the
ghost match the interior cell, incoming components solve G_B(Ψ_g + Ψ_in)/2 = 0.
Condition (iii) of admissibility is exactly the statement that this closure is
a square solvable system.

Symmetric positive systems with singular σ(dt) (reaction-diffusion,
Klein-Gordon reduction) are stepped implicitly (backward difference, direct
sparse solve per step) on a node grid, with boundary rows replaced by the
row-reduced G_B in the constrained directions.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import (BoundaryClosureError, ConfigError, ContractError,
                     NotAdmissibleError, NotHyperbolicError)
from .linalg import eigh_pencil, pairwise_sum, row_reduce
from .boundary import admissibility, boundary_symbol, nonneg_mask


@dataclass
class Grid:
    nx: int               # number of cells
    dx: float
    dt: float
    nt: int
    cfl: float
    xs: np.ndarray        # sample positions (cell centers or nodes)
    ts: np.ndarray        # time levels, length nt + 1
    staggered: bool       # True: cell centers (explicit), False: nodes (implicit)

    @property
    def t0(self):
        return float(self.ts[0])

    @property
    def t1(self):
        return float(self.ts[-1])


def make_grid(sys, nx, cfl=0.5, t_final=None, nt=None):
    """Uniform grid with Δt = CFL·Δx / max characteristic speed.

    For systems with singular σ(dt) (implicit stepping, no CFL constraint)
    the nominal speed 1 is used and the grid is node-based.
    """
    if isinstance(nx, bool) or not isinstance(nx, numbers.Integral) or nx < 1:
        raise ConfigError(f"nx must be a positive integer, got {nx!r}")
    if isinstance(cfl, bool) or not isinstance(cfl, numbers.Real) or not 0 < cfl <= 0.9:
        raise ConfigError(f"CFL must be in (0, 0.9], got {cfl!r}")
    chart = sys.chart
    L = chart.space_extent[0]
    if chart.dim_space != 1:
        raise ContractError("the solver supports one spatial dimension")
    dx = L / nx
    staggered = sys.time_sign != 0
    speed = geometry.max_characteristic_speed(chart, sys, per_axis=8) if staggered else 1.0
    t0 = chart.t_range[0]
    t1 = chart.t_range[1] if t_final is None else t_final
    T = t1 - t0
    if nt is None:
        nt = max(1, math.ceil(T * speed / (cfl * dx)))
    dt = T / nt
    if staggered:
        xs = (np.arange(nx) + 0.5) * dx
    else:
        xs = np.linspace(0.0, L, nx + 1)
    ts = t0 + dt * np.arange(nt + 1)
    return Grid(nx, dx, dt, nt, cfl, xs, ts, staggered)


@dataclass
class GridField:
    """Sampled space-time section: values of shape (nt+1, n_x, N)."""

    values: np.ndarray
    grid: Grid
    system_name: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)

    def level(self, m):
        return self.values[m]

    def pointwise_norm(self):
        return np.linalg.norm(self.values, axis=2)


def write_field(path, fld):
    """Flat binary dump with a one-line text header (dims + dtype)."""
    vals = np.ascontiguousarray(fld.values.astype("<c16"))
    nt1, nx, N = vals.shape
    header = f"field nt1={nt1} nx={nx} N={N} dtype=complex128 byteorder=little\n"
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(vals.tobytes())


def read_field(path):
    with open(path, "rb") as fh:
        header = fh.readline().decode()
        fields = dict(tok.split("=") for tok in header.split()[1:])
        shape = (int(fields["nt1"]), int(fields["nx"]), int(fields["N"]))
        vals = np.frombuffer(fh.read(), dtype="<c16").reshape(shape)
    return vals


def _as_bc_map(sys, bcs):
    faces = sys.chart.faces()
    if isinstance(bcs, dict):
        missing = [f for f in faces if f not in bcs]
        if missing:
            raise ConfigError(f"missing boundary condition for faces {missing}")
        return bcs
    return {f: bcs for f in faces}


def _eval_forcing(f, t, xs, N):
    if f is None:
        return None
    out = np.asarray(f(t, xs[:, None]), dtype=complex)
    if out.shape != (xs.size, N):
        raise ConfigError(f"forcing must return shape ({xs.size}, {N})")
    return out


def _eval_initial(h, xs, N):
    if h is None:
        return np.zeros((xs.size, N), dtype=complex)
    arr = h(xs) if callable(h) else np.asarray(h, dtype=complex)
    arr = np.asarray(arr, dtype=complex)
    if arr.shape != (xs.size, N):
        raise ConfigError(f"initial data must have shape ({xs.size}, {N})")
    return arr


def _finite(psi, m, t):
    """``psi``, the solution at level m (time t), unless it holds NaN or Inf."""
    if not np.isfinite(psi).all():
        raise BoundaryClosureError(f"solution is not finite at level m={m}, t={t:.6g}")
    return psi


def _levels(sys, ts, tables):
    """Yield (t, tables(t)) for each time level in ``ts``.

    The one place that decides when coefficients are evaluated: every level
    for time-dependent systems, once in total for static ones.
    """
    tb = None
    for t in ts:
        if tb is None or not sys.static:
            tb = tables(t)
        yield t, tb


# -- explicit characteristic upwind -----------------------------------------


def _explicit_tables(sys, bc_map, grid, t, force):
    """Frozen-time tables of one upwind step: σ(dt)⁻¹, Ã and C̃ at the cells,
    |Ã| at the faces, and the ghost-cell closure of each boundary face.

    The coefficients are evaluated once, on the cells and the faces together,
    and one characteristic split serves the faces (covector dx) and the two
    boundary faces (their outward conormals).  Raises ContractError when the
    realised CFL max|λ|·Δt/Δx at the faces exceeds 1, the stability bound of
    the upwind step.
    """
    chart, nx = sys.chart, grid.nx
    faces = np.append(np.arange(nx) * grid.dx, chart.space_extent[0])
    A, C = sys.coeff_at(t, np.concatenate([grid.xs, faces])[:, None])
    a0inv = np.linalg.inv(A[:nx, 0])
    ends = [geometry.BoundaryPoint(t, face, np.array([chart.face_position(face)]))
            for face in chart.faces()]
    xi = np.vstack([np.broadcast_to((0.0, 1.0), (nx + 1, 2))]
                   + [geometry.outward_normal(chart, q) for q in ends])
    rows = np.r_[0:nx + 1, 0, nx]
    split = sys.characteristics(t, faces[rows, None], xi, A[nx:][rows])
    lam, V, P = (a[:-2] for a in split)
    speed = np.max(np.abs(lam), axis=1)
    worst = int(np.argmax(speed))
    cfl = speed[worst] * grid.dt / grid.dx
    if cfl > 1.0:
        raise ContractError(f"realised CFL {cfl:.4g} > 1 at t={t:.6g}, "
                            f"x={faces[worst]:.6g}: lower the grid's cfl")
    Aabs = (V * np.abs(lam)[:, None, :]) @ np.conj(np.swapaxes(V, 1, 2)) @ P
    closures = [_boundary_closure(bc_map[q.face], chart, q, *(a[i] for a in split), force)
                for q, i in zip(ends, (-2, -1))]
    return a0inv, a0inv @ A[:nx, 1], a0inv @ C[:nx], Aabs, closures


def _boundary_closure(bc, chart, q, lam, V, P, force):
    """Matrix T with ghost = T @ Ψ_edge implementing the characteristic closure
    at the boundary point q, from the split (λ, V, P) of its outward conormal."""
    keep = nonneg_mask(lam)
    W_oz = V[:, keep].conj().T @ P
    R, _, _ = row_reduce(bc.matrix(chart, q))
    r, n_in = R.shape[0], int(np.sum(~keep))
    K = np.vstack([W_oz, R])                # square exactly when r == n_in
    rhs_map = np.vstack([W_oz, -R])
    if r != n_in:
        if not force:
            raise BoundaryClosureError(
                f"boundary closure at face {q.face}: {n_in} incoming characteristics "
                f"vs rank-{r} condition (admissibility (iii) defect)")
        return np.linalg.pinv(K) @ rhs_map
    try:
        return np.linalg.solve(K, rhs_map)
    except np.linalg.LinAlgError as exc:
        if force:
            return np.linalg.pinv(K) @ rhs_map
        raise BoundaryClosureError(f"singular closure at face {q.face}") from exc


def _solve_explicit(sys, bc_map, f, h0, grid, force):
    nx, N = grid.nx, sys.fiber_rank
    out = np.empty((grid.nt + 1, nx, N), dtype=complex)
    out[0] = _finite(h0, 0, grid.t0)
    dt, dx = grid.dt, grid.dx
    psi = out[0].copy()
    pad = np.empty((nx + 2, N), dtype=complex)
    levels = _levels(sys, grid.ts[:-1],
                     lambda t: _explicit_tables(sys, bc_map, grid, t, force))
    for m, (t, (a0inv, Atil, Ctil, Aabs, (T_left, T_right))) in enumerate(levels):
        pad[0] = T_left @ psi[0]
        pad[-1] = T_right @ psi[-1]
        pad[1:-1] = psi
        jump = pad[1:] - pad[:-1]                       # (nx+1, N)
        diss = np.einsum("fij,fj->fi", Aabs, jump)      # |Ã|·jump at faces
        central = (pad[2:] - pad[:-2]) / (2 * dx)
        rhs = -np.einsum("pij,pj->pi", Atil, central)
        rhs += (diss[1:] - diss[:-1]) / (2 * dx)
        rhs -= np.einsum("pij,pj->pi", Ctil, psi)
        src = _eval_forcing(f, t, grid.xs, N)
        if src is not None:
            rhs += np.einsum("pij,pj->pi", a0inv, src)
        psi = psi + dt * rhs
        out[m + 1] = _finite(psi, m + 1, grid.ts[m + 1])
    return out


# -- implicit positive systems -----------------------------------------------


def _implicit_matrix(sys, bc_map, grid, t):
    """Backward-Euler operator with boundary rows replaced in constrained
    directions by the row-reduced G_B.

    Returns its sparse LU factor, the boundary rows {node: (R, V1, V2)} of
    ``row_reduce`` and the σ(dt) table A⁰ of the nodes.
    """
    import scipy.sparse
    import scipy.sparse.linalg

    chart = sys.chart
    npts, N = grid.xs.size, sys.fiber_rank
    A, C = sys.coeff_at(t, grid.xs[:, None])
    dt, dx = grid.dt, grid.dx
    # lower, diagonal and upper block of each block row: centred differences
    # inside, one-sided at the two edge nodes
    B = np.zeros((npts, 3, N, N), dtype=complex)
    B[:, 1] = A[:, 0] / dt + C
    B[1:-1, 0] = -A[1:-1, 1] / (2 * dx)
    B[1:-1, 2] = A[1:-1, 1] / (2 * dx)
    B[0, 1] -= A[0, 1] / dx
    B[0, 2] = A[0, 1] / dx
    B[-1, 1] += A[-1, 1] / dx
    B[-1, 0] = -A[-1, 1] / dx
    boundary_rows = {}
    for face in chart.faces():
        node = 0 if face[1] == 0 else npts - 1
        q = geometry.BoundaryPoint(t, face, np.array([chart.face_position(face)]))
        R, V1, V2 = boundary_rows[node] = row_reduce(bc_map[face].matrix(chart, q))
        # drop the PDE equations along the constrained directions and
        # install the constraint rows there instead
        B[node] = V2 @ V2.conj().T @ B[node]
        B[node, 1] += V1 @ R
    i = np.arange(npts)[:, None, None, None]
    ii = np.arange(N)[:, None]
    rows = np.broadcast_to(i * N + ii, B.shape)
    cols = np.broadcast_to((i + np.arange(-1, 2)[:, None, None]) * N + ii.T, B.shape)
    nz = np.abs(B) > 0
    mat = scipy.sparse.csr_matrix((B[nz], (rows[nz], cols[nz])), shape=(npts * N,) * 2)
    return scipy.sparse.linalg.splu(mat.tocsc()), boundary_rows, A[:, 0]


def _solve_implicit(sys, bc_map, f, h0, grid, force):
    xs = grid.xs
    npts, N = xs.size, sys.fiber_rank
    out = np.empty((grid.nt + 1, npts, N), dtype=complex)
    out[0] = _finite(h0, 0, grid.t0)
    psi = out[0].copy()
    levels = _levels(sys, grid.ts[1:], lambda t: _implicit_matrix(sys, bc_map, grid, t))
    for m, (t1, (lu, brows, A0)) in enumerate(levels):
        rhs = np.einsum("pij,pj->pi", A0, psi) / grid.dt
        src = _eval_forcing(f, t1, xs, N)
        if src is not None:
            rhs += src
        for node, (R, V1, V2) in brows.items():
            rhs[node] = V2 @ (V2.conj().T @ rhs[node])
        psi = lu.solve(rhs.ravel()).reshape(npts, N)
        out[m + 1] = _finite(psi, m + 1, t1)
    return out


def enforce_admissibility(sys, bc_map, orient_form=False):
    """The refusal policy of every solve: each face's condition must pass the
    admissibility check sampled at 4 times × 2 tangential points.

    Raises NotAdmissibleError with the condition, the face and the report of
    the first face that fails.  ``orient_form`` is passed to ``admissibility``
    (time-reversed solves).
    """
    for face, bc in bc_map.items():
        rep = admissibility(sys, bc, n_time=4, n_tang=2, faces=[face],
                            orient_form=orient_form)
        if not rep.admissible:
            raise NotAdmissibleError(bc, face, rep)


def solve(sys, bcs, f=None, h=None, grid=None, check_admissible=True, force=False):
    """Advance S Ψ = f, Ψ(t₀) = h, Ψ|∂ ∈ ker G_B over the grid.

    Hyperbolic systems use the explicit characteristic upwind scheme;
    symmetric positive systems with singular σ(dt) are stepped implicitly.
    Unless ``force`` is given, the boundary conditions must pass
    ``enforce_admissibility`` — the one refusal policy, shared with the CLI — or
    NotAdmissibleError is raised; ``force=True`` (counterexample studies)
    skips the check entirely.
    """
    if grid is None:
        raise ConfigError("solve requires a grid (make_grid)")
    bc_map = _as_bc_map(sys, bcs)
    if check_admissible and not force:
        enforce_admissibility(sys, bc_map)
    h0 = _eval_initial(h, grid.xs, sys.fiber_rank)
    if grid.staggered:
        if sys.time_sign == 0:
            raise NotHyperbolicError("explicit path needs a definite σ(dt)-form")
        vals = _solve_explicit(sys, bc_map, f, h0, grid, force)
    else:
        vals = _solve_implicit(sys, bc_map, f, h0, grid, force)
    return GridField(vals, grid, sys.name)


# -- diagnostics -------------------------------------------------------------


@dataclass
class EnergyTrace:
    ts: np.ndarray
    energy: np.ndarray
    flux: np.ndarray

    @property
    def final_ratio(self):
        return float(self.energy[-1] / self.energy[0]) if self.energy[0] != 0 else np.inf

    @property
    def max_step_growth(self):
        e = self.energy
        prev = e[:-1]
        ok = prev > 0
        return float(np.max(e[1:][ok] / prev[ok])) if np.any(ok) else 1.0


def _energy_tables(sys, grid, t):
    """Tables of one energy_trace level: the energy metric (P, or G when the
    system has no positive companion metric), √det h, and per face the edge
    index, s*·β, G and σ(n♭)."""
    chart = sys.chart
    xs2 = grid.xs[:, None]
    P = sys.positive_metric_at(t, xs2)
    if P is None:
        P = sys.metric_at(t, xs2)
    s = sys.time_sign if sys.time_sign != 0 else 1
    faces = []
    for face in chart.faces():
        q = geometry.BoundaryPoint(t, face, np.array([chart.face_position(face)]))
        G = sys.metric_at(t, q.x[None, :])[0]
        beta = chart.beta_at(t, q.x[None, :])[0]
        faces.append((0 if face[1] == 0 else -1, s * beta, G, boundary_symbol(sys, q)))
    return P, geometry.spatial_density(chart, t, xs2), faces


def energy_trace(fld, sys):
    """E(t) = Σ_x ⟨Ψ, Ψ⟩_P √det(h) Δx, the discrete ∫_Σ |Ψ|²_β dμ_t.

    The flux column logs the boundary form s*·β·⟨σ(n♭)Ψ, Ψ⟩ summed over
    faces, evaluated at the edge sample; for conditions with vanishing
    boundary form it is an O(Δx) discretization artifact around zero.
    Systems without a positive companion metric sum the indefinite fiber
    form G instead, which is not a norm.
    """
    grid = fld.grid
    weights = np.full(grid.xs.size, grid.dx)
    if not grid.staggered:
        weights[0] = weights[-1] = grid.dx / 2
    energy = np.empty(grid.nt + 1)
    flux = np.empty(grid.nt + 1)
    levels = _levels(sys, grid.ts, lambda t: _energy_tables(sys, grid, t))
    for m, (_, (P, sdens, faces)) in enumerate(levels):
        psi = fld.values[m]
        dens = np.real(np.einsum("pi,pij,pj->p", psi.conj(), P, psi))
        energy[m] = pairwise_sum(dens * sdens * weights)
        phi = 0.0
        for edge, sbeta, G, sn in faces:
            trace = psi[edge]
            phi += sbeta * float(np.real(trace.conj() @ G @ sn @ trace))
        flux[m] = phi
    return EnergyTrace(grid.ts.copy(), energy, flux)


def estimate_energy_constant(sys, n_samples=16):
    """Growth constant from the symmetrized zero-order term: E' ≤ C·E."""
    from .system import zero_order_symmetrization

    chart = sys.chart
    worst = 0.0
    _, xs = chart.sample_interior(n_samples)
    for t in chart.sample_times(5):
        Z_h, G = zero_order_symmetrization(sys, t, xs)
        P = sys.positive_metric_at(t, xs)
        if P is None:
            P = G
        pick = slice(None, None, max(1, xs.shape[0] // 8))
        P, G = P[pick], G[pick]
        ev, _ = eigh_pencil(P @ (np.linalg.inv(G) @ (G @ Z_h[pick])), P)
        worst = max(worst, float(np.max(-ev)))
    return worst


def _support_mask(fld, threshold):
    """The table {(level, x) : |Ψ| > threshold · max|Ψ|} from one pointwise
    norm table; all False for a zero field."""
    norms = fld.pointwise_norm()
    return norms > threshold * float(norms.max())


def _row_hulls(mask):
    """Per row of a boolean table: whether any entry is set, and the first and
    last set index (meaningful only on rows where one is set)."""
    last = mask.shape[1] - 1 - mask[:, ::-1].argmax(axis=1)
    return mask.any(axis=1), mask.argmax(axis=1), last


def support_radius(fld, level, threshold=1e-8):
    """Intervals covering {x : |Ψ(t_level, x)| > threshold · max|Ψ|}."""
    idx = np.flatnonzero(_support_mask(fld, threshold)[level])
    if not idx.size:
        return []
    xs = fld.grid.xs
    runs = np.split(idx, np.flatnonzero(np.diff(idx) != 1) + 1)
    return [(float(xs[run[0]]), float(xs[run[-1]])) for run in runs]


def support_growth_margins(fld, c_max, threshold=1e-8):
    """Per-step slack of |support growth| ≤ c_max·Δt + 2Δx (per side).

    Nonnegative margins mean finite propagation speed holds at every step.
    Levels with empty support are skipped: growth is measured from the last
    level that had one.
    """
    grid = fld.grid
    allowed = c_max * grid.dt + 2 * grid.dx
    found, first, last = _row_hulls(_support_mask(fld, threshold))
    lo, hi = grid.xs[first[found]], grid.xs[last[found]]
    growth = np.stack([hi[1:] - hi[:-1], lo[:-1] - lo[1:]], axis=1)
    return (allowed - np.where(growth > 0.0, growth, 0.0)).ravel()


def apply_operator(sys, fld):
    """Discrete S Ψ: centered differences inside, one-sided at edges."""
    grid = fld.grid
    vals = fld.values
    dpsi_dt = np.gradient(vals, grid.dt, axis=0)
    dpsi_dx = np.gradient(vals, grid.dx, axis=1)
    out = np.empty_like(vals)
    levels = _levels(sys, grid.ts, lambda t: sys.coeff_at(t, grid.xs[:, None]))
    for m, (_, (A, C)) in enumerate(levels):
        out[m] = (np.einsum("pij,pj->pi", A[:, 0], dpsi_dt[m])
                  + np.einsum("pij,pj->pi", A[:, 1], dpsi_dx[m])
                  + np.einsum("pij,pj->pi", C, vals[m]))
    return GridField(out, grid, sys.name + "_residual")


def l2_norm(fld_values, grid):
    w = np.full(grid.xs.size, grid.dx)
    if not grid.staggered:
        w[0] = w[-1] = grid.dx / 2
    dens = np.sum(np.abs(fld_values) ** 2, axis=-1)
    if dens.ndim == 2:
        return float(np.sqrt(np.sum(dens @ w) * grid.dt))
    return float(np.sqrt(dens @ w))


# -- Green operators ---------------------------------------------------------


def _forcing_table(f, grid, N):
    """The forcing f of a Green operator stacked over the time levels:
    shape (nt+1, n_x, N)."""
    if f is None:
        raise ConfigError("a Green operator needs a source f")
    return np.stack([_eval_forcing(f, t, grid.xs, N) for t in grid.ts])


def forcing_support_levels(f, grid, N, threshold=1e-14):
    """Time levels where the forcing is active (threshold=0: strictly nonzero)."""
    norms = np.array([float(np.linalg.norm(arr)) for arr in _forcing_table(f, grid, N)])
    nz = np.flatnonzero(norms > threshold * max(norms.max(), 1e-300))
    return nz


def green_plus(sys, bcs, f, grid, force=False):
    """Advanced Green operator: solve forward with zero data before supp f."""
    levels = forcing_support_levels(f, grid, sys.fiber_rank)
    if levels.size and levels[0] == 0:
        raise ContractError("supp f touches the initial slice; shrink the support")
    return solve(sys, bcs, f=f, h=None, grid=grid, force=force)


def time_reversed(sys):
    """The pullback system under t → t₀ + t₁ − t (σ(dt) negated)."""
    chart = sys.chart
    t0, t1 = chart.t_range

    def flip(t):
        return t0 + t1 - t

    rev_chart = geometry.SpacetimeChart(
        chart.dim_space, chart.t_range, chart.space_extent,
        beta=lambda t, xs: chart.beta(flip(t), xs),
        h=lambda t, xs: chart.h(flip(t), xs),
        name=chart.name + "_reversed", params=dict(chart.params),
        time_independent=chart.time_independent, constant=chart.constant)

    def coeff(t, xs):
        A, C = sys.coeff_at(flip(t), xs)
        A = A.copy()
        A[:, 0] = -A[:, 0]
        return A, C

    from .system import FriedrichsSystem

    return FriedrichsSystem(
        rev_chart, sys.fiber_rank, coeff,
        lambda t, xs: sys.metric_at(flip(t), xs),
        metric_positive=sys.metric_positive, name=sys.name + "_reversed",
        layout=sys.layout, time_independent=sys.time_independent)


def green_minus(sys, bcs, f, grid, force=False):
    """Retarded Green operator via a time-reversed forward solve.

    ``bcs`` are imposed on the reversed evolution: conditions with vanishing
    boundary form (MIT, chirality, Neumann-like, Dirichlet) transfer verbatim;
    for transport-like systems pass the conditions of the reversed problem.
    Unless ``force`` is given, ``enforce_admissibility`` vets them against the
    time-reversed system with the orientation-weighted form — the
    energy-dissipation criterion of the evolution actually run — and raises
    NotAdmissibleError on failure.
    """
    if not grid.staggered:
        raise ContractError("the retarded Green operator needs a hyperbolic "
                            "system; reversing a parabolic solve is ill-posed")
    levels = forcing_support_levels(f, grid, sys.fiber_rank)
    if levels.size and levels[-1] == grid.nt:
        raise ContractError("supp f touches the final slice; shrink the support")
    rev = time_reversed(sys)
    bc_map = _as_bc_map(rev, bcs)
    if not force:
        enforce_admissibility(rev, bc_map, orient_form=True)
    t0, t1 = sys.chart.t_range

    def f_rev(t, xs2):
        return f(t0 + t1 - t, xs2)

    rev_grid = Grid(grid.nx, grid.dx, grid.dt, grid.nt, grid.cfl,
                    grid.xs.copy(), grid.ts.copy(), grid.staggered)
    fld = solve(rev, bc_map, f=f_rev, h=None, grid=rev_grid,
                check_admissible=False, force=force)
    return GridField(fld.values[::-1].copy(), grid, sys.name + "_green_minus")


def green_residual(sys, fld, f):
    """‖S(G f) − f‖₂ / ‖f‖₂ over the full grid."""
    grid = fld.grid
    res = apply_operator(sys, fld).values.copy()
    f_vals = _forcing_table(f, grid, sys.fiber_rank)
    res -= f_vals
    return l2_norm(res, grid) / max(l2_norm(f_vals, grid), 1e-300)


def causal_support_ok(fld, f, c_max, cells=2, threshold=1e-8, future=True):
    """supp(G±f) ⊂ J±(supp f) within a ``cells``-cell tolerance."""
    grid = fld.grid
    xs = grid.xs
    fnorm = np.linalg.norm(_forcing_table(f, grid, fld.values.shape[2]), axis=2)
    src, src_lo, src_hi = _row_hulls(fnorm > 1e-10 * fnorm.max())
    found, first, last = _row_hulls(_support_mask(fld, threshold))
    levels = range(grid.nt + 1) if future else range(grid.nt, -1, -1)
    lo, hi = np.inf, -np.inf
    have_src = False
    slack = cells * grid.dx
    worst = np.inf
    for m in levels:
        if src[m]:
            have_src = True
            lo = min(lo, xs[src_lo[m]])
            hi = max(hi, xs[src_hi[m]])
        if found[m]:
            if not have_src:
                return False, -np.inf
            left, right = float(xs[first[m]]), float(xs[last[m]])
            worst = min(worst, left - (lo - slack), (hi + slack) - right)
            if left < lo - slack - 1e-12 or right > hi + slack + 1e-12:
                return False, float(worst)
        lo -= c_max * grid.dt
        hi += c_max * grid.dt
    return True, float(worst if np.isfinite(worst) else 0.0)


# -- studies -----------------------------------------------------------------


@dataclass
class ConvergenceReport:
    nxs: list
    errors: np.ndarray
    orders: np.ndarray

    def summary(self):
        rows = [f"  nx={nx:5d}  error={e:.4e}" +
                (f"  order={o:.2f}" if o == o else "")
                for nx, e, o in zip(self.nxs, self.errors,
                                    np.concatenate([[np.nan], self.orders]))]
        return "\n".join(rows)


def convergence_study(factory, nxs, exact):
    """L² errors at the final time against a closed-form solution.

    ``factory(nx)`` returns (sys, bcs, f, h, grid); ``exact(t, xs)`` the
    reference section.  Observed order = log₂(e_i / e_{i+1}).
    """
    errors = []
    for nx in nxs:
        sys_, bcs, f, h, grid = factory(nx)
        fld = solve(sys_, bcs, f=f, h=h, grid=grid)
        ref = np.asarray(exact(grid.t1, grid.xs), dtype=complex)
        errors.append(l2_norm(fld.values[-1] - ref, grid))
    errors = np.asarray(errors)
    orders = np.log2(errors[:-1] / errors[1:])
    return ConvergenceReport(list(nxs), errors, orders)


def restrict_fine(fine_vals, fine_grid, coarse_grid):
    """Project a refined-by-2 field onto the coarse grid (matching levels)."""
    stride = (fine_grid.nt) // coarse_grid.nt
    lev = fine_vals[::stride]
    if coarse_grid.staggered:
        return 0.5 * (lev[:, 0::2] + lev[:, 1::2])
    return lev[:, ::2]


@dataclass
class LambdaEquivalenceReport:
    lam: float
    discrepancy: float
    error_estimate: float

    @property
    def ratio(self):
        if self.discrepancy == 0.0:
            return 0.0
        return self.discrepancy / max(self.error_estimate, 1e-300)


def lambda_equivalence_check(sys, lam, bcs, f, h, nx, cfl=0.5):
    """Check e^{−λt}·(solution of S) against the solution of K_λ.

    Both problems run on the same grid; the discrepancy is compared with a
    Richardson estimate of the single-solve discretization error.
    """
    from .system import lambda_shift

    grid = make_grid(sys, nx, cfl)
    fld = solve(sys, bcs, f=f, h=h, grid=grid)
    fine = make_grid(sys, 2 * nx, cfl, nt=2 * grid.nt)
    fld_fine = solve(sys, bcs, f=f, h=h, grid=fine)
    est_vals = restrict_fine(fld_fine.values, fine, grid) - fld.values
    estimate = l2_norm(est_vals[-1], grid)

    shifted = lambda_shift(sys, lam)

    def f_scaled(t, xs2):
        return math.exp(-lam * t) * f(t, xs2) if f is not None else None

    fld_shift = solve(shifted, bcs, f=f_scaled if f is not None else None,
                      h=h, grid=grid)
    scale = np.exp(-lam * grid.ts)[:, None, None]
    disc = l2_norm((scale * fld.values - fld_shift.values)[-1], grid)
    return LambdaEquivalenceReport(lam, disc, estimate)
