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

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import (BoundaryClosureError, ConfigError, ContractError,
                     NotAdmissibleError, NotHyperbolicError, NotSymmetricError)
from .linalg import aos, eigh_pencil, pairwise_sum, row_reduce, soa, soa_mul
from .boundary import admissibility, nonneg_mask
from .system import FriedrichsSystem, check_symmetric, companion_metric


@dataclass
class Grid:
    nx: int               # number of cells
    dx: float
    dt: float
    nt: int
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
    """Uniform grid with Δt = CFL·Δx / max characteristic speed, the
    ``geometry.max_characteristic_speed`` of the grid's nx + 1 faces over the
    run's interval [t₀, t_final]: exactly the explicit step's speeds for a
    static system; for a time-dependent one, the step's CFL guard checks the
    levels between the sample times.

    For systems with singular σ(dt) (implicit stepping, no CFL constraint)
    the nominal speed 1 is used and the grid is node-based.
    """
    for name, n in (("nx", nx), ("nt", 1 if nt is None else nt)):
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ConfigError(f"{name} must be a positive integer, got {n!r}")
    if isinstance(cfl, bool) or not isinstance(cfl, numbers.Real) or not 0 < cfl <= 0.9:
        raise ConfigError(f"CFL must be in (0, 0.9], got {cfl!r}")
    chart = sys.chart
    L = chart.space_extent[0]
    if chart.dim_space != 1:
        raise ContractError("the solver supports one spatial dimension")
    dx = L / nx
    staggered = sys.time_sign != 0
    t0 = chart.t_range[0]
    t1 = chart.t_range[1] if t_final is None else t_final
    if not t1 > t0:
        raise ConfigError(f"t_final must be later than t0 = {t0!r}, got {t1!r}")
    speed = (geometry.max_characteristic_speed(chart, sys, per_axis=nx, t_range=(t0, t1))
             if staggered else 1.0)
    T = t1 - t0
    if nt is None:
        nt = max(1, math.ceil(T * speed / (cfl * dx)))
    dt = T / nt
    if staggered:
        xs = (np.arange(nx) + 0.5) * dx
    else:
        xs = np.linspace(0.0, L, nx + 1)
    ts = t0 + dt * np.arange(nt + 1)
    return Grid(nx, dx, dt, nt, xs, ts, staggered)


@dataclass
class GridField:
    """Sampled space-time section: values of shape (nt+1, n_x, N).  A Green
    operator's field carries its source as ``(f, forcing table)``; a
    time-dependent explicit solve's field carries its energy trace as
    ``(sys, EnergyTrace)``, and then its values are read-only."""

    values: np.ndarray
    grid: Grid
    source: tuple = None
    energy: tuple = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.energy is not None:
            self.values.flags.writeable = False

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


def _source(f, grid, N):
    """The forcing of a solve as a function of (level m, time t): read from a
    table of shape (nt+1, n_x, N), evaluated from a callable f(t, xs), or None
    without forcing."""
    if f is None:
        return lambda m, t: None
    if callable(f):
        return lambda m, t: _eval_forcing(f, t, grid.xs, N)
    table = np.asarray(f, dtype=complex)
    if table.shape != (grid.nt + 1, grid.xs.size, N):
        raise ConfigError(f"forcing table must have shape (nt+1, n_x, N) = "
                          f"{(grid.nt + 1, grid.xs.size, N)}, got {table.shape}")
    return lambda m, t: table[m]


def _eval_initial(h, xs, N):
    if h is None:
        return np.zeros((xs.size, N), dtype=complex)
    arr = np.asarray(h(xs) if callable(h) else h, dtype=complex)
    if arr.shape != (xs.size, N):
        raise ConfigError(f"initial data must have shape ({xs.size}, {N})")
    return arr


def _finite(psi, m, t):
    """``psi``, the solution at level m (time t), unless it holds NaN or Inf."""
    if not np.isfinite(psi).all():
        raise BoundaryClosureError(f"solution is not finite at level m={m}, t={t:.6g}")
    return psi


_BLOCK = 8      # time levels per block of the explicit step, energy_trace and apply_operator


def _level_blocks(sys, ts, tables, size=None):
    """Yield (rows, tables(ts[rows])) over the levels ``ts`` in blocks of
    ``size`` levels (default ``_BLOCK``): the tables of a block's levels,
    stacked on a leading axis.

    The one place that decides when coefficients are evaluated: every level
    for time-dependent systems, once in total for static ones, whose tables
    are built from their first level and serve every block with a leading
    axis of length 1.
    """
    size = size or _BLOCK
    block = None
    for start in range(0, len(ts), size):
        if block is None or not sys.static:
            block = tables(ts[start:start + (1 if sys.static else size)])
        yield slice(start, min(start + size, len(ts))), block


def _per_level(tables):
    """The block form of per-level ``tables(t)``: their arrays stacked over
    the block's times."""
    return lambda ts: [np.stack(a) for a in zip(*map(tables, ts))]


# -- explicit characteristic upwind -----------------------------------------


def _explicit_tables(sys, bc_map, grid, ts, force):
    """The frozen upwind steps of the levels ``ts`` (one time, or a block of
    them), stacked over the levels: block rows B (L, nx, N, 3N), the forcing
    maps Δt·σ(dt)⁻¹ (L, nx, N, N) and, for a time-dependent system, the
    levels' ``_energy_block`` tables (else None):
    Ψ_p(t + Δt) = Ψ_p + B_p·[Ψ_{p−1}; Ψ_p; Ψ_{p+1}] + Δt·σ(dt)⁻¹f_p,
    the blocks k(Ã + |Ã|_{p−½}), −k(|Ã|_{p+½} + |Ã|_{p−½}) − ΔtC̃ and
    k(|Ã|_{p+½} − Ã) with k = Δt/2Δx (LeVeque, *Finite Volume Methods for
    Hyperbolic Problems*, 2002, ch. 4 and 8) and the ghost-cell closures folded
    into the edge rows' middle blocks.  B is the increment, so rounding stays
    relative to it.  One evaluation of the coefficients, the metric and the
    lapse per level, and one characteristic split of all the levels, serve
    the cells, the faces (covector dx) and the two boundary faces (their
    conormals).  ContractError when the realised CFL at the faces exceeds 1;
    each face's closures are solved in one batch."""
    ts = np.atleast_1d(ts)
    chart, nx, N, L = sys.chart, grid.nx, sys.fiber_rank, ts.size
    faces = np.append(np.arange(nx) * grid.dx, chart.space_extent[0])
    pts = np.concatenate([grid.xs, faces])[:, None]
    rows = nx + np.r_[0:nx + 1, 0, nx]      # the faces, then the two boundary faces
    A = np.empty((L, pts.shape[0], 2, N, N), complex)
    C, G = np.empty((L, nx, N, N), complex), np.empty((L, pts.shape[0], N, N), complex)
    beta, xi = np.empty((L, pts.shape[0])), np.empty((L, rows.size, 2))
    xi[:, :nx + 1] = (0.0, 1.0)
    ends = [[geometry.BoundaryPoint(t, face, np.array([chart.face_position(face)]))
             for face in chart.faces()] for t in ts]
    for level, (t, qs) in enumerate(zip(ts, ends)):
        A_t, C_t = sys.coeff_at(t, pts)
        A[level], C[level] = A_t, C_t[:nx]
        G[level], beta[level] = sys.metric_at(t, pts), chart.beta_at(t, pts)
        xi[level, nx + 1:] = [geometry.outward_normal(chart, q) for q in qs]
    split = sys._split(ts[0], np.tile(pts[rows], (L, 1)), xi.reshape(-1, 2),
                       *(a[:, rows].reshape(-1, *a.shape[2:]) for a in (A, G, beta)))
    lam, V, P = (a.reshape(L, rows.size, *a.shape[1:]) for a in split)
    speed = np.max(np.abs(lam[:, :nx + 1]), axis=2)
    worst = np.argmax(speed, axis=1)
    cfl = speed[np.arange(L), worst] * grid.dt / grid.dx
    if np.any(cfl > 1.0):
        m = int(np.argmax(cfl > 1.0))
        raise ContractError(f"realised CFL {cfl[m]:.4g} > 1 at t={ts[m]:.6g}, "
                            f"x={faces[worst[m]]:.6g}: lower the grid's cfl")
    T = soa(np.stack([_boundary_closure(bc_map[qs[0].face], chart, qs,
                                        *(a[:, i] for a in (lam, V, P)), force)
                      for qs, i in zip(zip(*ends), (-2, -1))], axis=1))
    # the block's products in structure-of-arrays layout: (N, ·, level, cell or face)
    k = grid.dt / (2 * grid.dx)
    V = soa(V[:, :nx + 1])
    kAabs = soa_mul(soa_mul(V * np.moveaxis(k * np.abs(lam[:, :nx + 1]), -1, 0),
                            np.conj(V.swapaxes(0, 1))), soa(P[:, :nx + 1]))
    a0inv = np.linalg.inv(A[:, :nx, 0])
    kAdtC = soa_mul(soa(a0inv), np.concatenate([k * soa(A[:, :nx, 1]), grid.dt * soa(C)], axis=1))
    kA, dtC = kAdtC[:, :N], kAdtC[:, N:]
    B = np.concatenate([kA + kAabs[..., :-1], -(kAabs[..., 1:] + kAabs[..., :-1] + dtC),
                        kAabs[..., 1:] - kA], axis=1)
    left, diag, right = B[:, :N], B[:, N:2 * N], B[:, 2 * N:]
    diag[..., 0] += soa_mul(left[..., 0], T[..., 0])
    diag[..., -1] += soa_mul(right[..., -1], T[..., 1])
    left[..., 0] = right[..., -1] = 0.0
    B = np.ascontiguousarray(aos(B))
    if sys.static:
        return B, grid.dt * a0inv, None
    cells_ends = np.r_[0:nx, rows[-2:]]     # the cells, then the two boundary faces
    return B, grid.dt * a0inv, _energy_level(sys, ts, pts[cells_ends], A[:, cells_ends],
                                             G[:, cells_ends], beta[:, cells_ends], xi[:, -2:])


def _boundary_closure(bc, chart, qs, lam, V, P, force):
    """Matrices T (L, N, N), ghost = T_l @ Ψ_edge, implementing the
    characteristic closure at the boundary points qs of one face, one per
    level, from the splits (λ, V, P) of their outward conormals stacked over
    the levels, in one batch.  The levels must share their counts of incoming
    characteristics and of constraint rows (ContractError otherwise); with
    ``force``, a batch with an unsolvable level is closed by least squares."""
    keep = nonneg_mask(lam)
    if np.any(keep != keep[0]):
        raise ContractError(f"the levels at face {qs[0].face} differ in their incoming "
                            f"characteristics")
    W_oz = np.conj(np.swapaxes(V[..., keep[0]], -1, -2)) @ P
    R, _, _ = row_reduce(np.stack([bc.matrix(chart, q) for q in qs]))
    r, n_in = R.shape[-2], int(np.sum(~keep[0]))
    K = np.concatenate([W_oz, R], axis=-2)       # square exactly when r == n_in
    rhs_map = np.concatenate([W_oz, -R], axis=-2)
    if r != n_in:
        if not force:
            raise BoundaryClosureError(
                f"boundary closure at face {qs[0].face}: {n_in} incoming characteristics "
                f"vs rank-{r} condition (admissibility (iii) defect)")
        return np.linalg.pinv(K) @ rhs_map
    try:
        return np.linalg.solve(K, rhs_map)
    except np.linalg.LinAlgError as exc:
        if force:
            return np.linalg.pinv(K) @ rhs_map
        raise BoundaryClosureError(f"singular closure at face {qs[0].face}") from exc


def _solve_explicit(sys, bc_map, source, h0, grid, force):
    """The field, and for a time-dependent system its EnergyTrace (else None),
    recorded block by block from the tables the steps build and the last
    level's ``_energy_tables``.  The tables come in blocks of ``_BLOCK``
    levels.  A block whose tables refuse (a CFL, hyperbolicity or closure
    guard, or closures that differ from level to level) is built again one
    level at a time as it is stepped, so each refusal comes at its own level
    with its own message, once every earlier level is stepped."""
    nx, N = grid.nx, sys.fiber_rank
    out = np.empty((grid.nt + 1, nx, N), dtype=complex)
    out[0] = _finite(h0, 0, grid.t0)
    pad = np.zeros((nx + 2) * N, dtype=complex)     # Ψ and a zero ghost cell each side
    window = np.lib.stride_tricks.sliding_window_view(pad, 3 * N)[::N]
    energy, flux = np.empty((2, grid.nt + 1))
    weights = _weights(grid)

    def tables(ts):
        try:
            return _explicit_tables(sys, bc_map, grid, ts, force)
        except (ValueError, BoundaryClosureError):
            if len(ts) == 1:
                raise
            return None

    for rows, block in _level_blocks(sys, grid.ts[:-1], tables):
        levels = []
        for k, m in enumerate(range(rows.start, rows.stop)):
            if block is None:
                levels.append(tables(grid.ts[m:m + 1]))
            B, dt_a0inv, _ = levels[-1] if block is None else block
            level = min(k, len(B) - 1)          # one level of its own, or a static system's one
            psi, new = out[m], out[m + 1]
            pad[N:-N] = psi.ravel()
            np.einsum("pij,pj->pi", B[level], window, out=new)
            src = source(m, grid.ts[m])
            if src is not None:
                new += np.einsum("pij,pj->pi", dt_a0inv[level], src)
            new += psi
            _finite(new, m + 1, grid.ts[m + 1])
        if not sys.static:
            energy[rows], flux[rows] = _energy_block(
                out[rows], block[2] if block else [np.concatenate(a) for a in zip(
                    *(tb[2] for tb in levels))], weights)
    if sys.static:
        return out, None
    last = slice(grid.nt, grid.nt + 1)
    energy[last], flux[last] = _energy_block(
        out[last], [a[None] for a in _energy_tables(sys, grid, grid.ts[-1])], weights)
    return out, EnergyTrace(grid.ts.copy(), energy, flux)


# -- implicit positive systems -----------------------------------------------


def _implicit_matrix(sys, bc_map, grid, t):
    """Backward-Euler operator with boundary rows replaced in constrained
    directions by the row-reduced G_B.

    Returns ``solve(rhs)`` of its ``_factor``, the boundary rows
    {node: (R, V1, V2)} of ``row_reduce`` and the σ(dt) table A⁰ of the nodes.
    """
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
    return _factor(B, sys.static, t), boundary_rows, A[:, 0]


def _factor(B, static, t):
    """``solve(rhs)`` of the block-tridiagonal matrix whose block row i holds
    B[i, d + 1] at block column i + d (d = −1, 0, 1).

    A static system factors once and solves nt times: SuperLU (``splu`` of
    ``_csc``), whose solve is the faster.  A time-dependent one factors every
    level: LAPACK's banded LU with partial pivoting (``zgbtrf`` on ``_band``,
    Golub & Van Loan, *Matrix Computations*, §4.3), an order of magnitude
    cheaper to factor.  BoundaryClosureError, naming t, when the matrix is
    exactly singular.
    """
    singular = f"the implicit operator at t={t:.6g} is singular"
    if static:
        import scipy.sparse.linalg

        try:
            return scipy.sparse.linalg.splu(_csc(B)).solve
        except RuntimeError as exc:             # "Factor is exactly singular"
            raise BoundaryClosureError(singular) from exc
    from scipy.linalg import lapack

    kl = 2 * B.shape[2] - 1
    lu, piv, info = lapack.zgbtrf(_band(B), kl, kl, overwrite_ab=True)
    if info > 0:
        raise BoundaryClosureError(singular)
    return lambda rhs: lapack.zgbtrs(lu, kl, kl, rhs, piv)[0]


@functools.lru_cache(maxsize=8)
def _block_index(npts, N):
    """Where B's entries (as in ``_factor``) go: their flat positions in B
    whose block column exists, the rows i and columns j of those entries in
    the matrix, and their flat positions in ``_band``'s storage."""
    kl = 2 * N - 1
    I, d, a, b = np.indices((npts, 3, N, N)).reshape(4, -1)
    J = I + d - 1                           # block column
    src = np.flatnonzero((J >= 0) & (J < npts))
    i, j = (I * N + a)[src], (J * N + b)[src]
    index = src, i, j, j * (3 * kl + 1) + 2 * kl + i - j
    for arr in index:
        arr.flags.writeable = False         # shared by every caller
    return index


def _csc(B):
    """The block-tridiagonal matrix of B (as in ``_factor``) in scipy's CSC,
    built COO → CSR → CSC without exact zeros; the out-of-range edge blocks
    B[0, 0] and B[−1, 2] have no column and are dropped."""
    import scipy.sparse

    npts, _, N, _ = B.shape
    src, i, j, _ = _block_index(npts, N)
    entries = B.ravel()[src]
    nz = np.abs(entries) > 0
    return scipy.sparse.csr_matrix((entries[nz], (i[nz], j[nz])), shape=(npts * N,) * 2).tocsc()


def _band(B):
    """The block-tridiagonal matrix of B (as in ``_factor``) in LAPACK band
    storage for ``gbtrf``, Fortran-ordered (3kl + 1, npts·N): bandwidths
    kl = ku = 2N − 1, entry (i, j) at row kl + ku + i − j of column j, the
    first kl rows left for the fill-in; the out-of-range edge blocks B[0, 0]
    and B[−1, 2] have no column and are dropped."""
    npts, _, N, _ = B.shape
    src, _, _, dst = _block_index(npts, N)
    band = np.zeros((npts * N, 3 * (2 * N - 1) + 1), dtype=complex)
    band.ravel()[dst] = B.ravel()[src]
    return band.T


def _solve_implicit(sys, bc_map, source, h0, grid):
    xs = grid.xs
    npts, N = xs.size, sys.fiber_rank
    out = np.empty((grid.nt + 1, npts, N), dtype=complex)
    out[0] = _finite(h0, 0, grid.t0)
    levels = _level_blocks(sys, grid.ts[1:],
                           lambda ts: _implicit_matrix(sys, bc_map, grid, ts[0]), size=1)
    for rows, (solve_level, brows, A0) in levels:
        m, t1 = rows.start, grid.ts[rows.stop]
        rhs = np.einsum("pij,pj->pi", A0, out[m]) / grid.dt
        src = source(m + 1, t1)
        if src is not None:
            rhs += src
        for node, (R, V1, V2) in brows.items():
            rhs[node] = V2 @ (V2.conj().T @ rhs[node])
        out[m + 1] = _finite(solve_level(rhs.ravel()).reshape(npts, N), m + 1, t1)
    return out


def enforce_admissibility(sys, bc_map):
    """The refusal policy of every solve: the system must satisfy (S), which
    the characteristic split assumes (``check_symmetric``, once per system),
    and each face's condition must pass the admissibility check sampled at
    4 times × 2 tangential points.  The check reads the literal boundary form
    of the system it is given; a ``time_reversed`` system carries its own
    orientation in its fiber metric, so the same check is the
    energy-dissipation criterion of the reversed run.

    Raises NotSymmetricError with the (S) report, or NotAdmissibleError with
    the condition, the face and the report of the first face that fails.
    """
    if "symmetric" not in sys._cache:
        sys._cache["symmetric"] = check_symmetric(sys)
    if not sys._cache["symmetric"].verdict:
        raise NotSymmetricError(sys.name, sys._cache["symmetric"])
    for face, bc in bc_map.items():
        rep = admissibility(sys, bc, n_time=4, n_tang=2, faces=[face])
        if not rep.admissible:
            raise NotAdmissibleError(bc, face, rep)


def solve(sys, bcs, f=None, h=None, grid=None, force=False):
    """Advance S Ψ = f, Ψ(t₀) = h, Ψ|∂ ∈ ker G_B over the grid.

    ``f`` is a callable f(t, xs) or its table over the grid's levels, shape
    (nt+1, n_x, N); ``h`` a callable h(xs) or its array.  Hyperbolic
    systems use the explicit characteristic upwind scheme; symmetric
    positive systems with singular σ(dt) are stepped implicitly.
    Unless ``force`` is given, the system and its boundary conditions must
    pass ``enforce_admissibility`` — the one refusal policy, shared with the
    CLI — or NotSymmetricError or NotAdmissibleError is raised.
    ``force=True`` (counterexample studies), the one override, skips the
    check and closes the explicit scheme's unsolvable boundary closures by
    least squares.
    """
    if grid is None:
        raise ConfigError("solve requires a grid (make_grid)")
    bc_map = _as_bc_map(sys, bcs)
    if not force:
        enforce_admissibility(sys, bc_map)
    h0 = _eval_initial(h, grid.xs, sys.fiber_rank)
    source = _source(f, grid, sys.fiber_rank)
    if grid.staggered:
        if sys.time_sign == 0:
            raise NotHyperbolicError("explicit path needs a definite σ(dt)-form")
        vals, trace = _solve_explicit(sys, bc_map, source, h0, grid, force)
        return GridField(vals, grid, energy=None if trace is None else (sys, trace))
    return GridField(_solve_implicit(sys, bc_map, source, h0, grid), grid)


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
    """One energy_trace level from one evaluation on the samples and the two
    boundary points (``_energy_level``)."""
    chart = sys.chart
    ends = [geometry.BoundaryPoint(t, face, np.array([chart.face_position(face)]))
            for face in chart.faces()]
    xs2 = np.concatenate([grid.xs, [q.x[0] for q in ends]])[:, None]
    xi = np.array([geometry.outward_normal(chart, q) for q in ends])
    tables = (sys.coeff_at(t, xs2)[0], sys.metric_at(t, xs2), chart.beta_at(t, xs2), xi)
    return [a[0] for a in _energy_level(sys, [t], xs2, *(a[None] for a in tables))]


def _energy_level(sys, ts, xs2, A, G, beta, xi):
    """The energy_trace tables of the levels ``ts`` from the tables A, G and β
    of each level at the samples followed by the two boundary points, whose
    conormals are the rows of ``xi`` (one leading axis over the levels): the
    energy metric (the companion metric, or G when σ(dt) is not definite) and
    √det h on the samples; s*·β, G and σ(n♭) at the ends."""
    n, s = xs2.shape[0] - 2, sys.time_sign
    P = companion_metric(s, beta[:, :n], G[:, :n], A[:, :n, 0]) if s != 0 else G[:, :n]
    sdens = np.stack([geometry.spatial_density(sys.chart, t, xs2[:n]) for t in ts])
    return (P, sdens, (s or 1) * beta[:, n:], G[:, n:],
            np.einsum("lfm,lfmij->lfij", np.asarray(xi, complex), A[:, n:]))


def _quadratic_density(psi, P):
    """Re ⟨Ψ, PΨ⟩ for Ψ (L, n, N) and P broadcasting to (L, n, N, N), term by
    term in the (i, j) order and real arithmetic of ``np.einsum("pi,pij,pj->p",
    Ψ̄, P, Ψ)``: bitwise that einsum's on each level, at a fraction of its cost."""
    x = np.moveaxis(psi, -1, 0)
    xr, xi = np.ascontiguousarray(x.real), np.ascontiguousarray(x.imag)
    M = np.moveaxis(P, (-2, -1), (0, 1))
    Mr, Mi = np.ascontiguousarray(M.real), np.ascontiguousarray(M.imag)
    dens = np.zeros(psi.shape[:-1])
    re, im, tmp = (np.empty_like(dens) for _ in range(3))
    for i, j in itertools.product(range(psi.shape[-1]), repeat=2):
        np.multiply(xr[i], Mr[i, j], out=re)            # Ψ̄_i·P_ij
        re += np.multiply(xi[i], Mi[i, j], out=tmp)
        np.multiply(xr[i], Mi[i, j], out=im)
        im -= np.multiply(xi[i], Mr[i, j], out=tmp)
        re *= xr[j]                                     # Re of its product with Ψ_j
        im *= xi[j]
        re -= im
        dens += re
    return dens


def _weights(grid):
    """Quadrature weights of the samples: Δx, halved at the two edge nodes."""
    weights = np.full(grid.xs.size, grid.dx)
    if not grid.staggered:
        weights[0] = weights[-1] = grid.dx / 2
    return weights


def _energy_block(psi, tables, weights):
    """Energies and fluxes of the levels Ψ (L, n, N) from their energy tables
    stacked over the L levels (or with a leading axis of length 1)."""
    P, sdens, sbeta, G, sn = tables
    energy = pairwise_sum(_quadratic_density(psi, P) * sdens * weights)
    trace = psi[:, [0, -1]]                     # the edge samples of the two faces
    form = np.real(trace.conj()[..., None, :] @ G @ sn @ trace[..., None])[..., 0, 0]
    return energy, sum((sbeta * form).T)        # 0.0 + face 0 + face 1


def energy_trace(fld, sys):
    """E(t) = Σ_x ⟨Ψ, Ψ⟩_P √det(h) Δx, the discrete ∫_Σ |Ψ|²_β dμ_t.

    The flux column logs the boundary form s*·β·⟨σ(n♭)Ψ, Ψ⟩ summed over
    faces, evaluated at the edge sample; for conditions with vanishing
    boundary form it is an O(Δx) discretization artifact around zero.
    Systems without a positive companion metric sum the indefinite fiber
    form G instead, which is not a norm.  Levels go in blocks of ``_BLOCK``.
    A field that carries the trace of ``sys`` (a time-dependent explicit
    solve) returns a copy of it: the same numbers, recorded by the solve.
    """
    if fld.energy is not None and fld.energy[0] is sys:
        tr = fld.energy[1]
        return EnergyTrace(tr.ts.copy(), tr.energy.copy(), tr.flux.copy())
    grid = fld.grid
    energy, flux = np.empty((2, grid.nt + 1))
    weights = _weights(grid)
    for rows, tables in _level_blocks(sys, grid.ts,
                                      _per_level(lambda t: _energy_tables(sys, grid, t))):
        energy[rows], flux[rows] = _energy_block(fld.values[rows], tables, weights)
    return EnergyTrace(grid.ts.copy(), energy, flux)


def estimate_energy_constant(sys):
    """Growth constant from the symmetrized zero-order term: E' ≤ C·E, over
    5 slices of the 16-cell lattice."""
    from .system import zero_order_symmetrization

    chart = sys.chart
    worst = 0.0
    _, xs = chart.sample_interior(16)
    for t in chart.sample_times(5):
        Z_h, G = zero_order_symmetrization(sys, t, xs)
        P = sys.positive_metric_at(t, xs)
        pick = slice(None, None, max(1, xs.shape[0] // 8))
        P = (G if P is None else P)[pick]
        ev, _ = eigh_pencil(P @ Z_h[pick], P)
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
    """Discrete S Ψ: centered differences inside, one-sided at edges; levels
    go in blocks of ``_BLOCK``."""
    grid = fld.grid
    vals = fld.values
    dpsi_dt = np.gradient(vals, grid.dt, axis=0)
    dpsi_dx = np.gradient(vals, grid.dx, axis=1)
    out = np.empty_like(vals)
    for rows, (A, C) in _level_blocks(sys, grid.ts,
                                      _per_level(lambda t: sys.coeff_at(t, grid.xs[:, None]))):
        out[rows] = (np.einsum("lpij,lpj->lpi", A[:, :, 0], dpsi_dt[rows])
                     + np.einsum("lpij,lpj->lpi", A[:, :, 1], dpsi_dx[rows])
                     + np.einsum("lpij,lpj->lpi", C, vals[rows]))
    return GridField(out, grid)


def l2_norm(fld_values, grid):
    w = _weights(grid)
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


def _active_levels(table, threshold=1e-14):
    """Levels of a forcing table whose norm exceeds threshold · the largest."""
    norms = np.linalg.norm(table, axis=(1, 2))
    return np.flatnonzero(norms > threshold * max(norms.max(), 1e-300))


def forcing_support_levels(f, grid, N, threshold=1e-14):
    """Time levels where the forcing is active (threshold=0: strictly nonzero)."""
    return _active_levels(_forcing_table(f, grid, N), threshold)


def _source_table(fld, f, N):
    """The forcing table of f on fld's grid: the one fld carries when f is the
    source of the Green operator that made it, else a fresh one."""
    if fld.source is not None and fld.source[0] is f:
        return fld.source[1]
    return _forcing_table(f, fld.grid, N)


def green_plus(sys, bcs, f, grid, force=False):
    """Advanced Green operator: solve forward with zero data before supp f,
    stepping from f's table, which the field carries."""
    table = _forcing_table(f, grid, sys.fiber_rank)
    levels = _active_levels(table)
    if levels.size and levels[0] == 0:
        raise ContractError("supp f touches the initial slice; shrink the support")
    fld = solve(sys, bcs, f=table, h=None, grid=grid, force=force)
    fld.source = (f, table)
    return fld


def time_reversed(sys, t_range):
    """The pullback system under t → t₀ + t₁ − t for the interval
    t_range = (t₀, t₁), on a chart that spans that interval: σ(dt) is negated
    and the fiber metric is w·G with w = −s* (w = 1 when s* = 0).  So the
    reversed system has s* = +1 and the same companion metric P, and its
    literal boundary form w·G·σ(n♭) is the energy-dissipation criterion of
    the reversed run: admissibility vets it like any other system."""
    chart = sys.chart
    t0, t1 = t_range
    w = -sys.time_sign or 1

    def flip(t):
        return t0 + t1 - t

    rev_chart = geometry.SpacetimeChart(
        chart.dim_space, tuple(t_range), chart.space_extent,
        beta=lambda t, xs: chart.beta(flip(t), xs),
        h=lambda t, xs: chart.h(flip(t), xs),
        time_independent=chart.time_independent, constant=chart.constant)

    def coeff(t, xs):
        A, C = sys.coeff_at(flip(t), xs)
        A = A.copy()
        A[:, 0] = -A[:, 0]
        return A, C

    def metric(t, xs):
        G = sys.metric_at(flip(t), xs)
        return G if w == 1 else -G

    return FriedrichsSystem(
        rev_chart, sys.fiber_rank, coeff, metric,
        metric_positive=sys.metric_positive and w == 1, name=sys.name + "_reversed",
        layout=sys.layout, time_independent=sys.time_independent)


def green_minus(sys, bcs, f, grid, force=False):
    """Retarded Green operator via a time-reversed forward solve.

    ``bcs`` are imposed on the reversed evolution: conditions with vanishing
    boundary form (MIT, chirality, Neumann-like, Dirichlet) transfer verbatim;
    for transport-like systems pass the conditions of the reversed problem.
    Unless ``force`` is given, ``solve``'s ``enforce_admissibility`` vets them
    against the time-reversed system, whose literal boundary form is the
    energy-dissipation criterion of the reversed run, and raises
    NotAdmissibleError on failure.  Time is reversed about the grid's own
    interval [t₀, t₁], so a grid that ends before the chart does (``t_final``)
    is reversed correctly; the reversed solve steps from f's table on the
    grid, read backwards, and the field carries that table.
    """
    if not grid.staggered:
        raise ContractError("the retarded Green operator needs a hyperbolic "
                            "system; reversing a parabolic solve is ill-posed")
    table = _forcing_table(f, grid, sys.fiber_rank)
    levels = _active_levels(table)
    if levels.size and levels[-1] == grid.nt:
        raise ContractError("supp f touches the final slice; shrink the support")
    rev = time_reversed(sys, (grid.t0, grid.t1))
    fld = solve(rev, bcs, f=table[::-1], h=None, grid=grid, force=force)
    return GridField(fld.values[::-1].copy(), grid, (f, table))


def green_residual(sys, fld, f):
    """‖S(G f) − f‖₂ / ‖f‖₂ over the full grid."""
    grid = fld.grid
    res = apply_operator(sys, fld).values
    f_vals = _source_table(fld, f, sys.fiber_rank)
    res -= f_vals
    return l2_norm(res, grid) / max(l2_norm(f_vals, grid), 1e-300)


def causal_support_ok(fld, f, c_max, cells=2, threshold=1e-8, future=True):
    """supp(G±f) ⊂ J±(supp f) within a ``cells``-cell tolerance."""
    grid = fld.grid
    xs = grid.xs
    fnorm = np.linalg.norm(_source_table(fld, f, fld.values.shape[2]), axis=2)
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


def lambda_equivalence_check(sys, lam, bcs, f, h, nx):
    """Check e^{−λt}·(solution of S) against the solution of K_λ.

    Both problems run on the same grid; the discrepancy is compared with a
    Richardson estimate of the single-solve discretization error.
    """
    from .system import lambda_shift

    grid = make_grid(sys, nx)
    fld = solve(sys, bcs, f=f, h=h, grid=grid)
    fine = make_grid(sys, 2 * nx, nt=2 * grid.nt)
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
