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
Klein-Gordon reduction) are stepped implicitly (backward difference) on a node
grid, with boundary rows replaced by the row-reduced G_B in the constrained
directions, in LAPACK band storage: a static system's one operator is read
from it as CSC and factored once with SuperLU, a time-dependent one factors
each level with banded LAPACK.

Coefficient tables are evaluated for a block of levels at once, sized in
(level, point) rows for a time-dependent system: every coefficient callable
takes one time per row (``geometry.spacetime_rows``), and a diagonal σ(dt) or
companion metric is inverted or factored entrywise.  Every table comes in
float64 or complex128 by its values (``linalg.as_table``), and a field is
float64 while its tables, h₀ and forcing are real; ``field.bin`` is complex128.  A
solve tables its forcing once, over every level (``_forcing_table``), checks
its levels finite a block at a time, and vets a system's faces once per
condition object (``enforce_admissibility``).
"""

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import geometry
from .errors import (BoundaryClosureError, ConfigError, ContractError,
                     NotAdmissibleError, NotHyperbolicError, NotSymmetricError)
from .linalg import aos, as_table, eigh_pencil, pairwise_sum, row_reduce, soa, soa_mul
from .boundary import admissibility, as_bc_map, nonneg_mask
from .system import check_symmetric, companion_metric


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
    levels between the sample times.  Δt also keeps Δt·ρ ≤ CFL, ρ the largest
    spectral radius of σ(dt)⁻¹C at the same samples (one evaluation for both),
    so a zero-order term is never stepped across in one forward-Euler step.

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
    t0, t_end = chart.t_range
    t1 = t_end if t_final is None else t_final
    if not t0 < t1 <= t_end + 1e-12 * max(1.0, abs(t_end)):    # nt·Δt may pass t_end by rounding
        raise ConfigError(f"t_final must be in ({t0!r}, {t_end!r}], the chart's interval, "
                          f"got {t1!r}")
    speed, rate = 1.0, 0.0
    if staggered:
        t, x = geometry._speed_samples(chart, sys, nx, (t0, t1))
        A, C = sys.coeff_at(t, x)
        speed = float(np.max(np.abs(sys._split(t, x, (0.0, 1.0), A, sys.metric_at(t, x))[0])))
        rate = float(np.max(np.abs(np.linalg.eigvals(np.linalg.solve(A[:, 0], C)))))
    T = t1 - t0
    if nt is None:
        nt = max(1, math.ceil(T * speed / (cfl * dx)), math.ceil(T * rate / cfl))
    dt = T / nt
    if staggered:
        xs = (np.arange(nx) + 0.5) * dx
    else:
        xs = np.linspace(0.0, L, nx + 1)
    ts = t0 + dt * np.arange(nt + 1)
    return Grid(nx, dx, dt, nt, xs, ts, staggered)


@dataclass
class GridField:
    """Sampled space-time section: values (nt+1, n_x, N), float64 when real,
    else complex128.  A Green operator's field carries its source as ``(f,
    forcing table)``; ``energy_trace`` evaluates its energy from the values."""

    values: np.ndarray
    grid: Grid
    source: tuple = None

    def __post_init__(self):
        self.values = np.asarray(self.values, np.result_type(np.asarray(self.values), float))

    def pointwise_norm(self):
        return np.linalg.norm(self.values, axis=2)


def write_field(path, fld):
    """Flat binary dump with a one-line text header (dims + dtype), always complex128."""
    vals = np.ascontiguousarray(fld.values.astype("<c16"))
    nt1, nx, N = vals.shape
    header = f"field nt1={nt1} nx={nx} N={N} dtype=complex128 byteorder=little\n"
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(vals.tobytes())


def _eval_initial(h, xs, N):
    arr = as_table(np.zeros((xs.size, N)) if h is None else h(xs) if callable(h) else h)
    if arr.shape != (xs.size, N):
        raise ConfigError(f"initial data must have shape ({xs.size}, {N})")
    return arr


def _entries(M):
    """M (..., N, N) as ``soa`` lays it out, and the (i, j) entries nonzero
    somewhere in it: a skipped term would add ±0 to a sum that starts at +0."""
    M = soa(M)
    return M, list(zip(*np.nonzero(M.reshape(*M.shape[:2], -1).any(axis=2))))


def _field(out, h0, nt, *tables):
    """The field for the next block, allocated at the first with h₀ at level 0,
    in the widest dtype of h₀, the blocks' tables so far and the forcing table."""
    dtype = np.result_type(h0 if out is None else out, *tables)    # a None table: no forcing
    if out is None:
        out = np.empty((nt + 1, *h0.shape), dtype)
        out[0] = h0
    return out.astype(dtype, copy=False)


def _finite(levels, m, ts):
    """BoundaryClosureError at the first of the levels m, m + 1, … holding NaN or Inf."""
    ok = np.isfinite(levels).all(axis=(1, 2))
    if not ok.all():
        m += int(np.argmin(ok))
        raise BoundaryClosureError(f"solution is not finite at level m={m}, t={ts[m]:.6g}")


_BLOCK = 16          # levels per static block: tables built once, shorter blocks step slower
_BLOCK_ROWS = 8192   # (level, point) rows per time-dependent block: its transients grow with them


def _level_blocks(sys, ts, tables, points):
    """Yield (rows, tables(ts[rows])) over the levels ``ts`` in blocks: the
    tables of a block's levels, stacked on a leading axis.  A block holds
    ``_BLOCK`` levels of a static system, else as many levels of ``points``
    points as fill ``_BLOCK_ROWS`` rows (at least one): a few MB of tables.

    The one place that decides when coefficients are evaluated: once per
    block for time-dependent systems, once in total for static ones, whose
    tables are built from their first level and serve every block with a
    leading axis of length 1.  A block whose tables refuse (ValueError, such
    as a CFL, hyperbolicity or rank guard, or BoundaryClosureError) is
    yielded again one level at a time, each level's tables built only once
    the caller is done with the level before: so each refusal comes at its
    own level with its own message, after every earlier level is stepped.
    """
    block, n = None, _BLOCK if sys.static else max(1, _BLOCK_ROWS // points)
    for start in range(0, len(ts), n):
        stop = min(start + n, len(ts))
        if block is None or not sys.static:
            block_ts = ts[start:start + 1] if sys.static else ts[start:stop]
            try:
                block = tables(block_ts)
            except (ValueError, BoundaryClosureError):
                if len(block_ts) == 1:
                    raise
                for m in range(start, stop):
                    yield slice(m, m + 1), tables(ts[m:m + 1])
                continue
        yield slice(start, stop), block


def _by_level(L, *tables):
    """Tables over the (level, point) rows of ``geometry.spacetime_rows`` for
    L levels, each with a leading axis over the levels: shape (L, m, …)."""
    return [a.reshape(L, -1, *a.shape[1:]) for a in tables]


def _coefficients(sys, ts, xs):
    """A and C of the levels ``ts`` at the points ``xs``, from one call."""
    return _by_level(len(ts), *sys.coeff_at(*geometry.spacetime_rows(ts, xs)))


# -- explicit characteristic upwind -----------------------------------------


def _explicit_tables(sys, bc_map, grid, ts, force):
    """The frozen upwind steps of the levels ``ts`` (one time, or a block of
    them), stacked over the levels: block rows B (L, nx, N, 3N) and the
    forcing maps Δt·σ(dt)⁻¹ (L, nx, N, N):
    Ψ_p(t + Δt) = Ψ_p + B_p·[Ψ_{p−1}; Ψ_p; Ψ_{p+1}] + Δt·σ(dt)⁻¹f_p,
    the blocks k(Ã + |Ã|_{p−½}), −k(|Ã|_{p+½} + |Ã|_{p−½}) − ΔtC̃ and
    k(|Ã|_{p+½} − Ã) with k = Δt/2Δx (LeVeque, *Finite Volume Methods for
    Hyperbolic Problems*, 2002, ch. 4 and 8) and the ghost-cell closures folded
    into the edge rows' middle blocks.  B is the increment, so rounding stays
    relative to it.  One evaluation of the coefficients, the metric and the
    lapse for all the levels, and one characteristic split, serve the cells,
    the faces (covector dx) and the two boundary faces (their conormals).
    ContractError when the realised CFL at the faces exceeds 1; each face's
    closures are solved in one batch.  Each table comes in real or complex
    by its own values, and B meets the closures in their common dtype before
    they are folded in, so a real problem builds every product in float64."""
    ts = np.atleast_1d(ts)
    chart, nx, N, L = sys.chart, grid.nx, sys.fiber_rank, ts.size
    faces = np.append(np.arange(nx) * grid.dx, chart.space_extent[0])
    pts = np.concatenate([grid.xs, faces])[:, None]
    rows = nx + np.r_[0:nx + 1, 0, nx]      # the faces, then the two boundary faces
    t, x = geometry.spacetime_rows(ts, pts)
    ends = [geometry.boundary_points(chart, face, ts) for face in chart.faces()]
    A, C, G, beta = _by_level(L, *sys.coeff_at(t, x), sys.metric_at(t, x), chart.beta_at(t, x))
    mats = [bc_map[q.face].matrix(chart, q) for q in ends]
    xi = np.empty((L, rows.size, 2))
    xi[:, :nx + 1] = (0.0, 1.0)
    xi[:, nx + 1:] = np.stack([geometry.outward_normal(chart, q) for q in ends], axis=1)
    split = sys._split(np.repeat(ts, rows.size), np.tile(pts[rows], (L, 1)), xi.reshape(-1, 2),
                       *(a[:, rows].reshape(-1, *a.shape[2:]) for a in (A, G, beta)))
    lam, V, P = (a.reshape(L, rows.size, *a.shape[1:]) for a in split)
    speed = np.max(np.abs(lam[:, :nx + 1]), axis=2)
    worst = np.argmax(speed, axis=1)
    cfl = speed[np.arange(L), worst] * grid.dt / grid.dx
    if np.any(cfl > 1.0):
        m = int(np.argmax(cfl > 1.0))
        raise ContractError(f"realised CFL {cfl[m]:.4g} > 1 at t={ts[m]:.6g}, "
                            f"x={faces[worst[m]]:.6g}: lower the grid's cfl")
    T = soa(np.stack([_boundary_closure(G_B, q.face, *(a[:, i] for a in (lam, V, P)), force)
                      for q, G_B, i in zip(ends, mats, (-2, -1))], axis=1))
    # the block's products in structure-of-arrays layout: (N, ·, level, cell or face)
    k = grid.dt / (2 * grid.dx)
    V = soa(V[:, :nx + 1])
    kAabs = soa_mul(soa_mul(V * np.moveaxis(k * np.abs(lam[:, :nx + 1]), -1, 0),
                            np.conj(V.swapaxes(0, 1))), soa(P[:, :nx + 1]))
    A0, d = A[:, :nx, 0], A[:, :nx, 0, range(N), range(N), None]
    diagonal = A0.dtype == float and np.all(np.isfinite(d) & (d != 0)) and all(
        i == j for i, j in _entries(A0)[1])
    a0inv = np.eye(N) / d if diagonal else np.linalg.inv(A0)    # bitwise, signed zeros too
    kAdtC = soa_mul(soa(a0inv), np.concatenate([k * soa(A[:, :nx, 1]), grid.dt * soa(C[:, :nx])],
                                               axis=1))
    kA, dtC = kAdtC[:, :N], kAdtC[:, N:]
    B = np.concatenate([kA + kAabs[..., :-1], -(kAabs[..., 1:] + kAabs[..., :-1] + dtC),
                        kAabs[..., 1:] - kA], axis=1, dtype=np.result_type(kAdtC, kAabs, T))
    left, diag, right = B[:, :N], B[:, N:2 * N], B[:, 2 * N:]
    diag[..., 0] += soa_mul(left[..., 0], T[..., 0])
    diag[..., -1] += soa_mul(right[..., -1], T[..., 1])
    left[..., 0] = right[..., -1] = 0.0
    return np.ascontiguousarray(aos(B)), grid.dt * a0inv


def _boundary_closure(G_B, face, lam, V, P, force):
    """Matrices T (L, N, N), ghost = T_l @ Ψ_edge, implementing the
    characteristic closure at the rows of a face, one per level, from their
    boundary matrices G_B (L, N, N) and the splits (λ, V, P) of their outward
    conormals stacked over the levels, in one batch.  The levels must share
    their counts of incoming characteristics and of constraint rows
    (ContractError otherwise); with ``force``, a batch with an unsolvable
    level is closed by least squares."""
    keep = nonneg_mask(lam)
    if np.any(keep != keep[0]):
        raise ContractError(f"the levels at face {face} differ in their incoming "
                            f"characteristics")
    W_oz = np.conj(np.swapaxes(V[..., keep[0]], -1, -2)) @ P
    R, _, _ = row_reduce(G_B)
    r, n_in = R.shape[-2], int(np.sum(~keep[0]))
    K = np.concatenate([W_oz, R], axis=-2)       # square exactly when r == n_in
    rhs_map = np.concatenate([W_oz, -R], axis=-2)
    if r != n_in:
        if not force:
            raise BoundaryClosureError(
                f"boundary closure at face {face}: {n_in} incoming characteristics "
                f"vs rank-{r} condition (admissibility (iii) defect)")
        return np.linalg.pinv(K) @ rhs_map
    try:
        return np.linalg.solve(K, rhs_map)
    except np.linalg.LinAlgError as exc:
        if force:
            return np.linalg.pinv(K) @ rhs_map
        raise BoundaryClosureError(f"singular closure at face {face}") from exc


def _solve_explicit(sys, bc_map, table, h0, grid, force):
    """The field, from ``_level_blocks``' blocks of tables and the forcing
    table, with one Δt·σ(dt)⁻¹f product and one finiteness check per block."""
    nx, N = grid.nx, sys.fiber_rank
    out = None
    for rows, (B, dt_a0inv) in _level_blocks(sys, grid.ts[:-1], lambda ts: _explicit_tables(
            sys, bc_map, grid, ts, force), 2 * nx + 1):
        out = _field(out, h0, grid.nt, B, dt_a0inv, table)
        pad = np.zeros((nx + 2) * N, out.dtype)     # Ψ and a zero ghost cell each side
        window = np.lib.stride_tricks.sliding_window_view(pad, 3 * N)[::N]
        forced = None if table is None else np.einsum("lpij,lpj->lpi", dt_a0inv, table[rows])
        with np.errstate(over="ignore", invalid="ignore"):     # refused by _finite below
            for k, m in enumerate(range(rows.start, rows.stop)):
                level = min(k, len(B) - 1)          # a static system's one level serves all
                psi, new = out[m], out[m + 1]
                pad[N:-N] = psi.ravel()
                np.einsum("pij,pj->pi", B[level], window, out=new)
                if forced is not None:
                    new += forced[k]
                new += psi
        _finite(out[rows.start + 1:rows.stop + 1], rows.start + 1, grid.ts)
    return _field(out, h0, grid.nt)             # a grid with no steps: just h₀


# -- implicit positive systems -----------------------------------------------


def _implicit_tables(sys, bc_map, grid, ts):
    """The backward-Euler operators of the levels ``ts`` (a block of them, or
    a static system's one) from one evaluation of the coefficients at the
    nodes and of each face's G_B, in their common dtype: block rows B
    (L, npts, 3, N, N) as in ``_factor``, the boundary rows replaced in the
    constrained directions by the row-reduced G_B (one stacked ``row_reduce``
    per face, ContractError when the ranks differ within the block).

    Returns the operators in ``_band`` storage, each face's boundary rows
    {node: (R, V1, V2)} and the ``_entries`` of A⁰ = σ(dt) at the nodes, all
    stacked over the levels.
    """
    chart, npts, N = sys.chart, grid.xs.size, sys.fiber_rank
    dt, dx = grid.dt, grid.dx
    A, C = _coefficients(sys, ts, grid.xs[:, None])
    mats = [bc.matrix(chart, geometry.boundary_points(chart, face, ts))
            for face, bc in bc_map.items()]
    # lower, diagonal and upper block of each block row: centred differences
    # inside, one-sided at the two edge nodes
    B = np.zeros((len(ts), npts, 3, N, N), dtype=np.result_type(A, C, *mats))
    B[:, :, 1] = A[:, :, 0] / dt + C
    B[:, 1:-1, 0] = -A[:, 1:-1, 1] / (2 * dx)
    B[:, 1:-1, 2] = A[:, 1:-1, 1] / (2 * dx)
    B[:, 0, 1] -= A[:, 0, 1] / dx
    B[:, 0, 2] = A[:, 0, 1] / dx
    B[:, -1, 1] += A[:, -1, 1] / dx
    B[:, -1, 0] = -A[:, -1, 1] / dx
    boundary_rows = {}
    for face, G in zip(bc_map, mats):
        node = 0 if face[1] == 0 else npts - 1
        R, V1, V2 = boundary_rows[node] = row_reduce(G)
        # drop the PDE equations along the constrained directions and
        # install the constraint rows there instead
        B[:, node] = (V2 @ V2.conj().swapaxes(-1, -2))[:, None] @ B[:, node]
        B[:, node, 1] += V1 @ R
    return _band(B), boundary_rows, _entries(A[:, :, 0])


def _factor(op, t, banded):
    """``solve(rhs)`` of one level's block-tridiagonal matrix in ``_band``
    storage op, whose block row i holds B[i, d + 1] at block column i + d (d = −1, 0, 1).

    A static system (``banded`` None) factors once and solves nt times:
    SuperLU (``splu`` of ``_csc(op)``), whose solve is the faster.  A
    time-dependent one factors every level: LAPACK's banded LU with partial
    pivoting, the pair ``banded`` = (``gbtrf``, ``gbtrs``) of op's dtype
    (Golub & Van Loan, *Matrix Computations*, §4.3), an order of magnitude
    cheaper to factor; it overwrites op.  Real when op is, solving a complex
    rhs part by part.  BoundaryClosureError, naming t, when the matrix is
    exactly singular.
    """
    singular = "the implicit operator at t={:.6g} is singular"
    if banded is None:
        import scipy.sparse.linalg

        try:
            solve = scipy.sparse.linalg.splu(_csc(op)).solve
        except RuntimeError as exc:             # "Factor is exactly singular"
            raise BoundaryClosureError(singular.format(t)) from exc
    else:
        gbtrf, gbtrs = banded
        kl = (op.shape[0] - 1) // 3
        lu, piv, info = gbtrf(op, kl, kl, overwrite_ab=True)
        if info > 0:
            raise BoundaryClosureError(singular.format(t))
        solve = lambda rhs: gbtrs(lu, kl, kl, rhs, piv)[0]     # noqa: E731
    return solve if np.iscomplexobj(op) else lambda rhs: (
        solve(rhs) if rhs.dtype == float else solve(rhs.real) + 1j * solve(rhs.imag))


def _csc(band):
    """The matrix of one level's ``_band`` storage in scipy's CSC, without
    exact zeros: its 2kl + 1 diagonals, past the kl rows left for the fill-in."""
    import scipy.sparse

    kl, n = (band.shape[0] - 1) // 3, band.shape[1]
    return scipy.sparse.dia_matrix((band[kl:], kl - np.arange(2 * kl + 1)), shape=(n, n)).tocsc()


def _band(B):
    """The block-tridiagonal matrices of B (..., npts, 3, N, N) (each as in
    ``_factor``) in LAPACK band storage for ``gbtrf``, (..., 3kl + 1,
    npts·N) with each matrix Fortran-ordered: bandwidths kl = ku = 2N − 1,
    entry (i, j) at row kl + ku + i − j of column j, the first kl rows left
    for the fill-in; the out-of-range edge blocks B[0, 0] and B[−1, 2] have
    no column and are dropped.  One strided copy per block entry (d, a, b)
    serves all the matrices."""
    *lead, npts, _, N, _ = B.shape
    kl = 2 * N - 1
    band = np.zeros((*lead, npts, N, 3 * kl + 1), dtype=B.dtype)    # column j as (J, b)
    for d, a, b in np.ndindex(3, N, N):
        rows = slice(max(0, 1 - d), npts - max(0, d - 1))     # block rows whose column exists
        cols = slice(max(0, d - 1), npts - max(0, 1 - d))
        band[..., cols, b, 2 * kl + (1 - d) * N + a - b] = B[..., rows, d, a, b]
    return band.reshape(*lead, npts * N, -1).swapaxes(-1, -2)


def _solve_implicit(sys, bc_map, table, h0, grid):
    """The field.  A level solves its operator from ``_implicit_tables``'
    blocks of levels and forms its right-hand side with the forcing table; a
    time-dependent one first factors its operator (``_factor``).  A block's
    levels are checked finite together, also ahead of a singular factor."""
    npts, N = grid.xs.size, sys.fiber_rank
    banded = {}         # gbtrf and gbtrs per dtype, looked up once per solve
    out = None
    for rows, (ops, brows, (A0, nz)) in _level_blocks(
            sys, grid.ts[1:], lambda ts: _implicit_tables(sys, bc_map, grid, ts), npts):
        if not sys.static and ops.dtype not in banded:
            from scipy.linalg import lapack

            banded[ops.dtype] = lapack.get_lapack_funcs(("gbtrf", "gbtrs"), dtype=ops.dtype)
        out = _field(out, h0, grid.nt, ops, table)
        with np.errstate(over="ignore", invalid="ignore"):     # refused by _finite below
            for k, m in enumerate(range(rows.start, rows.stop)):
                level = 0 if sys.static else k
                if m == 0 or not sys.static:        # a static system factors once
                    try:
                        solve_level = _factor(ops[level], grid.ts[m + 1], banded.get(ops.dtype))
                    except BoundaryClosureError:
                        _finite(out[rows.start + 1:m + 1], rows.start + 1, grid.ts)
                        raise
                rhs = np.zeros(out.shape[1:], out.dtype)   # A⁰Ψ/Δt, in np.einsum's order
                for i, j in nz:
                    rhs[:, i] += A0[i, j, level] * out[m][:, j]
                rhs /= grid.dt
                if table is not None:
                    rhs += table[m + 1]
                for node, (R, V1, V2) in brows.items():
                    rhs[node] = V2[level] @ (V2[level].conj().T @ rhs[node])
                out[m + 1] = solve_level(rhs.ravel()).reshape(npts, N)
        _finite(out[rows.start + 1:rows.stop + 1], rows.start + 1, grid.ts)
    return _field(out, h0, grid.nt)


def enforce_admissibility(sys, bc_map):
    """The refusal policy of every solve: the system must satisfy (S), which
    the characteristic split assumes (``check_symmetric``, once per system),
    and each face's condition must pass the admissibility check sampled at
    4 times × 2 tangential points, its report kept in the system's cache per
    (face, condition object) like (S)'s.  The check reads the literal boundary
    form of the system it is given; a ``time_reversed`` system carries its own
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
        if (face, bc) not in sys._cache:
            sys._cache[face, bc] = admissibility(sys, bc, n_time=4, n_tang=2, faces=[face])
        if not sys._cache[face, bc].admissible:
            raise NotAdmissibleError(bc, face, sys._cache[face, bc])


def solve(sys, bcs, f=None, h=None, grid=None, force=False):
    """Advance S Ψ = f, Ψ(t₀) = h, Ψ|∂ ∈ ker G_B over the grid.

    ``f`` is a callable f(t, xs), tabled once over the grid's levels, or that
    table, shape (nt+1, n_x, N); ``h`` a callable h(xs) or its array.  Hyperbolic
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
    bc_map = as_bc_map(sys, bcs)
    if not force:
        enforce_admissibility(sys, bc_map)
    h0 = _eval_initial(h, grid.xs, sys.fiber_rank)
    table = None if f is None else _forcing_table(f, grid, sys.fiber_rank)
    if grid.staggered and sys.time_sign == 0:
        raise NotHyperbolicError("explicit path needs a definite σ(dt)-form")
    _finite(h0[None], 0, grid.ts)
    if grid.staggered:
        return GridField(_solve_explicit(sys, bc_map, table, h0, grid, force), grid)
    return GridField(_solve_implicit(sys, bc_map, table, h0, grid), grid)


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
        ok = e[:-1] > 0
        return float(np.max(e[1:][ok] / e[:-1][ok])) if np.any(ok) else 1.0


def _energy_tables(sys, grid, ts):
    """The energy_trace tables of the levels ``ts``, with a leading axis over
    the levels, from one evaluation on the samples and the two boundary
    points: the energy metric (the companion metric, or G when σ(dt) is not
    definite) as ``_quadratic_density`` takes it, and √det h, on the samples;
    s*·β, G and σ(n♭) at the ends."""
    chart, n, s = sys.chart, grid.xs.size, sys.time_sign
    ends = [geometry.boundary_points(chart, face, ts) for face in chart.faces()]
    xi = np.stack([geometry.outward_normal(chart, q) for q in ends], axis=1)
    xs2 = np.concatenate([grid.xs, [q.x[0, 0] for q in ends]])[:, None]
    t, x = geometry.spacetime_rows(ts, xs2)
    A, G, beta, sdens = _by_level(len(ts), sys.coeff_at(t, x)[0], sys.metric_at(t, x),
                                  chart.beta_at(t, x), geometry.spatial_density(chart, t, x))
    P, nz = _entries(companion_metric(s, beta[:, :n], G[:, :n], A[:, :n, 0]) if s != 0
                     else G[:, :n])
    return ((*_parts(P), nz), sdens[:, :n], (s or 1) * beta[:, n:], G[:, n:],
            np.einsum("lfm,lfmij->lfij", xi, A[:, n:]))


def _parts(a):
    """Contiguous copies of a's real and imaginary parts, the imaginary None for a real a."""
    return a.real.copy(), a.imag.copy() if a.dtype == complex else None


def _quadratic_density(psi, Pr, Pi, nz):
    """Re ⟨Ψ, PΨ⟩ for Ψ (L, n, N) and the ``_parts`` of P's ``_entries`` (L or
    1 levels), term by term in the (i, j) order and real arithmetic of
    ``np.einsum("pi,pij,pj->p", Ψ̄, P, Ψ)``: bitwise that einsum's on each level,
    summing only the entries nz, and no product with a real P's or Ψ's zero Im."""
    xr, xi = _parts(np.moveaxis(psi, -1, 0))
    dens = np.zeros(psi.shape[:-1])
    re, im, tmp = (np.empty_like(dens) for _ in range(3))
    for i, j in nz:
        np.multiply(xr[i], Pr[i, j], out=re)            # Re(Ψ̄_i·P_ij)
        if xi is not None:
            np.multiply(xi[i], Pr[i, j], out=im)        # −Im(Ψ̄_i·P_ij)
            if Pi is not None:
                re += np.multiply(xi[i], Pi[i, j], out=tmp)
                im -= np.multiply(xr[i], Pi[i, j], out=tmp)
        re *= xr[j]                                     # Re of its product with Ψ_j
        if xi is not None:
            re += np.multiply(im, xi[j], out=im)
        dens += re
    return dens


def _weights(grid):
    """Quadrature weights of the samples: Δx, halved at the two edge nodes."""
    weights = np.full(grid.xs.size, grid.dx)
    if not grid.staggered:
        weights[0] = weights[-1] = grid.dx / 2
    return weights


def energy_trace(fld, sys):
    """E(t) = Σ_x ⟨Ψ, Ψ⟩_P √det(h) Δx, the discrete ∫_Σ |Ψ|²_β dμ_t.

    The flux column logs the boundary form s*·β·⟨σ(n♭)Ψ, Ψ⟩ summed over
    faces, evaluated at the edge sample; for conditions with vanishing
    boundary form it is an O(Δx) discretization artifact around zero.
    Systems without a positive companion metric sum the indefinite fiber
    form G instead, which is not a norm.  The one energy path: levels go in
    blocks of ``_BLOCK``, each block's tables from one evaluation
    (``_energy_tables``), once in total for a static system.
    """
    grid = fld.grid
    energy, flux = np.empty((2, grid.nt + 1))
    weights = _weights(grid)
    for rows, (P, sdens, sbeta, G, sn) in _level_blocks(
            sys, grid.ts, lambda ts: _energy_tables(sys, grid, ts), grid.xs.size + 2):
        psi = fld.values[rows]
        energy[rows] = pairwise_sum(_quadratic_density(psi, *P) * sdens * weights)
        trace = psi[:, [0, -1]]                 # the edge samples of the two faces
        form = np.real(trace.conj()[..., None, :] @ G @ sn @ trace[..., None])[..., 0, 0]
        flux[rows] = sum((sbeta * form).T)      # 0.0 + face 0 + face 1
    return EnergyTrace(grid.ts.copy(), energy, flux)


def estimate_energy_constant(sys):
    """Growth constant from the symmetrized zero-order term: E' ≤ C·E, over
    5 slices of every other cell of the 16-cell lattice, in one evaluation;
    ContractError, naming the system, without a positive companion metric."""
    from .system import zero_order_symmetrization

    chart = sys.chart
    _, xs = chart.sample_interior(16)
    t, x = geometry.spacetime_rows(chart.sample_times(5), xs[::max(1, xs.shape[0] // 8)])
    Z_h, G = zero_order_symmetrization(sys, t, x)
    P = sys.positive_metric_at(t, x)
    P = G if P is None else P
    try:
        return max(0.0, float(np.max(-eigh_pencil(P @ Z_h, P)[0])))
    except np.linalg.LinAlgError as exc:
        raise ContractError(f"{sys.name}: no positive companion metric") from exc


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
    out = [np.einsum("lpij,lpj->lpi", A[:, :, 0], dpsi_dt[rows])
           + np.einsum("lpij,lpj->lpi", A[:, :, 1], dpsi_dx[rows])
           + np.einsum("lpij,lpj->lpi", C, vals[rows])
           for rows, (A, C) in _level_blocks(
               sys, grid.ts, lambda ts: _coefficients(sys, ts, grid.xs[:, None]), grid.xs.size)]
    return GridField(np.concatenate(out), grid)


def l2_norm(fld_values, grid):
    w = _weights(grid)
    dens = np.sum(np.abs(fld_values) ** 2, axis=-1)
    if dens.ndim == 2:
        return float(np.sqrt(np.sum(dens @ w) * grid.dt))
    return float(np.sqrt(dens @ w))


# -- Green operators ---------------------------------------------------------


def _forcing_table(f, grid, N):
    """The forcing f of a solve or a Green operator, shape (nt+1, n_x, N),
    through ``as_table`` once: f's table, or a callable f(t, xs) evaluated
    once per level, each level's shape checked before the next is evaluated."""
    if f is None:
        raise ConfigError("a Green operator needs a source f")
    shape = (grid.nt + 1, grid.xs.size, N)
    if callable(f):
        levels = []
        for t in grid.ts:
            levels.append(np.asarray(f(t, grid.xs[:, None])))
            if levels[-1].shape != shape[1:]:
                raise ConfigError(f"forcing must return shape {shape[1:]}")
        f = np.stack(levels)
    table = as_table(f)
    if table.shape != shape:
        raise ConfigError(f"forcing table must have shape (nt+1, n_x, N) = {shape}, "
                          f"got {table.shape}")
    return table


def _active_levels(table, threshold=1e-14):
    """Levels of a forcing table whose norm exceeds threshold · the largest."""
    norms = np.linalg.norm(table, axis=(1, 2))
    return np.flatnonzero(norms > threshold * max(norms.max(), 1e-300))


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

    rev_chart = replace(chart, t_range=tuple(t_range), beta=lambda t, xs: chart.beta(flip(t), xs),
                        h=lambda t, xs: chart.h(flip(t), xs))

    def coeff(t, xs):
        A, C = sys.coeff_at(flip(t), xs)
        A = A.copy()
        A[:, 0] = -A[:, 0]
        return A, C

    def metric(t, xs):
        G = sys.metric_at(flip(t), xs)
        return G if w == 1 else -G

    return replace(sys, chart=rev_chart, coeff=coeff, metric=metric,
                   metric_positive=sys.metric_positive and w == 1, name=sys.name + "_reversed")


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
    is reversed correctly; the reversed system is built once per interval and
    kept in ``sys``'s cache, and with it its verdicts.  The reversed solve
    steps from f's table on the grid, read backwards; the field carries it.
    """
    if not grid.staggered:
        raise ContractError("the retarded Green operator needs a hyperbolic "
                            "system; reversing a parabolic solve is ill-posed")
    table = _forcing_table(f, grid, sys.fiber_rank)
    levels = _active_levels(table)
    if levels.size and levels[-1] == grid.nt:
        raise ContractError("supp f touches the final slice; shrink the support")
    key = ("reversed", grid.t0, grid.t1)
    if key not in sys._cache:
        sys._cache[key] = time_reversed(sys, (grid.t0, grid.t1))
    fld = solve(sys._cache[key], bcs, f=table[::-1], h=None, grid=grid, force=force)
    return GridField(fld.values[::-1].copy(), grid, (f, table))


def green_residual(sys, fld, f):
    """‖S(G f) − f‖₂ / ‖f‖₂ over the full grid."""
    f_vals = _source_table(fld, f, sys.fiber_rank)
    res = apply_operator(sys, fld).values - f_vals
    return l2_norm(res, fld.grid) / max(l2_norm(f_vals, fld.grid), 1e-300)


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
        errors.append(l2_norm(fld.values[-1] - exact(grid.t1, grid.xs), grid))
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
        return math.exp(-lam * t) * f(t, xs2)

    fld_shift = solve(shifted, bcs, f=f_scaled if f is not None else None,
                      h=h, grid=grid)
    scale = np.exp(-lam * grid.ts)[:, None, None]
    disc = l2_norm((scale * fld.values - fld_shift.values)[-1], grid)
    return LambdaEquivalenceReport(lam, disc, estimate)
