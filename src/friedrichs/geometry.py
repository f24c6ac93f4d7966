"""Spacetime strips [t_a, t_b] × [0, L]^n with splitting metric g = −β²dt² + h_t.

Charts are product strips only: all geometry enters through the lapse β(t, x)
and the spatial metric h_t(t, x).  Coefficient evaluators are vectorised over
batches of spacetime points: ``beta(t, xs)`` takes ``xs`` of shape (m, n) and
``t`` as a scalar or one time per row, shape (m,), and returns shape (m,);
``h(t, xs)`` returns shape (m, n, n).  A row depends on its own (t, x) only.

Boundary evaluation follows the same convention: a ``BoundaryPoint`` holds one
point or m rows of one face, and its conormals are evaluated once per row.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, ContractError

#: faces of the 1D strip, for readability in configs and tests
LEFT = (0, 0)
RIGHT = (0, 1)


@dataclass
class SpacetimeChart:
    """Product strip with metric −β²dt² + h_t.

    ``space_extent`` holds one length per spatial axis; the spatial domain is
    the box  ∏_a [0, L_a].  ``beta`` and ``h`` must be positive resp. symmetric
    positive definite at every sampled point.
    """

    dim_space: int
    t_range: tuple
    space_extent: tuple
    beta: Callable
    h: Callable
    time_independent: bool = True
    constant: bool = False

    def __post_init__(self):
        if self.dim_space < 1:
            raise ConfigError(f"dim_space must be >= 1, got {self.dim_space}")
        if not self.t_range[0] < self.t_range[1]:
            raise ConfigError(f"empty time range {self.t_range}")
        self.space_extent = tuple(float(L) for L in np.atleast_1d(self.space_extent))
        if len(self.space_extent) != self.dim_space:
            raise ConfigError("space_extent must give one length per axis")
        if any(L <= 0 for L in self.space_extent):
            raise ConfigError("space_extent lengths must be positive")

    # -- evaluation helpers ------------------------------------------------

    def beta_at(self, t, xs):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return np.broadcast_to(np.asarray(self.beta(t, xs), dtype=float), (xs.shape[0],)).copy()

    def h_at(self, t, xs):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        n = self.dim_space
        return np.broadcast_to(np.asarray(self.h(t, xs), dtype=float), (xs.shape[0], n, n)).copy()

    def h_inv_at(self, t, xs):
        """h⁻¹ at the points; in one dimension the reciprocal of the 1×1 h,
        bitwise ``np.linalg.inv``'s at a fraction of its cost."""
        h = self.h_at(t, xs)
        return 1.0 / h if self.dim_space == 1 else np.linalg.inv(h)

    def faces(self):
        return [(a, s) for a in range(self.dim_space) for s in (0, 1)]

    def face_position(self, face):
        axis, side = face
        return 0.0 if side == 0 else self.space_extent[axis]

    def sample_times(self, count):
        return np.linspace(self.t_range[0], self.t_range[1], count)

    def sample_interior(self, per_axis=64):
        """Uniform tensor grid of (t, x) samples, cell-centered in space."""
        ts = self.sample_times(per_axis)
        axes = [(np.arange(per_axis) + 0.5) * L / per_axis for L in self.space_extent]
        mesh = np.meshgrid(*axes, indexing="ij")
        xs = np.stack([m.ravel() for m in mesh], axis=-1)
        return ts, xs


@dataclass
class BoundaryPoint:
    """A point on one timelike boundary face of the strip, or m rows of them."""

    t: float       # or one time per row, shape (m,)
    face: tuple
    x: np.ndarray  # full spatial coordinates, shape (n,), or (m, n) for rows

    def __post_init__(self):
        self.x = np.atleast_1d(np.asarray(self.x, dtype=float))


def boundary_points(chart, face, ts, n_tang=4):
    """One face's samples as rows, times outer: at each of the times ``ts``,
    the centres of an n_tang-cell lattice along each tangential axis."""
    axis, _ = face
    tang_axes = [a for a in range(chart.dim_space) if a != axis]
    grids = [(np.arange(n_tang) + 0.5) * chart.space_extent[a] / n_tang for a in tang_axes]
    xs = np.zeros((n_tang ** len(tang_axes), chart.dim_space))
    xs[:, axis] = chart.face_position(face)
    if tang_axes:
        xs[:, tang_axes] = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(
            -1, len(tang_axes))
    t, x = spacetime_rows(ts, xs)
    return BoundaryPoint(t, face, x)


def _conormal(chart, q):
    """h⁻¹ at the boundary point or rows q and the outward conormal n♭ built from it."""
    axis, side = q.face
    xs = np.atleast_2d(q.x)
    off = np.flatnonzero(np.abs(xs[:, axis] - chart.face_position(q.face))
                         > 1e-9 * max(1.0, chart.space_extent[axis]))
    if off.size:
        raise ContractError(f"point {xs[off[0]]} at t={np.broadcast_to(q.t, len(xs))[off[0]]} "
                            f"does not lie on face {q.face}")
    hinv = chart.h_inv_at(q.t, xs)
    scale = 1.0 / np.sqrt(hinv[:, axis, axis])
    sign = -1.0 if side == 0 else 1.0
    nb = np.zeros((len(xs), chart.dim_space + 1))
    nb[:, 1 + axis] = sign * scale
    rows = q.x.shape[:-1]
    return hinv.reshape(rows + hinv.shape[1:]), nb.reshape(rows + nb.shape[1:])


def outward_normal(chart, q):
    """Unit outward conormal n♭ at a boundary point, as an (n+1)-covector per row.

    The dt-component is zero (the temporal gradient is tangent to the
    boundary); the spatial part is the conormal dx^a of the face, normalised
    to g⁻¹(n♭, n♭) = 1 and signed to point out of the strip.
    """
    return _conormal(chart, q)[1]


def normal_vector(chart, q):
    """Outward unit normal vector n = (n♭)♯; spatial components only, (n,) per row."""
    hinv, nb = _conormal(chart, q)
    return (hinv @ nb[..., 1:, None])[..., 0]


def spacetime_rows(ts, xs):
    """One row per (time, point) pair, the times outer: the times (L·m,) and
    the points (L·m, n) that evaluate the L times ``ts`` at the m points
    ``xs`` (m, n) in one call; a table of the rows reshapes to (L, m, …)."""
    return np.repeat(ts, len(xs)), np.tile(xs, (len(ts), 1))


def volume_density(chart, t, xs):
    """Spacetime volume density β·√det(h) at sampled points."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    beta = chart.beta_at(t, xs)
    dens = beta * np.sqrt(np.linalg.det(chart.h_at(t, xs)))
    if np.any(dens <= 0):
        raise ConfigError("volume density must be positive; check beta/h")
    return dens


def spatial_density(chart, t, xs):
    """Slice volume density √det(h_t)."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    return np.sqrt(np.linalg.det(chart.h_at(t, xs)))


def _speed_samples(chart, system, per_axis, t_range):
    """The (t, x) rows of ``max_characteristic_speed``'s samples over
    ``t_range``, one time per row."""
    axes = [np.linspace(0.0, L, per_axis + 1) for L in chart.space_extent]
    xs = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    ts = np.linspace(*t_range, 1 if system.static else 8)
    return spacetime_rows(ts, xs)


def max_characteristic_speed(chart, system, per_axis=16):
    """sup |λ| over the speeds λ of σ(dt)⁻¹σ(dxʲ) from ``system.characteristics``
    at the nodes of the uniform ``per_axis``-cell lattice: in one dimension
    the faces that an explicit step on ``per_axis`` cells splits at.  Once, at
    the chart's first time, for a static system; otherwise at 8 evenly spaced
    times of the chart's interval; all in one call.

    Raises NotHyperbolicError when the σ(dt)-form is singular or indefinite
    at a node (either definite sign is the system's time orientation).
    """
    ts, xs = _speed_samples(chart, system, per_axis, chart.t_range)
    n = chart.dim_space
    xi = np.tile(np.eye(n + 1)[1:], (len(xs), 1))       # dx¹ … dxⁿ at each sample
    return float(np.max(np.abs(system.characteristics(
        np.repeat(ts, n), np.repeat(xs, n, axis=0), xi)[0])))


# -- chart builders --------------------------------------------------------


def minkowski_strip(t_range=(0.0, 1.0), lengths=(1.0,)):
    """Flat strip: β = 1, h = δ."""
    lengths = tuple(np.atleast_1d(lengths))
    n = len(lengths)
    eye = np.eye(n)

    def beta(t, xs):
        return np.ones(xs.shape[0])

    def h(t, xs):
        return np.broadcast_to(eye, (xs.shape[0], n, n))

    return SpacetimeChart(n, tuple(t_range), lengths, beta, h, constant=True)


def ultrastatic(t_range=(0.0, 1.0), lengths=(1.0,), eps=0.2, waves=1):
    """β = 1 with a static curved spatial metric h = a(x)² δ, a = 1 + eps·sin:
    the named-profile chart with a sine conformal factor."""
    if not -0.9 < eps < 0.9:
        raise ConfigError("ultrastatic eps must keep h positive definite")
    return named_profile_chart(t_range, lengths, h_scale={
        "profile": "sine", "base": 1.0, "amplitude": eps, "waves": waves})


#: the keys, with their defaults, of each named scalar profile a(t, x) of a chart
SCALAR_PROFILES = {"constant": {"value": 1.0},
                   "sine": {"base": 1.0, "amplitude": 0.2, "waves": 1.0, "waves_t": 0.0}}


def _scalar_profile(spec, lengths):
    p = {"profile": "constant", **(spec or {})}
    kind = p.pop("profile")
    if kind not in SCALAR_PROFILES or p.keys() - SCALAR_PROFILES[kind].keys():
        raise ConfigError(f"chart profile {spec} is not one of {SCALAR_PROFILES}")
    values = [float(v) for v in {**SCALAR_PROFILES[kind], **p}.values()]
    if kind == "constant":
        return (lambda t, xs: np.full(xs.shape[0], values[0])), True
    base, amp, waves, waves_t = values

    def fn(t, xs):
        phase = sum(2 * np.pi * waves * xs[:, j] / L for j, L in enumerate(lengths))
        return base + amp * np.sin(phase + 2 * np.pi * waves_t * t)

    return fn, waves_t == 0.0


def named_profile_chart(t_range=(0.0, 1.0), lengths=(1.0,), beta=None, h_scale=None):
    """Chart from named profiles: β and a conformal factor a with h = a²δ."""
    lengths = tuple(float(L) for L in np.atleast_1d(lengths))
    n = len(lengths)
    beta_fn, beta_static = _scalar_profile(beta, lengths)
    a_fn, a_static = _scalar_profile(h_scale, lengths)

    def h(t, xs):
        out = np.zeros((xs.shape[0], n, n))
        idx = np.arange(n)
        out[:, idx, idx] = a_fn(t, xs)[:, None] ** 2
        return out

    return SpacetimeChart(n, tuple(t_range), lengths, beta_fn, h,
                          time_independent=beta_static and a_static)


CHART_BUILDERS = {
    "minkowski_strip": minkowski_strip,
    "ultrastatic": ultrastatic,
    "custom": named_profile_chart,
}
