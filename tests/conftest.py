import numpy as np
import pytest

from friedrichs import geometry, solver


def smooth_bump(xs, center=0.5, width=0.2, amplitude=1.0):
    """C^∞ bump supported in |x - center| < width."""
    s = (np.asarray(xs) - center) / width
    out = np.zeros_like(s, dtype=float)
    inside = np.abs(s) < 1
    out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


@pytest.fixture
def strip():
    return geometry.minkowski_strip((0.0, 1.0), (1.0,))


@pytest.fixture
def short_strip():
    return geometry.minkowski_strip((0.0, 0.4), (1.0,))


@pytest.fixture
def curved_strip():
    return geometry.ultrastatic((0.0, 1.0), (1.0,), eps=0.3)


def sampled_boundary_points(chart, n_time=8, n_tang=4, faces=None):
    """The boundary samples of ``faces`` (every face by default) at
    ``chart.sample_times(n_time)``, one ``BoundaryPoint`` each, in the row
    order of ``geometry.boundary_points``."""
    qs = [geometry.boundary_points(chart, face, chart.sample_times(n_time), n_tang)
          for face in (chart.faces() if faces is None else faces)]
    return [geometry.BoundaryPoint(t, q.face, x) for q in qs for t, x in zip(q.t, q.x)]


def rows_per_level(grid, path):
    """The (level, point) rows one level of ``path``'s tables evaluates on
    ``grid``: the cells and faces ("explicit"), the samples ("implicit",
    "operator") or the samples and the two boundary points ("energy")."""
    return {"explicit": 2 * grid.nx + 1, "implicit": grid.xs.size, "operator": grid.xs.size,
            "energy": grid.xs.size + 2}[path]


def block_length(sys_, grid, path):
    """Levels per block of the tables of ``path`` on ``grid``: ``_BLOCK`` for a
    static system, else as many as fill ``_BLOCK_ROWS`` rows, at least one."""
    return solver._BLOCK if sys_.static else max(
        1, solver._BLOCK_ROWS // rows_per_level(grid, path))


def short_blocks(monkeypatch, grid, path, levels=16):
    """Size time-dependent blocks so that ``path``'s on ``grid`` hold ``levels``
    levels: a small grid then runs several blocks, as a large one does."""
    monkeypatch.setattr(solver, "_BLOCK_ROWS", levels * rows_per_level(grid, path))


def level_by_level(monkeypatch):
    """From now on every path builds its tables one level at a time."""
    monkeypatch.setattr(solver, "_BLOCK", 1)
    monkeypatch.setattr(solver, "_BLOCK_ROWS", 1)
