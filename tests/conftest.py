import numpy as np
import pytest

from friedrichs import geometry


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
