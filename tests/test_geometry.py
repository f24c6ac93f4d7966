import numpy as np
import pytest

from friedrichs import geometry, system
from friedrichs.errors import ConfigError, ContractError, NotHyperbolicError
from friedrichs.geometry import (BoundaryPoint, LEFT, RIGHT, boundary_points,
                                 max_characteristic_speed, outward_normal,
                                 volume_density)

from conftest import sampled_boundary_points


def test_flat_left_normal(strip):
    q = BoundaryPoint(0.3, LEFT, [0.0])
    assert np.allclose(outward_normal(strip, q), [0.0, -1.0])


def test_scaled_metric_normal_is_unit_normalized():
    # h = a² dx² with a = 2 at the right face: unit conormal is 2·dx
    chart = geometry.SpacetimeChart(
        1, (0.0, 1.0), (1.0,),
        beta=lambda t, xs: np.ones(xs.shape[0]),
        h=lambda t, xs: np.full((xs.shape[0], 1, 1), 4.0))
    q = BoundaryPoint(0.5, RIGHT, [1.0])
    assert np.allclose(outward_normal(chart, q), [0.0, 2.0])


def test_normal_has_no_dt_component(curved_strip):
    for q in sampled_boundary_points(curved_strip, 6):
        assert outward_normal(curved_strip, q)[0] == 0.0


def test_normal_is_g_unit(curved_strip):
    for q in sampled_boundary_points(curved_strip, 8):
        nb = outward_normal(curved_strip, q)
        hinv = curved_strip.h_inv_at(q.t, q.x[None, :])[0]
        norm_sq = nb[1:] @ hinv @ nb[1:]
        assert abs(norm_sq - 1.0) < 1e-12


def test_normal_points_outward(curved_strip):
    for q in sampled_boundary_points(curved_strip, 4):
        n_vec = geometry.normal_vector(curved_strip, q)
        inward = 1.0 if q.face[1] == 0 else -1.0
        assert n_vec[q.face[0]] * inward < 0


def test_point_off_face_rejected(strip):
    with pytest.raises(ContractError):
        outward_normal(strip, BoundaryPoint(0.1, LEFT, [0.25]))


def test_volume_density_flat(strip):
    assert np.allclose(volume_density(strip, 0.2, np.array([[0.5]])), 1.0)


def test_volume_density_hand_value():
    chart = geometry.SpacetimeChart(
        1, (0.0, 1.0), (1.0,),
        beta=lambda t, xs: np.full(xs.shape[0], 2.0),
        h=lambda t, xs: np.full((xs.shape[0], 1, 1), 9.0), time_independent=False)
    assert np.allclose(volume_density(chart, 0.0, np.array([[0.1]])), 6.0)


def test_volume_density_matches_expansion_on_random_charts():
    rng = np.random.default_rng(3)
    for _ in range(5):
        c0, c1, c2 = rng.uniform(0.1, 1.0, 3)

        def beta(t, xs, c0=c0, c1=c1):
            return 1.0 + c0 + c1 * np.sin(t + xs[:, 0])

        def h(t, xs, c2=c2):
            return (1.0 + c2 * np.cos(xs[:, 0] - t))[:, None, None] ** 2

        chart = geometry.SpacetimeChart(1, (0.0, 1.0), (1.0,), beta, h, time_independent=False)
        xs = rng.uniform(0, 1, (16, 1))
        t = rng.uniform(0, 1)
        expect = chart.beta_at(t, xs) * np.sqrt(np.linalg.det(chart.h_at(t, xs)))
        got = volume_density(chart, t, xs)
        assert np.max(np.abs(got / expect - 1.0)) < 1e-12


@pytest.mark.parametrize("dims", [1, 2])
def test_normal_vector_inverts_h_once_and_is_bitwise_h_inverse_of_the_conormal(
        curved_strip, dims, monkeypatch):
    # at single points, and on a face's rows at mixed times, where a static and
    # a time-dependent chart give each row its own point's result bitwise
    lengths = (1.0,) if dims == 1 else (1.0, 2.0)
    sine_h = {"profile": "sine", "base": 1.0, "amplitude": 0.3, "waves": 1, "waves_t": 1.0}
    charts = [curved_strip if dims == 1 else geometry.ultrastatic((0.0, 1.0), lengths, eps=0.3),
              geometry.named_profile_chart((0.0, 1.0), lengths, h_scale=sine_h)]
    rng = np.random.default_rng(dims)
    for chart in charts:
        points = sampled_boundary_points(chart, 3, 3)
        expected = [chart.h_inv_at(q.t, q.x[None, :])[0] @ outward_normal(chart, q)[1:]
                    for q in points]
        calls = []
        h_inv_at = chart.h_inv_at
        monkeypatch.setattr(chart, "h_inv_at", lambda t, xs: calls.append(t) or h_inv_at(t, xs))
        for q, n in zip(points, expected):
            assert geometry.normal_vector(chart, q).tobytes() == n.tobytes()
        assert len(calls) == len(points)
        for face in chart.faces():
            q = boundary_points(chart, face, rng.uniform(0.0, 1.0, 4), 3)
            order = rng.permutation(len(q.t))
            rows = BoundaryPoint(q.t[order], face, q.x[order])
            singles = [BoundaryPoint(t, face, x) for t, x in zip(rows.t, rows.x)]
            for fn in (outward_normal, geometry.normal_vector):
                calls.clear()
                batch = fn(chart, rows)
                assert len(calls) == 1
                assert batch.tobytes() == np.stack([fn(chart, p) for p in singles]).tobytes()
    with pytest.raises(ContractError, match="does not lie on face"):
        geometry.normal_vector(chart, BoundaryPoint(0.5, RIGHT, [0.5] * dims))
    with pytest.raises(ContractError, match=r"point \[0\.5.*\] at t=0\.2 does not lie"):
        geometry.normal_vector(chart, BoundaryPoint([0.1, 0.2], RIGHT,
                                                    [[1.0] * dims, [0.5] * dims]))


def test_volume_density_continuous_in_time(curved_strip):
    xs = np.array([[0.3], [0.7]])
    vals = [volume_density(curved_strip, t, xs) for t in (0.5, 0.5 + 1e-7)]
    assert np.allclose(vals[0], vals[1], atol=1e-6)


@pytest.mark.parametrize("lengths", [(1.0,), (1.0, 2.0), (0.5, 1.0, 1.5)])
def test_ultrastatic_is_a_static_sine_conformal_factor(lengths):
    eps, waves = 0.35, 2
    chart = geometry.ultrastatic((0.0, 1.0), lengths, eps=eps, waves=waves)
    rng = np.random.default_rng(len(lengths))
    t, xs = rng.uniform(0.0, 1.0, 40), rng.uniform(0.0, 1.0, (40, len(lengths))) * lengths
    a = 1.0 + eps * np.sin(sum(2 * np.pi * waves * xs[:, j] / L for j, L in enumerate(lengths)))
    assert chart.h_at(t, xs).tobytes() == (a[:, None, None] ** 2 * np.eye(len(lengths))).tobytes()
    assert chart.beta_at(t, xs).tolist() == [1.0] * 40
    assert chart.time_independent and not chart.constant


@pytest.mark.parametrize("eps", [0.9, -0.9, 1.5])
def test_ultrastatic_refuses_an_eps_that_can_degenerate_h(eps):
    with pytest.raises(ConfigError, match="ultrastatic eps"):
        geometry.ultrastatic(eps=eps)


def test_advection_speed(strip):
    assert max_characteristic_speed(strip, system.advection_system(strip)) == pytest.approx(1.0)


def test_wave_reduction_speed_unit(strip):
    from friedrichs import reduction

    prob = reduction.SecondOrderProblem("normally_hyperbolic", strip, k=1)
    wave = reduction.wave_to_first_order(prob)
    # brute-force oracle: generalized eigenvalues of (A_Σ, A_0) at a sample
    A, _ = wave.coeff_at(0.3, np.array([[0.4]]))
    lam = np.linalg.eigvals(np.linalg.solve(A[0, 0], A[0, 1]))
    assert np.max(np.abs(lam.real)) == pytest.approx(1.0, abs=1e-12)
    assert max_characteristic_speed(strip, wave) == pytest.approx(1.0)


def test_speed_scales_with_coefficient(strip):
    fast = system.advection_system(strip, speed=2.0)
    assert max_characteristic_speed(strip, fast) == pytest.approx(2.0)


def test_speed_rejects_singular_time_symbol(strip):
    sys_ = system.constant_system(strip, [np.zeros((1, 1)), np.eye(1)], None)
    with pytest.raises(NotHyperbolicError):
        max_characteristic_speed(strip, sys_)


def test_boundary_points_lie_on_face(curved_strip):
    q = boundary_points(curved_strip, RIGHT, curved_strip.sample_times(5))
    assert q.x.shape == (5, 1) and q.x[:, 0] == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(3))
def test_h_inverse_in_one_dimension_is_bitwise_the_matrix_inverse(seed):
    rng = np.random.default_rng(seed)
    values = 10.0 ** rng.uniform(-8, 8, 257)
    chart = geometry.SpacetimeChart(1, (0.0, 1.0), (1.0,),
                                    beta=lambda t, xs: np.ones(xs.shape[0]),
                                    h=lambda t, xs: values[:xs.shape[0], None, None],
                                    time_independent=False)
    xs = np.linspace(0.0, 1.0, 257)[:, None]
    hinv = chart.h_inv_at(0.5, xs)
    assert hinv.shape == (257, 1, 1)
    assert hinv.tobytes() == np.linalg.inv(chart.h_at(0.5, xs)).tobytes()
