import numpy as np
import pytest

from friedrichs import geometry, system
from friedrichs.clifford import (build_rep, chirality_operator, dirac_system,
                                 gamma_of_vector, rep_invariant_residuals,
                                 riemannian_chirality_operator)
from friedrichs.errors import ContractError, UnsupportedDimensionError


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_rep_invariants(d):
    rep = build_rep(d)
    assert rep.rank == 2 ** (d // 2)
    res = rep_invariant_residuals(rep)
    assert res["anticommutator"] < 1e-12
    assert res["symmetry"] < 1e-12
    assert res["gram_pm_balance"] == 0


@pytest.mark.parametrize("d", [2, 4, 6])
def test_chirality_algebra(d):
    rep = build_rep(d)
    G = chirality_operator(rep)
    N = rep.rank
    assert np.linalg.norm(G @ G - np.eye(N)) < 1e-12
    for mu in range(d):
        assert np.linalg.norm(G @ rep.gammas[mu] + rep.gammas[mu] @ G) < 1e-12
    W = rep.gram @ G
    assert np.linalg.norm(W + W.conj().T) < 1e-12  # skew-Hermitian spin pairing


@pytest.mark.parametrize("d", [3, 5])
def test_chirality_rejects_odd_spacetime(d):
    with pytest.raises(UnsupportedDimensionError):
        chirality_operator(build_rep(d))


def test_unsupported_dimension():
    with pytest.raises(UnsupportedDimensionError):
        build_rep(7)


def test_riemannian_chirality_default(strip):
    for d in (2, 4):
        rep = build_rep(d)
        GR = riemannian_chirality_operator(rep)
        assert np.linalg.norm(GR @ GR - np.eye(rep.rank)) < 1e-12
        assert np.linalg.norm(GR @ rep.gammas[0] - rep.gammas[0] @ GR) < 1e-12


def test_riemannian_chirality_rejects_bad_candidate():
    rep = build_rep(2)
    with pytest.raises(ContractError):
        riemannian_chirality_operator(rep, candidate=rep.gammas[1])


def test_dirac_flat_coefficients(strip):
    rep = build_rep(2)
    dirac = dirac_system(rep, strip)
    A, C = dirac.coeff_at(0.2, np.array([[0.4]]))
    assert np.allclose(A[0, 0], -rep.gammas[0])
    assert np.allclose(A[0, 1], rep.gammas[1])
    assert np.allclose(C, 0.0)
    assert system.check_symmetric(dirac).verdict


def test_dirac_symbol_squares_to_minus_norm(strip):
    rep = build_rep(2)
    dirac = dirac_system(rep, strip)
    rng = np.random.default_rng(0)
    for _ in range(5):
        xi = rng.standard_normal(2)
        sq = dirac.symbol(0.1, [0.5], xi) @ dirac.symbol(0.1, [0.5], xi)
        g_inv_norm = -xi[0] ** 2 + xi[1] ** 2
        assert np.allclose(sq, -g_inv_norm * np.eye(2), atol=1e-12)


def test_dirac_nowhere_characteristic_curved(curved_strip):
    rep = build_rep(2)
    dirac = dirac_system(rep, curved_strip)
    assert system.constant_characteristic(dirac) == (True, 0)


def test_dirac_normalized_metric_positive(curved_strip):
    rep = build_rep(2)
    dirac = dirac_system(rep, curved_strip)
    norm = system.beta_normalize(dirac)
    assert norm.metric_positive
    _, xs = curved_strip.sample_interior(8)
    for G in norm.metric_at(0.3, xs[::7]):
        assert np.min(np.linalg.eigvalsh(G)) > 0


def test_gamma_of_vector_unit_square(curved_strip):
    rep = build_rep(2)
    q = geometry.BoundaryPoint(0.25, geometry.RIGHT, [1.0])
    n_vec = geometry.normal_vector(curved_strip, q)
    gn = gamma_of_vector(rep, curved_strip, q.t, q.x, n_vec)
    assert np.linalg.norm(gn @ gn + np.eye(2)) < 1e-12  # γ(n)² = −Id for unit n


def test_dirac_requires_matching_dimension(strip):
    with pytest.raises(ContractError):
        dirac_system(build_rep(3), strip)


def test_dirac_2plus1_on_flat_chart():
    chart = geometry.minkowski_strip((0.0, 1.0), (1.0, 1.0))
    rep = build_rep(3)
    dirac = dirac_system(rep, chart)
    assert system.check_symmetric(dirac).verdict
    assert system.constant_characteristic(dirac) == (True, 0)


SINE_BETA = {"profile": "sine", "base": 1.2, "amplitude": 0.2, "waves": 1, "waves_t": 1.0}


@pytest.mark.parametrize("chart, builds", [
    (geometry.minkowski_strip((0.0, 1.0), (1.0, 1.0)), True),
    (geometry.ultrastatic((0.0, 1.0), (1.0,), eps=0.3), True),
    (geometry.named_profile_chart((0.0, 0.4), (1.0,), beta=SINE_BETA), False),
    (geometry.ultrastatic((0.0, 1.0), (1.0, 1.0), eps=0.25), False),
], ids=["flat_2+1", "ultrastatic_1+1", "sine_beta_in_time_1+1", "ultrastatic_2+1"])
def test_dirac_builds_where_the_spin_connection_vanishes(chart, builds):
    # flat charts and static 1+1-D charts; any other chart is refused
    rep = build_rep(chart.dim_space + 1)
    if builds:
        assert dirac_system(rep, chart).fiber_rank == rep.rank
    else:
        with pytest.raises(ContractError, match="spin connection"):
            dirac_system(rep, chart)
