import numpy as np
import pytest

from friedrichs import boundary, clifford, geometry, reduction, solver, system
from friedrichs.boundary import adjoint_boundary_space, admissibility, boundary_symbol
from friedrichs.errors import UnsupportedDimensionError
from friedrichs.linalg import eigh_pencil, kernel, Subspace


@pytest.fixture
def dirac(strip):
    rep = clifford.build_rep(2)
    return rep, clifford.dirac_system(rep, strip)


@pytest.fixture
def wave(strip):
    prob = reduction.SecondOrderProblem("normally_hyperbolic", strip, k=1)
    return reduction.wave_to_first_order(prob)


@pytest.fixture
def kg(strip):
    prob = reduction.SecondOrderProblem("klein_gordon", strip, k=1, mass=1.0)
    return reduction.kg_to_first_order(prob)


def test_lorentzian_mit_both_signs_admissible(dirac):
    rep, sys_ = dirac
    for sign in (-1, 1):
        r = admissibility(sys_, boundary.mit_bag(rep, sign), n_time=4)
        assert r.admissible
        assert abs(r.min_form_eigenvalue) < 1e-10  # boundary form vanishes on B


def test_chirality_both_signs_admissible(dirac):
    rep, sys_ = dirac
    for sign in (-1, 1):
        assert admissibility(sys_, boundary.chirality(rep, sign), n_time=4).admissible


def test_riemannian_chirality_both_signs_admissible(dirac):
    rep, sys_ = dirac
    for sign in (-1, 1):
        assert admissibility(sys_, boundary.riemannian_chirality(rep, sign),
                             n_time=4).admissible


def test_riemannian_mit_minus_admissible_plus_not(dirac):
    rep, sys_ = dirac
    assert admissibility(sys_, boundary.riemannian_mit(rep, -1), n_time=4).admissible
    r = admissibility(sys_, boundary.riemannian_mit(rep, +1), n_time=4)
    assert not r.admissible
    assert r.witness is not None
    assert r.witness_form_value < -1e-6


def test_riemannian_mit_verdicts_on_curved_chart(curved_strip):
    rep = clifford.build_rep(2)
    sys_ = clifford.dirac_system(rep, curved_strip)
    assert admissibility(sys_, boundary.riemannian_mit(rep, -1), n_time=4).admissible
    assert not admissibility(sys_, boundary.riemannian_mit(rep, +1), n_time=4).admissible


def test_chirality_unsupported_in_odd_spacetime():
    chart = geometry.minkowski_strip((0.0, 1.0), (1.0, 1.0))
    rep = clifford.build_rep(3)
    with pytest.raises(UnsupportedDimensionError):
        boundary.chirality(rep)


def test_neumann_like_admissible(wave):
    r = admissibility(wave, boundary.neumann_like(wave.layout), n_time=4)
    assert r.admissible
    assert r.rank_B == 2  # (n+1)k with n=1, k=1
    assert r.nonneg_count == 2


def test_neumann_kernel_rank_two_space_dims():
    chart = geometry.minkowski_strip((0.0, 1.0), (1.0, 1.0))
    prob = reduction.SecondOrderProblem("normally_hyperbolic", chart, k=1)
    wave2 = reduction.wave_to_first_order(prob)
    nl = boundary.neumann_like(wave2.layout)
    q = geometry.boundary_points(chart, (0, 1), n_time=1, n_tang=2)[0]
    assert nl.kernel_space(chart, q).rank == 3  # (n+1)k = 3


def test_transparent_form_value_matches_closed_form(wave, strip):
    b = 2.0
    bc = boundary.transparent(b, wave.layout)
    q = geometry.BoundaryPoint(0.4, geometry.RIGHT, [1.0])
    B = bc.kernel_space(strip, q)
    sn = boundary_symbol(wave, q)
    G = wave.metric_at(q.t, q.x[None, :])[0]
    rng = np.random.default_rng(0)
    for _ in range(4):
        v = B.basis @ (rng.standard_normal(B.rank) + 1j * rng.standard_normal(B.rank))
        form = np.real(v.conj() @ G @ sn @ v)
        n_contract = v[1]  # n⌟X₂ at the right face of the flat strip
        assert form == pytest.approx((2.0 / b) * abs(n_contract) ** 2, abs=1e-10)


def test_transparent_admissible_iff_nonneg(wave):
    assert admissibility(wave, boundary.transparent(0.5, wave.layout), n_time=4).admissible
    assert admissibility(wave, boundary.transparent(0.0, wave.layout), n_time=4).admissible
    assert not admissibility(wave, boundary.transparent(-0.5, wave.layout), n_time=4).admissible


def test_robin_dirichlet_kernel(kg, strip):
    bc = boundary.robin(0.0, 1.0, kg.layout)
    q = geometry.BoundaryPoint(0.2, geometry.LEFT, [0.0])
    B = bc.kernel_space(strip, q)
    assert B.rank == 2
    assert np.max(np.abs(B.basis[0])) < 1e-12  # first component forced to zero


def test_robin_verdicts(kg):
    for a, b, expect in [(1.0, 1.0, True), (2.0, 0.5, True), (-1.0, -2.0, True),
                         (0.0, 1.0, True), (1.0, 0.0, True),
                         (1.0, -1.0, False), (-0.5, 1.0, False)]:
        r = admissibility(kg, boundary.robin(a, b, kg.layout), n_time=4)
        assert r.admissible == expect, (a, b)
        if not expect:
            assert r.witness_form_value < -1e-6


def test_robin_reaction_diffusion(strip):
    prob = reduction.SecondOrderProblem("reaction_diffusion", strip, k=1)
    rd = reduction.reaction_diffusion_to_first_order(prob, 1.0)
    assert admissibility(rd, boundary.robin(1.0, 1.0, rd.layout), n_time=4).admissible
    assert not admissibility(rd, boundary.robin(1.0, -1.0, rd.layout), n_time=4).admissible


def test_rank_plus_negative_count_fills_fiber(dirac, wave):
    rep, dsys = dirac
    cases = [(dsys, boundary.mit_bag(rep, -1)),
             (wave, boundary.neumann_like(wave.layout)),
             (wave, boundary.transparent(1.0, wave.layout))]
    for sys_, bc in cases:
        r = admissibility(sys_, bc, n_time=4)
        spec = r.spectra[geometry.RIGHT]
        n_neg = int(np.sum(spec < -1e-9 * max(1, np.max(np.abs(spec)))))
        assert r.rank_B + n_neg == sys_.fiber_rank


@pytest.mark.parametrize("case", ["dirac_mit", "wave_neumann", "heat_robin"])
def test_admissibility_evaluates_each_sampled_point_once(case, dirac, wave, strip, monkeypatch):
    # one coeff_at and one metric_at per point: σ(n♭), the form of (ii) and
    # the count of (iii) read the same tables
    rep, dsys = dirac
    heat = reduction.reaction_diffusion_to_first_order(
        reduction.SecondOrderProblem("reaction_diffusion", strip, k=1), 1.0)
    sys_, bc = {"dirac_mit": (dsys, boundary.mit_bag(rep, -1)),
                "wave_neumann": (wave, boundary.neumann_like(wave.layout)),
                "heat_robin": (heat, boundary.robin(1.0, 1.0, heat.layout))}[case]
    sys_.time_sign                          # cached before counting
    calls = []
    for name in ("coeff_at", "metric_at"):
        monkeypatch.setattr(sys_, name, lambda *args, fn=getattr(sys_, name), name=name:
                            calls.append(name) or fn(*args))
    assert admissibility(sys_, bc, n_time=8).admissible
    assert sorted(calls) == ["coeff_at"] * 16 + ["metric_at"] * 16     # 8 times × 2 faces


def test_kernel_of_symbol_inside_boundary_space(wave, strip):
    bc = boundary.neumann_like(wave.layout)
    for q in geometry.all_boundary_points(strip, n_time=4):
        sn = boundary_symbol(wave, q)
        ker = kernel(sn)
        B = bc.kernel_space(strip, q)
        proj = B.basis @ B.basis.conj().T
        assert np.linalg.norm(proj @ ker.basis - ker.basis) < 1e-9


def test_adjoint_space_spectral_oracle(dirac, strip):
    # invertible σ(n♭): B = nonnegative eigenspace ⇒ B† = nonpositive eigenspace
    rep, sys_ = dirac
    q = geometry.BoundaryPoint(0.3, geometry.RIGHT, [1.0])
    sn = boundary_symbol(sys_, q)
    P = sys_.positive_metric_at(q.t, q.x[None, :])[0]
    A, _ = sys_.coeff_at(q.t, q.x[None, :])
    M = np.linalg.solve(A[0, 0], sn)
    lam, V = eigh_pencil(P @ M, P)
    B_plus = Subspace(np.linalg.qr(V[:, lam >= 0])[0])
    bc = boundary.custom_bc(np.eye(2) - B_plus.basis @ B_plus.basis.conj().T)
    bdag = adjoint_boundary_space(sys_, bc, q)
    neg_space = Subspace(np.linalg.qr(V[:, lam < 0])[0])
    overlap = neg_space.basis.conj().T @ bdag.basis
    assert bdag.rank == neg_space.rank
    assert np.linalg.norm(np.abs(np.linalg.svd(overlap, compute_uv=False)) - 1.0) < 1e-9


def test_adjoint_space_wave_contains_kernel(wave, strip):
    bc = boundary.neumann_like(wave.layout)
    q = geometry.BoundaryPoint(0.6, geometry.LEFT, [0.0])
    bdag = adjoint_boundary_space(wave, bc, q)
    ker = kernel(boundary_symbol(wave, q))
    proj = bdag.basis @ bdag.basis.conj().T
    assert np.linalg.norm(proj @ ker.basis - ker.basis) < 1e-9
    B = bc.kernel_space(strip, q)
    projB = B.basis @ B.basis.conj().T
    assert np.linalg.norm(projB @ ker.basis - ker.basis) < 1e-9


def test_adjoint_space_dimension_and_annihilation(dirac, wave, kg, strip):
    rep, dsys = dirac
    cases = [(dsys, boundary.mit_bag(rep, -1)),
             (dsys, boundary.riemannian_mit(rep, -1)),
             (wave, boundary.neumann_like(wave.layout)),
             (wave, boundary.transparent(1.0, wave.layout)),
             (kg, boundary.robin(1.0, 1.0, kg.layout))]
    for sys_, bc in cases:
        rep_adm = admissibility(sys_, bc, n_time=4)
        assert rep_adm.admissible
        for face in strip.faces():
            q = geometry.BoundaryPoint(0.45, face, [strip.face_position(face)])
            bdag = adjoint_boundary_space(sys_, bc, q)
            assert bdag.rank == rep_adm.nonneg_count
            B = bc.kernel_space(strip, q)
            sn = boundary_symbol(sys_, q)
            G = sys_.metric_at(q.t, q.x[None, :])[0]
            pairing = bdag.basis.conj().T @ G @ sn @ B.basis
            assert np.max(np.abs(pairing)) < 1e-9


def test_form_nonpositive_on_adjoint_space(dirac, wave, strip):
    rep, dsys = dirac
    for sys_, bc in [(dsys, boundary.mit_bag(rep, -1)),
                     (wave, boundary.transparent(1.0, wave.layout))]:
        q = geometry.BoundaryPoint(0.5, geometry.RIGHT, [1.0])
        bdag = adjoint_boundary_space(sys_, bc, q)
        sn = boundary_symbol(sys_, q)
        G = sys_.metric_at(q.t, q.x[None, :])[0]
        F = G @ sn
        restricted = bdag.basis.conj().T @ (0.5 * (F + F.conj().T)) @ bdag.basis
        assert np.max(np.linalg.eigvalsh(restricted)) < 1e-9


def test_witness_absent_for_mit(dirac, strip):
    rep, sys_ = dirac
    assert admissibility(sys_, boundary.mit_bag(rep, -1), faces=[geometry.LEFT]).witness is None


def test_witness_present_for_riemannian_mit_plus(dirac, strip):
    # the Minkowski strip is static and flat: the form at one point of the
    # face is its form at every sampled point
    rep, sys_ = dirac
    q = geometry.BoundaryPoint(0.2, geometry.LEFT, [0.0])
    v = admissibility(sys_, boundary.riemannian_mit(rep, +1), faces=[geometry.LEFT]).witness
    assert v is not None
    sn = boundary_symbol(sys_, q)
    G = sys_.metric_at(q.t, q.x[None, :])[0]
    assert np.real(v.conj() @ G @ sn @ v) < -1e-6


def test_witness_on_full_negative_eigenspace(wave, strip):
    # custom B = strictly negative eigenspace: the form is negative definite there
    q = geometry.BoundaryPoint(0.2, geometry.RIGHT, [1.0])
    sn = boundary_symbol(wave, q)
    G = wave.metric_at(q.t, q.x[None, :])[0]
    lam, V = eigh_pencil(0.5 * ((G @ sn) + (G @ sn).conj().T), G)
    neg = Subspace(np.linalg.qr(V[:, lam < -1e-9])[0])
    bc = boundary.custom_bc(np.eye(3) - neg.basis @ neg.basis.conj().T)
    assert admissibility(wave, bc, faces=[geometry.RIGHT]).witness is not None


def test_time_reversed_transport_is_vetted_by_its_literal_form(strip):
    # reversing time turns the transport's inflow face into its outflow face;
    # the reversed system carries the flip in its fiber metric −G (s* = +1,
    # not positive), so its literal form accepts the reversed run's
    # conditions and refuses the forward ones
    rev = solver.time_reversed(system.advection_system(strip), strip.t_range)
    assert rev.time_sign == 1 and not rev.metric_positive
    verdicts = {(face, bc.name): admissibility(rev, bc, n_time=3, faces=[face]).admissible
                for face in (geometry.LEFT, geometry.RIGHT)
                for bc in (boundary.no_condition(1), boundary.zero_trace(1))}
    assert verdicts == {(geometry.LEFT, "no_condition"): True,
                        (geometry.LEFT, "zero_trace"): False,
                        (geometry.RIGHT, "no_condition"): False,
                        (geometry.RIGHT, "zero_trace"): True}
    literal = admissibility(rev, boundary.no_condition(1), n_time=3, faces=[geometry.RIGHT])
    assert not literal.semidefinite and literal.min_form_eigenvalue == pytest.approx(-1.0)


def test_mit_rank_is_half_fiber_rank_3plus1():
    # brute-force eigencount in 3+1 dimensions: the boundary space of the MIT
    # projector has rank N/2 = 2 (not the printed 2^([n/2]-1) = 1)
    chart = geometry.minkowski_strip((0.0, 1.0), (1.0, 1.0, 1.0))
    rep = clifford.build_rep(4)
    sys_ = clifford.dirac_system(rep, chart)
    bc = boundary.mit_bag(rep, -1)
    q = geometry.boundary_points(chart, (0, 1), n_time=1, n_tang=1)[0]
    B = bc.kernel_space(chart, q)
    assert B.rank == rep.rank // 2 == 2
    spec = admissibility(sys_, bc, n_time=1, n_tang=1, faces=[(0, 1)]).spectra[(0, 1)]
    assert int(np.sum(spec >= -1e-9)) == 2


def test_constant_characteristic_guard(strip):
    # a symbol whose boundary kernel dimension jumps across faces
    def coeff(t, xs):
        m = xs.shape[0]
        A = np.zeros((m, 2, 2, 2), dtype=complex)
        A[:, 0] = np.eye(2)
        A[:, 1, 0, 0] = xs[:, 0]          # rank of σ(n♭) drops at x = 0
        A[:, 1, 1, 1] = 1.0
        return A, np.zeros((m, 2, 2), dtype=complex)

    sys_ = system.FriedrichsSystem(
        strip, 2, coeff, lambda t, xs: np.broadcast_to(np.eye(2), (xs.shape[0], 2, 2)),
        metric_positive=True)
    r = admissibility(sys_, boundary.custom_bc(np.zeros((2, 2))), n_time=3)
    assert not r.admissible
    assert "constant-characteristic" in (r.cause or "")


def test_rank_one_condition_on_an_all_outgoing_face_is_refused(strip):
    # σ(dt) = [[1, −2], [−2, 5]], σ(dx) = diag(0.1, 0.3), G = I: both speeds
    # 0.4 ± √0.13 are positive, so the right face needs no condition and the
    # left face prescribes both characteristics
    sys_ = system.constant_system(strip, [[[1.0, -2.0], [-2.0, 5.0]], np.diag([0.1, 0.3])],
                                  None)
    speeds = 0.4 + np.array([-1.0, 1.0]) * np.sqrt(0.13)
    right = admissibility(sys_, boundary.custom_bc(np.diag([1.0, 0.0])),
                          faces=[geometry.RIGHT])
    assert not right.admissible
    assert (right.rank_B, right.nonneg_count) == (1, 2)
    assert right.spectra[geometry.RIGHT] == pytest.approx(speeds, abs=1e-12)
    left = admissibility(sys_, boundary.zero_trace(2), faces=[geometry.LEFT])
    assert left.admissible
    assert left.spectra[geometry.LEFT] == pytest.approx(-speeds[::-1], abs=1e-12)


def family_charts():
    sine_beta = {"profile": "sine", "base": 1.2, "amplitude": 0.2, "waves": 1}
    return [geometry.minkowski_strip((0.0, 1.0), (1.0,)),
            geometry.ultrastatic((0.0, 1.0), (1.0,), eps=0.3),
            geometry.named_profile_chart((0.0, 1.0), (1.0,), beta=sine_beta)]


@pytest.mark.parametrize("chart", family_charts(), ids=["flat", "ultrastatic", "sine_beta"])
def test_each_condition_family_is_one_formula(chart):
    # the contraction conditions are one another's special cases bitwise, and
    # each spinor G_B is Id − ½(Id + sign·X) with X of the module docstring
    assert chart.time_independent
    points = [q for face in chart.faces() for q in geometry.boundary_points(chart, face, 3, 1)]
    kinds = [("normally_hyperbolic", reduction.wave_to_first_order),
             ("klein_gordon", reduction.kg_to_first_order),
             ("reaction_diffusion", reduction.reaction_diffusion_to_first_order)]
    layouts = [build(reduction.SecondOrderProblem(kind, chart, k=k)).layout
               for kind, build in kinds for k in (1, 2)]
    for layout in layouts:
        for q in points:
            for b in (0.0, 0.7, -1.3):
                assert np.array_equal(boundary.transparent(b, layout).matrix(chart, q),
                                      boundary.robin(-1.0, -b, layout).matrix(chart, q))
            assert np.array_equal(boundary.neumann_like(layout).matrix(chart, q),
                                  boundary.transparent(0.0, layout).matrix(chart, q))
            assert np.array_equal(boundary.dirichlet(layout).matrix(chart, q),
                                  boundary.robin(0.0, 1.0, layout).matrix(chart, q))
    rep = clifford.build_rep(2)
    G, GR = clifford.chirality_operator(rep), clifford.riemannian_chirality_operator(rep)
    for q in points:
        gn = clifford.gamma_of_vector(rep, chart, q.t, q.x, geometry.normal_vector(chart, q))
        gt = clifford.gamma_time(rep, chart, q.t, q.x) / chart.beta_at(q.t, q.x[None, :])[0]
        X = {boundary.mit_bag: 1j * gn, boundary.chirality: gn @ G,
             boundary.riemannian_mit: gn @ gt, boundary.riemannian_chirality: 1j * gn @ gt @ GR}
        for builder, x in X.items():
            for sign in (-1, 1):
                expected = np.eye(rep.rank) - 0.5 * (np.eye(rep.rank) + sign * x)
                assert np.allclose(builder(rep, sign).matrix(chart, q), expected,
                                   rtol=0.0, atol=1e-14)
