"""The benchmark's contract with the package, checked in the main suite.

``bench/tracing.py`` wraps package functions under the names their callers
look up, so a renamed or moved function would silently drop out of the
traced numbers.  One tiny traced solve checks the counts the benchmark
relies on, and that every wrapped name is restored afterwards.  The configs
the benchmark's ``config_sweep`` runs must pass the CLI's config reader.
"""

import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))

import studies  # noqa: E402
import tracing  # noqa: E402
from conftest import block_length, short_blocks  # noqa: E402

from friedrichs import boundary, cli, geometry, solver, system  # noqa: E402


def wrapped_names():
    """(owner id, attribute) -> the object now found under that name."""
    return {(id(owner), attr): tracing._get(owner, attr)
            for owners, attr, _, _ in tracing._hooks() for owner in owners}


def test_tracer_counts_a_solve_and_restores_every_name():
    chart = geometry.minkowski_strip((0.0, 0.25), (1.0,))
    adv = system.advection_system(chart)
    bcs = {geometry.LEFT: boundary.zero_trace(1), geometry.RIGHT: boundary.no_condition(1)}
    before = wrapped_names()
    tracer = tracing.Tracer()
    with tracer.installed("study"):
        during = wrapped_names()
        grid = solver.make_grid(adv, 16)
        fld = solver.solve(adv, bcs, h=lambda xs: np.exp(-50 * (xs[:, None] - 0.5) ** 2),
                           grid=grid)
        solver.energy_trace(fld, adv)
    after = wrapped_names()
    assert all(during[key] is not fn for key, fn in before.items())
    assert all(after[key] is fn for key, fn in before.items())
    counts = tracer.counts["study"]
    assert counts["solver.solve.cell_steps"] == grid.nx * grid.nt > 0
    assert counts["system.coeff_at.calls"] > 0
    assert counts["solver.energy_trace.calls"] == 1


def test_support_diagnostics_take_one_norm_table_each():
    # each diagnostic reads every level's support from one pointwise norm
    # table, so the count stays 2 whatever nt is; a per-level scan reads
    # 2·(nt+1)
    chart = geometry.minkowski_strip((0.0, 0.5), (1.0,))
    adv = system.advection_system(chart)
    bcs = {geometry.LEFT: boundary.zero_trace(1), geometry.RIGHT: boundary.no_condition(1)}
    grid = solver.make_grid(adv, 32)

    def f(t, xs2):
        return np.exp(-50 * (xs2 - 0.4) ** 2 - 50 * (t - 0.25) ** 2).astype(complex)

    fld = solver.solve(adv, bcs, f=f, grid=grid)
    tracer = tracing.Tracer()
    with tracer.installed("study"):
        solver.support_growth_margins(fld, 1.0)
        solver.causal_support_ok(fld, f, 1.0)
    counts = tracer.counts["study"]
    assert grid.nt > 1
    assert counts["solver.support.calls"] == 2
    assert counts["solver.pointwise_norm.calls"] == 2


def test_green_study_evaluates_each_source_once():
    # G⁺ and G⁻ each build one forcing table and step from it (G⁻ reads it
    # backwards); the residual and the causal check read the table the field
    # carries
    study = studies.GreenCausal(np.random.default_rng(0))
    counts = {"plus": 0, "minus": 0}

    def counted(f, key):
        def wrapped(t, xs2):
            counts[key] += 1
            return f(t, xs2)

        return wrapped

    study.plus_f, study.minus_f = counted(study.plus_f, "plus"), counted(study.minus_f, "minus")
    result = study.study()
    assert studies.GreenCausal.check(result) == []
    nt = study.adv_grid.nt
    assert counts == {"plus": nt + 1, "minus": nt + 1} == {"plus": 513, "minus": 513}


@pytest.mark.parametrize("seed", range(10))
def test_config_sweep_configs_pass_the_reader(seed):
    # the jittered configs of the benchmark's config_sweep, drawn in its order
    configs = Path(__file__).resolve().parent.parent / "configs"
    rng = np.random.default_rng(seed)
    for name in sorted({run[0] for run in studies.CLI_RUNS}):
        cli.read_config(studies.jitter_profiles(json.loads((configs / name).read_text()), rng))


#: (nx, nt) of every grid a workload's study solves on, from its seed-0 set-up:
#: the benchmark times this much work, whatever sizes Δt
BENCH_GRIDS = {"static_solves": [(1024, 2048), (2048, 1229)],
               "timedep_solves": [(128, 154), (256, 154)],
               "green_causal": [(256, 512), (256, 512), (256, 512)]}


@pytest.mark.parametrize("name", sorted(BENCH_GRIDS))
def test_benchmark_workloads_keep_their_grid_sizes(name, tmp_path):
    workload = studies.build(name, 0, tmp_path, Path(studies.__file__).resolve().parent.parent)
    assert [(grid.nx, grid.nt) for grid in workload.grids] == BENCH_GRIDS[name]


def count_evaluations(monkeypatch, sys_):
    """A Counter of the evaluations of sys_'s coefficients and of the
    conormals and G_B made from now on, under the names the benchmark traces."""
    counts = Counter()
    coeff_at, matrix = sys_.coeff_at, boundary.BoundaryCondition.matrix
    outward_normal = geometry.outward_normal
    monkeypatch.setattr(sys_, "coeff_at", lambda t, xs: counts.update(
        ["coeff_at"]) or coeff_at(t, xs))
    monkeypatch.setattr(boundary.BoundaryCondition, "matrix", lambda self, chart, q: counts.update(
        ["bc_matrix"]) or matrix(self, chart, q))
    monkeypatch.setattr(geometry, "outward_normal", lambda chart, q: counts.update(
        ["outward_normal"]) or outward_normal(chart, q))
    return counts


def evaluations_per_phase(monkeypatch, sys_, bcs, h, grid):
    """The evaluations of the first admissibility sampling, of ``solve``,
    whose vetting then samples nothing, and of ``energy_trace``; the refusal
    policy certifies (S) once per system, before the count (an empty face
    map vets no face), and a repeat of the vetting evaluates nothing."""
    bc_map = boundary.as_bc_map(sys_, bcs)
    solver.enforce_admissibility(sys_, {})
    counts = count_evaluations(monkeypatch, sys_)
    solver.enforce_admissibility(sys_, bc_map)
    admissibility = dict(counts)
    counts.clear()
    solver.enforce_admissibility(sys_, bc_map)
    assert not counts
    fld = solver.solve(sys_, bcs, h=h, grid=grid)
    solve = dict(counts)
    counts.clear()
    trace = solver.energy_trace(fld, sys_)
    assert not sys_.static and np.isfinite(trace.energy).all()
    return admissibility, solve, dict(counts)


def test_time_dependent_wave_solve_and_trace_evaluate_each_block_once(monkeypatch):
    # the explicit solve evaluates the coefficients once per block of levels
    # it steps, and each face's conormal and G_B once per block; energy_trace,
    # the one energy path, the coefficients and each face's conormal once per
    # block of the levels it traces; the admissibility sampling each once per
    # face
    study = studies.TimedepSolves(np.random.default_rng(0))
    wave, bcs = study.wave, study.neumann
    grid = solver.make_grid(wave, 32)
    short_blocks(monkeypatch, grid, "explicit")
    h = studies.first_component(wave, grid.xs, studies.bump(grid.xs, 0.5, 0.2))
    admissibility, solve, trace = evaluations_per_phase(monkeypatch, wave, bcs, h, grid)
    block = block_length(wave, grid, "explicit")
    steps, levels = -(-grid.nt // block), -(-(grid.nt + 1) // block_length(wave, grid, "energy"))
    assert grid.nt > 2 * block
    assert admissibility == {"coeff_at": 2, "outward_normal": 2, "bc_matrix": 2}
    assert solve == {"coeff_at": steps, "outward_normal": 2 * steps, "bc_matrix": 2 * steps}
    assert trace == {"coeff_at": levels, "outward_normal": 2 * levels}


def test_time_dependent_heat_solve_takes_each_faces_condition_once_per_block(monkeypatch):
    # the implicit solve evaluates the coefficients and each face's G_B once
    # per block of the levels it steps (it still assembles and row-reduces
    # every level), and needs no conormal
    study = studies.TimedepSolves(np.random.default_rng(0))
    heat, bcs = study.heat, study.robin
    grid = solver.make_grid(heat, 64)
    short_blocks(monkeypatch, grid, "implicit")
    h = studies.state_with_gradient(heat, grid.xs, studies.bump(grid.xs, 0.5, 0.3))
    admissibility, solve, trace = evaluations_per_phase(monkeypatch, heat, bcs, h, grid)
    block = block_length(heat, grid, "implicit")
    steps, levels = -(-grid.nt // block), -(-(grid.nt + 1) // block_length(heat, grid, "energy"))
    assert grid.nt > 2 * block
    assert admissibility == {"coeff_at": 2, "outward_normal": 2, "bc_matrix": 2}
    assert solve == {"coeff_at": steps, "bc_matrix": 2 * steps}
    assert trace == {"coeff_at": levels, "outward_normal": 2 * levels}


def test_a_time_dependent_solve_holds_its_transients_to_one_block_of_rows():
    # the timedep_solves wave over 64 levels at nx 1024: blocks sized in
    # rows keep the transient tables to a few levels (about 7.5 MiB in all,
    # the 1.6 MiB field included), where 16-level blocks peaked at 33.6 MiB
    import tracemalloc

    study = studies.TimedepSolves(np.random.default_rng(0))
    wave, bcs = study.wave, study.neumann
    dt = solver.make_grid(wave, 1024).dt
    grid, warm = (solver.make_grid(wave, 1024, t_final=nt * dt, nt=nt) for nt in (64, 1))
    h = studies.first_component(wave, grid.xs, studies.bump(grid.xs, 0.5, 0.2))
    solver.solve(wave, bcs, h=h, grid=warm)     # certifies (S) once per system
    tracemalloc.start()
    try:
        fld = solver.solve(wave, bcs, h=h, grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fld.values.shape == (65, 1024, 3) and np.isfinite(fld.values).all()
    assert peak <= 16 * 2 ** 20


def test_real_benchmark_fields_are_float64():
    # the real problems the benchmark solves step in real arithmetic; Dirac +
    # MIT, whose G_B = ½(Id − iγ(n)) is complex, stays complex
    rng = np.random.default_rng(0)
    static, timedep, green = (cls(rng) for cls in (
        studies.StaticSolves, studies.TimedepSolves, studies.GreenCausal))
    fields = {
        "static heat": solver.solve(static.heat, static.robin, h=static.heat_h,
                                    grid=static.heat_grid),
        "static dirac": solver.solve(static.dirac, static.mit, h=static.dirac_h,
                                     grid=static.dirac_grid),
        "timedep wave": solver.solve(timedep.wave, timedep.neumann, h=timedep.wave_h,
                                     grid=timedep.wave_grid),
        "timedep heat": solver.solve(timedep.heat, timedep.robin, h=timedep.heat_h,
                                     grid=timedep.heat_grid),
        "green plus": solver.green_plus(green.adv, green.plus_bcs, green.plus_f, green.adv_grid),
        "green minus": solver.green_minus(green.adv, green.minus_bcs, green.minus_f,
                                          green.adv_grid),
        "green dirac": solver.solve(green.dirac, green.mit, h=green.dirac_h,
                                    grid=green.dirac_grid),
    }
    dtypes = {name: fld.values.dtype for name, fld in fields.items()}
    assert dtypes == {name: np.complex128 if "dirac" in name else np.float64 for name in fields}
