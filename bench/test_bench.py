"""Self-checks of the benchmark: its tracer's counts and spans, and its output.

    python3 -m pytest bench

Each workload is set up twice with different seeds; each copy runs an
untraced warm-up and then one traced study, as a traced benchmark run does.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_package()

import studies  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def traced_copy(name, seed, workdir):
    tracer = tracing.Tracer()
    with tracer.installed("setup"):
        work = studies.build(name, seed, workdir, run.ROOT)
    assert work.check(work.study()) == []
    with tracer.installed(1):
        result = work.study()
    assert work.check(result) == []
    return work, tracer


@pytest.fixture(scope="module", params=sorted(studies.WORKLOADS))
def copies(request, tmp_path_factory):
    name = request.param
    return name, [traced_copy(name, seed, tmp_path_factory.mktemp(f"{name}-{seed}"))
                  for seed in (3, 4)]


def exact_counts(tracer, study):
    """Calls, rows and cell-steps; output bytes vary with the seed's numbers."""
    return {k: v for k, v in tracer.counts[study].items() if not k.endswith(".bytes")}


def test_two_traced_runs_count_the_same(copies):
    _, [(_, first), (_, second)] = copies
    for study in ("setup", 1):
        assert exact_counts(first, study) == exact_counts(second, study)
    assert exact_counts(first, 1)["solver.solve.cell_steps"] > 0


def test_cell_steps_match_the_study_grids(copies):
    name, [(work, tracer), _] = copies
    if not hasattr(work, "grids"):
        pytest.skip(f"{name} builds its grids inside the CLI")
    expected = sum(grid.nx * grid.nt for grid in work.grids)
    assert tracer.counts[1]["solver.solve.cell_steps"] == expected


def test_spans_nest_and_self_times_are_nonnegative(copies):
    _, [(_, tracer), _] = copies
    spans = tracer.spans
    assert spans
    for name, start, end, parent, study in spans:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _, p_study = spans[parent]
            assert p_start <= start and end <= p_end and study == p_study
    assert min(tracer.self_ns()) >= 0


def test_layer_metrics_are_the_declared_per_layer_metrics(copies):
    _, [(_, tracer), _] = copies
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(tracer.layer_metrics("setup", [1])) | {"trace.overhead_s"} == declared


def test_report_check_rejects_step_growth_above_one():
    check = studies.step_growth_at_most(1.0)
    assert check("energy ratio E(T)/E(0): 0.5\nmax per-step energy growth: 0.99\n") == []
    assert check("max per-step energy growth: 1.0000001\n")
    assert check("energy ratio E(T)/E(0): 0.5\n")


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_reports_every_declared_metric(trace, section):
    out = bench("--workload", "config_sweep", "--seed", "5", "--seconds", "0",
                "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1 + trace
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = bench("--workload", "static_solves", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
