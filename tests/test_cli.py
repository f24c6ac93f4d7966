import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import friedrichs
from friedrichs import boundary, cli, solver
from friedrichs.geometry import LEFT, RIGHT

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))

import studies  # noqa: E402


def run(tmp_path, cfg, command, extra=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    return cli.main([command, "--config", str(cfg_path), "--out", str(out), *extra]), out


DIRAC_MIT = {
    "chart": {"name": "minkowski_strip", "t_range": [0.0, 0.5], "lengths": [1.0]},
    "system": {"builder": "dirac"},
    "bc": {"name": "mit_bag", "params": {"sign": -1}},
    "grid": {"nx": 64, "cfl": 0.5},
    "task": {"initial": {"profile": "bump", "center": 0.5, "width": 0.25,
                         "component": 0}},
}


def test_check_dirac_mit_passes(tmp_path, capsys):
    code, out = run(tmp_path, DIRAC_MIT, "check")
    assert code == 0
    report = (out / "report.txt").read_text()
    assert "admissible: True" in report
    assert "config:" in report
    assert (out / "spectrum.csv").exists()


def test_check_kg_robin_counterexample(tmp_path):
    cfg = {
        "chart": {"name": "minkowski_strip", "t_range": [0.0, 0.5], "lengths": [1.0]},
        "system": {"builder": "kg_reduction", "params": {"k": 1, "mass": 1.0}},
        "bc": {"name": "robin", "params": {"a": 1.0, "b": -1.0}},
    }
    code, out = run(tmp_path, cfg, "check")
    assert code == 1
    report = (out / "report.txt").read_text()
    assert "admissible: False" in report
    assert "witness" in report


def test_check_unknown_builder_usage_error(tmp_path):
    cfg = dict(DIRAC_MIT, system={"builder": "marmot"})
    code, out = run(tmp_path, cfg, "check")
    assert code == 2
    assert not (out / "report.txt").exists()


def test_solve_outputs_and_determinism(tmp_path):
    code, out = run(tmp_path, DIRAC_MIT, "solve")
    assert code == 0
    energy1 = (out / "energy.csv").read_bytes()
    field1 = (out / "field.bin").read_bytes()
    code2, out2 = run(tmp_path / "again", DIRAC_MIT, "solve")
    assert code2 == 0
    assert (out2 / "energy.csv").read_bytes() == energy1
    assert (out2 / "field.bin").read_bytes() == field1
    header = energy1.decode().splitlines()[0]
    assert header == "t,E,flux"


def test_solve_refuses_non_admissible_without_force(tmp_path):
    cfg = {
        "chart": {"name": "minkowski_strip", "t_range": [0.0, 0.3], "lengths": [1.0]},
        "system": {"builder": "wave_reduction", "params": {"k": 1}},
        "bc": {"name": "transparent", "params": {"b": -0.5}},
        "grid": {"nx": 48},
        "task": {"initial": {"profile": "bump", "component": 0}},
    }
    code, out = run(tmp_path, cfg, "solve")
    assert code == 1
    assert not (out / "field.bin").exists()
    code_forced, out_forced = run(tmp_path / "forced", cfg, "solve", ("--force",))
    assert code_forced == 0
    assert "diagnostic" in (out_forced / "report.txt").read_text()


def test_green_task(tmp_path):
    cfg = {
        "chart": {"name": "minkowski_strip", "t_range": [0.0, 1.0], "lengths": [1.0]},
        "system": {"builder": "dirac"},
        "bc": {"name": "mit_bag", "params": {"sign": -1}},
        "grid": {"nx": 96},
        "task": {"source": {"profile": "bump", "center": 0.4, "width": 0.15,
                            "t_center": 0.45, "t_width": 0.15, "component": 0},
                 "direction": "+"},
    }
    code, out = run(tmp_path, cfg, "green")
    assert code == 0
    assert "residual=" in (out / "report.txt").read_text()


def test_green_minus_task(tmp_path):
    cfg = {
        "chart": {"name": "minkowski_strip", "t_range": [0.0, 1.0], "lengths": [1.0]},
        "system": {"builder": "advection"},
        "bc": {"left": {"name": "no_condition"}, "right": {"name": "zero_trace"}},
        "grid": {"nx": 128},
        "task": {"source": {"profile": "bump", "center": 0.5, "width": 0.12,
                            "t_center": 0.6, "t_width": 0.15, "component": 0},
                 "direction": "-"},
    }
    code, out = run(tmp_path, cfg, "green")
    assert code == 0
    assert "green -" in (out / "report.txt").read_text()


def test_converge_task(tmp_path):
    cfg = {
        "chart": {"name": "minkowski_strip", "t_range": [0.0, 0.5], "lengths": [1.0]},
        "task": {"case": "advection_sine", "grids": [32, 64, 128]},
    }
    code, out = run(tmp_path, cfg, "converge")
    assert code == 0
    rows = (out / "errors.csv").read_text().splitlines()
    assert rows[0] == "grid,error,order"
    assert len(rows) == 4


def test_converge_ignores_the_keys_its_case_does_not_read(tmp_path):
    # converge builds the system, conditions and initial data of its case:
    # task.initial and task.constrain_gradient pass the schema and are then
    # ignored, so even a component no wave state has changes no output
    base = {"chart": {"name": "minkowski_strip", "t_range": [0.0, 0.5], "lengths": [1.0]},
            "task": {"case": "wave_cosine", "grids": [16, 32]}}
    extra = copy.deepcopy(base)
    extra["task"].update(initial={"profile": "bump", "component": 7}, constrain_gradient=True)
    outputs = []
    for name, cfg in (("base", base), ("extra", extra)):
        code, out = run(tmp_path / name, cfg, "converge")
        assert code == 0
        digest, report = (out / "report.txt").read_bytes().split(b"\n", 1)
        assert digest.startswith(b"config: ")
        outputs.append(((out / "errors.csv").read_bytes(), report))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("chart", [
    {"name": "ultrastatic", "params": {"eps": 0.2}},
    {"name": "custom", "params": {"beta": {"profile": "sine", "base": 1.3, "amplitude": 0.2,
                                           "waves": 1, "waves_t": 1.0}}}])
def test_converge_refuses_a_chart_other_than_the_minkowski_strip(tmp_path, capsys, chart):
    # its closed-form solutions are the flat strip's: on any other chart the
    # errors it would report are the distance to another problem's solution
    cfg = {"chart": {**chart, "t_range": [0.0, 0.5], "lengths": [1.0]},
           "task": {"case": "wave_cosine", "grids": [16, 32]}}
    code, out = run(tmp_path, cfg, "converge")
    assert code == 2 and not (out / "errors.csv").exists()
    assert capsys.readouterr().err == (f"config error: converge needs the minkowski_strip "
                                       f"chart, got {chart['name']!r}\n")


def test_compat_task(tmp_path):
    cfg = {
        "chart": {"name": "minkowski_strip", "t_range": [0.0, 0.5], "lengths": [1.0]},
        "system": {"builder": "wave_reduction", "params": {"k": 1}},
        "bc": {"name": "robin", "params": {"a": 0.0, "b": 1.0}},
        "task": {"order": 2, "nx": 96,
                 "initial": {"profile": "bump", "center": 0.5, "width": 0.2,
                             "component": 0}},
    }
    code, out = run(tmp_path, cfg, "compat")
    assert code == 0
    report = (out / "report.txt").read_text()
    assert "PASS" in report


def test_compat_takes_one_condition_per_face(tmp_path):
    # advection's inflow face fixes the trace and its outflow face nothing:
    # order 0 holds for data that vanish at x = 0 and fails for 1 + sin 2πx,
    # which stands in for 1 + x (no profile is linear; both are 1 at x = 0)
    cfg = {
        "chart": {"name": "minkowski_strip", "t_range": [0.0, 0.5], "lengths": [1.0]},
        "system": {"builder": "advection"},
        "bc": {"left": {"name": "zero_trace"}, "right": {"name": "no_condition"}},
        "task": {"order": 0, "nx": 64, "initial": {"profile": "sine"}},
    }
    code, out = run(tmp_path / "vanishing", cfg, "compat")
    assert code == 0 and "-> PASS" in (out / "report.txt").read_text()
    assert (out / "residuals.csv").read_text() == "order,face,residual\n0,0,0\n0,1,0\n"
    cfg["task"]["initial"] = [{"profile": "cosine", "waves": 0.0}, {"profile": "sine"}]
    code, out = run(tmp_path / "one_plus", cfg, "compat")
    assert code == 1 and "-> FAIL" in (out / "report.txt").read_text()
    assert (out / "residuals.csv").read_text() == "order,face,residual\n0,0,1\n0,1,0\n"


def test_reduce_task(tmp_path):
    cfg = {
        "chart": {"name": "minkowski_strip", "t_range": [0.0, 1.0], "lengths": [1.0]},
        "system": {"builder": "kg_reduction", "params": {"k": 1, "mass": 2.0}},
    }
    code, out = run(tmp_path, cfg, "reduce")
    assert code == 0
    rows = (out / "coefficients.csv").read_text().splitlines()
    assert rows[0] == "t,x,matrix,row,col,re,im"
    assert len(rows) > 10


def test_reports_embed_digest(tmp_path):
    code, out = run(tmp_path, DIRAC_MIT, "check")
    digest = cli.config_digest(DIRAC_MIT)
    assert digest in (out / "report.txt").read_text()


def test_custom_system_config(tmp_path):
    cfg = {
        "chart": {"name": "minkowski_strip", "t_range": [0.0, 0.5], "lengths": [1.0]},
        "system": {"builder": "custom",
                   "params": {"A": [[[1.0]], [[1.0]]], "C": [[0.0]]}},
        "bc": {"left": {"name": "zero_trace"}, "right": {"name": "no_condition"}},
        "grid": {"nx": 32},
        "task": {"initial": {"profile": "bump", "component": 0}},
    }
    code, out = run(tmp_path, cfg, "solve")
    assert code == 0


GREEN_DIRAC = {
    "chart": {"name": "minkowski_strip", "t_range": [0.0, 1.0], "lengths": [1.0]},
    "system": {"builder": "dirac"},
    "bc": {"name": "mit_bag", "params": {"sign": -1}},
    "grid": {"nx": 64},
    "task": {"source": {"profile": "bump", "center": 0.4, "width": 0.15,
                        "t_center": 0.45, "t_width": 0.15, "component": 0}},
}

GREEN_ADVECTION_MINUS = {
    "chart": {"name": "minkowski_strip", "t_range": [0.0, 1.0], "lengths": [1.0]},
    "system": {"builder": "advection"},
    "bc": {"left": {"name": "no_condition"}, "right": {"name": "zero_trace"}},
    "grid": {"nx": 128},
    "task": {"source": {"profile": "bump", "center": 0.5, "width": 0.12,
                        "t_center": 0.6, "t_width": 0.15, "component": 0},
             "direction": "-"},
}


@pytest.mark.parametrize("cfg, command, extra, per_face", [
    (DIRAC_MIT, "solve", (), 1),
    (GREEN_DIRAC, "green", (), 1),
    (GREEN_ADVECTION_MINUS, "green", (), 1),
    (DIRAC_MIT, "solve", ("--force",), 0),
])
def test_one_admissibility_check_per_face(tmp_path, monkeypatch, cfg, command,
                                          extra, per_face):
    faces = Counter()
    real = boundary.admissibility

    def counting(*args, **kwargs):
        faces.update(kwargs.get("faces") or [LEFT, RIGHT])
        return real(*args, **kwargs)

    monkeypatch.setattr(boundary, "admissibility", counting)
    monkeypatch.setattr(solver, "admissibility", counting)
    code, _ = run(tmp_path, cfg, command, extra)
    assert code == 0
    assert faces == Counter({LEFT: per_face, RIGHT: per_face})


def test_green_minus_refusal_text(tmp_path, capsys):
    cfg = {
        "chart": {"name": "minkowski_strip", "t_range": [0.0, 1.0], "lengths": [1.0]},
        "system": {"builder": "wave_reduction", "params": {"k": 1}},
        "bc": {"name": "transparent", "params": {"b": 1.0}},
        "grid": {"nx": 32},
        "task": {"source": {"profile": "bump", "center": 0.5, "width": 0.2,
                            "t_center": 0.5, "t_width": 0.2, "component": 0},
                 "direction": "-"},
    }
    code, out = run(tmp_path, cfg, "green")
    assert code == 1
    assert not (out / "report.txt").exists()
    assert capsys.readouterr().out == (
        "refusing to run: bc 'transparent' not admissible on face (0, 0) "
        "(use --force for counterexample studies)\n"
        "admissible: False\n"
        "  (i)   rank constant: True  ranks={(0, 0): [2]}\n"
        "  (ii)  semidefinite:  False  min form eigenvalue -1.000e+00\n"
        "  (iii) rank B = 2, nonneg eigenvalues = 2: True\n"
        "  witness: [0.7071+0.j 0.7071+0.j 0.    +0.j]  form value -1.000e+00\n")


HEAT = json.loads((Path(__file__).parent.parent / "configs" /
                   "heat_dirichlet_solve.json").read_text())


def assert_config_error(capsys, code, out):
    captured = capsys.readouterr()
    assert code == 2
    assert not (out / "report.txt").exists()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
    return captured.err


def test_green_rejects_unknown_direction(tmp_path, capsys):
    cfg = copy.deepcopy(GREEN_ADVECTION_MINUS)
    cfg["task"]["direction"] = "backward"
    assert_config_error(capsys, *run(tmp_path, cfg, "green"))


@pytest.mark.parametrize("grid", [{"nx": 64, "cfl": -0.5}, {"nx": 0}, {"nx": 2.5},
                                  {"nx": True}])
def test_solve_rejects_bad_grid(tmp_path, capsys, grid):
    assert_config_error(capsys, *run(tmp_path, dict(DIRAC_MIT, grid=grid), "solve"))


def test_contract_error_is_a_config_error(tmp_path, capsys):
    # the retarded Green operator refuses a parabolic (implicit) system
    cfg = copy.deepcopy(HEAT)
    cfg["task"].update(direction="-", source=GREEN_DIRAC["task"]["source"])
    assert_config_error(capsys, *run(tmp_path, cfg, "green"))


def test_non_finite_solution_is_a_config_error(tmp_path, capsys):
    cfg = copy.deepcopy(HEAT)
    cfg["task"]["initial"]["amplitude"] = 1e308
    err = assert_config_error(capsys, *run(tmp_path, cfg, "solve"))
    assert err == "config error: solution is not finite at level m=0, t=0\n"


def test_non_finite_solve_as_a_process_prints_one_line(tmp_path):
    # the constrained gradient of the 1e308 bump overflows: numpy's warnings
    # about it must not reach stderr ahead of the one config error line
    cfg = copy.deepcopy(HEAT)
    cfg["task"]["initial"]["amplitude"] = 1e308
    cfg_path, out = tmp_path / "run.json", tmp_path / "out"
    cfg_path.write_text(json.dumps(cfg))
    src = str(Path(friedrichs.__file__).resolve().parent.parent)
    code = "import sys; from friedrichs.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", code, "solve", "--config", str(cfg_path), "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["config error: solution is not finite at level m=0, t=0"]
    assert not (out / "report.txt").exists()


def test_solve_marks_indefinite_energy(tmp_path):
    cfg = {
        "chart": {"name": "minkowski_strip", "t_range": [0.0, 1.0], "lengths": [1.0]},
        "system": {"builder": "kg_reduction", "params": {"k": 1, "mass": 1.0}},
        "bc": {"name": "dirichlet"},
        "grid": {"nx": 32},
        "task": {"initial": {"profile": "bump", "component": 0}},
    }
    mark = "E(t) is the indefinite fiber form"
    code, out = run(tmp_path / "kg", cfg, "solve")
    assert code == 0
    assert mark in (out / "report.txt").read_text()
    code, out = run(tmp_path / "heat", HEAT, "solve")
    assert code == 0
    assert mark not in (out / "report.txt").read_text()


CONFIGS = Path(__file__).parent.parent / "configs"


def shipped(name, key=None, value=None):
    """Shipped config ``name``, with the dotted ``key`` set to ``value``."""
    cfg = json.loads((CONFIGS / name).read_text())
    if key is not None:
        *parents, last = key.split(".")
        node = cfg
        for part in parents:
            node = node.setdefault(part, {})
        node[last] = value
    return cfg


def test_a_bc_map_that_leaves_out_a_face_exits_2(tmp_path, capsys):
    cfg = shipped("advection_green.json")
    del cfg["bc"]["right"]
    code, out = run(tmp_path, cfg, "green")
    assert code == 2
    assert not (out / "report.txt").exists()
    assert "missing boundary condition for faces [(0, 1)]" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["0", "3"])
@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")
                                        if "system" in json.loads(p.read_text())))
def test_check_and_reduce_certify_alike(tmp_path, name, seed):
    verdicts = {}
    for command, pattern in [("check", r"^(\w+): (True|False)"),
                             ("reduce", r"(\w+)=(True|False)")]:
        _, out = run(tmp_path / command, shipped(name), command, ("--seed", seed))
        found = dict(re.findall(pattern, (out / "report.txt").read_text(), re.M))
        verdicts[command] = {key: found[key] for key in ("symmetric", "hyperbolic",
                                                         "positive")}
    assert verdicts["check"] == verdicts["reduce"]


CUSTOM_CHART = {"name": "custom", "params": {"beta": {"profile": "sine", "amplitud": 0.3}}}

#: (shipped config, subcommand, dotted key, value it is set to, key path the
#: error names); a None key runs the config wrapped in a JSON list
PROBES = [
    ("dirac_mit_check.json", "solve", "grid.nX", 8, "grid.nX"),
    ("dirac_mit_check.json", "solve", "gird", {"nx": 8}, "gird"),
    ("dirac_mit_check.json", "check", "bc.params.sing", 1, "bc.params.sing"),
    ("dirac_mit_check.json", "check", "system.params.speed", 2.0, "system.params.speed"),
    ("heat_dirichlet_solve.json", "solve", "system.params.lamda", 2.0,
     "system.params.lamda"),
    ("kg_robin_check.json", "check", "bc.params.c", 1.0, "bc.params.c"),
    ("dirac_mit_check.json", "solve", "task.initial.centre", 0.4, "task.initial[0].centre"),
    ("dirac_mit_check.json", "solve", "task.initial.component", 5,
     "task.initial[0].component"),
    ("dirac_mit_check.json", "solve", "task.initial.component", -1,
     "task.initial[0].component"),
    ("dirac_mit_check.json", "solve", "task.initial.width", 0, "task.initial[0].width"),
    ("dirac_mit_check.json", "solve", "task.initial", "bump", "task.initial"),
    ("dirac_mit_check.json", "solve", "grid.nx", True, "grid.nx"),
    ("dirac_mit_check.json", "check", "chart.t_range", [0.0], "chart.t_range"),
    ("dirac_mit_check.json", "check", "chart.lengths", 1.0, "chart.lengths"),
    ("advection_green.json", "green", "bc", {"name": "custom"}, "bc.params.matrix"),
    ("advection_green.json", "green", "bc",
     {"name": "custom", "params": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}}, "params.matrix"),
    ("advection_green.json", "green", "system.params.speed", "fast", "system.params.speed"),
    ("heat_dirichlet_solve.json", "solve", "system.params.k", 0, "system.params.k"),
    ("ultrastatic_wave_compat.json", "compat", "task.order", -1, "task.order"),
    ("ultrastatic_wave_compat.json", "compat", "task.order", 2.5, "task.order"),
    ("ultrastatic_wave_compat.json", "compat", "task.nx", 1, "task.nx"),
    ("ultrastatic_wave_compat.json", "compat", "task.tol", "tight", "task.tol"),
    ("advection_green.json", "green", "task.source.t_width", 0, "task.source.t_width"),
    ("advection_green.json", "green", "task.source.component", 3, "task.source.component"),
    ("dirac_mit_check.json", "check", "chart", CUSTOM_CHART, "chart.params.beta.amplitud"),
    ("dirac_mit_check.json", "check", None, None, "config"),
    ("wave_neumann_converge.json", "converge", "task.grids", [64], "task.grids"),
    ("wave_neumann_converge.json", "converge", "task.grids", [], "task.grids"),
    ("wave_neumann_converge.json", "converge", "task.grids", [64, 256], "task.grids"),
]


@pytest.mark.parametrize("name, command, key, value, named", PROBES)
def test_malformed_config_exits_2_naming_the_key(tmp_path, capsys, name, command, key,
                                                 value, named):
    cfg = shipped(name, key, value) if key is not None else [shipped(name)]
    err = assert_config_error(capsys, *run(tmp_path, cfg, command))
    assert named in err


CUSTOM_ADVECTION = {"chart": {"t_range": [0.0, 0.2]}, "bc": {"name": "zero_trace"},
                    "system": {"builder": "custom", "params": {"A": [[[1.0]], [[1.0]]]}}}


@pytest.mark.parametrize("cfg, command", [
    (shipped("dirac_mit_check.json"), "check"), (shipped("dirac_mit_check.json"), "solve"),
    (shipped("advection_green.json"), "green"), (CUSTOM_ADVECTION, "check")],
    ids=["dirac-check", "dirac-solve", "advection-green", "custom-check"])
def test_constrain_gradient_needs_a_gradient_layout(tmp_path, capsys, cfg, command):
    # dirac, advection and custom systems have no gradient slot to constrain
    cfg = {**cfg, "task": {**cfg.get("task", {}), "constrain_gradient": True}}
    err = assert_config_error(capsys, *run(tmp_path, cfg, command))
    assert "task.constrain_gradient" in err
    del cfg["task"]["constrain_gradient"]
    code, _ = run(tmp_path / "without", cfg, command)
    assert code in (0, 1)


@pytest.mark.parametrize("system", [
    {"builder": "wave_reduction", "params": {"c": [1.0, 2.0]}},
    {"builder": "custom", "params": {"A": [1.0, 2.0]}},
    {"builder": "custom", "params": {"A": [[[1.0]], [[1.0]]], "gram": [[1.0, 0.0]]}},
])
def test_misshapen_coefficient_tables_exit_2(tmp_path, capsys, system):
    cfg = {"system": system, "bc": {"name": "zero_trace"}, "grid": {"nx": 16},
           "chart": {"t_range": [0.0, 0.2]}}
    assert_config_error(capsys, *run(tmp_path, cfg, "solve"))


def test_config_defaults(tmp_path):
    # the CLI's own defaults, some of which differ from the library's
    def bc_line(cfg, condition):
        cfg["bc"] = {"name": condition}
        code, out = run(tmp_path / condition, cfg, "check")
        assert code in (0, 1)
        report = (out / "report.txt").read_text()
        return next(line for line in report.splitlines() if line.startswith("face left"))

    dirac, kg = shipped("dirac_mit_check.json"), shipped("kg_robin_check.json")
    for condition, sign in [("mit_bag", -1), ("chirality", -1), ("riemannian_mit", -1),
                            ("riemannian_chirality", 1)]:
        assert bc_line(dirac, condition) == f"face left: bc {condition} {{'sign': {sign}}}"
    assert bc_line(kg, "robin") == "face left: bc robin {'a': 1.0, 'b': 0.0}"
    assert bc_line(kg, "transparent") == "face left: bc transparent {'b': 1.0}"
    del kg["system"]["params"]["mass"]
    code, out = run(tmp_path / "reduce", kg, "reduce")
    assert code == 0
    rows = [row.split(",") for row in (out / "coefficients.csv").read_text().splitlines()]
    assert {float(r[5]) for r in rows if r[2:5] == ["C", "0", "0"]} == {1.0}  # m² = 1


def slots(node):
    """(container, key) of every value in a config, nested ones included."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from slots(value)


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


MUTATIONS = {
    "drop": lambda node, key: True,
    "rename": lambda node, key: isinstance(node, dict),
    "retype": lambda node, key: True,
    "scale": lambda node, key: is_number(node[key]),
}


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_shipped_configs_survive_mutation(data):
    # one key of a shipped config dropped, renamed, retyped or rescaled: the
    # CLI exits 0, 1 or 2 and never raises, and an unknown key exits 2
    name, command, extra, _, _ = data.draw(st.sampled_from(studies.CLI_RUNS))
    cfg = shipped(name)
    how = data.draw(st.sampled_from(sorted(MUTATIONS)))
    node, key = data.draw(st.sampled_from(
        [slot for slot in slots(cfg) if MUTATIONS[how](*slot)]))
    if how == "drop":
        node.pop(key)
    elif how == "rename":
        node[key + "_x"] = node.pop(key)
    elif how == "retype":
        value = node[key]
        node[key] = data.draw(st.sampled_from([
            v for v in (value if is_number(value) else 1.0, str(value), [value], True)
            if type(v) is not type(value)]))
    else:
        node[key] *= data.draw(st.sampled_from([-1, 0, 0.5, 2]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command, "--config", str(path), "--out", tmp, *extra])
    assert code in (0, 1, 2)
    if how == "rename":
        assert code == 2


def spectrum(out):
    """face -> the eigenvalues that ``check`` wrote to spectrum.csv."""
    rows = (out / "spectrum.csv").read_text().splitlines()[1:]
    found = {}
    for face, _, ev in (row.split(",") for row in rows):
        found.setdefault(face, []).append(float(ev))
    return found


RIGHT_MOVING = {
    "chart": {"name": "minkowski_strip", "t_range": [0.0, 0.5], "lengths": [1.0]},
    "system": {"builder": "custom",
               "params": {"A": [[[1.0, -2.0], [-2.0, 5.0]], [[0.1, 0.0], [0.0, 0.3]]]}},
    "bc": {"left": {"name": "zero_trace"}, "right": {"name": "no_condition"}},
    "grid": {"nx": 64},
    "task": {"initial": {"profile": "bump", "component": 0}},
}


def test_right_moving_system_takes_the_inflow_outflow_pair(tmp_path):
    # σ(dt) = [[1, −2], [−2, 5]], σ(dx) = diag(0.1, 0.3), G = I: both speeds
    # 0.4 ± √0.13 are positive, so zero_trace inflow / no_condition outflow
    # is the admissible pair
    speeds = 0.4 + np.array([-1.0, 1.0]) * np.sqrt(0.13)
    code, out = run(tmp_path / "check", RIGHT_MOVING, "check")
    assert code == 0
    assert "overall: PASS" in (out / "report.txt").read_text()
    found = spectrum(out)
    assert found["left"] == pytest.approx(-speeds[::-1], abs=1e-12)
    assert found["right"] == pytest.approx(speeds, abs=1e-12)
    code, out = run(tmp_path / "solve", RIGHT_MOVING, "solve")
    assert code == 0
    growth = re.search(r"^max per-step energy growth: (\S+)$",
                       (out / "report.txt").read_text(), re.MULTILINE)
    assert float(growth.group(1)) <= 1.0


def test_wave_speeds_follow_the_lapse(tmp_path):
    # on a chart with constant β = 2 the wave reduction's speeds are ±β
    cfg = {"chart": {"name": "custom", "t_range": [0.0, 0.5],
                     "params": {"beta": {"profile": "constant", "value": 2.0}}},
           "system": {"builder": "wave_reduction"}, "bc": {"name": "neumann_like"}}
    code, out = run(tmp_path, cfg, "check")
    assert code == 0
    for face in ("left", "right"):
        assert spectrum(out)[face] == pytest.approx([-2.0, 0.0, 2.0], abs=1e-12)


def test_importing_the_cli_loads_no_scipy():
    # scipy is imported by the implicit solver path only, on its first call
    src = str(Path(friedrichs.__file__).resolve().parent.parent)
    code = "import sys, friedrichs.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.stdout.strip() == "[]"


def test_green_operators_and_an_explicit_dirac_solve_load_no_scipy():
    # G⁺, G⁻ and an explicit Dirac solve step on numpy alone: importing
    # scipy.sparse for them would add over 10 MB to their peak RSS
    src = str(Path(friedrichs.__file__).resolve().parent.parent)
    code = """if True:
        import sys
        import numpy as np
        from friedrichs import boundary, clifford, geometry, solver, system
        from friedrichs.geometry import LEFT, RIGHT
        chart = geometry.minkowski_strip((0.0, 1.0), (1.0,))
        adv = system.advection_system(chart)
        grid = solver.make_grid(adv, 64)

        def f(t, xs2):
            return (abs(t - 0.5) < 0.1) * np.exp(-(xs2 - 0.5) ** 2 / 0.01)

        solver.green_plus(adv, {LEFT: boundary.zero_trace(1), RIGHT: boundary.no_condition(1)},
                          f, grid)
        solver.green_minus(adv, {LEFT: boundary.no_condition(1), RIGHT: boundary.zero_trace(1)},
                           f, grid)
        rep = clifford.build_rep(2)
        dirac = clifford.dirac_system(rep, chart)
        grid = solver.make_grid(dirac, 64)
        h = np.outer(np.exp(-(grid.xs - 0.5) ** 2 / 0.01), np.eye(dirac.fiber_rank)[0])
        solver.solve(dirac, boundary.mit_bag(rep, -1), h=h, grid=grid)
        print(sorted(m for m in sys.modules if 'scipy' in m))
    """
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.stdout.strip() == "[]"


SINGULAR = {
    "chart": {"name": "minkowski_strip", "t_range": [0.0, 0.1]},
    "system": {"builder": "custom", "params": {"A": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}},
    "bc": {"name": "no_condition"},
    "grid": {"nx": 8},
}


@pytest.mark.parametrize("chart", [
    SINGULAR["chart"],
    {"name": "custom", "t_range": [0.0, 0.1],
     "params": {"beta": {"profile": "sine", "waves_t": 1.0}}}])
def test_singular_implicit_operator_is_a_config_error(tmp_path, capsys, chart):
    # SuperLU (static) and banded LAPACK (time-dependent β) both refuse the
    # singular backward-Euler operator with one line naming its time
    err = assert_config_error(capsys, *run(tmp_path, dict(SINGULAR, chart=chart), "solve"))
    assert err == "config error: the implicit operator at t=0.05 is singular\n"


NOT_SYMMETRIC = {
    "chart": {"name": "minkowski_strip", "t_range": [0.0, 0.5]},
    "system": {"builder": "custom",
               "params": {"A": [[[1, 0.3], [0, 1]], [[1, 0], [0, -1]]]}},
    "bc": {"left": {"name": "custom", "params": {"matrix": [[1, 0], [0, 0]]}},
           "right": {"name": "custom", "params": {"matrix": [[0, 0], [0, 1]]}}},
    "grid": {"nx": 16},
    "task": {"initial": {"profile": "bump", "component": 0}},
}


def test_solve_refuses_a_system_that_fails_s(tmp_path, capsys):
    # its conditions are admissible, but the split assumes (S): refused like
    # an inadmissible condition, and run under --force
    code, out = run(tmp_path / "refused", NOT_SYMMETRIC, "solve")
    assert code == 1 and not (out / "report.txt").exists()
    assert re.fullmatch(r"refusing to run: system 'custom' fails \(S\), max relative asymmetry "
                        r"\S+ \(use --force for counterexample studies\)\n",
                        capsys.readouterr().out)
    code, out = run(tmp_path / "forced", NOT_SYMMETRIC, "solve", ("--force",))
    assert code == 0 and "forced run" in (out / "report.txt").read_text()
