import copy
import json
from collections import Counter
from pathlib import Path

import pytest

from friedrichs import boundary, cli, solver
from friedrichs.geometry import LEFT, RIGHT


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


def test_green_rejects_unknown_direction(tmp_path, capsys):
    cfg = copy.deepcopy(GREEN_ADVECTION_MINUS)
    cfg["task"]["direction"] = "backward"
    assert_config_error(capsys, *run(tmp_path, cfg, "green"))


@pytest.mark.parametrize("grid", [{"nx": 64, "cfl": -0.5}, {"nx": 0}, {"nx": 2.5}])
def test_solve_rejects_bad_grid(tmp_path, capsys, grid):
    assert_config_error(capsys, *run(tmp_path, dict(DIRAC_MIT, grid=grid), "solve"))


def test_contract_error_is_a_config_error(tmp_path, capsys):
    # the retarded Green operator refuses a parabolic (implicit) system
    cfg = copy.deepcopy(HEAT)
    cfg["task"].update(direction="-", source=GREEN_DIRAC["task"]["source"])
    assert_config_error(capsys, *run(tmp_path, cfg, "green"))


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
