"""The four benchmark workloads, each a set-up plus a repeatable study.

A workload object is built once (the set-up: charts, systems, conditions,
grids and initial data) and then runs ``study()`` as often as the run allows.
``study()`` returns plain numbers and strings computed from every result, so
the work is finished inside the timed region; ``check()`` judges them outside
it and returns a list of problems (empty when the study is correct).

The seed sets the centres and widths of the initial and source profiles (and
the CLI ``--seed``); grid sizes are fixed by the workload.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import numpy as np

from friedrichs import boundary, cli, clifford, geometry, reduction, solver, system

#: profile centres move by at most this much and widths grow by at most this
#: share. Widths never shrink: a G⁺ source narrower than the shipped 0.12
#: leaks more than the 2-cell slack of ``causal_support_ok`` at threshold
#: 1e-3 through the upwind scheme's numerical diffusion (margin −Δx/2).
CENTRE_JITTER = 0.03
WIDTH_JITTER = 0.1


def bump(xs, centre, width):
    """Smooth compactly supported bump exp(1 − 1/(1 − s²)), s = (x − c)/w."""
    s = (xs - centre) / width
    out = np.zeros_like(xs)
    inside = np.abs(s) < 1
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


def jitter(rng, centre, width):
    return (centre + rng.uniform(-CENTRE_JITTER, CENTRE_JITTER),
            width * (1.0 + rng.uniform(0.0, WIDTH_JITTER)))


def constant_c(value, k=1):
    """Zero-order coefficient c(t, xs) = value·I_k."""
    arr = value * np.eye(k, dtype=complex)
    return lambda t, xs: np.broadcast_to(arr, (xs.shape[0], k, k))


def heat_system(chart):
    """The shipped reaction-diffusion config: k = 1, c = −1, λ = 2."""
    prob = reduction.SecondOrderProblem("reaction_diffusion", chart, k=1,
                                        c=constant_c(-1.0))
    return reduction.reaction_diffusion_to_first_order(prob, 2.0)


def state_with_gradient(sys_, xs, values):
    """Reduced initial state: values in slot 0, their x-derivative in the
    gradient slot (the CLI's ``constrain_gradient``)."""
    out = np.zeros((xs.size, sys_.fiber_rank), dtype=complex)
    out[:, 0] = values
    out[:, sys_.layout.grad_slot(0)] = np.gradient(values, xs)[:, None]
    return out


def first_component(sys_, xs, values):
    out = np.zeros((xs.size, sys_.fiber_rank), dtype=complex)
    out[:, 0] = values
    return out


def timed_source(t_centre, centre, width):
    """Scalar forcing bump(t)·bump(x), the CLI's ``task.source`` profile."""
    def f(t, xs2):
        out = np.zeros((xs2.shape[0], 1), dtype=complex)
        s = (t - t_centre) / 0.15
        if abs(s) < 1:
            out[:, 0] = np.exp(1.0 - 1.0 / (1.0 - s ** 2)) * bump(xs2[:, 0], centre, width)
        return out

    return f


def _energy(sys_, bcs, h, grid):
    """Energy trace of a solve; the field is freed before the next solve."""
    return solver.energy_trace(solver.solve(sys_, bcs, h=h, grid=grid), sys_)


def _finite(**values):
    return [f"{k} = {v} is not finite" for k, v in values.items() if not np.isfinite(v)]


class StaticSolves:
    """Dirac + MIT bag (explicit, nx = 1024) and the shipped heat + Robin
    config (implicit, nx = 2048), each followed by ``energy_trace``."""

    def __init__(self, rng):
        centre, width = jitter(rng, 0.5, 0.25)
        chart = geometry.minkowski_strip((0.0, 1.0), (1.0,))
        rep = clifford.build_rep(2)
        self.dirac = clifford.dirac_system(rep, chart)
        self.mit = boundary.mit_bag(rep, -1)
        self.dirac_grid = solver.make_grid(self.dirac, 1024, 0.5)
        self.dirac_h = first_component(self.dirac, self.dirac_grid.xs,
                                       bump(self.dirac_grid.xs, centre, width))
        self.heat = heat_system(geometry.minkowski_strip((0.0, 0.3), (1.0,)))
        self.robin = boundary.robin(0.0, 1.0, self.heat.layout)
        self.heat_grid = solver.make_grid(self.heat, 2048, 0.5)
        xs = self.heat_grid.xs
        self.heat_h = state_with_gradient(self.heat, xs, np.sin(2 * np.pi * xs))
        self.grids = [self.dirac_grid, self.heat_grid]

    def study(self):
        return {
            "dirac_energy_ratio": _energy(
                self.dirac, self.mit, self.dirac_h, self.dirac_grid).final_ratio,
            "heat_max_step_growth": _energy(
                self.heat, self.robin, self.heat_h, self.heat_grid).max_step_growth,
        }

    @staticmethod
    def check(r):
        problems = []
        if not abs(r["dirac_energy_ratio"] - 1.0) <= 0.05:
            problems.append(f"Dirac+MIT |E(T)/E(0) - 1| > 0.05 ({r['dirac_energy_ratio']})")
        if not r["heat_max_step_growth"] <= 1.0:
            problems.append(f"implicit heat max step growth > 1 ({r['heat_max_step_growth']})")
        return problems


class TimedepSolves:
    """The same two solver paths on charts whose β or h oscillate in time:
    wave + Neumann-like (explicit, nx = 128) with ``energy_trace``, and
    heat + Robin (implicit, nx = 256)."""

    def __init__(self, rng):
        wave_centre, wave_width = jitter(rng, 0.5, 0.2)
        heat_centre, heat_width = jitter(rng, 0.5, 0.3)
        wave_chart = geometry.named_profile_chart(
            (0.0, 0.4), (1.0,), beta={"profile": "sine", "base": 1.3, "amplitude": 0.2,
                                      "waves": 1, "waves_t": 1.0})
        self.wave = reduction.wave_to_first_order(
            reduction.SecondOrderProblem("normally_hyperbolic", wave_chart, k=1))
        self.neumann = boundary.neumann_like(self.wave.layout)
        self.wave_grid = solver.make_grid(self.wave, 128, 0.5)
        xs = self.wave_grid.xs
        self.wave_h = first_component(self.wave, xs, bump(xs, wave_centre, wave_width))
        heat_chart = geometry.named_profile_chart(
            (0.0, 0.3), (1.0,), h_scale={"profile": "sine", "base": 1.0, "amplitude": 0.2,
                                         "waves": 1, "waves_t": 1.0})
        self.heat = heat_system(heat_chart)
        self.robin = boundary.robin(0.0, 1.0, self.heat.layout)
        self.heat_grid = solver.make_grid(self.heat, 256, 0.5)
        xs = self.heat_grid.xs
        self.heat_h = state_with_gradient(self.heat, xs, bump(xs, heat_centre, heat_width))
        self.grids = [self.wave_grid, self.heat_grid]

    def study(self):
        heat = solver.solve(self.heat, self.robin, h=self.heat_h, grid=self.heat_grid)
        return {
            "wave_energy_ratio": _energy(
                self.wave, self.neumann, self.wave_h, self.wave_grid).final_ratio,
            "heat_final_max": float(np.abs(heat.values[-1]).max()),
        }

    @staticmethod
    def check(r):
        return _finite(**r)


class GreenCausal:
    """Advection G⁺ and G⁻ (nx = 256) with ``green_residual`` and
    ``causal_support_ok``, and a Dirac + MIT bump solve (nx = 256) with
    ``support_growth_margins``."""

    def __init__(self, rng):
        plus_centre, plus_width = jitter(rng, 0.35, 0.12)
        minus_centre, minus_width = jitter(rng, 0.35, 0.12)
        dirac_centre, dirac_width = jitter(rng, 0.5, 0.12)
        self.chart = geometry.minkowski_strip((0.0, 1.0), (1.0,))
        self.adv = system.advection_system(self.chart)
        left, right = geometry.LEFT, geometry.RIGHT
        self.plus_bcs = {left: boundary.zero_trace(1), right: boundary.no_condition(1)}
        self.minus_bcs = {left: boundary.no_condition(1), right: boundary.zero_trace(1)}
        self.plus_f = timed_source(0.35, plus_centre, plus_width)
        self.minus_f = timed_source(0.6, minus_centre, minus_width)
        self.adv_grid = solver.make_grid(self.adv, 256, 0.5)
        rep = clifford.build_rep(2)
        self.dirac = clifford.dirac_system(rep, self.chart)
        self.mit = boundary.mit_bag(rep, -1)
        self.dirac_grid = solver.make_grid(self.dirac, 256, 0.5)
        xs = self.dirac_grid.xs
        self.dirac_h = first_component(self.dirac, xs, bump(xs, dirac_centre, dirac_width))
        self.grids = [self.adv_grid, self.adv_grid, self.dirac_grid]

    def _green(self, op, bcs, f, future):
        fld = op(self.adv, bcs, f, self.adv_grid)
        residual = solver.green_residual(self.adv, fld, f)
        c_max = geometry.max_characteristic_speed(self.chart, self.adv, per_axis=8)
        ok, _ = solver.causal_support_ok(fld, f, c_max, cells=2, threshold=1e-3,
                                         future=future)
        return residual, bool(ok)

    def _min_margin(self):
        fld = solver.solve(self.dirac, self.mit, h=self.dirac_h, grid=self.dirac_grid)
        c_max = geometry.max_characteristic_speed(self.chart, self.dirac, per_axis=8)
        return float(solver.support_growth_margins(fld, c_max).min())

    def study(self):
        plus_residual, plus_ok = self._green(solver.green_plus, self.plus_bcs,
                                             self.plus_f, True)
        minus_residual, minus_ok = self._green(solver.green_minus, self.minus_bcs,
                                               self.minus_f, False)
        return {"plus_residual": plus_residual, "plus_causal": plus_ok,
                "minus_residual": minus_residual, "minus_causal": minus_ok,
                "min_margin": self._min_margin()}

    @staticmethod
    def check(r):
        problems = _finite(plus_residual=r["plus_residual"],
                           minus_residual=r["minus_residual"])
        problems += [f"{k} is False" for k in ("plus_causal", "minus_causal") if not r[k]]
        if not r["min_margin"] >= 0.0:
            problems.append(f"support growth margin < 0 ({r['min_margin']})")
        return problems


def says(verdict):
    """Report check: the verdict line appears in ``report.txt``."""
    return lambda report: [] if verdict in report else [f"report lacks '{verdict}'"]


def step_growth_at_most(limit):
    """Report check: the reported max per-step energy growth is ≤ ``limit``."""
    def check(report):
        found = re.search(r"^max per-step energy growth: (\S+)$", report, re.MULTILINE)
        if found is None:
            return ["report lacks the max per-step energy growth"]
        growth = float(found.group(1))
        return [] if growth <= limit else [f"max per-step energy growth {growth} > {limit}"]

    return check


#: (config, subcommand, extra arguments, expected exit code, report check)
CLI_RUNS = [
    ("advection_green.json", "green", (), 0, says("causal=True")),
    ("dirac_mit_check.json", "check", (), 0, says("overall: PASS")),
    ("heat_dirichlet_solve.json", "solve", (), 0, step_growth_at_most(1.0)),
    ("kg_robin_check.json", "check", (), 0, says("overall: PASS")),
    ("kg_robin_check.json", "reduce", (), 0, says("symmetric=True")),
    ("riemannian_mit_counterexample.json", "solve", ("--force",), 0, says("forced run")),
    ("riemannian_mit_counterexample.json", "check", (), 1, says("overall: FAIL")),
    ("ultrastatic_wave_compat.json", "compat", (), 0, says("-> PASS")),
    ("wave_neumann_converge.json", "converge", (), 0, says("observed orders")),
]


def jitter_profiles(cfg, rng):
    """Move the centre and width of every bump profile in ``task``."""
    task = cfg.get("task", {})
    items = task.get("initial", [])
    items = [items] if isinstance(items, dict) else list(items)
    if "source" in task:
        items.append(task["source"])
    for item in items:
        if item.get("profile", "bump") == "bump":
            item["center"], item["width"] = jitter(
                rng, item.get("center", 0.5), item.get("width", 0.2))
    return cfg


class ConfigSweep:
    """Every shipped config through ``cli.main`` with its own subcommand, plus
    ``check`` on the Riemannian-MIT counterexample and ``reduce`` on KG."""

    def __init__(self, rng, workdir, seed, configs):
        cfg_dir = workdir / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        for name in sorted({run[0] for run in CLI_RUNS}):
            cfg = jitter_profiles(json.loads((configs / name).read_text()), rng)
            (cfg_dir / name).write_text(json.dumps(cfg))
        self.argvs = [
            [command, "--config", str(cfg_dir / name), "--out",
             str(workdir / "out" / f"{i}-{command}"), "--seed", str(seed), *extra]
            for i, (name, command, extra, _, _) in enumerate(CLI_RUNS)]
        self.out_dirs = [Path(argv[4]) for argv in self.argvs]

    def study(self):
        results = []
        for argv, out in zip(self.argvs, self.out_dirs):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            results.append((code, (out / "report.txt").read_text()))
        return results

    def output_bytes(self):
        return sum(p.stat().st_size for out in self.out_dirs for p in out.iterdir())

    @staticmethod
    def check(results):
        problems = []
        for (name, command, _, expected, check_report), (code, report) in zip(CLI_RUNS, results):
            if code != expected:
                problems.append(f"{command} {name}: exit {code}, expected {expected}")
            problems += [f"{command} {name}: {found}" for found in check_report(report)]
        return problems


WORKLOADS = {
    "static_solves": StaticSolves,
    "timedep_solves": TimedepSolves,
    "green_causal": GreenCausal,
    "config_sweep": ConfigSweep,
}


def build(name, seed, workdir, root):
    """Set up workload ``name`` for ``seed``; files go under ``workdir``."""
    rng = np.random.default_rng(seed)
    if name == "config_sweep":
        return ConfigSweep(rng, workdir, seed, root / "configs")
    return WORKLOADS[name](rng)
