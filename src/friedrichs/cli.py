"""Config-driven command line: check, reduce, solve, green, converge, compat.

The run configuration is a single JSON file:

    {
      "chart":  {"name": "minkowski_strip", "t_range": [0.0, 1.0], "lengths": [1.0]},
      "system": {"builder": "dirac", "params": {}},
      "bc":     {"name": "mit_bag", "params": {"sign": -1}},
      "grid":   {"nx": 256, "cfl": 0.5},
      "task":   {...}
    }

``bc`` is either one condition for every face or {"left": {...}, "right": {...}}.
Reports embed the SHA-256 digest of the canonical config for provenance, and
identical configs produce byte-identical outputs.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import boundary, clifford, geometry, reduction, solver, system
from .errors import (BoundaryClosureError, ConfigError, ContractError, NotAdmissibleError,
                     NotSymmetricError)


def config_digest(cfg):
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def _fmt(x):
    return format(float(x), ".17g")


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) if isinstance(v, (int, float, np.floating)) else str(v)
                       for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


# -- the config schema and its reader ---------------------------------------
#
# A spec is a default, a (default, test, what it must be) range check, a dict
# of specs or a reader fn(value, path).  A default's type is its key's: a float
# takes an int too, a list a list of its entry's type, None an optional table.

_MISSING = object()
_TYPES = {bool: "true or false", int: "an integer", float: "a number", str: "a string",
          dict: "an object", type(None): "a number or numeric table"}


def _is(value, default):
    if isinstance(default, list):
        return isinstance(value, list) and all(_is(v, default[0]) for v in value)
    if default is None:
        try:
            return value is None or np.asarray(value).dtype.kind in "iuf"
        except ValueError:  # a ragged table
            return False
    kinds = (int, float) if type(default) is float else type(default)
    return isinstance(value, kinds) and isinstance(value, bool) == isinstance(default, bool)


def _pick(key, table, default, spec_of):
    """Spec of an object whose ``key`` names an entry of ``table``; ``spec_of``
    gives the object's spec for that entry.  An absent object reads as None."""
    def read(value, path):
        if not isinstance(value, dict):  # absent, or refused as not an object
            return None if value is _MISSING else read_config(value, {}, path)
        name = value[key] if key in value else default
        if not isinstance(name, str) or name not in table:
            raise ConfigError(f"{path}.{key} must be one of {sorted(table)}, got {name!r}")
        return read_config(value, spec_of(name), path)

    return read


def _initial(value, path):
    """One profile or a list of them, read as a list."""
    items = [] if value is _MISSING else [value] if isinstance(value, dict) else value
    if not isinstance(items, list):
        raise ConfigError(f"{path} must be a profile or a list of them, got {value!r}")
    return [INITIAL(item, f"{path}[{i}]") for i, item in enumerate(items)]


def _bcs(value, path):
    """One condition for every face, or {"left": ..., "right": ...}."""
    if isinstance(value, dict) and value and "name" not in value:
        return read_config(value, {"left": BC, "right": BC}, path)
    return BC(value, path)


def _need(value, message):
    if value is None:
        raise ConfigError(message)
    return value


def _bump(s):
    """exp(1 − 1/(1 − s²)) on |s| < 1, zero elsewhere."""
    out = np.zeros_like(s)
    m = np.abs(s) < 1
    out[m] = np.exp(1.0 - 1.0 / (1.0 - s[m] ** 2))
    return out


def _c(p):
    """The zero-order term c(t, xs) of params c: a number (times I_k) or a k×k table."""
    return None if p["c"] is None else lambda t, xs: p["c"]


def _custom_bc(sys_, rep, p):
    if np.shape(p["matrix"]) != (sys_.fiber_rank,) * 2:
        raise ConfigError(f"custom bc params.matrix must be {sys_.fiber_rank}×{sys_.fiber_rank}")
    return boundary.custom_bc(np.array(p["matrix"], dtype=complex))


# Each table entry pairs the keys that one profile, system builder or boundary
# condition reads, with their defaults, and the function that builds it.
WIDTH = (0.2, lambda w: w > 0, "> 0")
PROFILES = {
    "bump": ({"center": 0.5, "width": WIDTH, "amplitude": 1.0}, lambda p: lambda xs:
             p["amplitude"] * _bump((xs - p["center"]) / p["width"])),
    "sine": ({"amplitude": 1.0, "waves": 1.0},
             lambda p: lambda xs: p["amplitude"] * np.sin(2 * np.pi * p["waves"] * xs)),
    "cosine": ({"amplitude": 1.0, "waves": 1.0},
               lambda p: lambda xs: p["amplitude"] * np.cos(np.pi * p["waves"] * xs)),
    "zero": ({}, lambda p: np.zeros_like),
}
INITIAL = _pick("profile", PROFILES, "bump",
                lambda kind: {"profile": kind, "component": 0, **PROFILES[kind][0]})
SOURCE = _pick("profile", PROFILES, "bump", lambda kind: {
    "profile": kind, "component": 0, "t_center": 0.5, "t_width": WIDTH, **PROFILES[kind][0]})
K = (1, lambda k: k >= 1, ">= 1")
TABLE = (None, lambda v: v is not None, "a numeric table")
SYSTEMS = {
    "advection": ({"speed": 1.0},
                  lambda chart, p: (system.advection_system(chart, speed=p["speed"]), None)),
    "dirac": ({}, lambda chart, p: (
        clifford.dirac_system(rep := clifford.build_rep(chart.dim_space + 1), chart), rep)),
    "wave_reduction": ({"k": K, "c": None}, lambda chart, p: (reduction.wave_to_first_order(
        reduction.SecondOrderProblem("normally_hyperbolic", chart, k=p["k"], c=_c(p))), None)),
    "kg_reduction": ({"k": K, "mass": 1.0}, lambda chart, p: (reduction.kg_to_first_order(
        reduction.SecondOrderProblem("klein_gordon", chart, k=p["k"], mass=p["mass"])), None)),
    "reaction_diffusion": ({"k": K, "c": None, "lambda": 0.0}, lambda chart, p: (
        reduction.reaction_diffusion_to_first_order(reduction.SecondOrderProblem(
            "reaction_diffusion", chart, k=p["k"], c=_c(p)), p["lambda"]), None)),
    "custom": ({"A": TABLE, "C": None, "gram": None},
               lambda chart, p: (system.constant_system(chart, p["A"], p["C"], p["gram"]), None)),
}
DIRAC = "this boundary condition needs a dirac system"
REDUCED = "this boundary condition needs a reduced (wave/kg/reaction-diffusion) system"
BCS = {
    "mit_bag": ({"sign": -1}, lambda s, r, p: boundary.mit_bag(_need(r, DIRAC), p["sign"])),
    "chirality": ({"sign": -1}, lambda s, r, p: boundary.chirality(_need(r, DIRAC), p["sign"])),
    "riemannian_mit": ({"sign": -1},
                       lambda s, r, p: boundary.riemannian_mit(_need(r, DIRAC), p["sign"])),
    "riemannian_chirality": ({"sign": 1}, lambda s, r, p: boundary.riemannian_chirality(
        _need(r, DIRAC), p["sign"])),
    "robin": ({"a": 1.0, "b": 0.0},
              lambda s, r, p: boundary.robin(p["a"], p["b"], _need(s.layout, REDUCED))),
    "neumann_like": ({}, lambda s, r, p: boundary.neumann_like(_need(s.layout, REDUCED))),
    "transparent": ({"b": 1.0},
                    lambda s, r, p: boundary.transparent(p["b"], _need(s.layout, REDUCED))),
    "dirichlet": ({}, lambda s, r, p: boundary.dirichlet(_need(s.layout, REDUCED))),
    "zero_trace": ({}, lambda s, r, p: boundary.zero_trace(s.fiber_rank)),
    "no_condition": ({}, lambda s, r, p: boundary.no_condition(s.fiber_rank)),
    "custom": ({"matrix": TABLE}, _custom_bc),
}
BC = _pick("name", BCS, None, lambda name: {"name": name, "params": BCS[name][0]})
CHART_PROFILE = _pick("profile", geometry.SCALAR_PROFILES, "constant",
                      lambda kind: {"profile": kind, **geometry.SCALAR_PROFILES[kind]})
#: chart -> the params geometry.CHART_BUILDERS[chart] reads
CHARTS = {"minkowski_strip": {}, "ultrastatic": {"eps": 0.2, "waves": 1.0},
          "custom": {"beta": CHART_PROFILE, "h_scale": CHART_PROFILE}}
#: the top-level sections; ``task`` holds the keys of every subcommand
SECTIONS = {
    "chart": _pick("name", CHARTS, "minkowski_strip", lambda name: {
        "name": name, "params": CHARTS[name], "lengths": [1.0],
        "t_range": ([0.0, 1.0], lambda r: len(r) == 2, "[t_start, t_end]")}),
    "system": _pick("builder", SYSTEMS, None,
                    lambda name: {"builder": name, "params": SYSTEMS[name][0]}),
    "bc": _bcs,
    "grid": {"nx": 128, "cfl": 0.5},
    "task": {"initial": _initial, "constrain_gradient": False, "source": SOURCE,
             "direction": ("+", lambda d: d in ("+", "-"), "'+' or '-'"),
             "case": ("advection_sine", lambda c: c in ("advection_sine", "wave_cosine"),
                      "'advection_sine' or 'wave_cosine'"),
             "grids": ([64, 128, 256], lambda g: len(g) >= 2 and g[0] >= 1 and all(
                 b == 2 * a for a, b in zip(g, g[1:])), "two or more sizes >= 1, each twice "
                 "the last"),
             "order": (0, lambda k: k >= 0, ">= 0"), "nx": (128, lambda n: n >= 2, ">= 2"),
             "tol": 1e-8},
}


def read_config(value, spec=SECTIONS, path=""):
    """``value`` checked against ``spec``, by default a whole config against the
    schema, with the defaults filled in."""
    if callable(spec):
        return spec(value, path)
    if isinstance(spec, tuple):
        value = read_config(value, spec[0], path)
        if not spec[1](value):
            raise ConfigError(f"{path} must be {spec[2]}, got {value!r}")
    elif isinstance(spec, dict) and isinstance(value, dict):
        prefix = f"{path}." if path else ""
        unknown = sorted(value.keys() - spec.keys())
        if unknown:
            raise ConfigError(f"unknown key '{prefix}{unknown[0]}'")
        value = {key: read_config(value[key] if key in value else _MISSING, sub, prefix + key)
                 for key, sub in spec.items()}
    elif value is _MISSING:
        value = read_config({}, spec, path) if isinstance(spec, dict) else spec
    elif isinstance(spec, dict) or not _is(value, spec):
        what = _TYPES[type(spec)] if type(spec) in _TYPES else f"a list like {spec}"
        raise ConfigError(f"{path or 'the config'} must be {what}, got {value!r}")
    return value


# -- config -> objects -------------------------------------------------------


def build_chart(cfg):
    spec = _need(cfg["chart"], "config needs a 'chart' section")
    return geometry.CHART_BUILDERS[spec["name"]](spec["t_range"], spec["lengths"],
                                                 **spec["params"])


def build_system(cfg, chart):
    spec = _need(cfg["system"], "config needs system.builder")
    sys_, rep = SYSTEMS[spec["builder"]][1](chart, spec["params"])
    if cfg["task"]["constrain_gradient"] and sys_.layout is None:
        raise ConfigError(f"task.constrain_gradient needs a reduced (wave/kg/reaction-diffusion) "
                          f"system, not {spec['builder']}")
    return sys_, rep


def build_bcs(cfg, sys_, rep):
    spec = _need(cfg["bc"], "config needs a 'bc' section")
    if "name" in spec:
        return BCS[spec["name"]][1](sys_, rep, spec["params"])
    faces = {"left": geometry.LEFT, "right": geometry.RIGHT}
    return {faces[key]: BCS[sub["name"]][1](sys_, rep, sub["params"])
            for key, sub in spec.items() if sub is not None}


def _profile(spec, sys_, path):
    """fn(xs) of an initial or source profile, whose component must be in the fiber."""
    if not 0 <= spec["component"] < sys_.fiber_rank:
        raise ConfigError(f"{path}.component must be in [0, {sys_.fiber_rank}), got "
                          f"{spec['component']}")
    return PROFILES[spec["profile"]][1](spec)


def build_initial(cfg, sys_):
    task = cfg["task"]
    items = [(item["component"], _profile(item, sys_, f"task.initial[{i}]"))
             for i, item in enumerate(task["initial"])]

    def h(xs):
        out = np.zeros((xs.size, sys_.fiber_rank), dtype=complex)
        # data that overflows is left to the solver's finiteness check
        with np.errstate(over="ignore", invalid="ignore"):
            for comp, fn in items:
                out[:, comp] += fn(xs)
            if task["constrain_gradient"]:
                reduction.constrain_gradient(out, sys_.layout, xs)
        return out

    return h


def build_source(cfg, sys_):
    spec = cfg["task"]["source"]
    if spec is None:
        return None
    fx = _profile(spec, sys_, "task.source")
    tc, tw, comp = spec["t_center"], spec["t_width"], spec["component"]

    def f(t, xs2):
        out = np.zeros((xs2.shape[0], sys_.fiber_rank), dtype=complex)
        s = (t - tc) / tw
        if abs(s) < 1:
            out[:, comp] = np.exp(1.0 - 1.0 / (1.0 - s ** 2)) * fx(xs2[:, 0])
        return out

    return f


# -- subcommands -------------------------------------------------------------
#
# Each subcommand returns (exit code, report text) and writes its own data
# files; ``main`` prefixes the config digest, writes report.txt and prints it.


def build_problem(cfg):
    """System and boundary conditions (one per face, or a face map) of a config."""
    sys_, rep = build_system(cfg, build_chart(cfg))
    return sys_, build_bcs(cfg, sys_, rep)


def cmd_check(cfg, out, force, seed):
    sys_, bcs = build_problem(cfg)
    bc_map = boundary.as_bc_map(sys_, bcs)
    sym, hyp, pos, cc = system.check_conditions(sys_, seed)
    lines = [f"system: {sys_.name} (N={sys_.fiber_rank})",
             f"symmetric: {sym.verdict} (max asymmetry {_fmt(sym.max_asymmetry)})",
             f"hyperbolic: {bool(hyp and hyp.oriented_verdict)} "
             f"(time sign {hyp.time_sign if hyp else 0}, "
             f"dt-form positive: {bool(hyp and hyp.dt_form_positive)})",
             f"positive: {bool(pos and pos.passed)}" +
             (f" (c = {_fmt(pos.c_min)})" if pos else ""),
             f"constant characteristic: {cc[0]} (dim ker σ(n♭) = {cc[1]})"]
    spectrum_rows = []
    is_friedrichs = sym.verdict and bool(
        (hyp and hyp.oriented_verdict) or (pos and pos.passed))
    lines.append(f"friedrichs system (symmetric and hyperbolic-or-positive): "
                 f"{is_friedrichs}")
    overall = is_friedrichs and cc[0]
    for face, bc in bc_map.items():
        rep_adm = boundary.admissibility(sys_, bc, faces=[face])
        face_name = "left" if face == geometry.LEFT else "right"
        lines += [f"face {face_name}: bc {bc.name} {bc.params}",
                  "  " + rep_adm.summary().replace("\n", "\n  ")]
        for ev in rep_adm.spectra.get(face, []):
            spectrum_rows.append((face_name, bc.name, ev))
        overall = overall and rep_adm.admissible
    lines.append(f"overall: {'PASS' if overall else 'FAIL'}")
    write_csv(out / "spectrum.csv", ["face", "bc", "eigenvalue"], spectrum_rows)
    return (0 if overall else 1), "\n".join(lines) + "\n"


def cmd_reduce(cfg, out, force, seed):
    chart = build_chart(cfg)
    sys_, _ = build_system(cfg, chart)
    ts, xs = geometry.spacetime_rows(chart.sample_times(3),
                                     np.linspace(0.0, chart.space_extent[0], 5)[:, None])
    (A, C), G = sys_.coeff_at(ts, xs), sys_.metric_at(ts, xs)
    rows = []
    for p in range(xs.shape[0]):
        for label, M in [("A0", A[p, 0]), ("A1", A[p, 1]), ("C", C[p]), ("G", G[p])]:
            for i in range(sys_.fiber_rank):
                for j in range(sys_.fiber_rank):
                    rows.append((ts[p], xs[p, 0], label, i, j, M[i, j].real, M[i, j].imag))
    write_csv(out / "coefficients.csv",
              ["t", "x", "matrix", "row", "col", "re", "im"], rows)
    sym, hyp, pos, cc = system.check_conditions(sys_, seed)
    return 0, (f"system: {sys_.name} N={sys_.fiber_rank} "
               f"symmetric={sym.verdict} hyperbolic={bool(hyp and hyp.oriented_verdict)} "
               f"positive={bool(pos and pos.passed)} char_dim={cc[1]}\n")


def cmd_solve(cfg, out, force, seed):
    sys_, bcs = build_problem(cfg)
    grid = solver.make_grid(sys_, **cfg["grid"])
    fld = solver.solve(sys_, bcs, f=build_source(cfg, sys_),
                       h=build_initial(cfg, sys_), grid=grid, force=force)
    tr = solver.energy_trace(fld, sys_)
    write_csv(out / "energy.csv", ["t", "E", "flux"],
              list(zip(tr.ts, tr.energy, tr.flux)))
    solver.write_field(out / "field.bin", fld)
    report = (f"solve: nx={grid.nx} nt={grid.nt} dt={_fmt(grid.dt)}\n"
              f"energy ratio E(T)/E(0): {_fmt(tr.final_ratio)}\n"
              f"max per-step energy growth: {_fmt(tr.max_step_growth)}\n")
    if sys_.time_sign == 0 and not sys_.metric_positive:
        report += ("note: E(t) is the indefinite fiber form (the system has no "
                   "positive companion metric), not a norm\n")
    if force:
        report += "forced run (admissibility not enforced): energy growth is diagnostic\n"
    return 0, report


def cmd_green(cfg, out, force, seed):
    sys_, bcs = build_problem(cfg)
    direction = cfg["task"]["direction"]
    grid = solver.make_grid(sys_, **cfg["grid"])
    f = _need(build_source(cfg, sys_), "green task needs task.source")
    green = solver.green_plus if direction == "+" else solver.green_minus
    fld = green(sys_, bcs, f, grid, force=force)
    res = solver.green_residual(sys_, fld, f)
    c_max = geometry.max_characteristic_speed(sys_.chart, sys_, per_axis=grid.nx)
    ok, margin = solver.causal_support_ok(fld, f, c_max, cells=2, threshold=1e-3,
                                          future=direction == "+")
    solver.write_field(out / "field.bin", fld)
    return (0 if ok else 1), (f"green {direction}: nx={grid.nx} residual={_fmt(res)} "
                              f"causal={ok} margin={_fmt(margin)}\n")


def cmd_converge(cfg, out, force, seed):
    chart = build_chart(cfg)
    if (name := cfg["chart"]["name"]) != "minkowski_strip":     # its exact solutions' chart
        raise ConfigError(f"converge needs the minkowski_strip chart, got {name!r}")
    case = cfg["task"]["case"]
    if case == "advection_sine":
        sys_ = system.advection_system(chart)
        bcs = {geometry.LEFT: boundary.zero_trace(1),
               geometry.RIGHT: boundary.no_condition(1)}

        def exact(t, xs):
            return (np.sin(2 * np.pi * xs) * np.exp(-t))[:, None]

        def f(t, xs2):
            xs = xs2[:, 0]
            return ((-np.sin(2 * np.pi * xs) + 2 * np.pi * np.cos(2 * np.pi * xs))
                    * np.exp(-t))[:, None]

    else:
        prob = reduction.SecondOrderProblem("normally_hyperbolic", chart, k=1)
        sys_ = reduction.wave_to_first_order(prob)
        bcs = boundary.neumann_like(sys_.layout)
        f = None

        def exact(t, xs):
            return np.stack([-np.pi * np.cos(np.pi * xs) * np.sin(np.pi * t),
                             -np.pi * np.sin(np.pi * xs) * np.cos(np.pi * t),
                             np.cos(np.pi * xs) * np.cos(np.pi * t)], axis=1)

    def factory(nx):
        grid = solver.make_grid(sys_, nx, cfg["grid"]["cfl"])
        return sys_, bcs, f, lambda xs: exact(chart.t_range[0], xs), grid

    rep_c = solver.convergence_study(factory, cfg["task"]["grids"], exact)
    rows = [(nx, e, o) for nx, e, o in
            zip(rep_c.nxs, rep_c.errors, np.concatenate([[np.nan], rep_c.orders]))]
    write_csv(out / "errors.csv", ["grid", "error", "order"], rows)
    ok = np.all((rep_c.orders > 0.8) & (rep_c.orders < 1.2))
    return (0 if ok else 1), (
        f"case {case}:\n" + rep_c.summary()
        + f"\nobserved orders: {[round(float(o), 3) for o in rep_c.orders]}\n")


def cmd_compat(cfg, out, force, seed):
    sys_, bcs = build_problem(cfg)
    order = cfg["task"]["order"]
    h = build_initial(cfg, sys_)
    f = build_source(cfg, sys_)
    rep_c = reduction.compatibility_check(sys_, bcs, f, h, order, nx=cfg["task"]["nx"],
                                          tol=cfg["task"]["tol"])
    rows = [(k, fi, rep_c.residuals[k, fi])
            for k in range(order + 1) for fi in range(rep_c.residuals.shape[1])]
    write_csv(out / "residuals.csv", ["order", "face", "residual"], rows)
    return (0 if rep_c.passed else 1), (
        f"compatibility up to order {order}: max residual "
        f"{_fmt(rep_c.max_residual)} -> {'PASS' if rep_c.passed else 'FAIL'}\n")


COMMANDS = {"check": cmd_check, "reduce": cmd_reduce, "solve": cmd_solve,
            "green": cmd_green, "converge": cmd_converge, "compat": cmd_compat}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="friedrichs",
        description="Verification toolkit for Friedrichs systems on spacetime "
                    "strips with timelike boundary")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--force", action="store_true",
                        help="run non-admissible boundary conditions "
                             "(counterexample studies)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for sampled verifications")
    args = parser.parse_args(argv)
    try:
        cfg = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config: {exc}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        code, report = COMMANDS[args.command](read_config(cfg), out, args.force, args.seed)
    except NotAdmissibleError as exc:
        print(f"refusing to run: bc '{exc.bc.name}' not admissible on face {exc.face} "
              f"(use --force for counterexample studies)")
        print(exc.report.summary())
        return 1
    except NotSymmetricError as exc:
        print(f"refusing to run: system '{exc.name}' fails (S), max relative asymmetry "
              f"{exc.report.max_asymmetry:.3e} (use --force for counterexample studies)")
        return 1
    except (ConfigError, ContractError, BoundaryClosureError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    report = f"config: {config_digest(cfg)}\n" + report
    (out / "report.txt").write_text(report)
    print(report, end="")
    return code


if __name__ == "__main__":
    sys.exit(main())
