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
from .errors import ConfigError, ContractError, NotAdmissibleError


def config_digest(cfg):
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def _fmt(x):
    return format(float(x), ".17g")


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) if isinstance(v, (int, float, np.floating)) else str(v)
                       for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


# -- config -> objects -------------------------------------------------------


def build_chart(cfg):
    spec = cfg.get("chart")
    if not spec:
        raise ConfigError("config needs a 'chart' section")
    name = spec.get("name", "minkowski_strip")
    if name not in geometry.CHART_BUILDERS:
        raise ConfigError(f"unknown chart '{name}'; have {sorted(geometry.CHART_BUILDERS)}")
    kwargs = dict(spec.get("params", {}))
    kwargs["t_range"] = tuple(spec.get("t_range", (0.0, 1.0)))
    kwargs["lengths"] = tuple(spec.get("lengths", (1.0,)))
    try:
        return geometry.CHART_BUILDERS[name](**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad chart parameters for '{name}': {exc}") from exc


def build_system(cfg, chart):
    spec = cfg.get("system")
    if not spec or "builder" not in spec:
        raise ConfigError("config needs system.builder")
    builder = spec["builder"]
    params = dict(spec.get("params", {}))
    if builder == "advection":
        return system.advection_system(chart, speed=params.get("speed", 1.0)), None
    if builder == "dirac":
        rep = clifford.build_rep(chart.dim_space + 1)
        return clifford.dirac_system(rep, chart), rep
    if builder == "wave_reduction":
        prob = reduction.SecondOrderProblem(
            "normally_hyperbolic", chart, k=params.get("k", 1),
            c=_const_matrix_fn(params.get("c"), params.get("k", 1)))
        return reduction.wave_to_first_order(prob), None
    if builder == "kg_reduction":
        prob = reduction.SecondOrderProblem(
            "klein_gordon", chart, k=params.get("k", 1), mass=params.get("mass", 1.0))
        return reduction.kg_to_first_order(prob), None
    if builder == "reaction_diffusion":
        prob = reduction.SecondOrderProblem(
            "reaction_diffusion", chart, k=params.get("k", 1),
            c=_const_matrix_fn(params.get("c"), params.get("k", 1)))
        return reduction.reaction_diffusion_to_first_order(
            prob, params.get("lambda", 0.0)), None
    if builder == "custom":
        try:
            A = [np.array(a, dtype=complex) for a in params["A"]]
            C = np.array(params["C"], dtype=complex) if "C" in params else None
            gram = np.array(params["gram"], dtype=complex) if "gram" in params else None
        except KeyError as exc:
            raise ConfigError(f"custom system needs coefficient tables: {exc}") from exc
        return system.constant_system(chart, A, C, gram), None
    raise ConfigError(f"unknown system builder '{builder}'")


def _const_matrix_fn(value, k):
    if value is None:
        return None
    arr = np.array(value, dtype=complex) * (np.eye(k) if np.ndim(value) == 0 else 1.0)

    def fn(t, xs):
        return np.broadcast_to(arr, (xs.shape[0], k, k))

    return fn


def build_bc(spec, sys_, rep):
    name = spec.get("name")
    params = dict(spec.get("params", {}))
    spinor = {"mit_bag": boundary.mit_bag, "chirality": boundary.chirality,
              "riemannian_mit": boundary.riemannian_mit,
              "riemannian_chirality": boundary.riemannian_chirality}
    if name in spinor:
        if rep is None:
            raise ConfigError(f"boundary condition '{name}' needs a dirac system")
        kwargs = {"sign": params.get("sign", -1)} if "mit" in name else \
                 {"sign": params.get("sign", -1 if name == "chirality" else 1)}
        return spinor[name](rep, **kwargs)
    if name == "robin":
        return boundary.robin(params.get("a", 1.0), params.get("b", 0.0), _layout(sys_))
    if name == "neumann_like":
        return boundary.neumann_like(_layout(sys_))
    if name == "transparent":
        return boundary.transparent(params.get("b", 1.0), _layout(sys_))
    if name == "dirichlet":
        return boundary.dirichlet(_layout(sys_))
    if name == "zero_trace":
        return boundary.zero_trace(sys_.fiber_rank)
    if name == "no_condition":
        return boundary.no_condition(sys_.fiber_rank)
    if name == "custom":
        return boundary.custom_bc(np.array(params["matrix"], dtype=complex))
    raise ConfigError(f"unknown boundary condition '{name}'")


def build_bcs(cfg, sys_, rep):
    spec = cfg.get("bc")
    if not spec:
        raise ConfigError("config needs a 'bc' section")
    if "name" in spec:
        return build_bc(spec, sys_, rep)
    names = {"left": geometry.LEFT, "right": geometry.RIGHT}
    out = {}
    for key, sub in spec.items():
        if key not in names:
            raise ConfigError(f"unknown face '{key}' (use left/right)")
        out[names[key]] = build_bc(sub, sys_, rep)
    return out


def _layout(sys_):
    if sys_.layout is None:
        raise ConfigError("this boundary condition needs a reduced system "
                          "(wave/kg/reaction-diffusion builder)")
    return sys_.layout


def _profile(spec):
    kind = spec.get("profile", "bump")
    center = spec.get("center", 0.5)
    width = spec.get("width", 0.2)
    amp = spec.get("amplitude", 1.0)
    waves = spec.get("waves", 1)
    if kind == "bump":
        def fn(xs):
            s = (xs - center) / width
            out = np.zeros_like(xs)
            m = np.abs(s) < 1
            out[m] = amp * np.exp(1.0 - 1.0 / (1.0 - s[m] ** 2))
            return out
    elif kind == "sine":
        def fn(xs):
            return amp * np.sin(2 * np.pi * waves * xs)
    elif kind == "cosine":
        def fn(xs):
            return amp * np.cos(np.pi * waves * xs)
    elif kind == "zero":
        def fn(xs):
            return np.zeros_like(xs)
    else:
        raise ConfigError(f"unknown profile '{kind}'")
    return fn


def build_initial(cfg, sys_):
    spec = cfg.get("task", {}).get("initial", [])
    if isinstance(spec, dict):
        spec = [spec]
    constrain = cfg.get("task", {}).get("constrain_gradient", False)

    def h(xs):
        out = np.zeros((xs.size, sys_.fiber_rank), dtype=complex)
        for item in spec:
            comp = item.get("component", 0)
            out[:, comp] += _profile(item)(xs)
        if constrain and sys_.layout is not None:
            L = sys_.layout
            src = out[:, L.tail_start:] if L.tail_start is not None else out[:, :L.k]
            out[:, L.grad_slot(0)] = np.gradient(src, xs, axis=0)
        return out

    return h


def build_source(cfg, sys_):
    spec = cfg.get("task", {}).get("source")
    if spec is None:
        return None
    fx = _profile(spec)
    tc = spec.get("t_center", 0.5)
    tw = spec.get("t_width", 0.2)
    comp = spec.get("component", 0)

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
    bc_map = solver._as_bc_map(sys_, bcs)
    sym = system.check_symmetric(sys_)
    hyp = system.check_hyperbolic(sys_, seed=seed) if sym.verdict else None
    pos = system.check_positive(sys_) if sym.verdict else None
    cc = system.constant_characteristic(sys_)
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
    ts = chart.sample_times(3)
    xs = np.linspace(0.0, chart.space_extent[0], 5)[:, None]
    rows = []
    for t in ts:
        A, C = sys_.coeff_at(t, xs)
        G = sys_.metric_at(t, xs)
        for p in range(xs.shape[0]):
            for label, M in [("A0", A[p, 0]), ("A1", A[p, 1]), ("C", C[p]), ("G", G[p])]:
                for i in range(sys_.fiber_rank):
                    for j in range(sys_.fiber_rank):
                        rows.append((t, xs[p, 0], label, i, j,
                                     M[i, j].real, M[i, j].imag))
    write_csv(out / "coefficients.csv",
              ["t", "x", "matrix", "row", "col", "re", "im"], rows)
    cls = sys_.classify()
    return 0, (f"system: {sys_.name} N={sys_.fiber_rank} "
               f"symmetric={cls.symmetric} hyperbolic={cls.hyperbolic} "
               f"positive={cls.positive} char_dim={cls.characteristic_dim}\n")


def _grid(cfg, sys_):
    gspec = cfg.get("grid", {})
    return solver.make_grid(sys_, gspec.get("nx", 128), gspec.get("cfl", 0.5))


def cmd_solve(cfg, out, force, seed):
    sys_, bcs = build_problem(cfg)
    grid = _grid(cfg, sys_)
    fld = solver.solve(sys_, bcs, f=build_source(cfg, sys_),
                       h=build_initial(cfg, sys_), grid=grid, force=force)
    tr = solver.energy_trace(fld, sys_)
    write_csv(out / "energy.csv", ["t", "E", "flux"],
              list(zip(tr.ts, tr.energy, tr.flux)))
    solver.write_field(out / "field.bin", fld)
    report = (f"solve: nx={grid.nx} nt={grid.nt} dt={_fmt(grid.dt)}\n"
              f"energy ratio E(T)/E(0): {_fmt(tr.final_ratio)}\n"
              f"max per-step energy growth: {_fmt(tr.max_step_growth)}\n")
    if sys_.positive_metric_at(grid.t0, grid.xs[:1, None]) is None:
        report += ("note: E(t) is the indefinite fiber form (the system has no "
                   "positive companion metric), not a norm\n")
    if force:
        report += "forced run (admissibility not enforced): energy growth is diagnostic\n"
    return 0, report


def cmd_green(cfg, out, force, seed):
    sys_, bcs = build_problem(cfg)
    direction = cfg.get("task", {}).get("direction", "+")
    if direction not in ("+", "-"):
        raise ConfigError(f"task.direction must be '+' or '-', got {direction!r}")
    grid = _grid(cfg, sys_)
    f = build_source(cfg, sys_)
    if f is None:
        raise ConfigError("green task needs task.source")
    green = solver.green_plus if direction == "+" else solver.green_minus
    fld = green(sys_, bcs, f, grid, force=force)
    res = solver.green_residual(sys_, fld, f)
    c_max = geometry.max_characteristic_speed(sys_.chart, sys_, per_axis=8)
    ok, margin = solver.causal_support_ok(fld, f, c_max, cells=2, threshold=1e-3,
                                          future=direction == "+")
    solver.write_field(out / "field.bin", fld)
    return (0 if ok else 1), (f"green {direction}: nx={grid.nx} residual={_fmt(res)} "
                              f"causal={ok} margin={_fmt(margin)}\n")


def cmd_converge(cfg, out, force, seed):
    chart = build_chart(cfg)
    case = cfg.get("task", {}).get("case", "advection_sine")
    nxs = cfg.get("task", {}).get("grids", [64, 128, 256])
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

    elif case == "wave_cosine":
        prob = reduction.SecondOrderProblem("normally_hyperbolic", chart, k=1)
        sys_ = reduction.wave_to_first_order(prob)
        bcs = boundary.neumann_like(sys_.layout)
        f = None

        def exact(t, xs):
            return np.stack([-np.pi * np.cos(np.pi * xs) * np.sin(np.pi * t),
                             -np.pi * np.sin(np.pi * xs) * np.cos(np.pi * t),
                             np.cos(np.pi * xs) * np.cos(np.pi * t)], axis=1)
    else:
        raise ConfigError(f"unknown convergence case '{case}'")

    def factory(nx):
        grid = solver.make_grid(sys_, nx, cfg.get("grid", {}).get("cfl", 0.5))
        return sys_, bcs, f, lambda xs: exact(chart.t_range[0], xs), grid

    rep_c = solver.convergence_study(factory, nxs, exact)
    rows = [(nx, e, o) for nx, e, o in
            zip(rep_c.nxs, rep_c.errors, np.concatenate([[np.nan], rep_c.orders]))]
    write_csv(out / "errors.csv", ["grid", "error", "order"], rows)
    ok = np.all((rep_c.orders > 0.8) & (rep_c.orders < 1.2))
    return (0 if ok else 1), (
        f"case {case}:\n" + rep_c.summary()
        + f"\nobserved orders: {[round(float(o), 3) for o in rep_c.orders]}\n")


def cmd_compat(cfg, out, force, seed):
    sys_, bcs = build_problem(cfg)
    if isinstance(bcs, dict):
        raise ConfigError("compat task uses a single bc for the whole boundary")
    order = cfg.get("task", {}).get("order", 0)
    nx = cfg.get("task", {}).get("nx", 128)
    h = build_initial(cfg, sys_)
    f = build_source(cfg, sys_)
    rep_c = reduction.compatibility_check(sys_, bcs, f, h, order, nx=nx,
                                          tol=cfg.get("task", {}).get("tol", 1e-8))
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
    np.random.seed(args.seed)
    try:
        code, report = COMMANDS[args.command](cfg, out, args.force, args.seed)
    except NotAdmissibleError as exc:
        print(f"refusing to run: bc '{exc.bc.name}' not admissible on face {exc.face} "
              f"(use --force for counterexample studies)")
        print(exc.report.summary())
        return 1
    except (ConfigError, ContractError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    report = f"config: {config_digest(cfg)}\n" + report
    (out / "report.txt").write_text(report)
    print(report, end="")
    return code


if __name__ == "__main__":
    sys.exit(main())
