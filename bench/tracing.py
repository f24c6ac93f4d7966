"""Span tracing for the benchmark's traced runs, from outside the package.

Wrappers replace package functions under the name their callers look up:
module attributes for calls like ``geometry.outward_normal(...)``, every
namespace that bound a function with ``from … import`` (``solver`` holds its
own ``eigh_pencil`` and ``admissibility``), class attributes for methods and
``cli.COMMANDS`` for the subcommands. They are installed only around a traced
study, so untraced studies run the package unmodified.

A span is ``[name, start_ns, end_ns, parent_index, study]``; spans stay in
memory until the run writes them out once at the end. A layer's self time is
its span's duration minus the durations of its direct children, which nest
inside it because the package runs in one thread.
"""

import functools
import inspect
import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

from friedrichs import boundary, cli, clifford, geometry, linalg, reduction, solver, system

#: self time in seconds of these span names (several functions may share a name)
SELF_TIMES = [
    "solver.solve.explicit", "solver.solve.implicit", "solver.energy_trace",
    "solver.support", "solver.green_residual", "solver.make_grid",
    "solver.write_field", "system.coeff_at", "system.positive_metric_at",
    "system.checks", "linalg.eigh_pencil", "geometry.max_characteristic_speed",
    "boundary.admissibility", "reduction.compatibility_check", "reduction.build",
    "clifford.build", "cli.check", "cli.solve", "cli.green", "cli.converge",
    "cli.compat", "cli.reduce",
]

#: exact counts kept by the wrappers (``.calls`` of a span is counted too)
COUNTS = [
    "solver.solve.cell_steps", "solver.pointwise_norm.calls", "solver.field.bytes",
    "system.coeff_at.calls", "system.coeff_at.rows", "system.positive_metric_at.calls",
    "system.symbol.calls", "linalg.eigh_pencil.calls", "geometry.outward_normal.calls",
    "geometry.max_characteristic_speed.calls", "boundary.admissibility.calls",
    "boundary.bc_matrix.calls", "cli.output.bytes",
]

_SOLVE_GRID = inspect.signature(solver.solve)


def _solve_grid(args, kwargs):
    return _SOLVE_GRID.bind(*args, **kwargs).arguments["grid"]


def _solve_kind(args, kwargs):
    staggered = _solve_grid(args, kwargs).staggered
    return "solver.solve.explicit" if staggered else "solver.solve.implicit"


def _count_solve(count, args, kwargs, fld):
    grid = _solve_grid(args, kwargs)
    count("solver.solve.cell_steps", grid.nx * grid.nt)
    count(_solve_kind(args, kwargs) + ".cell_steps", grid.nx * grid.nt)
    count("solver.field.bytes", fld.values.nbytes)


def _count_levels(count, args, kwargs, trace):
    fld = args[0]
    count("solver.energy_trace.cell_levels", fld.values.shape[0] * fld.values.shape[1])


def _count_rows(count, args, kwargs, coeffs):
    count("system.coeff_at.rows", coeffs[0].shape[0])


def _hooks():
    """(owners, attribute, span name or None for a bare count, counter)."""
    FS, GF, BC = system.FriedrichsSystem, solver.GridField, boundary.BoundaryCondition
    hooks = [
        ([solver], "solve", _solve_kind, _count_solve),
        ([solver], "energy_trace", "solver.energy_trace", _count_levels),
        ([solver], "support_growth_margins", "solver.support", None),
        ([solver], "causal_support_ok", "solver.support", None),
        ([solver], "green_residual", "solver.green_residual", None),
        ([solver], "make_grid", "solver.make_grid", None),
        ([solver], "write_field", "solver.write_field", None),
        ([GF], "pointwise_norm", None, "solver.pointwise_norm.calls"),
        ([FS], "coeff_at", "system.coeff_at", _count_rows),
        ([FS], "positive_metric_at", "system.positive_metric_at", None),
        ([FS], "symbol", None, "system.symbol.calls"),
        ([linalg, solver, boundary, system], "eigh_pencil", "linalg.eigh_pencil", None),
        ([geometry], "outward_normal", None, "geometry.outward_normal.calls"),
        ([geometry], "max_characteristic_speed", "geometry.max_characteristic_speed", None),
        ([boundary, solver], "admissibility", "boundary.admissibility", None),
        ([BC], "matrix", None, "boundary.bc_matrix.calls"),
        ([reduction], "compatibility_check", "reduction.compatibility_check", None),
    ]
    hooks += [([system], name, "system.checks", None) for name in (
        "check_symmetric", "check_hyperbolic", "check_positive", "constant_characteristic")]
    hooks += [([reduction], name, "reduction.build", None) for name in (
        "wave_to_first_order", "kg_to_first_order", "reaction_diffusion_to_first_order")]
    hooks += [([clifford], name, "clifford.build", None) for name in (
        "build_rep", "dirac_system")]
    hooks += [([cli.COMMANDS], name, f"cli.{name}", None) for name in sorted(cli.COMMANDS)]
    return hooks


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Spans and counts of traced studies, keyed by study id."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)
        self.study = None
        self._stack = []
        self._patches = []
        for owners, attr, name, counter in _hooks():
            fn = _get(owners[0], attr)
            wrapper = (self._counting(fn, counter) if name is None
                       else self._spanning(fn, name, counter))
            self._patches += [(owner, attr, fn, wrapper) for owner in owners]

    def count(self, key, n=1):
        self.counts[self.study][key] += n

    def _counting(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[self.study][key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanning(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            stack = self._stack
            span = [label, 0, 0, stack[-1] if stack else -1, self.study]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            self.counts[self.study][label + ".calls"] += 1
            if counter is not None:
                counter(self.count, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, study):
        """Trace calls into the package, attributed to ``study``."""
        for owner, attr, _, wrapper in self._patches:
            _set(owner, attr, wrapper)
        self.study = study
        try:
            yield self
        finally:
            self.study = None
            for owner, attr, fn, _ in self._patches:
                _set(owner, attr, fn)

    def self_ns(self):
        """Self time of every span, in span order."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def study_totals(self):
        """study -> {metric: value}: self seconds, inclusive ns per cell-step
        and per cell-level, and counts."""
        self_s = defaultdict(Counter)
        incl_ns = defaultdict(Counter)
        for (name, start, end, _, study), own in zip(self.spans, self.self_ns()):
            self_s[study][name] += own / 1e9
            incl_ns[study][name] += end - start
        totals = {}
        for study in set(self_s) | set(self.counts):
            c = self.counts[study]
            row = {f"{name}.s": self_s[study][name] for name in SELF_TIMES}
            row.update({key: c[key] for key in COUNTS})
            for kind in ("explicit", "implicit"):
                steps = c[f"solver.solve.{kind}.cell_steps"]
                row[f"solver.solve.{kind}.ns_per_cell_step"] = (
                    incl_ns[study][f"solver.solve.{kind}"] / steps if steps else 0.0)
            levels = c["solver.energy_trace.cell_levels"]
            row["solver.energy_trace.ns_per_cell_level"] = (
                incl_ns[study]["solver.energy_trace"] / levels if levels else 0.0)
            totals[study] = row
        return totals

    def layer_metrics(self, setup, studies):
        """Per-layer numbers of one set-up plus one study: the set-up's value
        plus the median over the traced ``studies``; ratios are per study."""
        totals = self.study_totals()
        empty = dict.fromkeys(next(iter(totals.values())), 0)
        base = totals.get(setup, empty)
        rows = [totals.get(s, empty) for s in studies]
        out = {}
        for key in base:
            values = [row[key] for row in rows]
            median = (statistics.median_low if key in COUNTS else statistics.median)(values)
            out[key] = median if "ns_per_cell" in key else base[key] + median
        return out

    def dump(self, path):
        """Write every span and count, once, as JSON."""
        path.write_text(json.dumps({
            "fields": ["name", "start_ns", "end_ns", "parent", "study"],
            "spans": self.spans,
            "counts": {str(k): dict(v) for k, v in self.counts.items()},
        }))
