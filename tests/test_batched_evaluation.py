"""Coefficient callables take one time per row, so no code in ``src/`` needs
to evaluate them once per time, point or axis: a caller that has many
(t, x) rows evaluates them in one call.  This guard finds an evaluation
called lexically inside a loop or a comprehension."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "friedrichs"
EVALUATORS = {"coeff_at", "metric_at", "beta_at", "h_at", "h_inv_at"}


def repeated_parts(node):
    """The parts of a loop or comprehension that run once per iteration."""
    if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
        return node.body + node.orelse
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        first, *rest = node.generators
        elts = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
        return elts + first.ifs + [part for gen in rest for part in (gen.iter, *gen.ifs)]
    return []


def evaluations_in_loops(tree):
    """(line, name) of every evaluator call inside a repeated part."""
    found = set()
    for loop in ast.walk(tree):
        for part in repeated_parts(loop):
            for node in ast.walk(part):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in EVALUATORS):
                    found.add((node.lineno, node.func.attr))
    return sorted(found)


def test_no_coefficient_evaluation_inside_a_loop():
    found = {path.name: evaluations_in_loops(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py"))}
    found = {name: calls for name, calls in found.items() if calls}
    assert not found, f"evaluate these in one call over all rows instead: {found}"


def test_the_guard_sees_loops_and_comprehensions():
    code = """if True:
        for t in ts:
            sys.coeff_at(t, xs)
        [chart.h_inv_at(t, xs) for t in ts]
        {t: chart.beta_at(t, xs) for t in ts}
        while go:
            f(sys.metric_at(t, xs))
        for A in sys.coeff_at(ts, xs):      # evaluated once: not flagged
            pass
        [a for a in chart.h_at(ts, xs)]     # likewise
    """
    assert evaluations_in_loops(ast.parse(code)) == [
        (3, "coeff_at"), (4, "h_inv_at"), (5, "beta_at"), (7, "metric_at")]
