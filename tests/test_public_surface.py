"""Every public function and method of the package has a caller in ``src/`` or
``bench/``, or is named in README's list of the API kept for the acceptance
criteria and the paper: code that only tests reach is either deleted or kept
on purpose, in one visible list.  Every option, a parameter or dataclass
field with a default, is set by some caller: an option that nothing sets is a
configuration that nothing runs."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "friedrichs"
KEPT_HEADING = "## API kept for the acceptance criteria and the paper"


def public_defs(tree):
    """``name`` of each public top-level function, ``Class.name`` of each
    public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            yield from (f"{node.name}.{sub.name}" for sub in node.body
                        if isinstance(sub, ast.FunctionDef))


def referenced(trees):
    """The names read or called, with every attribute and every string that
    is exactly an identifier (the benchmark hooks functions by name); and
    those attributes and strings alone, the only way to reach a method."""
    names, attrs = set(), set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attrs.add(node.value)
    return names | attrs, attrs


def kept():
    """The ``module.name`` entries of README's kept-API list."""
    readme = (ROOT / "README.md").read_text()
    assert KEPT_HEADING in readme
    section = readme.split(KEPT_HEADING, 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`(\w+\.[\w.]+)`", section))


def package_defs():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    defs = {f"{mod}.{name}" for mod, tree in modules.items() for name in public_defs(tree)
            if not name.rsplit(".", 1)[-1].startswith("_")}
    return modules, defs


def test_every_public_function_has_a_caller_or_is_kept():
    modules, defs = package_defs()
    bench = [ast.parse(p.read_text()) for p in sorted((ROOT / "bench").glob("*.py"))]
    names, attrs = referenced([*modules.values(), *bench])
    orphans = sorted(d for d in defs - kept()
                     if d.split(".")[-1] not in (attrs if d.count(".") == 2 else names))
    assert not orphans, f"no caller in src/ or bench/ and not in README's kept list: {orphans}"


def test_the_kept_list_names_public_functions():
    _, defs = package_defs()
    names = kept()
    assert names and names <= defs, sorted(names - defs)


#: options that callers set in ways the rule below cannot see, and why
OPTION_EXEMPTIONS = {
    ("green_plus", "force"): "cli.cmd_green calls the operator through a variable",
    ("green_minus", "force"): "cli.cmd_green calls the operator through a variable",
    ("ultrastatic", "waves"): "cli.build_chart passes the chart params as **params",
}


def options(tree):
    """(callee name, option name, position among the call's arguments) of
    every parameter with a default of a function or method, and every
    dataclass field with a default that ``__init__`` takes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
            yield from ((node.name, s.target.id, i) for i, s in enumerate(fields)
                        if s.value is not None and "init=False" not in ast.unparse(s.value))
        elif isinstance(node, ast.FunctionDef):
            args = node.args.posonlyargs + node.args.args
            bound = 1 if args and args[0].arg in ("self", "cls") else 0
            first = len(args) - len(node.args.defaults)
            yield from ((node.name, a.arg, i - bound) for i, a in enumerate(args) if i >= first)
            yield from ((node.name, a.arg, None) for a, d in
                        zip(node.args.kwonlyargs, node.args.kw_defaults) if d is not None)


def sets(call, option, position):
    """Whether ``call`` passes the option by keyword, by position, or may
    pass it through ``*`` or ``**``."""
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg in (None, option) for k in call.keywords)
            or (position is not None and len(call.args) > position))


def test_every_option_is_set_by_a_caller():
    modules, _ = package_defs()
    others = [ast.parse(p.read_text()) for d in ("bench", "tests")
              for p in sorted((ROOT / d).glob("*.py"))]
    calls = {}
    for node in (n for tree in [*modules.values(), *others] for n in ast.walk(tree)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            calls.setdefault(name, []).append(node)
    opts = [o for tree in modules.values() for o in options(tree) if not o[1].startswith("_")]
    unset = sorted(o[:2] for o in opts
                   if not any(sets(c, *o[1:]) for c in calls.get(o[0], []))
                   and o[:2] not in OPTION_EXEMPTIONS)
    assert not unset, f"options that no caller sets: {unset}"
