"""Every public function and method of the package has a caller in ``src/`` or
``bench/``, or is named in README's list of the API kept for the acceptance
criteria and the paper: code that only tests reach is either deleted or kept
on purpose, in one visible list."""

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
    """Every name read or called, every attribute, and every string that is
    exactly an identifier (the benchmark hooks functions by name)."""
    names = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


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
    used = referenced([*modules.values(), *bench])
    orphans = sorted(d for d in defs - kept() if d.rsplit(".", 1)[-1] not in used)
    assert not orphans, f"no caller in src/ or bench/ and not in README's kept list: {orphans}"


def test_the_kept_list_names_public_functions():
    _, defs = package_defs()
    names = kept()
    assert names and names <= defs, sorted(names - defs)
