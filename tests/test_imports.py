"""Every name a library or test module imports is used in that module."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "artifact"


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used)
    assert not unused, f"unused imports in {path.name}: {unused}"


def _private_defs(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def _referenced_names(nodes):
    names = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_no_unreferenced_private_definitions():
    """Every module-level _private function or class is referenced somewhere
    in the package outside its own definition."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    dead = []
    for name, tree in trees.items():
        for d in _private_defs(tree):
            others = [node for other, t in trees.items() for node in t.body
                      if other != name or node is not d]
            if d.name not in _referenced_names(others):
                dead.append(f"{name}:{d.lineno} {d.name}")
    assert not dead, f"unreferenced private definitions: {dead}"


def _cache_names(tree):
    """Local names bound to functools.lru_cache or functools.cache."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "functools"
            for alias in node.names if alias.name in ("lru_cache", "cache")}


def _is_cache(node, names):
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return (isinstance(target.value, ast.Name) and target.value.id == "functools"
                and target.attr in ("lru_cache", "cache"))
    return isinstance(target, ast.Name) and target.id in names


def test_caches_decorate_module_level_functions():
    """perfbench/tracing.clear_caches empties the caches it finds among
    module attributes; a cache on a nested function or built by a call
    inside a body would survive it and warm the traced pass."""
    stray = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = _cache_names(tree)
        allowed = {id(part) for node in tree.body if isinstance(node, ast.FunctionDef)
                   for dec in node.decorator_list if _is_cache(dec, names)
                   for part in (dec, getattr(dec, "func", dec))}
        stray += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute, ast.Call))
                  and _is_cache(node, names) and id(node) not in allowed]
    assert not stray, f"caches off module-level functions: {stray}"


#: Caches keyed by a model or by a bound that grows with the input.
BOUNDED_CACHES = {
    "arith.py": {"primes_upto"},
    "globalreport.py": {"_good_trace", "_proven_isogeny"},
    "localsolver.py": {"genus"},
    "semistability.py": {"defect"},
    "weierstrass.py": {"minimal_model_at"},
}


@pytest.mark.parametrize("module", sorted(BOUNDED_CACHES))
def test_growing_caches_are_bounded(module):
    """Each listed cache is written lru_cache(maxsize=<int>)."""
    tree = ast.parse((SRC / module).read_text())
    names = _cache_names(tree)
    sizes = {}
    for node in tree.body:
        for dec in getattr(node, "decorator_list", ()):
            if _is_cache(dec, names) and isinstance(dec, ast.Call):
                args = dec.args + [kw.value for kw in dec.keywords if kw.arg == "maxsize"]
                sizes[node.name] = getattr(args[0], "value", None) if args else None
    unbounded = [name for name in BOUNDED_CACHES[module]
                 if not isinstance(sizes.get(name), int)]
    assert not unbounded, f"{module}: no finite maxsize on {unbounded}"


def test_defect_does_no_field_arithmetic():
    """The semistability defect is a table on the invariants: its module
    imports nothing from the p-adic root finder or the finite fields."""
    tree = ast.parse((SRC / "semistability.py").read_text())
    modules = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    assert not [m for m in modules
                if m and m.split(".")[-1] in ("padic", "fq")]
