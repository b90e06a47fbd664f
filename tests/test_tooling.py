"""Static checks on the package source, with the stdlib ``ast`` module only."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "focalclass"


def _unused_imports(source: str) -> list:
    """Names bound by module-level imports that the module never reads and
    does not list in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


_MEMOISERS = {"cache", "lru_cache", "cached_property"}


def _memoiser_uses(source: str) -> list:
    """Lines that import or name a functools memoiser: a cache of that kind
    outlives the values it keys on, where a slot on an immutable value (as
    MatQ._spectral and the SpectralData slots are) is freed with it."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "functools"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names = {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = {node.attr} if node.value.id in modules else set()
        else:
            continue
        found += [(node.lineno, name) for name in sorted(names & _MEMOISERS)]
    return found


def test_unused_import_detector():
    source = ("import os\nimport sys as system\nfrom math import gcd, lcm\n"
              "__all__ = ['lcm']\nprint(system.argv, gcd)\n")
    assert _unused_imports(source) == [(1, "os")]


def test_no_unused_module_level_imports():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    assert modules
    unused = {p.name: _unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: found for name, found in unused.items() if found} == {}


def test_memoiser_detector():
    source = ("import functools\nimport functools as ft\n"
              "from functools import cached_property, reduce\n"
              "@functools.lru_cache(None)\ndef f(x):\n    return reduce(max, x)\n"
              "cache = ft.cache(f)\n")
    assert sorted(_memoiser_uses(source)) == [(3, "cached_property"), (4, "lru_cache"), (7, "cache")]


def test_no_functools_memoisers():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {p.name: _memoiser_uses(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: uses for name, uses in found.items() if uses} == {}
