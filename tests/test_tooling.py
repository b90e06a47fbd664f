"""Static checks on the package source, with the stdlib ``ast`` module only."""

import ast
import sys
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
    outlives the values it keys on, where a cache field on an immutable value
    (as MatQ._spectral and the SpectralData caches are) is freed with it."""
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


def _non_stdlib_imports(source: str) -> list:
    """(line, module) for each absolute import, at any depth, of a module
    outside the standard library; relative imports are the package's own."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names]
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


def test_non_stdlib_import_detector():
    source = ("from __future__ import annotations\nimport os, mpmath.libmp\n"
              "from fractions import Fraction\nfrom .exactnum import LogRatio\n"
              "def f():\n    from mpmath.libmp import mpf_log\n    import numpy as np\n")
    assert _non_stdlib_imports(source) == [(2, "mpmath.libmp"), (6, "mpmath.libmp"), (7, "numpy")]


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {p.name: _non_stdlib_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: imports for name, imports in found.items() if imports} == {}


def _imports_of(source: str, modules: set) -> list:
    """(line, module) for each import of one of `modules`, of a submodule or
    of a name from one, at any depth; relative imports are the package's own."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names if name.split(".")[0] in modules]
    return found


def test_random_import_detector():
    source = ("import os, random\nfrom random import Random\nfrom .random import x\n"
              "def f():\n    import random as r\n    import logging.handlers, typing\n"
              "    from dataclasses import field\n    return r, Random, os, x\n")
    assert _imports_of(source, {"random"}) == [(1, "random"), (2, "random"), (5, "random")]
    assert _imports_of(source, {"logging", "dataclasses", "typing"}) == [
        (6, "logging.handlers"), (6, "typing"), (7, "dataclasses")]


def test_package_draws_no_random_numbers():
    """Every search in the program is exact and deterministic."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {p.name: _imports_of(p.read_text(encoding="utf-8"), {"random"}) for p in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_package_imports_no_typing_and_logging_lazily():
    """A CLI child imports no module it does not use: annotations are
    strings and the type aliases are unions of classes, and logging is
    imported only by cli._configure_logging, when FOCAL_LOG names a level."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {p.name: _imports_of(p.read_text(encoding="utf-8"), {"typing", "logging"})
             for p in modules}
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    configure = next(node for node in ast.walk(ast.parse(source))
                     if isinstance(node, ast.FunctionDef) and node.name == "_configure_logging")
    inside = _imports_of(ast.get_source_segment(source, configure), {"logging"})
    assert len(inside) == 1
    assert {name: lines for name, lines in found.items() if lines} == {
        "cli.py": [(configure.lineno - 1 + line, name) for line, name in inside]}


def test_package_imports_no_argparse():
    """argv is read from cli._COMMANDS: argparse's gettext lookups would
    import locale on every CLI run."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {p.name: _imports_of(p.read_text(encoding="utf-8"), {"argparse", "gettext", "locale"})
             for p in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


def _dataclass_classes(source: str) -> list:
    """(line, name) of each class decorated by ``dataclass``, called or
    bare, by name or as ``dataclasses.dataclass``, at any depth."""
    def is_dataclass(node):
        node = node.func if isinstance(node, ast.Call) else node
        return (isinstance(node, ast.Name) and node.id == "dataclass"
                or isinstance(node, ast.Attribute) and node.attr == "dataclass")
    return [(node.lineno, node.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list))]


def test_dataclass_detector():
    source = ("import dataclasses\nfrom dataclasses import dataclass\n@dataclass\nclass A:\n    x: int\n"
              "@dataclass(frozen=True)\nclass B:\n    pass\n@dataclasses.dataclass(eq=False)\nclass C:\n"
              "    pass\nclass D(B):\n    pass\n@staticmethod\nclass E:\n    pass\n"
              "def f():\n    @dataclass\n    class G:\n        pass\n")
    assert sorted(_dataclass_classes(source)) == [(4, "A"), (7, "B"), (10, "C"), (19, "G")]


_VALUE_METHODS = {"__slots__", "__setattr__", "__delattr__", "__eq__", "__hash__"}


def _value_method_classes(source: str) -> list:
    """(line, name) of each class, at any depth, whose own body defines or
    assigns one of _VALUE_METHODS."""
    def names(stmt):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return {stmt.name}
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return [(node.lineno, node.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and any(names(s) & _VALUE_METHODS for s in node.body)]


def test_only_record_defines_value_methods():
    """exactnum.Record is the one base that builds an immutable value: no
    other class writes its own slots, attribute guards, equality or hash."""
    source = ("class A:\n    __slots__ = ()\nclass B:\n    __hash__: object = None\n"
              "class C:\n    def __eq__(self, other):\n        pass\n"
              "class D:\n    def f(self):\n        def __hash__():\n            pass\n"
              "def g():\n    class E:\n        def __setattr__(self, n, v):\n            pass\n")
    assert _value_method_classes(source) == [(1, "A"), (3, "B"), (5, "C"), (13, "E")]
    found = {p.name: [name for _, name in _value_method_classes(p.read_text(encoding="utf-8"))]
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: classes for name, classes in found.items() if classes} == {"exactnum.py": ["Record"]}


# each decoration compiles its methods at import time, so every other value
# is on exactnum.Record; the four descriptor families wait for the benchmark's
# radical_walk rounds to stop compiling dataclasses from source (ROADMAP item 3)
DATACLASSES = {
    "focalmodel.py": ["FT", "GAk", "Composite", "Millefeuille"],
}


def test_dataclasses_only_on_descriptors():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {p.name: [name for _, name in _dataclass_classes(p.read_text(encoding="utf-8"))]
             for p in modules}
    assert {name: classes for name, classes in found.items() if classes} == DATACLASSES


def _class_fields(source: str) -> list:
    """(line, class, field) of each annotated field of each class, at any
    depth, its cache slots (a leading "_") left out."""
    return [(stmt.lineno, node.name, stmt.target.id) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and not stmt.target.id.startswith("_")]


def _attribute_reads(source: str, names: set) -> list:
    """(line, name) of each attribute access x.name, at any depth, for a
    name in `names`."""
    return sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in names)


def test_field_and_attribute_detectors():
    source = ("class M:\n    zrows: tuple\n    _cache: int = 0\n"
              "def f(a):\n    class N:\n        zden: int\n"
              "    return a.zrows, a.zden.real, getattr(a, 'zrows'), a.num\n")
    assert _class_fields(source) == [(2, "M", "zrows"), (6, "N", "zden")]
    assert _attribute_reads(source, {"zrows", "zden"}) == [(7, "zden"), (7, "zrows")]


def test_only_matexact_reads_the_stored_matrix():
    """How a matrix is stored is decided in matexact alone: every other
    module reads a MatQ through its rows, its methods and matexact's
    functions, and no other class has a field of the same name."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    fields = {field for _, cls, field in _class_fields(sources["matexact.py"]) if cls == "MatQ"}
    assert fields
    owners = {cls for source in sources.values() for _, cls, field in _class_fields(source)
              if field in fields}
    assert owners == {"MatQ"}
    found = {name: _attribute_reads(source, fields) for name, source in sources.items()
             if name != "matexact.py"}
    assert {name: reads for name, reads in found.items() if reads} == {}
