"""Every function and method under src/focalclass is on a program path.

The CLI calls below run in process under ``sys.setprofile``, which sees each
Python function as it is entered.  What no call reaches is either listed in
LIBRARY_ONLY with the caller that keeps it, or it does not belong in the
package: a helper that only tests use lives in the tests.
"""

import ast
import importlib
import io
import logging
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import focalclass
from focalclass.cli import main

from test_cli import _SWEEP_ONE, _SWEEP_PAIR, CORPUS, EXTRAS

ROOT = Path(__file__).resolve().parent.parent
MODULES = [importlib.import_module(f"focalclass.{path.stem}")
           for path in sorted(Path(focalclass.__file__).parent.glob("*.py"))
           if path.stem != "__init__"] + [focalclass]


def _defined_functions(path: str) -> dict:
    """{first line: qualified name} of each def in the file, nested ones
    included.  The first line is that of the first decorator, or of the def
    itself, as in the code object's co_firstlineno."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                found[line] = prefix + child.name
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(Path(path).read_text(encoding="utf-8")), "")
    return found


def _unreached(modules, run) -> list:
    """"module.qualname" of each function defined in the files of modules
    that run() never enters, by (file, first line) of the code objects
    entered; Python 3.10 has no co_qualname."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return sorted(f"{m.__name__.rpartition('.')[2]}.{name}" for m in modules
                  for line, name in _defined_functions(m.__file__).items()
                  if (m.__file__, line) not in entered)


def test_reachability_detector(tmp_path):
    (tmp_path / "synthetic.py").write_text(
        "def used():\n    return _helper()\n\n\n"
        "def _helper():\n    def inner():\n        return 1\n    return inner()\n\n\n"
        "def never():\n    return 2\n\n\n"
        "class K:\n    @staticmethod\n    def called():\n        return 3\n\n"
        "    @property\n    def unused(self):\n        return 4\n",
        encoding="utf-8")
    sys.path.insert(0, str(tmp_path))
    try:
        synthetic = importlib.import_module("synthetic")
    finally:
        sys.path.remove(str(tmp_path))
        sys.modules.pop("synthetic", None)
    assert _unreached([synthetic], lambda: (synthetic.used(), synthetic.K.called())) == [
        "synthetic.K.unused", "synthetic.never"]
    assert _unreached([synthetic], lambda: None) == [
        "synthetic.K.called", "synthetic.K.unused", "synthetic._helper",
        "synthetic._helper.<locals>.inner", "synthetic.never", "synthetic.used"]


# Functions no CLI call reaches, each with the caller that keeps it: the
# first word names tests/test_acceptance.py, tests/helpers.py, a bench/ file
# or another entry of this table, or the reason is a Record guard, which no
# program path trips, or a hook that runs at import, before any trace starts
LIBRARY_ONLY = {
    "commengine.UndecidedComparisonError.__init__": "commengine.validate_chain raises it",
    "commengine._node_form": "commengine.validate_chain calls it",
    "commengine.validate_chain": "tests/test_acceptance.py imports it; bench/classify_dense.py times it",
    "exactnum.LogRatio.__init__": "tests/test_acceptance.py builds LogRatio(a, b)",
    "exactnum.Record.__delattr__": "Record guard: a field cannot be deleted",
    "exactnum.Record.__hash__": "Record guard: a class with __eq__ and no __hash__ is unhashable",
    "exactnum.Record.__init_subclass__": "Import hook: it builds each record class",
    "exactnum.Record.__setattr__": "Record guard: a field cannot be assigned",
    "exactnum.Undecided.__bool__": "Record guard: an undecided comparison is false, as NOT_EQUAL is",
    "exactnum._Certainty.__bool__": "Record guard: only EQUAL is true",
    "exactnum.common_power": "tests/test_acceptance.py imports it",
    "focalmodel.conn_key": "tests/helpers.py imports it; bench/layers.py counts its calls",
    "focalmodel.invariant_p0": "tests/test_acceptance.py imports it",
    "focalmodel.invariant_q": "tests/test_acceptance.py imports it, and tests/helpers.py",
    "focalmodel.invariant_varpi": "tests/test_acceptance.py imports it, and tests/helpers.py",
    "matexact.MatQ.__matmul__": "tests/test_acceptance.py multiplies MatQ matrices with @",
    "matexact.MatQ._from_integers": "matexact.MatQ.__matmul__ calls it, and inverse",
    "matexact.MatQ.det": "tests/test_acceptance.py calls a.det()",
    "matexact.MatQ.diag": "tests/test_acceptance.py builds MatQ.diag matrices",
    "matexact.MatQ.identity": "matexact.mat_power returns it for n = 0",
    "matexact.MatQ.inverse": "tests/test_acceptance.py calls p.inverse()",
    "matexact.SpectralData.spectral_radius": "tests/test_acceptance.py reads it",
    "matexact._jordan_basis": "matexact._similarity calls it",
    "matexact._nullspace": "matexact._jordan_basis calls it",
    "matexact._similarity": "matexact.conjugate calls it",
    "matexact.conjugate": "tests/test_acceptance.py imports it",
    "matexact.mat_power": "tests/test_acceptance.py imports it",
    "matexact.power_conjugacy": "tests/test_acceptance.py imports it; bench/classify_dense.py times it",
    "radicalcheck.FpRat.__add__": "bench/radical_walk.py adds FpRat batches with +",
    "radicalcheck.FpRat.__mul__": "bench/layers.py counts its calls; bench/radical_walk.py multiplies with *",
    "radicalcheck.FpRat._check": "radicalcheck.FpRat.__add__ and __mul__ call it",
    "radicalcheck.FpRat._reduced": "radicalcheck.FpRat.make calls it, and __add__",
    "radicalcheck.FpRat.inv": "bench/radical_walk.py calls x.inv()",
    "radicalcheck.FpRat.is_zero": "radicalcheck.FpRat.__mul__ calls it, and inv",
    "radicalcheck.FpRat.make": "bench/radical_walk.py builds its batches with FpRat.make",
    "radicalcheck._cancel": "radicalcheck.FpRat._reduced calls it, and __mul__",
    "radicalcheck._padd": "radicalcheck.FpRat.__add__ calls it",
    "radicalcheck._pmul": "radicalcheck.FpRat.__mul__ calls it, and __add__",
}


def _reason_holds(name: str, reason: str) -> bool:
    """The reason's caller exists and names the function (a dunder by its
    class, __matmul__ by @, __add__ by +), or it is a Record guard or an
    import hook on Record itself or one of its subclasses."""
    module, *qual = name.split(".")
    if reason.startswith(("Record guard:", "Import hook:")):
        cls = getattr(importlib.import_module(f"focalclass.{module}"), qual[0])
        return issubclass(cls, importlib.import_module("focalclass.exactnum").Record)
    caller = reason.split()[0].rstrip(";,")
    if caller in LIBRARY_ONLY:
        return True
    if not re.fullmatch(r"tests/test_acceptance\.py|tests/helpers\.py|bench/\w+\.py", caller):
        return False
    word = {"__matmul__": "@", "__add__": "+", "__init__": qual[0]}.get(qual[-1], qual[-1])
    text = (ROOT / caller).read_text(encoding="utf-8")
    return re.search(rf"(?<!\w){re.escape(word)}(?!\w)", text) is not None


def _program_paths(caplog):
    """Each one-file subcommand on every corpus and extras file; each pair
    subcommand on each file against itself and the next two, in sorted order;
    radical-check at three primes; ft-oracle; invariants --tolerance on an
    irrational varpi; a debug log of a decision; and a usage error."""
    files = sorted([*CORPUS.glob("*.json"), *EXTRAS.glob("*.json")])
    runs = [[cmd[0], str(f), *cmd[1:]] for cmd in _SWEEP_ONE for f in files]
    for i, a in enumerate(files):
        for b in (a, files[(i + 1) % len(files)], files[(i + 2) % len(files)]):
            runs += [[cmd[0], str(a), str(b), *cmd[1:]] for cmd in _SWEEP_PAIR]
    runs += [["radical-check", "--p", p, "--conj-bound", "50"] for p in ("2", "3", "31")]
    runs += [["ft-oracle", "--m", "3", "--depth", "2"],
             ["invariants", str(CORPUS / "mf_c.json"), "--tolerance", "0"],
             ["no-such-command"]]
    for argv in runs:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                main(argv)
            except SystemExit:  # the usage error
                pass
    # FOCAL_LOG=DEBUG: each comparison's certificate line formats its outcome
    with caplog.at_level(logging.DEBUG, logger="focalclass"), redirect_stdout(io.StringIO()):
        main(["commable", str(CORPUS / "gak_pair_a.json"), str(CORPUS / "gak_pair_b.json"),
              "--within-focal"])
    assert re.search(r"compare .* with .*: EQUAL by ", caplog.text)


def test_every_function_is_on_a_program_path(monkeypatch, caplog):
    monkeypatch.delenv("FOCAL_LOG", raising=False)
    assert _unreached(MODULES, lambda: _program_paths(caplog)) == sorted(LIBRARY_ONLY)
    assert [name for name, reason in LIBRARY_ONLY.items() if not _reason_holds(name, reason)] == []
