"""Per-layer metrics from a traced run.

The program carries no spans of its own, so layers are read from outside:
``cProfile`` around the same operations (in process, or in each CLI child
through ``cli_profile.py``), and ``python -X importtime`` on children that
only import the CLI.  Times are converted to ``ref`` with the reference
loop of the round they were taken in; calls are exact counts per round.
"""

from __future__ import annotations

import pstats
import re
import sys
from pathlib import Path

from core import child_env, child_reference_loop, median, run_child, time_reference

MODULES = ("exactnum", "matexact", "focalmodel", "commengine", "radicalcheck", "cli")
IMPORT_GROUPS = ("mpmath",) + MODULES

# the decision entry points; their time is counted where they are entered
# from outside this set, so nested decisions are not counted twice
DECIDE = ("commable_within_focal", "commable", "quasi_isometric", "pattern_catalog")

# (metric, module, function, field) with field one of calls / cum
FUNCTION_METRICS = (
    ("cli.parse.calls", "cli", "parse_descriptor", "calls"),
    ("cli.parse_ref", "cli", "parse_descriptor", "cum"),
    ("matexact.spectral_data.calls", "matexact", "spectral_data", "calls"),
    ("matexact.spectral_data_ref", "matexact", "spectral_data", "cum"),
    ("matexact.charpoly.calls", "matexact", "charpoly", "calls"),
    ("matexact.charpoly_ref", "matexact", "charpoly", "cum"),
    ("matexact.rank.calls", "matexact", "rank", "calls"),
    ("matexact.root_fallback.calls", "matexact", "_divisor_root_candidates", "calls"),
    ("matexact.power_conjugacy_ref", "matexact", "power_conjugacy", "cum"),
    ("exactnum.maxroot.calls", "exactnum", "maxroot", "calls"),
    ("exactnum.canonical_value.calls", "exactnum", "canonical_value", "calls"),
    ("exactnum.compare_values.calls", "exactnum", "compare_values", "calls"),
    ("exactnum.interval_compare.calls", "exactnum", "_interval_compare", "calls"),
    ("exactnum.interval_compare_ref", "exactnum", "_interval_compare", "cum"),
    ("focalmodel.compute_invariants_ref", "focalmodel", "compute_invariants", "cum"),
    ("focalmodel.conn_key.calls", "focalmodel", "conn_key", "calls"),
    ("commengine.validate_chain_ref", "commengine", "validate_chain", "cum"),
    ("radicalcheck.fprat_mul.calls", "radicalcheck", "__mul__", "calls"),
    ("radicalcheck.fprat_mul_ref", "radicalcheck", "__mul__", "cum"),
    ("radicalcheck.pgcd.calls", "radicalcheck", "_pgcd", "calls"),
    ("radicalcheck.pdivmod.calls", "radicalcheck", "_pdivmod", "calls"),
)
SERIALISE = ("_emit", "verdict_obj")

PROFILE_METRICS = tuple(m for m, *_ in FUNCTION_METRICS) + (
    "cli.serialise_ref",
    "commengine.decide_ref",
    "radicalcheck.orbit_step_ref",
) + tuple(f"{mod}.self_ref" for mod in MODULES if mod != "cli")
STARTUP_METRICS = ("startup.interp_ref", "startup.import_ref") + tuple(
    f"import.{g}_us" for g in IMPORT_GROUPS
)


def _module_of(filename: str):
    path = Path(filename)
    if path.parent.name == "focalclass" and path.stem in MODULES:
        return path.stem
    return None


def load_stats(path) -> dict:
    return pstats.Stats(str(path)).stats


def merge_stats(into: dict, stats: dict) -> None:
    """Add one pstats-style dict {(file, line, func): (cc, nc, tt, ct, callers)}
    into ``into``, keyed by (module, function, line) for program functions."""
    for (filename, line, func), (_, nc, tt, ct, callers) in stats.items():
        mod = _module_of(filename)
        if mod is None:
            continue
        entry = into.setdefault((mod, func, line), [0, 0.0, 0.0, 0.0])
        entry[0] += nc
        entry[1] += tt
        entry[2] += ct
        if mod == "commengine" and func in DECIDE:
            for (cfile, _, cfunc), contrib in callers.items():
                if not (_module_of(cfile) == "commengine" and cfunc in DECIDE):
                    entry[3] += contrib[3]


def profile_metrics(merged: dict, ref_s: float, orbit_steps: int) -> dict:
    """Per-layer values for one round from its merged profile."""
    def total(mod, func, idx):
        return sum(v[idx] for (m, f, _), v in merged.items() if m == mod and f == func)

    out = {}
    for metric, mod, func, field in FUNCTION_METRICS:
        if field == "calls":
            out[metric] = total(mod, func, 0)
        else:
            out[metric] = total(mod, func, 2) / ref_s
    out["cli.serialise_ref"] = sum(total("cli", f, 2) for f in SERIALISE) / ref_s
    out["commengine.decide_ref"] = sum(
        v[3] for (m, f, _), v in merged.items() if m == "commengine" and f in DECIDE
    ) / ref_s
    walk = total("radicalcheck", "conjugacy_orbit_size", 2)
    out["radicalcheck.orbit_step_ref"] = (walk / orbit_steps / ref_s) if orbit_steps else 0.0
    for mod in MODULES:
        if mod != "cli":
            out[f"{mod}.self_ref"] = sum(
                v[1] for (m, _, _), v in merged.items() if m == mod
            ) / ref_s
    return out


# ---------------------------------------------------------------------------
# -X importtime
# ---------------------------------------------------------------------------

_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def _group(name: str):
    top = name.split(".")[0]
    if top == "mpmath":
        return "mpmath"
    if top == "focalclass" and name.count(".") == 1 and name.split(".")[1] in MODULES:
        return name.split(".")[1]
    return None


def import_times(stderr: str) -> dict:
    """Microseconds each import group costs on its own.

    A group's time is the cumulative time of its outermost modules minus
    the time of other groups imported inside them; standard-library
    modules a group pulls in count towards it.
    """
    done = []  # closed entries: [depth, group, cumulative, inner_other, outermost]
    totals = {g: 0 for g in IMPORT_GROUPS}
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m is None:
            continue
        cum, depth, name = int(m.group(2)), len(m.group(3)), m.group(4)
        group = _group(name)
        inner = 0
        while done and done[-1][0] > depth:  # children close before parents
            child = done.pop()
            if child[1] is not None and child[1] != group:
                inner += child[2]
            else:
                inner += child[3]
                if child[1] is not None:
                    child[4] = False
            if child[1] is not None and child[4]:
                totals[child[1]] += child[2] - child[3]
        done.append([depth, group, cum, inner, True])
    for entry in done:
        if entry[1] is not None and entry[4]:
            totals[entry[1]] += entry[2] - entry[3]
    return totals


def startup_metrics(pycache, repeats: int = 7) -> dict:
    """Bare interpreter and CLI import time in ref, import groups in us."""
    env = child_env(pycache)
    bare, imported, groups = [], [], []
    for _ in range(repeats):
        ref = time_reference(child_reference_loop)
        res = run_child([sys.executable, "-c", "pass"], env, 30.0)
        bare.append(res.seconds / ref)
        ref = time_reference(child_reference_loop)
        res = run_child([sys.executable, "-c", "import focalclass.cli"], env, 30.0)
        imported.append(res.seconds / ref)
        res = run_child([sys.executable, "-X", "importtime", "-c", "import focalclass.cli"],
                        env, 30.0)
        if res.code != 0:
            raise RuntimeError(f"importing the CLI failed:\n{res.err}")
        groups.append(import_times(res.err))
    out = {"startup.interp_ref": median(bare),
           "startup.import_ref": median(imported) - median(bare)}
    for g in IMPORT_GROUPS:
        out[f"import.{g}_us"] = median([t[g] for t in groups])
    return out
