"""Command-line front end: descriptor parsing, classification, verdicts.

Wire format (normative):
    {"kind":"FT","m":int}
    {"kind":"GAk","A":[[ratstr,...],...],"k":int,"index":int?}
    {"kind":"Composite","A":[[ratstr,...],...],"varpi":ratstr,"q":int,"index":int?}
    {"kind":"Millefeuille","A":[[ratstr,...],...],"t":ratstr,"k":int}
with ratstr matching -?[0-9]+(/[0-9]+)? in any terms, matrices row-major, and no
other key; rationals are written in lowest terms.  Witness chains (--witness) are
    {"nodes":[node,...],"arrows":[{"direction":str,"citation":str},...],"pattern":str}
where a node is a descriptor, printed exactly as above, or one of
    {"kind":"FreeGroup","rank":int}
    {"kind":"AutTree","m":int}
    {"kind":"FTpow","q":int,"n":int}
    {"kind":"CompositeProduct","key":connkey,"varpi":value,"m":int,"index":int?}
    {"kind":"Hull","key":connkey,"hull":str?}
with connkey a list of [value,[int,...]] pairs, value a rendered value, index
left out at 1 and hull left out when there is none.  Exit codes: 0
yes/success, 1 no, 2 parse or usage error, 3 undecided, an internal error
included (its detail starts "internal error:").  Stdout is a single JSON
document except under --human.
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from .exactnum import _is_prime, as_float
from .matexact import MatQ, NonRationalSpectrumError
from .focalmodel import (
    FT,
    Composite,
    FocalDescriptor,
    GAk,
    GroupType,
    HullNotImplementedError,
    Millefeuille,
    boundary,
    compute_invariants,
    focal_universal_hull,
    is_special,
    render_value,
)
from .commengine import (
    No,
    SAutTree,
    SCompositeProduct,
    SDesc,
    SFTpow,
    SFreeGroup,
    SHull,
    WitnessChain,
    Yes,
    commable,
    commable_within_focal,
    ft_index_oracle,
    pattern_catalog,
    quasi_isometric,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_PARSE = 2
EXIT_UNDECIDED = 3

_heap_frozen = False  # main sets it: gc.get_freeze_count() walks every frozen object

_RATSTR = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")

# radical-check tests --p by trial division here and again in each call of
# radicalcheck.standard_units, where every claim reads its units; the bound
# keeps each test to about a thousand divisions
_MAX_P = 1 << 20


class DescriptorError(ValueError):
    """The input file does not describe a valid descriptor."""


def parse_rat(s) -> Fraction:
    match = _RATSTR.fullmatch(s) if isinstance(s, str) else None
    if not match:
        raise DescriptorError(f"not a rational string: {s!r}")
    num, den = match.groups()
    try:  # the integers the pattern checked, each read once
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise DescriptorError(f"zero denominator in {s!r}") from None


def _parse_matrix(rows) -> MatQ:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise DescriptorError("matrix must be a list of rows")
    try:
        return MatQ([[parse_rat(x) for x in row] for row in rows])
    except ValueError as exc:
        raise DescriptorError(str(exc)) from None


def _int_field(obj: dict, field: str, default=None) -> int:
    value = obj[field] if default is None else obj.get(field, default)
    if type(value) is not int:  # bool is a subclass of int, JSON true is not
        got = json.dumps(value, default=repr)
        raise DescriptorError(f"{field} must be a JSON integer, got {got}")
    return value


# the JSON objects of the wire format: each class's kind and its keys in wire
# order, each key naming the field it holds
_WIRE = {
    FT: ("FT", {"m": "m"}),
    GAk: ("GAk", {"A": "matrix", "k": "k", "index": "index"}),
    Composite: ("Composite", {"A": "conn", "varpi": "varpi", "q": "q", "index": "index"}),
    Millefeuille: ("Millefeuille", {"A": "conn", "t": "t", "k": "k"}),
    SFreeGroup: ("FreeGroup", {"rank": "rank"}),
    SAutTree: ("AutTree", {"m": "m"}),
    SFTpow: ("FTpow", {"q": "q", "n": "n"}),
    SCompositeProduct: ("CompositeProduct", {"key": "key", "varpi": "varpi", "m": "m",
                                             "index": "n"}),
    SHull: ("Hull", {"key": "key", "hull": "hull"}),
}
_KINDS = {kind: cls for cls, (kind, _) in _WIRE.items() if issubclass(cls, FocalDescriptor)}
# how a key's value is read and written; any other key holds a JSON integer
_READ = {"A": _parse_matrix, "varpi": parse_rat, "t": parse_rat}
_WRITE = {
    "A": lambda a: [[str(x) for x in row] for row in a.rows],
    "varpi": render_value,
    "t": render_value,
    "key": lambda key: [[render_value(ratio), list(blocks)] for ratio, blocks in key],
    "hull": lambda hull: hull.render(),
}
# keys left out at this value, and read as it when absent
_OMITTED = {"index": 1, "hull": None}


def parse_descriptor(obj) -> FocalDescriptor:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DescriptorError("descriptor must be an object with a 'kind' field")
    kind = obj["kind"]
    cls = _KINDS.get(kind) if isinstance(kind, str) else None  # a list or dict is unhashable
    if cls is None:
        raise DescriptorError(f"unknown descriptor kind: {kind!r}")
    keys = _WIRE[cls][1]
    unknown = next((key for key in obj if key != "kind" and key not in keys), None)
    if unknown is not None:  # a misspelt key would otherwise read as its default
        raise DescriptorError(f"unknown key in {kind} descriptor: {unknown!r}")
    fields = {}
    try:
        for key, field in keys.items():  # the first bad key in wire order is reported
            read = _READ.get(key)
            fields[field] = read(obj[key]) if read else _int_field(obj, key, _OMITTED.get(key))
        return cls(**fields)
    except DescriptorError:
        raise
    except (KeyError, TypeError) as exc:
        raise DescriptorError(f"malformed {kind} descriptor: {exc}") from None
    except (ValueError, NonRationalSpectrumError) as exc:
        raise DescriptorError(str(exc)) from None


def descriptor_obj(g: FocalDescriptor) -> dict:
    """Canonical JSON object of a descriptor or a chain node, by _WIRE."""
    if isinstance(g, SDesc):
        g = g.desc
    kind, keys = _WIRE[type(g)]
    obj = {"kind": kind}
    for key, field in keys.items():
        value = getattr(g, field)
        if key not in _OMITTED or value != _OMITTED[key]:
            write = _WRITE.get(key)
            obj[key] = write(value) if write else value
    return obj


def load_descriptor(path: str) -> FocalDescriptor:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise DescriptorError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too many digits or too deep
        raise DescriptorError(f"invalid JSON in {path}: {exc}") from None
    return parse_descriptor(obj)


# ---------------------------------------------------------------------------
# serialization of verdicts and chains
# ---------------------------------------------------------------------------


def chain_obj(chain: WitnessChain) -> dict:
    return {
        "nodes": [descriptor_obj(n) for n in chain.nodes],
        "arrows": [{"direction": a.direction, "citation": a.citation} for a in chain.arrows],
        "pattern": chain.pattern(),
    }


def verdict_obj(verdict, with_chain: bool) -> tuple[dict, int]:
    if isinstance(verdict, Yes):
        obj = {"verdict": "yes"}
        if with_chain:
            obj["chain"] = chain_obj(verdict.chain)
        return obj, EXIT_YES
    if isinstance(verdict, No):
        obstruction = {"invariant": verdict.invariant, "values": list(verdict.values)}
        if verdict.note:
            obstruction["note"] = verdict.note
        return {"verdict": "no", "obstruction": obstruction}, EXIT_NO
    return {"verdict": "undecided", "detail": verdict.detail}, EXIT_UNDECIDED


def _emit(obj: dict, human: bool) -> None:
    """Write obj, built whole first so that a failure writes nothing."""
    text = "\n".join(f"{key}: {value}" for key, value in obj.items()) if human else json.dumps(obj)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the exit code still carries the answer; stdout on the null device
        # keeps the flush at exit from raising again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_invariants(args) -> tuple[dict, int]:
    g = load_descriptor(args.file)
    inv = compute_invariants(g)
    special, reason = is_special(g)
    obj = {
        "type": inv.group_type.value,
        "s": inv.s,
        "q": inv.q,
        "varpi": render_value(inv.varpi),
        "p0": render_value(inv.p0),
        "boundary": inv.boundary.render(),
        "special": special,
        "special_reason": reason,
    }
    if inv.group_type is GroupType.TOTALLY_DISCONNECTED:
        obj["p0_note"] = "totally disconnected type: no connected part slows the expansion"
    if inv.group_type is GroupType.CONNECTED:
        try:
            obj["hull"] = focal_universal_hull(g).render()
        except HullNotImplementedError:
            pass
    if args.tolerance is not None:
        # JSON has no Infinity: a value with no finite float reads null
        for key, value in (("varpi_float", inv.varpi), ("p0_float", inv.p0)):
            try:
                x = as_float(value)
            except OverflowError:  # an exact value beyond the float range
                x = math.inf
            obj[key] = x if math.isfinite(x) else None
    return obj, EXIT_YES


def cmd_commable(args) -> tuple[dict, int]:
    g1 = load_descriptor(args.fileA)
    g2 = load_descriptor(args.fileB)
    if getattr(args, "qi", False):
        verdict = quasi_isometric(g1, g2)
    elif getattr(args, "within_focal", False):
        verdict = commable_within_focal(g1, g2)
    else:
        verdict = commable(g1, g2)
    return verdict_obj(verdict, getattr(args, "witness", False))


def cmd_boundary(args) -> tuple[dict, int]:
    g = load_descriptor(args.file)
    return {"boundary": boundary(g).render()}, EXIT_YES


def cmd_hull(args) -> tuple[dict, int]:
    g = load_descriptor(args.file)
    try:
        hull = focal_universal_hull(g)
    except HullNotImplementedError as exc:
        return {"verdict": "undecided", "detail": str(exc)}, EXIT_UNDECIDED
    except ValueError as exc:  # not of connected type
        raise DescriptorError(str(exc)) from None
    return {"hull": hull.render(), "dim": hull.dim, "factors": list(hull.factors)}, EXIT_YES


def cmd_pattern(args) -> tuple[dict, int]:
    g1 = load_descriptor(args.fileA)
    g2 = load_descriptor(args.fileB)
    try:
        entries = pattern_catalog(g1, g2)
    except ValueError as exc:
        raise DescriptorError(str(exc)) from None
    obj = {
        "patterns": [
            {"pattern": e.pattern, "status": e.status, "citation": e.citation} for e in entries
        ]
    }
    return obj, EXIT_YES


def cmd_radical_check(args) -> tuple[dict, int]:
    if args.p > _MAX_P:
        raise DescriptorError("--p out of range")
    if not _is_prime(args.p):
        raise DescriptorError(f"--p must be prime, got {args.p}")
    # a range check only: there are p^9 Laurent polynomials of degree <= 4, and the
    # centre certificate covers every z in F_p(t), so the value changes no output
    if args.samples < 1 or args.samples > min(10**4, args.p**9):
        raise DescriptorError("--samples out of range")
    if args.conj_bound < 1 or args.conj_bound > 10**3:
        raise DescriptorError("--conj-bound out of range")
    from . import radicalcheck as rad  # only this command needs it

    center = rad.check_center_gamma2(args.p, args.samples, degree=4)
    units_ok = all(rad.unit_infinite_order(u) for u in rad.designated_units(args.p).values())
    min_orbit = min(rad.conjugacy_orbit_size(1, gen, args.conj_bound)
                    for gen in rad.Gamma(1, args.p).coordinate_generators())
    twist = rad.check_twist_identity(args.p)
    ok = center and units_ok and twist and min_orbit >= args.conj_bound
    obj = {
        "p": args.p,
        "center_gamma2": "pass" if center else "fail",
        "icc_gamma1_min_orbit": min_orbit,
        "twist_identity": "pass" if twist else "fail",
        "non_torsion_units": "pass" if units_ok else "fail",
    }
    return obj, EXIT_YES if ok else EXIT_NO


def cmd_ft_oracle(args) -> tuple[dict, int]:
    try:
        index = ft_index_oracle(args.m, args.depth)
    except ValueError as exc:
        raise DescriptorError(str(exc)) from None
    obj = {"index": index, "expected": args.m, "match": index == args.m}
    return obj, EXIT_YES if index == args.m else EXIT_NO


# subcommand: handler, positional fields (FILE, A, B in usage), and options "--name METAVAR"
# with (converter or None for a flag, default or _REQUIRED); all take --human and -h/--help
_REQUIRED = object()
_FLAG = (None, False)
_SHARED = {"-h": _FLAG, "--help": _FLAG, "--human": _FLAG}
_COMMANDS = {
    "invariants": (cmd_invariants, ("file",), {"--tolerance X": (float, None)}),
    "commable": (cmd_commable, ("fileA", "fileB"), {"--within-focal": _FLAG, "--witness": _FLAG}),
    "qi": (cmd_commable, ("fileA", "fileB"), {"--witness": _FLAG}),
    "boundary": (cmd_boundary, ("file",), {}),
    "hull": (cmd_hull, ("file",), {}),
    "pattern": (cmd_pattern, ("fileA", "fileB"), {}),
    "radical-check": (cmd_radical_check, (), {"--p P": (int, _REQUIRED), "--samples N": (int, 20),
                                             "--conj-bound B": (int, 100)}),
    "ft-oracle": (cmd_ft_oracle, (), {"--m M": (int, _REQUIRED), "--depth D": (int, _REQUIRED)}),
}


def _usage(command=None) -> str:
    """The usage line of `command`, or of every subcommand."""
    lines = [" ".join(["focalclass", name, *(field[4:] or "FILE" for field in fields),
                       *(o if d is _REQUIRED else f"[{o}]" for o, (_, d) in options.items())])
             for name, (_, fields, options) in _COMMANDS.items() if command in (None, name)]
    return "usage: " + "\n       ".join(lines)


def _exit_usage(command, error=None):
    """Usage lines on stdout and exit 0, or with `error` on stderr and exit 2."""
    print(_usage(command), f"focalclass: error: {error}" if error else "every subcommand takes "
          "--human: pretty text, never parsed back", sep="\n", file=sys.stderr if error else None)
    raise SystemExit(EXIT_PARSE if error else 0)


def parse_args(argv=None) -> SimpleNamespace:
    """Read argv (sys.argv[1:] by default) against _COMMANDS into the handler `func`, `qi`,
    `human` and the subcommand's fields, by the grammar of the README's CLI section."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    if command in ("-h", "--h", "--he", "--hel", "--help"):
        _exit_usage(None)
    if command not in _COMMANDS:
        _exit_usage(None, f"invalid choice: {command!r}" if argv else "a subcommand is required")
    func, fields, table = _COMMANDS[command]
    opts = {**_SHARED, **{option.split()[0]: spec for option, spec in table.items()}}
    values = {opt: default for opt, (_, default) in opts.items() if opt not in ("-h", "--help")}
    positionals, extras, tokens = [], [], iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        found = [name] if name in opts else [opt for opt in opts if opt.startswith(name)]
        if token == "--" or not token.startswith(("--", "-h")):  # all after -- are positionals
            positionals += tokens if token == "--" else [token]
        elif not found:
            extras.append(token)
        elif len(found) > 1:
            _exit_usage(command, f"ambiguous option: {name} could match {', '.join(found)}")
        else:
            opt, convert = found[0], opts[found[0]][0]
            if convert is None and eq or opt in ("-h", "--help"):  # help, or a flag given a value
                _exit_usage(command, eq and f"argument {opt}: takes no value, got {value!r}")
            value = value if eq or convert is None else next(tokens, None)
            try:
                values[opt] = True if convert is None else convert(value)
            except (TypeError, ValueError):  # no token left, or not a number
                _exit_usage(command, f"argument {opt}: expected {convert.__name__}, got {value!r}")
    missing = [field[4:] or "FILE" for field in fields[len(positionals):]]
    missing += [opt for opt, value in values.items() if value is _REQUIRED]
    if missing:
        _exit_usage(command, "the following arguments are required: " + ", ".join(missing))
    if extras or positionals[len(fields):]:
        _exit_usage(command, "unrecognized arguments: " + " ".join(extras + positionals[len(fields):]))
    return SimpleNamespace(func=func, qi=command == "qi", **dict(zip(fields, positionals)),
                           **{opt[2:].replace("-", "_"): value for opt, value in values.items()})


def _configure_logging() -> None:
    level = os.environ.get("FOCAL_LOG", "").upper()
    if level in ("DEBUG", "INFO", "WARNING", "ERROR"):
        import logging

        logging.basicConfig(level=getattr(logging, level), stream=sys.stderr)


def main(argv=None) -> int:
    """Run the subcommand in argv (default sys.argv[1:]) and return its exit code: 0 yes or
    success, 1 no, 2 parse or usage error, 3 undecided or internal error.  The first call in
    a process freezes the heap unless something froze it before (gc.freeze), so the cyclic
    collections at exit skip all that start-up and the imports built, which dies with a CLI
    process anyway.  An in-process caller keeps that moment's garbage cycles until it calls
    gc.unfreeze(); later calls freeze nothing, since each freeze would keep more."""
    global _heap_frozen
    if not _heap_frozen and not gc.get_freeze_count():
        gc.freeze()
    _heap_frozen = True
    _configure_logging()
    args = parse_args(argv)
    try:
        obj, code = args.func(args)
        _emit(obj, args.human)
    except DescriptorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:  # a crash is no verdict: it claims no answer, as undecided does
        import traceback

        traceback.print_exc()
        _emit({"verdict": "undecided", "detail": f"internal error: {type(exc).__name__}: {exc}"},
              args.human)
        return EXIT_UNDECIDED
    return code


if __name__ == "__main__":
    sys.exit(main())
