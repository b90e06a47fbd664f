"""Command-line front end: descriptor parsing, classification, verdicts.

Wire format (normative):
    {"kind":"FT","m":int}
    {"kind":"GAk","A":[[ratstr,...],...],"k":int,"index":int?}
    {"kind":"Composite","A":[[ratstr,...],...],"varpi":ratstr,"q":int,"index":int?}
    {"kind":"Millefeuille","A":[[ratstr,...],...],"t":ratstr,"k":int}
with ratstr matching -?[0-9]+(/[0-9]+)?, matrices row-major, rationals in
lowest terms.  Exit codes: 0 yes/success, 1 no, 2 parse or usage error,
3 undecided.  Stdout is a single JSON document except under --human.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
from fractions import Fraction

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
from .radicalcheck import (
    Gamma,
    check_center_gamma2,
    check_twist_identity,
    conjugacy_orbit_size,
    designated_units,
    unit_infinite_order,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_PARSE = 2
EXIT_UNDECIDED = 3


_RATSTR = re.compile(r"-?[0-9]+(/[0-9]+)?$")

# radical-check tests --p by trial division here and again in each public
# F_p(t) constructor call (never in the arithmetic); the bound keeps each
# test to about a thousand divisions
_MAX_P = 1 << 20


class DescriptorError(ValueError):
    """The input file does not describe a valid descriptor."""


def parse_rat(s) -> Fraction:
    if not isinstance(s, str) or not _RATSTR.match(s):
        raise DescriptorError(f"not a rational string: {s!r}")
    try:
        return Fraction(s)
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


def parse_descriptor(obj) -> FocalDescriptor:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DescriptorError("descriptor must be an object with a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "FT":
            return FT(m=_int_field(obj, "m"))
        if kind == "GAk":
            return GAk(
                matrix=_parse_matrix(obj["A"]),
                k=_int_field(obj, "k"),
                index=_int_field(obj, "index", 1),
            )
        if kind == "Composite":
            return Composite(
                conn=_parse_matrix(obj["A"]),
                varpi=parse_rat(obj["varpi"]),
                q=_int_field(obj, "q"),
                index=_int_field(obj, "index", 1),
            )
        if kind == "Millefeuille":
            return Millefeuille(
                conn=_parse_matrix(obj["A"]), t=parse_rat(obj["t"]), k=_int_field(obj, "k")
            )
    except DescriptorError:
        raise
    except (KeyError, TypeError) as exc:
        raise DescriptorError(f"malformed {kind} descriptor: {exc}") from None
    except (ValueError, NonRationalSpectrumError) as exc:
        raise DescriptorError(str(exc)) from None
    raise DescriptorError(f"unknown descriptor kind: {kind!r}")


def descriptor_obj(g: FocalDescriptor) -> dict:
    """Canonical JSON object of a descriptor (fixed key order, index elided at 1)."""
    if isinstance(g, FT):
        return {"kind": "FT", "m": g.m}
    if isinstance(g, Millefeuille):
        return {"kind": "Millefeuille", "A": _matrix_obj(g.conn), "t": str(g.t), "k": g.k}
    if isinstance(g, GAk):
        obj = {"kind": "GAk", "A": _matrix_obj(g.matrix), "k": g.k}
    else:
        obj = {"kind": "Composite", "A": _matrix_obj(g.conn), "varpi": str(g.varpi),
               "q": g.q}
    if g.index != 1:
        obj["index"] = g.index
    return obj


def _matrix_obj(a: MatQ) -> list:
    return [[str(x) for x in row] for row in a.rows]


def canonical_text(g: FocalDescriptor) -> str:
    return json.dumps(descriptor_obj(g), separators=(",", ":")) + "\n"


def load_descriptor(path: str) -> FocalDescriptor:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise DescriptorError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # bad JSON or UTF-8, or an integer past int's digit limit
        raise DescriptorError(f"invalid JSON in {path}: {exc}") from None
    return parse_descriptor(obj)


# ---------------------------------------------------------------------------
# serialization of verdicts and chains
# ---------------------------------------------------------------------------


def _key_obj(key) -> list:
    return [[render_value(ratio), list(blocks)] for ratio, blocks in key]


def _node_obj(node) -> dict:
    if isinstance(node, SDesc):
        return descriptor_obj(node.desc)
    if isinstance(node, SFreeGroup):
        return {"kind": "FreeGroup", "rank": node.rank}
    if isinstance(node, SAutTree):
        return {"kind": "AutTree", "m": node.m}
    if isinstance(node, SFTpow):
        return {"kind": "FTpow", "q": node.q, "n": node.n}
    if isinstance(node, SCompositeProduct):
        obj = {
            "kind": "CompositeProduct",
            "key": _key_obj(node.key),
            "varpi": render_value(node.varpi),
            "m": node.m,
        }
        if node.n != 1:
            obj["index"] = node.n
        return obj
    if isinstance(node, SHull):
        obj = {"kind": "Hull", "key": _key_obj(node.key)}
        if node.hull is not None:
            obj["hull"] = node.hull.render()
        return obj
    raise TypeError(f"unknown chain node {node!r}")


def chain_obj(chain: WitnessChain) -> dict:
    return {
        "nodes": [_node_obj(n) for n in chain.nodes],
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
    if human:
        for key, value in obj.items():
            print(f"{key}: {value}")
    else:
        print(json.dumps(obj))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_invariants(args) -> int:
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
        obj["varpi_float"] = as_float(inv.varpi)
        obj["p0_float"] = as_float(inv.p0)
    _emit(obj, args.human)
    return EXIT_YES


def cmd_commable(args) -> int:
    g1 = load_descriptor(args.fileA)
    g2 = load_descriptor(args.fileB)
    if getattr(args, "qi", False):
        verdict = quasi_isometric(g1, g2)
    elif getattr(args, "within_focal", False):
        verdict = commable_within_focal(g1, g2)
    else:
        verdict = commable(g1, g2)
    obj, code = verdict_obj(verdict, getattr(args, "witness", False))
    _emit(obj, args.human)
    return code


def cmd_boundary(args) -> int:
    g = load_descriptor(args.file)
    _emit({"boundary": boundary(g).render()}, args.human)
    return EXIT_YES


def cmd_hull(args) -> int:
    g = load_descriptor(args.file)
    try:
        hull = focal_universal_hull(g)
    except HullNotImplementedError as exc:
        _emit({"verdict": "undecided", "detail": str(exc)}, args.human)
        return EXIT_UNDECIDED
    except ValueError as exc:  # not of connected type
        raise DescriptorError(str(exc)) from None
    _emit({"hull": hull.render(), "dim": hull.dim, "factors": list(hull.factors)}, args.human)
    return EXIT_YES


def cmd_pattern(args) -> int:
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
    _emit(obj, args.human)
    return EXIT_YES


def cmd_radical_check(args) -> int:
    if args.p > _MAX_P:
        raise DescriptorError("--p out of range")
    if not _is_prime(args.p):
        raise DescriptorError(f"--p must be prime, got {args.p}")
    if args.samples < 1 or args.samples > 10**4:
        raise DescriptorError("--samples out of range")
    if args.conj_bound < 1 or args.conj_bound > 10**3:
        raise DescriptorError("--conj-bound out of range")
    center = check_center_gamma2(args.p, args.samples, degree=4)
    units_ok = all(unit_infinite_order(u) for u in designated_units(args.p).values())
    gamma1 = Gamma(1, args.p)
    min_orbit = min(
        conjugacy_orbit_size(1, gen, args.conj_bound)
        for gen in gamma1.coordinate_generators()
    )
    twist = check_twist_identity(args.p)
    ok = center and units_ok and twist and min_orbit >= args.conj_bound
    obj = {
        "p": args.p,
        "center_gamma2": "pass" if center else "fail",
        "icc_gamma1_min_orbit": min_orbit,
        "twist_identity": "pass" if twist else "fail",
        "non_torsion_units": "pass" if units_ok else "fail",
    }
    _emit(obj, args.human)
    return EXIT_YES if ok else EXIT_NO


def cmd_ft_oracle(args) -> int:
    try:
        index = ft_index_oracle(args.m, args.depth)
    except ValueError as exc:
        raise DescriptorError(str(exc)) from None
    obj = {"index": index, "expected": args.m, "match": index == args.m}
    _emit(obj, args.human)
    return EXIT_YES if index == args.m else EXIT_NO


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focalclass",
        description="exact commability and quasi-isometry decisions on focal group descriptors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="classification invariants of one descriptor")
    p_inv.add_argument("file")
    p_inv.add_argument("--tolerance", type=float, default=None,
                       help="a flag: also emit float renditions of varpi and p0 "
                            "(its value is required but never read)")
    p_inv.set_defaults(func=cmd_invariants)

    p_com = sub.add_parser("commable", help="decide commability of two descriptors")
    p_com.add_argument("fileA")
    p_com.add_argument("fileB")
    p_com.add_argument("--within-focal", action="store_true", dest="within_focal")
    p_com.add_argument("--witness", action="store_true")
    p_com.set_defaults(func=cmd_commable)

    p_qi = sub.add_parser("qi", help="decide quasi-isometry of two descriptors")
    p_qi.add_argument("fileA")
    p_qi.add_argument("fileB")
    p_qi.add_argument("--witness", action="store_true")
    p_qi.set_defaults(func=cmd_commable, qi=True)

    p_bd = sub.add_parser("boundary", help="boundary topology of one descriptor")
    p_bd.add_argument("file")
    p_bd.set_defaults(func=cmd_boundary)

    p_hull = sub.add_parser("hull", help="focal-universal hull of a connected descriptor")
    p_hull.add_argument("file")
    p_hull.set_defaults(func=cmd_hull)

    p_pat = sub.add_parser("pattern", help="certified commation patterns for a pair")
    p_pat.add_argument("fileA")
    p_pat.add_argument("fileB")
    p_pat.set_defaults(func=cmd_pattern)

    p_rad = sub.add_parser("radical-check", help="verify the polyfinite-radical example")
    p_rad.add_argument("--p", type=int, required=True,
                       help="a prime p <= 2^20 (larger p exits 2: --p out of range)")
    p_rad.add_argument("--samples", type=int, default=20)
    p_rad.add_argument("--conj-bound", type=int, default=100, dest="conj_bound")
    p_rad.set_defaults(func=cmd_radical_check)

    p_ft = sub.add_parser("ft-oracle", help="orbit oracle on the truncated regular tree")
    p_ft.add_argument("--m", type=int, required=True)
    p_ft.add_argument("--depth", type=int, required=True)
    p_ft.set_defaults(func=cmd_ft_oracle)

    for p in (p_inv, p_com, p_qi, p_bd, p_hull, p_pat, p_rad, p_ft):
        p.add_argument("--human", action="store_true", help="pretty text output, never parsed back")

    return parser


def _configure_logging() -> None:
    level = os.environ.get("FOCAL_LOG", "").upper()
    if level in ("DEBUG", "INFO", "WARNING", "ERROR"):
        logging.basicConfig(level=getattr(logging, level), stream=sys.stderr)


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DescriptorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
