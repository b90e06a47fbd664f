"""End-to-end tests of the command-line interface."""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import focalclass
from focalclass.cli import (
    _WIRE,
    EXIT_NO,
    EXIT_PARSE,
    EXIT_UNDECIDED,
    EXIT_YES,
    DescriptorError,
    cmd_boundary,
    cmd_commable,
    cmd_ft_oracle,
    cmd_hull,
    cmd_invariants,
    cmd_pattern,
    cmd_radical_check,
    main,
    parse_args,
    parse_descriptor,
)

from focalclass.commengine import SDesc, SymbolicGroup
from focalclass.focalmodel import FT, Composite, FocalDescriptor, GAk, Millefeuille
from focalclass.matexact import MatQ

from helpers import canonical_text, dense_split_conjugates

CORPUS = Path(__file__).parent / "corpus"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def corpus_path(name: str) -> str:
    return str(CORPUS / f"{name}.json")


# ---------------------------------------------------------------------------
# parsing and round trips
# ---------------------------------------------------------------------------


def test_round_trip_is_byte_identical_on_corpus():
    files = sorted(CORPUS.glob("*.json"))
    assert len(files) >= 15
    for path in files:
        raw = path.read_text(encoding="utf-8")
        desc = parse_descriptor(json.loads(raw))
        assert canonical_text(desc) == raw


def _rational(draw, lo=None, hi=None):
    """A rational in lowest terms, inside (lo, hi) when they are given."""
    value = Fraction(draw(st.integers(-60, 60)), draw(st.integers(1, 60)))
    if lo is not None and not lo < value < hi:
        value = lo + (hi - lo) * Fraction(draw(st.integers(1, 59)), 60)
    return value


@st.composite
def _descriptors(draw):
    """A valid descriptor of any of the four kinds: a triangular matrix of
    dimension 1 to 3, its diagonal in (0, 1) and any rationals above it,
    an index above 1 now and then, and a positive varpi or t."""
    dim = draw(st.integers(1, 3))
    matrix = MatQ([[_rational(draw, Fraction(0), Fraction(1)) if i == j
                    else _rational(draw) if i < j else Fraction(0) for j in range(dim)]
                   for i in range(dim)])
    index = draw(st.sampled_from((1, 1, 2, 3, 7)))
    positive = _rational(draw, Fraction(0), Fraction(7))
    return draw(st.sampled_from((
        FT(m=draw(st.integers(2, 30))),
        GAk(matrix=matrix, k=draw(st.integers(1, 9)), index=index),
        Composite(conn=matrix, varpi=positive, q=draw(st.integers(2, 9)), index=index),
        Millefeuille(conn=matrix, t=positive, k=draw(st.integers(2, 9))),
    )))


@settings(max_examples=300, deadline=None)
@given(_descriptors())
def test_round_trip_on_drawn_descriptors(g):
    """Reading back the printed text of a descriptor gives the descriptor,
    and printing that again the same text, with negative and off-diagonal
    entries that the corpus never has."""
    text = canonical_text(g)
    back = parse_descriptor(json.loads(text))
    assert back == g
    assert canonical_text(back) == text


def test_wire_table_covers_every_descriptor_and_chain_node():
    """Every descriptor class and every chain node but SDesc, which prints
    its descriptor, has a kind and keys in cli._WIRE."""
    classes = (set(FocalDescriptor.__args__) | set(SymbolicGroup.__args__)) - {SDesc}
    assert classes == set(_WIRE)


def test_parse_rejects_malformed_input(tmp_path):
    cases = [
        '{"kind":"FT"}',
        '{"kind":"FT","m":1}',
        '{"kind":"GAk","A":[["1/2","0"]],"k":2}',
        '{"kind":"GAk","A":[["2"]],"k":2}',
        '{"kind":"GAk","A":[],"k":1}',
        '{"kind":"Millefeuille","A":[["1/2"]],"t":"0","k":2}',
        '{"kind":"Nope","m":3}',
        '{"kind":"GAk","A":[["1/x"]],"k":2}',
        # a trailing newline is not part of a rational string
        '{"kind":"GAk","A":[["1/2\\n"]],"k":2}',
        "not json at all",
        # integer fields take JSON integers only
        '{"kind":"FT","m":2.9}',
        '{"kind":"FT","m":"3"}',
        '{"kind":"FT","m":true}',
        '{"kind":"GAk","A":[["1/2"]],"k":2.0}',
        '{"kind":"GAk","A":[["1/2"]],"k":2,"index":true}',
        '{"kind":"Composite","A":[["1/2"]],"varpi":"1","q":"2"}',
        '{"kind":"Composite","A":[["1/2"]],"varpi":"1","q":2,"index":1.5}',
        '{"kind":"Millefeuille","A":[["1/2"]],"t":"1","k":null}',
        # an integer past Python's 4300-digit string conversion limit
        '{"kind":"FT","m":' + "9" * 5000 + "}",
        # arrays nested past the recursion limit of json.load
        "[" * 1000 + "]" * 1000,
        # a kind that is not a string, hashable or not
        '{"kind":["FT"]}',
        '{"kind":{"a":1}}',
        '{"kind":1}',
        '{"kind":null}',
        '{"kind":true}',
        # a misspelt key is not read as its default: idx is no index
        '{"kind":"GAk","A":[["1/2"]],"k":2,"idx":5}',
    ]
    for i, text in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(text, encoding="utf-8")
        for argv in (["invariants", str(path)], ["commable", corpus_path("ft2"), str(path)]):
            assert main(argv) == EXIT_PARSE, (text[:40], argv[0])
    with pytest.raises(DescriptorError, match="unknown key in GAk descriptor: 'idx'"):
        parse_descriptor(json.loads(cases[-1]))


def test_rationals_are_read_in_any_terms_and_written_in_lowest(capsys, tmp_path):
    """An input rational may be in any terms: 2/4 and 3/9 read as 1/2 and
    1/3, so invariants and boundary exit 0 with the same bytes as for the
    twin in lowest terms, and the chain between the two is one node, printed
    in lowest terms.  Such input is no parse error."""
    paths = []
    for name, a, b in (("any", "2/4", "3/9"), ("lowest", "1/2", "1/3")):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"kind": "GAk", "A": [[a, "0"], ["0", b]], "k": 2}),
                             encoding="utf-8")
    for command in ("invariants", "boundary"):
        runs = [(main([command, str(path)]), capsys.readouterr()) for path in paths]
        assert runs[0] == runs[1] and runs[0][0] == EXIT_YES, command
    code, out = run_cli(capsys, "commable", *map(str, paths), "--within-focal", "--witness")
    assert (code, out["verdict"]) == (EXIT_YES, "yes")
    assert out["chain"]["nodes"] == [{"kind": "GAk", "A": [["1/2", "0"], ["0", "1/3"]], "k": 2}]


def test_matrix_outside_family_is_a_parse_error(tmp_path):
    path = tmp_path / "rot.json"
    path.write_text('{"kind":"GAk","A":[["0","1"],["-1","0"]],"k":2}', encoding="utf-8")
    assert main(["invariants", str(path)]) == EXIT_PARSE


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_invariants_ft8(capsys):
    code, out = run_cli(capsys, "invariants", corpus_path("ft8"))
    assert code == EXIT_YES
    assert out["type"] == "td" and out["s"] == 8 and out["q"] == 2
    assert out["varpi"] == "inf" and out["boundary"] == "cantor"
    assert out["special"] is True


def test_invariants_mixed_worked_example(capsys):
    code, out = run_cli(capsys, "invariants", corpus_path("gak_mixed"))
    assert code == EXIT_YES
    assert out["varpi"] == "1" and out["p0"] == "6"
    assert out["boundary"] == "xi(3)" and out["q"] == 2


def test_invariants_connected(capsys):
    code, out = run_cli(capsys, "invariants", corpus_path("gak_conn"))
    assert code == EXIT_YES
    assert out["type"] == "connected"
    assert out["s"] == 1 and out["q"] == 1 and out["varpi"] == "0"
    assert out["p0"] == "3" and out["boundary"] == "sphere(2)"
    assert "hull" in out


def test_invariants_dense_split_conjugates(capsys, tmp_path):
    for name, a, _ in dense_split_conjugates():
        path = tmp_path / f"{name}.json"
        rows = [[str(x) for x in row] for row in a.rows]
        path.write_text(json.dumps({"kind": "GAk", "A": rows, "k": 1}), encoding="utf-8")
        code, out = run_cli(capsys, "invariants", str(path))
        assert code == EXIT_YES and out["type"] == "connected", name


def test_invariants_tolerance_floats(capsys):
    code, out = run_cli(capsys, "invariants", corpus_path("gak_mixed"), "--tolerance", "1e-9")
    assert code == EXIT_YES
    assert abs(out["p0_float"] - 6.0) < 1e-9
    assert abs(out["varpi_float"] - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# commable / qi and exit codes
# ---------------------------------------------------------------------------


def test_commable_default_free_chain(capsys):
    code, out = run_cli(capsys, "commable", corpus_path("ft2"), corpus_path("ft3"))
    assert code == EXIT_YES and out["verdict"] == "yes"


def test_commable_within_focal_obstruction(capsys):
    code, out = run_cli(
        capsys, "commable", corpus_path("ft2"), corpus_path("ft3"), "--within-focal"
    )
    assert code == EXIT_NO
    assert out["obstruction"]["invariant"] == "q"
    assert out["obstruction"]["values"] == [2, 3]


def test_commable_identical_files_empty_chain(capsys):
    code, out = run_cli(
        capsys, "commable", corpus_path("ft2"), corpus_path("ft2"), "--witness"
    )
    assert code == EXIT_YES
    assert out["chain"]["pattern"] == "" and len(out["chain"]["nodes"]) == 1


def test_commable_witness_chain_structure(capsys):
    code, out = run_cli(
        capsys, "commable", corpus_path("ft2"), corpus_path("ft4"), "--witness",
        "--within-focal",
    )
    assert code == EXIT_YES
    chain = out["chain"]
    assert chain["pattern"] == "↗↖↗↖"
    assert len(chain["nodes"]) == len(chain["arrows"]) + 1
    assert {"kind": "FTpow", "q": 2, "n": 2} in chain["nodes"]
    assert all(a["direction"] in ("into-next", "from-next") for a in chain["arrows"])
    assert all(a["citation"] for a in chain["arrows"])


def test_qi_subcommand(capsys):
    code, out = run_cli(capsys, "qi", corpus_path("mf_b"), corpus_path("mf_a"))
    assert code == EXIT_YES and out["verdict"] == "yes"
    code, out = run_cli(capsys, "qi", corpus_path("mf_b"), corpus_path("mf_c"))
    assert code == EXIT_NO and out["obstruction"]["invariant"] == "q"


def test_qi_witness_chain(capsys):
    code, out = run_cli(
        capsys, "qi", corpus_path("gak_pair_a"), corpus_path("gak_pair_b"), "--witness"
    )
    assert code == EXIT_YES
    chain = out["chain"]
    assert chain["pattern"] == "↗↖↗↖"
    assert any(n["kind"] == "CompositeProduct" for n in chain["nodes"])


def test_qi_is_a_subcommand_only(capsys):
    """`qi` is the one route to quasi-isometry: `commable --qi` is a usage
    error, as is each argv below, and `qi --witness` prints these bytes.  A
    usage error raises SystemExit(2), writes nothing to stdout, and writes
    usage lines to stderr and, on its last line, the token at fault."""
    ft2, ft3 = corpus_path("ft2"), corpus_path("ft3")
    usage_errors = [
        ([], "subcommand"),
        (["nope", ft2], "nope"),
        (["commable", ft2, ft3, "--qi"], "--qi"),
        (["qi", ft2, ft3, "--within-focal"], "--within-focal"),
        (["commable", ft2], "required: B"),
        (["boundary", ft2, ft3], ft3),
        (["radical-check"], "required: --p"),
        (["radical-check", "--p", "x"], "'x'"),
        (["radical-check", "--p"], "--p"),
        (["commable", ft2, ft3, "--w"], "--w"),
        (["boundary", ft2, "--human=yes"], "--human"),
    ]
    for argv, token in usage_errors:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_PARSE, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: focalclass "), argv
        assert token in captured.err.splitlines()[-1], (argv, captured.err)
    assert main(["qi", corpus_path("ft2"), corpus_path("ft3"), "--witness"]) == EXIT_YES
    assert capsys.readouterr().out == (
        '{"verdict": "yes", "chain": {"nodes": [{"kind": "FT", "m": 2}, '
        '{"kind": "AutTree", "m": 2}, {"kind": "FreeGroup", "rank": 3}, '
        '{"kind": "AutTree", "m": 3}, {"kind": "FT", "m": 3}], "arrows": ['
        '{"direction": "into-next", "citation": "tree-automorphism-group"}, '
        '{"direction": "from-next", "citation": "tree-lattice-free-group"}, '
        '{"direction": "into-next", "citation": "tree-lattice-free-group"}, '
        '{"direction": "from-next", "citation": "tree-automorphism-group"}], '
        '"pattern": "\\u2197\\u2196\\u2197\\u2196"}}\n'
    )
    assert main(["qi", corpus_path("mf_b"), corpus_path("mf_c"), "--witness"]) == EXIT_NO
    assert capsys.readouterr().out == (
        '{"verdict": "no", "obstruction": {"invariant": "q", "values": [2, 3], '
        '"note": "the non-power root is a quasi-isometry invariant on mixed type"}}\n'
    )


def _readme_usage_lines() -> list:
    """The command lines of the README's "Subcommands" block, comments cut."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Subcommands:\n\n```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#")[0].rstrip() for line in block.splitlines() if line.startswith("focalclass")]


def test_help_prints_the_readme_usage_lines(capsys):
    """-h and --help, alone or after a subcommand, exit 0 and print usage
    lines equal to the README's command lines, and nothing on stderr."""
    readme = _readme_usage_lines()
    assert len(readme) == 8
    cases = [(["-h"], readme), (["--help"], readme), (["--he"], readme)]
    cases += [([line.split()[1], flag], [line]) for line in readme for flag in ("-h", "--help")]
    for argv, lines in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0, argv
        captured = capsys.readouterr()
        *usage, note = captured.out.removeprefix("usage: ").splitlines()
        assert [line.strip() for line in usage] == lines, argv
        assert "--human" in note and captured.err == "", argv


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser that focalclass.cli.parse_args replaced: the
    reference of test_parse_args_agrees_with_argparse."""
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


# every field a handler reads; cmd_commable reads qi and within_focal with
# getattr and a default of False
_FIELDS = ("file", "fileA", "fileB", "tolerance", "within_focal", "witness", "qi", "human",
           "p", "samples", "conj_bound", "m", "depth")
# each subcommand's count of positionals and its options; every one also
# takes --human and --help
_GRAMMAR = {
    "invariants": (1, ("--tolerance",)), "commable": (2, ("--within-focal", "--witness")),
    "qi": (2, ("--witness",)), "boundary": (1, ()), "hull": (1, ()), "pattern": (2, ()),
    "radical-check": (0, ("--p", "--samples", "--conj-bound")), "ft-oracle": (0, ("--m", "--depth")),
}
_FLAGS = ("--within-focal", "--witness", "--human", "--help", "-h")
_REQUIRED = ("--p", "--m", "--depth")
_NUMBERS = ("3", "0", "7", "-3", "-.5", "1e-9", "nan")
_VALUES = (*_NUMBERS, "-1e-9", "-inf", "x", "", "-", "-x", "-h", "--")
_POSITIONALS = (corpus_path("ft2"), corpus_path("ft3")) * 3 + ("-3", "-x", "x", "-", "")


def _rarely(draw) -> bool:
    return draw(st.integers(0, 5)) == 0


@st.composite
def _option(draw, option):
    """One option in full or by a prefix past "--" (unique or not), with its
    value as the next token or after "=", mostly a number; now and then a
    flag with a value."""
    name = draw(st.sampled_from([option[:i] for i in range(3, len(option) + 1)] or [option]))
    value = draw(st.sampled_from(_NUMBERS) if draw(st.booleans()) else st.sampled_from(_VALUES))
    if option in _FLAGS and not _rarely(draw):
        return (name,)
    return (f"{name}={value}",) if draw(st.booleans()) else (name, value)


# any option of any subcommand, --qi, which none takes, or a lone value
_NOISE = st.sampled_from((*chain.from_iterable(opts for _, opts in _GRAMMAR.values()),
                          "--human", "--help", "--qi", "-h")).flatmap(_option)
_NOISE |= st.tuples(st.sampled_from(_VALUES))


@st.composite
def _argvs(draw):
    """A subcommand, about its count of positionals and a few of its own
    options (its required ones more often than not), in any order; now and
    then a token of another subcommand, a "--" put anywhere, or a few tokens
    without a subcommand."""
    if _rarely(draw):
        parts = draw(st.lists(st.tuples(st.sampled_from(sorted(_GRAMMAR))) | _NOISE, max_size=3))
        return list(chain.from_iterable(parts))
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    count, options = _GRAMMAR[command]
    count += draw(st.sampled_from((-1, 1))) if count and _rarely(draw) else 0
    units = [(draw(st.sampled_from(_POSITIONALS)),) for _ in range(count)]
    units += [draw(_option(o)) for o in options if o in _REQUIRED and not _rarely(draw)]
    units += draw(st.lists(st.sampled_from((*options, "--human")).flatmap(_option), max_size=3))
    units += [draw(_NOISE)] if _rarely(draw) else []
    tokens = list(chain.from_iterable(draw(st.permutations(units))))
    if _rarely(draw):
        tokens.insert(draw(st.integers(0, len(tokens))), "--")
    return [command, *tokens]


def _parsed(parse, argv):
    """The handler and the value of each field a handler reads, or None when
    parse exits (help or a usage error)."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            args = parse(argv)
        except SystemExit:
            return None
    return args.func, [getattr(args, field, False) for field in _FIELDS]


@settings(max_examples=400, deadline=None)
@given(_argvs())
@example(["commable", "--with", corpus_path("ft2"), "--witness", corpus_path("ft3")])
@example(["radical-check", "--conj=5", "--p", "-3", "--samples", "0", "--p=7"])
@example(["invariants", "--tol=-inf", "--", "-h"])
@example(["qi", "-", "--", "--witness"])
def test_parse_args_agrees_with_argparse(argv):
    """Wherever the argparse reference accepts argv, parse_args picks the
    same handler and gives every field a handler reads the same value
    (compared by repr, so that nan equals nan).  argparse 3.11 drops "--"
    from the tokens it hands an option or a positional: --opt=-- and a
    positional after a second "--" read as lists, which no handler reads,
    and such an argv counts as rejected, even where a later --opt value
    replaces the list."""
    expected = _parsed(lambda argv: build_parser().parse_args(argv), argv)
    if (expected is None or any(token.endswith("=--") for token in argv)
            or any(isinstance(value, list) for value in expected[1])):
        return
    got = _parsed(parse_args, argv)
    assert repr(got) == repr(expected), argv


def test_invariants_composite_and_millefeuille(capsys):
    code, out = run_cli(capsys, "invariants", corpus_path("comp_a"))
    assert code == EXIT_YES
    assert out["type"] == "mixed" and out["varpi"] == "3/2" and out["q"] == 5
    code, out = run_cli(capsys, "invariants", corpus_path("mf_a"))
    assert code == EXIT_YES
    assert out["varpi"] == "1" and out["p0"] == "2" and out["s"] == 4


def test_commable_undecided_exit_code(capsys, tmp_path):
    a = 10**80
    f1 = tmp_path / "u1.json"
    f2 = tmp_path / "u2.json"
    f1.write_text(
        json.dumps({"kind": "GAk", "A": [[f"1/{a}", "0"], ["0", f"1/{a + 1}"]], "k": 2}),
        encoding="utf-8",
    )
    f2.write_text(
        json.dumps({"kind": "GAk", "A": [[f"1/{a + 1}", "0"], ["0", f"1/{a + 2}"]], "k": 2}),
        encoding="utf-8",
    )
    code, out = run_cli(capsys, "commable", str(f1), str(f2), "--within-focal")
    assert code == EXIT_UNDECIDED and out["verdict"] == "undecided"


@pytest.mark.parametrize("argv", [("commable", "--within-focal"), ("commable",), ("qi",)])
def test_varpis_over_one_base_are_certified_unequal(capsys, tmp_path, argv):
    """The varpis log(3^(a+1))/log(2^a) and log(3^(a+2))/log(2^(a+1)) with
    a = 10^40 share both bases, so unique factorisation tells them apart
    where enclosures at 256 extra bits cannot."""
    a = 10**40
    paths = []
    for name, t in (("m0", f"{a}/{a + 1}"), ("m1", f"{a + 1}/{a + 2}")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"kind": "Millefeuille", "A": [["1/2"]], "t": t, "k": 3}),
                        encoding="utf-8")
        paths.append(str(path))
    code, out = run_cli(capsys, argv[0], *paths, *argv[1:])
    assert code == EXIT_NO and out["verdict"] == "no"
    assert out["obstruction"]["invariant"] == "varpi"
    assert out["obstruction"]["values"] == [f"log(3^{a + 1})/log(2^{a})",
                                            f"log(3^{a + 2})/log(2^{a + 1})"]


# ---------------------------------------------------------------------------
# boundary / hull / pattern
# ---------------------------------------------------------------------------


def test_boundary_command(capsys):
    code, out = run_cli(capsys, "boundary", corpus_path("gak_mixed"))
    assert code == EXIT_YES and out["boundary"] == "xi(3)"


def test_hull_command(capsys):
    code, out = run_cli(capsys, "hull", corpus_path("gak_conn"))
    assert code == EXIT_YES
    assert "{±1}^2" in out["hull"] and out["factors"] == [1, 1]
    code, out = run_cli(capsys, "hull", corpus_path("gak_conn_scalar"))
    assert code == EXIT_YES and "O(2)" in out["hull"]


def test_hull_rejects_non_connected(capsys):
    code = main(["hull", corpus_path("ft2")])
    assert code == EXIT_PARSE


def test_hull_undecided_for_jordan_block(capsys, tmp_path):
    path = tmp_path / "jordan.json"
    path.write_text(
        '{"kind":"GAk","A":[["1/2","1"],["0","1/2"]],"k":1}', encoding="utf-8"
    )
    code, out = run_cli(capsys, "hull", str(path))
    assert code == EXIT_UNDECIDED and out["verdict"] == "undecided"


def test_hull_node_without_a_hull_is_printed_without_one(capsys, tmp_path):
    """Two Jordan blocks meet in a Hull node that has no hull to print, so
    the node carries its connected key alone; no corpus pair prints one."""
    paths = []
    for i, text in enumerate(('{"kind":"GAk","A":[["1/2","1"],["0","1/2"]],"k":1}',
                              '{"kind":"GAk","A":[["1/4","3"],["0","1/4"]],"k":1}')):
        paths.append(tmp_path / f"jordan{i}.json")
        paths[-1].write_text(text, encoding="utf-8")
    code = main(["commable", *map(str, paths), "--within-focal", "--witness"])
    assert code == EXIT_YES
    assert capsys.readouterr().out == (
        '{"verdict": "yes", "chain": {"nodes": ['
        '{"kind": "GAk", "A": [["1/2", "1"], ["0", "1/2"]], "k": 1}, '
        '{"kind": "Hull", "key": [["1", [2]]]}, '
        '{"kind": "GAk", "A": [["1/4", "3"], ["0", "1/4"]], "k": 1}], '
        '"arrows": [{"direction": "into-next", "citation": "focal-universal-hull"}, '
        '{"direction": "from-next", "citation": "focal-universal-hull"}], '
        '"pattern": "\\u2197\\u2196"}}\n')


def test_pattern_command(capsys):
    code, out = run_cli(capsys, "pattern", corpus_path("ft2"), corpus_path("ft4"))
    assert code == EXIT_YES
    statuses = {(p["pattern"], p["status"]) for p in out["patterns"]}
    assert ("↗↖", "impossible") in statuses
    assert ("↖↗", "exists") in statuses


def test_pattern_rejects_connected_pairs(capsys):
    code = main(["pattern", corpus_path("gak_conn"), corpus_path("gak_conn_39")])
    assert code == EXIT_PARSE


# ---------------------------------------------------------------------------
# oracle subcommands
# ---------------------------------------------------------------------------


def test_ft_oracle_command(capsys):
    code, out = run_cli(capsys, "ft-oracle", "--m", "3", "--depth", "2")
    assert code == EXIT_YES
    assert out == {"index": 3, "expected": 3, "match": True}


def test_ft_oracle_guard(capsys):
    assert main(["ft-oracle", "--m", "9", "--depth", "2"]) == EXIT_PARSE


def test_radical_check_command(capsys):
    code, out = run_cli(
        capsys, "radical-check", "--p", "3", "--samples", "5", "--conj-bound", "20"
    )
    assert code == EXIT_YES
    assert out["center_gamma2"] == "pass"
    assert out["twist_identity"] == "pass"
    assert out["non_torsion_units"] == "pass"
    assert out["icc_gamma1_min_orbit"] >= 20


def test_radical_check_accepts_every_documented_sample_count(capsys):
    # degree 4 over F_2 has 2^9 = 512 Laurent polynomials: 131 is in range,
    # and 513 is not
    code, out = run_cli(capsys, "radical-check", "--p", "2", "--samples", "131")
    assert (code, out["center_gamma2"]) == (EXIT_YES, "pass")
    assert main(["radical-check", "--p", "2", "--samples", "513"]) == EXIT_PARSE
    assert "--samples out of range" in capsys.readouterr().err


def test_radical_check_rejects_composite_p(capsys):
    assert main(["radical-check", "--p", "4"]) == EXIT_PARSE


def test_radical_check_bounds_p_before_primality(capsys):
    # 2^20 itself is in range and fails the primality test; one past it is
    # rejected by the range check alone
    assert main(["radical-check", "--p", str(2**20)]) == EXIT_PARSE
    assert "must be prime" in capsys.readouterr().err
    assert main(["radical-check", "--p", str(2**20 + 1)]) == EXIT_PARSE
    assert "--p out of range" in capsys.readouterr().err


# --p x --samples x --conj-bound over the documented ranges, then their edges
# and malformed values; "" leaves an option at its default
_RADICAL_GRID = [(p, n, b) for p in ("2", "3", "5", "31", "1048573") for n in ("1", "9", "1000")
                 for b in ("1", "1000")] + [("2", "512", "")] + [
    ("2", "513", ""), ("3", "836", ""), ("31", "10000", ""), ("31", "10000", "1000"),
    ("1048573", "10000", ""), ("1048573", "10000", "1000"), ("3", "10000", "1000"),
    ("1", "", ""), ("0", "", ""), ("-3", "", ""), ("4", "", ""), (str(2**20), "", ""),
    (str(2**20 + 1), "", ""), ("x", "", ""), ("2.5", "", ""), ("31", "0", ""),
    ("31", "10001", ""), ("5", "abc", ""), ("3", "-1", ""), ("3", "", "0"), ("3", "", "1001"),
    ("3", "", "z")]
_RADICAL_GRID_DIGEST = "a48a53fb1d3dbe84ab68056cd7a078c809b1d041ef988e6c3925049249c4bda4"


def test_radical_check_grid_is_pinned(monkeypatch):
    """radical-check on 53 argument sets, in process: one sha256 over the
    arguments, exit code, stdout and stderr of each call, so any change to
    its output or exit codes shows here."""
    monkeypatch.delenv("FOCAL_LOG", raising=False)
    assert len(_RADICAL_GRID) == 53
    codes, digest = Counter(), hashlib.sha256()
    for p, samples, bound in _RADICAL_GRID:
        argv = ["radical-check", "--p", p]
        argv += ["--samples", samples] * bool(samples) + ["--conj-bound", bound] * bool(bound)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # a malformed option is a usage error
                code = exc.code
        codes[code] += 1
        digest.update("\t".join([*argv, str(code), out.getvalue(), err.getvalue()]).encode() + b"\n")
    assert codes == {0: 35, 2: 18}
    assert digest.hexdigest() == _RADICAL_GRID_DIGEST


# ---------------------------------------------------------------------------
# process-level checks
# ---------------------------------------------------------------------------


def run_python(*args, timeout, env=(), stdout=subprocess.PIPE):
    """Run the interpreter on args as a child process, with the variables of
    env added and stdout (captured by default) as given; a child that
    outlives `timeout` seconds is killed and the calling test fails instead
    of stalling."""
    # the child imports focalclass from wherever this process found it
    src = str(Path(focalclass.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **dict(env)},
        timeout=timeout,
    )


def run_child(*argv, timeout, env=(), stdout=subprocess.PIPE):
    """Run the CLI as a child process, under the timeout of run_python."""
    return run_python("-m", "focalclass.cli", *argv, timeout=timeout, env=env, stdout=stdout)


def test_closed_stdout_keeps_the_exit_code():
    """A reader that closed its end of the pipe before the answer came does
    not turn yes into no: the exit code stays 0 and stderr stays empty, with
    stdout buffered or not."""
    argv = ("commable", corpus_path("gak_pair_a"), corpus_path("gak_pair_b"), "--within-focal")
    for unbuffered in ("", "1"):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run_child(*argv, timeout=20, env={"PYTHONUNBUFFERED": unbuffered}, stdout=write)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (0, ""), unbuffered


def test_focal_log_writes_certificates_to_stderr_only():
    """FOCAL_LOG=DEBUG names the spectral path of each matrix and the
    certificate of each comparison on stderr; stdout and the exit code stay
    byte-identical.  The pair's decision compares connected keys, then varpi."""
    argv = ("commable", corpus_path("gak_pair_a"), corpus_path("gak_pair_b"), "--within-focal")
    plain, debug = (run_child(*argv, timeout=20, env={"FOCAL_LOG": level})
                    for level in ("", "DEBUG"))
    assert (plain.returncode, plain.stdout) == (debug.returncode, debug.stdout)
    assert (plain.returncode, plain.stdout) == (0, '{"verdict": "yes"}\n')
    assert plain.stderr == ""
    lines = debug.stderr.splitlines()
    spectral = [line for line in lines if line.startswith("DEBUG:focalclass.matexact:")]
    assert spectral == ["DEBUG:focalclass.matexact:spectral data of a 2 x 2 matrix"
                        " from its triangular diagonal"] * 2
    compares = [line for line in lines if line not in spectral]
    assert compares and all(line.startswith("DEBUG:focalclass.exactnum:compare ") for line in compares)
    assert all(line.endswith(": EQUAL by canonical match") for line in compares)


# runs the CLI in a child where importing mpmath fails
WITHOUT_MPMATH = ("import runpy, sys; sys.modules['mpmath'] = None; "
                  "runpy.run_module('focalclass.cli', run_name='__main__')")


def test_cli_runs_without_mpmath(tmp_path):
    """The CLI imports only the standard library: with mpmath unimportable,
    interval enclosures still certify a connected-key obstruction, and the
    README's 10^80 pair still ends undecided.  Importing the CLI loads
    neither mpmath nor radicalcheck, which only radical-check uses."""
    def gak(name, *diagonal):
        rows = [["0"] * len(diagonal) for _ in diagonal]
        for i, entry in enumerate(diagonal):
            rows[i][i] = entry
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"kind": "GAk", "A": rows, "k": 1}), encoding="utf-8")
        return str(path)

    # the keys log(3)/log(2) and log(5)/log(3) share no base in place
    pair = gak("a", "1/2", "1/3"), gak("b", "1/3", "1/5")
    proc = run_python("-c", WITHOUT_MPMATH, "commable", *pair, "--within-focal",
                      timeout=20, env={"FOCAL_LOG": "DEBUG"})
    assert proc.returncode == EXIT_NO, proc.stderr
    assert json.loads(proc.stdout)["obstruction"]["invariant"] == "connected-key"
    assert proc.stderr.splitlines()[-1] == (
        "DEBUG:focalclass.exactnum:compare log(3)/log(2) with log(5)/log(3): "
        "NOT_EQUAL by disjoint enclosures at 259 bits")
    a = 10**80
    near = gak("u0", f"1/{a}", f"1/{a + 1}"), gak("u1", f"1/{a + 1}", f"1/{a + 2}")
    proc = run_python("-c", WITHOUT_MPMATH, "commable", *near, "--within-focal", timeout=20)
    assert proc.returncode == EXIT_UNDECIDED, proc.stderr
    proc = run_python("-c", "import sys, focalclass.cli; print(sorted(m for m in sys.modules "
                      "if m.startswith(('mpmath', 'focalclass.radicalcheck'))))", timeout=20)
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def test_cli_import_decorates_only_the_descriptors():
    """Each dataclass decoration compiles its methods at import time, so the
    records a CLI child loads are on exactnum.Record.  Only the four
    descriptor families stay dataclasses: moved, they raise the benchmark's
    radical_walk peak memory until its rounds stop compiling dataclasses
    from source (ROADMAP item 3)."""
    proc = run_python("-c", "import dataclasses, sys, focalclass.cli; print(sorted("
                      "name for m, module in list(sys.modules.items()) if m.startswith('focalclass') "
                      "for name, obj in vars(module).items() if isinstance(obj, type) "
                      "and obj.__module__ == m and dataclasses.is_dataclass(obj)))", timeout=20)
    assert (proc.returncode, proc.stdout) == (
        0, "['Composite', 'FT', 'GAk', 'Millefeuille']\n"), proc.stderr


def test_cli_child_loads_no_logging():
    """Importing focalclass.cli loads no logging, and under -S, where site
    does not preload it, no typing either.  With FOCAL_LOG unset, a run of
    commable, which compares values and computes spectra, and runs of
    boundary and of commable --within-focal --witness have still loaded
    neither logging nor argparse, nor gettext and locale, which argparse's
    messages load."""
    probe = "import sys, focalclass.cli; print([m for m in {!r} if m in sys.modules])"
    for flags, names in (((), ("logging",)), (("-S",), ("logging", "typing"))):
        proc = run_python(*flags, "-c", probe.format(names), timeout=20)
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), (flags, proc.stderr)
    run = ("import sys; from focalclass.cli import main; code = main(sys.argv[1:]); print([m for m in "
           "('logging', 'argparse', 'gettext', 'locale') if m in sys.modules], file=sys.stderr); "
           "sys.exit(code)")
    runs = [
        (("commable", corpus_path("gak_pair_a"), corpus_path("gak_pair_b"), "--within-focal"),
         0, '{"verdict": "yes"}\n'),
        (("boundary", corpus_path("ft2")), 0, '{"boundary": "cantor"}\n'),
        (("commable", corpus_path("ft2"), corpus_path("ft3"), "--within-focal", "--witness"),
         1, '{"verdict": "no", "obstruction": {"invariant": "q", "values": [2, 3], '
            '"note": "q is an invariant of commability within focal groups"}}\n'),
    ]
    for argv, code, out in runs:
        proc = run_python("-c", run, *argv, timeout=20, env={"FOCAL_LOG": ""})
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "[]\n"), argv


def test_import_and_library_calls_freeze_nothing():
    """Importing focalclass or focalclass.cli freezes none of the collector's
    heap, and neither do library calls: a program that uses the library
    keeps every cycle collectable."""
    code = ("import gc\n"
            "counts = [gc.get_freeze_count()]\n"
            "import focalclass\n"
            "counts.append(gc.get_freeze_count())\n"
            "import focalclass.cli\n"
            "from focalclass import FT, GAk, MatQ, commable, compute_invariants\n"
            "from focalclass.radicalcheck import designated_units\n"
            "counts.append(gc.get_freeze_count())\n"
            "g, h = FT(m=2), GAk(matrix=MatQ([['1/2']]), k=2)\n"
            "compute_invariants(g), compute_invariants(h), commable(g, h), designated_units(5)\n"
            "counts.append(gc.get_freeze_count())\n"
            "print(counts)\n")
    proc = run_python("-c", code, timeout=20)
    assert (proc.returncode, proc.stdout) == (0, "[0, 0, 0, 0]\n"), proc.stderr


def test_main_freezes_the_heap_once_per_process():
    """The first main call in a process freezes the heap, so the
    collections at exit skip what start-up and the imports built; a second
    call freezes nothing more, and neither does a first call after the
    caller froze the heap itself.  None of this changes stdout or the exit
    code."""
    argv = ("boundary", corpus_path("ft2"))
    plain = run_child(*argv, timeout=20)
    assert (plain.returncode, plain.stdout) == (0, '{"boundary": "cantor"}\n'), plain.stderr
    for caller_froze, calls in ((False, 1), (True, 0)):
        code = ("import gc, sys\n"
                "from focalclass.cli import main\n"
                f"if {caller_froze}: gc.freeze()\n"
                "freeze, calls = gc.freeze, []\n"
                "gc.freeze = lambda: (calls.append(1), freeze())[1]\n"
                "codes = [main(sys.argv[1:]), gc.get_freeze_count() > 0, main(sys.argv[1:])]\n"
                "print(codes, len(calls), file=sys.stderr)\n"
                "sys.exit(codes[0])\n")
        proc = run_python("-c", code, *argv, timeout=20)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            plain.returncode, plain.stdout * 2, f"[0, True, 0] {calls}\n"), caller_froze


def test_library_caller_gets_debug_lines_once_logging_is_configured():
    """Without the CLI or FOCAL_LOG, a program that configured logging gets
    the certificate line of compare_values and the spectral-path line of
    spectral_data on stderr."""
    code = ("import logging; logging.basicConfig(level=logging.DEBUG)\n"
            "from focalclass.exactnum import LogRatio, compare_values\n"
            "from focalclass.matexact import MatQ, spectral_data\n"
            "compare_values(LogRatio(3, 2), LogRatio(5, 3))\n"
            "spectral_data(MatQ([['1/2', '1'], ['0', '1/3']]))\n")
    proc = run_python("-c", code, timeout=20, env={"FOCAL_LOG": ""})
    assert (proc.returncode, proc.stdout) == (0, ""), proc.stderr
    assert proc.stderr.splitlines() == [
        "DEBUG:focalclass.exactnum:compare log(3)/log(2) with log(5)/log(3): "
        "NOT_EQUAL by disjoint enclosures at 259 bits",
        "DEBUG:focalclass.matexact:spectral data of a 2 x 2 matrix from its triangular diagonal",
    ]


def test_console_entry_point_runs():
    proc = run_child("invariants", corpus_path("ft8"), timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["q"] == 2


def test_invariants_composite_varpi_near_one(tmp_path):
    # p0 = (1 + varpi) * p0(connected part) with a rational connected part
    # must not raise a base to the power 1999999: the integer root search
    # on such a number does not finish
    path = tmp_path / "composite.json"
    path.write_text(
        json.dumps({"kind": "Composite", "A": [["1/2"]], "varpi": "999999/1000000", "q": 2}),
        encoding="utf-8",
    )
    proc = run_child("invariants", str(path), timeout=20)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["varpi"] == "999999/1000000" and out["p0"] == "1999999/1000000"


def test_invariants_composite_irrational_p0_varpi_near_one(tmp_path):
    # the scaled p0 keeps its exponents: log(6)/log(2) times 1999999/1000000
    # is never multiplied out into a number with a million-bit base
    path = tmp_path / "composite.json"
    path.write_text(
        json.dumps({"kind": "Composite", "A": [["1/2", "0"], ["0", "1/3"]],
                    "varpi": "999999/1000000", "q": 2}),
        encoding="utf-8",
    )
    proc = run_child("invariants", str(path), timeout=20)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["p0"] == "log(6^1999999)/log(2^1000000)"


def test_millefeuille_varpi_t_near_one():
    code = (
        "from fractions import Fraction as F\n"
        "from focalclass import MatQ, Millefeuille, invariant_varpi\n"
        "print(invariant_varpi(Millefeuille(MatQ([['1/2']]), F(999999, 1000000), 3)))\n"
    )
    proc = run_python("-c", code, timeout=20)
    assert proc.returncode == 0
    assert proc.stdout == "log(3^1000000)/log(2^999999)\n"


def test_radical_check_rejects_large_prime_p():
    # 10^12 + 39 is prime: without the range check the primality test by
    # trial division would run again in each claim's read of the units
    proc = run_child("radical-check", "--p", str(10**12 + 39), timeout=20)
    assert proc.returncode == EXIT_PARSE
    assert "--p out of range" in proc.stderr
    assert proc.stdout == ""


def test_radical_check_large_bound_counts_from_stabiliser():
    # each conjugacy orbit is counted from its multiplier, so the largest
    # bound costs no more than the smallest; a walk of the orbit would not
    # finish inside the timeout
    proc = run_child("radical-check", "--p", "31", "--conj-bound", "1000", timeout=20)
    assert proc.returncode == EXIT_YES
    assert json.loads(proc.stdout)["icc_gamma1_min_orbit"] == 2001


def _large_index_pair(tmp_path, k2):
    """A GAk descriptor of index 10^6, whose s = 10^(10^6) is never needed
    by a decision, and a second GAk over the same action with parameter k2."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text('{"kind":"GAk","A":[["1/2"]],"k":10,"index":1000000}', encoding="utf-8")
    b.write_text(json.dumps({"kind": "GAk", "A": [["1/2"]], "k": k2}), encoding="utf-8")
    return str(a), str(b)


def test_large_index_decided_on_varpi_without_the_power(tmp_path):
    proc = run_child("commable", *_large_index_pair(tmp_path, 100), "--within-focal", timeout=2)
    assert proc.returncode == EXIT_NO
    assert json.loads(proc.stdout)["obstruction"]["invariant"] == "varpi"


def test_large_index_commable_without_the_power(tmp_path):
    proc = run_child("commable", *_large_index_pair(tmp_path, 10), "--within-focal", timeout=2)
    assert proc.returncode == EXIT_YES
    assert json.loads(proc.stdout) == {"verdict": "yes"}


# each ended in a traceback, empty stdout and exit 1, the code for no: a
# 4300-digit limit of int-to-str met in the output, or in rendering p0
_CRASHES = {
    "s_past_the_digit_limit": (["invariants", "a"], "_emit"),
    "p0_past_the_digit_limit": (["invariants", "b"], "render_value"),
    "chain_past_the_digit_limit": (["commable", "a", "c", "--within-focal", "--witness"], "_emit"),
}
_CRASH_FILES = {
    "a": '{"kind":"GAk","A":[["1/2"]],"k":10,"index":5000}',
    "b": '{"kind":"Millefeuille","A":[["1/2"]],"t":"1/1000000","k":3}',
    "c": '{"kind":"GAk","A":[["1/2"]],"k":10}',
}


@pytest.mark.parametrize("name", _CRASHES)
def test_a_crash_exits_undecided_with_an_internal_error(tmp_path, name):
    argv, where = _CRASHES[name]
    for key, text in _CRASH_FILES.items():
        (tmp_path / f"{key}.json").write_text(text, encoding="utf-8")
    argv = [str(tmp_path / f"{a}.json") if a in _CRASH_FILES else a for a in argv]
    proc = run_child(*argv, timeout=20)
    assert proc.returncode == EXIT_UNDECIDED
    assert json.loads(proc.stdout) == {  # one document, and nothing else
        "verdict": "undecided",
        "detail": "internal error: ValueError: Exceeds the limit (4300 digits) for integer"
                  " string conversion; use sys.set_int_max_str_digits() to increase the limit"}
    assert proc.stderr.startswith("Traceback") and f", in {where}\n" in proc.stderr


def test_internal_errors_map_to_exit_3_and_interrupts_pass(monkeypatch, capsys):
    def fail(exc):
        def boundary(g):
            raise exc
        monkeypatch.setattr(focalclass.cli, "boundary", boundary)

    fail(RuntimeError("boom"))
    assert main(["boundary", corpus_path("ft2"), "--human"]) == EXIT_UNDECIDED
    out, err = capsys.readouterr()
    assert out == "verdict: undecided\ndetail: internal error: RuntimeError: boom\n"
    assert err.startswith("Traceback") and err.endswith("RuntimeError: boom\n")
    for exc in (KeyboardInterrupt(), SystemExit(4)):
        fail(exc)
        with pytest.raises(type(exc)):
            main(["boundary", corpus_path("ft2")])
    assert capsys.readouterr() == ("", "")


def test_human_output_is_not_json(capsys):
    code = main(["invariants", corpus_path("ft8"), "--human"])
    out = capsys.readouterr().out
    assert code == EXIT_YES
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_one_file_subcommands_write_strict_json_on_corpus(capsys, tmp_path):
    """json.dumps writes Infinity and NaN, which no JSON parser need accept:
    on every corpus file, stdout of each one-file subcommand parses under a
    parser that rejects them, and --tolerance writes null for a value with
    no finite float: both values of a totally disconnected group, and both
    of a group whose varpi, and so p0 = (1 + varpi) p0(A), is past the float
    range."""
    files = sorted(CORPUS.glob("*.json"))
    assert len(files) == 20
    huge = tmp_path / "huge_varpi.json"
    huge.write_text('{"kind":"Composite","A":[["1/2"]],"varpi":"' + "9" * 400 + '","q":2}',
                    encoding="utf-8")
    nulls = []
    for path in [*files, huge]:
        for argv in (("invariants", "--tolerance", "0"), ("invariants",), ("boundary",), ("hull",)):
            code = main([argv[0], str(path), *argv[1:]])
            out = capsys.readouterr().out
            if code == EXIT_PARSE:  # hull of a group not of connected type
                assert out == ""
                continue
            obj = json.loads(out, parse_constant=_reject_constant)
            if argv[1:]:
                floats = (obj["varpi_float"], obj["p0_float"])
                assert all(x is None or isinstance(x, float) for x in floats)
                nulls += [(path.stem, name) for x, name in zip(floats, ("varpi", "p0")) if x is None]
    assert nulls == [(name, x) for name in ("ft2", "ft3", "ft4", "ft8", "ft9", "gak_dim0")
                     for x in ("varpi", "p0")] + [("huge_varpi", "varpi"), ("huge_varpi", "p0")]


# ---------------------------------------------------------------------------
# the standing sweep over the corpus
# ---------------------------------------------------------------------------

_SWEEP_ONE = (("invariants",), ("boundary",), ("hull",))
_SWEEP_PAIR = (("commable",), ("commable", "--within-focal", "--witness"), ("qi", "--witness"),
               ("pattern",))
_SWEEP_DIGESTS = {  # re-pinned only for a deliberate change of wire output
    "invariants": "065749de322e940d6588acf2be6f532abe91b6f58e65ae6f10f1cd4e053fb521",
    "boundary": "a2159c5c0ff5805e58907a2f5ea357bab99ef66a3b9a0e95c84b589f2e5d250a",
    "hull": "dd2836c633faedc1ce28b5c5c0242e78316bf16cff465e8ac23b4e6a576cda89",
    "commable": "f61bf63263dc063322d618b99d13ff09f654802cb922420214b9361a442f69ea",
    "commable --within-focal --witness":
        "17b59a50bb0929902e1526958f369840eb4e741881520b39b38958bb7e2e164c",
    "qi --witness": "827f2fb81c97e1fff8291082afb141e9742ee3f91107306a32f0395e67c4fbbf",
    "pattern": "959842c1254fb1864252d3b187f10d858088c552c18e8673fa4b31a0459193dc",
}


def _sweep(directory: Path) -> tuple[dict, dict]:
    """Each one-file subcommand on each file of directory and each pair
    subcommand on each ordered pair of its files, in process: the histogram
    of exit codes and one sha256 per subcommand over the file names, exit
    code, stdout and stderr of its calls (paths reduced to basenames)."""
    files = sorted(directory.glob("*.json"))
    runs = [(cmd, (f,)) for cmd in _SWEEP_ONE for f in files]
    runs += [(cmd, (a, b)) for cmd in _SWEEP_PAIR for a in files for b in files]
    codes, digests = Counter(), {}
    for cmd, paths in runs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([cmd[0], *map(str, paths), *cmd[1:]])
        codes[code] += 1
        record = "\t".join([*(p.name for p in paths), str(code), out.getvalue(), err.getvalue()])
        record = record.replace(f"{directory}{os.sep}", "")
        digests.setdefault(" ".join(cmd), hashlib.sha256()).update(record.encode() + b"\n")
    return dict(codes), {cmd: h.hexdigest() for cmd, h in digests.items()}


def test_corpus_sweep_is_pinned(monkeypatch):
    """The sweep over the 20 corpus files, 1660 in-process calls, is pinned,
    so any change to wire output or exit codes shows here."""
    monkeypatch.delenv("FOCAL_LOG", raising=False)
    assert len(list(CORPUS.glob("*.json"))) == 20
    codes, digests = _sweep(CORPUS)
    assert codes == {0: 368, 1: 1032, 2: 260}
    assert digests == _SWEEP_DIGESTS


EXTRAS = Path(__file__).parent / "sweep_extras"
_EXTRAS_DIGESTS = {  # re-pinned only for a deliberate change of wire output
    "invariants": "74ecfdd1ad6d867efd4a5e5dbe541ba97ac9f3b2fdbd7dd37d27495c20bafff8",
    "boundary": "bbc856ed81e9e34988d97edd9ba992dd37207c73d272541e69075748fe224152",
    "hull": "82f35740eb7f08c54794fbb8e4901f276d1eee4c044f32224bf7f4682a6ea1d6",
    "commable": "985693d86e892829542478de840e73942046e20c236de9803277dc3905621c64",
    "commable --within-focal --witness":
        "951f950fee66deeb98ac1ec3cb2c066eaf654907e7088b9e31234a1fa21fa99a",
    "qi --witness": "f490f5d8804ca09eea80dfeffbf35c0954fef9d49f7718d1151f292ceb01ae8a",
    "pattern": "d5ace7272aac2568bae4b6ae4c76047ef0974d5398028da9bdf0299547697b58",
}


def test_extras_sweep_is_pinned(monkeypatch):
    """The same sweep over the 13 extra files, 715 calls.  Their matrices are
    dense, Jordan blocks, near or non-split, so the pin reaches what the
    diagonal corpus does not: the charpoly path, the interval enclosures and
    undecided verdicts."""
    monkeypatch.delenv("FOCAL_LOG", raising=False)
    assert len(list(EXTRAS.glob("*.json"))) == 13
    codes, digests = _sweep(EXTRAS)
    assert codes == {0: 126, 1: 366, 2: 217, 3: 6}
    assert digests == _EXTRAS_DIGESTS
