"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import focalclass
from focalclass.cli import (
    EXIT_NO,
    EXIT_PARSE,
    EXIT_UNDECIDED,
    EXIT_YES,
    canonical_text,
    main,
    parse_descriptor,
)

from helpers import dense_split_conjugates

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
    ]
    for i, text in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(text, encoding="utf-8")
        assert main(["invariants", str(path)]) == EXIT_PARSE


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
    error, and `qi --witness` prints these bytes."""
    with pytest.raises(SystemExit) as exc:
        main(["commable", corpus_path("ft2"), corpus_path("ft3"), "--qi"])
    assert exc.value.code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and "--qi" in captured.err
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


def test_radical_check_rejects_composite_p(capsys):
    assert main(["radical-check", "--p", "4"]) == EXIT_PARSE


def test_radical_check_bounds_p_before_primality(capsys):
    # 2^20 itself is in range and fails the primality test; one past it is
    # rejected by the range check alone
    assert main(["radical-check", "--p", str(2**20)]) == EXIT_PARSE
    assert "must be prime" in capsys.readouterr().err
    assert main(["radical-check", "--p", str(2**20 + 1)]) == EXIT_PARSE
    assert "--p out of range" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# process-level checks
# ---------------------------------------------------------------------------


def run_python(*args, timeout, env=()):
    """Run the interpreter on args as a child process, with the variables of
    env added; a child that outlives `timeout` seconds is killed and the
    calling test fails instead of stalling."""
    # the child imports focalclass from wherever this process found it
    src = str(Path(focalclass.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **dict(env)},
        timeout=timeout,
    )


def run_child(*argv, timeout, env=()):
    """Run the CLI as a child process, under the timeout of run_python."""
    return run_python("-m", "focalclass.cli", *argv, timeout=timeout, env=env)


def test_focal_log_writes_certificates_to_stderr_only():
    """FOCAL_LOG=DEBUG names the certificate of each comparison on stderr;
    stdout and the exit code stay byte-identical.  The pair's decision
    compares connected keys, then varpi."""
    argv = ("commable", corpus_path("gak_pair_a"), corpus_path("gak_pair_b"), "--within-focal")
    plain, debug = (run_child(*argv, timeout=20, env={"FOCAL_LOG": level})
                    for level in ("", "DEBUG"))
    assert (plain.returncode, plain.stdout) == (debug.returncode, debug.stdout)
    assert (plain.returncode, plain.stdout) == (0, '{"verdict": "yes"}\n')
    assert plain.stderr == ""
    lines = debug.stderr.splitlines()
    assert lines and all(line.startswith("DEBUG:focalclass.exactnum:compare ") for line in lines)
    assert all(line.endswith(": EQUAL by canonical match") for line in lines)


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
    # trial division would run again in every public F_p(t) constructor call
    proc = run_child("radical-check", "--p", str(10**12 + 39), timeout=20)
    assert proc.returncode == EXIT_PARSE
    assert "--p out of range" in proc.stderr
    assert proc.stdout == ""


def test_radical_check_large_bound_counts_from_stabiliser():
    # each conjugacy orbit is counted from its stabiliser, so the largest
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


def test_human_output_is_not_json(capsys):
    code = main(["invariants", corpus_path("ft8"), "--human"])
    out = capsys.readouterr().out
    assert code == EXIT_YES
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
