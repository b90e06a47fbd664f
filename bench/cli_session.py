"""cli_session: one fixed script of focalclass invocations, each a child process.

Covers every subcommand: invariants and boundary on the whole corpus, hull
on its connected members, the four pair commands on pairs that give yes,
no and undecided, a small ft-oracle and a small radical-check.  Five
invocations hit known faults of the program and are counted as failed.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from random import Random

import descriptors as D
import layers
import core
from core import BENCH_DIR, CORPUS, child_env, child_reference_loop, median_ref, run_child, time_reference
from exact import close, eval_rendered, matrix_text, unit_lower, transpose, conjugate_lu

CLI_MAIN = "import sys; from focalclass.cli import main; sys.exit(main())"
BUDGET_S = 30.0  # no healthy command comes near this
HANG_BUDGET_S = 1.5  # the known hangs are cut here and counted as failed
EXIT = {"yes": 0, "no": 1, "undecided": 3}


class Op:
    def __init__(self, name, args, check, budget=BUDGET_S, known_fault=False):
        self.name = name
        self.args = args
        self.check = check  # check(result) -> error text or None
        self.budget = budget
        self.known_fault = known_fault  # rejected (exit 2) or cut at the budget today


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


def corpus_desc(obj: dict) -> D.Desc:
    """Corpus descriptors have diagonal matrices: the spectrum is the diagonal."""
    rows = obj.get("A", [])
    diag = []
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if i != j and Fraction(x) != 0:
                raise ValueError(f"corpus matrix is not diagonal: {obj}")
        diag.append(Fraction(row[i]))
    counts: dict = {}
    for ev in diag:
        counts[ev] = counts.get(ev, 0) + 1
    return D.Desc(obj, [(ev, (1,) * counts[ev]) for ev in sorted(counts)])


def fault_inputs():
    """The known faults: three valid descriptors rejected with exit 2 and
    two that hang.  They do not depend on the seed."""
    l3 = unit_lower(3, [1, -1, 2])
    u3 = transpose(unit_lower(3, [1, 1, -1]))
    a, b = 10**6, 10**15
    diag_a = [Fraction(a, a + 1), Fraction(a + 1, a + 2), Fraction(a + 2, a + 3)]
    diag_b = [Fraction(b, b + 1), Fraction(b - 1, b), Fraction(1, 2)]
    l7 = unit_lower(7, [1 if j == i - 1 else 0 for i in range(7) for j in range(i)])
    u7 = transpose(l7)
    diag_7 = [Fraction(x) for x in ("1/8", "7/25", "1/2", "14/25", "18/25", "7/8", "26/27")]
    rejected = []
    for name, lower, upper, diag in (("gak3_near_one", l3, u3, diag_a),
                                     ("gak3_wide", l3, u3, diag_b),
                                     ("gak7_bidiagonal", l7, u7, diag_7)):
        m = conjugate_lu(lower, upper, D.jordan([(ev, 1) for ev in diag]))
        spectrum = D.spectrum_of(diag, [(1,)] * len(diag))
        rejected.append((name, D.Desc({"kind": "GAk", "A": matrix_text(m), "k": 1}, spectrum)))
    half = [(Fraction(1, 2), (1,))]
    hangs = [
        ("composite_varpi_near_one",
         D.Desc({"kind": "Composite", "A": [["1/2"]], "varpi": "999999/1000000", "q": 2}, half)),
        ("millefeuille_t_near_one",
         D.Desc({"kind": "Millefeuille", "A": [["1/2"]], "t": "999999/1000000", "k": 3}, half)),
    ]
    return rejected, hangs


def pair_inputs(rng: Random):
    """(label, A, B, expected verdicts) with verdicts known by construction:
    expected is (commable, within-focal, qi, obstruction invariant)."""
    roots = [2, 3, 5, 6, 7, 10]
    q = rng.choice(roots)
    e1, e2 = rng.sample([1, 2, 3], 2)
    yes_td = (D.Desc({"kind": "FT", "m": q**e1}), D.Desc({"kind": "FT", "m": q**e2}))
    q1, q2 = rng.sample(roots, 2)
    no_td = (D.Desc({"kind": "FT", "m": q1}), D.Desc({"kind": "FT", "m": q2**2}))

    k = rng.choice([2, 3, 5])
    rows, spectrum = D.conn_datum(rng, 3, jordan_blocks=False)
    yes_mixed = (D.Desc({"kind": "GAk", "A": rows, "k": k}, spectrum),
                 D.Desc({"kind": "GAk", "A": D.reconjugate(rng, spectrum), "k": k}, spectrum))

    rows, spectrum = D.conn_datum(rng, 2, jordan_blocks=False)
    v1 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    v2 = v1 + Fraction(1, rng.randint(2, 9))
    no_mixed = (D.Desc({"kind": "Composite", "A": rows, "varpi": str(v1), "q": 2}, spectrum),
                D.Desc({"kind": "Composite", "A": D.reconjugate(rng, spectrum),
                        "varpi": str(v2), "q": 2}, spectrum))

    # the README's undecided example: log(a+1)/log(a) against log(a+2)/log(a+1)
    a = 10**80
    evs1, evs2 = [Fraction(1, a), Fraction(1, a + 1)], [Fraction(1, a + 1), Fraction(1, a + 2)]
    undecided = (
        D.Desc({"kind": "GAk", "A": D.diagonal_text(evs1), "k": 2},
               D.spectrum_of(evs1, [(1,), (1,)])),
        D.Desc({"kind": "GAk", "A": D.diagonal_text(evs2), "k": 2},
               D.spectrum_of(evs2, [(1,), (1,)])),
    )
    return [
        ("yes_td", *yes_td, ("yes", "yes", "yes", None)),
        ("no_td", *no_td, ("yes", "no", "yes", "q")),
        ("yes_mixed", *yes_mixed, ("yes", "yes", "yes", None)),
        ("no_mixed", *no_mixed, ("no", "no", "no", "varpi")),
        ("undecided", *undecided, ("undecided", "undecided", "undecided", None)),
    ]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _json(res):
    try:
        return json.loads(res.out)
    except json.JSONDecodeError:
        return None


def check_invariants(desc: D.Desc):
    exp = D.expected(desc)

    def check(res):
        out = _json(res)
        if res.code != 0 or out is None:
            return f"exit {res.code}: {res.err.strip()[-200:]}"
        for key in ("type", "s", "q", "boundary", "special"):
            if out.get(key) != exp[key]:
                return f"{key}: got {out.get(key)!r}, expected {exp[key]!r}"
        for key in ("varpi", "p0"):
            if not close(eval_rendered(out[key]), exp[key]):
                return f"{key}: {out[key]} is not {exp[key]!r}"
        if ("hull" in out) != ("hull_factors" in exp):
            return "hull present for the wrong descriptors"
        return None
    return check


def check_boundary(desc: D.Desc):
    exp = D.expected(desc)["boundary"]

    def check(res):
        out = _json(res)
        if res.code != 0 or out != {"boundary": exp}:
            return f"exit {res.code}, output {res.out.strip()!r}, expected {exp}"
        return None
    return check


def check_hull(desc: D.Desc):
    exp = D.expected(desc)

    def check(res):
        out = _json(res)
        if res.code != 0 or out is None:
            return f"exit {res.code}: {res.err.strip()[-200:]}"
        if out.get("dim") != desc.dim() or out.get("factors") != exp["hull_factors"]:
            return f"hull {out} does not match the spectrum"
        return None
    return check


def check_verdict(expect: str, a: dict, b: dict, witness: bool, invariant):
    def check(res):
        out = _json(res)
        if out is None or res.code != EXIT[expect] or out.get("verdict") != expect:
            return f"exit {res.code}, output {res.out.strip()[:200]!r}, expected {expect}"
        if expect == "yes" and witness:
            nodes = out["chain"]["nodes"]
            if nodes[0] != a or nodes[-1] != b:
                return "witness chain does not join the two inputs"
            if len(out["chain"]["arrows"]) != len(nodes) - 1:
                return "witness chain has the wrong number of arrows"
        if expect == "no" and invariant and out["obstruction"]["invariant"] != invariant:
            return f"obstruction {out['obstruction']['invariant']}, expected {invariant}"
        return None
    return check


def check_pattern(within: str, both_ft: bool):
    def check(res):
        out = _json(res)
        if res.code != 0 or out is None:
            return f"exit {res.code}: {res.err.strip()[-200:]}"
        entries = {(e["pattern"], e["status"]) for e in out["patterns"]}
        if any(s not in ("exists", "impossible", "unknown") for _, s in entries):
            return f"unknown status in {entries}"
        exists = {p for p, s in entries if s == "exists"}
        if within == "yes" and not exists:
            return "a commable pair with no certified pattern"
        if within != "yes" and exists:
            return f"a pattern certified for a pair that is not commable: {exists}"
        if both_ft and ("↗↖", "impossible") not in entries:
            return "two tree stabilizers never share an overgroup"
        return None
    return check


def check_ft_oracle(m: int):
    def check(res):
        out = _json(res)
        if res.code != 0 or out is None or out.get("index") != m:
            return f"ft-oracle index {out}, expected {m}"
        return None
    return check


def check_radical(bound: int):
    def check(res):
        out = _json(res)
        if res.code != 0 or out is None:
            return f"exit {res.code}: {res.err.strip()[-200:]}"
        if out["icc_gamma1_min_orbit"] != 2 * bound + 1:
            return f"min orbit {out['icc_gamma1_min_orbit']}, expected {2 * bound + 1}"
        if any(out[k] != "pass" for k in ("center_gamma2", "twist_identity",
                                          "non_torsion_units")):
            return f"a radical check did not pass: {out}"
        return None
    return check


# ---------------------------------------------------------------------------
# the script
# ---------------------------------------------------------------------------


def build_script(workdir, rng: Random) -> list:
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)

    def put(name: str, desc: D.Desc) -> str:
        path = inputs / f"{name}.json"
        path.write_text(json.dumps(desc.obj, separators=(",", ":")) + "\n", encoding="utf-8")
        return str(path)

    ops = []
    for path in sorted(CORPUS.glob("*.json")):
        desc = corpus_desc(json.loads(path.read_text(encoding="utf-8")))
        ops.append(Op(f"invariants {path.stem}", ["invariants", str(path)],
                      check_invariants(desc)))
        ops.append(Op(f"boundary {path.stem}", ["boundary", str(path)], check_boundary(desc)))
        if D.group_type(desc.obj) == "connected":
            ops.append(Op(f"hull {path.stem}", ["hull", str(path)], check_hull(desc)))
    for label, a, b, (plain, within, qi, invariant) in pair_inputs(rng):
        fa, fb = put(f"{label}_a", a), put(f"{label}_b", b)
        both_ft = a.kind == "FT" and b.kind == "FT"
        ops += [
            Op(f"commable {label}", ["commable", fa, fb],
               check_verdict(plain, a.obj, b.obj, False, None)),
            Op(f"commable-within {label}", ["commable", fa, fb, "--within-focal", "--witness"],
               check_verdict(within, a.obj, b.obj, True, invariant)),
            Op(f"qi {label}", ["qi", fa, fb, "--witness"],
               check_verdict(qi, a.obj, b.obj, True, invariant)),
            Op(f"pattern {label}", ["pattern", fa, fb], check_pattern(within, both_ft)),
        ]
    ops.append(Op("ft-oracle m3", ["ft-oracle", "--m", "3", "--depth", "3"], check_ft_oracle(3)))
    ops.append(Op("radical-check p5", ["radical-check", "--p", "5", "--samples", "4",
                                       "--conj-bound", "20"], check_radical(20)))
    rejected, hangs = fault_inputs()
    for name, desc in rejected:
        ops.append(Op(f"invariants {name}", ["invariants", put(name, desc)],
                      check_invariants(desc), known_fault=True))
    for name, desc in hangs:
        ops.append(Op(f"invariants {name}", ["invariants", put(name, desc)],
                      check_invariants(desc), budget=HANG_BUDGET_S, known_fault=True))
    return ops


class Workload(core.Workload):
    """The script and its input files; the children run the bytecode that
    set-up compiled."""

    TAIL = 90.0
    # the p90 sits in the start-up jitter of ordinary children, which takes
    # many samples to pin down (bench/README.md gives the spreads)
    MIN_ROUNDS = 3
    IN_PROCESS = False  # the benchmark process never imports the program

    def __init__(self, workdir, seed: int):
        super().__init__(workdir, seed)
        self.ops = None

    def build(self):
        self.ops = build_script(self.workdir, Random(f"cli_session:{self.seed}"))

    def round(self, traced: bool) -> dict:
        env = child_env(self.pycache)
        records = []
        merged: dict = {}
        prof_file = self.workdir / "child.prof"
        for op in self.ops:
            if traced:
                argv = [sys.executable, str(BENCH_DIR / "cli_profile.py"), str(prof_file)]
            else:
                argv = [sys.executable, "-c", CLI_MAIN]
            # the loop is timed on both sides of the child: the mean follows
            # the machine's speed over the child's lifetime more closely
            before = time_reference(child_reference_loop)
            res = run_child(argv + op.args, env, op.budget)
            ref = (before + time_reference(child_reference_loop)) / 2
            records.append(_record(op, res, ref))
            if traced and prof_file.exists():
                layers.merge_stats(merged, layers.load_stats(prof_file))
                prof_file.unlink()
        out = {"records": records,
               "maxrss_mb": max(r["maxrss_mb"] for r in records if not r["failed"])}
        if traced:
            out["layers"] = layers.profile_metrics(merged, median_ref(records), 0)
        return out


def _record(op: Op, res, ref: float) -> dict:
    rec = {"name": op.name, "seconds": res.seconds, "ref_s": ref,
           "maxrss_mb": res.maxrss_mb, "failed": False, "wrong": None, "note": None}
    if res.timed_out:
        rec["failed"] = True
        rec["note"] = f"no result within {op.budget:g} s"
    elif op.known_fault and res.code == 2:
        rec["failed"] = True
        rec["note"] = "exit 2: " + res.err.strip()[-120:]
    else:
        try:
            rec["wrong"] = op.check(res)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            rec["wrong"] = f"unreadable output {res.out.strip()[:120]!r}: {exc!r}"
    if rec["failed"] and not op.known_fault:
        rec["wrong"] = "unexpected failure: " + rec["note"]
    return rec
