"""classify_dense: in-process classification of descriptor pairs.

One operation parses two descriptor JSON texts with ``cli.parse_descriptor``,
computes both invariant sets, decides commability within focal groups,
unrestricted commability and quasi-isometry, and validates every yes chain.
Some GAk pairs also run ``power_conjugacy``.  Connected data are dense
unimodular conjugates, so the spectral path cannot take its triangular
shortcut.  Every verdict is known by construction.
"""

from __future__ import annotations

import json
from fractions import Fraction
from random import Random

import descriptors as D
import core
from core import in_fork, median_ref, timed_call
from exact import close, det, eval_rendered, log_q, matmul, matpow

# the make-up of one round; the seed only picks the numbers inside each slot
#   (family, construction, dim, jordan blocks, repeats)
SLOTS = (
    ("td", "same_root", 0, False, 2),
    ("td", "other_root", 0, False, 2),
    ("connected", "conjugate", 3, False, 1),
    ("connected", "conjugate", 4, True, 1),
    ("connected", "power", 3, False, 1),
    ("connected", "power", 5, False, 1),
    ("connected", "other_key", 4, False, 1),
    ("connected", "other_key", 6, True, 1),
    ("gak", "conjugate", 2, False, 1),
    # drawn more often only so that the median falls inside one slot, which
    # steadies latency_p50_ref: p50 tracks this slot, dimensions 4-6 show in
    # total_ref and the tail
    ("gak", "conjugate", 3, True, 6),
    ("gak", "conjugate", 5, True, 1),
    ("gak", "power", 3, False, 1),
    ("gak", "power", 4, True, 1),
    ("gak", "index", 4, False, 1),
    ("gak", "index", 6, False, 1),
    ("gak", "other_q", 3, False, 1),
    ("gak", "other_varpi", 4, False, 1),
    ("gak", "other_key", 5, False, 1),
    ("composite", "conjugate", 4, False, 1),
    ("composite", "index", 3, True, 1),
    ("composite", "other_varpi", 3, False, 1),
    ("composite", "other_q", 2, False, 1),
    ("composite", "other_key", 4, False, 1),
    ("composite", "gak_equal_varpi", 3, False, 1),
    ("millefeuille", "conjugate", 3, False, 1),
    ("millefeuille", "rescaled", 4, False, 1),
    ("millefeuille", "other_varpi", 3, False, 1),
    ("millefeuille", "other_q", 2, False, 1),
    ("types", "connected_mixed", 3, False, 1),
    ("near", "bits17", 2, False, 1),
    ("near", "bits160", 2, False, 1),
    ("near", "bits1600", 2, False, 1),
)

# each slot is drawn this many times per round, so one round averages over
# several random draws of every construction
DRAWS = 4

# positive rationals whose small powers keep denominators at most 64
POWER_BASES = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4))
NON_POWERS = (2, 3, 5, 6, 7, 10)


class Pair:
    def __init__(self, a: D.Desc, b: D.Desc, within: str, plain: str, power=None):
        self.texts = (json.dumps(a.obj), json.dumps(b.obj))
        self.within = within  # expected verdicts
        self.plain = plain
        self.power = power  # expected (n1, n2) for power_conjugacy, or "none"
        self.expected = (D.expected(a), D.expected(b))


def _power_base_spectrum(rng: Random, dim: int, jordan: bool):
    """Spectrum with eigenvalues from POWER_BASES, so its powers stay small."""
    shapes = D.block_shapes(rng, dim, jordan)
    return D.spectrum_of(rng.sample(POWER_BASES, len(shapes)), shapes)


def _key(spectrum) -> list:
    """Connected key as floats: log ratios to the top eigenvalue, with blocks."""
    top = max(ev for ev, _ in spectrum)
    return [(log_q(ev) / log_q(top), blocks) for ev, blocks in sorted(spectrum, reverse=True)]


def _other_key(rng: Random, spectrum):
    """Same size and blocks, one eigenvalue moved so the key differs."""
    evs = [ev for ev, _ in spectrum]
    old = _key(spectrum)
    while True:
        moved = list(evs)
        i = rng.randrange(len(evs))
        moved[i] = D.ladder_value(rng, evs[i].denominator)
        if len(set(moved)) < len(moved):
            continue
        other = D.spectrum_of(moved, [b for _, b in spectrum])
        new = _key(other)
        if [b for _, b in new] != [b for _, b in old] or any(
                abs(x - y) > 1e-6 for (x, _), (y, _) in zip(new, old)):
            return other


def _near_pair(rng: Random, bits: int) -> Pair:
    """Composite pair whose keys are log(b)/log(a) against log(b+1)/log(a)
    with a, b of the given size: certified different only through interval
    enclosures at that many operand bits."""
    a = rng.randrange(1 << (bits - 1), 1 << bits) | 1
    b = a + 2 * rng.randint(1, 50)
    s1 = D.spectrum_of([Fraction(1, a), Fraction(1, b)], [(1,), (1,)])
    s2 = D.spectrum_of([Fraction(1, a), Fraction(1, b + 1)], [(1,), (1,)])
    da = D.Desc({"kind": "Composite", "A": D.diagonal_text([Fraction(1, a), Fraction(1, b)]),
                 "varpi": "1", "q": 2}, s1)
    db = D.Desc({"kind": "Composite",
                 "A": D.diagonal_text([Fraction(1, a), Fraction(1, b + 1)]),
                 "varpi": "1", "q": 2}, s2)
    return Pair(da, db, "no", "no")


def make_pair(rng: Random, family: str, how: str, dim: int, jordan: bool) -> Pair:
    if family == "td":
        q1 = rng.choice(NON_POWERS)
        q2 = q1 if how == "same_root" else rng.choice([q for q in NON_POWERS if q != q1])
        e1, e2 = rng.randint(1, 4), rng.randint(1, 4)
        a = D.Desc({"kind": "FT", "m": q1**e1})
        b = D.Desc({"kind": "GAk", "A": [], "k": q2, "index": e2})
        return Pair(a, b, "yes" if q1 == q2 else "no", "yes")
    if family == "near":
        return _near_pair(rng, int(how[4:]))
    if family == "types":
        spec = D.random_spectrum(rng, dim, jordan)
        a = D.Desc({"kind": "GAk", "A": D.reconjugate(rng, spec), "k": 1}, spec)
        b = D.Desc({"kind": "GAk", "A": D.reconjugate(rng, spec), "k": rng.choice([2, 3])}, spec)
        return Pair(a, b, "no", "no")
    k = rng.choice(NON_POWERS)
    if how in ("power", "rescaled"):
        j = 2 if dim > 3 else rng.choice([2, 3])
        spec = _power_base_spectrum(rng, dim, jordan)
        spec_j = D.power_spectrum(spec, j)
    else:
        spec = D.random_spectrum(rng, dim, jordan)
    if family in ("connected", "gak"):
        k_a = 1 if family == "connected" else k
        a = D.Desc({"kind": "GAk", "A": D.reconjugate(rng, spec), "k": k_a}, spec)
        if how == "conjugate":
            b = D.Desc({"kind": "GAk", "A": D.reconjugate(rng, spec), "k": k_a}, spec)
            verdict, power = "yes", (1, 1)
        elif how == "power":
            b = D.Desc({"kind": "GAk", "A": D.reconjugate(rng, spec_j),
                        "k": 1 if k_a == 1 else k**j}, spec_j)
            verdict, power = "yes", (j, 1)
        elif how == "index":
            n = rng.randint(2, 3)
            b = D.Desc({"kind": "GAk", "A": D.reconjugate(rng, spec), "k": k, "index": n}, spec)
            verdict, power = "yes", None
        elif how == "other_q":
            k2 = rng.choice([q for q in NON_POWERS if q != k])
            b = D.Desc({"kind": "GAk", "A": D.reconjugate(rng, spec), "k": k2}, spec)
            verdict, power = "no", None
        elif how == "other_varpi":
            b = D.Desc({"kind": "GAk", "A": D.reconjugate(rng, spec), "k": k**2}, spec)
            verdict, power = "no", None
        else:  # other_key
            spec2 = _other_key(rng, spec)
            b = D.Desc({"kind": "GAk", "A": D.reconjugate(rng, spec2), "k": k_a}, spec2)
            verdict, power = "no", "none"
        if family == "connected":
            power = None
        return Pair(a, b, verdict, verdict, power)
    if family == "composite":
        v = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        q = rng.choice(NON_POWERS)

        def comp(spectrum, varpi, qq, index=1):
            obj = {"kind": "Composite", "A": D.reconjugate(rng, spectrum), "varpi": str(varpi), "q": qq}
            if index != 1:
                obj["index"] = index
            return D.Desc(obj, spectrum)

        a = comp(spec, v, q)
        if how == "conjugate":
            return Pair(a, comp(spec, v, q), "yes", "yes")
        if how == "index":
            return Pair(a, comp(spec, v, q**2, 2), "yes", "yes")
        if how == "other_varpi":
            return Pair(a, comp(spec, v + Fraction(1, rng.randint(2, 9)), q), "no", "no")
        if how == "other_q":
            q2 = rng.choice([x for x in NON_POWERS if x != q])
            return Pair(a, comp(spec, v, q2), "no", "no")
        if how == "other_key":
            return Pair(a, comp(_other_key(rng, spec), v, q), "no", "no")
        # gak_equal_varpi: eigenvalues 1/r^e make 1/det a power of r, so the
        # GAk varpi log(r)/log(1/det) is the rational 1/sum(e)
        r = rng.choice([2, 3])
        top = 6 if r == 2 else 3
        shapes = D.block_shapes(rng, dim, jordan)
        exps = rng.sample(range(1, top + 1), len(shapes))
        spec = D.spectrum_of([Fraction(1, r**e) for e in exps], shapes)
        total = sum(e * sum(b) for e, b in zip(exps, shapes))
        g = D.Desc({"kind": "GAk", "A": D.reconjugate(rng, spec), "k": r}, spec)
        return Pair(g, comp(spec, Fraction(1, total), r), "yes", "yes")
    # millefeuille
    t = Fraction(rng.randint(1, 4), rng.randint(1, 4))

    def mf(spectrum, tt, kk):
        return D.Desc({"kind": "Millefeuille", "A": D.reconjugate(rng, spectrum), "t": str(tt),
                       "k": kk}, spectrum)

    if how == "rescaled":
        # varpi = log(k) / (t log delta) is fixed under k -> k^j, A -> A^j
        return Pair(mf(spec, t, k), mf(spec_j, t, k**j), "yes", "yes")
    a = mf(spec, t, k)
    if how == "conjugate":
        return Pair(a, mf(spec, t, k), "yes", "yes")
    if how == "other_varpi":
        return Pair(a, mf(spec, t + 1, k), "no", "no")
    k2 = rng.choice([x for x in NON_POWERS if x != k])
    return Pair(a, mf(spec, t, k2), "no", "no")


def build_round(seed: int) -> list:
    rng = Random(f"classify_dense:{seed}")
    pairs = []
    for family, how, dim, jordan, repeats in SLOTS:
        for _ in range(repeats * DRAWS):
            pairs.append(make_pair(rng, family, how, dim, jordan))
    return pairs


# ---------------------------------------------------------------------------
# checks (the benchmark's own arithmetic only)
# ---------------------------------------------------------------------------


def check_invariants(inv, exp) -> str | None:
    from focalclass.focalmodel import render_value

    got = {"type": inv.group_type.value, "s": inv.s, "q": inv.q,
           "boundary": inv.boundary.render()}
    for key, value in got.items():
        if value != exp[key]:
            return f"{key}: got {value!r}, expected {exp[key]!r}"
    for key in ("varpi", "p0"):
        text = render_value(getattr(inv, key))
        try:
            value = eval_rendered(text)
        except ValueError as exc:
            return f"{key}: {exc}"
        if not close(value, exp[key]):
            return f"{key}: {text} is not {exp[key]!r}"
    return None


def check_chain(verdict, g1, g2) -> str | None:
    nodes = verdict.chain.nodes
    if getattr(nodes[0], "desc", None) != g1 or getattr(nodes[-1], "desc", None) != g2:
        return "witness chain does not join the two inputs"
    return None


def check_power(pair: Pair, got, a1, a2) -> str | None:
    if pair.power == "none":
        return None if got is None else f"power conjugacy {got[:2]} for a different key"
    if got is None or tuple(got[:2]) != pair.power:
        return f"power conjugacy {got and got[:2]}, expected {pair.power}"
    n1, n2, p = got
    p = [list(r) for r in p.rows]
    m1 = matpow([list(r) for r in a1.rows], n1)
    m2 = matpow([list(r) for r in a2.rows], n2)
    if det(p) == 0 or matmul(p, m1) != matmul(m2, p):
        return "power conjugacy witness does not conjugate the powers"
    return None


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _kind(verdict) -> str:
    return {"Yes": "yes", "No": "no"}.get(type(verdict).__name__, "undecided")


def run_round(pairs, traced: bool, first: bool) -> dict:
    """One round in the current (forked) process."""
    import cProfile

    import layers
    from focalclass import cli
    from focalclass.commengine import (
        commable, commable_within_focal, quasi_isometric, validate_chain)
    from focalclass.focalmodel import compute_invariants
    from focalclass.matexact import power_conjugacy

    def classify(pair):
        g1 = cli.parse_descriptor(json.loads(pair.texts[0]))
        g2 = cli.parse_descriptor(json.loads(pair.texts[1]))
        inv = (compute_invariants(g1), compute_invariants(g2))
        verdicts = (commable_within_focal(g1, g2), commable(g1, g2), quasi_isometric(g1, g2))
        chains = [validate_chain(v.chain) for v in verdicts if _kind(v) == "yes"]
        power = None
        if pair.power is not None:
            power = power_conjugacy(g1.matrix, g2.matrix, g1.k, g2.k)
        return g1, g2, inv, verdicts, chains, power

    prof = cProfile.Profile() if traced else None
    records = []
    for i, pair in enumerate(pairs):
        (g1, g2, inv, verdicts, chains, power), seconds, ref = timed_call(prof, classify, pair)
        wrong = (check_invariants(inv[0], pair.expected[0])
                 or check_invariants(inv[1], pair.expected[1]))
        expect = (pair.within, pair.plain, pair.plain)
        kinds = tuple(_kind(v) for v in verdicts)
        if not wrong and kinds != expect:
            wrong = f"verdicts {kinds}, expected {expect}"
        for v in verdicts:
            if not wrong and _kind(v) == "yes":
                wrong = check_chain(v, g1, g2)
        if not wrong and not all(ok for ok, _ in chains):
            wrong = "a yes chain does not validate"
        if not wrong and pair.power is not None:
            wrong = check_power(pair, power, g1.matrix, g2.matrix)
        if not wrong and first:  # symmetry, once per run
            back = (commable_within_focal(g2, g1), commable(g2, g1), quasi_isometric(g2, g1))
            if tuple(_kind(v) for v in back) != kinds:
                wrong = "verdicts are not symmetric"
        records.append({"name": f"pair {i}", "seconds": seconds, "ref_s": ref,
                        "failed": False, "wrong": wrong, "note": None})
    out = {"records": records}
    if traced:
        merged: dict = {}
        prof.create_stats()
        layers.merge_stats(merged, prof.stats)
        out["layers"] = layers.profile_metrics(merged, median_ref(records), 0)
    return out


class Workload(core.Workload):
    TAIL = 90.0
    MIN_ROUNDS = 2  # one round leaves the p90 and total_ref too few samples

    def __init__(self, workdir, seed: int):
        super().__init__(workdir, seed)
        self.pairs = None
        self.rounds_run = 0

    def build(self):
        self.pairs = build_round(self.seed)

    def round(self, traced: bool) -> dict:
        first = self.rounds_run == 0
        self.rounds_run += 1
        return in_fork(run_round, self.pairs, traced, first)
