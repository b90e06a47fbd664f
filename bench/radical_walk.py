"""radical_walk: in-process F_p(t) arithmetic from ``focalclass.radicalcheck``.

Most operations are conjugacy-orbit walks, one per coordinate generator of
Gamma(1, p), at several bounds; the rest are the level-2 centre check and
batches of general FpRat sums, products and inverses of random elements.
The walks multiply by fixed unit powers, the batches do general products.
"""

from __future__ import annotations

from random import Random

import core
from core import in_fork, median_ref, timed_call
from exact import poly_add, poly_mul, rat_at

PRIMES = (5, 31)
BOUNDS = (25, 50, 100)
CENTER = (8, 4)  # samples, degree
BATCHES = 2  # per prime and round
BATCH_SIZE = 40
BATCH_DEGREE = 6


def _random_element(rng: Random, p: int):
    """(num, den) coefficient tuples of a random nonzero element."""
    while True:
        num = tuple(rng.randrange(p) for _ in range(rng.randint(1, BATCH_DEGREE + 1)))
        den = tuple(rng.randrange(p) for _ in range(rng.randint(1, BATCH_DEGREE + 1)))
        if any(num) and any(den):
            return num, den


def build_round(seed: int) -> list:
    """The operation list: ("walk", p, generator index, bound),
    ("center", p) and ("batch", p, [(x, y) pairs])."""
    rng = Random(f"radical_walk:{seed}")
    ops = []
    for p in PRIMES:
        for bound in BOUNDS:
            for gen in range(6):
                ops.append(("walk", p, gen, bound))
        ops.append(("center", p))
        for _ in range(BATCHES):
            ops.append(("batch", p, [(_random_element(rng, p), _random_element(rng, p))
                                     for _ in range(BATCH_SIZE)]))
    return ops


def _prod(p: int, *polys) -> tuple:
    out = (1,)
    for f in polys:
        out = poly_mul(out, f, p)
    return out


def _check_batch(p: int, pairs, results) -> str | None:
    """Sums, products and inverses satisfy their cross-multiplied identities
    in F_p[t] and agree with evaluation at points of F_p."""
    for ((xn, xd), (yn, yd)), (s, m, i) in zip(pairs, results):
        if any(not r[1] or r[1][-1] != 1 for r in (s, m, i)):
            return "a denominator is not monic"
        cross = poly_add(_prod(p, xn, yd), _prod(p, yn, xd), p)
        if _prod(p, s[0], xd, yd) != _prod(p, cross, s[1]):
            return "sum fails s.num x.den y.den = (x.num y.den + y.num x.den) s.den"
        if _prod(p, m[0], xd, yd) != _prod(p, xn, yn, m[1]):
            return "product fails m.num x.den y.den = x.num y.num m.den"
        if _prod(p, i[0], xn) != _prod(p, xd, i[1]):
            return "inverse fails i.num x.num = x.den i.den"
        for t in range(p):
            x, y = rat_at(xn, xd, t, p), rat_at(yn, yd, t, p)
            if x is None or y is None:
                continue
            got_s, got_m, got_i = rat_at(*s, t, p), rat_at(*m, t, p), rat_at(*i, t, p)
            if got_s is not None and got_s != (x + y) % p:
                return f"sum wrong at t={t}"
            if got_m is not None and got_m != x * y % p:
                return f"product wrong at t={t}"
            if x and got_i is not None and got_i * x % p != 1:
                return f"inverse wrong at t={t}"
    return None


def run_round(ops, traced: bool) -> dict:
    import cProfile

    import layers
    from focalclass.radicalcheck import FpRat, Gamma, check_center_gamma2, conjugacy_orbit_size

    gens = {p: Gamma(1, p).coordinate_generators() for p in PRIMES}

    def operate(op, elems):
        if op[0] == "walk":
            return conjugacy_orbit_size(1, gens[op[1]][op[2]], op[3])
        if op[0] == "center":
            return check_center_gamma2(op[1], *CENTER)
        return [(x + y, x * y, x.inv()) for x, y in elems]

    prof = cProfile.Profile() if traced else None
    records = []
    steps = 0
    for op in ops:
        kind, p = op[0], op[1]
        elems = None
        if kind == "batch":
            elems = [(FpRat.make(p, *x), FpRat.make(p, *y)) for x, y in op[2]]
        got, seconds, ref = timed_call(prof, operate, op, elems)
        if kind == "walk":
            steps += 2 * op[3]
            wrong = None if got == 2 * op[3] + 1 else f"orbit {got}, expected {2 * op[3] + 1}"
            name = f"walk p={p} gen={op[2]} bound={op[3]}"
        elif kind == "center":
            wrong = None if got is True else "the level-2 centre check failed"
            name = f"center p={p}"
        else:
            wrong = _check_batch(p, op[2], [tuple((r.num, r.den) for r in t) for t in got])
            name = f"batch p={p}"
        records.append({"name": name, "seconds": seconds, "ref_s": ref, "failed": False,
                        "wrong": wrong, "note": None})
    out = {"records": records}
    if traced:
        merged: dict = {}
        prof.create_stats()
        layers.merge_stats(merged, prof.stats)
        out["layers"] = layers.profile_metrics(merged, median_ref(records), steps)
    return out


class Workload(core.Workload):
    TAIL = 95.0

    def __init__(self, workdir, seed: int):
        super().__init__(workdir, seed)
        self.ops = None

    def build(self):
        self.ops = build_round(self.seed)

    def round(self, traced: bool) -> dict:
        return in_fork(run_round, self.ops, traced)
