"""Shared construction helpers for the test suite."""

import json
from fractions import Fraction
from random import Random

from focalclass.cli import descriptor_obj
from focalclass.exactnum import NOT_EQUAL, compare_values
from focalclass.matexact import MatQ
from focalclass.focalmodel import (
    FT,
    Composite,
    GAk,
    Millefeuille,
    classify_type,
    conn_key,
    conn_key_equal,
    invariant_q,
    invariant_varpi,
)

EIGEN_DENS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64)


def random_eigenvalue(rng: Random, max_den: int = 64) -> Fraction:
    den = rng.choice([d for d in EIGEN_DENS if d <= max_den])
    return Fraction(rng.randint(1, den - 1), den)


def random_triangular(rng: Random, dim: int, max_den: int = 64, repeat=True) -> MatQ:
    """Upper-triangular contracting matrix; eigenvalues are the diagonal."""
    evs = [random_eigenvalue(rng, max_den) for _ in range(dim)]
    if repeat and dim >= 2 and rng.random() < 0.3:
        evs[1] = evs[0]
    rows = [
        [
            evs[i] if i == j else (Fraction(rng.randint(-2, 2)) if j > i else Fraction(0))
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    return MatQ(rows)


def random_conjugator(rng: Random, dim: int) -> MatQ:
    """Small integer matrix with determinant 1 (a few shears of the identity)."""
    rows = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    for _ in range(dim + 1):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return MatQ(rows)


def random_diagonalizable(rng: Random, dim: int, max_den: int = 16, distinct=False) -> MatQ:
    evs = [random_eigenvalue(rng, max_den) for _ in range(dim)]
    if distinct:
        while len(set(evs)) < dim:
            evs = [random_eigenvalue(rng, max_den) for _ in range(dim)]
    p = random_conjugator(rng, dim)
    return p @ MatQ.diag(evs) @ p.inverse()


def diag(*values) -> MatQ:
    return MatQ.diag([Fraction(v) for v in values])


def jordan_matrix(blocks) -> MatQ:
    """Block-diagonal Jordan matrix from a list of (eigenvalue, size)."""
    dim = sum(size for _, size in blocks)
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    offset = 0
    for ev, size in blocks:
        for i in range(size):
            rows[offset + i][offset + i] = Fraction(ev)
            if i + 1 < size:
                rows[offset + i][offset + i + 1] = Fraction(1)
        offset += size
    return MatQ(rows)


def unit_lower(dim: int, entries) -> MatQ:
    """Unit lower-triangular matrix filled row by row from ``entries``."""
    it = iter(entries)
    return MatQ([[1 if i == j else (next(it) if j < i else 0) for j in range(dim)]
                 for i in range(dim)])


def dense_split_conjugates():
    """(name, matrix, eigenvalues): P diag(eigenvalues) P^-1 with P = L U
    unimodular.  Their spectra split over Q, but a float root guess plus a
    capped divisor search rejected all three as non-split."""
    l3 = unit_lower(3, [1, -1, 2])
    u3 = MatQ(zip(*unit_lower(3, [1, 1, -1]).rows))
    l7 = unit_lower(7, [1 if j == i - 1 else 0 for i in range(7) for j in range(i)])
    u7 = MatQ(zip(*l7.rows))
    a, b = 10**6, 10**15
    cases = [
        ("near_one", l3 @ u3, [Fraction(a, a + 1), Fraction(a + 1, a + 2), Fraction(a + 2, a + 3)]),
        ("wide", l3 @ u3, [Fraction(b, b + 1), Fraction(b - 1, b), Fraction(1, 2)]),
        ("bidiagonal_7", l7 @ u7,
         [Fraction(x) for x in ("1/8", "7/25", "1/2", "14/25", "18/25", "7/8", "26/27")]),
    ]
    return [(name, p @ MatQ.diag(evs) @ p.inverse(), evs) for name, p, evs in cases]


def canonical_text(g) -> str:
    """The descriptor file of g: its wire object in compact JSON, one line."""
    return json.dumps(descriptor_obj(g), separators=(",", ":")) + "\n"


def descriptor_pool():
    """A corpus with deliberate commability clusters of every type."""
    h = Fraction(1, 2)
    pool = [
        FT(2), FT(4), FT(8), FT(16), FT(3), FT(9), FT(27), FT(5), FT(6), FT(36),
        GAk(MatQ([]), 3), GAk(MatQ([]), 9), GAk(MatQ([]), 5, index=2),
        GAk(diag(h, "1/4"), 1), GAk(diag("1/4", "1/16"), 1), GAk(diag("1/3", "1/9"), 1),
        GAk(diag("1/5", "1/25"), 1), GAk(diag(h, "1/8"), 1), GAk(diag(h), 1),
        GAk(diag(h, "1/4"), 8), GAk(diag("1/4", "1/16"), 64), GAk(diag(h, "1/4"), 2),
        GAk(diag(h, "1/8"), 4), GAk(diag(h), 3), GAk(diag("1/3"), 3, index=2),
        Composite(diag(h), Fraction(1), 2), Composite(diag(h), Fraction(1), 4),
        Composite(diag(h), Fraction(2), 2), Composite(diag(h, "1/4"), Fraction(3, 2), 5),
        Millefeuille(diag(h), Fraction(1), 2), Millefeuille(diag(h), Fraction(2), 4),
        Millefeuille(diag(h), Fraction(1), 3), Millefeuille(diag(h, "1/4"), Fraction(1), 2),
    ]
    return pool


def recheck_obstruction(verdict, g1, g2) -> bool:
    """Re-evaluate a No verdict's obstruction from scratch."""
    if verdict.invariant == "type":
        return classify_type(g1) is not classify_type(g2)
    if verdict.invariant == "q":
        q1, q2 = invariant_q(g1), invariant_q(g2)
        return q1 != q2 and tuple(verdict.values) == (q1, q2)
    if verdict.invariant == "varpi":
        return compare_values(invariant_varpi(g1), invariant_varpi(g2)) is NOT_EQUAL
    if verdict.invariant == "connected-key":
        return conn_key_equal(conn_key(g1), conn_key(g2)) is NOT_EQUAL
    return False
