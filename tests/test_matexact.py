"""Unit tests for the exact rational linear algebra kernels."""

import json
import logging
import math
from collections import Counter
from fractions import Fraction as F
from itertools import islice, takewhile
from operator import mul
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from focalclass import cli, matexact
from focalclass.commengine import (
    No,
    Yes,
    commable,
    commable_within_focal,
    quasi_isometric,
    validate_chain,
)
from focalclass.focalmodel import GAk, compute_invariants
from focalclass.matexact import (
    MatQ,
    NonRationalSpectrumError,
    SpectralData,
    _integer_roots,
    _jordan_basis,
    _nullspace,
    _rational_roots,
    _shifted_powers,
    _zcharpoly,
    conjugate,
    is_contracting,
    mat_power,
    power_conjugacy,
    rank,
    spectral_data,
)

from helpers import (
    dense_split_conjugates,
    jordan_matrix,
    random_conjugator,
    random_diagonalizable,
    random_triangular,
    unit_lower,
)


def diag(*values):
    return MatQ.diag([F(v) for v in values])


# ---------------------------------------------------------------------------
# basic operations
# ---------------------------------------------------------------------------


def test_det_and_power_examples():
    assert diag("1/2", "1/4").det() == F(1, 8)
    assert mat_power(diag("1/2"), 3) == diag("1/8")
    assert mat_power(diag("1/2", "1/4"), 0) == MatQ.identity(2)
    assert mat_power(diag("1/2"), -2) == diag(4)


def test_negative_power_of_singular_matrix():
    with pytest.raises(ZeroDivisionError):
        mat_power(MatQ([[0, 1], [0, 0]]), -1)


def naive_product(a: MatQ, b: MatQ) -> MatQ:
    n = a.dim
    return MatQ([[sum((a.rows[i][k] * b.rows[k][j] for k in range(n)), F(0)) for j in range(n)]
                 for i in range(n)])


def naive_power(a: MatQ, n: int) -> MatQ:
    if n < 0:
        a, n = parent_inverse(a), -n
    result = MatQ.identity(a.dim)
    for _ in range(n):
        result = naive_product(result, a)
    return result


@st.composite
def mixed_matrices(draw, n):
    """n x n matrices whose entries mix small and large denominators; about
    a third have a zero or repeated row, so they are singular."""
    den = st.sampled_from([1, 1, 2, 3, 12, 49, 10**9 + 7, 2**61 - 1])
    entry = st.builds(F, st.integers(-10**12, 10**12), den)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if n and draw(st.integers(0, 2)) == 0:
        rows[-1] = [F(0)] * n if draw(st.booleans()) else rows[0]
    return MatQ(rows)


@given(st.integers(0, 6).flatmap(lambda n: st.tuples(mixed_matrices(n), mixed_matrices(n))),
       st.integers(-3, 5))
@settings(max_examples=80, deadline=None)
def test_products_match_naive_oracle(pair, k):
    a, b = pair
    assert a @ b == naive_product(a, b)
    assert b @ a == naive_product(b, a)
    if k >= 0 or a.det():
        assert mat_power(a, k) == naive_power(a, k)
    else:
        with pytest.raises(ZeroDivisionError):
            mat_power(a, k)


def test_product_dimension_mismatch():
    for a, b in ((diag("1/2"), diag("1/2", "1/3")), (MatQ([]), diag(1)), (diag(1), MatQ([]))):
        with pytest.raises(ValueError):
            a @ b


def cofactor_det(rows):
    if not rows:
        return 1
    return sum(
        (-1) ** j * rows[0][j] * cofactor_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j in range(len(rows))
    )


@st.composite
def rational_matrices(draw, max_dim=5):
    """Square rational matrices; about half are made singular by replacing
    the last row with an integer combination of the others."""
    n = draw(st.integers(1, max_dim))
    entry = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]
    return MatQ(rows)


@st.composite
def jordan_blocks(draw, max_dim=6):
    """(eigenvalue, size) blocks of total size 1 to max_dim; about a quarter
    of the blocks repeat an earlier eigenvalue."""
    height = st.integers(1, 10**18)
    blocks, left = [], draw(st.integers(1, max_dim))
    while left:
        size = draw(st.integers(1, min(left, 3)))
        if blocks and draw(st.integers(0, 3)) == 0:
            ev = draw(st.sampled_from([ev for ev, _ in blocks]))
        else:
            ev = draw(st.builds(F, height, height))
        blocks.append((ev, size))
        left -= size
    return blocks


# The Fraction Gaussian elimination that served det, rank, inverse and the
# nullspace before the fraction-free integer kernel, kept as its oracle.
def parent_echelon(m: list, ncols: int, reduced: bool = False) -> tuple[list, int]:
    pivots: list = []
    sign = 1
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        row = m[r]
        inv = 1 / row[col]
        for target in m[r + 1 :]:
            if target[col] != 0:
                factor = target[col] * inv
                for c in range(col, len(row)):
                    target[c] -= factor * row[c]
        pivots.append(col)
    if reduced:
        for r in reversed(range(len(pivots))):
            col, row = pivots[r], m[r]
            inv = 1 / row[col]
            for c in range(col, len(row)):
                row[c] *= inv
            for target in m[:r]:
                if target[col] != 0:
                    factor = target[col]
                    for c in range(col, len(row)):
                        target[c] -= factor * row[c]
    return pivots, sign


def parent_det(a: MatQ) -> F:
    m = [list(row) for row in a.rows]
    pivots, sign = parent_echelon(m, a.dim)
    if len(pivots) < a.dim:
        return F(0)
    result = F(sign)
    for i in range(a.dim):
        result *= m[i][i]
    return result


def parent_inverse(a: MatQ) -> MatQ:
    return MatQ(fraction_inverse(a.rows))


def fraction_inverse(rows) -> list:
    n = len(rows)
    m = [list(row) + [F(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    if len(parent_echelon(m, n, reduced=True)[0]) < n:
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in m]


def parent_rank(rows: list, ncols: int) -> int:
    return len(parent_echelon([list(row) for row in rows], ncols)[0])


def parent_nullspace(rows: list, ncols: int) -> list:
    m = [list(r) for r in rows]
    pivots, _ = parent_echelon(m, ncols, reduced=True)
    basis = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        vec = [F(0)] * ncols
        vec[fc] = F(1)
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -m[prow][fc]
        basis.append(vec)
    return basis


@given(rational_matrices())
@settings(max_examples=150, deadline=None)
def test_elimination_kernel_properties(a):
    n = a.dim
    d = a.det()
    if n <= 4:
        assert d == cofactor_det(a.rows)
    assert d == parent_det(a)
    basis = _nullspace(a.zrows, n)
    assert basis == parent_integer_rows(parent_nullspace(a.rows, n))[0]
    assert rank(a.zrows) == parent_rank(a.rows, n)
    assert rank(a.zrows) + len(basis) == n
    for vec in basis:
        assert all(sum(x * y for x, y in zip(row, vec)) == 0 for row in a.rows)
    if d:
        assert a.inverse() == parent_inverse(a)
        assert a @ a.inverse() == MatQ.identity(n)
    else:
        with pytest.raises(ZeroDivisionError):
            a.inverse()


@st.composite
def rectangular_systems(draw):
    """(rows, ncols) of any shape.  Zero and repeated columns and rows that
    combine earlier ones make the elimination skip pivot columns."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    entry = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    cols = []
    for _ in range(ncols):
        kind = draw(st.sampled_from(["free", "free", "zero", "repeat"]))
        if kind == "zero" or (kind == "repeat" and not cols):
            cols.append([F(0)] * nrows)
        elif kind == "repeat":
            cols.append([draw(st.integers(-2, 2)) * x for x in draw(st.sampled_from(cols))])
        else:
            cols.append(draw(st.lists(entry, min_size=nrows, max_size=nrows)))
    rows = [list(row) for row in zip(*cols)]
    for i in range(1, nrows):
        if draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=i, max_size=i))
            rows[i] = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)]
    return rows, ncols


@given(rectangular_systems())
@settings(max_examples=150, deadline=None)
def test_elimination_kernel_on_rectangular_systems(system):
    rows, ncols = system
    basis = _nullspace(parent_integer_rows(rows)[0], ncols)
    assert basis == parent_integer_rows(parent_nullspace(rows, ncols))[0]
    assert len(basis) == ncols - parent_rank(rows, ncols)


def sylvester_rows(a: MatQ, b: MatQ) -> list:
    """The n^2 x n^2 system P a - b P = 0 in the unknowns P[i][k], row-major."""
    n = a.dim
    rows = []
    for i in range(n):
        for j in range(n):
            row = [F(0)] * (n * n)
            for k in range(n):
                row[i * n + k] += a.rows[k][j]
                row[k * n + j] -= b.rows[i][k]
            rows.append(row)
    return rows


@given(jordan_blocks(max_dim=3), jordan_blocks(max_dim=3), st.integers(0, 2**32), st.booleans())
@settings(max_examples=60, deadline=None)
def test_elimination_kernel_on_intertwiner_systems(blocks1, blocks2, seed, similar):
    """Intertwiner systems are singular, and rank-deficient at pivot columns
    in the middle, so the exact divisions must survive skipped columns."""
    rng = Random(seed)
    j1 = jordan_matrix(blocks1)
    j2 = j1 if similar or j1.dim != jordan_matrix(blocks2).dim else jordan_matrix(blocks2)
    p, q = random_conjugator(rng, j1.dim), random_conjugator(rng, j1.dim)
    a, b = p @ j1 @ p.inverse(), q @ j2 @ q.inverse()
    rows, nn = sylvester_rows(a, b), a.dim * a.dim
    basis = _nullspace(parent_integer_rows(rows)[0], nn)
    assert basis == parent_integer_rows(parent_nullspace(rows, nn))[0]
    n = a.dim
    for vec in basis:
        mat = MatQ([vec[i * n : (i + 1) * n] for i in range(n)])
        assert mat @ a == b @ mat


def test_elimination_kernel_pinned_examples():
    assert MatQ([[2, 3], [1, 4]]).det() == 5
    assert MatQ([[0, 1], [1, 0]]).det() == -1
    assert MatQ([["1/2", "1/3"], ["1/5", "1/7"]]).det() == F(1, 14) - F(1, 15)
    assert MatQ([[1, 2], [2, 4]]).det() == 0
    assert MatQ([["1/2", 1], [0, "1/3"]]).inverse() == MatQ([[2, -6], [0, 3]])
    assert MatQ([[0, 1], [1, 0]]).inverse() == MatQ([[0, 1], [1, 0]])
    # column 1 has no pivot, and the updates at column 2 divide exactly by
    # the column-0 pivot 2
    rows = [[2, 4, 1, 3], [3, 6, 2, 1], [1, 2, 3, 5]]
    assert rank([[2, 4, 1], [3, 6, 2], [1, 2, 3]]) == 2
    assert _nullspace(rows, 4) == parent_nullspace(rows, 4) == [
        [F(-2), F(1), F(0), F(0)],
    ]


def test_elimination_kernel_empty_conventions():
    empty = MatQ([])
    assert empty.det() == 1
    assert empty.inverse() == empty
    assert rank(empty.zrows) == 0
    assert charpoly(empty) == (F(1),)
    assert _nullspace([], 0) == []
    assert _nullspace([], 2) == parent_nullspace([], 2) == [[F(1), F(0)], [F(0), F(1)]]
    assert _nullspace([[0, 0]], 2) == parent_nullspace([[F(0), F(0)]], 2)


@st.composite
def built_matrices(draw, n):
    """(a, its entries as Fraction rows computed on Fractions alone), a built
    from rows, as a product, by inverse or from integer rows over a negative
    denominator; a singular matrix drawn for inverse is kept as it is."""
    entry = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
    square = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    rows, how = draw(square), draw(st.sampled_from(["rows", "product", "inverse", "integers"]))
    if how == "product":
        other = draw(square)
        product = [[sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*other)]
                   for row in rows]
        return MatQ(rows) @ MatQ(other), product
    if how == "inverse" and parent_rank(rows, n) == n:
        return MatQ(rows).inverse(), fraction_inverse(rows)
    if how == "integers":
        ints = draw(st.lists(st.lists(st.integers(-12, 12), min_size=n, max_size=n),
                             min_size=n, max_size=n))
        den = -draw(st.integers(1, 12))
        return MatQ._from_integers(ints, den), [[F(x, den) for x in row] for row in ints]
    return MatQ(rows), rows


_SELF_INVERSE = [[F(-1), F(0)], [F(1), F(1)]]  # its inverse has Bareiss pivot -1


@given(st.integers(0, 3).flatmap(lambda n: st.tuples(built_matrices(n), built_matrices(n))),
       st.integers(-5, 5).filter(bool))
@example(((MatQ(_SELF_INVERSE).inverse(), _SELF_INVERSE), (MatQ(_SELF_INVERSE), _SELF_INVERSE)), 1)
@settings(max_examples=150, deadline=None)
def test_stored_pair_is_canonical(pair, c):
    """However a matrix is built, it stores its integer rows over a positive
    denominator in lowest terms, so ==, hash and rows agree with equality of
    the Fraction entries; c * (zrows, zden) gives the same matrix."""
    for a, rows in pair:
        assert a.zden > 0 and math.gcd(a.zden, *(x for row in a.zrows for x in row)) == 1
        assert a.rows == tuple(map(tuple, rows))
        scaled = MatQ._from_integers([[c * x for x in row] for row in a.zrows], c * a.zden)
        for b in (MatQ(rows), scaled):
            assert a == b and hash(a) == hash(b) and (b.zrows, b.zden) == (a.zrows, a.zden)
    (a, rows_a), (b, rows_b) = pair
    assert (a == b) == (rows_a == rows_b)
    assert a != b or hash(a) == hash(b)


def charpoly(a: MatQ) -> tuple:
    """det(xI - a) as ascending Fractions, from the integer kernel the spectral
    path runs: det(yI - b) / d**n at y = d x, b = d a."""
    return tuple(F(c, a.zden ** (a.dim - i)) for i, c in enumerate(_zcharpoly(a.zrows)))


def test_charpoly_rotation():
    # x^2 + 1, matching cofactor expansion of xI - A
    assert charpoly(MatQ([[0, 1], [-1, 0]])) == (F(1), F(0), F(1))


def parent_charpoly(a: MatQ) -> tuple:
    """The Faddeev-LeVerrier routine that computed charpoly before Berkowitz."""
    n = a.dim
    coeffs = [F(0)] * (n + 1)
    coeffs[n] = F(1)
    m = MatQ.identity(n)
    for k in range(1, n + 1):
        am = a @ m
        ck = -sum((am.rows[i][i] for i in range(n)), F(0)) / k
        coeffs[n - k] = ck
        m = MatQ([[x + ck * (i == j) for j, x in enumerate(row)] for i, row in enumerate(am.rows)])
    return tuple(coeffs)


def _poly_add(p, q):
    return [x + y for x, y in zip(p + [0] * (len(q) - len(p)), q + [0] * (len(p) - len(q)))]


def _poly_mul(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def cofactor_charpoly(a: MatQ) -> tuple:
    """det(xI - a) by cofactor expansion over Q[x], ascending coefficients."""

    def det(m):
        if not m:
            return [F(1)]
        total = [F(0)]
        for j, entry in enumerate(m[0]):
            minor = det([row[:j] + row[j + 1 :] for row in m[1:]])
            term = _poly_mul(entry, minor)
            total = _poly_add(total, term if j % 2 == 0 else [-x for x in term])
        return total

    return tuple(det([[[-x, F(1)] if i == j else [-x] for j, x in enumerate(row)]
                      for i, row in enumerate(a.rows)]))


def expected_charpoly(blocks) -> tuple:
    out = [F(1)]
    for ev, size in blocks:
        for _ in range(size):
            out = _poly_mul(out, [-F(ev), F(1)])
    return tuple(out)


@given(jordan_blocks(), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_charpoly_of_dense_conjugates(blocks, seed):
    jordan = jordan_matrix(blocks)
    p = random_conjugator(Random(seed), jordan.dim)
    a = p @ jordan @ p.inverse()
    got = charpoly(a)
    assert got == expected_charpoly(blocks)
    assert got == parent_charpoly(a)
    if a.dim <= 4:
        assert got == cofactor_charpoly(a)


def test_charpoly_of_dense_split_conjugates():
    for name, a, evs in dense_split_conjugates():
        got = charpoly(a)
        assert got == expected_charpoly([(ev, 1) for ev in evs]), name
        assert got == parent_charpoly(a), name
        if a.dim <= 4:
            assert got == cofactor_charpoly(a), name


# The Fraction root finder that ran before the integer one, with its
# polynomial helpers, kept verbatim as the oracle of _rational_roots.
Poly = tuple


def _p_trim(c) -> Poly:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def p_deg(p: Poly) -> int:
    return len(p) - 1  # zero polynomial gets degree -1


def p_divmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [F(0)] * max(0, len(p) - len(q) + 1)
    dq, lead = len(q) - 1, q[-1]
    while len(rem) - 1 >= dq and any(rem):
        if rem[-1] == 0:
            rem.pop()
            continue
        shift = len(rem) - 1 - dq
        coeff = rem[-1] / lead
        quo[shift] = coeff
        for i in range(len(q)):
            rem[shift + i] -= coeff * q[i]
        rem.pop()
    return _p_trim(quo), _p_trim(rem)


def p_monic(p: Poly) -> Poly:
    if not p:
        return p
    lead = p[-1]
    return tuple(x / lead for x in p)


def _poly_gcd(p: Poly, q: Poly) -> Poly:
    while q:
        _, r = p_divmod(p, q)
        p, q = q, r
    return p_monic(p)


def _p_derivative(p: Poly) -> Poly:
    return _p_trim([i * c for i, c in enumerate(p)][1:])


def integer_poly(p: Poly) -> tuple[list, int]:
    """(f, d) with f(y) = d**n p(y / d) a monic integer polynomial, d the lcm
    of the denominators of the monic p: the conversion _rational_roots made
    before it took the integer characteristic polynomial."""
    n = len(p) - 1
    d = math.lcm(*(c.denominator for c in p))
    return [c.numerator * (d ** (n - i) // c.denominator) for i, c in enumerate(p)], d


def parent_rational_roots(p: Poly) -> dict:
    """Rational roots of the monic polynomial p with their multiplicities."""
    square_free = p_divmod(p, _poly_gcd(p, _p_derivative(p)))[0]
    m = p_deg(square_free)
    denom_lcm = math.lcm(*(c.denominator for c in square_free))
    # y = denom_lcm * x turns the square-free part into a monic integer
    # polynomial whose rational roots are integers
    f = [(c * denom_lcm ** (m - i)).numerator for i, c in enumerate(square_free)]
    roots: dict[F, int] = {}
    for y in _integer_roots(f):
        root = F(y, denom_lcm)
        quo, rem = p_divmod(p, (-root, F(1)))
        while not rem:
            roots[root] = roots.get(root, 0) + 1
            p = quo
            quo, rem = p_divmod(p, (-root, F(1)))
    return roots


@given(jordan_blocks(), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_rational_roots_of_dense_conjugates(blocks, seed):
    jordan = jordan_matrix(blocks)
    p = random_conjugator(Random(seed), jordan.dim)
    poly = charpoly(p @ jordan @ p.inverse())
    expected = Counter()
    for ev, size in blocks:
        expected[ev] += size
    assert _rational_roots(*integer_poly(poly)) == parent_rational_roots(poly) == dict(expected)


@st.composite
def factored_polynomials(draw):
    """Monic products of linear factors x - r, r of either sign and some
    repeated, and of quadratics x^2 - c with c not a rational square (c < 0
    included), so about half of them do not split over Q."""
    poly = [F(1)]
    rational = st.builds(F, st.integers(-10**9, 10**9), st.integers(1, 10**9))
    for _ in range(draw(st.integers(0, 4))):
        r = draw(rational)
        for _ in range(draw(st.integers(1, 3))):
            poly = _poly_mul(poly, [-r, F(1)])
    scale = st.builds(F, st.integers(1, 10**9), st.integers(1, 10**9))
    for _ in range(draw(st.integers(0, 2))):
        c = draw(st.sampled_from([-1, -3, 2, 3, 5, -7])) * draw(scale) ** 2
        poly = _poly_mul(poly, [-c, F(0), F(1)])
    return tuple(poly)


@given(factored_polynomials())
@settings(max_examples=100, deadline=None)
def test_rational_roots_of_factored_polynomials(poly):
    assert _rational_roots(*integer_poly(poly)) == parent_rational_roots(poly)


def test_rational_roots_pinned_examples():
    for name, a, evs in dense_split_conjugates():
        poly = charpoly(a)
        assert _rational_roots(*integer_poly(poly)) == parent_rational_roots(poly) == dict.fromkeys(evs, 1), name
    rotation = charpoly(MatQ([[0, 1], [-1, 0]]))  # x^2 + 1
    negative = tuple(_poly_mul([F(1, 2), F(1)], [F(-1, 3), F(1)]))  # (x + 1/2)(x - 1/3)
    cases = [
        (rotation, {}),
        ((F(-2), F(0), F(1)), {}),  # x^2 - 2
        (negative, {F(-1, 2): 1, F(1, 3): 1}),
        (expected_charpoly([(F(1, 2), 3), (F(-4, 9), 2)]), {F(1, 2): 3, F(-4, 9): 2}),
    ]
    for poly, roots in cases:
        assert _rational_roots(*integer_poly(poly)) == parent_rational_roots(poly) == roots


def test_empty_matrix_conventions():
    empty = MatQ([])
    assert empty.det() == 1
    assert is_contracting(empty)
    assert spectral_data(empty).entries == ()
    assert conjugate(empty, empty) == MatQ.identity(0)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def test_spectral_examples():
    assert spectral_data(diag("1/2", "1/4")).entries == (
        (F(1, 4), (1,)),
        (F(1, 2), (1,)),
    )
    assert spectral_data(MatQ([["1/2", 1], [0, "1/2"]])).entries == ((F(1, 2), (2,)),)
    with pytest.raises(NonRationalSpectrumError):
        spectral_data(MatQ([[0, 1], [-1, 0]]))
    with pytest.raises(NonRationalSpectrumError):
        spectral_data(diag("1/2", -2))


def test_non_split_spectra_are_rejected():
    rng = Random(19)
    rotation = MatQ([[0, 1], [-1, 0]])  # x^2 + 1
    companion = MatQ([[0, 0, 2], [1, 0, 0], [0, 1, 0]])  # x^3 - 2
    mixed = MatQ([["1/2", 0, 0], [0, 0, 1], [0, 3, 0]])  # (x - 1/2)(x^2 - 3)
    for a in (rotation, companion, mixed):
        p = random_conjugator(rng, a.dim)
        for b in (a, p @ a @ p.inverse()):
            with pytest.raises(NonRationalSpectrumError):
                spectral_data(b)


def test_spectral_data_of_dense_split_conjugates():
    for name, a, evs in dense_split_conjugates():
        assert spectral_data(a).entries == tuple((ev, (1,)) for ev in sorted(evs)), name


# spectral_data before simple eigenvalues got their block (1,) directly, kept
# as its oracle: the charpoly roots, and the rank loop for every eigenvalue
def parent_spectral_data(a: MatQ) -> SpectralData:
    n = a.dim
    roots = parent_rational_roots(charpoly(a))
    entries = []
    for ev, mult in sorted(roots.items()):
        _, powers = _shifted_powers(a.zrows, a.zden, ev)
        ranks = [n, *takewhile(lambda r: r > n - mult, map(rank, powers)), n - mult]
        d = [ranks[j] - ranks[j + 1] for j in range(len(ranks) - 1)] + [0]
        blocks = tuple(j for j in range(len(d) - 1, 0, -1) for _ in range(d[j - 1] - d[j]))
        entries.append((ev, blocks))
    return SpectralData(tuple(entries))


def dense_conjugate(blocks, seed: int) -> MatQ:
    """P J P^-1 for the Jordan matrix J of blocks and P = L U, L and U^T unit
    lower triangular with entries in [-2, 2] drawn from seed."""
    jordan = jordan_matrix(blocks)
    n, rng = jordan.dim, Random(seed)
    l, ut = (unit_lower(n, [rng.randint(-2, 2) for _ in range(n * (n - 1) // 2)]) for _ in "lu")
    p = l @ MatQ(zip(*ut.rows))
    return p @ jordan @ p.inverse()


@given(jordan_blocks(), st.integers(0, 2**32))
@example([(F(1, 2), 1), (F(1, 3), 1), (F(9, 10), 1), (F(1, 7), 1)], 1)  # all simple
@example([(F(1, 2), 1), (F(1, 2), 1), (F(1, 3), 1)], 2)  # a repeated ev, two blocks (1,)
@example([(F(1, 2), 2), (F(1, 2), 1), (F(1, 5), 3)], 3)  # Jordan blocks
@settings(max_examples=60, deadline=None)
def test_spectral_data_matches_the_rank_loop_oracle(blocks, seed):
    a = dense_conjugate(blocks, seed)
    assert spectral_data(a) == parent_spectral_data(MatQ(a.rows))


def test_simple_eigenvalues_need_no_rank(monkeypatch):
    calls = []
    monkeypatch.setattr(matexact, "rank", lambda a: calls.append(a) or rank(a))
    for name, a, evs in dense_split_conjugates():
        assert spectral_data(MatQ(a.rows)).entries == tuple((ev, (1,)) for ev in sorted(evs)), name
    a = dense_conjugate([(F(1, 2), 1), (F(1, 3), 1), (F(9, 10), 1), (F(1, 7), 1)], 1)
    assert spectral_data(a).entries == tuple((ev, (1,)) for ev in (F(1, 7), F(1, 3), F(1, 2), F(9, 10)))
    assert calls == []
    # a repeated eigenvalue still takes the rank loop
    assert spectral_data(dense_conjugate([(F(1, 2), 2), (F(1, 3), 1)], 1)).entries == (
        (F(1, 3), (1,)), (F(1, 2), (2,)))
    assert calls


@given(jordan_blocks(), st.integers(0, 2**32))
@example([(F(10**18 - 1, 10**18), 1), (F(10**17 + 3, 10**18), 2), (F(1, 3), 1)], 1)
@settings(max_examples=50, deadline=None)
def test_spectral_data_conjugation_invariant_property(blocks, seed):
    jordan = jordan_matrix(blocks)
    p = random_conjugator(Random(seed), jordan.dim)
    assert spectral_data(p @ jordan @ p.inverse()) == spectral_data(jordan)


@given(jordan_blocks(), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_stored_spectral_data_is_transparent(blocks, seed):
    jordan = jordan_matrix(blocks)
    p = random_conjugator(Random(seed), jordan.dim)
    a = p @ jordan @ p.inverse()
    data = spectral_data(a)
    assert spectral_data(a) is data
    fresh = MatQ(a.rows)
    assert spectral_data(fresh) == data
    assert a == fresh and hash(a) == hash(fresh) and repr(a) == repr(fresh)


def _spectral_log(caplog, a: MatQ) -> list:
    caplog.set_level(logging.DEBUG, logger="focalclass.matexact")
    caplog.clear()
    spectral_data(a)
    spectral_data(a)  # stored: the second call logs nothing
    return [(r.name, r.levelno, r.getMessage()) for r in caplog.records]


def test_spectral_data_logs_the_triangular_path(caplog):
    a = MatQ([[F(1, 2), 7, 0], [0, F(1, 3), 5], [0, 0, F(1, 2)]])
    assert _spectral_log(caplog, a) == [
        ("focalclass.matexact", logging.DEBUG,
         "spectral data of a 3 x 3 matrix from its triangular diagonal")]


def test_spectral_data_logs_the_charpoly_path(caplog):
    name, a, _ = next(iter(dense_split_conjugates()))
    assert _spectral_log(caplog, MatQ(a.rows)) == [
        ("focalclass.matexact", logging.DEBUG,
         f"spectral data of a {a.dim} x {a.dim} matrix from its charpoly roots")], name


def test_spectral_errors_are_not_stored():
    rotation = MatQ([[0, 1], [-1, 0]])
    for _ in range(2):
        with pytest.raises(NonRationalSpectrumError):
            spectral_data(rotation)
    assert rotation._spectral is None


def test_one_charpoly_per_dense_matrix(monkeypatch):
    """A whole mixed-pair classification computes the integer characteristic
    polynomial once per matrix, and builds a matrix from rationals only for
    the two it parses: every other matrix comes from integer rows."""
    calls = Counter()
    counted = matexact._zcharpoly

    def counting_charpoly(b):
        calls[b] += 1
        return counted(b)

    def text(p, blocks, k):
        a = p @ jordan_matrix(blocks) @ p.inverse()
        return json.dumps({"kind": "GAk", "A": [[str(x) for x in row] for row in a.rows], "k": k})

    l = unit_lower(4, [1, -1, 2, 1, 0, -1])
    u = MatQ(zip(*unit_lower(4, [2, 1, -1, 0, 1, 1]).rows))
    texts = (text(l @ u, [(F(1, 4), 2), (F(1, 9), 1), (F(1, 25), 1)], 4),
             text(u @ l, [(F(1, 2), 2), (F(1, 3), 1), (F(1, 5), 1)], 2))
    monkeypatch.setattr(matexact, "_zcharpoly", counting_charpoly)
    built, init = [], MatQ.__init__
    monkeypatch.setattr(MatQ, "__init__", lambda self, rows: init(self, rows) or built.append(self))
    g1, g2 = (cli.parse_descriptor(json.loads(t)) for t in texts)
    compute_invariants(g1)
    compute_invariants(g2)
    verdicts = (commable_within_focal(g1, g2), commable(g1, g2), quasi_isometric(g1, g2))
    assert [v.kind for v in verdicts] == ["yes"] * 3
    for v in verdicts:
        assert validate_chain(v.chain)[0]
    assert power_conjugacy(g1.matrix, g2.matrix, g1.k, g2.k)[:2] == (1, 2)
    assert calls == Counter({g.matrix.zrows: 1 for g in (g1, g2)})
    assert len(built) == 2 and built[0] is g1.matrix and built[1] is g2.matrix


def test_is_contracting_examples():
    assert is_contracting(diag("1/2", "1/4"))
    assert not is_contracting(diag("1/2", 2))


def test_spectral_data_of_powers_of_diagonal():
    rng = Random(11)
    for _ in range(30):
        dim = rng.choice([1, 2, 3])
        evs = [F(rng.randint(1, 9), rng.choice([2, 3, 5, 8, 16])) for _ in range(dim)]
        evs = [e if e < 1 else F(1, 2) for e in evs]
        a = MatQ.diag(evs)
        for n in range(1, 7):
            powered = spectral_data(mat_power(a, n))
            base = spectral_data(a)
            assert powered.entries == tuple(
                sorted(((ev**n, blocks) for ev, blocks in base.entries))
            )


def test_spectral_data_conjugation_invariant_with_jordan_blocks():
    rng = Random(12)
    jordan = MatQ([["1/3", 1, 0], [0, "1/3", 0], [0, 0, "1/5"]])
    for _ in range(10):
        p = random_conjugator(rng, 3)
        assert spectral_data(p @ jordan @ p.inverse()).entries == (
            (F(1, 5), (1,)),
            (F(1, 3), (2,)),
        )


# ---------------------------------------------------------------------------
# conjugacy
# ---------------------------------------------------------------------------


def test_conjugate_examples():
    a = diag("1/2", "1/4")
    assert conjugate(a, a) == MatQ.identity(2)
    b = MatQ([["1/2", 0], [1, "1/4"]])
    p = conjugate(a, b)
    assert p is not None
    assert p @ a @ p.inverse() == b
    assert conjugate(diag("1/2", "1/2"), MatQ([["1/2", 1], [0, "1/2"]])) is None


def test_conjugate_dimension_mismatch():
    with pytest.raises(ValueError):
        conjugate(diag("1/2"), diag("1/2", "1/4"))


def test_conjugate_symmetric_presence():
    rng = Random(13)
    for _ in range(40):
        dim = rng.choice([2, 3])
        a = random_triangular(rng, dim, max_den=16)
        b = random_triangular(rng, dim, max_den=16)
        ab = conjugate(a, b)
        ba = conjugate(b, a)
        assert (ab is None) == (ba is None)
        if ab is not None:
            assert ab @ a @ ab.inverse() == b


def test_spectral_data_recovers_constructed_jordan_forms():
    rng = Random(18)
    for _ in range(30):
        # build a Jordan matrix from a random block partition
        blocks = []
        evs = [F(1, 2), F(1, 3), F(2, 5)]
        rng.shuffle(evs)
        for ev in evs[: rng.randint(1, 3)]:
            for _ in range(rng.randint(1, 2)):
                blocks.append((ev, rng.randint(1, 2)))
        expect: dict = {}
        for ev, size in blocks:
            expect.setdefault(ev, []).append(size)
        jordan = jordan_matrix(blocks)
        p = random_conjugator(rng, jordan.dim)
        data = spectral_data(p @ jordan @ p.inverse())
        got = {ev: list(blocks_) for ev, blocks_ in data.entries}
        assert got == {
            ev: sorted(sizes, reverse=True) for ev, sizes in expect.items()
        }


def test_conjugate_outside_family_raises():
    rot = MatQ([[0, 1], [-1, 0]])
    p = random_conjugator(Random(14), 2)
    with pytest.raises(NonRationalSpectrumError):
        conjugate(rot, p @ rot @ p.inverse())


# block shapes of one eigenvalue, with repeated sizes among them
BLOCK_SHAPES = [(1,), (2,), (3,), (1, 1), (2, 1), (2, 2), (3, 1), (2, 1, 1), (1, 1, 1)]


@st.composite
def jordan_spectra(draw, max_dim=6):
    """(eigenvalue, size) blocks of total size 1 to max_dim, in shuffled
    order: up to three distinct eigenvalues in (0, 1), each with a block
    shape from BLOCK_SHAPES."""
    blocks, left = [], max_dim
    for _ in range(draw(st.integers(1, 3))):
        shapes = [shape for shape in BLOCK_SHAPES if sum(shape) <= left]
        num = draw(st.integers(1, 10**6))
        ev = F(num, num + draw(st.integers(1, 10**6)))
        if not shapes or ev in (e for e, _ in blocks):
            break
        shape = draw(st.sampled_from(shapes))
        blocks += [(ev, size) for size in shape]
        left -= sum(shape)
    return draw(st.permutations(blocks))


def jordan_of(data) -> MatQ:
    return jordan_matrix([(ev, size) for ev, sizes in data.entries for size in sizes])


@given(jordan_spectra(), st.integers(0, 2**32))
@example([(F(1, 2), 2), (F(1, 2), 2)], 0)
@example([(F(1, 3), 1), (F(1, 3), 2), (F(1, 3), 1)], 1)
@example([(F(2, 5), 1), (F(2, 5), 3)], 2)
@example([(F(1, 2), 2), (F(1, 7), 1), (F(1, 2), 1), (F(1, 7), 2)], 3)
@settings(max_examples=60, deadline=None)
def test_similarity_witnesses_from_jordan_bases(blocks, seed):
    rng = Random(seed)
    jordan = jordan_matrix(blocks)
    p, q = random_conjugator(rng, jordan.dim), random_conjugator(rng, jordan.dim)
    a, b = p @ jordan @ p.inverse(), q @ jordan @ q.inverse()
    data = spectral_data(a)
    columns, den = _jordan_basis(a, data)
    basis = MatQ([[F(x, den) for x in row] for row in columns])
    assert basis.inverse() @ a @ basis == jordan_of(data)
    witness = conjugate(a, b)
    assert witness.det() != 0 and witness @ a == b @ witness
    assert conjugate(MatQ(a.rows), MatQ(b.rows)) == witness
    # a**2 against a dense conjugate of jordan**2, at the minimal pair (2, 1) of (4, 16)
    c = q @ mat_power(jordan, 2) @ q.inverse()
    got = power_conjugacy(a, c, 4, 16)
    n1, n2, witness = got
    assert (n1, n2) == (2, 1)
    assert witness.det() != 0 and witness @ mat_power(a, 2) == c @ witness
    assert power_conjugacy(MatQ(a.rows), MatQ(c.rows), 4, 16) == got


# _jordan_basis and _similarity as they were before the bases became integer
# columns over one denominator, kept (renamed) as the oracle of the integer
# witnesses: Fraction bases, MatQ inverse and MatQ verification.  They read
# the integer form as lists, and take their kernels and the chains' pivot
# columns from the Fraction elimination.
def parent_integer_rows(rows) -> tuple[list, int]:
    """(d * rows as lists of integers, d), d the lcm of all denominators."""
    d = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def parent_jordan_basis(x: MatQ, data: SpectralData) -> MatQ:
    """B with B^-1 @ x @ B the Jordan matrix of data, x's spectral data: for
    each eigenvalue ev and each block, largest first, the chain N**(k-1) v,
    ..., N v, v with N = x - ev I, k the block size.  One elimination per
    size k, largest first, on at most dim columns, picks as tops the v in
    ker N**k whose N**(k-1) v are independent of the longer chains' bottoms."""
    columns, (b, den) = [], parent_integer_rows(x.rows)
    for ev, blocks in data.entries:
        scale, powers = _shifted_powers(b, den, ev)
        powers = list(islice(powers, blocks[0]))
        chains: list = []  # each bottom first
        for k in sorted(set(blocks), reverse=True):
            kernel = parent_integer_rows(parent_nullspace([[F(v) for v in row] for row in powers[k - 1]],
                                                          x.dim))[0]
            images = kernel if k == 1 else [
                [sum(map(mul, row, v)) for row in powers[k - 2]] for v in kernel]
            known = len(chains)
            cols = [chain[0] for chain in chains] + images
            for col in parent_echelon([[F(v) for v in row] for row in zip(*cols)], len(cols))[0][known:]:
                top = kernel[col - known]
                # N**j top = (L * N)**j top / L**j
                chains.append([[F(sum(map(mul, row, top)), scale**j)
                                for row in powers[j - 1]] for j in range(k - 1, 0, -1)] + [top])
        columns += [v for chain in chains for v in chain]
    return MatQ(zip(*columns))


def parent_similarity(a: MatQ, b: MatQ, data: SpectralData) -> MatQ:
    """B_b @ B_a^-1 for a and b of spectral data data, exactly verified."""
    p = parent_jordan_basis(b, data) @ parent_jordan_basis(a, data).inverse()
    if p @ a != b @ p:
        raise RuntimeError("similarity witness verification failed")
    return p


@st.composite
def split_spectra(draw, max_dim=5):
    """(eigenvalue, size) blocks of total size 1 to max_dim: half of the draws
    distinct simple eigenvalues (a square-free characteristic polynomial),
    half a repeated eigenvalue, in one block or several."""
    ev = st.builds(lambda num, gap: F(num, num + gap), st.integers(1, 10**6), st.integers(1, 10**6))
    if draw(st.booleans()):
        n = draw(st.integers(1, max_dim))
        return [(x, 1) for x in draw(st.lists(ev, min_size=n, max_size=n, unique=True))]
    return draw(jordan_spectra(max_dim).filter(
        lambda blocks: len(blocks) > len({x for x, _ in blocks}) or any(k > 1 for _, k in blocks)))


@given(split_spectra(), st.integers(0, 2**32))
@example([(F(1, 2), 1), (F(1, 3), 1), (F(9, 10), 1), (F(1, 7), 1), (F(2, 7), 1)], 0)
@example([(F(1, 2), 2), (F(1, 2), 1), (F(1, 5), 2)], 1)
@example([(F(1, 3), 1), (F(1, 3), 1), (F(1, 3), 1)], 2)
@settings(max_examples=60, deadline=None)
def test_integer_witnesses_match_the_fraction_oracle(blocks, seed):
    a, b = dense_conjugate(blocks, seed), dense_conjugate(blocks, seed + 1)
    roots = parent_rational_roots(charpoly(a))
    assert _rational_roots(_zcharpoly(a.zrows), a.zden) == roots
    data = spectral_data(a)
    assert {ev: sum(sizes) for ev, sizes in data.entries} == roots
    columns, den = _jordan_basis(a, data)
    assert MatQ([[F(x, den) for x in row] for row in columns]) == parent_jordan_basis(a, data)
    assert conjugate(a, b) == parent_similarity(MatQ(a.rows), MatQ(b.rows), data)
    # a**2 against a dense conjugate of the squared spectrum, at the pair (2, 1) of (4, 16)
    c = dense_conjugate([(ev**2, size) for ev, size in blocks], seed + 2)
    squared = SpectralData(tuple((ev**2, sizes) for ev, sizes in data.entries))
    assert power_conjugacy(a, c, 4, 16) == (2, 1, parent_similarity(mat_power(a, 2), c, squared))


def rational_conjugate(rows: list, seed: int) -> MatQ:
    """P a P^-1 for the matrix of rows and P = L U, L and U^T unit lower
    triangular with entries of numerator and denominator up to 10**6 drawn
    from seed, so the matrix's common denominator, and with it the integer
    characteristic polynomial's coefficients, are large."""
    n, rng = len(rows), Random(seed)
    entry = lambda: F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))  # noqa: E731
    l, ut = (unit_lower(n, [entry() for _ in range(n * (n - 1) // 2)]) for _ in "lu")
    p = l @ MatQ(zip(*ut.rows))
    return p @ MatQ(rows) @ p.inverse()


@given(split_spectra(), st.integers(0, 2**32), st.booleans())
@example([(F(1, 2), 1), (F(1, 3), 1), (F(999999, 1000000), 1)], 0, True)
@example([(F(1, 2), 2), (F(1, 2), 1), (F(1, 5), 2)], 1, True)
@settings(max_examples=60, deadline=None)
def test_spectral_data_matches_the_charpoly_oracle(blocks, seed, rational):
    """The roots of det(yI - d a) over d are the roots the Fraction root
    finder gives on charpoly(a), for conjugates by small integer P and by P
    with denominators up to 10**6."""
    jordan = jordan_matrix(blocks)
    a = rational_conjugate(jordan.rows, seed) if rational else dense_conjugate(blocks, seed)
    data = spectral_data(a)
    roots = parent_rational_roots(charpoly(a))
    assert {ev: sum(sizes) for ev, sizes in data.entries} == roots
    assert roots == Counter(ev for ev, size in blocks for _ in range(size))
    assert data == parent_spectral_data(MatQ(a.rows)) == spectral_data(jordan)


def block_diagonal(*parts) -> list:
    """Rows of the block-diagonal matrix of the square row lists parts."""
    n, rows, offset = sum(len(part) for part in parts), [], 0
    for part in parts:
        rows += [[F(0)] * offset + list(row) + [F(0)] * (n - offset - len(part)) for row in part]
        offset += len(part)
    return rows


@given(split_spectra(max_dim=3), st.sampled_from([F(-1), F(-3, 4), F(2), F(3, 25), F(1, 2)]),
       st.sampled_from([F(0), F(-1, 2), F(-7, 3)]), st.booleans(), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_non_split_and_non_positive_spectra_are_rejected(blocks, c, ev, split, seed):
    """A companion block of y^2 - c, c not a rational square, or a block at an
    eigenvalue <= 0, next to a split positive spectrum, is rejected on the
    integer charpoly path too, as the Fraction root finder sees it."""
    bad = [[ev]] if split else [[F(0), c], [F(1), F(0)]]
    a = rational_conjugate(block_diagonal(jordan_matrix(blocks).rows, bad), seed)
    roots = parent_rational_roots(charpoly(a))
    assert sum(roots.values()) < a.dim or min(roots) <= 0
    with pytest.raises(NonRationalSpectrumError):
        spectral_data(a)


def test_witnesses_eliminate_at_most_dim_columns(monkeypatch):
    """No elimination behind a witness is larger than the matrix: neither
    its rows nor its pivot columns exceed the dimension."""
    shapes = []
    counted = matexact._eliminate

    def recording_eliminate(rows, ncols, reduced=False):
        shapes.append((len(rows), ncols))
        return counted(rows, ncols, reduced)

    monkeypatch.setattr(matexact, "_eliminate", recording_eliminate)
    rng = Random(20)
    cases = [[(F(1, 2), 2), (F(1, 2), 2)], [(F(1, 3), 3), (F(1, 3), 1), (F(1, 5), 1)],
             [(F(2, 7), 2), (F(2, 7), 1), (F(2, 7), 1)], [(F(1, 4), 1), (F(1, 9), 1)]]
    for blocks in cases:
        jordan = jordan_matrix(blocks)
        p, q = random_conjugator(rng, jordan.dim), random_conjugator(rng, jordan.dim)
        a, b = p @ jordan @ p.inverse(), q @ jordan @ q.inverse()
        shapes.clear()
        assert conjugate(a, b) is not None
        assert power_conjugacy(a, q @ mat_power(jordan, 2) @ q.inverse(), 4, 16) is not None
        assert shapes and all(max(shape) <= jordan.dim for shape in shapes), (blocks, shapes)


# ---------------------------------------------------------------------------
# power conjugacy
# ---------------------------------------------------------------------------


def test_power_conjugacy_examples():
    a1 = diag("1/2", "1/8")
    a2 = diag("1/4", "1/64")
    got = power_conjugacy(a1, a2, 4, 16)
    assert got is not None and got[:2] == (2, 1)
    n1, n2, p = got
    assert p @ mat_power(a1, n1) @ p.inverse() == mat_power(a2, n2)

    same = power_conjugacy(a1, a1, 4, 4)
    assert same[:2] == (1, 1) and same[2] == MatQ.identity(2)

    assert power_conjugacy(a1, diag("1/16", "1/4096"), 4, 8) is None
    assert power_conjugacy(a1, a2, 4, 7) is None  # no common power at all


def test_power_conjugacy_requires_contracting():
    with pytest.raises(ValueError):
        power_conjugacy(diag(2), diag("1/2"), 2, 2)


def brute_power_conjugacy(a1, a2, k1, k2, bound=12):
    for n1 in range(1, bound + 1):
        for n2 in range(1, bound + 1):
            if k1**n1 == k2**n2 and conjugate(mat_power(a1, n1), mat_power(a2, n2)) is not None:
                return (n1, n2)
    return None


def make_power_related_pair(rng, dim, k1, k2):
    """(a1, a2) with a1**n1 conjugate to a2**n2 at the minimal common pair."""
    from focalclass.exactnum import common_power

    n1, n2 = common_power(k1, k2)
    mus = [F(1, rng.choice([2, 3, 4, 8, 9])) for _ in range(dim)]
    a1 = MatQ.diag([mu**n2 for mu in mus])
    p = random_conjugator(rng, dim)
    a2 = p @ MatQ.diag([mu**n1 for mu in mus]) @ p.inverse()
    return a1, a2


def test_power_conjugacy_against_brute_oracle():
    rng = Random(15)
    positives = 0
    for _ in range(60):
        dim = rng.choice([2, 3])
        q = rng.choice([2, 3, 5])
        k1, k2 = q ** rng.randint(1, 2), q ** rng.randint(1, 2)
        if rng.random() < 0.5:
            a1, a2 = make_power_related_pair(rng, dim, k1, k2)
        else:
            a1 = random_diagonalizable(rng, dim, max_den=9)
            a2 = random_diagonalizable(rng, dim, max_den=9)
        got = power_conjugacy(a1, a2, k1, k2)
        expect = brute_power_conjugacy(a1, a2, k1, k2)
        assert (got is None) == (expect is None)
        if got is not None:
            positives += 1
    assert positives >= 10  # the sample must include genuine positives


# ---------------------------------------------------------------------------
# one-parameter power: connected pairs are commable within focal groups iff
# one action lies on the other's positive one-parameter group up to conjugacy
# ---------------------------------------------------------------------------


def connected_verdict(a1, a2):
    return commable_within_focal(GAk(a1, 1), GAk(a2, 1))


def test_one_param_power_examples():
    a = diag("1/2", "1/4")
    for b in (diag("1/8", "1/64"), diag("1/3", "1/9")):  # t = 3 and t = log 3/log 2
        verdict = connected_verdict(a, b)
        assert isinstance(verdict, Yes)
        assert validate_chain(verdict.chain) == (True, "ok")
    verdict = connected_verdict(a, diag("1/3", "1/8"))
    assert isinstance(verdict, No) and verdict.invariant == "connected-key"


def test_one_param_power_respects_blocks():
    verdict = connected_verdict(MatQ([["1/2", 1], [0, "1/2"]]), diag("1/4", "1/4"))
    assert isinstance(verdict, No) and verdict.invariant == "connected-key"


def test_one_param_power_of_matrix_powers():
    rng = Random(16)
    for _ in range(25):
        dim = rng.choice([1, 2, 3])
        a = random_triangular(rng, dim, max_den=16)
        for n in range(1, 6):
            assert isinstance(connected_verdict(a, mat_power(a, n)), Yes)
