"""Exact linear algebra over the rationals for contracting actions.

Matrices are immutable arrays of Fractions, but the arithmetic runs over Z:
one fraction-free integer kernel (Bareiss) serves the determinant, rank,
inverse and nullspace, the characteristic polynomial is Berkowitz's
division-free one, and a product clears each operand's denominators,
multiplies integers and builds one Fraction per entry.  Spectral analysis
is restricted to characteristic polynomials that split over Q with positive
roots.  Their roots are found exactly and completely over Z: a square-free
part by primitive pseudo-remainders, its roots by p-adic lifting, and the
multiplicities by synthetic division; outside that family a typed error is
raised, never a float guess.  Jordan block sizes come from the ranks of the
integer powers of a scaled a - ev I.  Similarity is decided by eigenvalue and
Jordan block data, and every similarity witness is verified by exact
multiplication before it is returned.

A matrix's spectral data is computed at most once and kept on the matrix
itself, and the logs the invariants derive from it (expansion powers, the
volume expansion delta, the connected key) once each on the spectral data,
so every caller that asks again reads the stored value.  A matrix outside
the family keeps nothing and raises again on each call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from random import Random
from typing import Optional

from .exactnum import LogRatio, _is_prime, canonical_value, common_power, mult_decompose

__all__ = [
    "MatQ",
    "SpectralData",
    "NonRationalSpectrumError",
    "charpoly",
    "mat_power",
    "spectral_data",
    "is_contracting",
    "conjugate",
    "power_conjugacy",
]


class NonRationalSpectrumError(ValueError):
    """The characteristic polynomial does not split over Q with positive roots."""


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _integer_rows(rows) -> tuple[list, int]:
    """(d * rows as lists of integers, d), d the lcm of all denominators."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def _int_product(a: list, b: list) -> list:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


class MatQ:
    """Immutable square matrix over Q.  dim 0 is allowed (empty matrix).

    Equality, hashing and repr use only the rows; the _spectral slot holds
    the spectral data once spectral_data has computed it.
    """

    __slots__ = ("rows", "dim", "_spectral")

    def __init__(self, rows):
        rows = tuple(tuple(_frac(x) for x in row) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "_spectral", None)

    def __setattr__(self, name, value):
        raise AttributeError("MatQ is immutable")

    @classmethod
    def identity(cls, n: int) -> "MatQ":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def diag(cls, values) -> "MatQ":
        values = [_frac(v) for v in values]
        n = len(values)
        return cls([[values[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return isinstance(other, MatQ) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"MatQ({[[str(x) for x in row] for row in self.rows]})"

    def __matmul__(self, other: "MatQ") -> "MatQ":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        (a, da), (b, db) = _integer_rows(self.rows), _integer_rows(other.rows)
        d = da * db
        return MatQ([[Fraction(x, d) for x in row] for row in _int_product(a, b)])

    def det(self) -> Fraction:
        """Determinant by fraction-free elimination; empty matrix gives 1."""
        _, pivots, sign, last, scale = _eliminate(self.rows, self.dim)
        if len(pivots) < self.dim:
            return Fraction(0)
        return Fraction(sign * last, scale)

    def inverse(self) -> "MatQ":
        n = self.dim
        augmented = [row + tuple(int(i == j) for j in range(n)) for i, row in enumerate(self.rows)]
        m, pivots, _, last, _ = _eliminate(augmented, n, reduced=True)
        if len(pivots) < n:
            raise ZeroDivisionError("matrix is singular")
        return MatQ([[Fraction(x, last) for x in row[n:]] for row in m])


def _eliminate(rows, ncols: int, reduced: bool = False) -> tuple:
    """Fraction-free elimination (Bareiss 1968) of the rows, each scaled to
    integers, on the first ncols columns; later columns follow along.

    Returns the integer rows, the pivot columns, the permutation sign, the
    last pivot (1 if none) and the product of the row scales.  Each update
    divides exactly by the previous pivot, as every entry is a minor, and a
    square full-rank input has determinant sign * last / scale.  With reduced
    the rows above each pivot are cleared too (Gauss-Jordan): every pivot row
    is then last times its row of the reduced echelon form."""
    scales = [lcm(*(x.denominator for x in row)) for row in rows]
    m = [[x.numerator * (d // x.denominator) for x in row] for row, d in zip(rows, scales)]
    pivots: list = []
    sign = prev = 1
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        row, piv = m[r], m[r][col]
        for i in range(len(m)) if reduced else range(r + 1, len(m)):
            if i != r:
                f = m[i][col]
                m[i] = [(piv * x - f * y) // prev for x, y in zip(m[i], row)]
        pivots.append(col)
        prev = piv
    return m, pivots, sign, prev, prod(scales)


def mat_power(a: MatQ, n: int) -> MatQ:
    """a**n by repeated squaring; n < 0 requires det(a) != 0."""
    if n < 0:
        return mat_power(a.inverse(), -n)
    result = MatQ.identity(a.dim)
    base = a
    while n:
        if n & 1:
            result = result @ base
        base = base @ base if n > 1 else base
        n >>= 1
    return result


def rank(a) -> int:
    """Rank of a MatQ, or of a square matrix given as rows of integers."""
    rows = a.rows if isinstance(a, MatQ) else a
    return len(_eliminate(rows, len(rows))[1])


# ---------------------------------------------------------------------------
# the characteristic polynomial: a tuple of Fractions, ascending
# ---------------------------------------------------------------------------


def charpoly(a: MatQ) -> tuple:
    """Monic characteristic polynomial det(xI - a), ascending: Berkowitz's
    division-free algorithm (1984) over Z on b = d * a, d the lcm of the
    denominators, then coefficient k of x**(n-k) divided by d**k.  Adding row
    and column r to the leading block M multiplies the coefficients by the
    lower-triangular Toeplitz matrix with first column
    (1, -b_rr, -R c, -R M c, ..., -R M**(r-1) c), c above b_rr and R left of it.
    """
    n = a.dim
    b, d = _integer_rows(a.rows)
    coeffs = [1]  # descending, of the leading r x r block
    for r in range(n):
        block = [b[i][:r] for i in range(r)]
        row, vec = b[r][:r], [b[i][r] for i in range(r)]
        toeplitz = [1, -b[r][r]]
        for _ in range(r):
            toeplitz.append(-sum(x * y for x, y in zip(row, vec)))
            vec = [sum(x * y for x, y in zip(brow, vec)) for brow in block]
        coeffs = [
            sum(toeplitz[i - j] * coeffs[j] for j in range(min(i, r) + 1)) for i in range(r + 2)
        ]
    return tuple(Fraction(coeffs[n - i], d ** (n - i)) for i in range(n + 1))


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralData:
    """Distinct eigenvalues with Jordan block multisets, sorted ascending.

    entries[i] = (eigenvalue, blocks) with blocks a descending tuple of block
    sizes; the block sizes over all eigenvalues sum to the dimension.  The
    _expansions, _delta and _key slots hold expansion_powers(), delta_power()
    and ratio_key() once computed; equality, hashing and repr ignore them.
    """

    entries: tuple
    _expansions: Optional[tuple] = field(default=None, compare=False, repr=False)
    _delta: Optional[tuple] = field(default=None, compare=False, repr=False)
    _key: Optional[tuple] = field(default=None, compare=False, repr=False)

    def expansion_powers(self) -> tuple:
        """Each expansion factor 1/ev, for eigenvalues in (0, 1), written as
        (primitive base, exponent) by mult_decompose; computed once."""
        if self._expansions is None:
            powers = tuple(mult_decompose(1 / ev) for ev in self.eigenvalues)
            object.__setattr__(self, "_expansions", powers)
        return self._expansions

    def delta_power(self) -> tuple:
        """The volume expansion delta, the product of 1/ev over the spectrum
        with algebraic multiplicity, as (primitive base, exponent); computed once."""
        if self._delta is None:
            delta = prod((1 / ev) ** sum(blocks) for ev, blocks in self.entries)
            object.__setattr__(self, "_delta", mult_decompose(delta))
        return self._delta

    def ratio_key(self) -> tuple:
        """(log(1/ev)/log(1/ev_max) as a canonical value, blocks) for each
        eigenvalue, largest first: the connected key; computed once."""
        if self._key is None:
            powers = self.expansion_powers()
            key = tuple((canonical_value(LogRatio.of_powers(*power, *powers[-1])), blocks)
                        for power, (_, blocks) in zip(powers, self.entries))
            object.__setattr__(self, "_key", key[::-1])
        return self._key

    @property
    def eigenvalues(self) -> tuple:
        return tuple(ev for ev, _ in self.entries)

    @property
    def spectral_radius(self) -> Fraction:
        if not self.entries:
            raise ValueError("empty matrix has no spectral radius")
        return max(abs(ev) for ev in self.eigenvalues)

    def is_diagonalizable(self) -> bool:
        return all(all(b == 1 for b in blocks) for _, blocks in self.entries)


# integer polynomials: lists of ints, ascending, no trailing zero


def _primitive(f: list) -> list:
    """f over its content, with a positive leading coefficient; [] stays []."""
    g = gcd(*f) if f and f[-1] > 0 else -gcd(*f)
    return [c // g for c in f]


def _pseudo_remainder(f: list, g: list) -> list:
    """lc(g)**k * f mod g for some k >= 0, without trailing zeros."""
    rem, lead = list(f), g[-1]
    while len(rem) >= len(g):
        c = rem.pop()
        shift = len(rem) + 1 - len(g)
        rem = [lead * x - (c * g[i - shift] if i >= shift else 0) for i, x in enumerate(rem)]
        while rem and not rem[-1]:
            rem.pop()
    return rem


def _zgcd(f: list, g: list) -> list:
    """Primitive gcd of integer polynomials, f nonzero, by the primitive
    pseudo-remainder sequence (Collins 1967)."""
    while g:
        f, g = g, _primitive(_pseudo_remainder(f, g))
    return _primitive(f)


def _zdivmod(f: list, g: list) -> tuple[list, list]:
    """Quotient and remainder of integer polynomials, g monic."""
    rem, quo = list(f), []
    for shift in range(len(f) - len(g), -1, -1):
        c = rem[shift + len(g) - 1]
        quo.append(c)
        for i, x in enumerate(g):
            rem[shift + i] -= c * x
    return quo[::-1], rem[: len(g) - 1]


def _horner(f: list, x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _integer_roots(f: list) -> list:
    """Integer roots of a square-free monic integer polynomial (ascending
    coefficients), by p-adic lifting (Loos 1983).

    q is the first prime above the degree at which every root of f mod q is
    simple; only the primes dividing the discriminant fail, so the search
    ends.  Each simple root lifts uniquely to a root mod q**(2**k) by Newton
    steps.  An integer root y has |y| <= 1 + max|coeff| (Cauchy), so y is the
    symmetric residue of the lift of y mod q once q**(2**k) exceeds twice
    that bound; exact evaluation then keeps the true roots among the lifts.
    """
    deriv = [i * c for i, c in enumerate(f)][1:]
    q = len(f) - 1
    while True:
        q += 1
        if not _is_prime(q):
            continue
        reduced = [c % q for c in f]
        lifts = [a for a in range(q) if _horner(reduced, a) % q == 0]
        if all(_horner(deriv, a) % q for a in lifts):
            break
    bound = 2 * (1 + max(abs(c) for c in f))
    modulus = q
    while modulus <= bound:
        modulus *= modulus
        lifts = [
            (a - _horner(f, a) * pow(_horner(deriv, a), -1, modulus)) % modulus
            for a in lifts
        ]
    residues = (a - modulus if 2 * a > modulus else a for a in lifts)
    return [y for y in residues if _horner(f, y) == 0]


def _rational_roots(p: tuple) -> dict:
    """Rational roots of the monic polynomial p with their multiplicities.

    y = d * x, d the lcm of the denominators, turns p into a monic integer
    polynomial f whose rational roots are integers.  f / gcd(f, f') is its
    square-free part, monic as f is; synthetic division of f by y - root
    counts each root of that part.
    """
    n = len(p) - 1
    d = lcm(*(c.denominator for c in p))
    f = [c.numerator * (d ** (n - i) // c.denominator) for i, c in enumerate(p)]
    square_free = _zdivmod(f, _zgcd(f, [i * c for i, c in enumerate(f)][1:]))[0]
    roots: dict[Fraction, int] = {}
    for y in _integer_roots(square_free):
        mult = 0
        quo, rem = _zdivmod(f, [-y, 1])
        while not rem[0]:
            f, mult = quo, mult + 1
            quo, rem = _zdivmod(f, [-y, 1])
        roots[Fraction(y, d)] = mult
    return roots


def _triangular_diagonal(a: MatQ) -> Optional[list]:
    """Diagonal of a when it is upper or lower triangular, else None."""
    n = a.dim
    upper = all(a.rows[i][j] == 0 for i in range(n) for j in range(i))
    lower = all(a.rows[i][j] == 0 for i in range(n) for j in range(i + 1, n))
    if upper or lower:
        return [a.rows[i][i] for i in range(n)]
    return None


def spectral_data(a: MatQ) -> SpectralData:
    """Eigenvalues, multiplicities and Jordan block sizes of a.

    Only matrices whose characteristic polynomial splits over Q with strictly
    positive roots are in the implemented family; anything else raises
    NonRationalSpectrumError.  The result is stored on a and returned by
    later calls; an error is not stored.
    """
    if a._spectral is not None:
        return a._spectral
    n = a.dim
    diagonal = _triangular_diagonal(a)
    if diagonal is not None:
        roots: dict = {}
        for ev in diagonal:
            roots[ev] = roots.get(ev, 0) + 1
    else:
        roots = _rational_roots(charpoly(a))
    if sum(roots.values()) < n:
        raise NonRationalSpectrumError("characteristic polynomial does not split over Q")
    if any(ev <= 0 for ev in roots):
        raise NonRationalSpectrumError("spectrum contains a non-positive rational eigenvalue")
    b, den = _integer_rows(a.rows)
    entries = []
    for ev in sorted(roots):
        mult = roots[ev]
        # scale * (a - ev I) over Z: the same ranks for every power
        scale = lcm(den, ev.denominator)
        shift = ev.numerator * (scale // ev.denominator)
        shifted = [[x * (scale // den) - shift * (i == j) for j, x in enumerate(row)]
                   for i, row in enumerate(b)]
        ranks = [n, rank(shifted)]
        power = shifted
        while ranks[-1] > n - mult:
            power = _int_product(power, shifted)
            ranks.append(rank(power))
        # d[j] = number of blocks of size > j; sizes from successive differences
        d = [ranks[j] - ranks[j + 1] for j in range(len(ranks) - 1)] + [0]
        blocks = tuple(j for j in range(len(d) - 1, 0, -1) for _ in range(d[j - 1] - d[j]))
        entries.append((ev, blocks))
    data = SpectralData(tuple(entries))
    assert sum(sum(blocks) for _, blocks in data.entries) == n
    object.__setattr__(a, "_spectral", data)
    return data


def is_contracting(a: MatQ) -> bool:
    """True iff every eigenvalue lies in (0, 1); vacuously true for dim 0."""
    if a.dim == 0:
        return True
    return all(ev < 1 for ev in spectral_data(a).eigenvalues)


# ---------------------------------------------------------------------------
# similarity
# ---------------------------------------------------------------------------


def _intertwiner_space(a: MatQ, b: MatQ) -> list[MatQ]:
    """Basis of {P : P@a == b@P} as matrices, via the Sylvester system."""
    n = a.dim
    nn = n * n
    rows = []
    for i in range(n):
        for j in range(n):
            row = [Fraction(0)] * nn
            for k in range(n):
                row[i * n + k] += a.rows[k][j]   # P[i,k] * a[k,j]
                row[k * n + j] -= b.rows[i][k]   # -b[i,k] * P[k,j]
            rows.append(row)
    basis = _nullspace(rows, nn)
    return [MatQ([vec[i * n : (i + 1) * n] for i in range(n)]) for vec in basis]


def _nullspace(rows: list, ncols: int) -> list:
    """Nullspace basis, one vector per free column of the reduced echelon form."""
    m, pivots, _, last, _ = _eliminate(rows, ncols, reduced=True)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for prow, pcol in enumerate(pivots):
            vec[pcol] = Fraction(-m[prow][fc], last)
        basis.append(vec)
    return basis


def _conjugate_assuming(a: MatQ, b: MatQ) -> MatQ:
    """Witness for matrices already known to be similar, exactly verified."""
    if a == b:
        return MatQ.identity(a.dim)
    basis = _intertwiner_space(a, b)
    n = a.dim
    rng = Random(0)
    for attempt in range(10000):
        bound = 3 + attempt // 50
        coeffs = [rng.randint(-bound, bound) for _ in basis]
        terms = [(c, mat.rows) for c, mat in zip(coeffs, basis) if c]
        p = MatQ([[sum(c * m[i][j] for c, m in terms) for j in range(n)] for i in range(n)])
        if p.det() != 0:
            if p @ a != b @ p:
                raise RuntimeError("intertwiner verification failed")
            return p
    raise RuntimeError("similar matrices but no invertible intertwiner found")


def conjugate(a: MatQ, b: MatQ) -> Optional[MatQ]:
    """Similarity witness P with P @ a @ P^-1 == b, or None.

    Present iff a and b have equal spectral data; a matrix outside the split
    positive family raises NonRationalSpectrumError.  The witness is an
    invertible element of the intertwiner space {P : Pa = bP}; when the
    matrices are similar such elements are dense in that space, so a short
    randomized search over integer combinations finds one.  The witness is
    verified exactly before being returned.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    if spectral_data(a) != spectral_data(b):
        return None
    return _conjugate_assuming(a, b)


def power_conjugacy(
    a1: MatQ, a2: MatQ, k1: int, k2: int
) -> Optional[tuple[int, int, MatQ]]:
    """Minimal (n1, n2, P) with k1**n1 == k2**n2 and P @ a1**n1 @ P^-1 == a2**n2.

    Testing only the minimal exponent pair is complete: the eigenvalues are
    positive reals, so j-th roots of the spectra are unique and Jordan block
    structure is stable under powers; hence a1**(j*m) ~ a2**(j*n) already
    forces a1**m ~ a2**n.  For the same reason the spectrum of a power is the
    powered spectrum with unchanged blocks, so the decision runs on the base
    spectra and only the witness touches the powered matrices.
    """
    if not (is_contracting(a1) and is_contracting(a2)):
        raise ValueError("power_conjugacy expects contracting matrices")
    pair = common_power(k1, k2)
    if pair is None:
        return None
    n1, n2 = pair
    if a1.dim != a2.dim:
        return None
    s1 = spectral_data(a1)
    s2 = spectral_data(a2)
    powered1 = tuple((ev**n1, blocks) for ev, blocks in s1.entries)
    powered2 = tuple((ev**n2, blocks) for ev, blocks in s2.entries)
    if powered1 != powered2:
        return None
    witness = _conjugate_assuming(mat_power(a1, n1), mat_power(a2, n2))
    return (n1, n2, witness)
