"""Exact linear algebra over the rationals for contracting actions.

A matrix is stored as its integer form: integer rows over one positive
denominator d, in lowest terms, so every kernel reads integers.  One
fraction-free integer kernel (Bareiss) serves the determinant, rank,
inverse and integer nullspace, and a product multiplies integer rows over
the product of the denominators; Fractions are built only when the rows
are read as rationals.
Spectral analysis is restricted to characteristic polynomials that split
over Q with positive roots.  Berkowitz's division-free det(yI - d a) goes
straight to the root finder, each integer root y giving the eigenvalue
y / d: a square-free part by primitive pseudo-remainders, its roots by
p-adic lifting, and the multiplicities by synthetic division, which a
square-free polynomial skips; outside that family a typed error is raised,
never a float guess.  A simple eigenvalue has the one block (1,); the block
sizes of a repeated one come from the ranks of the integer powers of a
scaled a - ev I, and Jordan chains from their kernels.  Similarity is
decided by eigenvalue and Jordan block data; its witness maps one Jordan
basis onto the other, each built without search as integer columns over
one denominator, and is verified by exact integer multiplication.

A matrix's spectral data is computed at most once and kept on the matrix
itself, and the logs the invariants derive from it (expansion powers and
the volume expansion delta, from integers) once each on the spectral data,
so every caller that asks again reads the stored value.  The connected key
is built from the expansion powers by focalmodel and kept there, in the
descriptor's canonical form.  A matrix outside the family keeps nothing
and raises again on each call.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate, islice, repeat, takewhile
from math import gcd, lcm, prod
from operator import mul

from .exactnum import Record, _debug, _decompose, _is_prime, common_power

__all__ = [
    "MatQ",
    "SpectralData",
    "NonRationalSpectrumError",
    "mat_power",
    "spectral_data",
    "is_contracting",
    "conjugate",
    "power_conjugacy",
]


class NonRationalSpectrumError(ValueError):
    """The characteristic polynomial does not split over Q with positive roots."""


def _int_product(a, b) -> list:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


class MatQ(Record):
    """Immutable square matrix over Q, stored as integer rows zrows over one
    positive denominator zden, in lowest terms with the entries, so the pair
    is canonical and ==, hash and repr read it.  dim 0 is allowed (empty
    matrix).  The cache _spectral holds the spectral data once computed.
    """

    zrows: tuple
    zden: int
    _spectral: SpectralData | None = None

    def __init__(self, rows):
        """The matrix of rows of rationals (or what Fraction reads): zden is
        the lcm of the denominators, which leaves no common factor."""
        rows = [[x if isinstance(x, Fraction) else Fraction(x) for x in row] for row in rows]
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square")
        d = lcm(*(x.denominator for row in rows for x in row))
        object.__setattr__(self, "zrows", tuple(
            tuple([x.numerator * (d // x.denominator) for x in row]) for row in rows))
        object.__setattr__(self, "zden", d)
        object.__setattr__(self, "dim", len(rows))

    @classmethod
    def _from_integers(cls, zrows, zden: int) -> "MatQ":
        """The matrix zrows / zden of square integer rows and a nonzero
        integer, brought to lowest terms with a positive denominator."""
        g = gcd(zden, *(x for row in zrows for x in row)) * (1 if zden > 0 else -1)
        a = object.__new__(cls)
        object.__setattr__(a, "zrows", tuple(tuple([x // g for x in row]) for row in zrows))
        object.__setattr__(a, "zden", zden // g)
        object.__setattr__(a, "dim", len(zrows))
        return a

    @property
    def rows(self) -> tuple:
        """The entries as Fractions, built on each read."""
        return tuple(tuple(Fraction(x, self.zden) for x in row) for row in self.zrows)

    @classmethod
    def identity(cls, n: int) -> "MatQ":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def diag(cls, values) -> "MatQ":
        values = list(values)
        return cls([[v if i == j else 0 for j in range(len(values))] for i, v in enumerate(values)])

    def __matmul__(self, other: "MatQ") -> "MatQ":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return MatQ._from_integers(_int_product(self.zrows, other.zrows), self.zden * other.zden)

    def det(self) -> Fraction:
        """Determinant by fraction-free elimination; empty matrix gives 1."""
        _, pivots, sign, last = _eliminate(self.zrows, self.dim)
        full = len(pivots) == self.dim
        return Fraction(sign * last, self.zden**self.dim) if full else Fraction(0)

    def inverse(self) -> "MatQ":
        """zden * M / last, for M / last the Gauss-Jordan inverse of zrows."""
        n = self.dim
        augmented = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(self.zrows)]
        m, pivots, _, last = _eliminate(augmented, n, reduced=True)
        if len(pivots) < n:
            raise ZeroDivisionError("matrix is singular")
        return MatQ._from_integers([[x * self.zden for x in row[n:]] for row in m], last)


def _eliminate(rows, ncols: int, reduced: bool = False) -> tuple:
    """Fraction-free elimination (Bareiss 1968) of integer rows on the first
    ncols columns; later columns follow along.

    Returns the rows, the pivot columns, the permutation sign and the last
    pivot (1 if none).  Each update divides exactly by the previous pivot, as
    every entry is a minor, and a square full-rank input has determinant
    sign * last.  With reduced the rows above each pivot are cleared too
    (Gauss-Jordan): every pivot row is then last times its reduced row."""
    m = list(rows)
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
    return m, pivots, sign, prev


def mat_power(a: MatQ, n: int) -> MatQ:
    """a**n by repeated squaring; n < 0 requires det(a) != 0."""
    if n < 0:
        return mat_power(a.inverse(), -n)
    result, base = None, a
    while n:
        if n & 1:
            result = base if result is None else result @ base
        base = base @ base if n > 1 else base
        n >>= 1
    return MatQ.identity(a.dim) if result is None else result


def rank(rows) -> int:
    """Rank of a square matrix given as rows of integers."""
    return len(_eliminate(rows, len(rows))[1])


# ---------------------------------------------------------------------------
# the characteristic polynomial
# ---------------------------------------------------------------------------


def _zcharpoly(b) -> list:
    """det(yI - b) for integer rows b, ascending, by Berkowitz's division-free
    algorithm (1984): adding row and column r to the leading block M multiplies
    the coefficients by the lower-triangular Toeplitz matrix with first column
    (1, -b_rr, -R c, -R M c, ..., -R M**(r-1) c), c above b_rr and R left of it."""
    n = len(b)
    coeffs = [1]  # descending, of the leading r x r block
    for r in range(n):
        block = [b[i][:r] for i in range(r)]
        row, vec = b[r][:r], [b[i][r] for i in range(r)]
        toeplitz = [1, -b[r][r]]
        for _ in range(r):
            toeplitz.append(-sum(map(mul, row, vec)))
            vec = [sum(map(mul, brow, vec)) for brow in block]
        # coefficient i sums toeplitz[i - j] * coeffs[j] over j <= min(i, r)
        coeffs = [sum(map(mul, toeplitz[i::-1], coeffs)) for i in range(r + 2)]
    return coeffs[::-1]


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


class SpectralData(Record):
    """Distinct eigenvalues with Jordan block multisets, sorted ascending.

    entries[i] = (eigenvalue, blocks) with blocks a descending tuple of block
    sizes; the block sizes over all eigenvalues sum to the dimension.  The
    _expansions and _delta slots hold expansion_powers() and delta_power()
    once computed; equality, hashing and repr ignore them.  The connected
    key, read off expansion_powers(), is kept on the descriptor's canonical
    form, not here.
    """

    entries: tuple
    _expansions: tuple | None = None
    _delta: tuple | None = None

    def expansion_powers(self) -> tuple:
        """Each expansion factor 1/ev, for eigenvalues in (0, 1), written as
        (primitive base, exponent) by _decompose; computed once."""
        if self._expansions is None:
            powers = tuple(_decompose(ev.denominator, ev.numerator) for ev in self.eigenvalues)
            object.__setattr__(self, "_expansions", powers)
        return self._expansions

    def delta_power(self) -> tuple:
        """The volume expansion delta, the product of 1/ev over the spectrum
        with algebraic multiplicity, as (primitive base, exponent); computed once."""
        if self._delta is None:
            num = prod(ev.denominator ** sum(blocks) for ev, blocks in self.entries)
            den = prod(ev.numerator ** sum(blocks) for ev, blocks in self.entries)
            object.__setattr__(self, "_delta", _decompose(num, den))
        return self._delta

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


def _rational_roots(f: list, d: int) -> dict:
    """The roots y / d of the monic integer polynomial f, with multiplicities.
    They are integers y; f / gcd(f, f') is f's square-free part, monic as f
    is, and synthetic division of f by y - root counts each root of that part."""
    common = _zgcd(f, [i * c for i, c in enumerate(f)][1:])
    if len(common) == 1:  # f is square-free: every root is simple
        return {Fraction(y, d): 1 for y in _integer_roots(f)}
    square_free = _zdivmod(f, common)[0]
    roots: dict[Fraction, int] = {}
    for y in _integer_roots(square_free):
        mult = 0
        quo, rem = _zdivmod(f, [-y, 1])
        while not rem[0]:
            f, mult = quo, mult + 1
            quo, rem = _zdivmod(f, [-y, 1])
        roots[Fraction(y, d)] = mult
    return roots


def _triangular_diagonal(a: MatQ) -> list | None:
    """Diagonal of a.zrows when a is upper or lower triangular, else None."""
    n, b = a.dim, a.zrows
    upper = all(b[i][j] == 0 for i in range(n) for j in range(i))
    lower = all(b[i][j] == 0 for i in range(n) for j in range(i + 1, n))
    if upper or lower:
        return [b[i][i] for i in range(n)]
    return None


def _shifted_powers(b: list, den: int, ev: Fraction) -> tuple:
    """L = lcm(den, ev.denominator) and the powers (L * (a - ev I))**j over Z,
    j = 1, 2, ..., for a's stored b, den = a.zrows, a.zden: they have the
    ranks and kernels of the powers of a - ev I."""
    scale = lcm(den, ev.denominator)
    shift = ev.numerator * (scale // ev.denominator)
    shifted = [[x * (scale // den) - shift * (i == j) for j, x in enumerate(row)]
               for i, row in enumerate(b)]
    return scale, accumulate(repeat(shifted), _int_product)


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
    # kept on measurement: 0.1 ms against 0.7 ms by charpoly roots on classify_dense's 2 x 2 inputs
    diagonal, b, den = _triangular_diagonal(a), a.zrows, a.zden
    if diagonal is not None:  # the eigenvalues of a are the diagonal over den
        path, roots = "triangular diagonal", Counter(Fraction(y, den) for y in diagonal)
    else:  # the eigenvalues of a are the roots of det(yI - b) over den
        path, roots = "charpoly roots", _rational_roots(_zcharpoly(b), den)
    _debug(__name__, "spectral data of a %d x %d matrix from its %s", n, n, path)
    if sum(roots.values()) < n:
        raise NonRationalSpectrumError("characteristic polynomial does not split over Q")
    if any(ev.numerator <= 0 for ev in roots):
        raise NonRationalSpectrumError("spectrum contains a non-positive rational eigenvalue")
    entries = []
    for ev, mult in sorted(roots.items()):
        if mult == 1:  # a simple eigenvalue has one block of size 1
            entries.append((ev, (1,)))
            continue
        _, powers = _shifted_powers(b, den, ev)  # rank n - mult by the power mult
        ranks = [n, *takewhile(lambda r: r > n - mult, map(rank, islice(powers, mult))), n - mult]
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
    return all(ev.numerator < ev.denominator for ev in spectral_data(a).eigenvalues)


# ---------------------------------------------------------------------------
# similarity
# ---------------------------------------------------------------------------


def _nullspace(rows: list, ncols: int) -> list:
    """Nullspace basis of integer rows, one vector per free column fc of the
    reduced echelon form m / last: last e_fc minus column fc of m, all over
    g = ±gcd(last, free columns of m) with the sign of last."""
    m, pivots, _, last = _eliminate(rows, ncols, reduced=True)
    free = [c for c in range(ncols) if c not in pivots]
    g = gcd(last, *(row[fc] for row in m[: len(pivots)] for fc in free)) * (1 if last > 0 else -1)
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = last // g
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -m[prow][fc] // g
        basis.append(vec)
    return basis


def _jordan_basis(x: MatQ, data: SpectralData) -> tuple[list, int]:
    """(C, D), C integer rows, with B = C / D and B^-1 @ x @ B the Jordan
    matrix of data, x's spectral data: for each eigenvalue ev and each block,
    largest first, the chain N**(k-1) v, ..., N v, v with N = x - ev I, k
    the block size.  One elimination per size k, largest first, on at most
    dim columns, picks as tops the v in ker N**k whose N**(k-1) v are
    independent of the longer chains' bottoms.  N**j v = (L * N)**j v / L**j."""
    columns, b, den = [], x.zrows, x.zden  # (integer column, its denominator)
    for ev, blocks in data.entries:
        scale, powers = _shifted_powers(b, den, ev)
        powers = list(islice(powers, blocks[0]))
        bottoms: list = []  # (L * N)**(k-1) v for the top v of each chain
        for k in sorted(set(blocks), reverse=True):
            kernel = _nullspace(powers[k - 1], x.dim)
            images = kernel if k == 1 else [
                [sum(map(mul, row, v)) for row in powers[k - 2]] for v in kernel]
            known = len(bottoms)
            for col in _eliminate(list(zip(*bottoms, *images)), known + len(images))[1][known:]:
                top = kernel[col - known]
                bottoms.append(images[col - known])
                columns += [([sum(map(mul, row, top)) for row in powers[j - 1]], scale**j)
                            for j in range(k - 1, 0, -1)] + [(top, 1)]
    d = lcm(*(s for _, s in columns))
    return list(zip(*([u * (d // s) for u in v] for v, s in columns))), d


def _similarity(a: MatQ, b: MatQ, data: SpectralData) -> MatQ:
    """B_b @ B_a^-1 for a and b of spectral data data, B = C / D from
    _jordan_basis, verified exactly."""
    basis_a, basis_b = (MatQ._from_integers(*_jordan_basis(x, data)) for x in (a, b))
    p = basis_b @ basis_a.inverse()
    if p @ a != b @ p:
        raise RuntimeError("similarity witness verification failed")
    return p


def conjugate(a: MatQ, b: MatQ) -> MatQ | None:
    """Similarity witness P with P @ a @ P^-1 == b, or None.

    Present iff a and b have equal spectral data; a matrix outside the split
    positive family raises NonRationalSpectrumError.  The witness is
    B_b @ B_a^-1 for Jordan bases of a and b in the same order: deterministic,
    and verified exactly before being returned.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    data = spectral_data(a)
    if data != spectral_data(b):
        return None
    return _similarity(a, b, data)


def power_conjugacy(
    a1: MatQ, a2: MatQ, k1: int, k2: int
) -> tuple[int, int, MatQ] | None:
    """Minimal (n1, n2, P) with k1**n1 == k2**n2 and P @ a1**n1 @ P^-1 == a2**n2.

    Testing only the minimal exponent pair is complete: the eigenvalues are
    positive reals, so j-th roots of the spectra are unique and Jordan block
    structure is stable under powers; hence a1**(j*m) ~ a2**(j*n) already
    forces a1**m ~ a2**n.  For the same reason the spectrum of a power is the
    powered spectrum with unchanged blocks, so the decision runs on the base
    spectra, and the witness builds the Jordan bases of the powered matrices
    from the powered spectrum, with no spectral analysis of its own.
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
    witness = _similarity(mat_power(a1, n1), mat_power(a2, n2), SpectralData(powered1))
    return (n1, n2, witness)
