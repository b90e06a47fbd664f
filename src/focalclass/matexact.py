"""Exact linear algebra over the rationals for contracting actions.

Matrices are immutable arrays of Fractions, and one Gaussian-elimination
kernel serves the determinant, rank, inverse and nullspace.  Spectral
analysis is restricted to characteristic polynomials that split over Q with
positive roots.  Their roots are found exactly and completely by p-adic
lifting; outside that family a typed error is raised, never a float guess.
Similarity is decided by eigenvalue and Jordan block data, and every
similarity witness is verified by exact multiplication before it is returned.

A matrix's spectral data is computed at most once and kept on the matrix
itself, so every caller that asks again reads the stored value.  A matrix
outside the family keeps nothing and raises again on each call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from random import Random
from typing import Optional, Union

from .exactnum import (
    EQUAL,
    NOT_EQUAL,
    LogRatio,
    Undecided,
    _is_prime,
    canonical_value,
    common_power,
    compare_values,
)

__all__ = [
    "MatQ",
    "SpectralData",
    "NonRationalSpectrumError",
    "UndecidedComparisonError",
    "charpoly",
    "mat_power",
    "spectral_data",
    "is_contracting",
    "conjugate",
    "power_conjugacy",
    "one_param_power",
]


class NonRationalSpectrumError(ValueError):
    """The characteristic polynomial does not split over Q with positive roots."""


class UndecidedComparisonError(Exception):
    """An eigenvalue log-ratio comparison could not be certified either way."""

    def __init__(self, detail: Undecided):
        super().__init__(f"comparison undecided: {detail!r}")
        self.detail = detail


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


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
        n = self.dim
        a, b = self.rows, other.rows
        return MatQ(
            [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        )

    def add(self, other: "MatQ") -> "MatQ":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return MatQ([[x + y for x, y in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def sub(self, other: "MatQ") -> "MatQ":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return MatQ([[x - y for x, y in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def scale(self, c) -> "MatQ":
        c = _frac(c)
        return MatQ([[c * x for x in row] for row in self.rows])

    def trace(self) -> Fraction:
        return sum((self.rows[i][i] for i in range(self.dim)), Fraction(0))

    def det(self) -> Fraction:
        """Determinant by Gaussian elimination; empty matrix gives 1."""
        m = [list(row) for row in self.rows]
        pivots, sign = _echelon(m, self.dim)
        if len(pivots) < self.dim:
            return Fraction(0)
        result = Fraction(sign)
        for i in range(self.dim):
            result *= m[i][i]
        return result

    def inverse(self) -> "MatQ":
        n = self.dim
        m = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(self.rows)]
        if len(_echelon(m, n, reduced=True)[0]) < n:
            raise ZeroDivisionError("matrix is singular")
        return MatQ([row[n:] for row in m])


def _echelon(m: list, ncols: int, reduced: bool = False) -> tuple[list, int]:
    """Row-reduce the rows m in place on their first ncols columns.

    Returns the pivot columns and the sign of the row permutation.  Each
    pivot row is subtracted from the rows below it from the pivot column
    rightwards, so columns past ncols (an augmented identity) follow along.
    With reduced, a back-substitution pass then scales every pivot to 1 and
    clears the entries above it, giving the reduced echelon form.
    """
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


def rank(a: MatQ) -> int:
    return len(_echelon([list(row) for row in a.rows], a.dim)[0])


# ---------------------------------------------------------------------------
# univariate polynomials over Q: tuples of Fractions, ascending, no trailing 0
# ---------------------------------------------------------------------------

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
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
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


def charpoly(a: MatQ) -> Poly:
    """Monic characteristic polynomial det(xI - a), Faddeev-LeVerrier."""
    n = a.dim
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = MatQ.identity(n)
    for k in range(1, n + 1):
        am = a @ m
        ck = -am.trace() / k
        coeffs[n - k] = ck
        m = am.add(MatQ.identity(n).scale(ck))
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralData:
    """Distinct eigenvalues with Jordan block multisets, sorted ascending.

    entries[i] = (eigenvalue, blocks) with blocks a descending tuple of block
    sizes; the block sizes over all eigenvalues sum to the dimension.
    """

    entries: tuple

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


def _poly_gcd(p: Poly, q: Poly) -> Poly:
    while q:
        _, r = p_divmod(p, q)
        p, q = q, r
    return p_monic(p)


def _p_derivative(p: Poly) -> Poly:
    return _p_trim([i * c for i, c in enumerate(p)][1:])


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


def _rational_roots(p: Poly) -> dict:
    """Rational roots of the monic polynomial p with their multiplicities."""
    square_free = p_divmod(p, _poly_gcd(p, _p_derivative(p)))[0]
    m = p_deg(square_free)
    denom_lcm = 1
    for c in square_free:
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    # y = denom_lcm * x turns the square-free part into a monic integer
    # polynomial whose rational roots are integers
    f = [(c * denom_lcm ** (m - i)).numerator for i, c in enumerate(square_free)]
    roots: dict[Fraction, int] = {}
    for y in _integer_roots(f):
        root = Fraction(y, denom_lcm)
        quo, rem = p_divmod(p, (-root, Fraction(1)))
        while not rem:
            roots[root] = roots.get(root, 0) + 1
            p = quo
            quo, rem = p_divmod(p, (-root, Fraction(1)))
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
    entries = []
    for ev in sorted(roots):
        mult = roots[ev]
        shifted = a.sub(MatQ.identity(n).scale(ev))
        ranks = [n, rank(shifted)]
        power = shifted
        while ranks[-1] > n - mult:
            power = power @ shifted
            ranks.append(rank(power))
        # d[j] = number of blocks of size >= j; sizes from successive differences
        d = [ranks[j - 1] - ranks[j] for j in range(1, len(ranks))]
        blocks = []
        for j in range(1, len(d) + 1):
            exactly = d[j - 1] - (d[j] if j < len(d) else 0)
            blocks.extend([j] * exactly)
        entries.append((ev, tuple(sorted(blocks, reverse=True))))
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
    m = [list(r) for r in rows]
    pivots, _ = _echelon(m, ncols, reduced=True)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -m[prow][fc]
        basis.append(vec)
    return basis


def _conjugate_assuming(a: MatQ, b: MatQ) -> MatQ:
    """Witness for matrices already known to be similar, exactly verified."""
    if a == b:
        return MatQ.identity(a.dim)
    basis = _intertwiner_space(a, b)
    rng = Random(0)
    for attempt in range(10000):
        bound = 3 + attempt // 50
        coeffs = [rng.randint(-bound, bound) for _ in basis]
        p = MatQ([[Fraction(0)] * a.dim for _ in range(a.dim)])
        for c, mat in zip(coeffs, basis):
            if c:
                p = p.add(mat.scale(c))
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


def one_param_power(a1: MatQ, a2: MatQ) -> Optional[Union[Fraction, LogRatio]]:
    """The t > 0 with a2 conjugate to a1**t inside a1's positive one-parameter
    group, or None when no such t exists.

    t is found by matching the sorted spectra: the bijection must preserve
    Jordan block multisets and scale every eigenvalue log by the same factor.
    t comes back as a Fraction when that factor is certified rational, else
    as a certified LogRatio; an uncertifiable comparison raises.
    """
    if not (is_contracting(a1) and is_contracting(a2)):
        raise ValueError("one_param_power expects contracting matrices")
    if a1.dim != a2.dim:
        return None
    if a1.dim == 0:
        return Fraction(1)
    s1 = spectral_data(a1)
    s2 = spectral_data(a2)
    if len(s1.entries) != len(s2.entries):
        return None
    # eigenvalues sorted ascending; t > 0 scaling preserves that order
    ratios = []
    for (ev1, blocks1), (ev2, blocks2) in zip(s1.entries, s2.entries):
        if blocks1 != blocks2:
            return None
        ratios.append(canonical_value(LogRatio(1 / ev2, 1 / ev1)))
    t = ratios[0]
    for other in ratios[1:]:
        verdict = compare_values(t, other)
        if verdict is NOT_EQUAL:
            return None
        if verdict is not EQUAL:
            raise UndecidedComparisonError(verdict)
    return t
