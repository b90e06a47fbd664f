"""Exact integer and rational kernels.

Everything in here is factorization-light on purpose: perfect-power
structure of integers and rationals is detected with integer k-th roots,
so the multiplicative machinery keeps working on inputs far beyond the
trial-division range (only ``factorize`` itself insists on small inputs).

The central object is :class:`LogRatio`, the exact value log(a)/log(b)
for rationals a, b > 1.  Equality of two such values is decided only when
a rigorous certificate exists; otherwise the comparison is reported as
undecided instead of being guessed from floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Union

from mpmath.ctx_iv import MPIntervalContext

__all__ = [
    "factorize",
    "maxroot",
    "common_power",
    "mult_decompose",
    "mult_dependent",
    "LogRatio",
    "LogRatioSum",
    "canonical_value",
    "EQUAL",
    "NOT_EQUAL",
    "Undecided",
    "logratio_eq",
    "compare_values",
    "logratio_add_one",
    "logratio_chain_mul",
    "logratio_scale",
    "logratio_add",
    "as_float",
    "MultiplicativeIndependenceError",
]

# Trial division stays safe well below this; descriptor constants are tiny.
_FACTORIZE_LIMIT = 1 << 63


class MultiplicativeIndependenceError(ValueError):
    """Raised when an exact log-ratio operation needs dependent bases and got none."""


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}, primes increasing.

    Trial division with a 2-3-5 wheel.  Inputs are structural constants of
    descriptors, not cryptographic numbers, so n is capped at 2**63.
    """
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    if n >= _FACTORIZE_LIMIT:
        raise ValueError(f"factorize input too large for trial division: {n}")
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    # wheel mod 30: offsets of residues coprime to 30
    offsets = (4, 2, 4, 2, 4, 6, 2, 6)
    p, i = 7, 0
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += offsets[i]
        i = (i + 1) % 8
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return dict(sorted(factors.items()))


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 1 (integer Newton iteration)."""
    if n < 1 or k < 1:
        raise ValueError("iroot needs n >= 1, k >= 1")
    if k == 1 or n == 1:
        return n if k == 1 else 1
    x = 1 << (-(-n.bit_length() // k))  # upper bound: 2^ceil(bits/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _is_prime(n: int) -> bool:
    """Primality by trial division; callers pass small n."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def _prime_iter(limit: int):
    """Primes up to limit; limit stays tiny (bit length of an exponent)."""
    for p in _SMALL_PRIMES:
        if p > limit:
            return
        yield p
    p = _SMALL_PRIMES[-1] + 2
    while p <= limit:
        if _is_prime(p):
            yield p
        p += 2


def maxroot(n: int) -> tuple[int, int]:
    """Write n >= 1 as q**e with q a non-power integer and e maximal.

    Returns (q, e); q == 1 exactly when n == 1.  Detection is by integer
    k-th roots, so arbitrarily large n are fine.
    """
    if n < 1:
        raise ValueError(f"maxroot expects n >= 1, got {n}")
    if n == 1:
        return (1, 1)
    q, e = n, 1
    changed = True
    while changed:
        changed = False
        for p in _prime_iter(q.bit_length()):
            r = _iroot(q, p)
            if r**p == q:
                q, e = r, e * p
                changed = True
                break
    return (q, e)


def common_power(k1: int, k2: int) -> Optional[tuple[int, int]]:
    """Minimal (n1, n2) with k1**n1 == k2**n2, or None.

    A common power exists iff k1 and k2 have the same non-power root.
    """
    if k1 < 2 or k2 < 2:
        raise ValueError("common_power expects k1, k2 >= 2")
    q1, e1 = maxroot(k1)
    q2, e2 = maxroot(k2)
    if q1 != q2:
        return None
    g = gcd(e1, e2)
    return (e2 // g, e1 // g)


def mult_decompose(x: Fraction) -> tuple[Fraction, int]:
    """Write a positive rational x != 1 as base**exp with base > 1 primitive.

    Primitive means base is not a proper rational power, i.e. the gcd of its
    prime exponent vector is 1 (detected without factoring).  exp < 0 when
    x < 1, so the decomposition is unique.
    """
    if x <= 0 or x == 1:
        raise ValueError(f"mult_decompose needs x > 0, x != 1, got {x}")
    if x < 1:
        base, e = mult_decompose(1 / x)
        return base, -e
    num, den = x.numerator, x.denominator
    qn, en = maxroot(num)
    if den == 1:
        return Fraction(qn), en
    qd, ed = maxroot(den)
    g = gcd(en, ed)
    return Fraction(qn ** (en // g), qd ** (ed // g)), g


def mult_dependent(a: Fraction, b: Fraction) -> Optional[tuple[int, int]]:
    """Coprime nonzero (m, n) with a**m == b**n and n > 0, or None.

    Exists iff the prime exponent vectors of a and b are parallel; a and b
    must be positive and different from 1.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 1 or b == 1:
        raise ValueError("mult_dependent is undefined for base 1")
    if a <= 0 or b <= 0:
        raise ValueError("mult_dependent expects positive rationals")
    base_a, ea = mult_decompose(a)
    base_b, eb = mult_decompose(b)
    if base_a != base_b:
        return None
    # a^m = b^n  <=>  ea*m = eb*n; minimal coprime solution, sign fixed by n > 0
    g = gcd(ea, eb)
    m, n = eb // g, ea // g
    if n < 0:
        m, n = -m, -n
    return (m, n)


@dataclass(frozen=True)
class LogRatio:
    """The exact real number log(a)/log(b) for rationals a, b > 1."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.a <= 1 or self.b <= 1:
            raise ValueError(f"LogRatio needs both arguments > 1, got {self.a}, {self.b}")

    def __repr__(self):
        return f"log({self.a})/log({self.b})"


@dataclass(frozen=True)
class LogRatioSum:
    """Unevaluated sum of two log-ratios (bases multiplicatively independent)."""

    left: LogRatio
    right: LogRatio

    def __repr__(self):
        return f"{self.left!r} + {self.right!r}"


Value = Union[Fraction, LogRatio, LogRatioSum]


def canonical_value(x: Union[LogRatio, Fraction, int]) -> Union[Fraction, LogRatio]:
    """Canonical form of a log-ratio: a Fraction when the value is rational,
    otherwise a LogRatio on primitive bases with coprime exponents.

    Two log-ratios built from multiplicatively dependent pairs canonicalize
    to equal objects, so structural equality decides those comparisons.
    """
    if isinstance(x, (Fraction, int)):
        return Fraction(x)
    base_a, ea = mult_decompose(x.a)  # ea, eb >= 1 since a, b > 1
    base_b, eb = mult_decompose(x.b)
    if base_a == base_b:
        return Fraction(ea, eb)
    g = gcd(ea, eb)
    return LogRatio(base_a ** (ea // g), base_b ** (eb // g))


class _Certainty:
    """Singleton comparison outcomes; identity comparison is intended."""

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name

    def __bool__(self):
        return self is EQUAL


EQUAL = _Certainty("EQUAL")
NOT_EQUAL = _Certainty("NOT_EQUAL")


@dataclass(frozen=True)
class Undecided:
    """Comparison that no available certificate settles.

    Carries the interval midpoints of both values and the worst enclosure
    width, so a caller can report how close the call was.
    """

    estimate_x: float
    estimate_y: float
    width: float

    def __bool__(self):
        return False


Comparison = Union[_Certainty, Undecided]

_INTERVAL_PREC = 256  # dyadic refinement depth for the NotEqual certificate


def _ratio_interval(x: LogRatio, ctx: MPIntervalContext):
    la = ctx.log(ctx.mpf(x.a.numerator)) - ctx.log(ctx.mpf(x.a.denominator))
    lb = ctx.log(ctx.mpf(x.b.numerator)) - ctx.log(ctx.mpf(x.b.denominator))
    return la / lb


def _operand_bits(*values: LogRatio) -> int:
    bits = 0
    for v in values:
        for q in (v.a, v.b):
            bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    return bits


def _interval_compare(x: LogRatio, y: LogRatio, prec: Optional[int] = None) -> Comparison:
    """NotEqual when rigorous enclosures are disjoint, else Undecided."""
    ctx = MPIntervalContext()
    ctx.prec = (prec if prec is not None else _INTERVAL_PREC) + _operand_bits(x, y)
    ix = _ratio_interval(x, ctx)
    iy = _ratio_interval(y, ctx)
    if ix.b < iy.a or iy.b < ix.a:
        return NOT_EQUAL
    width = max(float(ix.b) - float(ix.a), float(iy.b) - float(iy.a))
    mid_x = (float(ix.a) + float(ix.b)) / 2
    mid_y = (float(iy.a) + float(iy.b)) / 2
    return Undecided(mid_x, mid_y, width)


def logratio_eq(x: LogRatio, y: LogRatio) -> Comparison:
    """Three-valued equality of two log-ratios.

    EQUAL and NOT_EQUAL are only ever returned with a rigorous certificate:
    matching canonical forms, a rational-vs-irrational mismatch (irrational
    is certified by multiplicative independence of primitive bases), or
    disjoint interval enclosures.  Everything else is Undecided.
    """
    cx = canonical_value(x)
    cy = canonical_value(y)
    if isinstance(cx, Fraction) and isinstance(cy, Fraction):
        return EQUAL if cx == cy else NOT_EQUAL
    if isinstance(cx, Fraction) or isinstance(cy, Fraction):
        # one value rational, the other certified irrational
        return NOT_EQUAL
    if cx == cy:
        return EQUAL
    return _interval_compare(cx, cy)


def compare_values(x: Value, y: Value) -> Comparison:
    """logratio_eq lifted to canonical values (Fractions, LogRatios, sums)."""
    if isinstance(x, LogRatioSum) or isinstance(y, LogRatioSum):
        if isinstance(x, LogRatioSum) and isinstance(y, LogRatioSum):
            first = compare_values(x.left, y.left)
            second = compare_values(x.right, y.right)
            if first is EQUAL and second is EQUAL:
                return EQUAL
        # no exact certificate across an unevaluated sum
        return Undecided(as_float(x), as_float(y), math.inf)
    cx = canonical_value(x) if isinstance(x, LogRatio) else Fraction(x)
    cy = canonical_value(y) if isinstance(y, LogRatio) else Fraction(y)
    if isinstance(cx, Fraction) and isinstance(cy, Fraction):
        return EQUAL if cx == cy else NOT_EQUAL
    if isinstance(cx, Fraction) or isinstance(cy, Fraction):
        return NOT_EQUAL
    if cx == cy:
        return EQUAL
    return _interval_compare(cx, cy)


def logratio_add_one(x: LogRatio) -> LogRatio:
    """1 + log(a)/log(b) == log(a*b)/log(b), exactly."""
    return LogRatio(x.a * x.b, x.b)


def logratio_chain_mul(x: LogRatio, y: LogRatio) -> LogRatio:
    """Exact product (log a/log b) * (log b'/log c) when b, b' are dependent.

    With b**m == b'**n the product equals log(a**m)/log(c**n).  Independent
    inner bases make the product unrepresentable here and raise.
    """
    dep = mult_dependent(x.b, y.a)
    if dep is None:
        raise MultiplicativeIndependenceError(
            f"inner bases {x.b} and {y.a} are multiplicatively independent"
        )
    m, n = dep  # x.b**m == y.a**n, both > 1 so m, n > 0
    return LogRatio(x.a**m, y.b**n)


def logratio_scale(x: LogRatio, r: Fraction) -> LogRatio:
    """r * (log a/log b) for rational r > 0, as log(a**p)/log(b**q)."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("scale factor must be positive")
    return LogRatio(x.a**r.numerator, x.b**r.denominator)


def logratio_add(x: LogRatio, y: LogRatio) -> Union[LogRatio, LogRatioSum]:
    """Exact sum of two log-ratios when the bases are dependent.

    With b1**m == b2**n both terms rewrite over the common base b1**m, and
    the sum is log(a1**m * a2**n)/log(b1**m).  Otherwise the sum is kept
    unevaluated rather than approximated.
    """
    dep = mult_dependent(x.b, y.b)
    if dep is None:
        return LogRatioSum(x, y)
    m, n = dep
    return LogRatio(x.a**m * y.a**n, x.b**m)


def as_float(x: Union[Value, int, float]) -> float:
    """64-bit float evaluation, for reporting and cross-checks only."""
    if isinstance(x, LogRatioSum):
        return as_float(x.left) + as_float(x.right)
    if isinstance(x, LogRatio):
        return _log_frac(x.a) / _log_frac(x.b)
    if isinstance(x, Fraction):
        return x.numerator / x.denominator
    return float(x)


def _log_frac(q: Fraction) -> float:
    return math.log(q.numerator) - math.log(q.denominator)
