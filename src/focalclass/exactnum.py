"""Exact integer and rational kernels.

Perfect-power structure of integers and rationals is detected with integer
k-th roots, never by factoring, so the multiplicative machinery keeps
working on inputs far beyond the trial-division range.  Cheap filters come
first: the gcd of the valuations at the primes below 100 bounds the
exponent, and only primes dividing it are tried.  Roots are integer Newton
iterations seeded from a float estimate, and every root found is confirmed
exactly (r**p == n); no float decides anything alone.

The central object is :class:`LogRatio`, the exact value log(a)/log(b)
for rationals a, b > 1, kept as exponents over primitive bases.  Equality
of two such values is decided only when a rigorous certificate exists;
otherwise the comparison is reported as undecided instead of being
guessed from floats.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Union

from mpmath.libmp import from_int, mpf_lt, round_ceiling, round_floor, to_float
from mpmath.libmp.libmpi import mpi_div, mpi_log, mpi_mul, mpi_sub

__all__ = [
    "maxroot",
    "common_power",
    "mult_decompose",
    "LogRatio",
    "canonical_value",
    "EQUAL",
    "NOT_EQUAL",
    "Undecided",
    "compare_values",
    "logratio_add_one",
    "logratio_chain_mul",
    "logratio_scale",
    "as_float",
    "MultiplicativeIndependenceError",
]


_log = logging.getLogger(__name__)


class MultiplicativeIndependenceError(ValueError):
    """Raised when an exact log-ratio operation needs dependent bases and got none."""


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 1 (integer Newton iteration)."""
    if n < 1 or k < 1:
        raise ValueError("iroot needs n >= 1, k >= 1")
    if k == 1 or n.bit_length() <= k:
        return n if k == 1 else 1  # n < 2**k: the root is 1

    def step(x):
        return ((k - 1) * x + n // x ** (k - 1)) // k

    # float seed 2**(log2(n)/k) rounded up in its top ~50 bits.  One step
    # from any x > 0 lands on or above the floor root (AM-GM), and from a
    # seed this close it overshoots by a negligible amount; then descend.
    e = math.log2(n) / k
    s = max(0, int(e) - 50)
    x = step((int(2.0 ** (e - s)) + 1) << s)
    while True:
        y = step(x)
        if y >= x:
            return x
        x = y


def _is_prime(n: int) -> bool:
    """Primality by trial division; callers pass small n."""
    if n < 2 or n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


_SMALL_PRIMES = tuple(p for p in range(100) if _is_prime(p))
_MAX_VALUATION = 8  # a small prime dividing n more often is left out of the filter


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

    Returns (q, e); q == 1 exactly when n == 1.  Detection never factors n.
    The valuations of n at the primes below 100 are counted first (the
    trailing-zero count for 2, at most a few divisions for the others; a
    prime dividing n more often is left out).  e divides their gcd g, so
    g == 1 settles n at once and otherwise only the primes dividing g are
    tried; with no small factor counted, every prime up to the bit length
    is.  Each candidate p gets a float-seeded integer Newton root r that is
    kept only if r**p == q exactly.  After a root the scan resumes at p: a
    smaller prime that failed on q fails on its root too.
    """
    if n < 1:
        raise ValueError(f"maxroot expects n >= 1, got {n}")
    if n == 1:
        return (1, 1)
    g = (n & -n).bit_length() - 1  # the valuation at 2
    for ell in _SMALL_PRIMES[1:]:
        if g == 1:
            break
        m, v = n, 0
        while v <= _MAX_VALUATION and m % ell == 0:
            m, v = m // ell, v + 1
        if 0 < v <= _MAX_VALUATION:  # ell divides n and the count is exact
            g = gcd(g, v)
    q, e = n, 1
    for p in _prime_iter(g or n.bit_length()):
        if p > q.bit_length():
            break
        while (g // e) % p == 0:
            r = _iroot(q, p)
            if r**p != q:
                break
            q, e = r, e * p
    return (q, e)


def common_power(k1: int, k2: int) -> Optional[tuple[int, int]]:
    """Minimal (n1, n2) with k1**n1 == k2**n2, or None.

    A common power exists iff k1 and k2 have the same non-power root.
    """
    if k1 < 2 or k2 < 2:
        raise ValueError("common_power expects k1, k2 >= 2")
    (q1, e1), (q2, e2) = maxroot(k1), maxroot(k2)
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


@dataclass(frozen=True, init=False, repr=False)
class LogRatio:
    """The exact real number (m/n)·log(p)/log(q), written log(p^m)/log(q^n).

    p and q are primitive rationals > 1 (no proper rational power) and m, n
    coprime positive integers, so the value is rational exactly when p == q.
    LogRatio(a, b) is log(a)/log(b) for rationals a, b > 1: each argument is
    decomposed once, here, and the operations below only touch exponents.
    """

    p: Fraction
    m: int
    q: Fraction
    n: int

    def __init__(self, a, b):
        a, b = Fraction(a), Fraction(b)
        if a <= 1 or b <= 1:
            raise ValueError(f"LogRatio needs both arguments > 1, got {a}, {b}")
        self._set(*mult_decompose(a), *mult_decompose(b))

    @classmethod
    def of_powers(cls, p: Fraction, m: int, q: Fraction, n: int) -> "LogRatio":
        """(m/n)·log(p)/log(q) for primitive p, q > 1 and positive m, n."""
        x = object.__new__(cls)
        x._set(p, m, q, n)
        return x

    def _set(self, p, m, q, n):
        g = gcd(m, n)
        for name, value in (("p", p), ("m", m // g), ("q", q), ("n", n // g)):
            object.__setattr__(self, name, value)

    def __repr__(self):
        return f"log({_power(self.p, self.m)})/log({_power(self.q, self.n)})"


def _power(base: Fraction, e: int) -> str:
    # ^ applies to the whole rational: 10/3^2 is (10/3)**2
    return str(base) if e == 1 else f"{base}^{e}"


Value = Union[Fraction, LogRatio]


def canonical_value(x: Union[LogRatio, Fraction, int]) -> Value:
    """Canonical form of an exact value: a Fraction when the value is
    rational, otherwise the LogRatio itself, already in normal form.

    Two log-ratios built from multiplicatively dependent pairs have the same
    normal form, so structural equality decides those comparisons.
    """
    if isinstance(x, LogRatio):
        return Fraction(x.m, x.n) if x.p == x.q else x
    return Fraction(x)


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


def _ratio_interval(x: LogRatio, prec: int) -> tuple:
    """Enclosure (lower, upper) of x as raw mpmath floats, from mpmath's
    interval primitives at prec bits."""

    def enclose(k: int):
        return (from_int(k, prec, round_floor), from_int(k, prec, round_ceiling))

    def log(q: Fraction):
        return mpi_sub(
            mpi_log(enclose(q.numerator), prec), mpi_log(enclose(q.denominator), prec), prec
        )

    return mpi_div(
        mpi_mul(enclose(x.m), log(x.p), prec), mpi_mul(enclose(x.n), log(x.q), prec), prec
    )


def _operand_bits(*values: LogRatio) -> int:
    bits = 0
    for v in values:
        for q in (v.p, v.q):
            bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    return bits


def _interval_compare(x: LogRatio, y: LogRatio, prec: Optional[int] = None) -> Comparison:
    """NotEqual when rigorous enclosures are disjoint, else Undecided.

    The working precision is prec (default 256) bits plus the largest bit
    length among the numerators and denominators of the four primitive
    bases; the exponents m and n do not enter it.  The enclosures come from
    mpmath's interval primitives at that precision, with no context object.
    """
    bits = (prec if prec is not None else _INTERVAL_PREC) + _operand_bits(x, y)
    (xa, xb), (ya, yb) = _ratio_interval(x, bits), _ratio_interval(y, bits)
    if mpf_lt(xb, ya) or mpf_lt(yb, xa):
        return NOT_EQUAL
    xa, xb, ya, yb = map(to_float, (xa, xb, ya, yb))
    return Undecided((xa + xb) / 2, (ya + yb) / 2, max(xb - xa, yb - ya))


def compare_values(x: Value, y: Value) -> Comparison:
    """Three-valued equality of two exact values (Fractions and LogRatios).

    EQUAL and NOT_EQUAL are only ever returned with a rigorous certificate:
    matching canonical forms, a rational-vs-irrational mismatch (irrational
    is certified by multiplicative independence of primitive bases), or
    disjoint interval enclosures.  Everything else is Undecided.  At DEBUG
    the focalclass.exactnum logger gets one line naming the deciding rung.
    """
    cx, cy = canonical_value(x), canonical_value(y)
    if cx == cy:
        verdict, rung = EQUAL, "canonical match"
    elif isinstance(cx, Fraction) and isinstance(cy, Fraction):
        verdict, rung = NOT_EQUAL, "canonical mismatch of two rationals"
    elif isinstance(cx, Fraction) or isinstance(cy, Fraction):
        # one value rational, the other certified irrational
        verdict, rung = NOT_EQUAL, "rational against irrational"
    else:
        verdict = _interval_compare(cx, cy)
        rung = "disjoint enclosures" if verdict is NOT_EQUAL else "undecided"
        rung += f" at {_INTERVAL_PREC + _operand_bits(cx, cy)} bits"
    _log.debug("compare %s with %s: %s by %s", cx, cy, verdict, rung)
    return verdict


def logratio_add_one(x: LogRatio) -> LogRatio:
    """1 + log(p^m)/log(q^n) == log(p^m * q^n)/log(q^n), exactly."""
    return LogRatio.of_powers(*mult_decompose(x.p**x.m * x.q**x.n), x.q, x.n)


def logratio_chain_mul(x: LogRatio, y: LogRatio) -> LogRatio:
    """Exact product (log a/log b) * (log b'/log c) when b, b' are dependent.

    Dependent inner bases have the same primitive base, so the product only
    multiplies exponents.  Independent inner bases make the product
    unrepresentable here and raise.
    """
    if x.q != y.p:
        raise MultiplicativeIndependenceError(
            f"inner bases {x.q} and {y.p} are multiplicatively independent"
        )
    return LogRatio.of_powers(x.p, x.m * y.m, y.q, x.n * y.n)


def logratio_scale(x: LogRatio, r: Fraction) -> LogRatio:
    """r * x for rational r > 0: the exponents take r's numerator and denominator."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("scale factor must be positive")
    return LogRatio.of_powers(x.p, x.m * r.numerator, x.q, x.n * r.denominator)


def as_float(x: Union[Value, int, float]) -> float:
    """64-bit float evaluation, for reporting and cross-checks only."""
    if isinstance(x, LogRatio):
        return x.m * _log_frac(x.p) / (x.n * _log_frac(x.q))
    if isinstance(x, Fraction):
        return x.numerator / x.denominator
    return float(x)


def _log_frac(q: Fraction) -> float:
    return math.log(q.numerator) - math.log(q.denominator)
