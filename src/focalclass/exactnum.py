"""Exact integer and rational kernels.

Perfect-power structure of integers and rationals is detected with integer
k-th roots, never by factoring, so the multiplicative machinery keeps
working on inputs far beyond the trial-division range.  Cheap filters come
first: the gcd of the valuations at the primes below 100 bounds the
exponent, and only primes dividing it are tried; with none dividing n, a
root is at least 101, so no exponent above a sixth of the bit length is.
A root below 2**40 is the rounded float root; a larger one is an integer
Newton iteration seeded from a float estimate.  Every root found is
confirmed exactly (r**p == n); no float decides anything alone.

The central object is :class:`LogRatio`, the exact value log(a)/log(b)
for rationals a, b > 1, kept as exponents over primitive bases found and
compared on integers.  Equality of two such values is decided only when a
rigorous certificate exists, a value against itself at once; otherwise the
comparison is reported as undecided instead of being guessed from floats.
Two irrational values with one primitive base in the same place are, by
unique factorisation, unequal unless their normal forms match: that rung
computes no log.  The last certificate, disjoint interval enclosures, is
computed on Python ints with mpmath's directed-rounding rules.  A LogRatio
keeps the enclosure of its last such comparison, at that comparison's
precision, so comparing it again at that precision computes no log;
nothing else here is kept between calls.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from math import gcd
from operator import attrgetter

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


def _debug(name: str, msg: str, *args) -> None:
    """Log msg % args at DEBUG on the logger `name` when logging is loaded.
    A program that configured logging has imported it; in one that has not,
    no handler would print the line, and the import would cost start-up."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(name).debug(msg, *args)


class MultiplicativeIndependenceError(ValueError):
    """Raised when an exact log-ratio operation needs dependent bases and got none."""


class Record:
    """Immutable value with annotated fields, the base of the package's records.

    A subclass annotates its fields in order; a class attribute gives a
    default.  A field whose name starts with "_" is a cache: no argument
    sets it, its class attribute reads until object.__setattr__ fills it,
    and ==, hash and repr ignore it.  Instances of one class are equal when
    their field tuples are, and never equal an instance of another class;
    hash and repr are those of a frozen dataclass.  The one generated
    method is __init__, compiled once per class, so that construction,
    its TypeErrors and its optional __post_init__ check are a dataclass's,
    at about a tenth of the import time of a dataclass decoration.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = names = tuple(n for n in cls.__annotations__ if not n.startswith("_"))
        # the field tuple; attrgetter of one name would give the bare value
        cls._key = staticmethod(attrgetter(*names) if len(names) > 1
                                else lambda x: (getattr(x, names[0]),) if names else ())
        if "__init__" not in vars(cls):
            params = "".join(f", {n}=_d[{n!r}]" if n in vars(cls) else f", {n}" for n in names)
            body = "".join(f"\n _set(self, {n!r}, {n})" for n in names)
            post = "\n self.__post_init__()" if hasattr(cls, "__post_init__") else ""
            scope = {"_set": object.__setattr__, "_d": vars(cls)}
            exec(f"def __init__(self{params}):{body}{post}\n pass", scope)  # Cantor has no field
            cls.__init__ = scope["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


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
_MOD = 1 << 64  # r**p mod _MOD screens a candidate root before r**p is built


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
    tried; counting stops once they make up n.  With no small factor
    counted, every prime up to the bit length is tried, or up to a sixth of
    it when no prime below 100 divides n: a root is then at least 101, and
    log2(101) > 6.65 (Bernstein 1998).  A candidate p whose root would be
    below 2**40 (q below 2**(40p)) gets r = round(2**(log2 q / p)):
    math.log2 of an int is good to about 2**-52 relative, so the float is
    within 2**40·(40·2**-51·ln 2 + 2**-52), about 2**-6, of an exact root,
    and rounding finds it.  A larger root is a float-seeded integer Newton
    root.  r is kept only if r**p == q exactly, after a screen by r**p mod
    2**64.  After a root the scan resumes at p: a smaller prime that failed
    on q fails on its root too.
    """
    if n < 1:
        raise ValueError(f"maxroot expects n >= 1, got {n}")
    if n == 1:
        return (1, 1)
    g = (n & -n).bit_length() - 1  # the valuation at 2
    c = n >> g  # n over the small prime powers divided out so far
    for ell in _SMALL_PRIMES[1:]:
        if g == 1 or c == 1:
            break
        v = 0
        while v <= _MAX_VALUATION and c % ell == 0:
            c, v = c // ell, v + 1
        if 0 < v <= _MAX_VALUATION:  # ell divides n and the count is exact
            g = gcd(g, v)
    q, e = n, 1
    for p in _prime_iter(g or n.bit_length() // (6 if c == n else 1)):
        if p > q.bit_length():
            break
        while (g // e) % p == 0:
            r = round(2.0 ** (math.log2(q) / p)) if q.bit_length() <= 40 * p else _iroot(q, p)
            if pow(r, p, _MOD) != q % _MOD or r**p != q:
                break
            q, e = r, e * p
    return (q, e)


def common_power(k1: int, k2: int) -> tuple[int, int] | None:
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
    return _decompose(x.numerator, x.denominator)


def _decompose(num: int, den: int) -> tuple[Fraction, int]:
    """mult_decompose of num / den on the integers, with no Fraction compared."""
    if num <= 0 or den <= 0 or num == den:
        raise ValueError(f"mult_decompose needs x > 0, x != 1, got {Fraction(num, den)}")
    g = gcd(num, den)
    (qn, en), (qd, ed) = (maxroot(k // g) if k > g else (1, 0) for k in (num, den))
    e = gcd(en, ed)
    top, bottom = qn ** (en // e), qd ** (ed // e)
    return (Fraction(top, bottom), e) if num > den else (Fraction(bottom, top), -e)


class LogRatio(Record):
    """The exact real number (m/n)·log(p)/log(q), written log(p^m)/log(q^n).

    p and q are primitive rationals > 1 (no proper rational power) and m, n
    coprime positive integers, so the value is rational exactly when p == q.
    LogRatio(a, b) is log(a)/log(b) for rationals a, b > 1: each argument is
    decomposed once, here, and the operations below only touch exponents.
    The _enclosure slot keeps (P, enclosure at P bits) from the last interval
    comparison; equality, hashing and repr ignore it.
    """

    p: Fraction
    m: int
    q: Fraction
    n: int
    _enclosure: tuple | None = None

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


Value = Fraction | LogRatio


def canonical_value(x: LogRatio | Fraction | int) -> Value:
    """Canonical form of an exact value: a Fraction when the value is
    rational, otherwise the LogRatio itself, already in normal form.

    Two log-ratios built from multiplicatively dependent pairs have the same
    normal form, so structural equality decides those comparisons; P == Q
    is tested on integers.
    """
    if isinstance(x, LogRatio):
        return Fraction(x.m, x.n) if x.p.as_integer_ratio() == x.q.as_integer_ratio() else x
    return x if isinstance(x, Fraction) else Fraction(x)


class _Certainty(Record):
    """Singleton comparison outcomes; identity comparison is intended."""

    name: str

    def __repr__(self):
        return self.name

    def __bool__(self):
        return self is EQUAL


EQUAL = _Certainty("EQUAL")
NOT_EQUAL = _Certainty("NOT_EQUAL")


class Undecided(Record):
    """Comparison that no available certificate settles.

    Carries the interval midpoints of both values and the worst enclosure
    width, so a caller can report how close the call was.
    """

    estimate_x: float
    estimate_y: float
    width: float

    def __bool__(self):
        return False


Comparison = _Certainty | Undecided

_INTERVAL_PREC = 256  # dyadic refinement depth for the NotEqual certificate
_GUARD = 64  # fixed-point bits of the log kernel beyond the working precision


def _round(man: int, exp: int, prec: int, up: bool = False) -> tuple[int, int]:
    """The dyadic man·2^exp, man >= 0, rounded down (or up) to prec significant bits."""
    shift = man.bit_length() - prec
    if shift <= 0:
        return man, exp
    return (-(-man >> shift) if up else man >> shift), exp + shift


def _diff(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The exact difference a - b of two dyadics (man, exp)."""
    e = min(a[1], b[1])
    return (a[0] << a[1] - e) - (b[0] << b[1] - e), e


def _ln_fixed(r: int, w: int) -> tuple[int, int]:
    """(L, E) with |L - 2^w·ln(r/2^w)| <= E, for 1/√2 <= r/2^w <= 2.

    k truncated square roots leave y within 2^-k·ln 2 of 1 in log and less than
    3 units of 2^-w low.  Then ln y = 2·atanh(z), z = (y-1)/(y+1) less than 3
    units off, is summed as Σ z^(2i+1)/(2i+1), each of the N terms less than 2
    units off and the tail below 2: E = 2^(k+1)·(2N + 7) (Brent and
    Zimmermann, Modern Computer Arithmetic, §4.4).
    """
    # k >= 2 as w > 64; the cap keeps E below 2^34 up to w = 3·10^5 bits
    k, one = min(math.isqrt(w) // 4, 16), 1 << w
    if r == one:
        return 0, 0
    for _ in range(k):
        r = math.isqrt(r << w)
    z = ((r - one) << w) // (r + one)
    z2, t, s, j = z * z >> w, abs(z), 0, 1
    while t:
        s, t, j = s + t // j, t * z2 >> w, j + 2
    return (s if z >= 0 else -s) << (k + 1), (j + 6) << (k + 1)


def _logs(prec: int):
    """log(d, up): ln d rounded down (or up) to prec bits, for dyadic integers
    d = (man, exp) with man <= 2^prec, each d computed once.  The two ends of
    e·ln 2 + ln(d/2^e) ± E, d/2^e in [1/√2, √2), come from _ln_fixed at _GUARD
    more bits; they are the correctly rounded ones unless ln d is within E of
    a multiple of the unit, a chance below 2^-30 for prec up to 10^5, and
    outward even then.
    """
    w, memo = prec + _GUARD, {(1, 0): ((0, 0), (0, 0))}
    l2, e2 = _ln_fixed(2 << w, w)

    def log(d: tuple[int, int], up: bool = False) -> tuple[int, int]:
        if d not in memo:
            man, exp = d
            b = man.bit_length()
            e = b + exp - (man * man < 1 << 2 * b - 1)
            lr, er = _ln_fixed(man << w + exp - e, w)
            memo[d] = [_round(e * l2 + lr + s * (e * e2 + er), -w, prec, s > 0) for s in (-1, 1)]
        return memo[d][up]

    return log


def _ratio_interval(x: LogRatio, prec: int, log=None) -> tuple | None:
    """Enclosure (lower, upper) of x as dyadics (man, exp) by mpmath's libmpi
    rules on positive operands at prec bits: outward rounding of each integer,
    log, sub, mul and div, the last three computed exactly first.  None if the
    enclosure of log p or log q is not positive, as at a precision of a few bits."""
    log = log or _logs(prec)

    def enclose(k: int):
        return _round(k, 0, prec), _round(k, 0, prec, True)

    def ln(q: Fraction):
        (nlo, nhi), (dlo, dhi) = enclose(q.numerator), enclose(q.denominator)
        lo, hi = _diff(log(nlo), log(dhi, True)), _diff(log(nhi, True), log(dlo))
        return lo[0] > 0 and (_round(*lo, prec), _round(*hi, prec, True))

    def mul(a, b, up=False):
        return _round(a[0] * b[0], a[1] + b[1], prec, up)

    def div(a, b, up=False):
        s = max(0, prec + 1 + b[0].bit_length() - a[0].bit_length())
        q = -(-(a[0] << s) // b[0]) if up else (a[0] << s) // b[0]
        return _round(q, a[1] - b[1] - s, prec, up)

    lp, lq = ln(x.p), ln(x.q)
    if not (lp and lq):
        return None
    (mlo, mhi), (nlo, nhi) = enclose(x.m), enclose(x.n)
    return (div(mul(mlo, lp[0]), mul(nhi, lq[1], True)),
            div(mul(mhi, lp[1], True), mul(nlo, lq[0]), True))


def _to_float(d: tuple[int, int]) -> float:
    """The dyadic d truncated to a float, as mpmath's to_float does by default."""
    man, exp = _round(*d, 53)
    return math.ldexp(man, exp) if exp + man.bit_length() <= 1024 else math.inf


def _working_precision(x: LogRatio, y: LogRatio, prec: int | None = None) -> int:
    """The precision of an interval comparison of x and y: prec (default 256)
    bits plus the largest bit length among the numerators and denominators
    of the four primitive bases; the exponents m and n do not enter it."""
    bits = max(b for v in (x, y) for q in (v.p, v.q)
               for b in (q.numerator.bit_length(), q.denominator.bit_length()))
    return (prec if prec is not None else _INTERVAL_PREC) + bits


def _interval_compare(x: LogRatio, y: LogRatio, prec: int | None = None) -> Comparison:
    """NotEqual when rigorous enclosures are disjoint, else Undecided.

    The enclosures are _ratio_interval's at _working_precision(x, y, prec),
    on Python ints, with the logs of one call computed once; a missing one
    counts as (-inf, inf).  Each value keeps its enclosure in _enclosure, so
    a later call at the same precision reuses it and computes no log.
    """
    bits, log = _working_precision(x, y, prec), None
    for v in (x, y):
        if v._enclosure is None or v._enclosure[0] != bits:
            log = log or _logs(bits)
            object.__setattr__(v, "_enclosure", (bits, _ratio_interval(v, bits, log)))
    ex, ey = x._enclosure[1], y._enclosure[1]
    if ex and ey and (_diff(ey[0], ex[1])[0] > 0 or _diff(ex[0], ey[1])[0] > 0):
        return NOT_EQUAL
    (xa, xb), (ya, yb) = (map(_to_float, e) if e else (-math.inf, math.inf) for e in (ex, ey))
    return Undecided((xa + xb) / 2, (ya + yb) / 2, max(xb - xa, yb - ya))


def compare_values(x: Value, y: Value) -> Comparison:
    """Three-valued equality of two exact values (Fractions and LogRatios).

    EQUAL and NOT_EQUAL are only ever returned with a rigorous certificate:
    matching canonical forms, a rational-vs-irrational mismatch (irrational
    is certified by multiplicative independence of primitive bases), a base
    shared in place, or disjoint interval enclosures, x against itself at
    once.  Everything else is Undecided.  At DEBUG the focalclass.exactnum
    logger gets one line naming the deciding rung.

    Shared base: with q shared, (m1/n1)·log p1/log q = (m2/n2)·log p2/log q
    exactly when p1^(m1·n2) = p2^(m2·n1).  A rational > 1 is a power of
    exactly one primitive rational, with exactly one exponent, so equality
    forces p1 = p2 and (m1, n1) = (m2, n2): matching normal forms, already
    ruled out.  With p shared the same argument runs on q1 and q2.
    """
    cx = canonical_value(x)
    cy = cx if y is x else canonical_value(y)
    if cy is cx or cx == cy:
        verdict, rung = EQUAL, "canonical match"
    elif isinstance(cx, Fraction) and isinstance(cy, Fraction):
        verdict, rung = NOT_EQUAL, "canonical mismatch of two rationals"
    elif isinstance(cx, Fraction) or isinstance(cy, Fraction):
        # one value rational, the other certified irrational
        verdict, rung = NOT_EQUAL, "rational against irrational"
    elif (cx.p.as_integer_ratio() == cy.p.as_integer_ratio()
          or cx.q.as_integer_ratio() == cy.q.as_integer_ratio()):
        verdict, rung = NOT_EQUAL, "shared base"
    else:
        verdict = _interval_compare(cx, cy)
        rung = "disjoint enclosures" if verdict is NOT_EQUAL else "undecided"
        rung += f" at {_working_precision(cx, cy)} bits"
    _debug(__name__, "compare %s with %s: %s by %s", cx, cy, verdict, rung)
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


def as_float(x: Value | int | float) -> float:
    """64-bit float evaluation, for reporting and cross-checks only."""
    if isinstance(x, LogRatio):
        return x.m * _log_frac(x.p) / (x.n * _log_frac(x.q))
    if isinstance(x, Fraction):
        return x.numerator / x.denominator
    return float(x)


def _log_frac(q: Fraction) -> float:
    return math.log(q.numerator) - math.log(q.denominator)
