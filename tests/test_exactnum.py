"""Unit tests for the exact integer/rational kernels."""

import logging
import math
import re
from fractions import Fraction as F
from random import Random

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import from_int, round_ceiling, round_floor, to_rational
from mpmath.libmp.libmpi import mpi_div, mpi_log, mpi_mul, mpi_pos, mpi_sub

from focalclass.exactnum import (
    EQUAL,
    NOT_EQUAL,
    LogRatio,
    MultiplicativeIndependenceError,
    Undecided,
    as_float,
    canonical_value,
    common_power,
    compare_values,
    logratio_add_one,
    logratio_chain_mul,
    logratio_scale,
    maxroot,
    mult_decompose,
)
from focalclass import exactnum
from focalclass.exactnum import (
    _INTERVAL_PREC,
    _interval_compare,
    _is_prime as exactnum_is_prime,
    _ln_fixed,
    _logs,
    _prime_iter,
    _ratio_interval,
    _round,
    _working_precision,
)


def sieve(n):
    """Primes up to n by the sieve of Eratosthenes."""
    flags = [False, False] + [True] * (n - 1)
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = [False] * len(flags[p * p :: p])
    return [p for p in range(n + 1) if flags[p]]


def test_prime_iter_matches_sieve():
    primes = sieve(6000)
    limits = list(range(130)) + [4488, 4489, 4757, 4891, 5000, 6000]
    for n in limits:
        assert list(_prime_iter(n)) == [p for p in primes if p <= n], n
    assert [n for n in range(-2, 6001) if exactnum_is_prime(n)] == primes


# ---------------------------------------------------------------------------
# maxroot / common_power
# ---------------------------------------------------------------------------


def brute_maxroot(n):
    """Independent oracle: largest e with an exact e-th root, found by search."""
    if n == 1:
        return (1, 1)
    for e in range(n.bit_length(), 0, -1):
        b = round(n ** (1.0 / e))
        for cand in (b - 1, b, b + 1):
            if cand >= 2 and cand**e == n:
                return (cand, e)
    raise AssertionError("unreachable")


def test_maxroot_examples():
    assert maxroot(10) == (10, 1)
    assert maxroot(1) == (1, 1)
    assert maxroot(64) == (2, 6)


def test_maxroot_against_oracle_range():
    for n in range(1, 10_000):
        q, e = maxroot(n)
        assert q**e == n
        assert maxroot(q) == (q, 1)
        assert (q, e) == brute_maxroot(n)


@given(st.integers(min_value=2, max_value=10**9))
@settings(max_examples=300, deadline=None)
def test_maxroot_properties(n):
    q, e = maxroot(n)
    assert q**e == n
    assert maxroot(q) == (q, 1)


def test_maxroot_handles_huge_powers():
    assert maxroot(10**80) == (10, 80)
    assert maxroot(7**31) == (7, 31)


# The earlier maxroot and _iroot, kept verbatim (renamed) as the oracle of the
# filtered, float-seeded versions: Newton from 2^ceil(bits/k), and a scan of
# every prime up to the bit length that restarts from 2 after each root.  The
# one change: parent_maxroot takes its root step as an argument, so that its
# full scan of very large powers can run on the float-seeded _iroot.
def parent_iroot(n: int, k: int) -> int:
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


def parent_maxroot(n: int, iroot=parent_iroot) -> tuple[int, int]:
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
            r = iroot(q, p)
            if r**p == q:
                q, e = r, e * p
                changed = True
                break
    return (q, e)


@st.composite
def power_times_cofactor(draw):
    """n = r**e * c; r is capped at 3200/e bits so the oracle's full scan stays fast."""
    e = draw(st.sampled_from([*range(1, 13), 31, 64]))
    bits = draw(st.integers(min_value=1, max_value=min(200, 3200 // e)))
    r = draw(st.integers(min_value=2 ** (bits - 1), max_value=2**bits))
    odd = st.integers(min_value=0, max_value=2**64).map(lambda x: 2 * x + 1)
    c = draw(st.sampled_from([1, 2**6 * 3**4]) | odd)
    return r**e * c


@st.composite
def float_root_powers(draw):
    """n = r**e or r**e ± 1 with r in [2**39, 2**41], astride maxroot's cut-off
    between the rounded float root and Newton at roots of 2**40.  One draw in
    sixteen; the oracle scans every prime up to about 10**4 bits on them."""
    e = draw(st.sampled_from([41, 61, 127, 251]))
    r = draw(st.integers(min_value=2**39, max_value=2**41))
    return r**e + draw(st.sampled_from([0, 1, -1]))


@st.composite
def maxroot_cases(draw):
    """(n, root step of the oracle): a float_root_powers draw one time in
    sixteen, else a power_times_cofactor draw.  parent_iroot's Newton start
    2^ceil(bits/k) makes the oracle's scan of r**251 ± 1 take about a second,
    so the float_root_powers draws get the float-seeded _iroot as root step."""
    if draw(st.integers(0, 15)) == 0:
        return draw(float_root_powers()), exactnum._iroot
    return draw(power_times_cofactor()), parent_iroot


@given(maxroot_cases())
@settings(max_examples=200, deadline=None)
def test_maxroot_matches_parent(case):
    n, iroot = case
    assert maxroot(n) == parent_maxroot(n, iroot)


# every prime factor of these roots is at least 101, so no prime below 100
# divides r**e and maxroot tries exponents only up to its bit length // 6;
# for r = 101 that bound is about 11 % above e (log2(101) = 6.658)
@pytest.mark.parametrize("r", [101, 101 * 103, 10007])
def test_maxroot_at_the_exponent_bound(r):
    for e in [*sieve(31), 61, 127, 251]:
        n = r**e
        assert e <= n.bit_length() // 6
        for m in (n, n - 1, n + 1, n * 103, n * r):
            assert maxroot(m) == parent_maxroot(m), (r, e)


def test_maxroot_tries_no_exponent_above_a_sixth_of_the_bit_length(monkeypatch):
    rng, primorial = Random(1600), math.prod(sieve(100))
    n = 0
    while n.bit_length() != 1600 or math.gcd(n, primorial) != 1:
        n = rng.getrandbits(1600)
    tried, real = [], exactnum._prime_iter
    monkeypatch.setattr(exactnum, "_prime_iter",
                        lambda limit: (tried.append(p) or p for p in real(limit)))
    assert maxroot(n) == (n, 1)
    assert tried == sieve(1600 // 6)


def test_maxroot_takes_the_float_root_below_2_to_the_40(monkeypatch):
    # (2**40 - 1)**61 has 40·61 bits, the most a float-path 61st power has;
    # both roots are non-powers whose small-prime valuations (61 and 122) are
    # above the filter's cap, so every prime up to the bit length is tried
    calls = _record_iroot(monkeypatch)
    assert maxroot((2**40 - 1) ** 61) == (2**40 - 1, 61)
    assert 61 not in calls
    assert maxroot((2**40 + 1) ** 61) == (2**40 + 1, 61)
    assert 61 in calls


@given(st.integers(min_value=1, max_value=2**4000), st.data())
@settings(max_examples=150, deadline=None)
def test_iroot_brackets_the_root(n, data):
    k = data.draw(st.integers(min_value=2, max_value=n.bit_length() + 2))
    r = exactnum._iroot(n, k)
    assert r**k <= n < (r + 1) ** k


def _record_iroot(monkeypatch):
    calls = []
    real = exactnum._iroot
    monkeypatch.setattr(exactnum, "_iroot", lambda n, k: calls.append(k) or real(n, k))
    return calls


@pytest.mark.parametrize("ell", [2, 3])
def test_maxroot_filter_settles_exact_small_valuation(monkeypatch, ell):
    rng, primorial = Random(3200), math.prod(sieve(100))
    n = 0
    while n.bit_length() != 3200 or math.gcd(n // ell, primorial) != 1:
        n = ell * rng.getrandbits(3199)  # ell divides n once, no other prime below 100 does
    calls = _record_iroot(monkeypatch)
    assert maxroot(n) == (n, 1)
    assert calls == []


def test_maxroot_filter_tries_only_divisors_of_the_valuation_gcd(monkeypatch):
    calls = _record_iroot(monkeypatch)
    assert maxroot(12**30) == (12, 30)
    assert calls and all(30 % k == 0 for k in calls)


def test_common_power_examples():
    assert common_power(4, 8) == (3, 2)
    assert 4**3 == 8**2 == 64
    for k in (2, 5, 12):
        assert common_power(k, k) == (1, 1)
    assert common_power(2, 3) is None


@given(
    st.integers(min_value=2, max_value=50),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=200, deadline=None)
def test_common_power_of_shared_base(base, e1, e2):
    q = maxroot(base)[0]
    g = math.gcd(e1, e2)
    assert common_power(q**e1, q**e2) == (e2 // g, e1 // g)


def test_common_power_matches_exhaustive_search():
    limit = 40
    power_sets = {k: {k**e for e in range(1, limit + 1)} for k in range(2, 41)}
    for k1 in range(2, 41):
        for k2 in range(2, 41):
            found = None
            for n1 in range(1, limit + 1):
                if k1**n1 in power_sets[k2]:
                    n2 = next(e for e in range(1, limit + 1) if k2**e == k1**n1)
                    found = (n1, n2)
                    break
            assert common_power(k1, k2) == found
            assert (found is not None) == (maxroot(k1)[0] == maxroot(k2)[0])


# ---------------------------------------------------------------------------
# mult_decompose
# ---------------------------------------------------------------------------


def test_mult_decompose_basics():
    assert mult_decompose(F(8)) == (F(2), 3)
    assert mult_decompose(F(2, 3)) == (F(3, 2), -1)
    assert mult_decompose(F(9, 4)) == (F(3, 2), 2)
    base, e = mult_decompose(F(10, 7))
    assert base == F(10, 7) and e == 1


# mult_decompose as it was before it worked on numerator and denominator as
# integers, kept verbatim (renamed) as its oracle
def parent_mult_decompose(x: F) -> tuple[F, int]:
    if x <= 0 or x == 1:
        raise ValueError(f"mult_decompose needs x > 0, x != 1, got {x}")
    if x < 1:
        base, e = parent_mult_decompose(1 / x)
        return base, -e
    num, den = x.numerator, x.denominator
    qn, en = maxroot(num)
    if den == 1:
        return F(qn), en
    qd, ed = maxroot(den)
    g = math.gcd(en, ed)
    return F(qn ** (en // g), qd ** (ed // g)), g


# rationals either side of 1, many of them proper powers
powered_rationals = st.builds(lambda n, d, e: F(n, d) ** e, st.integers(1, 10**12),
                              st.integers(1, 10**12), st.integers(1, 6)).filter(lambda x: x != 1)


@given(powered_rationals)
@settings(max_examples=200, deadline=None)
def test_mult_decompose_matches_the_parent(x):
    got = mult_decompose(x)
    assert got == parent_mult_decompose(x)
    assert type(got[0]) is F and type(got[1]) is int


@pytest.mark.parametrize("x", [F(0), F(-3), F(-2, 3), F(1), F(7, 7)])
def test_mult_decompose_rejects_what_the_parent_rejects(x):
    with pytest.raises(ValueError) as parent:
        parent_mult_decompose(x)
    with pytest.raises(ValueError) as got:
        mult_decompose(x)
    assert str(got.value) == str(parent.value)


# ---------------------------------------------------------------------------
# log-ratios
# ---------------------------------------------------------------------------


def test_logratio_validation():
    with pytest.raises(ValueError):
        LogRatio(F(1), F(2))
    with pytest.raises(ValueError):
        LogRatio(F(3), F(1, 2))


def test_logratio_eq_examples():
    assert compare_values(LogRatio(F(8), F(2)), LogRatio(F(27), F(3))) is EQUAL
    assert compare_values(LogRatio(F(2), F(2)), LogRatio(F(5), F(5))) is EQUAL
    assert compare_values(LogRatio(F(2), F(3)), LogRatio(F(3), F(2))) is NOT_EQUAL


def test_logratio_canonical_collapses_dependent_pairs():
    # same value through multiplicatively dependent pairs
    x = canonical_value(LogRatio(F(4), F(27)))
    y = canonical_value(LogRatio(F(16), F(729)))
    assert x == y == LogRatio(F(4), F(27))
    assert canonical_value(LogRatio(F(64), F(8))) == F(2)


def test_logratio_eq_rational_vs_irrational():
    assert compare_values(LogRatio(F(8), F(2)), LogRatio(F(8), F(3))) is NOT_EQUAL


def test_logratio_add_one_example():
    assert canonical_value(logratio_add_one(LogRatio(F(8), F(8)))) == F(2)
    x = logratio_add_one(LogRatio(F(2), F(3)))
    assert x == LogRatio(F(6), F(3))


def test_logratio_chain_mul_examples():
    out = logratio_chain_mul(LogRatio(F(64), F(8)), LogRatio(F(8), F(2)))
    assert canonical_value(out) == F(6)
    with pytest.raises(MultiplicativeIndependenceError):
        logratio_chain_mul(LogRatio(F(4), F(2)), LogRatio(F(3), F(5)))


def test_logratio_chain_mul_nontrivial_dependence():
    # inner bases 9 and 3: 9**1 == 3**2
    out = logratio_chain_mul(LogRatio(F(4), F(9)), LogRatio(F(3), F(5)))
    expect = math.log(4) / math.log(9) * (math.log(3) / math.log(5))
    assert abs(as_float(out) - expect) < 1e-12


def test_logratio_scale():
    assert canonical_value(logratio_scale(LogRatio(F(8), F(2)), F(2, 3))) == F(2)


def test_logratio_arith_matches_floats_on_random_instances():
    rng = Random(3)
    checked = 0
    while checked < 1000:
        base_b = F(rng.choice([2, 3, 5, 6, 10])) ** rng.randint(1, 3)
        a = F(rng.choice([2, 3, 5, 7, 11])) ** rng.randint(1, 3)
        c = F(rng.choice([2, 3, 7, 10])) ** rng.randint(1, 3)
        x = LogRatio(a, base_b)
        y = LogRatio(base_b ** rng.randint(1, 2), c)
        got = as_float(logratio_chain_mul(x, y))
        expect = as_float(x) * as_float(y)
        assert abs(got - expect) <= 1e-9 * abs(expect)
        got1 = as_float(logratio_add_one(x))
        assert abs(got1 - (1 + as_float(x))) <= 1e-9 * abs(1 + as_float(x))
        checked += 1


def test_logratio_eq_is_symmetric_and_transitive_when_certified():
    rng = Random(4)
    values = [
        LogRatio(F(2), F(3)),
        LogRatio(F(4), F(9)),
        LogRatio(F(8), F(27)),
        LogRatio(F(3), F(2)),
        LogRatio(F(8), F(2)),
        LogRatio(F(27), F(3)),
        LogRatio(F(5), F(7)),
    ]
    for _ in range(200):
        x, y, z = rng.choice(values), rng.choice(values), rng.choice(values)
        assert compare_values(x, y) is compare_values(y, x)
        if compare_values(x, y) is EQUAL and compare_values(y, z) is EQUAL:
            assert compare_values(x, z) is EQUAL


def test_logratio_eq_undecided_on_ultra_close_values():
    a = 10**80
    verdict = compare_values(LogRatio(F(a + 1), F(a)), LogRatio(F(a + 2), F(a + 1)))
    assert isinstance(verdict, Undecided)
    assert verdict.width >= 0


def test_interval_compare_refinement_separates():
    # without the 256-bit refinement these enclosures overlap; with it the
    # disjointness certificate appears
    a = 10**85
    x, y = LogRatio(F(a + 1), F(7)), LogRatio(F(a + 2), F(7))
    assert isinstance(_interval_compare(x, y, prec=0), Undecided)
    assert _interval_compare(x, y) is NOT_EQUAL


def test_working_precision_reads_bases_not_exponents():
    # the primitive bases are 5/7, 2, 2**100 + 1 and 3; the exponent 10**6 adds nothing
    x, y = LogRatio.of_powers(F(5, 7), 10**6, F(2), 1), LogRatio(F(2**100 + 1), F(3))
    assert _working_precision(x, y) == _INTERVAL_PREC + 101
    assert _working_precision(x, x, prec=0) == 3
    assert _working_precision(y, x, prec=512) == 613


# The MPIntervalContext enclosures that _interval_compare built before it
# called mpmath's interval primitives directly, kept as their oracle.
def context_log(q: F, ctx: MPIntervalContext):
    return ctx.log(ctx.mpf(q.numerator)) - ctx.log(ctx.mpf(q.denominator))


def context_interval(x: LogRatio, ctx: MPIntervalContext):
    return ctx.mpf(x.m) * context_log(x.p, ctx) / (ctx.mpf(x.n) * context_log(x.q, ctx))


def context_compare(x: LogRatio, y: LogRatio, prec=None):
    ctx = MPIntervalContext()
    ctx.prec = _working_precision(x, y, prec)
    ix = context_interval(x, ctx)
    iy = context_interval(y, ctx)
    if ix.b < iy.a or iy.b < ix.a:
        return NOT_EQUAL
    width = max(float(ix.b) - float(ix.a), float(iy.b) - float(iy.a))
    mid_x = (float(ix.a) + float(ix.b)) / 2
    mid_y = (float(iy.a) + float(iy.b)) / 2
    return Undecided(mid_x, mid_y, width)


def libmpi_interval(x: LogRatio, prec: int, extra: int = 0):
    """The same enclosure from mpmath's libmpi primitives, with each log taken
    at prec + extra bits and then rounded outward to prec.  mpmath's mpf_log
    works at prec + 20 bits and can miss the correctly rounded end by one
    unit; 100 extra bits make that vanishingly rare."""
    def enclose(k: int):
        return from_int(k, prec, round_floor), from_int(k, prec, round_ceiling)

    def log(q: F):
        logs = (mpi_pos(mpi_log(enclose(k), prec + extra), prec) for k in (q.numerator, q.denominator))
        return mpi_sub(*logs, prec)

    return mpi_div(mpi_mul(enclose(x.m), log(x.p), prec), mpi_mul(enclose(x.n), log(x.q), prec), prec)


def dyadic(d) -> F:
    """A dyadic (man, exp) of the interval kernel as a Fraction."""
    return F(d[0]) * F(2) ** d[1]


def rational(interval) -> tuple:
    return tuple(F(*to_rational(end)) for end in interval)


def _mp_exact(value):
    return F(*to_rational(value._mpf_))


above_one = st.builds(lambda n, d: F(n + d, d), st.integers(1, 10**40), st.integers(1, 10**40))


@st.composite
def ratio_pairs(draw):
    """Two log-ratios: independent ones with exponents from small powers, or
    the near pair log(a+1)/log(a), log(a+2)/log(a+1) that enclosures of a
    few hundred bits cannot tell apart."""
    if draw(st.booleans()):
        a = 10 ** draw(st.integers(1, 120)) + draw(st.integers(0, 10**6))
        return LogRatio(F(a + 1), F(a)), LogRatio(F(a + 2), F(a + 1))
    power = st.integers(1, 3)
    return tuple(LogRatio(draw(above_one) ** draw(power), draw(above_one) ** draw(power))
                 for _ in range(2))


@given(ratio_pairs(), st.none() | st.integers(0, 600))
@settings(max_examples=150, deadline=None)
def test_interval_enclosures_match_interval_context(pair, prec):
    x, y = pair
    bits = _working_precision(x, y, prec)
    ctx = MPIntervalContext()
    ctx.prec = bits
    verdict = _interval_compare(x, y, prec)
    if all(context_log(q, ctx).a > 0 for value in pair for q in (value.p, value.q)):
        for value in pair:
            ours = tuple(map(dyadic, _ratio_interval(value, bits)))
            # mpmath's, unless one of mpmath's logs misses its correctly
            # rounded end; ours are the correctly rounded ones
            assert ours == rational(libmpi_interval(value, bits, 100))
            assert ours == rational(context_interval(value, ctx)._mpi_) or (
                libmpi_interval(value, bits) != libmpi_interval(value, bits, 100))
        # repr, not ==: repr shows floats exactly
        assert repr(verdict) == repr(context_compare(x, y, prec))
    else:
        # only a precision of a few bits leaves a log enclosure that is not positive
        assert prec is not None
        assert isinstance(verdict, Undecided) or verdict is NOT_EQUAL
        if verdict is NOT_EQUAL:
            with mpmath.workdps(1000):
                assert _mp_value(x) != _mp_value(y)


@given(st.integers(1, 2**4000), st.integers(2, 2000))
@settings(max_examples=100, deadline=None)
def test_log_enclosures_contain_mpmath_log(n, prec):
    log = _logs(prec)
    lower, upper = log(_round(n, 0, prec)), log(_round(n, 0, prec, True), True)
    with mpmath.workprec(2 * prec + 64):
        value = _mp_exact(mpmath.log(n))
    assert dyadic(lower) <= value <= dyadic(upper)
    # both ends have P significant bits, one more after a carry of the upward rounding
    assert all(d[0].bit_length() <= prec + 1 for d in (lower, upper))


@given(st.integers(65, 6000), st.floats(2**-0.5, 2.0))
@settings(max_examples=100, deadline=None)
def test_ln_fixed_keeps_its_error_bound(w, y):
    # r/2^w is y, kept inside [1/√2, 2]
    r = max(math.isqrt(1 << 2 * w - 1) + 1, min(int(F(y) * 2**w), 2 << w))
    approx, bound = _ln_fixed(r, w)
    with mpmath.workprec(w + 64):
        exact = _mp_exact(mpmath.log(mpmath.mpf(r) / mpmath.mpf(2) ** w) * mpmath.mpf(2) ** w)
    assert abs(approx - exact) <= bound < 2**40


def _record_ln_fixed(monkeypatch):
    calls = []
    real = exactnum._ln_fixed
    monkeypatch.setattr(exactnum, "_ln_fixed", lambda r, w: calls.append(w) or real(r, w))
    return calls


def test_log_enclosures_are_computed_once_per_comparison(monkeypatch):
    calls = _record_ln_fixed(monkeypatch)
    # each of 9, 8, 7, 81 and 80 is needed rounded down and up, in both values
    x, y = LogRatio(F(9, 8), F(7)), LogRatio(F(81, 80), F(7))
    _interval_compare(x, y)
    # ln 2 once, then each integer once, all at one fixed-point precision
    assert len(calls) == 6 and len(set(calls)) == 1


def fresh(x: LogRatio) -> LogRatio:
    return LogRatio.of_powers(x.p, x.m, x.q, x.n)


def test_enclosures_are_kept_between_comparisons(monkeypatch):
    calls = _record_ln_fixed(monkeypatch)
    # no base shared in place, so compare_values reaches the enclosures too
    x, y = LogRatio(F(9, 8), F(7)), LogRatio(F(81, 80), F(9, 8))
    verdict = _interval_compare(x, y)
    assert verdict is NOT_EQUAL and len(calls) == 6
    # the same values again, also through compare_values and in either order
    assert _interval_compare(x, y) is compare_values(y, x) is NOT_EQUAL and len(calls) == 6
    # another precision recomputes the enclosures, and the last one is kept
    assert _interval_compare(x, y, 300) is NOT_EQUAL and len(calls) == 12
    assert x._enclosure[0] == y._enclosure[0] == _working_precision(x, y, 300)
    assert _interval_compare(x, y, 300) is NOT_EQUAL and len(calls) == 12
    # the kept enclosure is invisible to ==, hash and repr
    assert x == fresh(x) and hash(x) == hash(fresh(x)) and repr(x) == repr(fresh(x))
    assert fresh(x)._enclosure is None


@given(ratio_pairs(), st.none() | st.integers(0, 600), above_one, st.integers(0, 600))
@settings(max_examples=60, deadline=None)
def test_kept_enclosures_give_the_verdicts_of_fresh_values(pair, prec, third, other):
    x, y = pair
    z = LogRatio(third, 2)
    expected = repr(_interval_compare(fresh(x), fresh(y), prec))
    assert repr(_interval_compare(x, y, prec)) == expected
    assert repr(_interval_compare(x, y, prec)) == expected
    # each value compared with a third one at another precision in between,
    # which keeps the enclosure at that precision
    for v in (x, y):
        bits = _working_precision(v, z, other)
        assert repr(_interval_compare(v, z, other)) == repr(_interval_compare(fresh(v), z, other))
        assert v._enclosure == (bits, _ratio_interval(v, bits))
        assert repr(_interval_compare(x, y, prec)) == expected
    assert repr(_interval_compare(y, x, prec)) == repr(_interval_compare(fresh(y), fresh(x), prec))


def test_undecided_estimates_past_the_float_range_are_inf():
    # exponents of 400 digits put both enclosures near 10^400, as mpmath's
    # to_float reports them
    x, y = LogRatio.of_powers(F(2), 10**400, F(3), 1), LogRatio.of_powers(F(2), 10**400 + 1, F(3), 1)
    assert repr(_interval_compare(x, y)) == repr(context_compare(x, y))
    assert _interval_compare(x, y).estimate_x == math.inf


def test_readme_undecided_pair_keeps_its_fields():
    a = 10**80
    x, y = LogRatio(F(a + 1), F(a)), LogRatio(F(a + 2), F(a + 1))
    assert _interval_compare(x, y) == context_compare(x, y) == Undecided(1.0, 1.0, 0.0)
    assert compare_values(x, y) == Undecided(1.0, 1.0, 0.0)


def test_compare_values_mixed_kinds():
    assert compare_values(F(3), F(3)) is EQUAL
    assert compare_values(F(3), LogRatio(F(8), F(2))) is EQUAL
    assert compare_values(F(2), LogRatio(F(2), F(3))) is NOT_EQUAL


# ---------------------------------------------------------------------------
# the LogRatio normal form
# ---------------------------------------------------------------------------


def _mp_value(x):
    """x at 100 digits: a Fraction, or m*log(p)/(n*log(q)) for a LogRatio."""
    if isinstance(x, F):
        return mpmath.mpf(x.numerator) / x.denominator
    return x.m * _mp_log(x.p) / (x.n * _mp_log(x.q))


def _mp_log(q):
    return mpmath.log(mpmath.mpf(q.numerator)) - mpmath.log(mpmath.mpf(q.denominator))


def _assert_normal_form(x):
    assert x.p > 1 and x.q > 1 and x.m >= 1 and x.n >= 1
    assert mult_decompose(x.p) == (x.p, 1) and mult_decompose(x.q) == (x.q, 1)
    assert math.gcd(x.m, x.n) == 1


def _close(value, oracle):
    return abs(_mp_value(value) - oracle) <= mpmath.mpf(10) ** -90 * abs(oracle)


_base = st.builds(
    lambda num, den: F(num + den, den),  # a rational > 1
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
)
_exp = st.integers(min_value=1, max_value=6)
_ratio = st.fractions(min_value=F(1, 50), max_value=50, max_denominator=100)


@given(_base, _exp, _base, _exp, st.integers(min_value=1, max_value=4), _base, _exp, _ratio)
@settings(max_examples=200, deadline=None)
def test_logratio_operations_match_mpmath_oracle(b1, e1, b2, e2, j, b3, e3, r):
    a, b, c = b1**e1, b2**e2, b3**e3
    with mpmath.workdps(100):
        oracle = _mp_log(a) / _mp_log(b)
        x = LogRatio(a, b)
        _assert_normal_form(x)
        assert _close(x, oracle)
        scaled = logratio_scale(x, r)
        _assert_normal_form(scaled)
        assert _close(scaled, oracle * r.numerator / r.denominator)
        one_more = logratio_add_one(x)
        _assert_normal_form(one_more)
        assert _close(one_more, oracle + 1)
        # b**j is dependent on b, so the chain product is exact
        y = LogRatio(b**j, c)
        product = logratio_chain_mul(x, y)
        _assert_normal_form(product)
        assert _close(product, oracle * _mp_log(b**j) / _mp_log(c))
        assert _close(canonical_value(product), oracle * _mp_log(b**j) / _mp_log(c))


@given(_base, _exp, _base, _exp, st.integers(min_value=1, max_value=5))
@settings(max_examples=200, deadline=None)
def test_equal_values_from_dependent_inputs_are_equal_objects(b1, e1, b2, e2, j):
    a, b = b1**e1, b2**e2
    x = LogRatio(a, b)
    assert LogRatio(a**j, b**j) == x
    assert logratio_scale(LogRatio(a, b**j), j) == x
    assert logratio_scale(x, F(1, j)) == LogRatio(a, b**j)
    assert hash(LogRatio(a**j, b**j)) == hash(x)


def test_dependent_examples_are_equal_objects():
    assert LogRatio(F(4), F(27)) == LogRatio(F(16), F(729)) == LogRatio(F(2**6), F(3**9))
    assert LogRatio(F(9, 4), F(27, 8)) == LogRatio(F(3, 2) ** 4, F(3, 2) ** 6)
    assert canonical_value(LogRatio(F(9, 4), F(27, 8))) == F(2, 3)
    assert logratio_chain_mul(LogRatio(F(5), F(9)), LogRatio(F(27), F(7))) == LogRatio(
        F(5**3), F(7**2)
    )


_POWER = r"([0-9]+(?:/[0-9]+)?)(?:\^([0-9]+))?"
_RENDERED = re.compile(rf"log\({_POWER}\)/log\({_POWER}\)$")


def _parse_rendered(text):
    """The wire grammar: a rational, or log(P^m)/log(Q^n) with ^ applying to
    the whole rational and an exponent of 1 left out."""
    match = _RENDERED.match(text)
    if match is None:
        return F(text)
    p, m, q, n = match.groups()
    return LogRatio(F(p) ** int(m or 1), F(q) ** int(n or 1))


@given(_base, _exp, _base, _exp, _ratio)
@settings(max_examples=200, deadline=None)
def test_render_value_parses_back(b1, e1, b2, e2, r):
    from focalclass.focalmodel import render_value

    for value in (LogRatio(b1**e1, b2**e2), logratio_scale(LogRatio(b1**e1, b2**e2), r)):
        value = canonical_value(value)
        assert _parse_rendered(render_value(value)) == value


def test_render_value_spelling():
    from focalclass.focalmodel import render_value

    assert render_value(LogRatio(F(3), F(2))) == "log(3)/log(2)"
    assert render_value(LogRatio(F(100, 9), F(3))) == "log(10/3^2)/log(3)"
    assert render_value(logratio_scale(LogRatio(F(6), F(2)), F(1999999, 1000000))) == (
        "log(6^1999999)/log(2^1000000)"
    )


def test_operations_on_built_values_make_no_maxroot_calls(monkeypatch):
    from focalclass import exactnum
    from focalclass.focalmodel import render_value

    a = 10**80
    x, y = LogRatio(F(25), F(10, 3)), LogRatio(F(7, 2), F(6) ** 5)
    z, w = LogRatio(F(a + 1), F(a)), LogRatio(F(8), F(4))
    calls = []
    real = exactnum.maxroot
    monkeypatch.setattr(exactnum, "maxroot", lambda n: calls.append(n) or real(n))
    for v in (x, y, z, w):
        render_value(v)
        canonical_value(v)
        logratio_scale(v, F(999999, 1000000))
        compare_values(v, x)
        compare_values(v, F(3, 2))
    assert compare_values(w, F(3, 2)) is EQUAL
    assert calls == []


@st.composite
def logratio_values(draw):
    """A log-ratio of ratio_pairs, or one with equal bases (p == q), whose
    canonical value is the rational m/n."""
    x = draw(ratio_pairs())[draw(st.integers(0, 1))]
    if draw(st.booleans()):
        return x
    base = draw(st.sampled_from([x.p, x.q]))
    return LogRatio.of_powers(base, draw(st.integers(1, 50)), F(base.numerator, base.denominator),
                              draw(st.integers(1, 50)))


@given(logratio_values())
@settings(max_examples=150, deadline=None)
def test_canonical_value_matches_the_fraction_test(x):
    """The base test on integers agrees with Fraction equality of the bases."""
    expected = F(x.m, x.n) if x.p == x.q else x
    got = canonical_value(x)
    assert type(got) is type(expected) and got == expected
    if x.p != x.q:
        assert got is x


class _Lines(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.lines = []

    def emit(self, record):
        self.lines.append((record.name, record.levelno, record.getMessage()))


@given(logratio_values() | st.builds(F, st.integers(-10**30, 10**30), st.integers(1, 10**30)))
@settings(max_examples=100, deadline=None)
def test_a_value_compared_with_itself_is_equal_at_once(x):
    """compare_values(x, x) is EQUAL with no certificate work, and logs the
    line a distinct equal copy of x logs."""
    copy = (LogRatio.of_powers(x.p, x.m, x.q, x.n) if isinstance(x, LogRatio)
            else F(x.numerator, x.denominator))
    assert copy is not x
    logger, handler = logging.getLogger("focalclass.exactnum"), _Lines()
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        assert compare_values(x, x) is EQUAL
        assert compare_values(x, copy) is EQUAL
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    itself, other = handler.lines
    assert itself == other
    assert itself[2].endswith(": EQUAL by canonical match")


def test_self_comparison_builds_no_canonical_value_twice(monkeypatch):
    calls = []
    counted = exactnum.canonical_value
    monkeypatch.setattr(exactnum, "canonical_value", lambda v: calls.append(v) or counted(v))
    monkeypatch.setattr(exactnum, "_interval_compare", None)  # any use would raise
    x = LogRatio(F(3), F(2))
    assert compare_values(x, x) is EQUAL and calls == [x]
    calls.clear()
    assert compare_values(x, LogRatio(F(9), F(4))) is EQUAL and len(calls) == 2


def test_compare_values_logs_its_certificate(caplog):
    """At DEBUG each comparison logs one line naming the rung that decided."""
    near = 10**80
    cases = [
        (F(2, 3), F(2, 3), EQUAL, "canonical match"),
        (LogRatio(9, 4), LogRatio(3, 2), EQUAL, "canonical match"),
        (F(1, 2), F(2, 3), NOT_EQUAL, "canonical mismatch of two rationals"),
        (F(1), LogRatio(3, 2), NOT_EQUAL, "rational against irrational"),
        (LogRatio(3, 2), LogRatio(5, 2), NOT_EQUAL, "shared base"),
        (LogRatio(3, 2), LogRatio(3, 5), NOT_EQUAL, "shared base"),
        (LogRatio(3, 2), LogRatio(5, 3), NOT_EQUAL, "disjoint enclosures at 259 bits"),
        (LogRatio(near + 1, near), LogRatio(near + 2, near + 1), Undecided(1.0, 1.0, 0.0),
         f"undecided at {_INTERVAL_PREC + (near + 2).bit_length()} bits"),
    ]
    caplog.set_level(logging.DEBUG, logger="focalclass")
    for x, y, verdict, rung in cases:
        caplog.clear()
        assert compare_values(x, y) == verdict
        records = [(r.name, r.levelno) for r in caplog.records]
        assert records == [("focalclass.exactnum", logging.DEBUG)]
        assert caplog.records[0].getMessage().endswith(f": {verdict} by {rung}")


# ---------------------------------------------------------------------------
# the shared-base rung
# ---------------------------------------------------------------------------


_primitive = st.one_of(_base, above_one).map(lambda b: mult_decompose(b)[0])
_big_exp = st.integers(1, 10**40)


@st.composite
def shared_base_pairs(draw):
    """Two log-ratios with one primitive base in the same place, p or q.  The
    second is the first spelt with its exponents scaled by a common factor,
    the first with both exponents one larger, or one with an unrelated
    other base and exponents."""
    shared, own = draw(_primitive), draw(_primitive)
    m, n = draw(_big_exp), draw(_big_exp)
    how = draw(st.sampled_from(["rescaled", "near", "other"]))
    if how == "rescaled":
        j = draw(st.integers(1, 10**6))
        other, m2, n2 = own, m * j, n * j
    elif how == "near":
        other, m2, n2 = own, m + 1, n + 1
    else:
        other, m2, n2 = draw(_primitive), draw(_big_exp), draw(_big_exp)
    if draw(st.booleans()):
        return LogRatio.of_powers(shared, m, own, n), LogRatio.of_powers(shared, m2, other, n2)
    return LogRatio.of_powers(own, m, shared, n), LogRatio.of_powers(other, m2, shared, n2)


@given(shared_base_pairs())
@settings(max_examples=150, deadline=None)
def test_a_base_shared_in_place_decides_on_normal_forms(pair):
    """Over a base shared in place, compare_values is NOT_EQUAL exactly when
    the normal forms differ; generous enclosures and mpmath at 100 digits
    never contradict it."""
    x, y = pair
    cx, cy = canonical_value(x), canonical_value(y)
    verdict = compare_values(x, y)
    assert verdict is (EQUAL if cx == cy else NOT_EQUAL)
    if isinstance(cx, LogRatio) and isinstance(cy, LogRatio):
        if _interval_compare(fresh(cx), fresh(cy), 1024) is NOT_EQUAL:
            assert verdict is NOT_EQUAL
    # the closest unequal draws, m/n against (m+1)/(n+1) over one pair of
    # bases, differ by about 10^-80 relatively, far above 100 digits' rounding
    with mpmath.workdps(100):
        dx, dy = _mp_value(cx), _mp_value(cy)
        apart = abs(dx - dy) > mpmath.mpf(10) ** -90 * abs(dx)
    assert apart == (verdict is NOT_EQUAL)


def test_a_shared_base_computes_no_log(monkeypatch):
    """log(b)/log(a) against log(b+1)/log(a) with a, b of 1600 bits compares
    NOT_EQUAL with the log kernel out of reach."""
    def no_log(r, w):
        raise AssertionError("a log was computed")

    monkeypatch.setattr(exactnum, "_ln_fixed", no_log)
    a = (1 << 1599) + 1235
    x, y = LogRatio(a + 20, a), LogRatio(a + 21, a)
    assert compare_values(x, y) is NOT_EQUAL
    assert x._enclosure is None and y._enclosure is None
    with pytest.raises(AssertionError, match="a log was computed"):
        _interval_compare(x, y)
