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
    _operand_bits,
    _prime_iter,
    _ratio_interval,
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
# every prime up to the bit length that restarts from 2 after each root.
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


def parent_maxroot(n: int) -> tuple[int, int]:
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
            r = parent_iroot(q, p)
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


@given(power_times_cofactor())
@settings(max_examples=200, deadline=None)
def test_maxroot_matches_parent(n):
    assert maxroot(n) == parent_maxroot(n)


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


# The MPIntervalContext enclosures that _interval_compare built before it
# called mpmath's interval primitives directly, kept as their oracle.
def context_interval(x: LogRatio, ctx: MPIntervalContext):
    def log(q: F):
        return ctx.log(ctx.mpf(q.numerator)) - ctx.log(ctx.mpf(q.denominator))

    return ctx.mpf(x.m) * log(x.p) / (ctx.mpf(x.n) * log(x.q))


def context_compare(x: LogRatio, y: LogRatio, prec=None):
    ctx = MPIntervalContext()
    ctx.prec = (prec if prec is not None else _INTERVAL_PREC) + _operand_bits(x, y)
    ix = context_interval(x, ctx)
    iy = context_interval(y, ctx)
    if ix.b < iy.a or iy.b < ix.a:
        return NOT_EQUAL
    width = max(float(ix.b) - float(ix.a), float(iy.b) - float(iy.a))
    mid_x = (float(ix.a) + float(ix.b)) / 2
    mid_y = (float(iy.a) + float(iy.b)) / 2
    return Undecided(mid_x, mid_y, width)


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
    bits = (prec if prec is not None else _INTERVAL_PREC) + _operand_bits(x, y)
    ctx = MPIntervalContext()
    ctx.prec = bits
    for value in pair:
        assert _ratio_interval(value, bits) == context_interval(value, ctx)._mpi_
    # repr, not ==: an enclosure of a log too close to 0 for prec is unbounded
    # and its midpoint nan, which == never matches; repr shows floats exactly
    assert repr(_interval_compare(x, y, prec)) == repr(context_compare(x, y, prec))


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


def test_compare_values_logs_its_certificate(caplog):
    """At DEBUG each comparison logs one line naming the rung that decided."""
    near = 10**80
    cases = [
        (F(2, 3), F(2, 3), EQUAL, "canonical match"),
        (LogRatio(9, 4), LogRatio(3, 2), EQUAL, "canonical match"),
        (F(1, 2), F(2, 3), NOT_EQUAL, "canonical mismatch of two rationals"),
        (F(1), LogRatio(3, 2), NOT_EQUAL, "rational against irrational"),
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
