"""Unit tests for the exact integer/rational kernels."""

import math
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

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
    factorize,
    logratio_add,
    logratio_add_one,
    logratio_chain_mul,
    logratio_eq,
    logratio_scale,
    maxroot,
    mult_decompose,
    mult_dependent,
)
from focalclass.exactnum import _interval_compare, _is_prime as exactnum_is_prime, _prime_iter


# ---------------------------------------------------------------------------
# factorize
# ---------------------------------------------------------------------------


def test_factorize_examples():
    assert factorize(1) == {}
    assert factorize(64) == {2: 6}
    assert factorize(36) == {2: 2, 3: 2}


def test_factorize_rejects_bad_input():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(1 << 64)


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_factorize_reconstructs(n):
    factors = factorize(n)
    product = 1
    for p, e in factors.items():
        assert _is_prime(p)
        assert e >= 1
        product *= p**e
    assert product == n
    assert list(factors) == sorted(factors)


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


@given(
    st.fractions(min_value=F(1, 50), max_value=50),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4),
)
@settings(max_examples=200, deadline=None)
def test_mult_dependent_roundtrip_property(base, i, j):
    if base == 1 or i == 0 or j == 0:
        return
    a, b = base**i, base**j
    got = mult_dependent(a, b)
    assert got is not None
    m, n = got
    assert a**m == b**n and n > 0 and math.gcd(m, n) == 1


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
# mult_decompose / mult_dependent
# ---------------------------------------------------------------------------


def test_mult_decompose_basics():
    assert mult_decompose(F(8)) == (F(2), 3)
    assert mult_decompose(F(2, 3)) == (F(3, 2), -1)
    assert mult_decompose(F(9, 4)) == (F(3, 2), 2)
    base, e = mult_decompose(F(10, 7))
    assert base == F(10, 7) and e == 1


def test_mult_dependent_examples():
    assert mult_dependent(F(2), F(8)) == (3, 1)
    assert mult_dependent(F(2, 3), F(9, 4)) == (-2, 1)
    assert F(2, 3) ** -2 == F(9, 4)
    assert mult_dependent(F(2), F(3)) is None


def test_mult_dependent_degenerate_inputs():
    with pytest.raises(ValueError):
        mult_dependent(F(1), F(2))
    with pytest.raises(ValueError):
        mult_dependent(F(2), F(1))
    with pytest.raises(ValueError):
        mult_dependent(F(-2), F(2))


def test_mult_dependent_verified_by_exponentiation():
    rng = Random(1)
    bases = [F(2), F(3), F(2, 3), F(10, 7), F(5, 4)]
    for _ in range(300):
        base = rng.choice(bases)
        i = rng.choice([e for e in range(-5, 6) if e])
        j = rng.choice([e for e in range(-5, 6) if e])
        a, b = base**i, base**j
        m, n = mult_dependent(a, b)
        assert n > 0 and math.gcd(m, n) == 1
        assert a**m == b**n


def test_mult_dependent_independent_pairs():
    rng = Random(2)
    for _ in range(200):
        a = F(rng.choice([2, 3, 5, 7])) ** rng.randint(1, 4)
        b = F(rng.choice([6, 10, 15, 14])) ** rng.randint(1, 4)
        assert mult_dependent(F(a), F(b)) is None


# ---------------------------------------------------------------------------
# log-ratios
# ---------------------------------------------------------------------------


def test_logratio_validation():
    with pytest.raises(ValueError):
        LogRatio(F(1), F(2))
    with pytest.raises(ValueError):
        LogRatio(F(3), F(1, 2))


def test_logratio_eq_examples():
    assert logratio_eq(LogRatio(F(8), F(2)), LogRatio(F(27), F(3))) is EQUAL
    assert logratio_eq(LogRatio(F(2), F(2)), LogRatio(F(5), F(5))) is EQUAL
    assert logratio_eq(LogRatio(F(2), F(3)), LogRatio(F(3), F(2))) is NOT_EQUAL


def test_logratio_canonical_collapses_dependent_pairs():
    # same value through multiplicatively dependent pairs
    x = canonical_value(LogRatio(F(4), F(27)))
    y = canonical_value(LogRatio(F(16), F(729)))
    assert x == y == LogRatio(F(4), F(27))
    assert canonical_value(LogRatio(F(64), F(8))) == F(2)


def test_logratio_eq_rational_vs_irrational():
    assert logratio_eq(LogRatio(F(8), F(2)), LogRatio(F(8), F(3))) is NOT_EQUAL


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


def test_logratio_scale_and_add():
    assert canonical_value(logratio_scale(LogRatio(F(8), F(2)), F(2, 3))) == F(2)
    combined = logratio_add(LogRatio(F(8), F(2)), LogRatio(F(3), F(4)))
    expect = math.log(8) / math.log(2) + math.log(3) / math.log(4)
    assert abs(as_float(combined) - expect) < 1e-12
    kept = logratio_add(LogRatio(F(2), F(3)), LogRatio(F(2), F(5)))
    assert abs(as_float(kept) - (as_float(LogRatio(F(2), F(3))) + as_float(LogRatio(F(2), F(5))))) < 1e-12


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
        assert logratio_eq(x, y) is logratio_eq(y, x)
        if logratio_eq(x, y) is EQUAL and logratio_eq(y, z) is EQUAL:
            assert logratio_eq(x, z) is EQUAL


def test_logratio_eq_undecided_on_ultra_close_values():
    a = 10**80
    verdict = logratio_eq(LogRatio(F(a + 1), F(a)), LogRatio(F(a + 2), F(a + 1)))
    assert isinstance(verdict, Undecided)
    assert verdict.width >= 0


def test_interval_compare_refinement_separates():
    # without the 256-bit refinement these enclosures overlap; with it the
    # disjointness certificate appears
    a = 10**85
    x, y = LogRatio(F(a + 1), F(7)), LogRatio(F(a + 2), F(7))
    assert isinstance(_interval_compare(x, y, prec=0), Undecided)
    assert _interval_compare(x, y) is NOT_EQUAL


def test_compare_values_mixed_kinds():
    assert compare_values(F(3), F(3)) is EQUAL
    assert compare_values(F(3), LogRatio(F(8), F(2))) is EQUAL
    assert compare_values(F(2), LogRatio(F(2), F(3))) is NOT_EQUAL
