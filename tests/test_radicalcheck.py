"""Unit tests for the radical verification: the exponent-vector claims of
``focalclass.radicalcheck`` against an oracle that computes in F_p(t)."""

import io
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain, islice, product
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from focalclass import radicalcheck
from focalclass.cli import main
from focalclass.exactnum import _is_prime
from focalclass.radicalcheck import (
    FpRat,
    Gamma,
    _coprime_base,
    _pgcd,
    check_center_gamma2,
    check_twist_identity,
    conjugacy_orbit_size,
    designated_units,
    make_generators,
    standard_units,
    unit_infinite_order,
)

PRIMES = (2, 3, 5, 31, 1048573)
POLYS = ((0, 1), (1, 1), (1, 0, 0, 0, 1))  # t, 1 + t, t^4 + 1


# ---------------------------------------------------------------------------
# the oracle: F_p(t) constructors and powers on FpRat, the units and scaling
# pairs in F_p(t), and the group law of H3(F_p(t))^2 x| Z on tuples: an H3
# element is (x, y, z), a scaling automorphism (x, y, z) -> (u x, v y, u v z)
# is (u, v), and a group element is (a, b, n)
# ---------------------------------------------------------------------------


def _const(p: int, c: int) -> FpRat:
    return FpRat.make(p, (c,))


def _monomial(p: int, k: int, coeff: int = 1) -> FpRat:
    """coeff * t**k, any integer k (negative gives a Laurent monomial)."""
    if k >= 0:
        return FpRat.make(p, (0,) * k + (coeff,))
    return FpRat.make(p, (coeff,), (0,) * (-k) + (1,))


def _is_constant(x: FpRat) -> bool:
    """True iff the reduced fraction is a nonzero scalar."""
    return len(x.num) == 1 and x.den == (1,)


def _pow(x: FpRat, n: int) -> FpRat:
    if n < 0:
        return _pow(x.inv(), -n)
    result, base = FpRat(x.p, (1,)), x
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


def _neg(x: FpRat) -> FpRat:
    return FpRat(x.p, tuple((-c) % x.p for c in x.num), x.den)


def _sub(x: FpRat, y: FpRat) -> FpRat:
    return x + _neg(y)


def _div(x: FpRat, y: FpRat) -> FpRat:
    return x * y.inv()


def _units(p: int) -> tuple:
    """(s, u1, u2) in F_p(t): s = t^2 + t^-2, u1 = 1 + t, u2 = 1 + 1/t."""
    t, one = _monomial(p, 1), _const(p, 1)
    return _pow(t, 2) + _pow(t, -2), one + t, one + t.inv()


def _generators(i: int, p: int, beta_level: int = 0) -> tuple:
    """The scaling pair (alpha_i, beta_i) in F_p(t); beta_level puts the beta
    of another level in."""
    s, u1, u2 = _units(p)
    alpha = (s, s.inv() * u2) if i == 1 else (s, s.inv() * u2 * u1)
    beta = (s, s.inv() * u1) if (beta_level or i) == 1 else (s, s.inv())
    return alpha, beta


def _value(p: int, vector: tuple) -> FpRat:
    """The product of the powers of the coprime base with the exponents of
    vector, in F_p(t)."""
    out = _const(p, 1)
    for b, e in zip(_coprime_base(p, POLYS)[0], vector):
        out = out * _pow(FpRat.make(p, b), e)
    return out


def _h3_identity(p: int) -> tuple:
    return (_const(p, 0),) * 3


def _h3_mul(g: tuple, h: tuple) -> tuple:
    return g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1]


def _h3_inv(g: tuple) -> tuple:
    return _neg(g[0]), _neg(g[1]), g[0] * g[1] + _neg(g[2])


def _apply(aut: tuple, g: tuple) -> tuple:
    """(x, y, z) -> (u x, v y, u v z)."""
    u, v = aut
    return u * g[0], v * g[1], u * v * g[2]


def _power(aut: tuple, n: int) -> tuple:
    return _pow(aut[0], n), _pow(aut[1], n)


def _compose(aut: tuple, other: tuple) -> tuple:
    return aut[0] * other[0], aut[1] * other[1]


def _identity(p: int) -> tuple:
    return _h3_identity(p), _h3_identity(p), 0


def _zgen(p: int) -> tuple:
    """The cyclic generator ((1, 1), 1)."""
    return _h3_identity(p), _h3_identity(p), 1


def _element(g: tuple) -> tuple:
    """The group element of the coordinate generator g = (p, side, coordinate)."""
    p, side, coord = g
    unit = tuple(_const(p, int(k == coord)) for k in range(3))
    ident = _h3_identity(p)
    return (unit, ident, 0) if side == 0 else (ident, unit, 0)


def _mul(gens: tuple, g: tuple, h: tuple) -> tuple:
    """g h in the group with scaling pair gens: the Z part n of g acts on h
    by alpha^n, beta^n."""
    alpha, beta = gens
    return (_h3_mul(g[0], _apply(_power(alpha, g[2]), h[0])),
            _h3_mul(g[1], _apply(_power(beta, g[2]), h[1])), g[2] + h[2])


def _inv(gens: tuple, g: tuple) -> tuple:
    alpha, beta = gens
    return (_apply(_power(alpha, -g[2]), _h3_inv(g[0])),
            _apply(_power(beta, -g[2]), _h3_inv(g[1])), -g[2])


def _random_fprat(rng: Random, p: int, zero_ok=False) -> FpRat:
    while True:
        num = tuple(rng.randrange(p) for _ in range(rng.randint(1, 4)))
        den = tuple(rng.randrange(p) for _ in range(rng.randint(1, 4)))
        if not any(den):
            continue
        value = FpRat.make(p, num, den)
        if zero_ok or not value.is_zero():
            return value


# ---------------------------------------------------------------------------
# field arithmetic
# ---------------------------------------------------------------------------


def test_standard_unit_representations():
    s, u1, u2 = _units(3)
    # s = (t^4 + 1) / t^2 in lowest terms
    assert s.num == (1, 0, 0, 0, 1) and s.den == (0, 0, 1)
    assert u1.num == (1, 1) and u1.den == (1,)
    assert u2.num == (1, 1) and u2.den == (0, 1)


def test_constant_and_zero_predicates():
    p = 3
    one_plus_t = FpRat.make(p, (1, 1))
    assert _is_constant(_const(p, 2))
    assert not _is_constant(one_plus_t)
    assert _const(p, 0).is_zero()


def test_inverse_and_division():
    p = 5
    x = FpRat.make(p, (1, 1))
    assert x * x.inv() == _const(p, 1)
    with pytest.raises(ZeroDivisionError):
        _const(p, 0).inv()


def test_field_axioms_randomized():
    for p in (2, 3, 5):
        rng = Random(40 + p)
        one = _const(p, 1)
        for _ in range(10_000 // 3):
            a = _random_fprat(rng, p, zero_ok=True)
            b = _random_fprat(rng, p, zero_ok=True)
            c = _random_fprat(rng, p, zero_ok=True)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a and a * b == b * a
            if not a.is_zero():
                assert a * a.inv() == one


def test_pow_including_negative():
    p = 3
    s, _, _ = _units(p)
    assert _pow(s, 3) == s * s * s
    assert _pow(s, -2) == (s * s).inv()
    assert _pow(s, 0) == _const(p, 1)


def test_field_mismatch_raises():
    with pytest.raises(ValueError):
        _const(2, 1) + _const(3, 1)


def test_constructors_test_p_and_arithmetic_does_not(monkeypatch):
    with pytest.raises(ValueError):
        FpRat.make(4, (1, 1))
    for construct in (lambda: Gamma(1, 9), lambda: standard_units(4), lambda: designated_units(4)):
        with pytest.raises(ValueError, match="not prime"):
            construct()
    x = FpRat.make(7, (1, 2), (3, 0, 1))
    y = FpRat.make(7, (5, 1))
    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return True

    monkeypatch.setattr(radicalcheck, "_is_prime", counting_is_prime)
    assert x * y == FpRat.make(7, (5, 11, 2), (3, 0, 1))
    calls.clear()
    x * y, x + y, y.inv(), _pow(x, 3), _pow(x, -2), _sub(x, y), _div(x, y)
    assert calls == []


def test_radical_check_divides_by_no_constant(monkeypatch):
    # the divisions of the four claims, in the coprime base and the exponent
    # vectors: a gcd with a nonzero constant is 1 before any division
    divisors = []
    pdivmod = radicalcheck._pdivmod

    def counting_pdivmod(p, a, b):
        divisors.append(b)
        return pdivmod(p, a, b)

    monkeypatch.setattr(radicalcheck, "_pdivmod", counting_pdivmod)
    p = 31
    assert check_center_gamma2(p, 20, 4) and check_twist_identity(p)
    assert all(unit_infinite_order(u) for u in designated_units(p).values())
    assert [conjugacy_orbit_size(1, g, 50) for g in Gamma(1, p).coordinate_generators()] == [101] * 6
    assert divisors
    assert [b for b in divisors if len(b) == 1] == []


def _pmul_ref(p: int, *polys) -> list:
    """Product of coefficient lists over F_p, trailing zeros dropped."""
    out = [1]
    for f in polys:
        prod = [0] * (len(out) + len(f) - 1) if out and f else []
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                prod[i + j] = (prod[i + j] + x * y) % p
        out = prod
    while out and out[-1] == 0:
        out.pop()
    return out


def _padd_ref(p: int, f: list, g: list) -> list:
    out = [((f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)) % p
           for i in range(max(len(f), len(g)))]
    while out and out[-1] == 0:
        out.pop()
    return out


def _is_coprime_ref(p: int, f: list, g: list) -> bool:
    """gcd(f, g) is a nonzero constant, by the Euclidean algorithm."""
    f, g = list(f), list(g)
    while g:
        inv = pow(g[-1], p - 2, p)
        while len(f) >= len(g):
            c, shift = f[-1] * inv % p, len(f) - len(g)
            f = _padd_ref(p, f, [0] * shift + [(-c * x) % p for x in g])
        f, g = g, f
    return len(f) == 1


def _value_at(x: FpRat, t: int):
    """x(t) in F_p, or None where the denominator vanishes."""
    p = x.p
    num = sum(c * pow(t, k, p) for k, c in enumerate(x.num)) % p
    den = sum(c * pow(t, k, p) for k, c in enumerate(x.den)) % p
    return None if den == 0 else num * pow(den, p - 2, p) % p


def _assert_canonical(r: FpRat) -> None:
    """Coefficients in [0, p), no trailing zeros, monic denominator, lowest terms."""
    assert all(0 <= c < r.p for c in r.num + r.den)
    assert r.den and r.den[-1] == 1 and (not r.num or r.num[-1] != 0)
    if r.num:
        assert _is_coprime_ref(r.p, r.num, r.den)
    else:
        assert r.den == (1,)


@st.composite
def _field_elements(draw, p):
    """Mostly the shortcut cases: zero, one, another nonzero constant and a
    polynomial (denominator 1); otherwise a reduced fraction."""
    kind = draw(st.sampled_from(("zero", "one", "constant", "polynomial", "fraction")))
    if kind in ("zero", "one"):
        return _const(p, int(kind == "one"))
    if kind == "constant":
        return _const(p, draw(st.integers(1, p - 1)))
    coeff = st.integers(0, p - 1)
    num = draw(st.lists(coeff, min_size=1, max_size=5))
    if kind == "polynomial":
        return FpRat.make(p, num)
    return FpRat.make(p, num, draw(st.lists(coeff, min_size=1, max_size=5).filter(any)))


@st.composite
def _field_pairs(draw):
    p = draw(st.sampled_from((2, 3, 5, 7, 31)))
    return draw(_field_elements(p)), draw(_field_elements(p)), draw(st.integers(-3, 3))


@given(_field_pairs())
@settings(max_examples=400, deadline=None)
def test_field_operations_match_evaluation_and_cross_multiplication(case):
    x, y, n = case
    p = x.p
    results = {"+": x + y, "-": _sub(x, y), "*": x * y}
    if not y.is_zero():
        results["/"] = _div(x, y)
    if not x.is_zero():
        results["inv"] = x.inv()
    if n >= 0 or not x.is_zero():
        results["**"] = _pow(x, n)
    for r in results.values():
        _assert_canonical(r)
    # cross-multiplied identities in F_p[t]: r = a/b  <=>  r.num * b == a * r.den
    for op, yn in (("+", y.num), ("-", [(-c) % p for c in y.num])):
        r = results[op]
        cross = _padd_ref(p, _pmul_ref(p, x.num, y.den), _pmul_ref(p, yn, x.den))
        assert _pmul_ref(p, r.num, x.den, y.den) == _pmul_ref(p, cross, r.den)
    r = results["*"]
    assert _pmul_ref(p, r.num, x.den, y.den) == _pmul_ref(p, x.num, y.num, r.den)
    if "/" in results:
        r = results["/"]
        assert _pmul_ref(p, r.num, x.den, y.num) == _pmul_ref(p, x.num, y.den, r.den)
    if "inv" in results:
        r = results["inv"]
        assert _pmul_ref(p, r.num, x.num) == _pmul_ref(p, x.den, r.den)
    if "**" in results:
        r = results["**"]
        top, bottom = (x.num, x.den) if n >= 0 else (x.den, x.num)
        assert _pmul_ref(p, r.num, *[bottom] * abs(n)) == _pmul_ref(p, *[top] * abs(n), r.den)
    # evaluation at every point of F_p where the operands are defined: a
    # reduced result's denominator divides the operands', so it is defined too
    for t in range(p):
        a, b = _value_at(x, t), _value_at(y, t)
        if a is None or b is None:
            continue
        got = {op: _value_at(r, t) for op, r in results.items()}
        assert got["+"] == (a + b) % p and got["-"] == (a - b) % p and got["*"] == a * b % p
        if b and "/" in got:
            assert got["/"] == a * pow(b, p - 2, p) % p
        if a and "inv" in got:
            assert got["inv"] * a % p == 1
        if "**" in got and (a or n >= 0):
            assert got["**"] == pow(a, n, p)


# ---------------------------------------------------------------------------
# the coprime base and the exponent vectors
# ---------------------------------------------------------------------------


def _base_primes() -> list:
    rng = Random(46)
    drawn = []
    while len(drawn) < 4:
        q = rng.randrange(7, 1 << 20)
        if _is_prime(q):
            drawn.append(q)
    return list(PRIMES) + drawn


@pytest.mark.parametrize("p", _base_primes())
def test_coprime_base_refines_t_one_plus_t_and_t4_plus_1(p):
    base, vectors = _coprime_base(p, POLYS)
    assert base == ([(0, 1), (1, 1)] if p == 2 else list(POLYS))
    assert vectors == ([(1, 0), (0, 1), (0, 4)] if p == 2 else [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert all(len(b) > 1 and b[-1] == 1 for b in base)
    assert all(_pgcd(p, a, b) == (1,) for i, a in enumerate(base) for b in base[:i])
    for f, vector in zip(POLYS, vectors):
        assert _pmul_ref(p, *[b for b, e in zip(base, vector) for _ in range(e)]) == list(f)
    if p == 2:
        assert standard_units(p) == ((-2, 4), (0, 1), (-1, 1))
    else:
        assert standard_units(p) == ((-2, 0, 1), (0, 1, 0), (-1, 1, 0))
        assert designated_units(p) == {"s": (-2, 0, 1), "s^-1*u2": (1, 1, -1), "u2": (-1, 1, 0),
                                       "s^-1*u1": (2, 1, -1), "u1": (0, 1, 0)}


def test_coprime_base_drops_constants_and_splits_shared_factors():
    t, t1 = (0, 1), (1, 1)
    assert _coprime_base(5, [(1,), t, t]) == ([t], [(0,), (1,), (1,)])
    # t^2 (1 + t) and t (1 + t)^2 share t (1 + t)
    assert _coprime_base(5, [(0, 0, 1, 1), (0, 1, 2, 1)]) == ([t, t1], [(2, 1), (1, 2)])


def test_coprime_base_raises_when_a_split_leaves_a_remainder(monkeypatch):
    # a gcd that divides neither input: the split's remainders are its check
    monkeypatch.setattr(radicalcheck, "_pgcd", lambda p, a, b: (2, 1))
    with pytest.raises(ValueError, match="does not divide"):
        _coprime_base(5, [(0, 1), (1, 1)])


@st.composite
def _products_of_shared_factors(draw) -> tuple:
    """(p, polys): each of 1-4 polys the product of 1-3 monic polynomials of
    degree <= 3 over F_p, drawn from one pool of at most 4, so they share
    factors."""
    p = draw(st.sampled_from(PRIMES))
    monic = st.integers(0, 3).flatmap(
        lambda d: st.lists(st.integers(0, p - 1), min_size=d, max_size=d)).map(lambda c: (*c, 1))
    pool = draw(st.lists(monic, min_size=1, max_size=4))
    factors = st.lists(st.sampled_from(pool), min_size=1, max_size=3)
    return p, [tuple(_pmul_ref(p, *fs)) for fs in draw(st.lists(factors, min_size=1, max_size=4))]


@given(_products_of_shared_factors())
@example((2, [(1, 0, 0, 0, 1), (1, 1), (0, 1)]))  # t^4 + 1 = (1 + t)^4 over F_2
@example((5, [(0, 0, 1, 1), (0, 1, 2, 1), (1,)]))
@settings(max_examples=200, deadline=None)
def test_coprime_base_refines_products_of_shared_factors(case):
    p, polys = case
    base, vectors = _coprime_base(p, polys)
    assert all(len(b) > 1 and b[-1] == 1 for b in base)
    assert all(_pgcd(p, a, b) == (1,) for i, a in enumerate(base) for b in base[:i])
    assert base == sorted(base, key=lambda b: (len(b), b))
    assert len(vectors) == len(polys)
    for f, vector in zip(polys, vectors):
        assert len(vector) == len(base) and min(vector, default=0) >= 0
        assert _pmul_ref(p, *[b for b, e in zip(base, vector) for _ in range(e)]) == list(f)


@pytest.mark.parametrize("p", PRIMES)
def test_one_refinement_derives_the_units(monkeypatch, p):
    # the refinement's gcds and splits are every division of a derivation;
    # exact division of each input over the base once took 17 (28 at p = 2)
    calls = []
    pdivmod = radicalcheck._pdivmod
    monkeypatch.setattr(radicalcheck, "_pdivmod", lambda p, a, b: calls.append(b) or pdivmod(p, a, b))
    standard_units(p)
    assert len(calls) == (16 if p == 2 else 5)


@given(st.sampled_from(PRIMES), st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
@example(2, 1, -2, -2)  # s = u1^2 u2^2 over F_2, where t^4 + 1 = (1 + t)^4
@settings(max_examples=150, deadline=None)
def test_unit_vectors_agree_with_the_field_oracle(p, a, b, c):
    # a s + b u1 + c u2 is 0 exactly when s^a u1^b u2^c is 1 in F_p(t), and
    # nonzero exactly when that product is not constant
    s, u1, u2 = standard_units(p)
    vector = tuple(a * x + b * y + c * z for x, y, z in zip(s, u1, u2))
    fs, fu1, fu2 = _units(p)
    value = _pow(fs, a) * _pow(fu1, b) * _pow(fu2, c)
    assert _value(p, vector) == value
    assert (not any(vector)) == (value == _const(p, 1))
    assert unit_infinite_order(vector) == (not _is_constant(value))


def test_only_p2_makes_the_three_units_dependent():
    for p in _base_primes():
        s, u1, u2 = standard_units(p)
        if p == 2:
            assert s == tuple(2 * x + 2 * y for x, y in zip(u1, u2))
        else:  # the 3 x 3 determinant of the vectors
            det = (s[0] * (u1[1] * u2[2] - u1[2] * u2[1]) - s[1] * (u1[0] * u2[2] - u1[2] * u2[0])
                   + s[2] * (u1[0] * u2[1] - u1[1] * u2[0]))
            assert det != 0


def test_make_generators_exact_tuples():
    # each vector of the scaling pairs is the oracle's unit in F_p(t)
    for p in (2, 3, 5, 31):
        for i in (1, 2):
            got = make_generators(i, p)
            assert [[_value(p, v) for v in aut] for aut in got] == [list(aut) for aut in _generators(i, p)]
        assert _value(p, tuple(map(sum, zip(*make_generators(2, p)[1])))) == _const(p, 1)
    with pytest.raises(ValueError):
        make_generators(3, 5)


def test_radical_check_does_no_field_arithmetic(monkeypatch):
    # with the F_p(t) arithmetic made to raise, radical-check prints the same
    # document with the same exit code: no claim computes in F_p(t)
    def run(p):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(["radical-check", "--p", p])
        return code, out.getvalue()

    monkeypatch.delenv("FOCAL_LOG", raising=False)
    expected = {p: run(p) for p in ("2", "31", "1048573")}
    assert all(code == 0 for code, _ in expected.values())

    def forbidden(*args):
        raise AssertionError("F_p(t) arithmetic on a program path")

    for name in ("__add__", "__mul__", "inv", "_reduced"):
        monkeypatch.setattr(FpRat, name, forbidden)
    with pytest.raises(AssertionError):
        FpRat.make(5, (1, 1))
    assert {p: run(p) for p in expected} == expected


# ---------------------------------------------------------------------------
# the central family at level 2
# ---------------------------------------------------------------------------


def _generator_elements(p: int) -> list:
    """The six coordinate generators and the cyclic generator, as elements."""
    return [_element(g) for g in Gamma(2, p).coordinate_generators()] + [_zgen(p)]


def test_center_gamma2_specific_values():
    p = 3
    gens = _generators(2, p)
    zero = _const(p, 0)
    for z in (_monomial(p, 1), zero, _monomial(p, -3) + _monomial(p, 2)):
        zelem = (zero, zero, z)
        assert _apply(gens[1], zelem) == zelem
        central = (_h3_identity(p), zelem, 0)
        for gen in _generator_elements(p):
            assert _mul(gens, central, gen) == _mul(gens, gen, central)


def test_check_center_gamma2_bulk():
    for p in (2, 3, 5):
        assert check_center_gamma2(p, 20, 4)


def _centre_oracle(p: int, zs, beta_level: int = 2) -> bool:
    """Enumerated check of the level-2 centre, independent of the certificate:
    for each z, beta fixes (0, 0, z), and (1, (0, 0, z)) commutes, through
    the group law _mul, with the cyclic generator and the six coordinate
    generators.  beta_level 1 gives the level-2 group the beta of level 1."""
    gens = _generators(2, p, beta_level)
    zero = _const(p, 0)
    generators = _generator_elements(p)
    for z in zs:
        zelem = (zero, zero, z)
        if _apply(gens[1], zelem) != zelem:
            return False
        central = (_h3_identity(p), zelem, 0)
        if any(_mul(gens, central, g) != _mul(gens, g, central) for g in generators):
            return False
    return True


def _laurent_polynomials(p: int, degree: int):
    """Every Laurent polynomial over F_p with exponents in -degree..degree,
    in base-p order of the coefficient vectors, from the zero polynomial on."""
    den = (0,) * degree + (1,)
    return (FpRat.make(p, c, den) for c in product(range(p), repeat=2 * degree + 1))


def _oracle_samples(p: int, samples: int, degree: int) -> list:
    """The first `samples` Laurent polynomials of degree <= degree for the
    oracle: t^-degree, ..., t^degree first, then the others in the order of
    _laurent_polynomials, from the zero polynomial on."""
    monomials = [_monomial(p, k) for k in range(-degree, degree + 1)]
    rest = (z for z in _laurent_polynomials(p, degree) if z not in monomials)
    return list(islice(chain(monomials, rest), samples))


def _with_level1_beta(monkeypatch) -> None:
    """Give the level-2 group the beta of level 1, whose w = u1 scales the centre."""
    generators = radicalcheck.make_generators
    monkeypatch.setattr(radicalcheck, "make_generators",
                        lambda i, p: (generators(2, p)[0], generators(1, p)[1]))


@st.composite
def _centre_cases(draw):
    """(p, level of beta, z): the monomials of degree <= 4 and drawn elements of F_p(t)."""
    p = draw(st.sampled_from((2, 3, 5, 31)))
    extra = draw(st.lists(_field_elements(p), min_size=1, max_size=4))
    monomials = [_monomial(p, k) for k in range(-4, 5)]
    return p, draw(st.sampled_from((1, 2))), monomials + extra


@given(_centre_cases())
@settings(max_examples=40, deadline=None)
def test_center_gamma2_certificate_agrees_with_the_oracle(case):
    p, level, zs = case
    with pytest.MonkeyPatch.context() as mp:
        if level == 1:
            _with_level1_beta(mp)
        expected = _centre_oracle(p, zs, level)
        assert expected == (level == 2)
        assert check_center_gamma2(p, 9, 4) == expected


@pytest.mark.parametrize("p, degree", [(2, 2), (3, 2), (5, 1)])
@pytest.mark.parametrize("level", [1, 2])
def test_center_gamma2_certificate_agrees_with_every_laurent_polynomial(monkeypatch, p, degree, level):
    if level == 1:
        _with_level1_beta(monkeypatch)
    zs = list(_laurent_polynomials(p, degree))
    assert len(set(zs)) == p ** (2 * degree + 1)
    assert check_center_gamma2(p, len(zs), degree) == _centre_oracle(p, zs, level) == (level == 2)


@pytest.mark.parametrize("p, samples, degree", [(2, 32, 2), (3, 60, 2), (5, 40, 4), (31, 12, 4)])
def test_center_gamma2_checks_distinct_polynomials_monomials_first(p, samples, degree):
    # the oracle's z: distinct, the monomials first, the rest in base-p order
    zs = _oracle_samples(p, samples, degree)
    assert len(zs) == len(set(zs)) == samples
    width = 2 * degree + 1
    assert zs[:width] == [_monomial(p, k) for k in range(-degree, degree + 1)]
    indices = []
    for z in zs:
        # z t^degree has at most width coefficients iff z has degree <= degree
        shifted = z * _monomial(p, degree)
        assert shifted.den == (1,) and len(shifted.num) <= width
        indices.append(sum(c * p ** (width - 1 - i) for i, c in enumerate(shifted.num)))
    # the rest in base-p order of the coefficient vectors (c_-degree, ..., c_degree),
    # from the zero polynomial on
    assert indices[width] == 0 and indices[width:] == sorted(indices[width:])
    if samples == p**width:
        assert sorted(indices) == list(range(samples))
    # the monomials span every z of degree <= degree, and the certificate agrees
    assert _centre_oracle(p, zs) and check_center_gamma2(p, samples, degree)


def test_center_gamma2_sample_count_is_bounded_by_the_polynomials():
    # degree 1 over F_2: t^-1, 1 and t span 8 polynomials, no more
    zs = list(_laurent_polynomials(2, 1))
    assert len(set(zs)) == 8
    assert check_center_gamma2(2, 8, 1) and _centre_oracle(2, zs)
    with pytest.raises(ValueError):
        check_center_gamma2(2, 9, 1)


def test_center_gamma2_fails_when_beta_scales_the_centre(monkeypatch):
    # level 1's beta scales z by w = u1 != 1, so (1, (0, 0, z)) is not central
    _with_level1_beta(monkeypatch)
    for p in PRIMES:
        assert tuple(map(sum, zip(*Gamma(2, p).beta))) == standard_units(p)[1]
        assert not check_center_gamma2(p, 9, 4)
        assert not _centre_oracle(p, [_const(p, 1)], beta_level=1)


def test_gamma_group_axioms():
    p = 3
    gens = _generators(1, p)
    rng = Random(44)
    elems = [_element(g) for g in Gamma(1, p).coordinate_generators()]
    elems += [_zgen(p), _inv(gens, _zgen(p))]
    for _ in range(60):
        g, h, k = (rng.choice(elems) for _ in range(3))
        assert _mul(gens, _mul(gens, g, h), k) == _mul(gens, g, _mul(gens, h, k))
        assert _mul(gens, g, _inv(gens, g)) == _identity(p)


@st.composite
def _gamma_cases(draw):
    """(level, g, h) with coordinates from _field_elements and n in -2..2."""
    p = draw(st.sampled_from((2, 3, 5, 31)))

    def elem():
        coords = [draw(_field_elements(p)) for _ in range(6)]
        return tuple(coords[:3]), tuple(coords[3:]), draw(st.integers(-2, 2))

    return draw(st.sampled_from((1, 2))), elem(), elem()


def _composed(aut: tuple, n: int) -> tuple:
    """aut^n as |n| compositions of aut, or of its inverse when n < 0."""
    step = aut if n >= 0 else (aut[0].inv(), aut[1].inv())
    one = _const(aut[0].p, 1)
    out = (one, one)
    for _ in range(abs(n)):
        out = _compose(out, step)
    return out


@given(_gamma_cases())
@settings(max_examples=200, deadline=None)
def test_gamma_mul_and_inv_match_the_written_out_action(case):
    # the oracles' group law against alpha^n and beta^n written out by composition
    level, g, h = case
    p = g[0][0].p
    gens = alpha, beta = _generators(level, p)
    product = (_h3_mul(g[0], _apply(_composed(alpha, g[2]), h[0])),
               _h3_mul(g[1], _apply(_composed(beta, g[2]), h[1])), g[2] + h[2])
    inverse = (_apply(_composed(alpha, -g[2]), _h3_inv(g[0])),
               _apply(_composed(beta, -g[2]), _h3_inv(g[1])), -g[2])
    assert _mul(gens, g, h) == product
    assert _inv(gens, g) == inverse
    assert _mul(gens, g, _inv(gens, g)) == _identity(p) == _mul(gens, _inv(gens, g), g)


# ---------------------------------------------------------------------------
# conjugacy growth at level 1
# ---------------------------------------------------------------------------


def test_conjugacy_orbit_examples():
    p = 3
    x_elem = Gamma(1, p).coordinate_generators()[0]
    assert x_elem == (p, 0, 0)
    assert conjugacy_orbit_size(1, x_elem, 50) == 101
    assert conjugacy_orbit_size(2, (p, 1, 2), 40) == 1  # the level-2 centre
    assert conjugacy_orbit_size(1, x_elem, 0) == 1
    for bound in (-1, 1001):
        with pytest.raises(ValueError):
            conjugacy_orbit_size(1, x_elem, bound)


def _walk_orbit_size(gens: tuple, g: tuple, bound: int) -> int:
    """Independent oracle: walk alpha^k a and beta^k b for |k| <= bound and
    count the distinct pairs."""
    alpha, beta = gens
    orbit = {(g[0], g[1])}
    for step in (1, -1):
        alpha_step, beta_step = _power(alpha, step), _power(beta, step)
        a, b = g[0], g[1]
        for _ in range(bound):
            a, b = _apply(alpha_step, a), _apply(beta_step, b)
            orbit.add((a, b))
    return len(orbit)


@given(st.sampled_from((2, 3, 5, 7, 31)), st.sampled_from((1, 2)), st.integers(0, 1),
       st.integers(0, 2), st.integers(0, 20))
@example(2, 2, 1, 2, 20)  # the level-2 centre over F_2
@settings(max_examples=150, deadline=None)
def test_conjugacy_orbit_size_matches_walk(p, level, side, coord, bound):
    g = (p, side, coord)
    assert conjugacy_orbit_size(level, g, bound) == _walk_orbit_size(
        _generators(level, p), _element(g), bound)


def test_conjugacy_orbit_size_torsion_multipliers(monkeypatch):
    # over the coprime base the only torsion multiplier is the unit 1, the
    # zero vector: patched pairs put it at x of alpha and at z of beta
    p = 7
    s, u1, _ = standard_units(p)
    zero = (0,) * len(s)
    monkeypatch.setattr(radicalcheck, "make_generators", lambda i, q: ((zero, u1), (s, tuple(-e for e in s))))
    fs, fu1, _ = _units(p)
    one = _const(p, 1)
    gens = (one, fu1), (fs, fs.inv())
    for bound in (0, 2, 10):
        sizes = [conjugacy_orbit_size(1, g, bound) for g in Gamma(1, p).coordinate_generators()]
        assert sizes == [1, 2 * bound + 1, 2 * bound + 1, 2 * bound + 1, 2 * bound + 1, 1]
        assert sizes == [_walk_orbit_size(gens, _element(g), bound)
                         for g in Gamma(1, p).coordinate_generators()]


def test_conjugacy_growth_all_generators():
    for p in (2, 3, 5):
        gamma1 = Gamma(1, p)
        for gen in gamma1.coordinate_generators():
            for bound in (10, 100):
                assert conjugacy_orbit_size(1, gen, bound) >= bound


def test_level2_noncentral_elements_still_grow():
    # only the central family is fixed at level 2; x and y directions scale
    gamma2 = Gamma(2, 3)
    x_first = gamma2.coordinate_generators()[0]   # x-unit in the first factor
    y_second = gamma2.coordinate_generators()[4]  # y-unit in the second factor
    assert conjugacy_orbit_size(2, x_first, 30) == 61
    assert conjugacy_orbit_size(2, y_second, 30) == 61


# ---------------------------------------------------------------------------
# units and the twist identity
# ---------------------------------------------------------------------------


def test_unit_infinite_order_rejects_composite_modulus():
    # the units whose order is judged are only read for a prime modulus
    with pytest.raises(ValueError, match="not prime"):
        unit_infinite_order(designated_units(4)["s"])


def test_unit_infinite_order_examples():
    s, u1, u2 = standard_units(3)
    assert unit_infinite_order(s) and unit_infinite_order(u2)
    assert not unit_infinite_order((0, 0, 0))
    assert not unit_infinite_order(tuple(x - y for x, y in zip(u1, u1)))


def test_designated_units_non_torsion():
    for p in (2, 3, 5):
        units = designated_units(p)
        assert set(units) == {"s", "s^-1*u2", "u2", "s^-1*u1", "u1"}
        assert all(unit_infinite_order(u) for u in units.values())
        s, u1, u2 = _units(p)
        oracle = {"s": s, "s^-1*u2": s.inv() * u2, "u2": u2, "s^-1*u1": s.inv() * u1, "u1": u1}
        assert {name: _value(p, u) for name, u in units.items()} == oracle
        assert not any(_is_constant(u) for u in oracle.values())


def _twist_oracle(p: int, level2: tuple) -> bool:
    """The twist in F_p(t) by composing automorphisms: alpha_2 psi(u1^-1) is
    alpha_1 and beta_2 psi(u1) is beta_1, with psi(v) = (1, v)."""
    _, u1, _ = _units(p)
    one = _const(p, 1)
    alpha1, beta1 = _generators(1, p)
    alpha2, beta2 = level2
    return _compose(alpha2, (one, u1.inv())) == alpha1 and _compose(beta2, (one, u1)) == beta1


def test_twist_components(monkeypatch):
    for p in (2, 3, 5, 7):
        assert _twist_oracle(p, _generators(2, p)) and check_twist_identity(p)
    # negative control: the level-1 pair at level 2 is not the twisted pair
    generators = radicalcheck.make_generators
    monkeypatch.setattr(radicalcheck, "make_generators", lambda i, p: generators(1, p))
    for p in (2, 3):
        assert not _twist_oracle(p, _generators(1, p)) and not check_twist_identity(p)


def test_check_twist_identity_primes():
    for p in PRIMES:
        assert check_twist_identity(p)
