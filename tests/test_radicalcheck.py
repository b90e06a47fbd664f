"""Unit tests for the function-field radical verification."""

from itertools import chain, islice, product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from focalclass import radicalcheck
from focalclass.radicalcheck import (
    AutTriple,
    FpRat,
    Gamma,
    GammaElem,
    H3Elem,
    check_center_gamma2,
    check_twist_identity,
    conjugacy_orbit_size,
    designated_units,
    h3_identity,
    h3_mul,
    make_generators,
    psi,
    standard_units,
    unit_infinite_order,
)


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
# the group law of H3(F_p(t))^2 x| Z and the F_p(t) operations it needs, for
# the oracles below: none of the four claims multiplies elements whose Z part
# is nonzero, so the package has none of it
# ---------------------------------------------------------------------------


def _neg(x: FpRat) -> FpRat:
    return FpRat(x.p, tuple((-c) % x.p for c in x.num), x.den)


def _sub(x: FpRat, y: FpRat) -> FpRat:
    return x + _neg(y)


def _div(x: FpRat, y: FpRat) -> FpRat:
    return x * y.inv()


def h3_inv(g: H3Elem) -> H3Elem:
    return H3Elem(_neg(g.x), _neg(g.y), g.x * g.y + _neg(g.z))


def h3_commutator(g: H3Elem, h: H3Elem) -> H3Elem:
    return h3_mul(h3_mul(g, h), h3_inv(h3_mul(h, g)))


def _apply(aut: AutTriple, g: H3Elem) -> H3Elem:
    """(x, y, z) -> (u x, v y, u v z)."""
    return H3Elem(aut.u * g.x, aut.v * g.y, aut.w * g.z)


def _power(aut: AutTriple, n: int) -> AutTriple:
    return AutTriple(aut.u**n, aut.v**n)


def _identity(p: int) -> GammaElem:
    return GammaElem(h3_identity(p), h3_identity(p), 0)


def _zgen(p: int) -> GammaElem:
    """The cyclic generator ((1, 1), 1)."""
    return GammaElem(h3_identity(p), h3_identity(p), 1)


def _mul(gamma: Gamma, g: GammaElem, h: GammaElem) -> GammaElem:
    """g h at the level of gamma: the Z part n of g acts on h by alpha^n, beta^n."""
    return GammaElem(h3_mul(g.a, _apply(_power(gamma.alpha, g.n), h.a)),
                     h3_mul(g.b, _apply(_power(gamma.beta, g.n), h.b)), g.n + h.n)


def _inv(gamma: Gamma, g: GammaElem) -> GammaElem:
    return GammaElem(_apply(_power(gamma.alpha, -g.n), h3_inv(g.a)),
                     _apply(_power(gamma.beta, -g.n), h3_inv(g.b)), -g.n)


# ---------------------------------------------------------------------------
# field arithmetic
# ---------------------------------------------------------------------------


def test_standard_unit_representations():
    s, u1, u2 = standard_units(3)
    # s = (t^4 + 1) / t^2 in lowest terms
    assert s.num == (1, 0, 0, 0, 1) and s.den == (0, 0, 1)
    assert u1.num == (1, 1) and u1.den == (1,)
    assert u2.num == (1, 1) and u2.den == (0, 1)


def test_constant_and_zero_predicates():
    p = 3
    one_plus_t = FpRat.make(p, (1, 1))
    assert FpRat.const(p, 2).is_constant()
    assert not one_plus_t.is_constant()
    assert FpRat.const(p, 0).is_zero()


def test_inverse_and_division():
    p = 5
    x = FpRat.make(p, (1, 1))
    assert x * x.inv() == FpRat.const(p, 1)
    with pytest.raises(ZeroDivisionError):
        FpRat.const(p, 0).inv()


def test_field_axioms_randomized():
    for p in (2, 3, 5):
        rng = Random(40 + p)
        one = FpRat.const(p, 1)
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
    s, _, _ = standard_units(p)
    assert s**3 == s * s * s
    assert s**-2 == (s * s).inv()
    assert s**0 == FpRat.const(p, 1)


def test_field_mismatch_raises():
    with pytest.raises(ValueError):
        FpRat.const(2, 1) + FpRat.const(3, 1)


def test_constructors_test_p_and_arithmetic_does_not(monkeypatch):
    with pytest.raises(ValueError):
        FpRat.make(4, (1, 1))
    with pytest.raises(ValueError):
        Gamma(1, 9)
    x = FpRat.make(7, (1, 2), (3, 0, 1))
    y = FpRat.make(7, (5, 1))
    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return True

    monkeypatch.setattr(radicalcheck, "_is_prime", counting_is_prime)
    assert x * y == FpRat.make(7, (5, 11, 2), (3, 0, 1))
    calls.clear()
    x * y, x + y, y.inv(), x**3, x**-2, _sub(x, y), _div(x, y)
    assert calls == []


def test_radical_check_divides_by_no_constant(monkeypatch):
    # the F_p(t) products of the four claims, the centre's n = 0 products
    # among them: a gcd with a nonzero constant is 1 before any division
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
        return FpRat.const(p, int(kind == "one"))
    if kind == "constant":
        return FpRat.const(p, draw(st.integers(1, p - 1)))
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
        results["**"] = x**n
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
# Heisenberg group
# ---------------------------------------------------------------------------


def test_h3_group_axioms_random():
    p = 3
    rng = Random(41)
    ident = h3_identity(p)
    for _ in range(200):
        g = H3Elem(*(_random_fprat(rng, p, zero_ok=True) for _ in range(3)))
        h = H3Elem(*(_random_fprat(rng, p, zero_ok=True) for _ in range(3)))
        k = H3Elem(*(_random_fprat(rng, p, zero_ok=True) for _ in range(3)))
        assert h3_mul(h3_mul(g, h), k) == h3_mul(g, h3_mul(h, k))
        assert h3_mul(g, h3_inv(g)) == ident
        assert h3_mul(ident, g) == g


def test_h3_commutator_and_center():
    p = 5
    rng = Random(42)
    zero = FpRat.const(p, 0)
    for _ in range(50):
        x = _random_fprat(rng, p)
        y = _random_fprat(rng, p)
        g = H3Elem(x, zero, zero)
        h = H3Elem(zero, y, zero)
        assert h3_commutator(g, h) == H3Elem(zero, zero, x * y)
        z = _random_fprat(rng, p, zero_ok=True)
        central = H3Elem(zero, zero, z)
        other = H3Elem(*(_random_fprat(rng, p, zero_ok=True) for _ in range(3)))
        assert h3_mul(central, other) == h3_mul(other, central)


def test_auttriple_is_homomorphism():
    p = 3
    rng = Random(43)
    for _ in range(100):
        phi = AutTriple(_random_fprat(rng, p), _random_fprat(rng, p))
        g = H3Elem(*(_random_fprat(rng, p, zero_ok=True) for _ in range(3)))
        h = H3Elem(*(_random_fprat(rng, p, zero_ok=True) for _ in range(3)))
        assert _apply(phi, h3_mul(g, h)) == h3_mul(_apply(phi, g), _apply(phi, h))


def test_auttriple_composition_law():
    p = 3
    s, u1, u2 = standard_units(p)
    alpha1, _ = make_generators(1, p)
    # alpha1 composed with itself squares both parameters
    assert alpha1.compose(alpha1) == AutTriple(s**2, (s.inv() * u2) ** 2)
    assert _power(alpha1, 3) == alpha1.compose(alpha1).compose(alpha1)
    assert _power(alpha1, -1).compose(alpha1) == AutTriple(
        FpRat.const(p, 1), FpRat.const(p, 1)
    )


def test_make_generators_exact_tuples():
    for p in (2, 3, 5):
        s, u1, u2 = standard_units(p)
        alpha1, beta1 = make_generators(1, p)
        alpha2, beta2 = make_generators(2, p)
        assert alpha1 == AutTriple(s, s.inv() * u2)
        assert beta1 == AutTriple(s, s.inv() * u1)
        assert alpha2 == AutTriple(s, s.inv() * u2 * u1)
        assert beta2 == AutTriple(s, s.inv())
        assert alpha1.w == u2 and beta1.w == u1 and beta2.w == FpRat.const(p, 1)


# ---------------------------------------------------------------------------
# the central family at level 2
# ---------------------------------------------------------------------------


def test_center_gamma2_specific_values():
    p = 3
    gamma = Gamma(2, p)
    zero = FpRat.const(p, 0)
    for z in (FpRat.monomial(p, 1), zero, FpRat.monomial(p, -3) + FpRat.monomial(p, 2)):
        zelem = H3Elem(zero, zero, z)
        assert _apply(gamma.beta, zelem) == zelem
        central = GammaElem(h3_identity(p), zelem, 0)
        for gen in gamma.coordinate_generators() + [_zgen(p)]:
            assert _mul(gamma, central, gen) == _mul(gamma, gen, central)


def test_check_center_gamma2_bulk():
    for p in (2, 3, 5):
        assert check_center_gamma2(p, 20, 4)


def _centre_oracle(p: int, zs) -> bool:
    """Enumerated check of the level-2 centre, independent of the certificate:
    for each z, beta fixes (0, 0, z), and (1, (0, 0, z)) commutes, through
    the group law _mul, with the cyclic generator and the six coordinate
    generators."""
    gamma = Gamma(2, p)
    zero = FpRat.const(p, 0)
    generators = gamma.coordinate_generators() + [_zgen(p)]
    for z in zs:
        zelem = H3Elem(zero, zero, z)
        if _apply(gamma.beta, zelem) != zelem:
            return False
        central = GammaElem(h3_identity(p), zelem, 0)
        if any(_mul(gamma, central, g) != _mul(gamma, g, central) for g in generators):
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
    monomials = [FpRat.monomial(p, k) for k in range(-degree, degree + 1)]
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
    monomials = [FpRat.monomial(p, k) for k in range(-4, 5)]
    return p, draw(st.sampled_from((1, 2))), monomials + extra


@given(_centre_cases())
@settings(max_examples=40, deadline=None)
def test_center_gamma2_certificate_agrees_with_the_oracle(case):
    p, level, zs = case
    with pytest.MonkeyPatch.context() as mp:
        if level == 1:
            _with_level1_beta(mp)
        expected = _centre_oracle(p, zs)
        assert expected == (level == 2)
        assert check_center_gamma2(p, 9, 4) == expected


@pytest.mark.parametrize("p, degree", [(2, 2), (3, 2), (5, 1)])
@pytest.mark.parametrize("level", [1, 2])
def test_center_gamma2_certificate_agrees_with_every_laurent_polynomial(monkeypatch, p, degree, level):
    if level == 1:
        _with_level1_beta(monkeypatch)
    zs = list(_laurent_polynomials(p, degree))
    assert len(set(zs)) == p ** (2 * degree + 1)
    assert check_center_gamma2(p, len(zs), degree) == _centre_oracle(p, zs) == (level == 2)


@pytest.mark.parametrize("p, samples, degree", [(2, 32, 2), (3, 60, 2), (5, 40, 4), (31, 12, 4)])
def test_center_gamma2_checks_distinct_polynomials_monomials_first(p, samples, degree):
    # the oracle's z: distinct, the monomials first, the rest in base-p order
    zs = _oracle_samples(p, samples, degree)
    assert len(zs) == len(set(zs)) == samples
    width = 2 * degree + 1
    assert zs[:width] == [FpRat.monomial(p, k) for k in range(-degree, degree + 1)]
    indices = []
    for z in zs:
        # z t^degree has at most width coefficients iff z has degree <= degree
        shifted = z * FpRat.monomial(p, degree)
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
    generators = radicalcheck.make_generators
    monkeypatch.setattr(radicalcheck, "make_generators",
                        lambda i, p: (generators(2, p)[0], generators(1, p)[1]))
    assert Gamma(2, 5).beta.w == standard_units(5)[1]
    assert not check_center_gamma2(5, 9, 4)


def test_gamma_group_axioms():
    p = 3
    gamma = Gamma(1, p)
    rng = Random(44)
    elems = gamma.coordinate_generators() + [_zgen(p), _inv(gamma, _zgen(p))]
    for _ in range(60):
        g, h, k = (rng.choice(elems) for _ in range(3))
        assert _mul(gamma, _mul(gamma, g, h), k) == _mul(gamma, g, _mul(gamma, h, k))
        assert _mul(gamma, g, _inv(gamma, g)) == _identity(p)


@st.composite
def _gamma_cases(draw):
    """(level, g, h) with coordinates from _field_elements and n in -2..2."""
    p = draw(st.sampled_from((2, 3, 5, 31)))

    def elem():
        coords = [draw(_field_elements(p)) for _ in range(6)]
        return GammaElem(H3Elem(*coords[:3]), H3Elem(*coords[3:]), draw(st.integers(-2, 2)))

    return draw(st.sampled_from((1, 2))), elem(), elem()


def _composed(aut: AutTriple, n: int) -> AutTriple:
    """aut^n as |n| compositions of aut, or of its inverse when n < 0."""
    step = aut if n >= 0 else AutTriple(aut.u.inv(), aut.v.inv())
    one = FpRat.const(aut.u.p, 1)
    out = AutTriple(one, one)
    for _ in range(abs(n)):
        out = out.compose(step)
    return out


@given(_gamma_cases())
@settings(max_examples=200, deadline=None)
def test_gamma_mul_and_inv_match_the_written_out_action(case):
    # the oracles' group law against alpha^n and beta^n written out by compose
    level, g, h = case
    p = g.a.x.p
    gamma = Gamma(level, p)
    alpha, beta = gamma.alpha, gamma.beta
    product = GammaElem(h3_mul(g.a, _apply(_composed(alpha, g.n), h.a)),
                        h3_mul(g.b, _apply(_composed(beta, g.n), h.b)), g.n + h.n)
    inverse = GammaElem(_apply(_composed(alpha, -g.n), h3_inv(g.a)),
                        _apply(_composed(beta, -g.n), h3_inv(g.b)), -g.n)
    assert _mul(gamma, g, h) == product
    assert _inv(gamma, g) == inverse
    assert _mul(gamma, g, _inv(gamma, g)) == _identity(p) == _mul(gamma, _inv(gamma, g), g)


# ---------------------------------------------------------------------------
# conjugacy growth at level 1
# ---------------------------------------------------------------------------


def test_conjugacy_orbit_examples():
    p = 3
    gamma1 = Gamma(1, p)
    x_elem = gamma1.coordinate_generators()[0]
    assert conjugacy_orbit_size(1, x_elem, 50) == 101
    zero = FpRat.const(p, 0)
    central = GammaElem(h3_identity(p), H3Elem(zero, zero, FpRat.monomial(p, 2)), 0)
    assert conjugacy_orbit_size(2, central, 40) == 1
    with pytest.raises(ValueError):
        conjugacy_orbit_size(1, _identity(p), 10)


def _walk_orbit_size(alpha: AutTriple, beta: AutTriple, g: GammaElem, bound: int) -> int:
    """Independent oracle: walk alpha^k a and beta^k b for |k| <= bound and
    count the distinct pairs."""
    orbit = {(g.a, g.b)}
    for step in (1, -1):
        alpha_step, beta_step = _power(alpha, step), _power(beta, step)
        a, b = g.a, g.b
        for _ in range(bound):
            a, b = _apply(alpha_step, a), _apply(beta_step, b)
            orbit.add((a, b))
    return len(orbit)


@st.composite
def _orbit_cases(draw):
    """(level, element, bound): random elements with zero and constant
    coordinates, level-2 central elements (1, (0, 0, z)), any n."""
    p = draw(st.sampled_from((2, 3, 5, 7, 31)))
    level = draw(st.sampled_from((1, 2)))
    zero = FpRat.const(p, 0)
    if draw(st.booleans()):
        coords = [draw(_field_elements(p)) for _ in range(6)]
    else:
        coords = [zero] * 5 + [draw(_field_elements(p))]
    n = draw(st.integers(-3, 3))
    if all(c.is_zero() for c in coords) and n == 0:
        n = 1
    g = GammaElem(H3Elem(*coords[:3]), H3Elem(*coords[3:]), n)
    return level, g, draw(st.integers(0, 20))


@given(_orbit_cases())
@settings(max_examples=300, deadline=None)
def test_conjugacy_orbit_size_matches_walk(case):
    level, g, bound = case
    alpha, beta = make_generators(level, g.a.x.p)
    assert conjugacy_orbit_size(level, g, bound) == _walk_orbit_size(alpha, beta, g, bound)


def test_conjugacy_orbit_size_torsion_multipliers(monkeypatch):
    # the real generators scale by 1 or by units of infinite order; constant
    # multipliers of other orders check the lcm of the stabiliser against the walk
    p = 7
    alpha = AutTriple(FpRat.const(p, 2), FpRat.const(p, 6))  # orders 3, 2, uv = 5: 6
    beta = AutTriple(FpRat.const(p, 3), FpRat.monomial(p, 1))  # orders 6, inf, inf
    monkeypatch.setattr(radicalcheck, "make_generators", lambda i, q: (alpha, beta))
    gens = Gamma(1, p).coordinate_generators()
    assert [conjugacy_orbit_size(1, g, 10) for g in gens] == [3, 2, 6, 6, 21, 21]
    assert conjugacy_orbit_size(1, gens[0], 0) == 1
    assert conjugacy_orbit_size(1, gens[2], 2) == 5
    rng = Random(45)
    zero = FpRat.const(p, 0)
    for _ in range(200):
        coords = [_random_fprat(rng, p) if rng.random() < 0.4 else zero for _ in range(6)]
        g = GammaElem(H3Elem(*coords[:3]), H3Elem(*coords[3:]), rng.randint(1, 3))
        bound = rng.randint(0, 12)
        assert conjugacy_orbit_size(1, g, bound) == _walk_orbit_size(alpha, beta, g, bound)


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


def test_unit_infinite_order_examples():
    s, u1, u2 = standard_units(3)
    assert unit_infinite_order(s)
    assert not unit_infinite_order(FpRat.const(3, 1))
    two = FpRat.const(5, 2)
    assert not unit_infinite_order(two)
    assert two**4 == FpRat.const(5, 1)  # order 4
    with pytest.raises(ZeroDivisionError):
        unit_infinite_order(FpRat.const(3, 0))


def test_unit_infinite_order_rejects_composite_modulus():
    # the order check is explicit, so it also holds under python -O
    with pytest.raises(ValueError, match="not prime"):
        unit_infinite_order(FpRat(4, (3,), (1,)))


def test_designated_units_non_torsion():
    for p in (2, 3, 5):
        units = designated_units(p)
        assert set(units) == {"s", "s^-1*u2", "u2", "s^-1*u1", "u1"}
        assert all(unit_infinite_order(u) for u in units.values())


def test_twist_components():
    p = 3
    _, u1, _ = standard_units(p)
    alpha1, beta1 = make_generators(1, p)
    alpha2, beta2 = make_generators(2, p)
    assert alpha2.compose(psi(u1.inv())) == alpha1
    assert beta2.compose(psi(u1)) == beta1


def test_check_twist_identity_primes():
    for p in (2, 3, 5, 7):
        assert check_twist_identity(p)
