"""Unit tests for descriptors and classification invariants."""

import math
from fractions import Fraction as F
from random import Random

import pytest

from focalclass.exactnum import (
    EQUAL,
    LogRatio,
    as_float,
    canonical_value,
    compare_values,
    logratio_add_one,
    logratio_chain_mul,
    maxroot,
)
from focalclass.matexact import MatQ, mat_power, spectral_data
from focalclass.focalmodel import (
    Cantor,
    Composite,
    FT,
    GAk,
    GroupType,
    HullNotImplementedError,
    INFINITE,
    Millefeuille,
    Sphere,
    Xi,
    boundary,
    canonical_form,
    classify_type,
    conn_key,
    conn_key_equal,
    focal_universal_hull,
    invariant_p0,
    invariant_q,
    invariant_s,
    invariant_varpi,
    is_special,
    render_value,
    root_level,
)

from helpers import descriptor_pool, random_triangular


def diag(*values):
    return MatQ.diag([F(v) for v in values])


HALF_QUARTER = diag("1/2", "1/4")


# ---------------------------------------------------------------------------
# descriptor validation
# ---------------------------------------------------------------------------


def test_descriptor_validation():
    with pytest.raises(ValueError):
        FT(1)
    with pytest.raises(ValueError):
        GAk(MatQ([]), 1)  # would be Z, not focal
    with pytest.raises(ValueError):
        GAk(diag(2), 2)  # not contracting
    with pytest.raises(ValueError):
        Composite(HALF_QUARTER, F(-1), 3)
    with pytest.raises(ValueError):
        Millefeuille(HALF_QUARTER, F(1), 1)
    with pytest.raises(ValueError):
        Composite(MatQ([]), F(1), 3)


# ---------------------------------------------------------------------------
# type, s, q
# ---------------------------------------------------------------------------


def test_classify_type_examples():
    assert classify_type(FT(3)) is GroupType.TOTALLY_DISCONNECTED
    assert classify_type(GAk(diag("1/2"), 1)) is GroupType.CONNECTED
    assert classify_type(GAk(diag("1/2"), 2)) is GroupType.MIXED
    assert classify_type(GAk(MatQ([]), 2)) is GroupType.TOTALLY_DISCONNECTED
    assert classify_type(Composite(diag("1/2"), F(1), 2)) is GroupType.MIXED
    assert classify_type(Millefeuille(diag("1/2"), F(1), 2)) is GroupType.MIXED


def test_invariant_s_examples():
    assert invariant_s(FT(6)) == 6
    assert invariant_s(GAk(diag("1/2"), 1)) == 1
    assert invariant_s(GAk(diag("1/2"), 4, index=2)) == 16
    assert invariant_s(Composite(diag("1/2"), F(1), 3, index=2)) == 9
    assert invariant_s(Millefeuille(diag("1/2"), F(2), 5)) == 5


def test_invariant_q_examples():
    assert invariant_q(FT(8)) == 2
    assert invariant_q(GAk(diag("1/2"), 1)) == 1
    assert invariant_q(Composite(diag("1/2"), F(1), 6)) == 6


# ---------------------------------------------------------------------------
# varpi and p0
# ---------------------------------------------------------------------------


def test_invariant_varpi_examples():
    assert invariant_varpi(GAk(HALF_QUARTER, 8)) == F(1)
    assert invariant_varpi(Composite(diag("1/2"), F(3, 2), 5)) == F(3, 2)
    assert invariant_varpi(Millefeuille(diag("1/2"), F(2), 4)) == F(1)
    assert invariant_varpi(GAk(diag("1/2"), 1)) == F(0)
    assert invariant_varpi(FT(5)) == INFINITE
    # irrational but certified value
    v = invariant_varpi(GAk(diag("1/2"), 3))
    assert v == LogRatio(F(3), F(2))


def test_invariant_p0_examples():
    assert invariant_p0(GAk(HALF_QUARTER, 8)) == F(6)
    assert invariant_p0(GAk(HALF_QUARTER, 1)) == F(3)
    assert invariant_p0(FT(4)) == INFINITE
    # worked identity: 6 == (1 + 1) * 3
    assert F(6) == (1 + invariant_varpi(GAk(HALF_QUARTER, 8))) * invariant_p0(
        GAk(HALF_QUARTER, 1)
    )


def test_varpi_sign_convention_on_affine_padic_model():
    """(R x Q_5) extended by Z scaling by (3/10, t) with 5-adic valuation 2
    models GAk([[3/10]], 25): varpi is log(25)/log(10/3), taken at the
    volume-expanding generator and hence positive."""
    g = GAk(diag("3/10"), 25)
    v = invariant_varpi(g)
    assert v == LogRatio(F(25), F(10, 3))
    assert as_float(v) > 0
    assert abs(as_float(v) - 2 * math.log(5) / math.log(10 / 3)) < 1e-12


def test_invariant_p0_composite_and_millefeuille():
    comp = Composite(HALF_QUARTER, F(2), 3)
    assert invariant_p0(comp) == (1 + F(2)) * invariant_p0(GAk(HALF_QUARTER, 1))
    mf = Millefeuille(diag("1/2"), F(2), 4)
    assert invariant_p0(mf) == F(2)
    # against the float formula p0(X) + log(k) / (t log(lambda))
    mf2 = Millefeuille(HALF_QUARTER, F(3), 5)
    expect = 3.0 + math.log(5) / (3 * math.log(2))
    assert abs(as_float(invariant_p0(mf2)) - expect) < 1e-12


def test_worked_instance_float_cross_check():
    got = invariant_p0(GAk(HALF_QUARTER, 8))
    assert abs(as_float(got) - math.log(64) / math.log(2)) < 1e-12


# ---------------------------------------------------------------------------
# boundary
# ---------------------------------------------------------------------------


def test_boundary_examples():
    assert boundary(FT(7)) == Cantor()
    assert boundary(GAk(HALF_QUARTER, 1)) == Sphere(2)
    assert boundary(GAk(HALF_QUARTER, 3)) == Xi(3)
    assert boundary(Millefeuille(diag("1/2"), F(1), 2)) == Xi(2)
    assert boundary(GAk(MatQ([]), 4)) == Cantor()


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


def test_canonical_form_examples():
    k1 = canonical_form(GAk(HALF_QUARTER, 1))
    k2 = canonical_form(GAk(diag("1/3", "1/9"), 1))
    assert conn_key_equal(k1.key, k2.key) is EQUAL
    assert k1.key == k2.key  # canonicalization makes them structurally equal

    ft = canonical_form(FT(9))
    assert ft.key == () and ft.varpi == INFINITE and ft.q == 3

    mixed = canonical_form(GAk(diag("1/2", "1/8"), 4))
    assert [r for r, _ in mixed.key] == [F(1), F(3)]
    assert mixed.varpi == F(1, 2)
    assert mixed.q == 2


def test_conn_key_is_scale_invariant():
    rng = Random(21)
    for _ in range(20):
        a = random_triangular(rng, rng.choice([1, 2, 3]))
        g1 = GAk(a, 2)
        g2 = GAk(mat_power(a, 3), 2)
        assert conn_key_equal(conn_key(g1), conn_key(g2)) is EQUAL


# ---------------------------------------------------------------------------
# hull and special
# ---------------------------------------------------------------------------


def test_hull_examples():
    assert focal_universal_hull(GAk(HALF_QUARTER, 1)).render() == "ℝ^2 ⋊ (ℝ × {±1}^2)"
    assert focal_universal_hull(GAk(diag("1/2", "1/2"), 1)).render() == "ℝ^2 ⋊ (ℝ × O(2))"
    assert (
        focal_universal_hull(GAk(diag("1/2", "1/3", "1/5"), 1)).render()
        == "ℝ^3 ⋊ (ℝ × {±1}^3)"
    )
    assert focal_universal_hull(GAk(diag("1/2", "1/2", "1/4"), 1)).factors == (2, 1)
    with pytest.raises(HullNotImplementedError):
        focal_universal_hull(GAk(MatQ([["1/2", 1], [0, "1/2"]]), 1))
    with pytest.raises(ValueError):
        focal_universal_hull(FT(3))


def test_is_special_examples():
    assert is_special(FT(2))[0] is True
    assert is_special(GAk(diag("1/2", "1/2"), 1))[0] is True
    assert is_special(GAk(HALF_QUARTER, 2))[0] is False
    assert is_special(GAk(HALF_QUARTER, 1))[0] is False
    assert is_special(GAk(MatQ([]), 2))[0] is True


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


def test_invariant_consistency_on_pool():
    for g in descriptor_pool():
        s, q = invariant_s(g), invariant_q(g)
        assert q == maxroot(s)[0]
        kind = classify_type(g)
        varpi = invariant_varpi(g)
        assert (varpi == F(0)) == (kind is GroupType.CONNECTED) == (s == 1)
        assert (varpi == INFINITE) == (kind is GroupType.TOTALLY_DISCONNECTED)


def test_root_level_reads_the_parameter_not_the_power():
    for g in descriptor_pool():
        q, level = root_level(g)
        assert q**level == invariant_s(g)
        assert (q, level) == maxroot(invariant_s(g))
    # s = 10^(10^6) has 3.3 million bits; the root and level come from k
    assert root_level(GAk(diag("1/2"), 10, index=10**6)) == (10, 10**6)
    assert root_level(Composite(diag("1/2"), F(1), 8, index=3)) == (2, 9)


def test_subgroup_passage_invariance():
    rng = Random(22)
    for _ in range(20):
        a = random_triangular(rng, rng.choice([1, 2, 3]))
        k = rng.choice([2, 3, 4, 6])
        for n in range(1, 6):
            g1 = GAk(a, k)
            gn = GAk(a, k, index=n)
            assert invariant_s(gn) == invariant_s(g1) ** n
            assert invariant_q(gn) == invariant_q(g1)
            assert compare_values(invariant_varpi(gn), invariant_varpi(g1)) is EQUAL
        comp = Composite(a, F(3, 2), k)
        for n in range(1, 6):
            compn = Composite(a, F(3, 2), k, index=n)
            assert invariant_s(compn) == invariant_s(comp) ** n
            assert invariant_q(compn) == invariant_q(comp)
            assert invariant_varpi(compn) == invariant_varpi(comp)


def test_p0_identity_via_logratio_chain():
    """p0 == (1 + varpi) * p0(connected part), exactly, through chain ops."""
    rng = Random(23)
    for _ in range(200):
        dim = rng.choice([1, 2, 3, 4])
        a = random_triangular(rng, dim)
        k = rng.choice([2, 3, 4, 5, 6, 8, 9])
        g = GAk(a, k)
        expansion = 1 / a.det()
        one_plus_varpi = logratio_add_one(LogRatio(F(k), expansion))
        p0_conn_raw = LogRatio(expansion, 1 / spectral_data(a).spectral_radius)
        chained = canonical_value(logratio_chain_mul(one_plus_varpi, p0_conn_raw))
        assert chained == invariant_p0(g)
        assert canonical_value(p0_conn_raw) == invariant_p0(GAk(a, 1))


def test_boundary_constant_on_commability_classes():
    """Equal within-focal classification forces equal boundary."""
    from focalclass.commengine import Yes, commable_within_focal

    pool = descriptor_pool()
    for i, g1 in enumerate(pool):
        for g2 in pool[i + 1:]:
            if isinstance(commable_within_focal(g1, g2), Yes):
                assert boundary(g1) == boundary(g2)


def test_canonical_key_matches_within_focal_equivalence():
    """Equal canonical forms (key, varpi, q) exactly characterize the
    within-focal verdict on every certified pair of the pool."""
    from focalclass.commengine import Yes, commable_within_focal
    from focalclass.focalmodel import INFINITE as INF

    pool = descriptor_pool()
    for i, g1 in enumerate(pool):
        for g2 in pool[i:]:
            c1, c2 = canonical_form(g1), canonical_form(g2)
            keys_equal = conn_key_equal(c1.key, c2.key) is EQUAL
            if c1.varpi == INF or c2.varpi == INF:
                varpi_equal = c1.varpi == c2.varpi
            else:
                varpi_equal = compare_values(c1.varpi, c2.varpi) is EQUAL
            forms_equal = keys_equal and varpi_equal and c1.q == c2.q
            verdict = commable_within_focal(g1, g2)
            assert isinstance(verdict, Yes) == forms_equal


def test_render_value_formats():
    assert render_value(F(0)) == "0"
    assert render_value(INFINITE) == "inf"
    assert render_value(F(3, 2)) == "3/2"
    assert render_value(LogRatio(F(3), F(2))) == "log(3)/log(2)"
