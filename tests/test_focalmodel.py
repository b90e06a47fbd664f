"""Unit tests for descriptors and classification invariants."""

import dataclasses
import math
from collections import Counter
from fractions import Fraction as F
from math import prod
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from focalclass.exactnum import (
    EQUAL,
    LogRatio,
    Undecided,
    as_float,
    canonical_value,
    compare_values,
    logratio_add_one,
    logratio_chain_mul,
    logratio_scale,
    maxroot,
)
from focalclass import exactnum, focalmodel, matexact
from focalclass.commengine import (
    SDesc,
    Yes,
    commable,
    commable_within_focal,
    pattern_catalog,
    quasi_isometric,
    validate_chain,
)
from focalclass.matexact import MatQ, SpectralData, mat_power, spectral_data
from focalclass.focalmodel import (
    CanonicalForm,
    Cantor,
    Composite,
    FT,
    GAk,
    GroupType,
    HullNotImplementedError,
    INFINITE,
    Invariants,
    Millefeuille,
    Sphere,
    Xi,
    boundary,
    canonical_form,
    classify_type,
    compute_invariants,
    conn_key,
    conn_key_equal,
    conn_matrix,
    focal_universal_hull,
    invariant_p0,
    invariant_q,
    invariant_s,
    invariant_varpi,
    is_special,
    render_value,
    root_level,
)

from helpers import (
    descriptor_pool,
    jordan_matrix,
    random_conjugator,
    random_triangular,
    unit_lower,
)


def diag(*values):
    return MatQ.diag([F(v) for v in values])


HALF_QUARTER = diag("1/2", "1/4")


# ---------------------------------------------------------------------------
# descriptor validation
# ---------------------------------------------------------------------------


def test_descriptor_validation():
    """Each check of a descriptor's constructor, with its message; GAk and
    Composite default to index 1, varpi and t become Fractions, and the
    stored canonical form is no constructor argument."""
    contracting = "needs a contracting action (all eigenvalues in (0,1))"
    for make, message in [
        (lambda: FT(1), "FT needs m >= 2, got 1"),
        (lambda: GAk(HALF_QUARTER, 0), "GAk needs k >= 1, got 0"),
        (lambda: GAk(HALF_QUARTER, 2, 0), "GAk needs index >= 1, got 0"),
        (lambda: GAk(MatQ([]), 1), "GAk with empty action and k = 1 is not focal"),  # Z
        (lambda: GAk(diag(2), 2), f"GAk {contracting}"),
        (lambda: Composite(MatQ([]), F(1), 3), "Composite needs a connected datum of dimension >= 1"),
        (lambda: Composite(diag(2), F(1), 3), f"Composite {contracting}"),
        (lambda: Composite(HALF_QUARTER, F(-1), 3), "Composite needs varpi > 0"),
        (lambda: Composite(HALF_QUARTER, F(1), 1), "Composite needs q >= 2, got 1"),
        (lambda: Composite(HALF_QUARTER, F(1), 3, 0), "Composite needs index >= 1, got 0"),
        (lambda: Millefeuille(MatQ([]), F(1), 2),
         "Millefeuille needs a connected datum of dimension >= 1"),
        (lambda: Millefeuille(diag(2), F(1), 2), f"Millefeuille {contracting}"),
        (lambda: Millefeuille(HALF_QUARTER, F(0), 2), "Millefeuille needs t > 0"),
        (lambda: Millefeuille(HALF_QUARTER, F(1), 1), "Millefeuille needs k >= 2, got 1"),
    ]:
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message
    assert GAk(HALF_QUARTER, 2).index == 1 == Composite(HALF_QUARTER, 2, 3).index
    assert GAk(HALF_QUARTER, 2) == GAk(k=2, matrix=HALF_QUARTER, index=1)
    for value, coerced in ((Composite(HALF_QUARTER, 2, 3).varpi, F(2)),
                           (Composite(HALF_QUARTER, "3/2", 3).varpi, F(3, 2)),
                           (Millefeuille(HALF_QUARTER, 1, 2).t, F(1)),
                           (Millefeuille(HALF_QUARTER, 0.5, 2).t, F(1, 2))):
        assert type(value) is F and value == coerced
    for cls, values in ((FT, (3,)), (GAk, (HALF_QUARTER, 2)), (Composite, (HALF_QUARTER, F(1), 2)),
                        (Millefeuille, (HALF_QUARTER, F(1), 2))):
        g = cls(*values)
        assert g._form is None and "_form" not in repr(g)
        with pytest.raises(TypeError):
            cls(*values, _form=None)


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


def test_one_reading_per_form_and_per_invariants(monkeypatch):
    """canonical_form and compute_invariants read the descriptor once."""
    calls = []
    reading = focalmodel._reading

    def counting_reading(g):
        calls.append(g)
        return reading(g)

    monkeypatch.setattr(focalmodel, "_reading", counting_reading)
    for g in (FT(9), GAk(HALF_QUARTER, 1), GAk(HALF_QUARTER, 4, index=2),
              Composite(diag("1/2"), F(3, 2), 2), Millefeuille(diag("1/2"), F(2), 4)):
        for build in (canonical_form, compute_invariants):
            calls.clear()
            build(g)
            assert calls == [g], build.__name__


def test_compute_invariants_builds_no_connected_key(monkeypatch):
    """compute_invariants reads each field off the one reading, never through
    a connected key, and on the corpus every field equals its own function."""
    from pathlib import Path

    from focalclass.cli import load_descriptor

    calls = []
    key = focalmodel._key

    def counting_key(a):
        calls.append(a)
        return key(a)

    corpus = sorted((Path(__file__).parent / "corpus").glob("*.json"))
    groups = [load_descriptor(str(p)) for p in corpus]
    monkeypatch.setattr(focalmodel, "_key", counting_key)
    for g in groups:
        inv = compute_invariants(g)
        assert calls == []
        assert inv.group_type is classify_type(g)
        assert (inv.s, inv.q) == (invariant_s(g), invariant_q(g))
        for got, want in ((inv.varpi, invariant_varpi(g)), (inv.p0, invariant_p0(g))):
            assert got == want and render_value(got) == render_value(want)
        assert inv.boundary == boundary(g)


def test_stored_form_is_invisible_and_not_carried_by_replace():
    """The canonical form kept on a descriptor leaves ==, hash and repr as
    they were, and dataclasses.replace gives a descriptor that builds the
    form of its own data, never inheriting the one stored on the original."""
    cases = [
        (FT(4), {"m": 9}),
        (GAk(HALF_QUARTER, 8), {"matrix": diag("1/2", "1/8")}),
        (GAk(HALF_QUARTER, 8), {"k": 3}),
        (Composite(diag("1/2"), F(3, 2), 2), {"conn": diag("1/3", "1/9")}),
        (Millefeuille(diag("1/2"), F(2), 4), {"t": F(1, 3)}),
    ]
    for g, changes in cases:
        form = canonical_form(g)
        assert canonical_form(g) is form and g._form is form
        twin = dataclasses.replace(g)
        assert twin._form is None
        assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g._form = None
        h = dataclasses.replace(g, **changes)
        assert h._form is None
        oracle = CanonicalForm(parent_classify_type(h), parent_root_level(h)[0],
                               parent_key(parent_conn_matrix(h)), parent_invariant_varpi(h))
        assert canonical_form(h) == oracle != form


def test_one_connected_key_per_descriptor_across_decisions(monkeypatch):
    """compute_invariants, the three decisions, validate_chain on each yes
    and pattern_catalog share one canonical form per descriptor: every
    descriptor, inputs and the chains' own nodes alike, reaches _key once,
    however many pairs it is in."""
    calls = Counter()
    key = focalmodel._key

    def counting_key(a):
        calls[id(a)] += 1
        return key(a)

    monkeypatch.setattr(focalmodel, "_key", counting_key)
    l = unit_lower(3, [1, -1, 2])
    dense = l @ jordan_matrix([(F(1, 2), 2), (F(1, 3), 1)]) @ l.inverse()
    mixed = [GAk(dense, 6), GAk(mat_power(dense, 2), 36), GAk(jordan_matrix([(F(1, 4), 3)]), 2)]
    connected = [GAk(MatQ(dense.rows), 1), GAk(l @ mat_power(dense, 3) @ l.inverse(), 1)]
    td = [FT(2), FT(4), GAk(MatQ([]), 3, index=2)]
    pairs = [(g1, g2) for group in (mixed, connected, td) for g1 in group for g2 in group]
    seen = [g for group in (mixed, connected, td) for g in group]
    for g1, g2 in pairs:
        compute_invariants(g1)
        compute_invariants(g2)
        for v in (commable_within_focal(g1, g2), commable(g1, g2), quasi_isometric(g1, g2)):
            if isinstance(v, Yes):
                assert validate_chain(v.chain) == (True, "ok")
                seen += [n.desc for n in v.chain.nodes if isinstance(n, SDesc)]
        if classify_type(g1) is not GroupType.CONNECTED:
            pattern_catalog(g1, g2)
    assert sum(calls.values()) == len({id(g) for g in seen})
    for g in mixed + connected:
        assert calls[id(conn_matrix(g))] == 1


def test_a_key_against_itself_is_equal_entry_by_entry_at_once(monkeypatch, caplog):
    """conn_key_equal(k, k) is EQUAL with one canonical-match line per entry
    and no interval work, even for a key whose entries enclosures cannot
    tell from a near copy's."""
    a = 10**80
    key = conn_key(GAk(diag(F(1, a), F(1, a + 1)), 1))
    near = conn_key(GAk(diag(F(1, a + 1), F(1, a + 2)), 1))
    assert isinstance(conn_key_equal(key, near), Undecided)
    monkeypatch.setattr(exactnum, "_interval_compare", None)  # any use would raise
    caplog.set_level("DEBUG", logger="focalclass.exactnum")
    caplog.clear()
    assert conn_key_equal(key, key) is EQUAL
    assert [r.getMessage() for r in caplog.records] == [
        f"compare {r} with {r}: EQUAL by canonical match" for r, _ in key]


def test_conn_key_is_scale_invariant():
    rng = Random(21)
    for _ in range(20):
        a = random_triangular(rng, rng.choice([1, 2, 3]))
        g1 = GAk(a, 2)
        g2 = GAk(mat_power(a, 3), 2)
        assert conn_key_equal(conn_key(g1), conn_key(g2)) is EQUAL


def test_spectral_logs_decomposed_once_per_matrix(monkeypatch):
    """The dense mixed pair of test_one_charpoly_per_dense_matrix, through
    both invariant sets, three decisions and validate_chain on each yes,
    sends each matrix's delta and each expansion factor 1/ev to the integer
    decomposition exactly once: they are kept on the spectral data."""
    calls = Counter()
    counted = exactnum._decompose

    def counting_decompose(num, den):
        calls[F(num, den)] += 1
        return counted(num, den)

    for module in (exactnum, matexact):
        monkeypatch.setattr(module, "_decompose", counting_decompose)
    l = unit_lower(4, [1, -1, 2, 1, 0, -1])
    u = MatQ(zip(*unit_lower(4, [2, 1, -1, 0, 1, 1]).rows))
    p, q = l @ u, u @ l
    g1 = GAk(p @ jordan_matrix([(F(1, 4), 2), (F(1, 9), 1), (F(1, 25), 1)]) @ p.inverse(), 4)
    g2 = GAk(q @ jordan_matrix([(F(1, 2), 2), (F(1, 3), 1), (F(1, 5), 1)]) @ q.inverse(), 2)
    compute_invariants(g1)
    compute_invariants(g2)
    verdicts = (commable_within_focal(g1, g2), commable(g1, g2), quasi_isometric(g1, g2))
    assert [v.kind for v in verdicts] == ["yes"] * 3
    for v in verdicts:
        assert validate_chain(v.chain)[0]
    for g, delta in ((g1, F(3600)), (g2, F(60))):
        logs = [delta] + [1 / ev for ev in spectral_data(g.matrix).eigenvalues]
        assert {x: calls[x] for x in logs} == dict.fromkeys(logs, 1)


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
    assert (
        focal_universal_hull(GAk(diag("1/2", "1/2", "1/3"), 1)).render()
        == "ℝ^3 ⋊ (ℝ × O(2) × {±1})"
    )
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


# ---------------------------------------------------------------------------
# the family reading against the per-family code it replaced
# ---------------------------------------------------------------------------

# The earlier per-family classify_type, invariant_s, root_level,
# invariant_varpi and invariant_p0, kept verbatim (renamed, with the helpers
# they call) as the oracle of the one family reader and of
# p0 = (1 + varpi) * p0(A).  The earlier p0 is built per family from the
# product delta * k (GAk), the scale 1 + varpi (Composite) or the power
# delta^tn * k^td (Millefeuille), so it checks the identity independently.
def parent_classify_type(g) -> GroupType:
    """Connected / totally disconnected / mixed trichotomy of the descriptor."""
    if isinstance(g, FT):
        return GroupType.TOTALLY_DISCONNECTED
    if isinstance(g, GAk):
        if g.matrix.dim == 0:
            return GroupType.TOTALLY_DISCONNECTED
        if g.k == 1:
            return GroupType.CONNECTED
        return GroupType.MIXED
    return GroupType.MIXED  # Composite, Millefeuille


def parent_invariant_s(g) -> int:
    """Positive generator of the modular image of the totally disconnected side."""
    if isinstance(g, FT):
        return g.m
    if isinstance(g, GAk):
        return 1 if g.k == 1 else g.k**g.index
    if isinstance(g, Composite):
        return g.q**g.index
    return g.k


def parent_root_level(g) -> tuple[int, int]:
    """(q, level) with s == q**level, q non-power: read from the tree
    parameter r**e and the index as (r, e * index), never from s itself."""
    base = g.m if isinstance(g, FT) else g.q if isinstance(g, Composite) else g.k
    q, e = maxroot(base)
    return q, e * getattr(g, "index", 1)  # FT and Millefeuille have index 1


def parent_conn_matrix(g):
    """The connected-side datum, when the type has one."""
    if isinstance(g, GAk) and g.matrix.dim >= 1:
        return g.matrix
    if isinstance(g, (Composite, Millefeuille)):
        return g.conn
    return None


def parent_expansion(a: MatQ) -> F:
    """Volume multiplier of the expanding generator on the connected part:
    the product of 1/ev over the spectrum, with algebraic multiplicity."""
    return prod((1 / ev) ** sum(blocks) for ev, blocks in spectral_data(a).entries)


def parent_min_expansion(a: MatQ) -> F:
    """Smallest eigenvalue modulus of the expanding generator (called lambda)."""
    return 1 / spectral_data(a).spectral_radius


def parent_invariant_varpi(g):
    """Ratio of the totally disconnected to the connected restricted modular
    logs, taken at the volume-expanding generator so the value is positive.

    Returns Fraction(0) in connected type, INFINITE in totally disconnected
    type, otherwise a canonical Fraction or LogRatio.
    """
    kind = parent_classify_type(g)
    if kind is GroupType.CONNECTED:
        return F(0)
    if kind is GroupType.TOTALLY_DISCONNECTED:
        return INFINITE
    if isinstance(g, GAk):
        return canonical_value(LogRatio(g.k, parent_expansion(g.matrix)))
    if isinstance(g, Composite):
        return g.varpi
    # millefeuille: log(k) / (t * log(expansion))
    varpi = LogRatio(g.k, parent_expansion(g.conn))
    return canonical_value(logratio_scale(varpi, F(g.t.denominator, g.t.numerator)))


def parent_invariant_p0(g):
    """Critical exponent log(delta)/log(lambda): delta is the total volume
    expansion of the expanding generator and lambda its smallest eigenvalue
    modulus on the connected part.

    Totally disconnected descriptors have no connected part to slow the
    expansion down and get INFINITE.
    """
    kind = parent_classify_type(g)
    if kind is GroupType.TOTALLY_DISCONNECTED:
        return INFINITE
    a = parent_conn_matrix(g)
    delta_con = parent_expansion(a)
    lam = parent_min_expansion(a)
    if kind is GroupType.CONNECTED:
        return canonical_value(LogRatio(delta_con, lam))
    if isinstance(g, GAk):
        return canonical_value(LogRatio(g.k * delta_con, lam))
    if isinstance(g, Composite):
        # p0 = (1 + varpi) * p0(connected part)
        return canonical_value(logratio_scale(LogRatio(delta_con, lam), 1 + g.varpi))
    # millefeuille: p0(X) + log(k) / (t * log(lambda)), over the shared
    # denominator: log(delta^tn * k^td) / log(lambda^tn)
    tn, td = g.t.numerator, g.t.denominator
    p0 = LogRatio(delta_con**tn * g.k**td, lam)
    return canonical_value(logratio_scale(p0, F(1, tn)))


# eigenvalues on the bases 2, 3, 6 and 10/3: a diagonal of one base gives a
# rational p0(A), mixed bases an irrational one; tree parameters include
# powers of those bases, so varpi is rational when k is a power of delta's base
_EIGENVALUES = [F(1, 2), F(1, 4), F(1, 8), F(1, 3), F(1, 9), F(1, 6), F(1, 36), F(3, 10)]
_TREE = [1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 27, 36, 64]  # k = 1 only for GAk
_SMALL_FRACTIONS = st.builds(F, st.integers(1, 5), st.integers(1, 4))


@st.composite
def focal_descriptors(draw):
    kind = draw(st.sampled_from(["FT", "GAk", "Composite", "Millefeuille"]))
    if kind == "FT":
        return FT(draw(st.sampled_from(_TREE[1:]) | st.integers(2, 200)))
    evs = draw(st.lists(st.sampled_from(_EIGENVALUES), min_size=kind != "GAk", max_size=3))
    dim = len(evs)
    above = st.integers(-2, 2).map(F)  # entries above the diagonal; Jordan blocks when equal
    a = MatQ([[evs[i] if i == j else draw(above) if j > i else F(0) for j in range(dim)]
              for i in range(dim)])
    index = draw(st.integers(1, 4))
    delta = prod(1 / ev for ev in evs)
    powers = [delta.numerator**j for j in (1, 2)] if delta.denominator == 1 < delta else []
    k = draw(st.sampled_from(_TREE[1:] + powers))  # a power of delta: varpi rational
    if kind == "GAk":
        return GAk(a, draw(st.sampled_from([1, k])) if dim else k, index)
    if kind == "Composite":
        return Composite(a, draw(_SMALL_FRACTIONS), k, index)
    return Millefeuille(a, draw(_SMALL_FRACTIONS), k)


@given(focal_descriptors())
@example(GAk(MatQ([]), 8, 3))  # dimension 0: totally disconnected
@example(GAk(diag("1/2", "1/3"), 1, 3))  # k = 1 at index 3: connected, (q, level) = (1, 3)
@example(GAk(diag("1/2", "1/4"), 64, 2))  # k a power of delta's base: varpi = 2
@example(GAk(diag("1/2", "1/3"), 36))  # varpi = 2 rational, p0(A) = log(6)/log(2) irrational
@example(Millefeuille(diag("1/2", "1/3"), F(3, 2), 5))  # t != 1, varpi and p0(A) irrational
@example(Millefeuille(diag("1/2"), F(2, 3), 4))  # t != 1, varpi rational
@example(Composite(diag("3/10", "1/2"), F(5, 3), 4, 2))  # p0(A) irrational, varpi rational
@settings(max_examples=250, deadline=None)
def test_family_reading_matches_parent(g):
    assert classify_type(g) is parent_classify_type(g)
    assert invariant_s(g) == parent_invariant_s(g)
    assert root_level(g) == parent_root_level(g)
    inv = compute_invariants(g)
    for got, want in ((invariant_varpi(g), parent_invariant_varpi(g)),
                      (inv.varpi, parent_invariant_varpi(g)),
                      (invariant_p0(g), parent_invariant_p0(g)),
                      (inv.p0, parent_invariant_p0(g))):
        assert got == want
        assert render_value(got) == render_value(want)


# The connected key as built before the spectral data kept it, verbatim: the
# oracle, beside the parent varpi and p0 above, for the values now read off
# the stored delta power and key.
def parent_key(a):
    if a is None:
        return ()
    data = spectral_data(a)
    powers = data.expansion_powers()
    ref = powers[-1]  # the largest eigenvalue
    key = [
        (canonical_value(LogRatio.of_powers(*power, *ref)), blocks)
        for power, (_, blocks) in zip(powers, data.entries)
    ]
    return tuple(reversed(key))


def fresh(g):
    """g over a new matrix with the same rows, so nothing but its spectral
    data (computed by the validation) is stored on it yet."""
    for name in ("matrix", "conn"):
        if hasattr(g, name):
            return dataclasses.replace(g, **{name: MatQ(getattr(g, name).rows)})
    return g


@st.composite
def dense_focal_descriptors(draw):
    """A focal_descriptors draw with its triangular matrix a, which has a
    Jordan block where a repeated eigenvalue has a nonzero entry above it,
    replaced by the dense conjugate p a p^-1, p a product of shears."""
    g = draw(focal_descriptors())
    a = conn_matrix(g)
    if a is None:
        return g
    p = random_conjugator(Random(draw(st.integers(0, 2**32))), a.dim)
    name = "matrix" if isinstance(g, GAk) else "conn"
    return dataclasses.replace(g, **{name: p @ a @ p.inverse()})


_SHEAR = unit_lower(3, [1, -1, 2])
# dense, with a Jordan block of size 2 at 1/2 and delta = 12
_DENSE_JORDAN = _SHEAR @ jordan_matrix([(F(1, 2), 2), (F(1, 3), 1)]) @ _SHEAR.inverse()


@given(dense_focal_descriptors())
@example(GAk(_DENSE_JORDAN, 1))  # connected
@example(GAk(_DENSE_JORDAN, 144))  # k = delta^2: varpi = 2
@example(GAk(_DENSE_JORDAN, 6))  # varpi = log(6)/log(12)
@example(Millefeuille(_DENSE_JORDAN, F(3, 2), 5))
@example(Composite(_DENSE_JORDAN, F(5, 3), 4, 2))
@settings(max_examples=100, deadline=None)
def test_stored_spectral_logs_match_parent(g):
    kind, s, q = parent_classify_type(g), parent_invariant_s(g), parent_root_level(g)[0]
    key = parent_key(parent_conn_matrix(fresh(g)))
    varpi, p0 = parent_invariant_varpi(g), parent_invariant_p0(g)
    form_first, invariants_first = fresh(g), fresh(g)
    form1, inv1 = canonical_form(form_first), compute_invariants(form_first)
    inv2 = compute_invariants(invariants_first)
    form2 = canonical_form(invariants_first)
    for h, form, inv in ((form_first, form1, inv1), (invariants_first, form2, inv2)):
        assert form == CanonicalForm(kind, q, key, varpi)
        assert inv == Invariants(kind, s, q, varpi, p0, boundary(g))
        assert (conn_key(h), invariant_p0(h)) == (key, p0)
        assert render_value(form.varpi) == render_value(varpi)
        assert render_value(inv.p0) == render_value(p0)
        a = conn_matrix(h)
        if a is not None:
            data = spectral_data(a)
            assert None not in (data._expansions, data._delta)
            bare = SpectralData(data.entries)
            assert data == bare and hash(data) == hash(bare) and repr(data) == repr(bare)
