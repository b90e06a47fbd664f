"""Unit tests for the commability and quasi-isometry decision engine."""

import json
from collections import Counter
from fractions import Fraction as F
from itertools import combinations, product
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focalclass.exactnum import Undecided
from focalclass.matexact import MatQ, mat_power
from focalclass.focalmodel import (
    FT,
    Composite,
    GAk,
    GroupType,
    Millefeuille,
    classify_type,
    conn_key,
    invariant_q,
)
from focalclass.commengine import (
    Arrow,
    CITATIONS,
    FROM,
    INTO,
    No,
    SCompositeProduct,
    SDesc,
    SFreeGroup,
    SFTpow,
    SHull,
    UndecidedComparisonError,
    UndecidedVerdict,
    WitnessChain,
    Yes,
    commable,
    commable_within_focal,
    ft_index_oracle,
    pattern_catalog,
    quasi_isometric,
    validate_chain,
)
from focalclass.cli import EXIT_NO, EXIT_UNDECIDED, EXIT_YES, main as cli_main

from helpers import (
    canonical_text,
    descriptor_pool,
    jordan_matrix,
    random_conjugator,
    random_diagonalizable,
    recheck_obstruction,
)


def diag(*values):
    return MatQ.diag([F(v) for v in values])


X = diag("1/2")


# ---------------------------------------------------------------------------
# commable_within_focal
# ---------------------------------------------------------------------------


def test_td_pair_same_root():
    verdict = commable_within_focal(FT(2), FT(4))
    assert isinstance(verdict, Yes)
    assert verdict.chain.pattern() == "↗↖↗↖"
    assert SFTpow(2, 2) in verdict.chain.nodes
    assert validate_chain(verdict.chain) == (True, "ok")


def test_td_pair_different_root():
    verdict = commable_within_focal(FT(2), FT(3))
    assert isinstance(verdict, No)
    assert verdict.invariant == "q" and tuple(verdict.values) == (2, 3)
    assert recheck_obstruction(verdict, FT(2), FT(3))


def test_mixed_pair_from_power_conjugacy():
    g1 = GAk(diag("1/2", "1/8"), 4)
    g2 = GAk(diag("1/4", "1/64"), 16)
    verdict = commable_within_focal(g1, g2)
    assert isinstance(verdict, Yes)
    assert validate_chain(verdict.chain) == (True, "ok")


def test_connected_pair_through_hull():
    g1 = GAk(diag("1/2", "1/4"), 1)
    g2 = GAk(diag("1/3", "1/9"), 1)
    verdict = commable_within_focal(g1, g2)
    assert isinstance(verdict, Yes)
    assert verdict.chain.pattern() == "↗↖"
    hull_node = verdict.chain.nodes[1]
    assert isinstance(hull_node, SHull) and hull_node.hull is not None
    assert validate_chain(verdict.chain) == (True, "ok")


def test_connected_pair_not_related():
    g1 = GAk(diag("1/2", "1/4"), 1)
    g2 = GAk(diag("1/3", "1/8"), 1)
    verdict = commable_within_focal(g1, g2)
    assert isinstance(verdict, No)
    assert verdict.invariant == "connected-key"
    assert recheck_obstruction(verdict, g1, g2)


def test_reflexive_empty_chain():
    g = GAk(diag("1/2", "1/4"), 8)
    verdict = commable_within_focal(g, g)
    assert isinstance(verdict, Yes)
    assert verdict.chain.nodes == (SDesc(g),) and verdict.chain.arrows == ()
    assert validate_chain(verdict.chain) == (True, "ok")


def test_connected_and_mixed_undecided_comparisons():
    # eigenvalue ratios log(a+1)/log(a) vs log(a+2)/log(a+1) agree to far
    # below the 256-bit refinement and have independent bases: honestly
    # undecided rather than guessed
    a = 10**80
    m1 = diag(F(1, a), F(1, a + 1))
    m2 = diag(F(1, a + 1), F(1, a + 2))
    assert isinstance(commable_within_focal(GAk(m1, 1), GAk(m2, 1)), UndecidedVerdict)
    assert isinstance(commable_within_focal(GAk(m1, 2), GAk(m2, 2)), UndecidedVerdict)
    assert isinstance(quasi_isometric(GAk(m1, 2), GAk(m2, 2)), UndecidedVerdict)


def test_chain_with_undecided_keys_raises():
    """Two fibered products whose connected keys come from the pair above:
    validate_chain can neither accept nor reject the edge between them."""
    a = 10**80
    key1 = conn_key(GAk(diag(F(1, a), F(1, a + 1)), 1))
    key2 = conn_key(GAk(diag(F(1, a + 1), F(1, a + 2)), 1))
    nodes = (SCompositeProduct(key1, F(1), 2, 1), SCompositeProduct(key2, F(1), 2, 1))
    chain = WitnessChain(nodes=nodes, arrows=(Arrow(INTO, "identity"),))
    with pytest.raises(UndecidedComparisonError) as caught:
        validate_chain(chain)
    assert caught.value.detail == Undecided(1.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# commable / quasi_isometric
# ---------------------------------------------------------------------------


def test_commable_td_free_chain():
    verdict = commable(FT(2), FT(3))
    assert isinstance(verdict, Yes)
    kinds = [type(n).__name__ for n in verdict.chain.nodes]
    assert kinds == ["SDesc", "SAutTree", "SFreeGroup", "SAutTree", "SDesc"]
    assert verdict.chain.nodes[2] == SFreeGroup(3)
    assert validate_chain(verdict.chain) == (True, "ok")


def test_commable_type_obstruction():
    verdict = commable(FT(2), GAk(diag("1/2"), 1))
    assert isinstance(verdict, No)
    assert verdict.invariant == "type"
    assert recheck_obstruction(verdict, FT(2), GAk(diag("1/2"), 1))


def test_commable_all_td_pairs():
    groups = [FT(m) for m in range(2, 21)] + [GAk(MatQ([]), 5)]
    for g1, g2 in combinations(groups, 2):
        verdict = commable(g1, g2)
        assert isinstance(verdict, Yes)
        within = commable_within_focal(g1, g2)
        assert isinstance(within, Yes) == (invariant_q(g1) == invariant_q(g2))


def test_millefeuille_qi_examples():
    assert isinstance(quasi_isometric(Millefeuille(X, F(1), 2), Millefeuille(X, F(2), 4)), Yes)
    v1 = quasi_isometric(Millefeuille(X, F(1), 2), Millefeuille(X, F(1), 3))
    assert isinstance(v1, No) and v1.invariant == "q"
    v2 = quasi_isometric(Millefeuille(X, F(1), 4), Millefeuille(X, F(2), 4))
    assert isinstance(v2, No) and v2.invariant == "varpi"


def test_millefeuille_fast_path_matches_general_mixed_rule():
    # over one connected datum the general mixed rule reduces to integer
    # arithmetic, an oracle independent of the engine: equal non-power roots
    # and log(k1)/t1 == log(k2)/t2, cleared of denominators
    roots = {2: (2, 1), 3: (3, 1), 4: (2, 2), 8: (2, 3), 9: (3, 2)}  # k = root**e
    rng = Random(31)
    seen = Counter()
    for i in range(120):
        t1 = F(rng.randint(1, 4), rng.randint(1, 4))
        t2 = F(rng.randint(1, 4), rng.randint(1, 4))
        k1, k2 = rng.choice(list(roots)), rng.choice(list(roots))
        if i % 2 and roots[k1][0] == roots[k2][0]:
            t2 = t1 * roots[k2][1] / roots[k1][1]  # aim at a quasi-isometric pair
        m1, m2 = Millefeuille(X, t1, k1), Millefeuille(X, t2, k2)
        verdict = quasi_isometric(m1, m2)
        if roots[k1][0] != roots[k2][0]:
            expect = "q"
        elif k1 ** (t2.numerator * t1.denominator) != k2 ** (t1.numerator * t2.denominator):
            expect = "varpi"
        else:
            expect = "yes"
        seen[expect] += 1
        if expect == "yes":
            assert isinstance(verdict, Yes)
            assert validate_chain(verdict.chain) == (True, "ok")
        else:
            assert isinstance(verdict, No) and verdict.invariant == expect
        assert verdict.kind == commable_within_focal(m1, m2).kind
    assert min(seen[kind] for kind in ("q", "varpi", "yes")) >= 10


def test_millefeuille_qi_across_different_connected_data():
    # rescaling the connected side keeps the key; varpi values match exactly
    m1 = Millefeuille(diag("1/2"), F(1), 2)
    m2 = Millefeuille(diag("1/4"), F(1), 4)
    verdict = quasi_isometric(m1, m2)
    assert isinstance(verdict, Yes)
    assert validate_chain(verdict.chain) == (True, "ok")


def test_mixed_pair_with_jordan_blocks():
    a1 = MatQ([["1/2", 1], [0, "1/2"]])
    a2 = MatQ([["1/4", 1], [0, "1/4"]])  # conjugate to a1 squared
    verdict = commable_within_focal(GAk(a1, 2), GAk(a2, 4))
    assert isinstance(verdict, Yes)
    bad = commable_within_focal(GAk(a1, 2), GAk(diag("1/4", "1/4"), 4))
    assert isinstance(bad, No) and bad.invariant == "connected-key"


def test_cross_kind_mixed_pair():
    # the fibered-product descriptor with varpi 1 matches the matrix model
    g1 = Composite(diag("1/2"), F(1), 2)
    g2 = GAk(diag("1/2"), 2)
    verdict = commable_within_focal(g1, g2)
    assert isinstance(verdict, Yes)
    assert validate_chain(verdict.chain) == (True, "ok")
    off = commable_within_focal(Composite(diag("1/2"), F(2), 2), g2)
    assert isinstance(off, No) and off.invariant == "varpi"


def test_composite_qi_varpi_obstruction():
    v = quasi_isometric(Composite(X, F(1), 2), Composite(X, F(2), 2))
    assert isinstance(v, No) and v.invariant == "varpi"
    assert tuple(v.values) == ("1", "2")


def test_qi_agrees_with_commable_on_pool():
    pool = descriptor_pool()
    rng = Random(32)
    for _ in range(150):
        g1, g2 = rng.choice(pool), rng.choice(pool)
        qi = quasi_isometric(g1, g2)
        com = commable(g1, g2)
        if classify_type(g1) is classify_type(g2):
            assert qi.kind == com.kind
        else:
            assert qi.kind == com.kind == "no"


# ---------------------------------------------------------------------------
# equivalence relation
# ---------------------------------------------------------------------------


def test_within_focal_is_equivalence_on_pool():
    pool = descriptor_pool()
    rng = Random(33)
    undecided = 0
    for _ in range(200):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        vab = commable_within_focal(a, b)
        vba = commable_within_focal(b, a)
        assert vab.kind == vba.kind
        vbc = commable_within_focal(b, c)
        vac = commable_within_focal(a, c)
        if "undecided" in (vab.kind, vbc.kind, vac.kind):
            undecided += 1
            continue
        if isinstance(vab, Yes) and isinstance(vbc, Yes):
            assert isinstance(vac, Yes)
        assert isinstance(commable_within_focal(a, a), Yes)
    assert undecided == 0  # the pool is fully certified


def test_yes_chains_validate_and_no_verdicts_recheck():
    pool = descriptor_pool()
    rng = Random(34)
    yes_count = no_count = 0
    for _ in range(400):
        g1, g2 = rng.choice(pool), rng.choice(pool)
        verdict = commable_within_focal(g1, g2)
        if isinstance(verdict, Yes):
            assert validate_chain(verdict.chain) == (True, "ok")
            yes_count += 1
        elif isinstance(verdict, No):
            assert recheck_obstruction(verdict, g1, g2)
            no_count += 1
    assert yes_count >= 10 and no_count >= 10


# ---------------------------------------------------------------------------
# pattern catalog
# ---------------------------------------------------------------------------


def test_pattern_catalog_same_root_pair():
    entries = {(e.pattern, e.status, e.citation) for e in pattern_catalog(FT(2), FT(4))}
    assert ("↗↖", "impossible", "no-common-overgroup") in entries
    assert ("↖↗", "exists", "padic-cocompact-lattice") in entries
    assert ("↗↖↗↖", "exists", "ft-ladder") in entries
    assert ("↖↗↖", "unknown", "open-commability-pattern") in entries


def test_pattern_catalog_different_root_pair():
    entries = {(e.pattern, e.status, e.citation) for e in pattern_catalog(FT(2), FT(3))}
    assert ("↖↗↖", "impossible", "no-two-step-valley") in entries
    assert ("↗↖", "impossible", "no-common-overgroup") in entries


def test_pattern_catalog_identity():
    g = GAk(diag("1/2", "1/4"), 8)
    assert [(e.pattern, e.status, e.citation) for e in pattern_catalog(g, g)] == [
        ("", "exists", "identity")
    ]


def test_pattern_catalog_rejects_connected():
    with pytest.raises(ValueError):
        pattern_catalog(GAk(diag("1/2"), 1), GAk(diag("1/3"), 1))


def test_pattern_catalog_mixed_pairs():
    g1 = GAk(diag("1/2", "1/8"), 4)
    g2 = GAk(diag("1/4", "1/64"), 16)
    entries = {(e.pattern, e.status) for e in pattern_catalog(g1, g2)}
    assert ("↗↖↗↖", "exists") in entries
    assert pattern_catalog(g1, GAk(diag("1/2", "1/8"), 7)) == []


# ---------------------------------------------------------------------------
# chain validation
# ---------------------------------------------------------------------------


def test_validate_chain_rejects_q_violation():
    bad = WitnessChain(
        nodes=(SDesc(FT(2)), SDesc(FT(3))),
        arrows=(Arrow(INTO, "bass-serre-embedding"),),
    )
    ok, diag_msg = validate_chain(bad)
    assert not ok and "q" in diag_msg


def test_validate_chain_rejects_unknown_citation():
    bad = WitnessChain(
        nodes=(SDesc(FT(2)), SDesc(FT(4))),
        arrows=(Arrow(INTO, "made-up"),),
    )
    ok, diag_msg = validate_chain(bad)
    assert not ok and "citation" in diag_msg


def test_validate_chain_rejects_type_violation():
    bad = WitnessChain(
        nodes=(SDesc(GAk(diag("1/2"), 1)), SDesc(GAk(diag("1/2"), 2))),
        arrows=(Arrow(INTO, "focal-universal-hull"),),
    )
    ok, diag_msg = validate_chain(bad)
    assert not ok and "type" in diag_msg


def test_validate_chain_rejects_varpi_violation():
    bad = WitnessChain(
        nodes=(SDesc(GAk(diag("1/2"), 2)), SDesc(GAk(diag("1/2"), 4, index=1))),
        arrows=(Arrow(INTO, "modular-fibered-product"),),
    )
    ok, diag_msg = validate_chain(bad)
    assert not ok and "varpi" in diag_msg


def test_validate_chain_rejects_key_violation_connected():
    # equal q (1) and varpi (0): only the connected keys tell the two apart
    g1, g2 = GAk(diag("1/2", "1/4"), 1), GAk(diag("1/2", "1/8"), 1)
    assert isinstance(commable_within_focal(g1, g2), No)
    forged = WitnessChain(
        nodes=(SDesc(g1), SHull(conn_key(g1), None), SDesc(g2)),
        arrows=(Arrow(INTO, "focal-universal-hull"), Arrow(FROM, "focal-universal-hull")),
    )
    ok, diag_msg = validate_chain(forged)
    assert not ok and "key" in diag_msg and "edge 1" in diag_msg


def test_validate_chain_rejects_key_violation_mixed():
    # equal q (2) and varpi (1): only the connected keys tell the two apart
    g1 = Composite(diag("1/2", "1/4"), F(1), 2)
    g2 = Composite(diag("1/2", "1/8"), F(1), 2)
    assert isinstance(commable_within_focal(g1, g2), No)
    forged = WitnessChain(
        nodes=(SDesc(g1), SCompositeProduct(conn_key(g1), F(1), 2, 1), SDesc(g2)),
        arrows=(Arrow(INTO, "modular-fibered-product"), Arrow(FROM, "modular-fibered-product")),
    )
    ok, diag_msg = validate_chain(forged)
    assert not ok and "key" in diag_msg and "edge 1" in diag_msg


def test_corpus_pairs_validate_and_are_symmetric():
    """On every ordered pair of the corpus, each decision's yes chain
    validates, and the verdict kind and the obstruction invariant do not
    depend on the order of the pair."""
    from focalclass.cli import parse_descriptor

    corpus = Path(__file__).parent / "corpus"
    groups = [parse_descriptor(json.loads(p.read_text(encoding="utf-8")))
              for p in sorted(corpus.glob("*.json"))]
    seen = Counter()
    for decide in (commable_within_focal, commable, quasi_isometric):
        for g1, g2 in product(groups, repeat=2):
            verdict, swapped = decide(g1, g2), decide(g2, g1)
            assert verdict.kind == swapped.kind
            if isinstance(verdict, Yes):
                assert validate_chain(verdict.chain) == (True, "ok")
            if isinstance(verdict, No):
                assert verdict.invariant == swapped.invariant
            seen[verdict.kind] += 1
    assert seen["yes"] > 0 and seen["no"] > 0


def _corpus_group(name: str):
    from focalclass.cli import load_descriptor

    return load_descriptor(str(Path(__file__).parent / "corpus" / f"{name}.json"))


def _valley_arrows(outer: str, inner: str) -> list:
    return [{"direction": d, "citation": c}
            for d, c in ((INTO, outer), (FROM, inner), (INTO, inner), (FROM, outer))]


def test_valley_chains_are_pinned():
    """The three five-node chains, as the CLI prints them under --witness:
    the totally disconnected, the mixed and the free-group valley."""
    from focalclass.cli import chain_obj

    key = [["1", [1]], ["2", [1]]]
    a = [["1/2", "0"], ["0", "1/4"]]
    cases = [
        (commable_within_focal, "ft2", "ft4",
         [{"kind": "FT", "m": 2}, {"kind": "FT", "m": 2}, {"kind": "FTpow", "q": 2, "n": 2},
          {"kind": "FT", "m": 4}, {"kind": "FT", "m": 4}],
         _valley_arrows("bass-serre-embedding", "finite-index-subgroup")),
        (commable_within_focal, "comp_b", "comp_b_idx",
         [{"kind": "Composite", "A": a, "varpi": "1", "q": 2},
          {"kind": "CompositeProduct", "key": key, "varpi": "1", "m": 2},
          {"kind": "CompositeProduct", "key": key, "varpi": "1", "m": 2, "index": 4},
          {"kind": "CompositeProduct", "key": key, "varpi": "1", "m": 16},
          {"kind": "Composite", "A": a, "varpi": "1", "q": 4, "index": 2}],
         _valley_arrows("modular-fibered-product", "finite-index-subgroup")),
        (commable, "ft2", "ft3",
         [{"kind": "FT", "m": 2}, {"kind": "AutTree", "m": 2}, {"kind": "FreeGroup", "rank": 3},
          {"kind": "AutTree", "m": 3}, {"kind": "FT", "m": 3}],
         _valley_arrows("tree-automorphism-group", "tree-lattice-free-group")),
    ]
    for decide, name1, name2, nodes, arrows in cases:
        verdict = decide(_corpus_group(name1), _corpus_group(name2))
        assert isinstance(verdict, Yes)
        assert chain_obj(verdict.chain) == {"nodes": nodes, "arrows": arrows, "pattern": "↗↖↗↖"}
        assert validate_chain(verdict.chain) == (True, "ok")


def test_obstruction_notes_are_pinned():
    """The note of each commability obstruction and of its quasi-isometry twin."""
    cases = [
        ("ft2", "gak_conn", "type", "the type is a commability invariant",
         "the boundary topology separates the types"),
        ("gak_mixed", "comp_a", "q", "q is an invariant of commability within focal groups",
         "the non-power root is a quasi-isometry invariant on mixed type"),
        ("gak_mixed", "gak_indexed", "connected-key", "the connected sides are not commable",
         "one-parameter classes are quasi-isometry classes here"),
        ("gak_conn", "gak_conn_scalar", "connected-key",
         "the actions lie on different one-parameter classes",
         "one-parameter classes are quasi-isometry classes here"),
        ("gak_mixed", "gak_mixed_small", "varpi", "varpi is an invariant of commability",
         "varpi is a quasi-isometry invariant"),
    ]
    for name1, name2, invariant, note, qi_note in cases:
        g1, g2 = _corpus_group(name1), _corpus_group(name2)
        com, qi = commable(g1, g2), quasi_isometric(g1, g2)
        assert isinstance(com, No) and isinstance(qi, No)
        assert (com.invariant, com.note) == (invariant, note)
        assert (qi.invariant, qi.note) == (invariant, qi_note)
        assert qi.values == com.values


def test_chain_arrow_count_enforced():
    with pytest.raises(ValueError):
        WitnessChain(nodes=(SDesc(FT(2)),), arrows=(Arrow(INTO, "identity"),))


def test_citation_registry_documented():
    for text in CITATIONS.values():
        assert len(text) > 20


# ---------------------------------------------------------------------------
# final corollary coincidence (sample; the acceptance suite scales this up)
# ---------------------------------------------------------------------------


def test_final_corollary_routes_agree_sample():
    from focalclass.matexact import power_conjugacy

    rng = Random(35)
    for _ in range(40):
        dim = rng.choice([2, 3])
        q = rng.choice([2, 3, 5])
        e1 = rng.randint(1, 2)
        n1 = rng.randint(1, 3)
        k1 = q**e1
        k2 = k1**n1
        mus = [F(1, rng.choice([2, 3, 4, 8, 9])) for _ in range(dim)]
        a1 = MatQ.diag(mus)
        p = random_conjugator(rng, dim)
        a2 = p @ mat_power(a1, n1) @ p.inverse()
        if rng.random() < 0.5:
            g1, g2 = GAk(a1, k1), GAk(a2, k2)
            expect_yes = True
        else:
            if rng.random() < 0.5:
                mutated = [mu for mu in mus]
                mutated[0] = mutated[0] * F(3, 5)
                a2 = p @ mat_power(MatQ.diag(mutated), n1) @ p.inverse()
            else:
                k2 = k2 * 7 if q != 7 else k2 * 2
            g1, g2 = GAk(a1, k1), GAk(a2, k2)
            expect_yes = False
        qi = quasi_isometric(g1, g2)
        com = commable(g1, g2)
        raw = power_conjugacy(a1, a2, g1.k, g2.k)
        assert qi.kind == com.kind == ("yes" if raw is not None else "no")
        assert (qi.kind == "yes") == expect_yes


def test_mixed_decision_quadrants():
    """Exactly one failing condition must already force No, matching the raw
    power-conjugacy route."""
    from focalclass.matexact import power_conjugacy

    # connected keys equal, varpi off: squared action with unchanged k
    a1 = diag("1/2", "1/8")
    a2 = mat_power(a1, 2)
    g1, g2 = GAk(a1, 4), GAk(a2, 4)
    v = commable_within_focal(g1, g2)
    assert isinstance(v, No) and v.invariant == "varpi"
    assert power_conjugacy(a1, a2, 4, 4) is None

    # varpi equal, connected keys off: same determinant, different spectra
    b1 = diag("1/2", "1/8")
    b2 = diag("1/4", "1/4")
    h1, h2 = GAk(b1, 4), GAk(b2, 4)
    v2 = commable_within_focal(h1, h2)
    assert isinstance(v2, No) and v2.invariant == "connected-key"
    assert power_conjugacy(b1, b2, 4, 4) is None


def test_mixed_decision_matches_power_conjugacy_on_random_pairs():
    """Differential check of the two independent decision routes on random
    index-1 matrix descriptors, including semi-related near misses."""
    from focalclass.matexact import power_conjugacy

    rng = Random(36)
    yes_count = 0
    for _ in range(300):
        dim = rng.choice([1, 2, 3])
        q = rng.choice([2, 3, 5])
        k1 = q ** rng.randint(1, 2)
        a1 = random_diagonalizable(rng, dim, max_den=9)
        style = rng.random()
        if style < 0.4:
            a2 = random_diagonalizable(rng, dim, max_den=9)
            k2 = rng.choice([2, 3, 5, 6]) ** rng.randint(1, 2)
        else:
            # same one-parameter class; k2 may or may not fit the exponent
            n1 = rng.randint(1, 3)
            p = random_conjugator(rng, dim)
            a2 = p @ mat_power(a1, n1) @ p.inverse()
            k2 = q ** rng.randint(1, 4)
        verdict = commable(GAk(a1, k1), GAk(a2, k2))
        raw = power_conjugacy(a1, a2, k1, k2)
        assert (verdict.kind == "yes") == (raw is not None)
        yes_count += raw is not None
    assert yes_count >= 20


# ---------------------------------------------------------------------------
# decision-level properties: verdicts known by construction, and relations
# between the decisions that hold on every pair
# ---------------------------------------------------------------------------

_EIGENVALUES = [F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(1, 5)]
_TREES = [2, 3, 4, 5, 6, 8, 9]  # roots 2, 3, 5 and 6


@st.composite
def constructed_pairs(draw):
    """Pairs whose within-focal verdict is known by construction, as
    (g1, g2, expected kind, expected obstruction or None).

    A is a Jordan matrix of dimension at most 3 and P a random unimodular
    conjugator.  GAk(A, 1) against GAk(P A**m P^-1, 1), and GAk(A, k)
    against GAk(P A**m P^-1, k**m), are yes; changing q or varpi, or the
    key (the smallest eigenvalue squared, when A has two), gives a no on
    that invariant."""
    blocks = draw(st.lists(st.tuples(st.sampled_from(_EIGENVALUES), st.integers(1, 2)),
                           min_size=1, max_size=2).filter(lambda b: sum(n for _, n in b) <= 3))
    m, k = draw(st.integers(1, 3)), draw(st.sampled_from(_TREES))
    other_root = draw(st.sampled_from([t for t in _TREES if t % k and k % t]))
    varpi = F(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    a = jordan_matrix(blocks)
    p = random_conjugator(Random(draw(st.integers(0, 2**32))), a.dim)

    def conj(x, n=m):
        return p @ mat_power(x, n) @ p.inverse()

    b = conj(a)
    pairs = [
        (GAk(a, 1), GAk(b, 1), "yes", None),
        (GAk(a, k), GAk(b, k**m), "yes", None),
        (Composite(a, varpi, k), Composite(conj(a, 2), varpi, k**2), "yes", None),
        (GAk(a, k), GAk(b, other_root**m), "no", "q"),
        (GAk(a, k), GAk(b, k ** (m + 1)), "no", "varpi"),
        (Composite(a, varpi, k), Composite(b, varpi + 1, k), "no", "varpi"),
    ]
    smallest = min(ev for ev, _ in blocks)
    if any(ev != smallest for ev, _ in blocks):
        other = conj(jordan_matrix([(ev**2 if ev == smallest else ev, n) for ev, n in blocks]))
        pairs += [(GAk(a, 1), GAk(other, 1), "no", "connected-key"),
                  (GAk(a, k), GAk(other, k**m), "no", "connected-key")]
    return pairs


def _check_constructed(pairs):
    """Each pair gets its constructed verdict; yes within focal groups is
    yes for commable, and so is every totally disconnected pair; qi agrees
    with commable; every decision answers the swapped pair alike, with the
    obstruction's values swapped; every yes chain validates; and on a mixed
    pair the catalog lists the fibered ladder iff the within-focal decision
    says yes."""
    decisions = (commable_within_focal, commable, quasi_isometric)
    for g1, g2, kind, invariant in pairs:
        there = [decide(g1, g2) for decide in decisions]
        back = [decide(g2, g1) for decide in decisions]
        within, plain, qi = there
        group_type = classify_type(g1)
        td = group_type is GroupType.TOTALLY_DISCONNECTED
        assert (within.kind, getattr(within, "invariant", None)) == (kind, invariant)
        assert plain.kind == "yes" or (kind == "no" and not td)
        assert qi.kind == plain.kind
        for v, w in zip(there, back):
            assert w.kind == v.kind
            if isinstance(v, No):
                assert w.invariant == v.invariant
                assert tuple(w.values) == tuple(v.values)[::-1]
        for v in there + back:
            if isinstance(v, Yes):
                assert validate_chain(v.chain) == (True, "ok")
        if group_type is GroupType.MIXED and g1 != g2:
            citations = {e.citation for e in pattern_catalog(g1, g2)}
            assert ("fibered-ladder" in citations) == (kind == "yes")


@given(constructed_pairs())
@settings(max_examples=80, deadline=None)
def test_decisions_on_constructed_pairs(pairs):
    _check_constructed(pairs)


def composite_gak_pairs(blocks, j, i, m, p):
    """GAk(A, 2^j) against Composite(P A^m P^-1, j/e, 2^i), for A with the
    Jordan blocks (2^-x, n): delta(A) = 2^e with e = sum x n, so both have
    q = 2 and varpi = j/e and the pair is yes; varpi + 1 gives a no on
    varpi, and q = 3 a no on q."""
    a = jordan_matrix([(F(1, 2**x), n) for x, n in blocks])
    varpi = F(j, sum(x * n for x, n in blocks))
    b = p @ mat_power(a, m) @ p.inverse()
    return [(GAk(a, 2**j), Composite(b, varpi, 2**i), "yes", None),
            (GAk(a, 2**j), Composite(b, varpi + 1, 2**i), "no", "varpi"),
            (GAk(a, 2**j), Composite(b, varpi, 3**i), "no", "q")]


def td_pairs(q, r, a, b, c, index):
    """FT(q^a), FT(q^b) and GAk(MatQ([]), q^c, index) are pairwise yes within
    focal groups; against the root r != q each is no on q (and yes for
    commable, as every totally disconnected pair is)."""
    group = [FT(q**a), FT(q**b), GAk(MatQ([]), q**c, index=index)]
    pairs = [(g1, g2, "yes", None) for g1, g2 in combinations(group, 2)]
    return pairs + [(g, h, "no", "q") for g, h in
                    zip(group, [FT(r**b), GAk(MatQ([]), r**c, index=index), FT(r**a)])]


def two_index_pairs(a, k, i, j):
    """One GAk at the indices i and j, with a contracting action and with
    the empty one: yes within focal groups."""
    return [(GAk(a, k, index=i), GAk(a, k, index=j), "yes", None),
            (GAk(MatQ([]), max(k, 2), index=i), GAk(MatQ([]), max(k, 2), index=j), "yes", None)]


_BLOCKS = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 2)), min_size=1, max_size=2).filter(
    lambda b: sum(n for _, n in b) <= 3)
_ROOTS = [2, 3, 5, 6, 7, 10]  # none a power of another


@given(_BLOCKS, st.integers(1, 4), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_decisions_on_composite_gak_pairs(blocks, j, i, m, seed):
    p = random_conjugator(Random(seed), sum(n for _, n in blocks))
    _check_constructed(composite_gak_pairs(blocks, j, i, m, p))


@given(st.sampled_from(_ROOTS), st.sampled_from(_ROOTS), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 3), st.integers(1, 50))
@settings(max_examples=80, deadline=None)
def test_decisions_on_td_pairs(q, r, a, b, c, index):
    if q != r:
        _check_constructed(td_pairs(q, r, a, b, c, index))


@given(_BLOCKS, st.sampled_from([1] + _TREES), st.integers(1, 50), st.integers(1, 50))
@settings(max_examples=60, deadline=None)
def test_decisions_on_one_gak_at_two_indices(blocks, k, i, j):
    a = jordan_matrix([(F(1, 2**x), n) for x, n in blocks])
    _check_constructed(two_index_pairs(a, k, i, j))


def test_cli_exit_code_matches_the_verdict(tmp_path, capsys):
    """cli.main on descriptor files written by canonical_text exits 0, 1 or
    3 as commable --within-focal and qi say yes, no or undecided."""
    a = 10**80
    near = [GAk(diag(f"1/{a + i}", f"1/{a + i + 1}"), 1) for i in (0, 1)]
    pairs = (composite_gak_pairs([(1, 1), (2, 1)], 2, 3, 2, MatQ([[1, 1], [0, 1]]))
             + td_pairs(2, 3, 1, 2, 3, 4) + two_index_pairs(diag("1/2", "1/8"), 4, 1, 50)
             + [(*near, "undecided", None)])
    codes = {"yes": EXIT_YES, "no": EXIT_NO, "undecided": EXIT_UNDECIDED}
    for n, (g1, g2, kind, _) in enumerate(pairs):
        assert commable_within_focal(g1, g2).kind == kind
        files = []
        for side, g in enumerate((g1, g2)):
            files.append(tmp_path / f"{n}_{side}.json")
            files[-1].write_text(canonical_text(g), encoding="utf-8")
        for decide, argv in ((commable_within_focal, ["commable", "--within-focal"]),
                             (quasi_isometric, ["qi"])):
            verdict = decide(g1, g2).kind
            assert cli_main([argv[0], *map(str, files), *argv[1:]]) == codes[verdict], (n, argv)
            assert json.loads(capsys.readouterr().out)["verdict"] == verdict
    assert {quasi_isometric(*pair[:2]).kind for pair in pairs} == set(codes)


def test_td_catalog_depends_on_ft_and_q_only():
    """On totally disconnected pairs the catalog is a function of whether
    both sides are FT and whether their q agree, four distinct catalogs."""
    pool = [FT(m) for m in range(2, 10)] + [
        GAk(MatQ([]), k, index) for k in (2, 3, 4, 8, 9) for index in (1, 2)]
    catalogs: dict = {}
    for g1, g2 in product(pool, repeat=2):
        if g1 == g2:
            continue
        key = (isinstance(g1, FT) and isinstance(g2, FT), invariant_q(g1) == invariant_q(g2))
        catalogs.setdefault(key, set()).add(tuple(pattern_catalog(g1, g2)))
    assert len(catalogs) == 4 and all(len(c) == 1 for c in catalogs.values())
    assert len({c for cs in catalogs.values() for c in cs}) == 4


# ---------------------------------------------------------------------------
# tree oracle
# ---------------------------------------------------------------------------


def test_ft_index_oracle_examples():
    assert ft_index_oracle(2, 3) == 2
    assert ft_index_oracle(3, 2) == 3
    assert ft_index_oracle(5, 1) == 5


def test_ft_index_oracle_full_admissible_grid():
    for m in range(2, 7):
        for depth in range(1, 6):
            assert ft_index_oracle(m, depth) == m


def test_ft_index_oracle_guards():
    with pytest.raises(ValueError):
        ft_index_oracle(7, 1)
    with pytest.raises(ValueError):
        ft_index_oracle(3, 6)
