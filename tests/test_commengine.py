"""Unit tests for the commability and quasi-isometry decision engine."""

import json
from collections import Counter
from fractions import Fraction as F
from itertools import combinations, product
from pathlib import Path
from random import Random

import pytest

from focalclass.matexact import MatQ, mat_power
from focalclass.focalmodel import (
    FT,
    Composite,
    GAk,
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

from helpers import (
    descriptor_pool,
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
