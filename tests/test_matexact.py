"""Unit tests for the exact rational linear algebra kernels."""

import json
from collections import Counter
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from focalclass import cli, matexact
from focalclass.commengine import (
    No,
    Yes,
    commable,
    commable_within_focal,
    quasi_isometric,
    validate_chain,
)
from focalclass.focalmodel import GAk, compute_invariants
from focalclass.matexact import (
    MatQ,
    NonRationalSpectrumError,
    _nullspace,
    charpoly,
    conjugate,
    is_contracting,
    mat_power,
    power_conjugacy,
    rank,
    spectral_data,
)

from helpers import (
    dense_split_conjugates,
    jordan_matrix,
    random_conjugator,
    random_diagonalizable,
    random_triangular,
    unit_lower,
)


def diag(*values):
    return MatQ.diag([F(v) for v in values])


# ---------------------------------------------------------------------------
# basic operations
# ---------------------------------------------------------------------------


def test_det_and_power_examples():
    assert diag("1/2", "1/4").det() == F(1, 8)
    assert mat_power(diag("1/2"), 3) == diag("1/8")
    assert mat_power(diag("1/2", "1/4"), 0) == MatQ.identity(2)
    assert mat_power(diag("1/2"), -2) == diag(4)


def test_negative_power_of_singular_matrix():
    with pytest.raises(ZeroDivisionError):
        mat_power(MatQ([[0, 1], [0, 0]]), -1)


def cofactor_det(rows):
    if not rows:
        return 1
    return sum(
        (-1) ** j * rows[0][j] * cofactor_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j in range(len(rows))
    )


@st.composite
def rational_matrices(draw, max_dim=5):
    """Square rational matrices; about half are made singular by replacing
    the last row with an integer combination of the others."""
    n = draw(st.integers(1, max_dim))
    entry = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]
    return MatQ(rows)


@given(rational_matrices())
@settings(max_examples=150, deadline=None)
def test_elimination_kernel_properties(a):
    n = a.dim
    d = a.det()
    if n <= 4:
        assert d == cofactor_det(a.rows)
    basis = _nullspace(a.rows, n)
    assert rank(a) + len(basis) == n
    for vec in basis:
        assert all(sum(x * y for x, y in zip(row, vec)) == 0 for row in a.rows)
    if d:
        assert a @ a.inverse() == MatQ.identity(n)
    else:
        with pytest.raises(ZeroDivisionError):
            a.inverse()


def test_charpoly_rotation():
    # x^2 + 1, matching cofactor expansion of xI - A
    assert charpoly(MatQ([[0, 1], [-1, 0]])) == (F(1), F(0), F(1))


def test_empty_matrix_conventions():
    empty = MatQ([])
    assert empty.det() == 1
    assert is_contracting(empty)
    assert spectral_data(empty).entries == ()
    assert conjugate(empty, empty) == MatQ.identity(0)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def test_spectral_examples():
    assert spectral_data(diag("1/2", "1/4")).entries == (
        (F(1, 4), (1,)),
        (F(1, 2), (1,)),
    )
    assert spectral_data(MatQ([["1/2", 1], [0, "1/2"]])).entries == ((F(1, 2), (2,)),)
    with pytest.raises(NonRationalSpectrumError):
        spectral_data(MatQ([[0, 1], [-1, 0]]))
    with pytest.raises(NonRationalSpectrumError):
        spectral_data(diag("1/2", -2))


def test_non_split_spectra_are_rejected():
    rng = Random(19)
    rotation = MatQ([[0, 1], [-1, 0]])  # x^2 + 1
    companion = MatQ([[0, 0, 2], [1, 0, 0], [0, 1, 0]])  # x^3 - 2
    mixed = MatQ([["1/2", 0, 0], [0, 0, 1], [0, 3, 0]])  # (x - 1/2)(x^2 - 3)
    for a in (rotation, companion, mixed):
        p = random_conjugator(rng, a.dim)
        for b in (a, p @ a @ p.inverse()):
            with pytest.raises(NonRationalSpectrumError):
                spectral_data(b)


def test_spectral_data_of_dense_split_conjugates():
    for name, a, evs in dense_split_conjugates():
        assert spectral_data(a).entries == tuple((ev, (1,)) for ev in sorted(evs)), name


@st.composite
def jordan_blocks(draw):
    """(eigenvalue, size) blocks of total size 1-6; about a quarter of the
    blocks repeat an earlier eigenvalue."""
    height = st.integers(1, 10**18)
    blocks, left = [], draw(st.integers(1, 6))
    while left:
        size = draw(st.integers(1, min(left, 3)))
        if blocks and draw(st.integers(0, 3)) == 0:
            ev = draw(st.sampled_from([ev for ev, _ in blocks]))
        else:
            ev = draw(st.builds(F, height, height))
        blocks.append((ev, size))
        left -= size
    return blocks


@given(jordan_blocks(), st.integers(0, 2**32))
@example([(F(10**18 - 1, 10**18), 1), (F(10**17 + 3, 10**18), 2), (F(1, 3), 1)], 1)
@settings(max_examples=50, deadline=None)
def test_spectral_data_conjugation_invariant_property(blocks, seed):
    jordan = jordan_matrix(blocks)
    p = random_conjugator(Random(seed), jordan.dim)
    assert spectral_data(p @ jordan @ p.inverse()) == spectral_data(jordan)


@given(jordan_blocks(), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_stored_spectral_data_is_transparent(blocks, seed):
    jordan = jordan_matrix(blocks)
    p = random_conjugator(Random(seed), jordan.dim)
    a = p @ jordan @ p.inverse()
    data = spectral_data(a)
    assert spectral_data(a) is data
    fresh = MatQ(a.rows)
    assert spectral_data(fresh) == data
    assert a == fresh and hash(a) == hash(fresh) and repr(a) == repr(fresh)


def test_spectral_errors_are_not_stored():
    rotation = MatQ([[0, 1], [-1, 0]])
    for _ in range(2):
        with pytest.raises(NonRationalSpectrumError):
            spectral_data(rotation)
    assert rotation._spectral is None


def test_one_charpoly_per_dense_matrix(monkeypatch):
    """A whole mixed-pair classification runs charpoly once per matrix."""
    calls = Counter()
    counted = matexact.charpoly

    def counting_charpoly(a):
        calls[a.rows] += 1
        return counted(a)

    monkeypatch.setattr(matexact, "charpoly", counting_charpoly)

    def parsed(p, blocks, k):
        a = p @ jordan_matrix(blocks) @ p.inverse()
        text = json.dumps({"kind": "GAk", "A": [[str(x) for x in row] for row in a.rows], "k": k})
        return cli.parse_descriptor(json.loads(text))

    l = unit_lower(4, [1, -1, 2, 1, 0, -1])
    u = MatQ(zip(*unit_lower(4, [2, 1, -1, 0, 1, 1]).rows))
    g1 = parsed(l @ u, [(F(1, 4), 2), (F(1, 9), 1), (F(1, 25), 1)], 4)
    g2 = parsed(u @ l, [(F(1, 2), 2), (F(1, 3), 1), (F(1, 5), 1)], 2)
    compute_invariants(g1)
    compute_invariants(g2)
    verdicts = (commable_within_focal(g1, g2), commable(g1, g2), quasi_isometric(g1, g2))
    assert [v.kind for v in verdicts] == ["yes"] * 3
    for v in verdicts:
        assert validate_chain(v.chain)[0]
    assert power_conjugacy(g1.matrix, g2.matrix, g1.k, g2.k)[:2] == (1, 2)
    assert calls == Counter({g1.matrix.rows: 1, g2.matrix.rows: 1})


def test_is_contracting_examples():
    assert is_contracting(diag("1/2", "1/4"))
    assert not is_contracting(diag("1/2", 2))


def test_spectral_data_of_powers_of_diagonal():
    rng = Random(11)
    for _ in range(30):
        dim = rng.choice([1, 2, 3])
        evs = [F(rng.randint(1, 9), rng.choice([2, 3, 5, 8, 16])) for _ in range(dim)]
        evs = [e if e < 1 else F(1, 2) for e in evs]
        a = MatQ.diag(evs)
        for n in range(1, 7):
            powered = spectral_data(mat_power(a, n))
            base = spectral_data(a)
            assert powered.entries == tuple(
                sorted(((ev**n, blocks) for ev, blocks in base.entries))
            )


def test_spectral_data_conjugation_invariant_with_jordan_blocks():
    rng = Random(12)
    jordan = MatQ([["1/3", 1, 0], [0, "1/3", 0], [0, 0, "1/5"]])
    for _ in range(10):
        p = random_conjugator(rng, 3)
        assert spectral_data(p @ jordan @ p.inverse()).entries == (
            (F(1, 5), (1,)),
            (F(1, 3), (2,)),
        )


# ---------------------------------------------------------------------------
# conjugacy
# ---------------------------------------------------------------------------


def test_conjugate_examples():
    a = diag("1/2", "1/4")
    assert conjugate(a, a) == MatQ.identity(2)
    b = MatQ([["1/2", 0], [1, "1/4"]])
    p = conjugate(a, b)
    assert p is not None
    assert p @ a @ p.inverse() == b
    assert conjugate(diag("1/2", "1/2"), MatQ([["1/2", 1], [0, "1/2"]])) is None


def test_conjugate_dimension_mismatch():
    with pytest.raises(ValueError):
        conjugate(diag("1/2"), diag("1/2", "1/4"))


def test_conjugate_symmetric_presence():
    rng = Random(13)
    for _ in range(40):
        dim = rng.choice([2, 3])
        a = random_triangular(rng, dim, max_den=16)
        b = random_triangular(rng, dim, max_den=16)
        ab = conjugate(a, b)
        ba = conjugate(b, a)
        assert (ab is None) == (ba is None)
        if ab is not None:
            assert ab @ a @ ab.inverse() == b


def test_spectral_data_recovers_constructed_jordan_forms():
    rng = Random(18)
    for _ in range(30):
        # build a Jordan matrix from a random block partition
        blocks = []
        evs = [F(1, 2), F(1, 3), F(2, 5)]
        rng.shuffle(evs)
        for ev in evs[: rng.randint(1, 3)]:
            for _ in range(rng.randint(1, 2)):
                blocks.append((ev, rng.randint(1, 2)))
        expect: dict = {}
        for ev, size in blocks:
            expect.setdefault(ev, []).append(size)
        jordan = jordan_matrix(blocks)
        p = random_conjugator(rng, jordan.dim)
        data = spectral_data(p @ jordan @ p.inverse())
        got = {ev: list(blocks_) for ev, blocks_ in data.entries}
        assert got == {
            ev: sorted(sizes, reverse=True) for ev, sizes in expect.items()
        }


def test_conjugate_outside_family_raises():
    rot = MatQ([[0, 1], [-1, 0]])
    p = random_conjugator(Random(14), 2)
    with pytest.raises(NonRationalSpectrumError):
        conjugate(rot, p @ rot @ p.inverse())


# ---------------------------------------------------------------------------
# power conjugacy
# ---------------------------------------------------------------------------


def test_power_conjugacy_examples():
    a1 = diag("1/2", "1/8")
    a2 = diag("1/4", "1/64")
    got = power_conjugacy(a1, a2, 4, 16)
    assert got is not None and got[:2] == (2, 1)
    n1, n2, p = got
    assert p @ mat_power(a1, n1) @ p.inverse() == mat_power(a2, n2)

    same = power_conjugacy(a1, a1, 4, 4)
    assert same[:2] == (1, 1) and same[2] == MatQ.identity(2)

    assert power_conjugacy(a1, diag("1/16", "1/4096"), 4, 8) is None
    assert power_conjugacy(a1, a2, 4, 7) is None  # no common power at all


def test_power_conjugacy_requires_contracting():
    with pytest.raises(ValueError):
        power_conjugacy(diag(2), diag("1/2"), 2, 2)


def brute_power_conjugacy(a1, a2, k1, k2, bound=12):
    for n1 in range(1, bound + 1):
        for n2 in range(1, bound + 1):
            if k1**n1 == k2**n2 and conjugate(mat_power(a1, n1), mat_power(a2, n2)) is not None:
                return (n1, n2)
    return None


def make_power_related_pair(rng, dim, k1, k2):
    """(a1, a2) with a1**n1 conjugate to a2**n2 at the minimal common pair."""
    from focalclass.exactnum import common_power

    n1, n2 = common_power(k1, k2)
    mus = [F(1, rng.choice([2, 3, 4, 8, 9])) for _ in range(dim)]
    a1 = MatQ.diag([mu**n2 for mu in mus])
    p = random_conjugator(rng, dim)
    a2 = p @ MatQ.diag([mu**n1 for mu in mus]) @ p.inverse()
    return a1, a2


def test_power_conjugacy_against_brute_oracle():
    rng = Random(15)
    positives = 0
    for _ in range(60):
        dim = rng.choice([2, 3])
        q = rng.choice([2, 3, 5])
        k1, k2 = q ** rng.randint(1, 2), q ** rng.randint(1, 2)
        if rng.random() < 0.5:
            a1, a2 = make_power_related_pair(rng, dim, k1, k2)
        else:
            a1 = random_diagonalizable(rng, dim, max_den=9)
            a2 = random_diagonalizable(rng, dim, max_den=9)
        got = power_conjugacy(a1, a2, k1, k2)
        expect = brute_power_conjugacy(a1, a2, k1, k2)
        assert (got is None) == (expect is None)
        if got is not None:
            positives += 1
    assert positives >= 10  # the sample must include genuine positives


# ---------------------------------------------------------------------------
# one-parameter power: connected pairs are commable within focal groups iff
# one action lies on the other's positive one-parameter group up to conjugacy
# ---------------------------------------------------------------------------


def connected_verdict(a1, a2):
    return commable_within_focal(GAk(a1, 1), GAk(a2, 1))


def test_one_param_power_examples():
    a = diag("1/2", "1/4")
    for b in (diag("1/8", "1/64"), diag("1/3", "1/9")):  # t = 3 and t = log 3/log 2
        verdict = connected_verdict(a, b)
        assert isinstance(verdict, Yes)
        assert validate_chain(verdict.chain) == (True, "ok")
    verdict = connected_verdict(a, diag("1/3", "1/8"))
    assert isinstance(verdict, No) and verdict.invariant == "connected-key"


def test_one_param_power_respects_blocks():
    verdict = connected_verdict(MatQ([["1/2", 1], [0, "1/2"]]), diag("1/4", "1/4"))
    assert isinstance(verdict, No) and verdict.invariant == "connected-key"


def test_one_param_power_of_matrix_powers():
    rng = Random(16)
    for _ in range(25):
        dim = rng.choice([1, 2, 3])
        a = random_triangular(rng, dim, max_den=16)
        for n in range(1, 6):
            assert isinstance(connected_verdict(a, mat_power(a, n)), Yes)
