"""Seeded descriptor inputs whose invariants and verdicts are known by
construction.

A :class:`Desc` is a wire-format JSON object together with the spectrum the
benchmark built it from, so the expected invariants follow from the
definitions (type, s, q, boundary, varpi, p0) without asking the program.
Connected data are dense unimodular conjugates P J P^-1 of a Jordan matrix
J, with P = L U for random unit lower and upper triangular integer L, U.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from exact import (
    conjugate_lu,
    is_triangular,
    jordan,
    log_q,
    matrix_text,
    nonpower_root,
    unit_lower,
    transpose,
)

# eigenvalue denominators stay at most 64; the seed picks the numerators
DEN_LADDER = (8, 9, 5, 7, 16, 25, 27)


@dataclass
class Desc:
    """A descriptor object plus the spectrum of its connected datum.

    ``spectrum`` lists (eigenvalue, jordan block sizes) with eigenvalues
    distinct; it is empty when the descriptor has no connected side.
    """

    obj: dict
    spectrum: list = field(default_factory=list)

    @property
    def kind(self) -> str:
        return self.obj["kind"]

    def dim(self) -> int:
        return sum(sum(blocks) for _, blocks in self.spectrum)


# ---------------------------------------------------------------------------
# expected invariants, from the definitions
# ---------------------------------------------------------------------------


def s_invariant(obj: dict) -> int:
    kind = obj["kind"]
    if kind == "FT":
        return obj["m"]
    if kind == "GAk":
        return 1 if obj["k"] == 1 else obj["k"] ** obj.get("index", 1)
    if kind == "Composite":
        return obj["q"] ** obj.get("index", 1)
    return obj["k"]


def group_type(obj: dict) -> str:
    if obj["kind"] == "FT":
        return "td"
    if obj["kind"] == "GAk":
        if not obj["A"]:
            return "td"
        return "connected" if obj["k"] == 1 else "mixed"
    return "mixed"


def _logs(spectrum):
    """(log delta, log lambda): total and least expansion of the inverse action."""
    log_delta = sum(-log_q(ev) * sum(blocks) for ev, blocks in spectrum)
    log_lambda = -log_q(max(ev for ev, _ in spectrum))
    return log_delta, log_lambda


def expected(d: Desc) -> dict:
    """Expected invariants: exact type/s/q/boundary, float varpi/p0."""
    obj = d.obj
    kind = group_type(obj)
    s = s_invariant(obj)
    out = {"type": kind, "s": s, "q": nonpower_root(s)[0]}
    if kind == "td":
        out.update(boundary="cantor", varpi=math.inf, p0=math.inf, special=True)
        return out
    dim = d.dim()
    log_delta, log_lambda = _logs(d.spectrum)
    if kind == "connected":
        out.update(boundary=f"sphere({dim})", varpi=0.0, p0=log_delta / log_lambda)
        single = len(d.spectrum) == 1 and all(b == 1 for b in d.spectrum[0][1])
        out["special"] = single
        if all(all(b == 1 for b in blocks) for _, blocks in d.spectrum):
            out["hull_factors"] = sorted((len(b) for _, b in d.spectrum), reverse=True)
        return out
    out.update(boundary=f"xi({dim + 1})", special=False)
    if obj["kind"] == "GAk":
        log_k = math.log(obj["k"])
        out["varpi"] = log_k / log_delta
        out["p0"] = (log_k + log_delta) / log_lambda
    elif obj["kind"] == "Composite":
        v = Fraction(obj["varpi"])
        out["varpi"] = float(v)
        out["p0"] = float(1 + v) * log_delta / log_lambda
    else:
        t = Fraction(obj["t"])
        log_k = math.log(obj["k"])
        out["varpi"] = log_k / (float(t) * log_delta)
        out["p0"] = log_delta / log_lambda + log_k / (float(t) * log_lambda)
    return out


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def ladder_value(rng: Random, den: int) -> Fraction:
    """A random eigenvalue in (0, 1) with exactly this denominator."""
    return Fraction(rng.choice([a for a in range(1, den) if math.gcd(a, den) == 1]), den)


def dense_conjugate(rng: Random, spectrum) -> list:
    """A dense P J P^-1 with det P = 1; spectrum is (eigenvalue, blocks)."""
    pairs = [(ev, b) for ev, blocks in spectrum for b in blocks]
    j = jordan(pairs)
    n = len(j)
    while True:
        lower = unit_lower(n, [rng.choice((-1, 1)) for _ in range(n * (n - 1) // 2)])
        upper = transpose(
            unit_lower(n, [rng.choice((-1, 1)) for _ in range(n * (n - 1) // 2)])
        )
        a = conjugate_lu(lower, upper, j)
        if n == 1 or not is_triangular(a):
            return a


def spectrum_of(evs, blocks_per_ev) -> list:
    """Sorted (eigenvalue, descending blocks) entries."""
    return sorted(
        ((Fraction(ev), tuple(sorted(b, reverse=True))) for ev, b in zip(evs, blocks_per_ev)),
        key=lambda e: e[0],
    )


def distinct_eigenvalues(rng: Random, n: int) -> list:
    """n eigenvalues, the i-th with denominator DEN_LADDER[i]: distinct, and
    of the same height whatever the seed."""
    return [ladder_value(rng, den) for den in DEN_LADDER[:n]]


def block_shapes(rng: Random, dim: int, jordan_blocks: bool):
    """Eigenvalue count and block sizes for a matrix of size dim."""
    if not jordan_blocks or dim < 2:
        return [(1,)] * dim
    # one eigenvalue carries a block of size 2 (or 2+1), the rest are simple
    shapes = [(2,)] if dim < 4 else [(2, 1)]
    used = sum(shapes[0])
    shapes += [(1,)] * (dim - used)
    rng.shuffle(shapes)
    return shapes


def random_spectrum(rng: Random, dim: int, jordan_blocks: bool) -> list:
    shapes = block_shapes(rng, dim, jordan_blocks)
    return spectrum_of(distinct_eigenvalues(rng, len(shapes)), shapes)


def conn_datum(rng: Random, dim: int, jordan_blocks: bool):
    """(matrix rows as text, spectrum) of a dense contracting datum."""
    spectrum = random_spectrum(rng, dim, jordan_blocks)
    return reconjugate(rng, spectrum), spectrum


def reconjugate(rng: Random, spectrum) -> list:
    return matrix_text(dense_conjugate(rng, spectrum))


def power_spectrum(spectrum, j: int) -> list:
    return [(ev**j, blocks) for ev, blocks in spectrum]


def diagonal_text(evs) -> list:
    n = len(evs)
    return [[str(Fraction(evs[i])) if i == j else "0" for j in range(n)] for i in range(n)]
