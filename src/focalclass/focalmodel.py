"""Symbolic descriptors of focal groups and their classification invariants.

A descriptor pins down one group from the implemented families:

* ``FT(m)``: the boundary-point stabilizer in the automorphism group of the
  (m+1)-regular tree (totally disconnected type);
* ``GAk(A, k, index)``: the group built from a contracting rational action A
  on R^(d-1) together with the tree factor of valency parameter k, restricted
  to the open subgroup where the cyclic part is scaled by ``index``;
* ``Composite(A, varpi, q, index)``: the fibered product of the connected
  group described by A with the tree stabilizer of parameter q, glued along
  modular functions through the exponent ``varpi``;
* ``Millefeuille(A, t, k)``: the isometry-relevant group of the horocyclic
  product of the t-rescaled homogeneous space of A with a (k+1)-regular tree.

All invariants are computed exactly.  Scalar invariants that can be
irrational are returned as certified :class:`~focalclass.exactnum.LogRatio`
values in canonical form, never as floats.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .exactnum import (
    EQUAL,
    NOT_EQUAL,
    Comparison,
    LogRatio,
    canonical_value,
    compare_values,
    logratio_add_one,
    logratio_chain_mul,
    logratio_scale,
    maxroot,
)
from .matexact import MatQ, is_contracting, spectral_data

__all__ = [
    "GroupType",
    "Sphere",
    "Cantor",
    "Xi",
    "BoundaryKind",
    "FT",
    "GAk",
    "Composite",
    "Millefeuille",
    "FocalDescriptor",
    "INFINITE",
    "Invariants",
    "CanonicalForm",
    "HullSpec",
    "HullNotImplementedError",
    "classify_type",
    "invariant_s",
    "invariant_q",
    "invariant_varpi",
    "invariant_p0",
    "root_level",
    "boundary",
    "canonical_form",
    "conn_key_equal",
    "focal_universal_hull",
    "is_special",
    "compute_invariants",
    "render_value",
    "conn_matrix",
]

INFINITE = float("inf")


class GroupType(enum.Enum):
    CONNECTED = "connected"
    TOTALLY_DISCONNECTED = "td"
    MIXED = "mixed"


@dataclass(frozen=True)
class Sphere:
    dim: int

    def render(self) -> str:
        return f"sphere({self.dim})"


@dataclass(frozen=True)
class Cantor:
    def render(self) -> str:
        return "cantor"


@dataclass(frozen=True)
class Xi:
    """One-point compactification of R^(d-1) x Cantor x Z."""

    d: int

    def render(self) -> str:
        return f"xi({self.d})"


BoundaryKind = Union[Sphere, Cantor, Xi]


def _check_connspec(a: MatQ, what: str):
    if a.dim < 1:
        raise ValueError(f"{what} needs a connected datum of dimension >= 1")
    if not is_contracting(a):
        raise ValueError(f"{what} needs a contracting action (all eigenvalues in (0,1))")


@dataclass(frozen=True)
class FT:
    """Boundary-point stabilizer in Aut of the (m+1)-regular tree."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"FT needs m >= 2, got {self.m}")


@dataclass(frozen=True)
class GAk:
    """(R^(d-1) x U_k) extended by Z acting by (A, tree shift); index n picks
    the open subgroup where Z is replaced by nZ."""

    matrix: MatQ
    k: int
    index: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"GAk needs k >= 1, got {self.k}")
        if self.index < 1:
            raise ValueError(f"GAk needs index >= 1, got {self.index}")
        if self.matrix.dim == 0 and self.k == 1:
            raise ValueError("GAk with empty action and k = 1 is not focal")
        if not is_contracting(self.matrix):
            raise ValueError("GAk needs a contracting action (all eigenvalues in (0,1))")


@dataclass(frozen=True)
class Composite:
    """Fibered product of the connected group of ``conn`` with the tree
    stabilizer of parameter q, matched through the exponent ``varpi``."""

    conn: MatQ
    varpi: Fraction
    q: int
    index: int = 1

    def __post_init__(self):
        object.__setattr__(self, "varpi", Fraction(self.varpi))
        _check_connspec(self.conn, "Composite")
        if self.varpi <= 0:
            raise ValueError("Composite needs varpi > 0")
        if self.q < 2:
            raise ValueError(f"Composite needs q >= 2, got {self.q}")
        if self.index < 1:
            raise ValueError(f"Composite needs index >= 1, got {self.index}")


@dataclass(frozen=True)
class Millefeuille:
    """Horocyclic product of the t-rescaled space of ``conn`` with a
    (k+1)-regular tree."""

    conn: MatQ
    t: Fraction
    k: int

    def __post_init__(self):
        object.__setattr__(self, "t", Fraction(self.t))
        _check_connspec(self.conn, "Millefeuille")
        if self.t <= 0:
            raise ValueError("Millefeuille needs t > 0")
        if self.k < 2:
            raise ValueError(f"Millefeuille needs k >= 2, got {self.k}")


FocalDescriptor = Union[FT, GAk, Composite, Millefeuille]


class _Reading(NamedTuple):
    """A descriptor as the invariants read it; see :func:`_reading`."""

    conn: Optional[MatQ]  # the connected datum A, None in totally disconnected type
    tree: Optional[int]  # r with s = r**index, None in connected type
    index: int = 1
    varpi: Optional[Fraction] = None  # a given varpi; when None, the rule
    t: Fraction = Fraction(1)  # varpi = log(r) / (t * log(delta(A)))


def _reading(g: FocalDescriptor) -> _Reading:
    """The one place that tells the families apart: each is a connected
    datum, a tree side r**index and a varpi rule.  GAk follows the
    Millefeuille rule at t = 1; a Composite gives its varpi."""
    if isinstance(g, FT):
        return _Reading(None, g.m)
    if isinstance(g, GAk):
        return _Reading(g.matrix if g.matrix.dim else None, g.k if g.k > 1 else None, g.index)
    if isinstance(g, Composite):
        return _Reading(g.conn, g.q, g.index, varpi=g.varpi)
    return _Reading(g.conn, g.k, t=g.t)


def classify_type(g: FocalDescriptor) -> GroupType:
    """Connected / totally disconnected / mixed trichotomy of the descriptor."""
    return _type(_reading(g))


def _type(f: _Reading) -> GroupType:
    if f.conn is None:
        return GroupType.TOTALLY_DISCONNECTED
    return GroupType.CONNECTED if f.tree is None else GroupType.MIXED


def invariant_s(g: FocalDescriptor) -> int:
    """Positive generator of the modular image of the totally disconnected side."""
    return _s(_reading(g))


def _s(f: _Reading) -> int:
    return 1 if f.tree is None else f.tree**f.index


def root_level(g: FocalDescriptor) -> tuple[int, int]:
    """(q, level) with s == q**level, q non-power: read from the tree
    parameter r**e and the index as (r, e * index), never from s itself.
    Connected type has no tree and reads (1, index)."""
    return _root_level(_reading(g))


def _root_level(f: _Reading) -> tuple[int, int]:
    q, e = maxroot(f.tree or 1)
    return q, e * f.index


def invariant_q(g: FocalDescriptor) -> int:
    """Non-power root of the s-invariant."""
    return root_level(g)[0]


def conn_matrix(g: FocalDescriptor) -> Optional[MatQ]:
    """The connected-side datum, when the type has one."""
    return _reading(g).conn


def invariant_varpi(g: FocalDescriptor):
    """Ratio of the totally disconnected to the connected restricted modular
    logs, taken at the volume-expanding generator so the value is positive.

    Returns Fraction(0) in connected type, INFINITE in totally disconnected
    type, otherwise a canonical Fraction or LogRatio.
    """
    return _varpi(_reading(g))


def _varpi(f: _Reading):
    if f.conn is None:
        return INFINITE
    if f.tree is None:
        return Fraction(0)
    if f.varpi is not None:
        return f.varpi
    # log r / log delta from r's root and delta's stored power: nothing is decomposed again
    root, e = maxroot(f.tree)
    varpi = LogRatio.of_powers(Fraction(root), e, *spectral_data(f.conn).delta_power())
    return canonical_value(logratio_scale(varpi, 1 / f.t))


def invariant_p0(g: FocalDescriptor):
    """Critical exponent (1 + varpi) * p0(A), where p0(A) = log(delta)/log(lambda):
    delta is the total volume expansion of the expanding generator and lambda
    its smallest eigenvalue modulus on the connected part.

    Totally disconnected descriptors have no connected part to slow the
    expansion down and get INFINITE.
    """
    f = _reading(g)
    return _p0(f, _varpi(f))


def _p0(f: _Reading, varpi):
    if f.conn is None:
        return INFINITE
    # log delta / log(1/rho): 1/rho is the largest eigenvalue's expansion factor
    data = spectral_data(f.conn)
    p0_conn = LogRatio.of_powers(*data.delta_power(), *data.expansion_powers()[-1])
    if isinstance(varpi, LogRatio):
        # 1 + varpi = log(r^m * delta^n)/log(delta^n) ends at delta's base,
        # where p0(A) starts, so the product only multiplies exponents
        return canonical_value(logratio_chain_mul(logratio_add_one(varpi), p0_conn))
    return canonical_value(logratio_scale(p0_conn, 1 + varpi))


def boundary(g: FocalDescriptor) -> BoundaryKind:
    """Topological type of the visual boundary."""
    return _boundary(_reading(g))


def _boundary(f: _Reading) -> BoundaryKind:
    if f.conn is None:
        return Cantor()
    return Sphere(f.conn.dim) if f.tree is None else Xi(f.conn.dim + 1)


@dataclass(frozen=True)
class Invariants:
    group_type: GroupType
    s: int
    q: int
    varpi: object
    p0: object
    boundary: BoundaryKind


def compute_invariants(g: FocalDescriptor) -> Invariants:
    f = _reading(g)
    varpi = _varpi(f)
    return Invariants(_type(f), _s(f), _root_level(f)[0], varpi, _p0(f, varpi), _boundary(f))


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

ConnKey = tuple  # entries (ratio, jordan blocks), ratio a canonical value


def conn_key(g: FocalDescriptor) -> ConnKey:
    """Scale-invariant comparison key of the connected side.

    Eigenvalues are sorted by decreasing value; each is recorded as the
    canonical ratio log(1/ev)/log(1/ev_max) together with its Jordan block
    multiset.  Rescaling the action by a positive power leaves the key fixed,
    so two connected data share a key iff one lies on the other's positive
    one-parameter group up to conjugacy.
    """
    return _key(_reading(g).conn)


def _key(a: Optional[MatQ]) -> ConnKey:
    return () if a is None else spectral_data(a).ratio_key()


def conn_key_equal(k1: ConnKey, k2: ConnKey) -> Comparison:
    """Certified equality of two connected keys."""
    if len(k1) != len(k2):
        return NOT_EQUAL
    for (r1, b1), (r2, b2) in zip(k1, k2):
        if b1 != b2:
            return NOT_EQUAL
        verdict = compare_values(r1, r2)
        if verdict is not EQUAL:
            return verdict
    return EQUAL


@dataclass(frozen=True)
class CanonicalForm:
    """Complete commability-within-focal invariant: type, q, connected key
    and varpi.  Totally disconnected forms have key () and varpi INFINITE,
    connected forms q = 1 and varpi 0."""

    group_type: GroupType
    q: int
    key: ConnKey
    varpi: object


def canonical_form(g: FocalDescriptor) -> CanonicalForm:
    return _form(_reading(g))


def _form(f: _Reading) -> CanonicalForm:
    return CanonicalForm(_type(f), _root_level(f)[0], _key(f.conn), _varpi(f))


# ---------------------------------------------------------------------------
# hull, special-focal predicate
# ---------------------------------------------------------------------------


class HullNotImplementedError(NotImplementedError):
    """Hull of a non-diagonalizable connected action is not implemented."""


@dataclass(frozen=True)
class HullSpec:
    """Structure of the focal-universal hull R^dim x| (R x K).

    ``factors`` lists the sizes of the orthogonal blocks of the maximal
    compact factor K, one per eigenvalue of the action, largest first.
    """

    dim: int
    factors: tuple

    def render(self) -> str:
        parts = ["ℝ"]
        ones = sum(1 for m in self.factors if m == 1)
        for m in self.factors:
            if m > 1:
                parts.append(f"O({m})")
        if ones == 1:
            parts.append("{±1}")
        elif ones > 1:
            parts.append("{±1}^" + str(ones))
        inner = " × ".join(parts)
        return f"ℝ^{self.dim} ⋊ ({inner})"


def focal_universal_hull(g: FocalDescriptor) -> HullSpec:
    """Hull of a connected diagonalizable descriptor.

    The compact factor is the maximal compact subgroup of the centralizer of
    the one-parameter contraction group: one orthogonal group per eigenspace.
    A single eigenvalue therefore yields the full similarity group, and all
    distinct eigenvalues yield the sign group {+-1}^(d-1).
    """
    if classify_type(g) is not GroupType.CONNECTED:
        raise ValueError("the hull is defined for connected-type descriptors")
    data = spectral_data(conn_matrix(g))
    if not data.is_diagonalizable():
        raise HullNotImplementedError(
            "hull of a non-diagonalizable connected action is not implemented"
        )
    mults = sorted((len(blocks) for _, blocks in data.entries), reverse=True)
    return HullSpec(dim=conn_matrix(g).dim, factors=tuple(mults))


def is_special(g: FocalDescriptor) -> tuple[bool, str]:
    """Whether the group admits a copci homomorphism into a non-focal group.

    Totally disconnected descriptors always do (into the full tree
    automorphism group).  Mixed descriptors never do.  In connected type,
    with an abelian horospherical part, only the homothety actions embed
    into a rank-one isometry group: special iff the action is scalar.
    """
    kind = classify_type(g)
    if kind is GroupType.TOTALLY_DISCONNECTED:
        return (True, "embeds copci into the full automorphism group of a regular tree")
    if kind is GroupType.MIXED:
        return (False, "mixed type: every copci target is again focal")
    data = spectral_data(conn_matrix(g))
    if len(data.entries) == 1 and data.is_diagonalizable():
        return (True, "homothety action: the hull is the full similarity group")
    return (False, "non-homothetic abelian contraction: no rank-one isometry model")


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render_value(v) -> str:
    """Stable string form of an exact invariant value for the wire format."""
    if v == INFINITE:
        return "inf"
    if isinstance(v, (Fraction, LogRatio, int)):
        return str(v)  # a LogRatio renders as log(p^m)/log(q^n), exponent 1 left out
    raise TypeError(f"cannot render {v!r}")
