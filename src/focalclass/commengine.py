"""Decision procedures for commability and quasi-isometry on descriptors.

Verdicts are three-valued.  A Yes carries a witness chain: an alternating
sequence of symbolic groups and copci arrows, every arrow citing the
construction law that produces it (see :data:`CITATIONS`).  A No carries a
machine-checkable obstruction, i.e. a named invariant with both values.  An
Undecided records the uncertified comparison that blocked the decision; it
is never collapsed into yes or no.

Witness chains are symbolic: an edge asserts the existence of a copci
homomorphism by citing a constructive law, and :func:`validate_chain` checks
the conservation laws rather than materializing homomorphisms.  Decisions
and validation compare canonical forms with one ladder (:func:`_ladder`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Union

from .exactnum import EQUAL, NOT_EQUAL, Comparison, Undecided, compare_values, maxroot
from .focalmodel import (
    INFINITE,
    FT,
    CanonicalForm,
    FocalDescriptor,
    GroupType,
    HullNotImplementedError,
    HullSpec,
    canonical_form,
    classify_type,
    conn_key_equal,
    focal_universal_hull,
    invariant_q,
    invariant_s,
    render_value,
    root_level,
)

__all__ = [
    "UndecidedComparisonError",
    "SDesc",
    "SFreeGroup",
    "SAutTree",
    "SFTpow",
    "SCompositeProduct",
    "SHull",
    "SymbolicGroup",
    "Arrow",
    "WitnessChain",
    "Yes",
    "No",
    "UndecidedVerdict",
    "Verdict",
    "CITATIONS",
    "INTO",
    "FROM",
    "commable_within_focal",
    "commable",
    "quasi_isometric",
    "PatternEntry",
    "pattern_catalog",
    "validate_chain",
    "ft_index_oracle",
]


class UndecidedComparisonError(Exception):
    """A comparison in a witness chain could not be certified either way."""

    def __init__(self, detail: Undecided):
        super().__init__(f"comparison undecided: {detail!r}")
        self.detail = detail


# ---------------------------------------------------------------------------
# symbolic groups appearing as chain nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SDesc:
    desc: FocalDescriptor


@dataclass(frozen=True)
class SFreeGroup:
    rank: int

    def __post_init__(self):
        if self.rank < 2:
            raise ValueError("free group rank must be >= 2")


@dataclass(frozen=True)
class SAutTree:
    """Full automorphism group of the (m+1)-regular tree (not focal)."""

    m: int


@dataclass(frozen=True)
class SFTpow:
    """FT_q restricted to the open subgroup scaling the cyclic part by n."""

    q: int
    n: int


@dataclass(frozen=True)
class SCompositeProduct:
    """Fibered product H[varpi, m] of the connected class `key`, at index n."""

    key: tuple
    varpi: object
    m: int
    n: int


@dataclass(frozen=True)
class SHull:
    """Focal-universal hull of a connected commability class."""

    key: tuple
    hull: Optional[HullSpec]


SymbolicGroup = Union[SDesc, SFreeGroup, SAutTree, SFTpow, SCompositeProduct, SHull]


INTO = "into-next"
FROM = "from-next"

CITATIONS = {
    "identity": "a group maps to itself by the identity",
    "bass-serre-embedding": (
        "a totally disconnected focal group acts properly and vertex-transitively "
        "on the Bass-Serre tree of its compacting HNN structure, giving a copci map "
        "into the boundary stabilizer FT at the scale of its modular image"
    ),
    "finite-index-subgroup": (
        "the open subgroup rescaling the cyclic part by n embeds copci and shifts "
        "the level of the tree stabilizer or fibered product accordingly"
    ),
    "padic-cocompact-lattice": (
        "the affine p-adic group Q_l x| Z sits as a closed cocompact subgroup of the "
        "tree stabilizers at both scales l^a and l^b"
    ),
    "tree-automorphism-group": (
        "a boundary stabilizer sits copci inside the full automorphism group of its tree"
    ),
    "tree-lattice-free-group": (
        "a full tree automorphism group contains a cocompact free lattice, whose rank "
        "can be matched across two trees"
    ),
    "focal-universal-hull": (
        "every member of a connected commability class admits a copci map into the "
        "class hull"
    ),
    "modular-fibered-product": (
        "a mixed-type group maps copci into the fibered product of its connected hull "
        "with its tree side, glued along modular functions"
    ),
}


@dataclass(frozen=True)
class Arrow:
    direction: str  # INTO or FROM
    citation: str


@dataclass(frozen=True)
class WitnessChain:
    nodes: tuple
    arrows: tuple

    def __post_init__(self):
        if len(self.arrows) != max(0, len(self.nodes) - 1):
            raise ValueError("chain needs exactly one arrow between consecutive nodes")

    def pattern(self) -> str:
        return "".join("↗" if a.direction == INTO else "↖" for a in self.arrows)


@dataclass(frozen=True)
class Yes:
    chain: WitnessChain
    kind = "yes"


@dataclass(frozen=True)
class No:
    invariant: str  # "type" | "q" | "varpi" | "connected-key"
    values: tuple
    note: str = ""
    kind = "no"


@dataclass(frozen=True)
class UndecidedVerdict:
    detail: str
    kind = "undecided"


Verdict = Union[Yes, No, UndecidedVerdict]


# ---------------------------------------------------------------------------
# the ladder over canonical forms, shared by decisions and chain validation
# ---------------------------------------------------------------------------


_OBSTRUCTIONS = {  # invariant: (its value in a form, the note of a No, its quasi-isometry note)
    "type": (lambda f: f.group_type.value, "the type is a commability invariant",
             "the boundary topology separates the types"),
    "q": (lambda f: f.q, "q is an invariant of commability within focal groups",
          "the non-power root is a quasi-isometry invariant on mixed type"),
    "connected-key": (lambda f: _render_key(f.key), "the connected sides are not commable",
                      "one-parameter classes are quasi-isometry classes here"),
    "varpi": (lambda f: render_value(f.varpi), "varpi is an invariant of commability",
              "varpi is a quasi-isometry invariant"),
}


def _ladder(f1: CanonicalForm, f2: CanonicalForm) -> Optional[tuple[str, Comparison]]:
    """The first invariant of the two forms not certified EQUAL, with its
    comparison, or None when the forms agree.

    The order is type, q, then (past totally disconnected pairs, which
    these two already decide) the connected key and varpi.
    """
    if f1.group_type is not f2.group_type:
        return ("type", NOT_EQUAL)
    if f1.q != f2.q:
        return ("q", NOT_EQUAL)
    if f1.group_type is GroupType.TOTALLY_DISCONNECTED:
        return None
    verdict = conn_key_equal(f1.key, f2.key)
    if verdict is not EQUAL:
        return ("connected-key", verdict)
    verdict = compare_values(f1.varpi, f2.varpi)
    if verdict is not EQUAL:
        return ("varpi", verdict)
    return None


def _node_form(node: SymbolicGroup) -> Optional[CanonicalForm]:
    """Canonical form of a focal chain node; None for free groups and full
    tree groups, which are not focal."""
    td = GroupType.TOTALLY_DISCONNECTED
    if isinstance(node, SDesc):
        return canonical_form(node.desc)
    if isinstance(node, SFTpow):
        return CanonicalForm(td, maxroot(node.q)[0], (), INFINITE)
    if isinstance(node, SCompositeProduct):
        return CanonicalForm(GroupType.MIXED, maxroot(node.m)[0], node.key, node.varpi)
    if isinstance(node, SHull):
        return CanonicalForm(GroupType.CONNECTED, 1, node.key, Fraction(0))
    return None


def validate_chain(chain: WitnessChain) -> tuple[bool, str]:
    """Check the conservation laws along a chain.

    Along every within-focal segment the canonical form must be constant:
    group type, q, connected key and varpi, compared by the decision
    ladder.  Every arrow must cite a cataloged construction.  Returns
    (ok, diagnostics); an uncertifiable comparison raises
    UndecidedComparisonError.
    """
    for arrow in chain.arrows:
        if arrow.citation not in CITATIONS:
            return (False, f"unknown construction citation: {arrow.citation}")
        if arrow.direction not in (INTO, FROM):
            return (False, f"bad arrow direction: {arrow.direction}")
    forms = [_node_form(n) for n in chain.nodes]
    for i, (f1, f2) in enumerate(zip(forms, forms[1:])):
        if f1 is None or f2 is None:
            continue  # a non-focal node ends the within-focal segment
        step = _ladder(f1, f2)
        if step is None:
            continue
        invariant, verdict = step
        if verdict is not NOT_EQUAL:
            raise UndecidedComparisonError(verdict)
        render = _OBSTRUCTIONS[invariant][0]
        return (False, f"{invariant} not conserved across edge {i}: {render(f1)} != {render(f2)}")
    return (True, "ok")


# ---------------------------------------------------------------------------
# chain constructions
# ---------------------------------------------------------------------------


def _empty_chain(g: FocalDescriptor) -> WitnessChain:
    return WitnessChain(nodes=(SDesc(g),), arrows=())


def _valley(g1, x1, top, x2, g2, outer: str, inner: str) -> WitnessChain:
    """The chain G1 ↗ x1 ↖ top ↗ x2 ↖ G2: the outer arrows cite ``outer``,
    the two arrows at ``top``, a common subgroup of x1 and x2, cite ``inner``."""
    return WitnessChain(
        nodes=(SDesc(g1), x1, top, x2, SDesc(g2)),
        arrows=(Arrow(INTO, outer), Arrow(FROM, inner), Arrow(INTO, inner), Arrow(FROM, outer)),
    )


def _connected_chain(g1: FocalDescriptor, g2: FocalDescriptor, key: tuple) -> WitnessChain:
    try:
        hull = focal_universal_hull(g1)
    except HullNotImplementedError:
        hull = None
    return WitnessChain(
        nodes=(SDesc(g1), SHull(key, hull), SDesc(g2)),
        arrows=(Arrow(INTO, "focal-universal-hull"), Arrow(FROM, "focal-universal-hull")),
    )


# ---------------------------------------------------------------------------
# decisions
# ---------------------------------------------------------------------------


def commable_within_focal(g1: FocalDescriptor, g2: FocalDescriptor) -> Verdict:
    """Commability with every intermediate group focal.

    The canonical forms of the two groups go through one ladder: type,
    then q, which settles totally disconnected pairs, then the connected
    keys and varpi (both comparisons certified).  Connected type is the
    case q = 1, varpi = 0, where equal keys say that one action lies on
    the other's positive one-parameter group up to conjugacy.
    """
    if g1 == g2:
        return Yes(_empty_chain(g1))
    f1, f2 = canonical_form(g1), canonical_form(g2)
    step = _ladder(f1, f2)
    if step is None:
        if f1.group_type is GroupType.CONNECTED:
            return Yes(_connected_chain(g1, g2, f1.key))
        # both sides step down to the level n = max(n1, n2) of their common root q
        (q, n1), (_, n2) = root_level(g1), root_level(g2)
        n = max(n1, n2)
        if f1.group_type is GroupType.TOTALLY_DISCONNECTED:  # through FT(s), s = q**level
            return Yes(_valley(g1, SDesc(FT(q**n1)), SFTpow(q, n), SDesc(FT(q**n2)), g2,
                               "bass-serre-embedding", "finite-index-subgroup"))
        x1, top, x2 = (SCompositeProduct(f1.key, f1.varpi, m, i)
                       for m, i in ((q**n1, 1), (q, n), (q**n2, 1)))
        return Yes(_valley(g1, x1, top, x2, g2, "modular-fibered-product", "finite-index-subgroup"))
    invariant, verdict = step
    if verdict is not NOT_EQUAL:
        what = "connected key" if invariant == "connected-key" else invariant
        return UndecidedVerdict(f"{what} comparison undecided: {verdict!r}")
    render, note, _ = _OBSTRUCTIONS[invariant]
    if invariant == "connected-key" and f1.group_type is GroupType.CONNECTED:
        note = "the actions lie on different one-parameter classes"
    return No(invariant, (render(f1), render(f2)), note)


def commable(g1: FocalDescriptor, g2: FocalDescriptor) -> Verdict:
    """Unrestricted commability.

    Coincides with commability within focal groups except that all totally
    disconnected descriptors are equivalent, through a free-group chain.
    The ladder separates two of them on q alone, so only that No changes.
    """
    within = commable_within_focal(g1, g2)
    if not (isinstance(within, No) and within.invariant == "q"
            and classify_type(g1) is GroupType.TOTALLY_DISCONNECTED):
        return within
    # rank - 1 = lcm(m1 - 1, m2 - 1) makes a cocompact free lattice of that
    # rank available in both tree automorphism groups
    m1, m2 = invariant_s(g1), invariant_s(g2)
    free = SFreeGroup(1 + lcm(m1 - 1, m2 - 1))
    return Yes(_valley(g1, SAutTree(m1), free, SAutTree(m2), g2,
                       "tree-automorphism-group", "tree-lattice-free-group"))


def quasi_isometric(g1: FocalDescriptor, g2: FocalDescriptor) -> Verdict:
    """Quasi-isometry on the implemented families.

    The decision matches commability everywhere it answers: different types
    are separated by the boundary topology, the connected family is decided
    by the connected key, and on mixed pairs q and varpi are quasi-isometry
    invariants, so the commability conditions are equivalent to
    quasi-isometry.  Every pair, Millefeuille pairs over one connected datum
    included, goes through :func:`commable`.
    """
    verdict = commable(g1, g2)
    if isinstance(verdict, No):
        return No(verdict.invariant, verdict.values, _OBSTRUCTIONS[verdict.invariant][2])
    return verdict


# ---------------------------------------------------------------------------
# pattern catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PatternEntry:
    pattern: str
    status: str  # "exists" | "impossible" | "unknown"
    citation: str


def pattern_catalog(g1: FocalDescriptor, g2: FocalDescriptor) -> list[PatternEntry]:
    """Certified and refuted commation shapes for a pair of descriptors.

    Arrows read left to right between the two groups; an empty pattern is
    the identity.  Boundary-stabilizer pairs carry the richest catalog,
    including the single-valley shape whose status is an open question.
    """
    t1, t2 = classify_type(g1), classify_type(g2)
    if not (
        (t1 is GroupType.TOTALLY_DISCONNECTED and t2 is GroupType.TOTALLY_DISCONNECTED)
        or (t1 is GroupType.MIXED and t2 is GroupType.MIXED)
    ):
        raise ValueError("pattern catalog covers totally disconnected or mixed pairs")
    if g1 == g2:
        return [PatternEntry("", "exists", "identity")]
    if t1 is GroupType.TOTALLY_DISCONNECTED:
        same_root = invariant_q(g1) == invariant_q(g2)
        if isinstance(g1, FT) and isinstance(g2, FT):
            if same_root:
                return [
                    PatternEntry("↗↖", "impossible", "no-common-overgroup"),
                    PatternEntry("↖↗", "exists", "padic-cocompact-lattice"),
                    PatternEntry("↗↖↗↖", "exists", "ft-ladder"),
                    PatternEntry("↖↗↖", "unknown", "open-commability-pattern"),
                ]
            return [
                PatternEntry("↗↖", "impossible", "no-common-overgroup"),
                PatternEntry("↖↗↖", "impossible", "no-two-step-valley"),
            ]
        if same_root:
            return [
                PatternEntry("↗↖↗↖", "exists", "ft-ladder"),
                PatternEntry("↖↗↖↗", "exists", "index-ladder"),
            ]
        return []
    verdict = commable_within_focal(g1, g2)
    if isinstance(verdict, Yes):
        return [
            PatternEntry("↗↖↗↖", "exists", "fibered-ladder"),
            PatternEntry("↖↗↖↗", "exists", "fibered-ladder"),
        ]
    return []


def _render_key(key: tuple) -> str:
    parts = [f"({render_value(r)}; blocks {list(b)})" for r, b in key]
    return "[" + ", ".join(parts) + "]"


# ---------------------------------------------------------------------------
# combinatorial tree oracle
# ---------------------------------------------------------------------------


def ft_index_oracle(m: int, depth: int) -> int:
    """Orbit size of the off-ray neighbor of the base vertex under ray-fixing
    automorphisms of the depth-truncated (m+1)-regular tree.

    The tree is the radius-`depth` ball around x0, with the ray x0..x_depth
    toward the fixed boundary point marked.  Ray-fixing automorphisms are
    generated by swaps of isomorphic sibling subtrees; the orbit is closed
    under those generators by breadth-first enumeration.  By orbit-stabilizer
    the result equals the index [stab(x0) : stab(x0, x_-1)], which is m at
    every depth.
    """
    if not (2 <= m <= 6):
        raise ValueError("oracle guard: m must be in 2..6")
    if not (1 <= depth <= 5):
        raise ValueError("oracle guard: depth must be in 1..5")

    # vertices: ("ray", i) for the marked ray, ("sub", i, path) for the
    # off-ray subtree hanging at ray vertex i; path depth is bounded so that
    # every vertex is within distance `depth` of x0.
    generators = []  # (ray_index, prefix_a, prefix_b): swap two sibling subtrees

    def emit_subtree(ray_i: int, path: tuple, dist: int):
        if dist >= depth:
            return
        children = [path + (j,) for j in range(m)]
        for a, b in zip(children, children[1:]):
            generators.append((ray_i, a, b))
        for child in children:
            emit_subtree(ray_i, child, dist + 1)

    for i in range(0, depth + 1):
        # x0 has m off-ray neighbors; deeper ray vertices have m - 1
        n_children = m if i == 0 else m - 1
        if i + 1 > depth:
            n_children = 0  # outside the ball
        roots = [(j,) for j in range(n_children)]
        for a, b in zip(roots, roots[1:]):
            generators.append((i, a, b))
        for root in roots:
            emit_subtree(i, root, i + 1)

    def apply(gen, vertex):
        gi, pa, pb = gen
        kind, vi, path = vertex
        if vi != gi:
            return vertex
        if path[: len(pa)] == pa:
            return (kind, vi, pb + path[len(pa):])
        if path[: len(pb)] == pb:
            return (kind, vi, pa + path[len(pb):])
        return vertex

    start = ("sub", 0, (0,))
    orbit = {start}
    frontier = [start]
    while frontier:
        vertex = frontier.pop()
        for gen in generators:
            image = apply(gen, vertex)
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return len(orbit)
