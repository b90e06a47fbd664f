"""The immutable records on ``exactnum.Record``: construction, ==, hash,
repr and immutability of every record class, against literal values."""

from fractions import Fraction as F

import pytest

from focalclass.commengine import (
    INTO,
    Arrow,
    No,
    PatternEntry,
    SAutTree,
    SCompositeProduct,
    SDesc,
    SFreeGroup,
    SFTpow,
    SHull,
    UndecidedVerdict,
    WitnessChain,
    Yes,
)
from focalclass.exactnum import EQUAL, NOT_EQUAL, LogRatio, Record, Undecided, _Certainty
from focalclass.focalmodel import (
    FT,
    CanonicalForm,
    Cantor,
    GroupType,
    HullSpec,
    Invariants,
    Sphere,
    Xi,
    _Reading,
)
from focalclass.matexact import MatQ, SpectralData
from focalclass.radicalcheck import FpRat

ARROW = Arrow(INTO, "identity")
CHAIN = WitnessChain((SFreeGroup(2), SFreeGroup(3)), (ARROW,))

# (class, its fields in order with literal values, the expected repr)
RECORDS = [
    (_Certainty, {"name": "EQUAL"}, "EQUAL"),
    (MatQ, {"zrows": ((1, 0), (-6, 2)), "zden": 2}, "MatQ(zrows=((1, 0), (-6, 2)), zden=2)"),
    (Undecided, {"estimate_x": 0.5, "estimate_y": 0.25, "width": 0.125},
     "Undecided(estimate_x=0.5, estimate_y=0.25, width=0.125)"),
    (SpectralData, {"entries": ((F(1, 3), (1,)), (F(1, 2), (2, 1)))},
     "SpectralData(entries=((Fraction(1, 3), (1,)), (Fraction(1, 2), (2, 1))))"),
    (Sphere, {"dim": 2}, "Sphere(dim=2)"),
    (Cantor, {}, "Cantor()"),
    (Xi, {"d": 3}, "Xi(d=3)"),
    (Invariants, {"group_type": GroupType.MIXED, "s": 2, "q": 3, "varpi": F(1, 2),
                  "p0": F(3), "boundary": Xi(3)},
     "Invariants(group_type=<GroupType.MIXED: 'mixed'>, s=2, q=3, varpi=Fraction(1, 2), "
     "p0=Fraction(3, 1), boundary=Xi(d=3))"),
    (CanonicalForm, {"group_type": GroupType.CONNECTED, "q": 1, "key": ((F(1), (1,)),), "varpi": 0},
     "CanonicalForm(group_type=<GroupType.CONNECTED: 'connected'>, q=1, "
     "key=((Fraction(1, 1), (1,)),), varpi=0)"),
    (HullSpec, {"dim": 2, "factors": (1, 1)}, "HullSpec(dim=2, factors=(1, 1))"),
    (SDesc, {"desc": FT(3)}, "SDesc(desc=FT(m=3))"),
    (SFreeGroup, {"rank": 2}, "SFreeGroup(rank=2)"),
    (SAutTree, {"m": 3}, "SAutTree(m=3)"),
    (SFTpow, {"q": 2, "n": 3}, "SFTpow(q=2, n=3)"),
    (SCompositeProduct, {"key": (), "varpi": F(1, 2), "m": 2, "n": 3},
     "SCompositeProduct(key=(), varpi=Fraction(1, 2), m=2, n=3)"),
    (SHull, {"key": (), "hull": HullSpec(1, (1,))}, "SHull(key=(), hull=HullSpec(dim=1, factors=(1,)))"),
    (Arrow, {"direction": "into-next", "citation": "identity"},
     "Arrow(direction='into-next', citation='identity')"),
    (WitnessChain, {"nodes": (SFreeGroup(2), SFreeGroup(3)), "arrows": (ARROW,)},
     "WitnessChain(nodes=(SFreeGroup(rank=2), SFreeGroup(rank=3)), "
     "arrows=(Arrow(direction='into-next', citation='identity'),))"),
    (Yes, {"chain": CHAIN},
     "Yes(chain=WitnessChain(nodes=(SFreeGroup(rank=2), SFreeGroup(rank=3)), "
     "arrows=(Arrow(direction='into-next', citation='identity'),)))"),
    (No, {"invariant": "q", "values": (2, 3), "note": "n"}, "No(invariant='q', values=(2, 3), note='n')"),
    (UndecidedVerdict, {"detail": "close"}, "UndecidedVerdict(detail='close')"),
    (PatternEntry, {"pattern": "↗↖", "status": "exists", "citation": "c"},
     "PatternEntry(pattern='↗↖', status='exists', citation='c')"),
    (FpRat, {"p": 3, "num": (1, 1), "den": (0, 1)}, "FpRat(p=3, num=(1, 1), den=(0, 1))"),
    (_Reading, {"conn": MatQ([[F(1, 2)]]), "tree": 6, "index": 2, "varpi": F(1, 2), "t": F(2)},
     "_Reading(conn=MatQ(zrows=((1,),), zden=2), tree=6, index=2, varpi=Fraction(1, 2), "
     "t=Fraction(2, 1))"),
]
# how many of the last fields of a class have a default
DEFAULTS = {No: 1, FpRat: 1, _Reading: 3}
# the constructor that takes a class's fields, where the class's own takes other
# arguments: MatQ(rows) reads rationals into the stored integer fields
BUILDERS = {MatQ: MatQ._from_integers}


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, fields, text):
    values = tuple(fields.values())
    make = BUILDERS.get(cls, cls)
    x = make(*values)
    assert isinstance(x, Record)
    assert tuple(getattr(x, name) for name in fields) == values
    assert x == make(**fields) and not x != make(*values)
    assert hash(x) == hash(values)
    assert repr(x) == text
    assert {x, make(**fields)} == {x}
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert tuple(getattr(x, name) for name in fields) == values
    for cache in (name for name in cls.__annotations__ if name.startswith("_")):
        assert getattr(x, cache) is None
        with pytest.raises(TypeError):
            make(*values, **{cache: None})
        object.__setattr__(x, cache, "filled")  # ==, hash and repr ignore it
    assert x == make(*values) and hash(x) == hash(values) and repr(x) == text
    with pytest.raises(TypeError):
        make(*values, 0)
    with pytest.raises(TypeError):
        make(*values, other=0)
    if values:
        with pytest.raises(TypeError):
            make(*values[:-1 - DEFAULTS.get(cls, 0)])
        with pytest.raises(TypeError):
            make(*values, **{next(iter(fields)): values[0]})


def test_equality_needs_the_same_class():
    assert Sphere(0) != Xi(0) and Xi(0) != Sphere(0)
    assert Sphere(2) != Sphere(3) and Sphere(2) != (2,) and Cantor() != ()
    assert No("q", ("a",), "") != UndecidedVerdict("q")
    assert No("close", (), "") != UndecidedVerdict("close")
    assert SAutTree(3) != SFreeGroup(3)
    assert EQUAL != NOT_EQUAL and EQUAL and not NOT_EQUAL and MatQ([[1]]) != ((F(1),),)
    assert len({Sphere(2), Xi(2), Sphere(2), Cantor(), Cantor()}) == 3


def test_keyword_construction_and_defaults():
    assert No("q", (2, 3)) == No(invariant="q", values=(2, 3)) == No("q", (2, 3), note="")
    assert No("q", (2, 3)).note == "" and No("q", (2, 3), "x").note == "x"
    assert _Reading(None, 3) == _Reading(None, 3, 1, None, F(1)) == _Reading(tree=3, conn=None)
    assert (No("q", ()).kind, Yes(CHAIN).kind, UndecidedVerdict("").kind) == ("no", "yes", "undecided")
    assert repr(No(values=(), invariant="type")) == "No(invariant='type', values=(), note='')"
    assert Undecided(estimate_y=2.0, width=0.5, estimate_x=1.0) == Undecided(1.0, 2.0, 0.5)
    with pytest.raises(TypeError):
        No("q")
    with pytest.raises(TypeError):
        No(values=())
    with pytest.raises(TypeError):
        Sphere()
    with pytest.raises(TypeError):
        Cantor(1)


def test_radicalcheck_records():
    assert FpRat(3, (1, 1)) == FpRat(p=3, num=(1, 1)) == FpRat(3, (1, 1), (1,))
    assert FpRat(3, (1, 1)).den == (1,) and repr(FpRat(3, ())) == "FpRat(p=3, num=(), den=(1,))"
    assert FpRat(3, (1,)) != FpRat(5, (1,)) and FpRat(3, (1,)) != (3, (1,), (1,))
    assert len({FpRat(3, (0, 1)), FpRat(3, (0, 1), (1,)), FpRat(3, (1,))}) == 2


def test_spectral_data_caches_are_unset_and_invisible():
    entries = ((F(1, 4), (1,)), (F(1, 2), (2,)))
    x, fresh = SpectralData(entries), SpectralData(entries=entries)
    assert (x._expansions, x._delta) == (None, None)
    assert x.expansion_powers() == ((F(2), 2), (F(2), 1))
    assert x.delta_power() == (F(2), 4)
    assert (x._expansions, x._delta) == (((F(2), 2), (F(2), 1)), (F(2), 4))
    assert (fresh._expansions, fresh._delta) == (None, None)
    assert x == fresh and hash(x) == hash(fresh) == hash((entries,))
    assert repr(x) == repr(fresh) == (
        "SpectralData(entries=((Fraction(1, 4), (1,)), (Fraction(1, 2), (2,))))")
    with pytest.raises(TypeError):
        SpectralData(entries, _expansions=None)
    with pytest.raises(AttributeError):
        x._delta = None


def test_post_init_checks_still_run():
    with pytest.raises(ValueError):
        SFreeGroup(1)
    with pytest.raises(ValueError):
        SFreeGroup(rank=0)
    with pytest.raises(ValueError):
        WitnessChain((SFreeGroup(2), SFreeGroup(3)), ())
    with pytest.raises(ValueError):
        WitnessChain(nodes=(SFreeGroup(2),), arrows=(ARROW,))
    assert WitnessChain((), ()).pattern() == "" and CHAIN.pattern() == "↗"


def test_log_ratio_keeps_its_own_constructor_and_repr():
    x = LogRatio(8, 4)  # log(2^3)/log(2^2)
    assert (x.p, x.m, x.q, x.n) == (F(2), 3, F(2), 2)
    assert x == LogRatio(a=8, b=4) == LogRatio.of_powers(F(2), 6, F(2), 4)
    assert x != LogRatio(8, 2) and x != Undecided(F(2), 3, F(2))
    assert hash(x) == hash((F(2), 3, F(2), 2))
    assert repr(x) == "log(2^3)/log(2^2)" and repr(LogRatio(3, 2)) == "log(3)/log(2)"
    with pytest.raises(AttributeError):
        x.m = 1
    with pytest.raises(AttributeError):
        del x.p
    with pytest.raises(TypeError):
        LogRatio(8)
    with pytest.raises(ValueError):
        LogRatio(1, 2)
