"""Exact verification of the polyfinite-radical counterexample.

Everything is computed in the rational function field F_p(t): the standard
units s = t^2 + t^-2, u1 = 1 + t, u2 = 1 + 1/t, the Heisenberg product on
H3(F_p(t)), the level-1 and level-2 scaling pairs (alpha, beta) and the
compact twist that makes the two ambient groups isomorphic.  The four
claims reduce to: an exact central family in the level-2 group (certified
for every z in F_p(t) by the identity w = 1 for the multiplier of beta on
the centre), unbounded conjugacy growth in the level-1 group (counted from
the stabiliser: non-torsion unit multipliers fix no nonzero power), the
infinite order of five designated units, and a componentwise identity of
scaling automorphisms.  No claim multiplies group elements whose Z part is
nonzero, so the group law of H3^2 x| Z, with the inverses and subtraction
it would need, is not here.
"""

from __future__ import annotations

from math import lcm

from .exactnum import Record, _is_prime

__all__ = [
    "FpRat",
    "H3Elem",
    "AutTriple",
    "GammaElem",
    "Gamma",
    "standard_units",
    "designated_units",
    "make_generators",
    "psi",
    "h3_mul",
    "check_center_gamma2",
    "conjugacy_orbit_size",
    "unit_infinite_order",
    "check_twist_identity",
]


# ---------------------------------------------------------------------------
# polynomials over F_p: tuples of ints in [0, p), ascending, no trailing zeros
# ---------------------------------------------------------------------------


def _trim(c: list) -> tuple:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(p: int, a: tuple, b: tuple) -> tuple:
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p for i in range(n)])


def _pmul(p: int, a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _pdivmod(p: int, a: tuple, b: tuple) -> tuple:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], p - 2, p)
    while len(rem) >= len(b):
        if rem[-1] == 0:
            rem.pop()
            continue
        shift = len(rem) - len(b)
        coeff = rem[-1] * inv_lead % p
        quo[shift] = coeff
        for i in range(len(b)):
            rem[shift + i] = (rem[shift + i] - coeff * b[i]) % p
        rem.pop()
    return _trim(quo), _trim(rem)


def _pgcd(p: int, a: tuple, b: tuple) -> tuple:
    while b:
        if len(a) == 1 or len(b) == 1:  # a nonzero constant divides everything
            return _ONE
        _, r = _pdivmod(p, a, b)
        a, b = b, r
    if not a:
        return ()
    inv_lead = pow(a[-1], p - 2, p)
    return tuple(x * inv_lead % p for x in a)


_ONE = (1,)


def _cancel(p: int, a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """a / g and b / g for g = gcd(a, b); no division when g is 1."""
    g = _pgcd(p, a, b)
    if g == _ONE:
        return a, b
    return _pdivmod(p, a, g)[0], _pdivmod(p, b, g)[0]


def _check_prime(p: int) -> None:
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")


class FpRat(Record):
    """Reduced fraction of polynomials over F_p, denominator monic.

    p is tested for primality once, by the public constructors (make, const,
    monomial); arithmetic on existing elements reuses their p and
    does not test it again.

    Arithmetic skips the gcds whose answer is known, and every result is
    still in lowest terms.  A gcd is 1 at once when an operand, or a
    remainder in Euclid's algorithm, is a nonzero constant.  A sum with
    zero is the other operand as it stands, which is reduced.  A product
    of reduced fractions can only cancel num against the other den, so it
    takes those two cross gcds and skips the division by one that is 1:
    coprime parts stay coprime.
    """

    p: int
    num: tuple
    den: tuple = _ONE

    @classmethod
    def make(cls, p: int, num, den=(1,)) -> "FpRat":
        _check_prime(p)
        return cls._reduced(p, num, den)

    @classmethod
    def _reduced(cls, p: int, num, den) -> "FpRat":
        """num/den in lowest terms with monic denominator; p is already prime."""
        num = _trim([c % p for c in num])
        den = _trim([c % p for c in den])
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return cls(p, (), _ONE)
        num, den = _cancel(p, num, den)
        inv_lead = pow(den[-1], p - 2, p)
        num = tuple(c * inv_lead % p for c in num)
        den = tuple(c * inv_lead % p for c in den)
        return cls(p, num, den)

    @classmethod
    def const(cls, p: int, c: int) -> "FpRat":
        return cls.make(p, (c,))

    @classmethod
    def monomial(cls, p: int, k: int, coeff: int = 1) -> "FpRat":
        """coeff * t**k, any integer k (negative gives a Laurent monomial)."""
        if k >= 0:
            return cls.make(p, (0,) * k + (coeff,))
        return cls.make(p, (coeff,), (0,) * (-k) + (1,))

    def _check(self, other: "FpRat"):
        if self.p != other.p:
            raise ValueError("field mismatch")

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        """True iff the reduced fraction is a nonzero scalar."""
        return len(self.num) == 1 and self.den == _ONE

    def __add__(self, other: "FpRat") -> "FpRat":
        self._check(other)
        if not self.num:  # both operands are reduced, so x + 0 is x as it stands
            return other
        if not other.num:
            return self
        p = self.p
        num = _padd(p, _pmul(p, self.num, other.den), _pmul(p, other.num, self.den))
        return FpRat._reduced(p, num, _pmul(p, self.den, other.den))

    def __mul__(self, other: "FpRat") -> "FpRat":
        self._check(other)
        p = self.p
        if self.is_zero() or other.is_zero():
            return FpRat(p, (), _ONE)
        # both operands reduced: cross gcds are all that can cancel
        num1, den2 = _cancel(p, self.num, other.den)
        num2, den1 = _cancel(p, other.num, self.den)
        num = _pmul(p, num1, num2)
        den = _pmul(p, den1, den2)
        inv_lead = pow(den[-1], p - 2, p)
        return FpRat(
            self.p,
            tuple(c * inv_lead % p for c in num),
            tuple(c * inv_lead % p for c in den),
        )

    def inv(self) -> "FpRat":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        p = self.p
        inv_lead = pow(self.num[-1], p - 2, p)
        return FpRat(
            p,
            tuple(c * inv_lead % p for c in self.den),
            tuple(c * inv_lead % p for c in self.num),
        )

    def __pow__(self, n: int) -> "FpRat":
        if n < 0:
            return self.inv() ** (-n)
        result = FpRat(self.p, _ONE)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result


def standard_units(p: int) -> tuple[FpRat, FpRat, FpRat]:
    """(s, u1, u2) with s = t^2 + t^-2, u1 = 1 + t, u2 = 1 + 1/t."""
    t = FpRat.monomial(p, 1)
    one = FpRat.const(p, 1)
    s = t**2 + t**-2
    u1 = one + t
    u2 = one + t**-1
    return s, u1, u2


def designated_units(p: int) -> dict[str, FpRat]:
    """The five units whose infinite order drives the conjugacy growth."""
    s, u1, u2 = standard_units(p)
    return {
        "s": s,
        "s^-1*u2": s.inv() * u2,
        "u2": u2,
        "s^-1*u1": s.inv() * u1,
        "u1": u1,
    }


# ---------------------------------------------------------------------------
# Heisenberg group and its scaling automorphisms
# ---------------------------------------------------------------------------


class H3Elem(Record):
    """Upper unitriangular 3x3 matrix with entries (x, y, z) over F_p(t)."""

    x: FpRat
    y: FpRat
    z: FpRat


def h3_identity(p: int) -> H3Elem:
    zero = FpRat.const(p, 0)
    return H3Elem(zero, zero, zero)


def h3_mul(g: H3Elem, h: H3Elem) -> H3Elem:
    g.x._check(h.x)
    return H3Elem(g.x + h.x, g.y + h.y, g.z + h.z + g.x * h.y)


class AutTriple(Record):
    """The automorphism (x, y, z) -> (u x, v y, u v z) of the Heisenberg group."""

    u: FpRat
    v: FpRat

    def __post_init__(self):
        if self.u.is_zero() or self.v.is_zero():
            raise ValueError("automorphism parameters must be nonzero")

    @property
    def w(self) -> FpRat:
        return self.u * self.v

    def compose(self, other: "AutTriple") -> "AutTriple":
        return AutTriple(self.u * other.u, self.v * other.v)


def make_generators(i: int, p: int) -> tuple[AutTriple, AutTriple]:
    """The scaling pair (alpha_i, beta_i) of the level-i group."""
    s, u1, u2 = standard_units(p)
    if i == 1:
        return AutTriple(s, s.inv() * u2), AutTriple(s, s.inv() * u1)
    if i == 2:
        return AutTriple(s, s.inv() * u2 * u1), AutTriple(s, s.inv())
    raise ValueError("level must be 1 or 2")


def psi(v: FpRat) -> AutTriple:
    """The compact-direction twist (x, y, z) -> (x, v y, v z)."""
    return AutTriple(FpRat.const(v.p, 1), v)


def check_twist_identity(p: int) -> bool:
    """Componentwise identity making the two ambient groups isomorphic.

    With gamma_1 = beta_1, delta_1 = alpha_1, gamma_2 = alpha_2 and
    delta_2 = beta_2, the 4-tuples (alpha_1, beta_1, gamma_1, delta_1) and
    (alpha_2, beta_2, delta_2, gamma_2) differ exactly by the twist
    (psi(u1^-1), psi(u1), psi(u1), psi(u1^-1)).
    """
    _, u1, _ = standard_units(p)
    alpha1, beta1 = make_generators(1, p)
    alpha2, beta2 = make_generators(2, p)
    gamma1, delta1 = beta1, alpha1
    gamma2, delta2 = alpha2, beta2
    lhs = (alpha1, beta1, gamma1, delta1)
    base = (alpha2, beta2, delta2, gamma2)
    twist = (psi(u1.inv()), psi(u1), psi(u1), psi(u1.inv()))
    return all(l == b.compose(w) for l, b, w in zip(lhs, base, twist))


# ---------------------------------------------------------------------------
# the discrete groups
# ---------------------------------------------------------------------------


class GammaElem(Record):
    """Element ((a, b), n) of the double Heisenberg group extended by Z."""

    a: H3Elem
    b: H3Elem
    n: int


class Gamma:
    """H3(F_p[t, 1/t])^2 x| Z with the level-i action, held as its scaling
    pair (alpha, beta) and its coordinate generators; elements are computed
    in H3(F_p(t))^2 x| Z, which contains it."""

    def __init__(self, i: int, p: int):
        _check_prime(p)
        self.i = i
        self.p = p
        self.alpha, self.beta = make_generators(i, p)

    def coordinate_generators(self) -> list[GammaElem]:
        """The six elementary unit generators, one per Heisenberg coordinate."""
        one = FpRat.const(self.p, 1)
        zero = FpRat.const(self.p, 0)
        ident = h3_identity(self.p)
        elems = []
        for coords in ((one, zero, zero), (zero, one, zero), (zero, zero, one)):
            elems.append(GammaElem(H3Elem(*coords), ident, 0))
        for coords in ((one, zero, zero), (zero, one, zero), (zero, zero, one)):
            elems.append(GammaElem(ident, H3Elem(*coords), 0))
        return elems


def check_center_gamma2(p: int, samples: int, degree: int) -> bool:
    """The family (1, (0,0,z)) with z in F_p(t) is exactly central at level 2.

    Every condition is F_p-linear in z.  Beta fixes (0,0,z) iff
    (w - 1) z = 0 for its multiplier w = uv on the centre, and the products
    of (1, (0,0,z)) with the cyclic generator in the two orders differ by
    (0, 0, (1 - w) z).  So w = 1 settles both for every z, of any degree.
    The six coordinate generators have n = 0, so no action enters their
    products with the element, and the H3 law adds z to both products:
    z = 1 stands for all z.
    samples and degree only bound each other: ValueError if samples
    exceeds the p^(2*degree + 1) Laurent polynomials of degree <= degree.
    """
    if samples > p ** (2 * degree + 1):
        raise ValueError(f"only {p}^{2 * degree + 1} Laurent polynomials have degree <= {degree}")
    gamma = Gamma(2, p)
    one, zero = FpRat(p, _ONE), FpRat(p, ())
    if gamma.beta.w != one:
        return False
    central = GammaElem(h3_identity(p), H3Elem(zero, zero, one), 0)
    # both factors have n = 0, so each product is taken componentwise in H3
    return all(h3_mul(c, x) == h3_mul(x, c) for gen in gamma.coordinate_generators()
               for c, x in ((central.a, gen.a), (central.b, gen.b)))


def conjugacy_orbit_size(i: int, g: GammaElem, bound: int) -> int:
    """Number of distinct conjugates of g by the powers -bound..bound of the
    cyclic generator, counted from the stabiliser of g without a walk.

    The k-th power sends ((a, b), n) to ((alpha^k a, beta^k b), n), scaling
    the coordinates x, y, z of a by u^k, v^k, (uv)^k (and b likewise), so the
    k fixing g form dZ: d = 0 if a nonzero coordinate has a multiplier of
    infinite order, else d is the lcm of the orders of those multipliers.
    The window holds min(d, 2*bound + 1) conjugates, 2*bound + 1 if d = 0.
    The identity has no conjugacy orbit worth counting and is rejected.
    """
    if bound < 0 or bound > 10**3:
        raise ValueError("bound must be between 0 and 1000")
    p = g.a.x.p
    alpha, beta = make_generators(i, p)
    if g.n == 0 and all(c.is_zero() for h in (g.a, g.b) for c in (h.x, h.y, h.z)):
        raise ValueError("conjugacy orbit of the identity is trivial")
    period = 1
    for aut, h in ((alpha, g.a), (beta, g.b)):
        for mult, coord in ((aut.u, h.x), (aut.v, h.y), (aut.w, h.z)):
            if coord.is_zero():
                continue
            if unit_infinite_order(mult):
                return 2 * bound + 1
            # a torsion unit is a constant c whose order divides p - 1
            c = mult.num[0]
            order = next(e for e in range(1, p) if (p - 1) % e == 0 and pow(c, e, p) == 1)
            period = lcm(period, order)
    return min(period, 2 * bound + 1)


def unit_infinite_order(u: FpRat) -> bool:
    """True iff u has infinite order in the multiplicative group of F_p(t).

    Torsion units are exactly the nonzero constants: any constant has order
    dividing p - 1 (verified by direct exponentiation, which raises
    ValueError if it fails), while the k-th power of a nonconstant reduced
    fraction has |k| times its degree, so no nonzero power of it is 1.
    """
    if u.is_zero():
        raise ZeroDivisionError("zero is not a unit")
    if not u.is_constant():
        return True
    if u ** (u.p - 1) != FpRat(u.p, _ONE):
        raise ValueError(f"{u.num[0]}^{u.p - 1} is not 1 mod {u.p}, so {u.p} is not prime")
    return False
