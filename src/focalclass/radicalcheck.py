"""Exact verification of the polyfinite-radical counterexample.

The four claims are identities among the units s = t^2 + t^-2, u1 = 1 + t
and u2 = 1 + 1/t of F_p(t), read off exponent vectors over a pairwise
coprime base of F_p[t]: factor refinement of {t, 1 + t, t^4 + 1}, which is
{t, 1 + t} for p = 2, where t^4 + 1 = (1 + t)^4.  A product of powers of
the base is constant exactly when its vector is 0, and is then 1.  So the
level-2 centre (certified for every z in F_p(t)) and the twist are vector
identities, a unit has infinite order iff its vector is nonzero, and the
conjugacy orbits are read from that.  No claim computes in F_p(t); FpRat
is kept as the reference field arithmetic.
"""

from __future__ import annotations

from .exactnum import Record, _is_prime

__all__ = [
    "FpRat",
    "Gamma",
    "standard_units",
    "designated_units",
    "make_generators",
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

    p is tested for primality once, by make; arithmetic on existing
    elements reuses their p and does not test it again.

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

    def _check(self, other: "FpRat"):
        if self.p != other.p:
            raise ValueError("field mismatch")

    def is_zero(self) -> bool:
        return not self.num

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


# ---------------------------------------------------------------------------
# units as exponent vectors over a coprime base of F_p[t]
# ---------------------------------------------------------------------------


def _coprime_base(p: int, polys) -> list:
    """Factor refinement of monic polys: pairwise coprime, monic, non-constant
    polynomials, each of polys a product of their powers, sorted by degree
    and then by coefficients.  Two elements a, b with g = gcd(a, b) != 1 are
    replaced by a/g, g and b/g, and constants are dropped; each split lowers
    the total degree, so the refinement ends."""
    base, pending = [], list(polys)
    while pending:
        f = pending.pop()
        if len(f) == 1:
            continue
        for k, b in enumerate(base):
            g = _pgcd(p, f, b)
            if g != _ONE:
                del base[k]
                pending += [_pdivmod(p, f, g)[0], g, _pdivmod(p, b, g)[0]]
                break
        else:
            base.append(f)
    return sorted(base, key=lambda f: (len(f), f))


def _exponents(p: int, base: list, f: tuple) -> tuple:
    """The exponent vector of the monic f over base, by exact division."""
    vector = []
    for b in base:
        e = 0
        q, r = _pdivmod(p, f, b)
        while not r:
            f, e = q, e + 1
            q, r = _pdivmod(p, f, b)
        vector.append(e)
    if f != _ONE:
        raise ValueError(f"{f} is not a product of the base over F_{p}")
    return tuple(vector)


def _vsum(*vectors: tuple) -> tuple:
    return tuple(map(sum, zip(*vectors)))


def _vneg(v: tuple) -> tuple:
    return tuple(-e for e in v)


def standard_units(p: int) -> tuple[tuple, tuple, tuple]:
    """The exponent vectors of s = (t^4 + 1)/t^2, u1 = 1 + t and
    u2 = (1 + t)/t over the coprime base of F_p[t]."""
    _check_prime(p)
    polys = ((0, 1), (1, 1), (1, 0, 0, 0, 1))  # t, 1 + t, t^4 + 1
    base = _coprime_base(p, polys)
    t, u1, t4 = (_exponents(p, base, f) for f in polys)
    return _vsum(t4, _vneg(t), _vneg(t)), u1, _vsum(u1, _vneg(t))


def designated_units(p: int) -> dict[str, tuple]:
    """The exponent vectors of the five units whose infinite order drives
    the conjugacy growth."""
    s, u1, u2 = standard_units(p)
    return {"s": s, "s^-1*u2": _vsum(_vneg(s), u2), "u2": u2, "s^-1*u1": _vsum(_vneg(s), u1),
            "u1": u1}


def unit_infinite_order(u: tuple) -> bool:
    """True iff the unit with exponent vector u has infinite order in the
    multiplicative group of F_p(t): its k-th power has the vector k*u, which
    is constant only when it is 0, and u = 0 is the unit 1."""
    return any(u)


# ---------------------------------------------------------------------------
# the scaling automorphisms and the discrete groups
# ---------------------------------------------------------------------------


def make_generators(i: int, p: int) -> tuple[tuple, tuple]:
    """The scaling pair (alpha_i, beta_i) of the level-i group, each the
    vectors (u, v) of the automorphism (x, y, z) -> (u x, v y, u v z); the
    multiplier u v on z has the vector u + v."""
    s, u1, u2 = standard_units(p)
    if i == 1:
        return (s, _vsum(_vneg(s), u2)), (s, _vsum(_vneg(s), u1))
    if i == 2:
        return (s, _vsum(_vneg(s), u2, u1)), (s, _vneg(s))
    raise ValueError("level must be 1 or 2")


def check_twist_identity(p: int) -> bool:
    """Componentwise identity making the two ambient groups isomorphic.

    With gamma_1 = beta_1, delta_1 = alpha_1, gamma_2 = alpha_2 and
    delta_2 = beta_2, the 4-tuples (alpha_1, beta_1, gamma_1, delta_1) and
    (alpha_2, beta_2, delta_2, gamma_2) differ exactly by the twist
    (psi(u1^-1), psi(u1), psi(u1), psi(u1^-1)), where psi(v) is
    (x, y, z) -> (x, v y, v z).  Composing scaling automorphisms adds their
    vectors.
    """
    _, u1, _ = standard_units(p)
    alpha1, beta1 = make_generators(1, p)
    alpha2, beta2 = make_generators(2, p)
    lhs = (alpha1, beta1, beta1, alpha1)
    base = (alpha2, beta2, beta2, alpha2)
    twist = (_vneg(u1), u1, u1, _vneg(u1))
    return all(l == (b[0], _vsum(b[1], v)) for l, b, v in zip(lhs, base, twist))


class Gamma:
    """H3(F_p[t, 1/t])^2 x| Z with the level-i action, held as its scaling
    pair (alpha, beta) of exponent vectors over the coprime base of F_p[t]."""

    def __init__(self, i: int, p: int):
        self.p = p
        self.alpha, self.beta = make_generators(i, p)

    def coordinate_generators(self) -> list[tuple[int, int, int]]:
        """The six elementary unit generators as (p, side, coordinate): a 1
        at coordinate 0, 1 or 2 (x, y or z) of the Heisenberg factor on side
        0 or 1, every other coordinate 0 and the Z part 0."""
        return [(self.p, side, coord) for side in (0, 1) for coord in (0, 1, 2)]


def _coordinate_triples(side: int, coord: int) -> tuple[tuple, tuple]:
    """The two Heisenberg factors of the coordinate generator (p, side, coord)."""
    unit = tuple(int(j == coord) for j in range(3))
    return (unit, (0, 0, 0)) if side == 0 else ((0, 0, 0), unit)


def _h3_mul(p: int, g: tuple, h: tuple) -> tuple:
    """The Heisenberg product of integer coordinate triples mod p."""
    return (g[0] + h[0]) % p, (g[1] + h[1]) % p, (g[2] + h[2] + g[0] * h[1]) % p


def check_center_gamma2(p: int, samples: int, degree: int) -> bool:
    """The family (1, (0,0,z)) with z in F_p(t) is exactly central at level 2.

    Every condition is F_p-linear in z.  Beta fixes (0,0,z) iff
    (w - 1) z = 0 for its multiplier w = uv on the centre, and the products
    of (1, (0,0,z)) with the cyclic generator in the two orders differ by
    (0, 0, (1 - w) z).  So w = 1, the vector u + v = 0, settles both for
    every z, of any degree.  The six coordinate generators have n = 0, so
    no action enters their products with the element, and the H3 law adds
    z to both products: z = 1 stands for all z.
    samples and degree only bound each other: ValueError if samples
    exceeds the p^(2*degree + 1) Laurent polynomials of degree <= degree.
    """
    if samples > p ** (2 * degree + 1):
        raise ValueError(f"only {p}^{2 * degree + 1} Laurent polynomials have degree <= {degree}")
    gamma = Gamma(2, p)
    if any(_vsum(*gamma.beta)):  # w = uv is 1 exactly when u + v = 0
        return False
    central = ((0, 0, 0), (0, 0, 1))
    # both factors have n = 0, so each product is taken componentwise in H3
    return all(_h3_mul(p, c, x) == _h3_mul(p, x, c)
               for _, side, coord in gamma.coordinate_generators()
               for c, x in zip(central, _coordinate_triples(side, coord)))


def conjugacy_orbit_size(i: int, g: tuple[int, int, int], bound: int) -> int:
    """Number of distinct conjugates of the coordinate generator
    g = (p, side, coordinate) by the powers -bound..bound of the cyclic
    generator of the level-i group.

    The k-th power scales the coordinate by m^k for its multiplier m (u, v
    or uv of alpha on side 0, of beta on side 1).  A multiplier of infinite
    order fixes no nonzero power, so the window holds 2*bound + 1
    conjugates; the unit 1, vector 0, fixes every power, so it holds one.
    """
    if bound < 0 or bound > 10**3:
        raise ValueError("bound must be between 0 and 1000")
    p, side, coord = g
    u, v = make_generators(i, p)[side]
    return 2 * bound + 1 if unit_infinite_order((u, v, _vsum(u, v))[coord]) else 1
