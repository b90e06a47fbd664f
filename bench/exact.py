"""The benchmark's own exact arithmetic, written apart from the program.

Inputs are built and outputs are checked with these helpers only, so a
fault in the program's kernels cannot hide behind the same fault in its
checker.  Everything is stdlib: ``fractions.Fraction`` matrices, integer
roots by bisection, and ``math.log`` evaluation of rendered log-ratios.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

# ---------------------------------------------------------------------------
# integers
# ---------------------------------------------------------------------------


def int_root(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0, by bisection on the bit length."""
    if n < 0 or k < 1:
        raise ValueError("int_root needs n >= 0 and k >= 1")
    if n < 2 or k == 1:
        return n
    lo, hi = 1, 1 << (n.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def nonpower_root(n: int) -> tuple[int, int]:
    """(r, e) with r**e == n, e maximal; r == 1 exactly when n == 1.

    Tries every exponent from the largest possible down, so the first hit
    is the maximal one; no factorisation is needed.
    """
    if n < 1:
        raise ValueError("nonpower_root needs n >= 1")
    if n == 1:
        return 1, 1
    for e in range(n.bit_length(), 1, -1):
        r = int_root(n, e)
        if r > 1 and r**e == n:
            return r, e
    return n, 1


# ---------------------------------------------------------------------------
# rational matrices: lists of lists of Fractions
# ---------------------------------------------------------------------------


def identity(n: int) -> list:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a: list, b: list) -> list:
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)]


def jordan(spectrum) -> list:
    """Block-diagonal Jordan matrix; spectrum lists (eigenvalue, block size)."""
    n = sum(size for _, size in spectrum)
    m = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for ev, size in spectrum:
        for i in range(size):
            m[at + i][at + i] = Fraction(ev)
            if i + 1 < size:
                m[at + i][at + i + 1] = Fraction(1)
        at += size
    return m


def unit_lower(n: int, entries) -> list:
    """Unit lower-triangular matrix filled row by row from ``entries``."""
    it = iter(entries)
    return [[Fraction(1) if i == j else (Fraction(next(it)) if j < i else Fraction(0))
             for j in range(n)] for i in range(n)]


def transpose(a: list) -> list:
    return [list(col) for col in zip(*a)]


def unit_triangular_inverse(a: list, lower: bool) -> list:
    """Inverse of a unit triangular matrix by substitution."""
    n = len(a)
    if not lower:
        return transpose(unit_triangular_inverse(transpose(a), True))
    inv = identity(n)
    for i in range(n):
        for j in range(i):
            inv[i][j] = -sum((a[i][k] * inv[k][j] for k in range(j, i)), Fraction(0))
    return inv


def conjugate_lu(lower: list, upper: list, m: list) -> list:
    """P m P^-1 for P = lower @ upper, both unit triangular (so det P = 1)."""
    p = matmul(lower, upper)
    p_inv = matmul(unit_triangular_inverse(upper, False), unit_triangular_inverse(lower, True))
    return matmul(matmul(p, m), p_inv)


def is_triangular(a: list) -> bool:
    n = len(a)
    upper = all(a[i][j] == 0 for i in range(n) for j in range(i))
    lower = all(a[i][j] == 0 for i in range(n) for j in range(i + 1, n))
    return upper or lower


def det(a: list) -> Fraction:
    """Determinant by fraction elimination (used on witnesses only)."""
    m = [list(r) for r in a]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return out


def matpow(a: list, e: int) -> list:
    out = identity(len(a))
    for _ in range(e):
        out = matmul(out, a)
    return out


def matrix_text(a: list) -> list:
    return [[str(Fraction(x)) for x in row] for row in a]


# ---------------------------------------------------------------------------
# log-ratio values as rendered on the wire
# ---------------------------------------------------------------------------

_POWER = r"([0-9]+(?:/[0-9]+)?)(?:\^([0-9]+))?"
_LOG_TERM = re.compile(rf"log\({_POWER}\)/log\({_POWER}\)$")
_RAT = re.compile(r"-?[0-9]+(?:/[0-9]+)?$")


def log_q(x: Fraction) -> float:
    """Natural log of a positive rational; exact-size integers are fine, and
    values near 1 keep their relative precision."""
    x = Fraction(x)
    if Fraction(1, 2) < x < 2:
        return math.log1p(float(x - 1))
    return math.log(x.numerator) - math.log(x.denominator)


def eval_rendered(text: str) -> float:
    """Float value of a rendered invariant: 'inf', a rational, or a sum of
    'log(a)/log(b)' terms, where a and b may carry exponents ('log(2^3)')."""
    text = text.strip()
    if text == "inf":
        return math.inf
    if _RAT.match(text):
        q = Fraction(text)
        return q.numerator / q.denominator
    total = 0.0
    for term in text.split(" + "):
        m = _LOG_TERM.match(term.strip())
        if m is None:
            raise ValueError(f"unrecognised rendered value {text!r}")
        a, ea, b, eb = m.groups()
        total += (int(ea or 1) * log_q(Fraction(a))) / (int(eb or 1) * log_q(Fraction(b)))
    return total


def close(x: float, y: float, rel: float = 1e-9) -> bool:
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= rel * max(abs(x), abs(y), 1e-300)


# ---------------------------------------------------------------------------
# F_p(t) by evaluation: polynomials are ascending coefficient tuples
# ---------------------------------------------------------------------------


def poly_at(coeffs, x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def poly_mul(a, b, p: int) -> tuple:
    """Product in F_p[t] of coefficient tuples (constant term first),
    trailing zeros dropped."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return poly_trim(out, p)


def poly_add(a, b, p: int) -> tuple:
    n = max(len(a), len(b))
    return poly_trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                      for i in range(n)], p)


def poly_trim(a, p: int) -> tuple:
    out = [c % p for c in a]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def rat_at(num, den, x: int, p: int):
    """Value of num/den at x in F_p, or None where den vanishes."""
    d = poly_at(den, x, p)
    if d == 0:
        return None
    return poly_at(num, x, p) * pow(d, p - 2, p) % p
