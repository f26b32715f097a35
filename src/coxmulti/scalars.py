"""Exact scalar arithmetic: rationals and real algebraic extensions Q(g).

Field elements are represented as univariate polynomials in the generator g,
reduced modulo a fixed monic integer minimal polynomial, and stored as integer
numerators over one positive common denominator.  The generator is pinned to
one real root by an isolating interval with rational endpoints; signs of
nonzero elements are decided by refining that interval.  All operations are
exact; no floating point enters any computation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import List, Sequence, Tuple, Union

Scalar = Union[Fraction, "AlgebraicNumber"]

QQ_ZERO = Fraction(0)


def _trim(coeffs: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _poly_add(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _poly_scale(a, c):
    if c == 0:
        return ()
    return tuple(x * c for x in a)


def _poly_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _poly_divmod(a, b):
    """Quotient and remainder of univariate division, b nonzero."""
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv_lead
        if c:
            q[i] = c
            for j, y in enumerate(b):
                a[i + j] -= c * y
    return _trim(q), _trim(a)


def _poly_gcd(a, b):
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a:
        a = tuple(x / a[-1] for x in a)
    return a


def _poly_eval(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _interval_eval(coeffs, lo: Fraction, hi: Fraction):
    """Interval Horner evaluation; returns (min, max) bounds of p on [lo, hi]."""
    mn = mx = Fraction(0)
    for c in reversed(coeffs):
        cands = (mn * lo, mn * hi, mx * lo, mx * hi)
        mn, mx = min(cands) + c, max(cands) + c
    return mn, mx


class NumberField:
    """Real number field Q(g), g a fixed real root of an irreducible polynomial.

    The minimal polynomial must be squarefree and irreducible over Q, and
    monic with integer coefficients once divided by its leading coefficient
    (g is an algebraic integer); squarefreeness is checked exactly,
    irreducibility is the caller's responsibility (the built-in constructors
    only produce irreducible moduli) and is partially checked by rejecting
    rational roots.
    """

    def __init__(self, minpoly: Sequence[Fraction], lo: Fraction, hi: Fraction, name: str = "g"):
        mp = _trim([Fraction(c) for c in minpoly])
        if len(mp) < 3:
            raise ValueError("minimal polynomial must have degree >= 2")
        if mp[-1] != 1:
            mp = tuple(c / mp[-1] for c in mp)
        if any(c.denominator != 1 for c in mp):
            raise ValueError("generator is not an algebraic integer")
        deriv = _trim([mp[i] * i for i in range(1, len(mp))])
        if len(_poly_gcd(mp, deriv)) > 1:
            raise ValueError("minimal polynomial is not squarefree")
        lo, hi = Fraction(lo), Fraction(hi)
        if not _poly_eval(mp, lo) * _poly_eval(mp, hi) < 0:
            raise ValueError("interval does not isolate a root")
        # No rational root may hide inside Q(g): a linear factor would make
        # the modulus reducible.
        for num in _rational_root_candidates(mp):
            if _poly_eval(mp, num) == 0:
                raise ValueError("minimal polynomial has a rational root")
        self.minpoly = mp
        self.degree = d = len(mp) - 1
        self.name = name
        self._lo = lo
        self._hi = hi
        self._mp = [int(c) for c in mp[:d]]  # g^d = -sum(_mp[i] g^i)
        # _fold[k - d] lists the nonzero (i, c_i) of g^k = sum(c_i g^i), for
        # the powers d <= k <= 2d - 2 that a product of reduced elements reaches
        power = [-c for c in self._mp]
        self._fold = []
        for _ in range(d - 1):
            self._fold.append([(i, c) for i, c in enumerate(power) if c])
            top = power[-1]
            power = [0] + power[:-1]
            if top:
                power = [x - top * m for x, m in zip(power, self._mp)]

    def __repr__(self):
        return f"NumberField({self.name}, deg {self.degree})"

    # The isolating interval only ever shrinks; refinement is a monotone
    # cache and does not affect values.
    def _refine(self) -> None:
        mid = (self._lo + self._hi) / 2
        v = _poly_eval(self.minpoly, mid)
        if v == 0:
            raise ArithmeticError("minimal polynomial not irreducible (rational root hit)")
        if v * _poly_eval(self.minpoly, self._lo) < 0:
            self._hi = mid
        else:
            self._lo = mid

    def interval(self, width: Fraction | None = None):
        if width is not None:
            while self._hi - self._lo > width:
                self._refine()
        return self._lo, self._hi

    def sign_of(self, coeffs: Sequence[Union[int, Fraction]]) -> int:
        """Sign of the element with the given reduced representative.

        A positive multiple of the representative, such as its integer
        numerators, has the same sign and needs the same refinements.
        """
        if not coeffs:
            return 0
        if len(coeffs) == 1:
            return -1 if coeffs[0] < 0 else (1 if coeffs[0] > 0 else 0)
        for _ in range(10000):
            mn, mx = _interval_eval(coeffs, self._lo, self._hi)
            if mn > 0:
                return 1
            if mx < 0:
                return -1
            self._refine()
        raise ArithmeticError("sign determination did not converge")

    def element(self, coeffs) -> "AlgebraicNumber":
        fs = [Fraction(c) for c in coeffs]
        den = lcm(*[f.denominator for f in fs])
        num = [f.numerator * (den // f.denominator) for f in fs]
        d, mp = self.degree, self._mp
        for k in range(len(num) - 1, d - 1, -1):  # fold g^k = -sum(mp[i] g^(k-d+i))
            c = num.pop()
            if c:
                for i, m in enumerate(mp, k - d):
                    num[i] -= c * m
        return _canonical(self, num, den)

    def generator(self) -> "AlgebraicNumber":
        return self.element((0, 1))

    def zero(self) -> "AlgebraicNumber":
        return AlgebraicNumber(self, (), 1)

    def one(self) -> "AlgebraicNumber":
        return AlgebraicNumber(self, (1,), 1)


def _rational_root_candidates(mp) -> List[int]:
    # a rational root of a monic integer polynomial is an integer dividing a0
    a0 = int(mp[0])
    if a0 == 0:
        return [0]
    return [s * p for p in _divisors(abs(a0)) for s in (1, -1)]


def _divisors(n: int) -> List[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def _canonical(field: NumberField, num: List[int], den: int) -> "AlgebraicNumber":
    """The element num / den, after trimming num and cancelling gcd(num, den)."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return AlgebraicNumber(field, (), 1)
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
    return AlgebraicNumber(field, tuple(num), den)


class AlgebraicNumber:
    """Element of a NumberField; immutable, hashable, exact.

    The value is sum(num[i] g^i) / den with integer numerators num (no
    trailing zero, fewer than the field's degree) and a positive integer den
    sharing no factor with all of num: one representation per value.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num: Tuple[int, ...], den: int):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The reduced representative's coefficients, ascending in g."""
        return tuple(Fraction(n, self.den) for n in self.num)

    # -- coercion -------------------------------------------------------
    def _parts(self, other):
        """(numerators, denominator) of a field element, int or Fraction."""
        if isinstance(other, AlgebraicNumber):
            if other.field is not self.field:
                raise ValueError("mixed number fields")
            return other.num, other.den
        if isinstance(other, int):
            return ((other,) if other else ()), 1
        if isinstance(other, Fraction):
            return ((other.numerator,) if other else ()), other.denominator
        return None

    def _plus(self, on, od, sign):
        """self + sign * (on / od)."""
        if not on:
            return self
        sn, sd = self.num, self.den
        if not sn:
            return AlgebraicNumber(self.field, on if sign > 0 else tuple([-x for x in on]), od)
        if sd == od:
            den = sd
        else:
            g = gcd(sd, od)
            sn = [x * (od // g) for x in sn]
            on = [x * (sd // g) for x in on]
            den = sd * (od // g)
        if sign > 0:
            num = [a + b for a, b in zip_longest(sn, on, fillvalue=0)]
        else:
            num = [a - b for a, b in zip_longest(sn, on, fillvalue=0)]
        return _canonical(self.field, num, den)

    def _scaled(self, n: int, d: int):
        """self * n / d for coprime integers n, d with d > 0."""
        if not n:
            return AlgebraicNumber(self.field, (), 1)
        return _canonical(self.field, [x * n for x in self.num], self.den * d)

    # -- ring operations ------------------------------------------------
    def __add__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return self._plus(o[0], o[1], 1)

    __radd__ = __add__

    def __neg__(self):
        return AlgebraicNumber(self.field, tuple([-x for x in self.num]), self.den)

    def __sub__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return self._plus(o[0], o[1], -1)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        a, (b, bd) = self.num, o
        if len(b) <= 1:
            return self._scaled(b[0] if b else 0, bd)
        if len(a) <= 1:
            return AlgebraicNumber(self.field, b, bd)._scaled(a[0] if a else 0, self.den)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        field = self.field
        d = field.degree
        if len(out) > d:
            for c, fold in zip(out[d:], field._fold):
                if c:
                    for i, t in fold:
                        out[i] += c * t
            del out[d:]
        return _canonical(field, out, self.den * bd)

    __rmul__ = __mul__

    def inverse(self) -> "AlgebraicNumber":
        if not self.num:
            raise ZeroDivisionError("algebraic number inverse of zero")
        if len(self.num) == 1:  # a rational element: what Euclid returns
            n = self.num[0]
            return AlgebraicNumber(self.field, (self.den if n > 0 else -self.den,), abs(n))
        # extended Euclid: s*self + t*minpoly = 1
        a, b = self.coeffs, self.field.minpoly
        s0, s1 = (Fraction(1),), ()
        while b:
            q, r = _poly_divmod(a, b)
            a, b = b, r
            s0, s1 = s1, _poly_add(s0, _poly_scale(_poly_mul(q, s1), -1))
        if len(a) != 1:
            raise ArithmeticError("zero divisor: minimal polynomial not irreducible")
        return self.field.element(_poly_scale(s0, 1 / a[0]))

    def __truediv__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return self * AlgebraicNumber(self.field, *o).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- predicates -----------------------------------------------------
    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        # elements of distinct fields are never identified (so they can share
        # hash buckets, e.g. in substitution caches, without raising)
        if isinstance(other, AlgebraicNumber):
            return self.field is other.field and self.num == other.num and self.den == other.den
        if isinstance(other, int):
            return self.den == 1 and self.num == ((other,) if other else ())
        if isinstance(other, Fraction):
            return (self.den == other.denominator
                    and self.num == ((other.numerator,) if other else ()))
        return NotImplemented

    def __hash__(self):
        if len(self.num) <= 1:  # equal to the Fraction, so hash like it
            return hash(Fraction(self.num[0], self.den) if self.num else QQ_ZERO)
        return hash(("algnum", id(self.field), self.num, self.den))

    def sign(self) -> int:
        return self.field.sign_of(self.num)

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __repr__(self):
        if not self.num:
            return "0"
        g = self.field.name
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*{g}" if c != 1 else g)
            else:
                parts.append(f"{c}*{g}^{i}" if c != 1 else f"{g}^{i}")
        return " + ".join(parts)


def scalar_is_rational(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction))


def as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, AlgebraicNumber):
        if len(x.num) > 1:
            raise ValueError("not a rational scalar")
        return Fraction(x.num[0], x.den) if x.num else Fraction(0)
    return Fraction(x)


def scalar_determinant(rows: Sequence[Sequence[Scalar]]) -> Scalar:
    """Determinant of a square matrix over Q or Q(g) by Gaussian elimination."""
    a = [list(r) for r in rows]
    det: Scalar = Fraction(1)
    for c in range(len(a)):
        piv = next((i for i in range(c, len(a)) if a[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv], det = a[piv], a[c], -det
        det = det * a[c][c]
        inv = 1 / a[c][c]
        for row in a[c + 1:]:
            f = row[c] * inv
            if f:  # a zero multiple would turn rational entries into field elements
                row[c:] = [x - f * y for x, y in zip(row[c:], a[c][c:])]
    return det


# ---------------------------------------------------------------------------
# Cyclotomic construction of Q(2 cos(2*pi/N))
# ---------------------------------------------------------------------------

def _cyclotomic(n: int) -> Tuple[Fraction, ...]:
    """Coefficients of the n-th cyclotomic polynomial (ascending)."""
    # x^n - 1 divided by the cyclotomic polynomials of proper divisors
    poly = tuple([Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)])
    for d in range(1, n):
        if n % d == 0:
            q, r = _poly_divmod(poly, _cyclotomic(d))
            assert not r
            poly = q
    return poly


def _fold_palindrome(poly) -> Tuple[Fraction, ...]:
    """Write a palindromic even-degree polynomial p(z) as z^d * q(z + 1/z)."""
    d = (len(poly) - 1) // 2
    assert len(poly) == 2 * d + 1 and tuple(poly) == tuple(reversed(poly))
    # v[k](w) = z^k + z^-k as a polynomial in w = z + 1/z
    v_prev, v_cur = (Fraction(2),), (Fraction(0), Fraction(1))
    acc = _poly_scale((poly[d],), 1)
    for k in range(1, d + 1):
        acc = _poly_add(acc, _poly_scale(v_cur if k > 0 else v_prev, poly[d + k]))
        v_prev, v_cur = v_cur, _poly_add(_poly_mul((Fraction(0), Fraction(1)), v_cur),
                                         _poly_scale(v_prev, -1))
    return acc


def cosine_field(n_lines: int) -> Tuple[NumberField, "AlgebraicNumber"]:
    """Field Q(gamma) with gamma = 2*cos(pi/n_lines), plus the generator.

    The minimal polynomial comes from folding the 2*n_lines-th cyclotomic
    polynomial (gamma = 2*cos(2*pi/(2*n_lines))), so it is irreducible by
    construction.
    """
    big_n = 2 * n_lines
    phi = _cyclotomic(big_n)
    mp = _fold_palindrome(phi)
    # gamma = 2 cos(u), u = pi / n_lines, is the largest root of mp; every
    # other root is 2 cos(k u) with k >= 3 odd.  With 3.14 < pi < 3.15,
    # gamma >= 2 - u^2 > cut and 2 cos(3u) <= 2 - 9u^2 + 27u^4/4 < cut for
    # n_lines >= 4, so [cut, 2] isolates gamma without floating point.
    cut = 2 - 4 * (Fraction(63, 20) / n_lines) ** 2
    field = NumberField(mp, cut, Fraction(2), name="g")
    return field, field.generator()


def half_angle_cosines(n_lines: int, field: NumberField, gamma: "AlgebraicNumber"):
    """cos(k*pi/n_lines) for k = 0..n_lines, as exact field elements."""
    # 2 cos(k pi / n) satisfies the Chebyshev-style recurrence
    # v[k+1] = gamma*v[k] - v[k-1] with v[0] = 2, v[1] = gamma.
    two = field.element((2,))
    vals = [two, gamma]
    for _ in range(2, n_lines + 1):
        vals.append(gamma * vals[-1] - vals[-2])
    half = field.element((Fraction(1, 2),))
    return [v * half for v in vals]
