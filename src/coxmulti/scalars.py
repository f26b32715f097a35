"""Exact scalar arithmetic: rationals and real algebraic extensions Q(g).

Field elements are represented as univariate polynomials in the generator g,
reduced modulo a fixed monic minimal polynomial.  The generator is pinned to
one real root by an isolating interval with rational endpoints; signs of
nonzero elements are decided by refining that interval.  All operations are
exact; no floating point enters any computation.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
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

    The minimal polynomial must be monic, squarefree and irreducible over Q;
    squarefreeness is checked exactly, irreducibility is the caller's
    responsibility (the built-in constructors only produce irreducible moduli)
    and is partially checked by rejecting rational roots.
    """

    def __init__(self, minpoly: Sequence[Fraction], lo: Fraction, hi: Fraction, name: str = "g"):
        mp = _trim([Fraction(c) for c in minpoly])
        if len(mp) < 3:
            raise ValueError("minimal polynomial must have degree >= 2")
        if mp[-1] != 1:
            mp = tuple(c / mp[-1] for c in mp)
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
        self.degree = len(mp) - 1
        self.name = name
        self._lo = lo
        self._hi = hi

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

    def sign_of(self, coeffs: Tuple[Fraction, ...]) -> int:
        """Sign of the element with the given reduced representative."""
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
        cs = _trim([Fraction(c) for c in coeffs])
        if len(cs) >= len(self.minpoly):
            _, cs = _poly_divmod(cs, self.minpoly)
        return AlgebraicNumber(self, cs)

    def generator(self) -> "AlgebraicNumber":
        return self.element((0, 1))

    def zero(self) -> "AlgebraicNumber":
        return AlgebraicNumber(self, ())

    def one(self) -> "AlgebraicNumber":
        return AlgebraicNumber(self, (Fraction(1),))


def _rational_root_candidates(mp) -> List[Fraction]:
    # monic over Q: clear denominators, then p/q with p | a0, q | lead
    den = lcm(*[c.denominator for c in mp]) if len(mp) > 1 else 1
    ints = [int(c * den) for c in mp]
    a0, an = ints[0], ints[-1]
    if a0 == 0:
        return [Fraction(0)]
    cands = set()
    for p in _divisors(abs(a0)):
        for q in _divisors(abs(an)):
            cands.add(Fraction(p, q))
            cands.add(Fraction(-p, q))
    return sorted(cands)


def _divisors(n: int) -> List[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


class AlgebraicNumber:
    """Element of a NumberField; immutable, hashable, exact."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs: Tuple[Fraction, ...]):
        self.field = field
        self.coeffs = coeffs

    # -- coercion -------------------------------------------------------
    def _lift(self, other):
        if isinstance(other, AlgebraicNumber):
            if other.field is not self.field:
                raise ValueError("mixed number fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.element((Fraction(other),))
        return NotImplemented

    # -- ring operations ------------------------------------------------
    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return AlgebraicNumber(self.field, _poly_add(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return AlgebraicNumber(self.field, _poly_scale(self.coeffs, -1))

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        prod = _poly_mul(self.coeffs, o.coeffs)
        if len(prod) >= len(self.field.minpoly):
            _, prod = _poly_divmod(prod, self.field.minpoly)
        return AlgebraicNumber(self.field, prod)

    __rmul__ = __mul__

    def inverse(self) -> "AlgebraicNumber":
        if not self.coeffs:
            raise ZeroDivisionError("algebraic number inverse of zero")
        if len(self.coeffs) == 1:  # a rational element: what Euclid returns
            return AlgebraicNumber(self.field, (1 / self.coeffs[0],))
        # extended Euclid: s*self + t*minpoly = 1
        a, b = self.coeffs, self.field.minpoly
        s0, s1 = (Fraction(1),), ()
        while b:
            q, r = _poly_divmod(a, b)
            a, b = b, r
            s0, s1 = s1, _poly_add(s0, _poly_scale(_poly_mul(q, s1), -1))
        if len(a) != 1:
            raise ArithmeticError("zero divisor: minimal polynomial not irreducible")
        inv = _poly_scale(s0, 1 / a[0])
        _, inv = _poly_divmod(inv, self.field.minpoly)
        return AlgebraicNumber(self.field, _trim(inv))

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

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
        return bool(self.coeffs)

    def __eq__(self, other):
        # elements of distinct fields are never identified (so they can share
        # hash buckets, e.g. in substitution caches, without raising)
        if isinstance(other, AlgebraicNumber):
            return self.field is other.field and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            if len(self.coeffs) > 1:
                return False
            return (self.coeffs[0] if self.coeffs else QQ_ZERO) == other
        return NotImplemented

    def __hash__(self):
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else QQ_ZERO)
        return hash(("algnum", id(self.field), self.coeffs))

    def sign(self) -> int:
        return self.field.sign_of(self.coeffs)

    def __lt__(self, other):
        o = self._lift(other)
        return (self - o).sign() < 0

    def __gt__(self, other):
        o = self._lift(other)
        return (self - o).sign() > 0

    def approx(self, width=Fraction(1, 10**30)) -> Fraction:
        """Rational approximation within the given width (pure bisection)."""
        for _ in range(10000):
            lo, hi = self.field.interval()
            mn, mx = _interval_eval(self.coeffs, lo, hi)
            if mx - mn < width:
                return (mn + mx) / 2
            self.field._refine()
        raise ArithmeticError("approximation did not converge")

    def __repr__(self):
        if not self.coeffs:
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
        if len(x.coeffs) > 1:
            raise ValueError("not a rational scalar")
        return x.coeffs[0] if x.coeffs else Fraction(0)
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
