"""Sparse multivariate polynomials, linear forms and arrangement fractions.

Poly maps exponent tuples to nonzero coefficients (Fraction or
AlgebraicNumber); the zero polynomial is the empty map.  LinearForm is a
normalized nonzero covector so hyperplane identity is syntactic equality.
LogRational is a quotient, reduced only on request, whose denominator is a
product of powers of pairwise non-proportional linear forms; it houses every
rational function this package needs, as all poles sit along hyperplanes.
"""

from __future__ import annotations

from collections import OrderedDict
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from .scalars import (AlgebraicNumber, Scalar, as_fraction, scalar_determinant,
                      scalar_is_rational)

Exponent = Tuple[int, ...]

MINUS_INFINITY = None  # degree of the zero polynomial

# shared power tables for repeated substitutions by the same matrix, least
# recently used evicted first; keyed by hash(key) -> (key, table) so a hit
# hashes the matrix (tuples of Fractions, slow to hash) only once.  The key
# holds each entry's field (or type) beside its value, because a rational
# AlgebraicNumber equals and hashes like the same Fraction, and a table built
# over one field must not serve a matrix over another.
_SUBST_POWER_CACHE: "OrderedDict[int, Tuple[Tuple, Dict]]" = OrderedDict()
_SUBST_CACHE_CAP = 65


def _add_exps(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x + y for x, y in zip(a, b))


def _grlex_key(e: Exponent):
    return (sum(e), e)


def _heap_key(e: Exponent):
    # ascending order of these keys is descending grlex order of e
    return (-sum(e), tuple(-x for x in e), e)


class Poly:
    """Sparse polynomial in a fixed number of variables, exact coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[Dict[Exponent, Scalar]] = None):
        self.nvars = nvars
        self.terms = terms if terms is not None else {}

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars)

    @staticmethod
    def const(nvars: int, c) -> "Poly":
        c = Fraction(c) if isinstance(c, int) else c
        if not c:
            return Poly(nvars)
        return Poly(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars: int, i: int) -> "Poly":
        e = [0] * nvars
        e[i] = 1
        return Poly(nvars, {tuple(e): Fraction(1)})

    @staticmethod
    def monomial(nvars: int, exps: Sequence[int], c=1) -> "Poly":
        c = Fraction(c) if isinstance(c, int) else c
        if not c:
            return Poly(nvars)
        return Poly(nvars, {tuple(exps): c})

    @staticmethod
    def from_linear(coeffs: Sequence[Scalar]) -> "Poly":
        n = len(coeffs)
        terms: Dict[Exponent, Scalar] = {}
        for i, c in enumerate(coeffs):
            if c:
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = Fraction(c) if isinstance(c, int) else c
        return Poly(n, terms)

    # -- predicates -----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and (0,) * self.nvars in self.terms)

    def constant_value(self) -> Scalar:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms[(0,) * self.nvars]

    def degree(self):
        """Total degree, or MINUS_INFINITY (None) for the zero polynomial."""
        if not self.terms:
            return MINUS_INFINITY
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        degs = {sum(e) for e in self.terms}
        return len(degs) == 1

    # -- arithmetic -----------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def _check(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise ValueError("ambient dimension mismatch")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Poly(self.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = -c
            else:
                s = s - c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Poly(self.nvars, out)

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check(other)
            a, b = self.terms, other.terms
            if len(a) > len(b):
                a, b = b, a
            out: Dict[Exponent, Scalar] = {}
            for ea, ca in a.items():
                for eb, cb in b.items():
                    e = _add_exps(ea, eb)
                    c = ca * cb
                    s = out.get(e)
                    if s is None:
                        out[e] = c
                    else:
                        s = s + c
                        if s:
                            out[e] = s
                        else:
                            del out[e]
            return Poly(self.nvars, out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = Fraction(c) if isinstance(c, int) else c
        if not c:
            return Poly(self.nvars)
        return Poly(self.nvars, {e: v * c for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus -------------------------------------------------------
    def partial(self, i: int) -> "Poly":
        if not 0 <= i < self.nvars:
            raise ValueError("variable index out of range")
        out: Dict[Exponent, Scalar] = {}
        for e, c in self.terms.items():
            k = e[i]
            if k:
                e2 = list(e)
                e2[i] = k - 1
                out[tuple(e2)] = c * k
        return Poly(self.nvars, out)

    def substitute_matrix(self, m: Sequence[Sequence[Scalar]]) -> "Poly":
        """Compose with the linear change of variables x -> M x; M invertible.

        Horner's rule, variable by variable: the terms are grouped by their
        exponent of x_i, highest first, and the accumulator is multiplied by
        the image l_i raised to the gap between consecutive exponents.
        Powers of the images are shared between calls with the same matrix
        through _SUBST_POWER_CACHE.
        """
        rows = tuple(tuple(row) for row in m)
        key = (rows, tuple(x.field if isinstance(x, AlgebraicNumber) else type(x)
                           for row in rows for x in row))
        h = hash(key)
        entry = _SUBST_POWER_CACHE.get(h)
        if entry is not None and entry[0] == key:
            cache = entry[1]
        else:
            if not scalar_determinant(rows):
                raise ValueError("singular substitution matrix")
            cache = {}
            _SUBST_POWER_CACHE[h] = (key, cache)
            if len(_SUBST_POWER_CACHE) > _SUBST_CACHE_CAP:
                _SUBST_POWER_CACHE.popitem(last=False)
        _SUBST_POWER_CACHE.move_to_end(h)
        images = [Poly.from_linear(row) for row in m]
        if len(images) != self.nvars:
            raise ValueError("wrong number of substitution images")

        def power(i: int, k: int) -> Poly:
            p = cache.get((i, k))
            if p is None:
                p = images[i] ** k
                cache[(i, k)] = p
            return p

        def horner(terms, i: int) -> Poly:
            if i == self.nvars:  # the exponent is used up: one term is left
                return Poly.const(self.nvars, terms[0][1])
            groups: Dict[int, list] = {}
            for t in terms:
                groups.setdefault(t[0][i], []).append(t)
            acc, last = None, 0
            for k in sorted(groups, reverse=True):
                inner = horner(groups[k], i + 1)
                acc = inner if acc is None else acc * power(i, last - k) + inner
                last = k
            return acc * power(i, last) if last else acc

        if not self.terms:
            return Poly(self.nvars)
        return horner(list(self.terms.items()), 0)

    # -- division -------------------------------------------------------
    def divide_exact(self, d: "Poly") -> Optional["Poly"]:
        """Quotient self/d if the division is exact, else None.

        Long division by the grlex-leading term of d.  The remainder's
        exponents sit in a heap keyed by _heap_key, pushed when they enter
        the remainder and skipped when popped after they have left it, so
        finding the next leading term is logarithmic.  Each quotient
        coefficient has the value and the type of rem[er] / cd, but cd is
        inverted at most once.
        """
        self._check(d)
        if not d.terms:
            raise ZeroDivisionError("polynomial division by zero")
        if not self.terms:
            return Poly(self.nvars)
        ed = max(d.terms, key=_grlex_key)
        cd = d.terms[ed]
        # the leading term's own subtraction cancels rem[er] exactly
        rest = [(e2, c2) for e2, c2 in d.terms.items() if e2 != ed]
        inv = None if isinstance(cd, Fraction) and cd == 1 else 1 / cd
        rem = dict(self.terms)
        heap = [_heap_key(e) for e in rem]
        heapify(heap)
        q: Dict[Exponent, Scalar] = {}
        while rem:
            er = heappop(heap)[2]
            if er not in rem:
                continue
            diff = tuple(a - b for a, b in zip(er, ed))
            if any(x < 0 for x in diff):
                return None
            c = rem.pop(er)
            if inv is not None:
                c = c * inv
            q[diff] = c
            for e2, c2 in rest:
                e = _add_exps(diff, e2)
                s = rem.get(e)
                v = c * c2
                if s is None:
                    rem[e] = -v
                    heappush(heap, _heap_key(e))
                else:
                    s = s - v
                    if s:
                        rem[e] = s
                    else:
                        del rem[e]
        return Poly(self.nvars, q)

    def strip_form(self, form: "LinearForm", limit: Optional[int] = None
                   ) -> Tuple[int, "Poly"]:
        """(k, q) with self = form^k * q, k as large as possible but at most
        limit (unbounded when None); self must be nonzero.

        This is the one loop that divides by a hyperplane form.
        """
        if not self.terms:
            raise ValueError("multiplicity of the zero polynomial")
        fp = form.to_poly()
        k, q = 0, self
        while limit is None or k < limit:
            nxt = q.divide_exact(fp)
            if nxt is None:
                break
            k, q = k + 1, nxt
        return k, q

    def multiplicity_along(self, form: "LinearForm") -> int:
        """Largest k with form^k dividing self; self must be nonzero."""
        return self.strip_form(form)[0]

    # -- rendering ------------------------------------------------------
    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def render(self, names: Optional[Sequence[str]] = None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i+1}" for i in range(self.nvars)]
        parts = []
        for e, c in self.sorted_terms():
            vars_part = "*".join(
                f"{names[i]}^{k}" if k > 1 else names[i] for i, k in enumerate(e) if k
            )
            if isinstance(c, AlgebraicNumber):
                cs = f"({c!r})"
            else:
                cs = str(c)
            if vars_part:
                if cs == "1":
                    parts.append(vars_part)
                elif cs == "-1":
                    parts.append(f"-{vars_part}")
                else:
                    parts.append(f"{cs}*{vars_part}")
            else:
                parts.append(cs)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self):
        return self.render()


class LinearForm:
    """Nonzero covector, normalized so proportional forms compare equal.

    Rational forms store a primitive integer vector with positive first
    nonzero entry; forms over Q(g) are scaled so the first nonzero entry
    is 1.  Normalization is idempotent by construction.
    """

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs: Sequence[Scalar]):
        cs = [Fraction(c) if isinstance(c, int) else c for c in coeffs]
        if all(not c for c in cs):
            raise ValueError("zero linear form")
        if all(scalar_is_rational(c) or (isinstance(c, AlgebraicNumber) and len(c.coeffs) <= 1)
               for c in cs):
            fracs = [as_fraction(c) for c in cs]
            den = lcm(*[f.denominator for f in fracs])
            ints = [int(f * den) for f in fracs]
            g = 0
            for v in ints:
                g = gcd(g, abs(v))
            ints = [v // g for v in ints]
            first = next(v for v in ints if v)
            if first < 0:
                ints = [-v for v in ints]
            cs = [Fraction(v) for v in ints]
        else:
            inv = 1 / next(c for c in cs if c)
            cs = [c * inv for c in cs]
        self.coeffs = tuple(cs)
        self._hash = hash(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        # deterministic ordering for rendering and serialization
        return _form_sort_key(self) < _form_sort_key(other)

    @property
    def nvars(self) -> int:
        return len(self.coeffs)

    def to_poly(self) -> Poly:
        return Poly.from_linear(self.coeffs)

    def dot(self, vec: Sequence) :
        total = None
        for c, v in zip(self.coeffs, vec):
            if not c:
                continue
            term = v * c
            total = term if total is None else total + term
        if total is None:
            total = Fraction(0)
        return total

    def norm_sq(self) -> Scalar:
        total: Scalar = Fraction(0)
        for c in self.coeffs:
            total = total + c * c
        return total

    def pivot_index(self) -> int:
        return next(i for i, c in enumerate(self.coeffs) if c)

    def image(self, m) -> Tuple["LinearForm", Scalar]:
        """The form alpha o M moved by x -> M x, normalized, with the scalar
        c such that alpha o M = c * image (the row vector a^T M)."""
        raw = [self.dot(col) for col in zip(*m)]
        form = LinearForm(raw)
        i = form.pivot_index()
        return form, raw[i] / form.coeffs[i]

    def is_coordinate(self) -> bool:
        return sum(1 for c in self.coeffs if c) == 1

    def render(self, names: Optional[Sequence[str]] = None) -> str:
        return self.to_poly().render(names)

    def __repr__(self):
        return self.render()


def _form_sort_key(form: LinearForm):
    out = []
    for c in form.coeffs:
        if isinstance(c, AlgebraicNumber):
            out.append((1,) + tuple(c.coeffs))
        else:
            out.append((0, c))
    return out


class LogRational:
    """Fraction num / prod(form^k) with poles along fixed hyperplanes; num and
    den may share forms, which only reduced() cancels."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Optional[Mapping[LinearForm, int]] = None):
        self.num = num
        d = {f: e for f, e in (den or {}).items() if e}
        if any(e < 0 for e in d.values()):
            raise ValueError("negative denominator exponent")
        if not num.terms:
            d = {}
        self.den = d

    def reduced(self) -> "LogRational":
        """The same value with no form of den dividing num; this (num, den)
        is the one canonical pair of the value."""
        num, den = self.num, {}
        for form, e in self.den.items():
            k, num = num.strip_form(form, e)
            if k < e:
                den[form] = e - k
        return LogRational(num, den)

    # -- constructors ---------------------------------------------------
    @staticmethod
    def from_poly(p: Poly) -> "LogRational":
        return LogRational(p)

    @staticmethod
    def zero(nvars: int) -> "LogRational":
        return LogRational(Poly.zero(nvars))

    @staticmethod
    def const(nvars: int, c) -> "LogRational":
        return LogRational(Poly.const(nvars, c))

    @staticmethod
    def coerce(x, nvars: int) -> "LogRational":
        """A LogRational, Poly or scalar as a LogRational in nvars variables."""
        if isinstance(x, LogRational):
            return x
        if isinstance(x, Poly):
            return LogRational.from_poly(x)
        return LogRational.const(nvars, x)

    # -- predicates -----------------------------------------------------
    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def is_poly(self) -> bool:
        return not self.reduced().den

    def as_poly(self) -> Poly:
        r = self.reduced()
        if r.den:
            raise ValueError("denominator is nontrivial")
        return r.num

    def degree(self):
        """Homogeneity degree (num degree minus denominator degree)."""
        if self.num.is_zero():
            return MINUS_INFINITY
        return self.num.degree() - sum(self.den.values())

    def is_homogeneous(self) -> bool:
        return self.num.is_homogeneous()

    def __eq__(self, other):
        if isinstance(other, Poly):
            other = LogRational.from_poly(other)
        if not isinstance(other, LogRational):
            return NotImplemented
        common = common_denominator((self.den, other.den))
        return self.numerator_over(common) == other.numerator_over(common)

    # -- arithmetic -----------------------------------------------------
    def numerator_over(self, den: Mapping[LinearForm, int]) -> Poly:
        """The numerator of self written over den, a multiple of self.den
        (every form of self.den in den, to at least the same power).

        This is the one place that clears fractions to a common denominator.
        """
        return self.num * form_product(self.nvars, {f: e - self.den.get(f, 0)
                                                    for f, e in den.items()})

    def __add__(self, other):
        o = LogRational.coerce(other, self.nvars)
        if self.nvars != o.nvars:
            raise ValueError("ambient dimension mismatch")
        common = common_denominator((self.den, o.den))
        return LogRational(self.numerator_over(common) + o.numerator_over(common), common)

    __radd__ = __add__

    def __neg__(self):
        return LogRational(-self.num, self.den)

    def __sub__(self, other):
        return self + (-LogRational.coerce(other, self.nvars))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, AlgebraicNumber)):
            return LogRational(self.num * other, self.den)
        o = LogRational.coerce(other, self.nvars)
        den: Dict[LinearForm, int] = dict(self.den)
        for f, e in o.den.items():
            den[f] = den.get(f, 0) + e
        return LogRational(self.num * o.num, den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LogRational":
        if n < 0:
            raise ValueError("negative power of an arrangement fraction")
        out = LogRational.const(self.nvars, 1)
        for _ in range(n):
            out = out * self
        return out

    def mul_form_power(self, form: LinearForm, k: int) -> "LogRational":
        """Multiply by form^k (k may be negative)."""
        if k == 0 or self.is_zero():
            return self
        if k > 0:
            e = self.den.get(form, 0)
            drop = min(e, k)
            den = dict(self.den)
            if drop == e:
                den.pop(form, None)
            else:
                den[form] = e - drop
            num = self.num * form.to_poly() ** (k - drop)
            return LogRational(num, den)
        den = dict(self.den)
        den[form] = den.get(form, 0) - k
        return LogRational(self.num, den)

    def partial(self, i: int) -> "LogRational":
        """Exact partial derivative (quotient rule over the form powers)."""
        base = LogRational(self.num.partial(i), self.den)
        for form, e in self.den.items():
            a_i = form.coeffs[i]
            if not a_i:
                continue
            den = dict(self.den)
            den[form] = e + 1
            base = base + LogRational(self.num * (-e * a_i), den)
        return base

    def substitute_matrix(self, m) -> "LogRational":
        """Compose with x -> M x; forms renormalize and carry scalars out."""
        num = self.num.substitute_matrix(m)
        scal: Scalar = Fraction(1)
        den: Dict[LinearForm, int] = {}
        for form, e in self.den.items():
            nf, c = form.image(m)
            den[nf] = den.get(nf, 0) + e
            scal = scal * c ** e
        return LogRational(num * (1 / scal), den)

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        """Exact value at a point of Q^n or Q(g)^n off every denominator form."""
        value: Scalar = Fraction(0)
        for e, c in self.num.terms.items():
            for x, k in zip(point, e):
                if k:
                    c = c * x ** k
            value = value + c
        for form, e in self.den.items():
            value = value / form.dot(point) ** e
        return value

    def render(self, names: Optional[Sequence[str]] = None) -> str:
        r = self.reduced()
        num = r.num.render(names)
        if not r.den:
            return num
        dens = []
        for form in sorted(r.den):
            e = r.den[form]
            base = f"({form.render(names)})"
            dens.append(f"{base}^{e}" if e > 1 else base)
        return f"({num}) / ({'*'.join(dens)})"

    def __repr__(self):
        return self.render()


def common_denominator(dens: Iterable[Mapping[LinearForm, int]]) -> Dict[LinearForm, int]:
    """The least common multiple of products of form powers, each given as
    form -> exponent (the den of a LogRational, say), in first-seen order."""
    common: Dict[LinearForm, int] = {}
    for den in dens:
        for f, e in den.items():
            common[f] = max(common.get(f, 0), e)
    return common


def form_product(nvars: int, exps: Mapping[LinearForm, int]) -> Poly:
    """Expanded product of form powers (exponents must be nonnegative)."""
    if any(e < 0 for e in exps.values()):
        raise ValueError("negative exponent in form product")
    out = Poly.const(nvars, 1)
    for form, e in exps.items():
        if e:
            out = out * form.to_poly() ** e
    return out

