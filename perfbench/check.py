"""Exact checks of basis certificates that share no code with coxmulti.

Everything here is rebuilt from first principles: the hyperplanes of each
arrangement, the number fields Q(g) with g = 2cos(pi/L), the degree tables
of the theorem and the arithmetic.  A certificate is read from its JSON text
and tested at seeded random rational points:

* det(theta_i(x_j)) = c * prod alpha_H^{m(H)}, with the claimed c != 0;
* theta(alpha_H) has order at least m(H) along H, read off a Laurent
  series along a random line through a random point of H;
* the exponents follow p*h1 + q*h2 - d_i + 1 (B and F4 cells) and sum to |m|;
* bases for odd multiplicities are fixed by every reflection of W.

Hyperplane forms follow the documented normalization of the certificates
(primitive integer vectors with positive first entry; over Q(g), first
nonzero entry 1), since the Saito scalar c is stated relative to it.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

# Degrees of the basic invariants of W, W1 and W2, as the theorem uses them.
DEGREES = {
    "B3": {"W": [2, 4, 6], "W1": [2, 2, 2], "W2": [2, 3, 4]},
    "F4": {"W": [2, 6, 8, 12], "W1": [2, 4, 4, 6], "W2": [2, 4, 4, 6]},
}
CASE_TABLE = {1: "W", 2: "W1", 3: "W2"}

# Minimal polynomials of g = 2cos(pi/L), ascending coefficients.
MINPOLY = {6: (-3, 0, 1), 8: (2, 0, -4, 0, 1)}


class CheckError(Exception):
    """A certificate failed an independent check."""


# ---------------------------------------------------------------------------
# Q(g)
# ---------------------------------------------------------------------------

class NumberField:
    def __init__(self, lines: int):
        self.lines = lines
        self.mp = tuple(Fraction(c) for c in MINPOLY[lines])
        self.deg = len(self.mp) - 1
        g = 2 * math.cos(math.pi / lines)
        if abs(sum(float(c) * g ** k for k, c in enumerate(self.mp))) > 1e-9:
            raise CheckError(f"minimal polynomial table is wrong for L={lines}")

    def element(self, coeffs) -> "QG":
        cs = [Fraction(c) for c in coeffs] + [Fraction(0)] * self.deg
        return QG(self, tuple(cs[:self.deg]))

    def gen(self) -> "QG":
        return self.element([0, 1])


class QG:
    """Element of Q(g), stored as its coefficients in 1, g, .., g^(deg-1)."""

    __slots__ = ("f", "c")

    def __init__(self, f: NumberField, c):
        self.f = f
        self.c = c

    def _lift(self, o):
        if isinstance(o, QG):
            return o
        return QG(self.f, (Fraction(o),) + (Fraction(0),) * (self.f.deg - 1))

    def __add__(self, o):
        if not isinstance(o, QG):
            return QG(self.f, (self.c[0] + o,) + self.c[1:])
        return QG(self.f, tuple(a + b for a, b in zip(self.c, o.c)))

    __radd__ = __add__

    def __neg__(self):
        return QG(self.f, tuple(-a for a in self.c))

    def __sub__(self, o):
        return self + (-o)

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        if not isinstance(o, QG):
            return QG(self.f, tuple(a * o for a in self.c))
        n = self.f.deg
        prod = [Fraction(0)] * (2 * n - 1)
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(o.c):
                    if b:
                        prod[i + j] += a * b
        mp = self.f.mp
        for k in range(2 * n - 2, n - 1, -1):
            t = prod[k]
            if t:
                for i in range(n + 1):
                    prod[k - n + i] -= t * mp[i]
        return QG(self.f, tuple(prod[:n]))

    __rmul__ = __mul__

    def inverse(self) -> "QG":
        # solve (multiplication by self) x = 1 by Gauss-Jordan over Q
        n = self.f.deg
        cols = []
        basis = [self.f.element([0] * k + [1]) for k in range(n)]
        for b in basis:
            cols.append((self * b).c)
        a = [[cols[j][i] for j in range(n)] + [Fraction(1 if i == 0 else 0)]
             for i in range(n)]
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col]), None)
            if piv is None:
                raise ZeroDivisionError("inverse of zero in Q(g)")
            a[col], a[piv] = a[piv], a[col]
            inv = 1 / a[col][col]
            a[col] = [x * inv for x in a[col]]
            for r in range(n):
                if r != col and a[r][col]:
                    fac = a[r][col]
                    a[r] = [x - fac * y for x, y in zip(a[r], a[col])]
        return QG(self.f, tuple(a[r][n] for r in range(n)))

    def __truediv__(self, o):
        if not isinstance(o, QG):
            return QG(self.f, tuple(a / o for a in self.c))
        return self * o.inverse()

    def __rtruediv__(self, o):
        return self.inverse() * o

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self._lift(1)
        for _ in range(k):
            out = out * self
        return out

    def __bool__(self):
        return any(self.c)

    def __eq__(self, o):
        return not (self - o)

    def is_rational(self) -> bool:
        return not any(self.c[1:])


# ---------------------------------------------------------------------------
# Arrangements
# ---------------------------------------------------------------------------

def _normalize(coeffs):
    """Primitive integer vector with positive first entry (rational forms);
    first nonzero entry 1 over Q(g)."""
    rational = all(not isinstance(c, QG) or c.is_rational() for c in coeffs)
    if rational:
        fr = [Fraction(c.c[0]) if isinstance(c, QG) else Fraction(c) for c in coeffs]
        den = math.lcm(*[f.denominator for f in fr])
        ints = [int(f * den) for f in fr]
        g = 0
        for v in ints:
            g = math.gcd(g, abs(v))
        ints = [v // g for v in ints]
        if next(v for v in ints if v) < 0:
            ints = [-v for v in ints]
        return tuple(Fraction(v) for v in ints)
    first = next(c for c in coeffs if c)
    return tuple(c / first for c in coeffs)


class Arrangement:
    """Hyperplanes (form, orbit) of a two-orbit Coxeter arrangement."""

    def __init__(self, family: str, params: dict):
        self.field = None
        if family == "B":
            r = params["rank"]
            self.rank = r
            e = [[Fraction(int(i == k)) for k in range(r)] for i in range(r)]
            hyps = [(e[i], 1) for i in range(r)]
            for i, j in itertools.combinations(range(r), 2):
                for s in (-1, 1):
                    hyps.append(([a + s * b for a, b in zip(e[i], e[j])], 2))
            self.key = f"B{r}"
        elif family == "F4":
            self.rank = 4
            e = [[Fraction(int(i == k)) for k in range(4)] for i in range(4)]
            hyps = []
            for i, j in itertools.combinations(range(4), 2):
                for s in (-1, 1):
                    hyps.append(([a + s * b for a, b in zip(e[i], e[j])], 1))
            hyps += [(e[i], 2) for i in range(4)]
            for signs in itertools.product((1, -1), repeat=3):
                hyps.append(([Fraction(1, 2)] + [Fraction(s, 2) for s in signs], 2))
            self.key = "F4"
        elif family in ("G2", "I2"):
            n = 3 if family == "G2" else params["n"]
            lines = 2 * n
            self.rank = 2
            self.field = NumberField(lines)
            g = self.field.gen()
            v = [self.field.element([2]), g]  # v[j] = 2cos(j*pi/L)
            for _ in range(2, lines + 1):
                v.append(g * v[-1] - v[-2])
            hyps = []
            for k in range(lines):
                sin_k = v[abs(n - k)] * Fraction(1, 2)
                cos_k = v[k] * Fraction(1, 2)
                hyps.append(([-sin_k, cos_k], 1 if k % 2 == 0 else 2))
            self.key = f"{family}({lines})"
        else:
            raise CheckError(f"unknown family {family}")
        self.hyperplanes = [(_normalize(f), orbit) for f, orbit in hyps]
        if len({tuple(map(repr, f)) for f, _ in self.hyperplanes}) != len(hyps):
            raise CheckError("duplicate hyperplanes")

    def orbit_size(self, tag: int) -> int:
        return sum(1 for _, o in self.hyperplanes if o == tag)

    def reflect(self, form, x):
        """s_alpha(x) = x - 2 (alpha.x)/(alpha.alpha) alpha."""
        ax = dot(form, x)
        aa = dot(form, form)
        k = ax * 2 / aa
        return [xi - k * ai for xi, ai in zip(x, form)]

    def random_point(self, rng: random.Random):
        """Rational point off every hyperplane."""
        while True:
            pt = [Fraction(rng.randint(-60, 60), rng.randint(1, 17)) for _ in range(self.rank)]
            if all(dot(f, pt) for f, _ in self.hyperplanes):
                return pt

    def scalar(self, obj):
        if isinstance(obj, dict):
            if self.field is None:
                raise CheckError("extension coefficient over Q")
            return self.field.element([Fraction(int(n), int(d)) for n, d in obj["ext"]])
        n, d = obj
        return Fraction(int(n), int(d))


def dot(a, b):
    total = Fraction(0)
    for x, y in zip(a, b):
        if x and y:
            total = x * y + total
    return total


# ---------------------------------------------------------------------------
# Evaluation of certificate entries
# ---------------------------------------------------------------------------

class Entry:
    """One coefficient num / prod(form^e) of a basis derivation."""

    def __init__(self, arr: Arrangement, obj):
        num = obj["num"]
        self.terms = [(tuple(int(k) for k in e), arr.scalar(c)) for e, c in num["terms"]]
        if int(num["nvars"]) != arr.rank:
            raise CheckError("wrong number of variables")
        self.den = [(tuple(arr.scalar(c) for c in coeffs), int(e)) for coeffs, e in obj["den"]]

    def degrees(self):
        return {sum(e) for e, _ in self.terms}

    def den_degree(self) -> int:
        return sum(e for _, e in self.den)

    def at(self, pt, powers):
        num = Fraction(0)
        for exp, c in self.terms:
            v = c
            for i, k in enumerate(exp):
                if k:
                    v = v * powers[i][k]
            num = v + num
        den = Fraction(1)
        for form, e in self.den:
            den = den * dot(form, pt) ** e
        return num / den


def _powers(pt, top: int):
    out = []
    for x in pt:
        row = [Fraction(1)]
        for _ in range(top):
            row.append(row[-1] * x)
        out.append(row)
    return out


def _det(m):
    n = len(m)
    a = [list(r) for r in m]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c]
        for r in range(c + 1, n):
            if a[r][c]:
                fac = a[r][c] / a[c][c]
                a[r] = [x - fac * y for x, y in zip(a[r], a[c])]
    return det


# -- truncated power series in t, for the order along a hyperplane -----------

def _ser_mul(a, b, n):
    out = [Fraction(0)] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i]):
                if y:
                    out[i + j] = x * y + out[i + j]
    return out


def _ser_inv(a, n):
    """1 / a for a series with a[0] != 0."""
    inv0 = 1 / a[0]
    out = [inv0] + [Fraction(0)] * (n - 1)
    for k in range(1, n):
        s = Fraction(0)
        for j in range(1, min(k, len(a) - 1) + 1):
            if a[j]:
                s = a[j] * out[k - j] + s
        out[k] = -s * inv0
    return out


def order_along(entries, weights, form, p0, v, need: int):
    """True when sum_j w_j entries_j has order >= need along form = 0.

    The sum is restricted to the line p0 + t v with form(p0) = 0 and
    form(v) != 0; its Laurent coefficients of t^k, k < need, must vanish.
    """
    pole = 0
    for ent, w in zip(entries, weights):
        if w:
            for f, e in ent.den:
                if not dot(f, p0):
                    pole = max(pole, e)
    width = need + pole  # coefficients t^-pole .. t^(need-1)
    if width <= 0:
        return True
    total = [Fraction(0)] * width
    line = [[p, d] for p, d in zip(p0, v)]
    for ent, w in zip(entries, weights):
        if not w:
            continue
        top = max((max(e) for e, _ in ent.terms), default=0)
        pw = []
        for s in line:
            row = [[Fraction(1)]]
            for _ in range(top):
                row.append(_ser_mul(row[-1], s, width))
            pw.append(row)
        num = [Fraction(0)] * width
        for exp, c in ent.terms:
            ser = [c]
            for i, k in enumerate(exp):
                if k:
                    ser = _ser_mul(ser, pw[i][k], width)
            for k, x in enumerate(ser):
                if x:
                    num[k] = x + num[k]
        shift = pole
        for f, e in ent.den:
            a0, a1 = dot(f, p0), dot(f, v)
            if not a0:
                # f vanishes on the line's base point: f = a1 * t
                shift -= e
                num = [x / a1 ** e for x in num]
            else:
                num = _ser_mul(num, _ser_inv([a0, a1], width) if e == 1 else
                               _ser_pow_inv(a0, a1, e, width), width)
        # num * t^(-(pole - shift)) lands at index offset shift
        for k, x in enumerate(num):
            idx = k + shift
            if x and idx < width:
                total[idx] = w * x + total[idx]
    return not any(total)


def _ser_pow_inv(a0, a1, e, n):
    base = _ser_inv([a0, a1], n)
    out = base
    for _ in range(e - 1):
        out = _ser_mul(out, base, n)
    return out


# ---------------------------------------------------------------------------
# Certificate checks
# ---------------------------------------------------------------------------

_ARRANGEMENTS: dict = {}


def arrangement_for(obj) -> Arrangement:
    params = obj.get("params") or {}
    key = (obj["family"], params.get("rank"), params.get("n"))
    arr = _ARRANGEMENTS.get(key)
    if arr is None:
        arr = Arrangement(obj["family"], params)
        _ARRANGEMENTS[key] = arr
    return arr


def predicted_exponents(arr: Arrangement, p: int, q: int, case: int):
    table = DEGREES[arr.key]
    h1, h2 = max(table["W1"]), max(table["W2"])
    degs = table[CASE_TABLE[case]] if case in CASE_TABLE else [1] * arr.rank
    return sorted(p * h1 + q * h2 - d + 1 for d in degs)


def _point_on(form, rng, arr):
    """Rational point (or Q(g) point) on form = 0 and a direction off it."""
    piv = next(i for i, c in enumerate(form) if c)
    while True:
        x = [Fraction(rng.randint(-60, 60), rng.randint(1, 17)) for _ in range(arr.rank)]
        # move x along e_piv onto the hyperplane
        x[piv] = x[piv] - dot(form, x) / form[piv]
        others = [f for f, _ in arr.hyperplanes if f is not form]
        if all(dot(f, x) for f in others):
            v = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(arr.rank)]
            if dot(form, v):
                return x, v


def check_certificate(text: str, rng: random.Random, expect=None, points: int = 2):
    """Run every independent check on one certificate; raise CheckError.

    expect: optional dict with "pq_case" = (p, q, case) for B/F4 cells or
    "m" = (m1, m2) for rank-2 cells, compared with the file's claims.
    """
    obj = json.loads(text)
    arr = arrangement_for(obj)
    mult = obj["multiplicity"]
    m1, m2 = int(mult["m1"]), int(mult["m2"])
    m_of = {1: m1, 2: m2}
    basis = [[Entry(arr, c) for c in d["coeffs"]] for d in obj["basis"]]
    if len(basis) != arr.rank or any(len(b) != arr.rank for b in basis):
        raise CheckError("basis has the wrong shape")
    exps = [int(e) for e in obj["exponents"]]
    # homogeneity and degrees, read off the terms
    degs = []
    for theta in basis:
        ds = set()
        for ent in theta:
            for d in ent.degrees():
                ds.add(d - ent.den_degree())
        if len(ds) != 1:
            raise CheckError("basis element is not homogeneous")
        degs.append(ds.pop())
    if sorted(degs) != sorted(exps):
        raise CheckError(f"degrees {degs} differ from exponents {exps}")
    total = m1 * arr.orbit_size(1) + m2 * arr.orbit_size(2)
    if sum(exps) != total:
        raise CheckError(f"exponents sum to {sum(exps)}, |m| = {total}")
    if expect is not None:
        if "pq_case" in expect:
            p, q, case = expect["pq_case"]
            want = predicted_exponents(arr, p, q, case)
            if sorted(exps) != want:
                raise CheckError(f"exponents {exps}, theorem gives {want}")
            if obj["case"] != str(case):
                raise CheckError("case claim differs from the cell")
            mp = {1: (2 * p - 1, 2 * q - 1), 2: (2 * p - 1, 2 * q),
                  3: (2 * p, 2 * q - 1), 4: (2 * p, 2 * q)}[case]
            if (m1, m2) != mp:
                raise CheckError("multiplicity differs from the cell")
        if "m" in expect and (m1, m2) != tuple(expect["m"]):
            raise CheckError("multiplicity differs from the cell")
    c = arr.scalar(obj["saito_c"])
    if not c:
        raise CheckError("claimed Saito scalar is zero")
    top = max(max((max(e) for e, _ in ent.terms), default=0) for th in basis for ent in th)
    odd = m1 % 2 != 0 and m2 % 2 != 0
    for _ in range(points):
        pt = arr.random_point(rng)
        pw = _powers(pt, top)
        vals = [[ent.at(pt, pw) for ent in theta] for theta in basis]
        det = _det(vals)
        prod = Fraction(1)
        for form, orbit in arr.hyperplanes:
            prod = prod * dot(form, pt) ** m_of[orbit]
        if not det == c * prod:
            raise CheckError("Saito determinant differs from c * prod alpha^m")
        if odd:
            # theta(s x) = s theta(x) for every reflection s of W
            for form, _ in arr.hyperplanes:
                sx = arr.reflect(form, pt)
                pws = _powers(sx, top)
                for theta, val in zip(basis, vals):
                    img = [ent.at(sx, pws) for ent in theta]
                    if not all(a == b for a, b in zip(img, arr.reflect(form, val))):
                        raise CheckError("odd-multiplicity basis is not W-fixed")
    if odd and any(f != "fixed" for fl in obj["invariance"] for f in fl):
        raise CheckError("invariance claim of an odd basis is not 'fixed'")
    for form, orbit in arr.hyperplanes:
        p0, v = _point_on(form, rng, arr)
        for theta in basis:
            if not order_along(theta, form, form, p0, v, m_of[orbit]):
                raise CheckError(f"theta(alpha) has order below m along {form}")


def check_invariants(invariants, arr: Arrangement, c_points: int, rng: random.Random):
    """Basic invariants given as term dicts {exponent: Fraction}: degree table,
    invariance under every reflection, and det J = c * Q with c != 0."""
    degs = sorted(max(sum(e) for e in terms) for terms in invariants)
    if degs != DEGREES[arr.key]["W"]:
        raise CheckError(f"invariant degrees {degs} differ from {DEGREES[arr.key]['W']}")
    rank = arr.rank

    def ev(terms, pt):
        total = Fraction(0)
        for e, c in terms.items():
            v = c
            for x, k in zip(pt, e):
                if k:
                    v = v * x ** k
            total = v + total
        return total

    def partial(terms, i):
        out = {}
        for e, c in terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = c * e[i]
        return out

    pt = arr.random_point(rng)
    for form, _ in arr.hyperplanes:
        sx = arr.reflect(form, pt)
        for terms in invariants:
            if ev(terms, sx) != ev(terms, pt):
                raise CheckError("basic invariant is not W-invariant")
    jac = [[partial(t, i) for t in invariants] for i in range(rank)]
    ratio = None
    for _ in range(c_points):
        pt = arr.random_point(rng)
        det = _det([[ev(jac[i][j], pt) for j in range(rank)] for i in range(rank)])
        q = Fraction(1)
        for form, _ in arr.hyperplanes:
            q = q * dot(form, pt)
        r = det / q
        if not r or (ratio is not None and r != ratio):
            raise CheckError("det J is not a nonzero multiple of Q")
        ratio = r
    return ratio
