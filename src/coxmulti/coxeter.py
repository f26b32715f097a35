"""Catalog of two-orbit reflection arrangements and their invariant theory.

Families: B (any rank >= 2), F4, G2 and I2(2n) for n >= 4.  Each arrangement
carries its hyperplanes with orbit tags, the orbit products Q1 and Q2,
reflection generators for the full group and for both orbit subgroups, and
constructors for the basic invariant systems of W, W1 and W2.  Rank-2
families live over the real cyclotomic field Q(2 cos(pi/2n)).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Dict, List, Optional, Tuple

from .linalg import Matrix, bareiss_determinant, scalar_matmul
from .poly import LinearForm, Poly, form_product
from .scalars import NumberField, Scalar, cosine_field, half_angle_cosines

MatrixS = Tuple[Tuple[Scalar, ...], ...]

GROUP_ORDER_CAP = 5000


@dataclass(frozen=True)
class Hyperplane:
    form: LinearForm
    orbit: int  # 1 or 2

    def __repr__(self):
        return f"H({self.form}, orbit {self.orbit})"


def reflection_matrix(form: LinearForm) -> MatrixS:
    """Orthogonal reflection through the hyperplane form = 0."""
    a = form.coeffs
    n = len(a)
    norm = form.norm_sq()
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            val = -2 * a[i] * a[j] / norm
            if i == j:
                val = val + 1
            row.append(val)
        rows.append(tuple(row))
    return tuple(rows)


class ArrangementData:
    """Irreducible two-orbit Coxeter arrangement with exact coordinates."""

    def __init__(self, family: str, rank: int, hyperplanes: List[Hyperplane],
                 simple_generators: List[MatrixS], number_field: Optional[NumberField],
                 params: Dict):
        self.family = family
        self.rank = rank
        self.hyperplanes = hyperplanes
        self.gens_W = simple_generators
        self.field = number_field
        self.params = params
        self.gamma = None  # field generator for the rank-2 families
        self._groups: Dict[str, List[MatrixS]] = {}
        self._systems: Dict[Tuple, "InvariantSystem"] = {}
        # (coordinate change, monomial) -> image: adapted coordinates of a form
        # for divisibility rows, inverse generators for the oracle's group action
        self.monomial_images: Dict[Tuple, Poly] = {}
        forms = [h.form for h in hyperplanes]
        if len({f for f in forms}) != len(forms):
            raise ValueError("duplicate hyperplane")
        self._check_generators_permute()
        self._generators = {
            "W": simple_generators,
            "W1": [reflection_matrix(f) for f in self.orbit_forms(1)],
            "W2": [reflection_matrix(f) for f in self.orbit_forms(2)],
        }

    # expanded only on first use: Q2 of B_l has l! terms, and verifying a
    # certificate must not expand it just to read the arrangement
    @cached_property
    def Q1(self) -> Poly:
        """Product of the orbit-1 forms."""
        return form_product(self.rank, {f: 1 for f in self.orbit_forms(1)})

    @cached_property
    def Q2(self) -> Poly:
        """Product of the orbit-2 forms."""
        return form_product(self.rank, {f: 1 for f in self.orbit_forms(2)})

    # -- basic accessors --------------------------------------------------
    def forms(self) -> List[LinearForm]:
        return [h.form for h in self.hyperplanes]

    def orbit(self, tag: int) -> List[Hyperplane]:
        return [h for h in self.hyperplanes if h.orbit == tag]

    def orbit_forms(self, tag: int) -> List[LinearForm]:
        return [h.form for h in self.hyperplanes if h.orbit == tag]

    def hyperplane_of(self, form: LinearForm) -> Hyperplane:
        for h in self.hyperplanes:
            if h.form == form:
                return h
        raise KeyError(f"form {form} not in arrangement")

    def generators(self, group: str = "W") -> List[MatrixS]:
        """Simple reflections for W; all orbit reflections for W1 and W2."""
        gens = self._generators.get(group)
        if gens is None:
            raise ValueError(f"unknown group tag {group!r}")
        return gens

    def __repr__(self):
        return f"ArrangementData({self.family}, rank {self.rank}, {len(self.hyperplanes)} hyperplanes)"

    # -- structural checks -------------------------------------------------
    def _check_generators_permute(self):
        forms = set(self.forms())
        by_form = {h.form: h.orbit for h in self.hyperplanes}
        for m in self.gens_W:
            for h in self.hyperplanes:
                img, _ = h.form.image(m)
                if img not in forms:
                    raise ValueError("generator does not permute the arrangement")
                if by_form[img] != h.orbit:
                    raise ValueError("generator mixes orbits")

    # -- group enumeration --------------------------------------------------
    def group_elements(self, group: str = "W") -> List[MatrixS]:
        cached = self._groups.get(group)
        if cached is None:
            cached = _closure(self.generators(group), self.rank, GROUP_ORDER_CAP)
            expected = self._expected_order(group)
            if expected is not None and len(cached) != expected:
                raise RuntimeError(
                    f"{group} closure has {len(cached)} elements, expected {expected}")
            self._groups[group] = cached
        return cached

    def _expected_order(self, group: str) -> Optional[int]:
        rank = self.rank
        if self.family == "B":
            return {"W": 2 ** rank * factorial(rank), "W1": 2 ** rank,
                    "W2": 2 ** (rank - 1) * factorial(rank)}[group]
        if self.family == "F4":
            return {"W": 1152, "W1": 192, "W2": 192}[group]
        n = self.params["n"]
        return {"W": 4 * n, "W1": 2 * n, "W2": 2 * n}[group]

    def orbit_sign(self, m: MatrixS, tag: int) -> Scalar:
        """Scalar s with w(Q_tag) = s * Q_tag; always +1 or -1."""
        sign: Scalar = Fraction(1)
        for f in self.orbit_forms(tag):
            sign = sign * f.image(m)[1]
        return sign


def _identity(n: int) -> MatrixS:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def _closure(gens: List[MatrixS], n: int, cap: int) -> List[MatrixS]:
    ident = _identity(n)
    seen = {ident: True}
    order = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                prod = scalar_matmul(w, g)
                if prod not in seen:
                    seen[prod] = True
                    order.append(prod)
                    nxt.append(prod)
                    if len(order) > cap:
                        raise RuntimeError("group closure exceeded configured bound")
        frontier = nxt
    return order


# ---------------------------------------------------------------------------
# Arrangement constructors
# ---------------------------------------------------------------------------

_ARRANGEMENT_CACHE: Dict[Tuple, ArrangementData] = {}


def cached_arrangement(family: str, rank: Optional[int] = None,
                       n: Optional[int] = None) -> ArrangementData:
    """Process-wide cache; arrangements are immutable so sharing is safe."""
    family = family.upper()
    if family == "B":
        key = ("B", rank)
    elif family == "I2":
        key = ("I2", n)
    else:
        key = (family,)
    arr = _ARRANGEMENT_CACHE.get(key)
    if arr is None:
        arr = build_arrangement(family, rank=rank, n=n)
        _ARRANGEMENT_CACHE[key] = arr
    return arr


def build_arrangement(family: str, rank: Optional[int] = None,
                      n: Optional[int] = None) -> ArrangementData:
    """Construct a catalog arrangement.

    family: "B" (needs rank >= 2), "F4", "G2", or "I2" (needs n >= 4,
    giving the dihedral arrangement with 2n lines).
    """
    family = family.upper()
    if family == "B":
        if rank is None or rank < 2:
            raise ValueError("B family needs rank >= 2")
        return _build_b(rank)
    if family == "F4":
        return _build_f4()
    if family == "G2":
        return _build_dihedral(3, family="G2")
    if family == "I2":
        if n is None or n < 4:
            raise ValueError("I2 family needs n >= 4 (2n lines)")
        return _build_dihedral(n, family="I2")
    raise ValueError(f"unsupported family {family!r}")


def _build_b(rank: int) -> ArrangementData:
    hyps = [Hyperplane(LinearForm([1 if k == i else 0 for k in range(rank)]), 1)
            for i in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            for s in (-1, 1):
                coeffs = [0] * rank
                coeffs[i] = 1
                coeffs[j] = s
                hyps.append(Hyperplane(LinearForm(coeffs), 2))
    gens = []
    for i in range(rank - 1):
        coeffs = [0] * rank
        coeffs[i] = 1
        coeffs[i + 1] = -1
        gens.append(reflection_matrix(LinearForm(coeffs)))
    last = [0] * rank
    last[-1] = 1
    gens.append(reflection_matrix(LinearForm(last)))
    return ArrangementData("B", rank, hyps, gens, None, {"rank": rank})


def _build_f4() -> ArrangementData:
    hyps = []
    for i in range(4):
        for j in range(i + 1, 4):
            for s in (-1, 1):
                coeffs = [0] * 4
                coeffs[i] = 1
                coeffs[j] = s
                hyps.append(Hyperplane(LinearForm(coeffs), 1))  # long roots
    for i in range(4):
        coeffs = [0] * 4
        coeffs[i] = 1
        hyps.append(Hyperplane(LinearForm(coeffs), 2))  # short roots
    for signs in itertools.product((1, -1), repeat=3):
        coeffs = [Fraction(1, 2), *[Fraction(s, 2) for s in signs]]
        hyps.append(Hyperplane(LinearForm(coeffs), 2))
    simple = [
        LinearForm([0, 1, -1, 0]),
        LinearForm([0, 0, 1, -1]),
        LinearForm([0, 0, 0, 1]),
        LinearForm([Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2)]),
    ]
    gens = [reflection_matrix(f) for f in simple]
    return ArrangementData("F4", 4, hyps, gens, None, {})


def _build_dihedral(n: int, family: str) -> ArrangementData:
    """2n mirror lines at angles k*pi/(2n); orbits split by parity of k."""
    lines = 2 * n
    nf, gamma = cosine_field(lines)
    cos = half_angle_cosines(lines, nf, gamma)  # cos(k*pi/lines), k = 0..lines
    half = lines // 2

    def cos_k(k: int) -> Scalar:
        k = k % (2 * lines)
        if k > lines:
            k = 2 * lines - k
        return cos[k]

    def sin_k(k: int) -> Scalar:
        return cos_k(half - k)

    hyps = []
    for k in range(lines):
        coeffs = [-sin_k(k), cos_k(k)]
        orbit = 1 if k % 2 == 0 else 2
        hyps.append(Hyperplane(LinearForm(coeffs), orbit))
    gens = [reflection_matrix(hyps[0].form), reflection_matrix(hyps[1].form)]
    arr = ArrangementData(family, 2, hyps, gens, nf, {"n": n, "lines": lines})
    arr.gamma = gamma
    return arr


# ---------------------------------------------------------------------------
# Invariant systems
# ---------------------------------------------------------------------------

class InvariantSystem:
    """Basic invariants of W, W1 or W2 with degrees, Jacobian and G matrix."""

    def __init__(self, arr: ArrangementData, group: str, invariants: List[Poly],
                 seeds: Optional[List] = None):
        self.arr = arr
        self.group = group
        order = sorted(range(len(invariants)), key=lambda i: (invariants[i].degree(), i))
        self.invariants = [invariants[i] for i in order]
        self.degrees = [p.degree() for p in self.invariants]
        self.coxeter_number = self.degrees[-1]
        self.seeds = seeds
        for p in self.invariants:
            if not p.is_homogeneous():
                raise ValueError("basic invariant is not homogeneous")
            for m in arr.generators(group):
                if p.substitute_matrix(m) != p:
                    raise ValueError(f"claimed invariant is not {group}-invariant")
        rank = arr.rank
        self.jacobian = Matrix([[self.invariants[j].partial(i) for j in range(rank)]
                                for i in range(rank)])
        det = bareiss_determinant(self.jacobian.rows)
        if not det:
            raise ValueError("independence failure: Jacobian is singular")
        self._gram: Optional[Matrix] = None

    @property
    def gram(self) -> Matrix:
        """G = J^T A J with A the identity in orthonormal coordinates."""
        if self._gram is None:
            J = self.jacobian
            n = self.arr.rank
            rows = []
            for i in range(n):
                row = []
                for j in range(n):
                    acc = Poly.zero(n)
                    for k in range(n):
                        acc = acc + J[k, i] * J[k, j]
                    row.append(acc)
                rows.append(row)
            self._gram = Matrix(rows)
        return self._gram

    def __repr__(self):
        return f"InvariantSystem({self.group}, degrees {self.degrees})"


def basic_invariants(arr: ArrangementData, group: str = "W",
                     seeds: Optional[List[Tuple[int, ...]]] = None) -> InvariantSystem:
    if arr.family == "F4" and group == "W":
        seeds = list(seeds) if seeds else list(F4_DEFAULT_SEEDS)
    key = (group, tuple(seeds) if seeds else None)
    cached = arr._systems.get(key)
    if cached is not None:
        return cached
    if arr.family == "B":
        sys_ = _invariants_b(arr, group)
    elif arr.family == "F4":
        sys_ = _invariants_f4(arr, group, seeds)
    elif arr.family in ("G2", "I2"):
        sys_ = _invariants_dihedral(arr, group)
    else:
        raise ValueError(f"no invariant data for family {arr.family}")
    arr._systems[key] = sys_
    return sys_


def _power_sum(rank: int, k: int) -> Poly:
    out = Poly.zero(rank)
    for i in range(rank):
        out = out + Poly.variable(rank, i) ** k
    return out


def _invariants_b(arr: ArrangementData, group: str) -> InvariantSystem:
    rank = arr.rank
    if group == "W":
        return InvariantSystem(arr, group, [_power_sum(rank, 2 * j) for j in range(1, rank + 1)])
    if group == "W1":
        return InvariantSystem(arr, group, [Poly.variable(rank, i) ** 2 for i in range(rank)])
    if group == "W2":
        # Q1 with the power sums of degree < 2(rank-1); ordering puts Q1
        # before an equal-degree power sum so the top invariant is always
        # the degree-2(rank-1) power sum (whose partial gives D2).
        return InvariantSystem(arr, group,
                               [arr.Q1] + [_power_sum(rank, 2 * j) for j in range(1, rank)])
    raise ValueError(f"unknown group tag {group!r}")


F4_DEFAULT_SEEDS = ((2,), (6,), (8,), (12,))
F4_ALTERNATE_SEEDS = ((2,), (4, 2), (6, 2), (8, 4))

# x1 = (y1 - y2)/sqrt2, x2 = (y1 + y2)/sqrt2, x3 = (y3 - y4)/sqrt2,
# x4 = (y3 + y4)/sqrt2, scaled by sqrt2 (scalars are irrelevant for
# conjugation and invariant transport).
F4_ORBIT_SWITCH = (
    (Fraction(1), Fraction(-1), Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(1), Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(0), Fraction(1), Fraction(-1)),
    (Fraction(0), Fraction(0), Fraction(1), Fraction(1)),
)


def f4_w1_invariants(rank4: int = 4) -> List[Poly]:
    x = [Poly.variable(4, i) for i in range(4)]
    p1 = _power_sum(4, 2)
    p2 = _power_sum(4, 4)
    p3 = x[0] * x[1] * x[2] * x[3]
    cross = Poly.zero(4)
    for i in range(4):
        for j in range(4):
            if i != j:
                cross = cross + x[i] ** 2 * x[j] ** 4
    p4 = _power_sum(4, 6) + 5 * cross
    return [p1, p2, p3, p4]


def _seed_monomial(exps: Tuple[int, ...]) -> Poly:
    full = list(exps) + [0] * (4 - len(exps))
    return Poly.monomial(4, full)


def _integerize(p: Poly) -> Poly:
    dens = [c.denominator for c in p.terms.values()]
    nums = [abs(c.numerator) for c in p.terms.values()]
    scale = Fraction(lcm(*dens) if dens else 1)
    g = 0
    for v in nums:
        g = gcd(g, v)
    if g:
        scale /= g
    return p * scale


def _invariants_f4(arr: ArrangementData, group: str,
                   seeds: Optional[List[Tuple[int, ...]]]) -> InvariantSystem:
    if group == "W1":
        return InvariantSystem(arr, group, f4_w1_invariants())
    if group == "W2":
        switched = [p.substitute_matrix(F4_ORBIT_SWITCH) for p in f4_w1_invariants()]
        return InvariantSystem(arr, group, [_integerize(p) for p in switched])
    if group == "W":
        seed_exps = tuple(seeds) if seeds else F4_DEFAULT_SEEDS
        invs = [_integerize(reynolds(_seed_monomial(e), arr, "W")) for e in seed_exps]
        return InvariantSystem(arr, group, invs, seeds=list(seed_exps))
    raise ValueError(f"unknown group tag {group!r}")


def _re_im_powers(rank2: int, k: int) -> Tuple[Poly, Poly]:
    """Real and imaginary parts of (x + i y)^k."""
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    re, im = Poly.const(2, 1), Poly.zero(2)
    for _ in range(k):
        re, im = x * re - y * im, x * im + y * re
    return re, im


def _invariants_dihedral(arr: ArrangementData, group: str) -> InvariantSystem:
    n = arr.params["n"]
    p1 = _power_sum(2, 2)
    if group == "W":
        re, _ = _re_im_powers(2, 2 * n)
        return InvariantSystem(arr, group, [p1, re])
    re, im = _re_im_powers(2, n)
    if group == "W1":
        return InvariantSystem(arr, group, [p1, re])
    if group == "W2":
        return InvariantSystem(arr, group, [p1, im])
    raise ValueError(f"unknown group tag {group!r}")


def reynolds(f: Poly, arr: ArrangementData, group: str = "W") -> Poly:
    """Group average of f; always invariant, a projection onto invariants.

    f o w depends only on the rows of w for the variables occurring in f
    (x_i -> row i of w), and those rows of w g are the rows of w times g.
    So the average runs over the orbit of the identity's rows under right
    multiplication by the generators, found breadth first with one full
    matrix kept per orbit point.  The elements sharing a point form a coset
    of its stabilizer, so each point stands for |W| / |orbit| of them and
    the orbit average equals the group average exactly: 24 substitutions
    and 96 matrix products for an F4 seed x1^k, and no enumeration of W.
    """
    used = [i for i in range(f.nvars) if any(e[i] for e in f.terms)]
    ident = _identity(f.nvars)
    seen = {tuple(ident[i] for i in used): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in arr.generators(group):
                wg = scalar_matmul(w, g)
                point = tuple(wg[i] for i in used)
                if point not in seen:
                    seen[point] = wg
                    nxt.append(wg)
        frontier = nxt
    acc = Poly.zero(f.nvars)
    for w in seen.values():
        acc = acc + f.substitute_matrix(w)
    return acc * Fraction(1, len(seen))


# ---------------------------------------------------------------------------
# Multiplicities
# ---------------------------------------------------------------------------

class Multiplicity:
    """Total integer multiplicity map on the hyperplanes of an arrangement."""

    def __init__(self, arr: ArrangementData, values: Dict[Hyperplane, int]):
        for h in arr.hyperplanes:
            if h not in values:
                raise ValueError(f"multiplicity missing on {h}")
        self.arr = arr
        self.values = {h: int(values[h]) for h in arr.hyperplanes}

    @staticmethod
    def from_pair(arr: ArrangementData, m1: int, m2: int) -> "Multiplicity":
        return Multiplicity(arr, {h: (m1 if h.orbit == 1 else m2) for h in arr.hyperplanes})

    @staticmethod
    def constant(arr: ArrangementData, m: int) -> "Multiplicity":
        return Multiplicity.from_pair(arr, m, m)

    def of(self, h: Hyperplane) -> int:
        return self.values[h]

    def is_equivariant(self) -> bool:
        for tag in (1, 2):
            vals = {self.values[h] for h in self.arr.orbit(tag)}
            if len(vals) > 1:
                return False
        return True

    def is_odd(self) -> bool:
        return all(v % 2 != 0 for v in self.values.values())

    def orbit_pair(self) -> Tuple[int, int]:
        if not self.is_equivariant():
            raise ValueError("multiplicity is not equivariant")
        return (self.values[self.arr.orbit(1)[0]], self.values[self.arr.orbit(2)[0]])

    def total(self) -> int:
        return sum(self.values.values())

    def star_closure(self) -> "Multiplicity":
        """Equivariant odd closure: orbit-wise max of 2*floor(m/2) + 1."""
        out: Dict[Hyperplane, int] = {}
        for tag in (1, 2):
            orbit = self.arr.orbit(tag)
            star = max(2 * (self.values[h] // 2) + 1 for h in orbit)
            for h in orbit:
                out[h] = star
        return Multiplicity(self.arr, out)

    def __eq__(self, other):
        return isinstance(other, Multiplicity) and self.values == other.values

    def __hash__(self):
        return hash(frozenset(self.values.items()))

    def __repr__(self):
        if self.is_equivariant():
            return f"Multiplicity{self.orbit_pair()}"
        return f"Multiplicity({ {str(h.form): v for h, v in self.values.items()} })"
