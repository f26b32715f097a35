"""Independent verification: Saito checks, brute-force module dimensions,
Poincare series and invariance reports.

The graded-dimension oracle parametrizes candidate derivations over a fixed
denominator and solves the membership conditions as an exact linear system;
it never touches the connection machinery, so it cross-checks the
constructive engine from the outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .coxeter import ArrangementData, InvariantSystem, Multiplicity, basic_invariants
from .derivations import Derivation, group_action, membership_conditions, membership_witness
from .linalg import rational_nullspace, scalar_inverse
from .poly import LinearForm, LogRational, Poly
from .scalars import Scalar, scalar_determinant

ORACLE_DEGREE_CAP = 60


class VerificationError(Exception):
    pass


# ---------------------------------------------------------------------------
# Saito criterion
# ---------------------------------------------------------------------------

def saito_point(forms: Sequence[LinearForm]) -> Tuple[int, ...]:
    """The first p = (b^i + i)_{i=1..l}, b = 2, 3, ..., off every form.

    alpha(p) is a nonzero polynomial in b (b^i carries the coefficient a_i),
    so only finitely many b fail.
    """
    for b in count(2):
        p = tuple(b ** i + i for i in range(1, forms[0].nvars + 1))
        if all(form.dot(p) for form in forms):
            return p


def saito_check(arr: ArrangementData, mult: Multiplicity,
                basis: Sequence[Derivation]):
    """Saito scalar c != 0 with det(basis) = c * prod alpha_H^{m(H)}.

    Membership in D(A, m), homogeneity and sum deg = |m| make c = det / prod
    alpha_H^{m(H)} regular along every H, with poles along A only and degree
    0: a constant, read off at one point off the arrangement.  Raises
    VerificationError when a hypothesis fails or c = 0 (then not a basis).
    """
    if len(basis) != arr.rank:
        raise VerificationError(f"expected {arr.rank} derivations, got {len(basis)}")
    for k, theta in enumerate(basis):
        try:
            witness = membership_witness(theta, arr, mult)
        except ValueError as exc:  # a zero element or a foreign denominator
            raise VerificationError(f"basis element {k} is not in D(A, m): {exc}") from exc
        if witness is not None:
            reason, form = witness
            raise VerificationError(
                f"basis element {k} is not in D(A, m): {reason} along {form}")
    degrees = [theta.degree() for theta in basis]
    if None in degrees:
        raise VerificationError(f"basis element {degrees.index(None)} is not homogeneous")
    if sum(degrees) != mult.total():
        raise VerificationError(
            f"degrees {sorted(degrees)} do not sum to the multiplicity total {mult.total()}")
    p = saito_point(arr.forms())
    det = scalar_determinant([[theta.coeffs[j].evaluate(p) for theta in basis]
                              for j in range(arr.rank)])
    # a zero exponent is skipped, not raised to 0: the power would turn a
    # rational value into a field element and change the certificate's bytes
    q: Scalar = Fraction(1)
    for h, m in mult.values.items():
        if m:
            q = q * h.form.dot(p) ** m
    c = det / q
    if not c:
        raise VerificationError("Saito determinant vanishes: the derivations are dependent")
    return c


# ---------------------------------------------------------------------------
# Brute-force graded oracle
# ---------------------------------------------------------------------------

@dataclass
class OracleSpace:
    """Degree slice of D(A, m): numerators over the fixed denominator."""

    arr: ArrangementData
    mult: Multiplicity
    degree: int
    den: Dict[LinearForm, int]
    monomials: List[Tuple[int, ...]]
    vectors: List[List[Scalar]]  # flat coordinates: component-major

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def derivation(self, vec: List[Scalar]) -> Derivation:
        n = self.arr.rank
        nm = len(self.monomials)
        coeffs = []
        for j in range(n):
            terms = {}
            for t, mono in enumerate(self.monomials):
                c = vec[j * nm + t]
                if c:
                    terms[mono] = c
            coeffs.append(LogRational(Poly(n, terms), self.den).reduced())
        return Derivation(coeffs)


def monomials_of_degree(weights: Sequence[int], d: int) -> List[Tuple[int, ...]]:
    """Exponent tuples e with sum weights[i] e_i = d, first exponent slowest.

    With unit weights these are the monomials of degree d; with the degrees
    of basic invariants, the invariant monomials of degree d.
    """
    if d < 0:
        return []
    if not weights:
        return [()] if d == 0 else []
    out = []
    for k in range(d // weights[0] + 1):
        for rest in monomials_of_degree(weights[1:], d - k * weights[0]):
            out.append((k,) + rest)
    return out


def _adapted_matrix(form: LinearForm):
    """Columns: a vector with alpha = 1, then a basis of ker(alpha)."""
    n = form.nvars
    piv = form.pivot_index()
    a = form.coeffs
    cols = []
    e = [Fraction(0)] * n
    e[piv] = 1 / a[piv]
    cols.append(e)
    for i in range(n):
        if i == piv:
            continue
        v = [Fraction(0)] * n
        v[i] = Fraction(1)
        v[piv] = -a[i] / a[piv]
        cols.append(v)
    return tuple(zip(*cols))  # rows of the matrix C with x = C y


def _monomial_image(arr: ArrangementData, cache_key, matrix, mono) -> Poly:
    key = (cache_key, mono)
    img = arr.monomial_images.get(key)
    if img is None:
        img = Poly.monomial(arr.rank, mono).substitute_matrix(matrix)
        arr.monomial_images[key] = img
    return img


def divisibility_rows(arr: ArrangementData, polys: Sequence[Poly], form: LinearForm,
                      k: int) -> List[List[Scalar]]:
    """Rows over lambda asserting form^k | sum_t lambda_t polys[t].

    In coordinates adapted to the form (the form itself first) a polynomial
    is divisible by form^k exactly when no term has a lower exponent than k
    in the first coordinate; each row asks one such term to vanish.  A
    coordinate form reads the exponents directly.
    """
    rows: Dict[Tuple[int, ...], List[Scalar]] = {}
    coordinate = form.is_coordinate()
    low = form.pivot_index() if coordinate else 0
    adapted = None if coordinate else _adapted_matrix(form)
    for t, p in enumerate(polys):
        if coordinate:
            terms = p.terms.items()
        else:  # keep only the low image terms before multiplying them
            terms = ((e, c * cf) for mono, c in p.terms.items()
                     for e, cf in _monomial_image(arr, form, adapted, mono).terms.items()
                     if e[0] < k)
        for e, cf in terms:
            if e[low] < k:
                row = rows.get(e)
                if row is None:
                    row = [Fraction(0)] * len(polys)
                    rows[e] = row
                row[t] = row[t] + cf
    return [rows[e] for e in sorted(rows)]


def oracle_denominator(arr: ArrangementData, mult: Multiplicity) -> Dict[LinearForm, int]:
    """Common denominator of D(A, m): each orbit's deepest pole on all of it."""
    den = {}
    for tag in (1, 2):
        pole = max(0, -min(mult.of(h) for h in arr.orbit(tag)))
        if pole:
            for h in arr.orbit(tag):
                den[h.form] = pole
    return den


def oracle_solution_space(arr: ArrangementData, mult: Multiplicity, d: int) -> OracleSpace:
    """All degree-d members of D(A, m), by exact linear algebra only."""
    if abs(d) > ORACLE_DEGREE_CAP:
        raise ValueError("degree outside the configured oracle window")
    n = arr.rank
    den = oracle_denominator(arr, mult)
    num_deg = d + sum(den.values())
    if num_deg < 0:
        return OracleSpace(arr, mult, d, den, [], [])
    monomials = monomials_of_degree([1] * n, num_deg)
    nm = len(monomials)

    rows: List[List[Scalar]] = []
    for h in arr.hyperplanes:
        pole = den.get(h.form, 0)
        for weights, k in membership_conditions(h.form, pole, mult.of(h) + pole):
            # column i*nm + t holds weights[i] times monomial t
            polys = [Poly.monomial(n, mono, w) for w in weights for mono in monomials]
            rows.extend(divisibility_rows(arr, polys, h.form, k))
    basis = rational_nullspace(rows, ncols=n * nm)
    return OracleSpace(arr, mult, d, den, monomials, basis)


def oracle_module_dimension(arr: ArrangementData, mult: Multiplicity, d: int) -> int:
    return oracle_solution_space(arr, mult, d).dim


def _action_on_numerators(arr: ArrangementData, gen_idx: int, space: OracleSpace,
                          vec: List[Scalar]) -> List[Scalar]:
    """Numerator coordinates of w . theta in the ambient monomial slots."""
    n = arr.rank
    w = arr.gens_W[gen_idx]
    winv = scalar_inverse(w)
    nm = len(space.monomials)
    # sign of the denominator under the substitution x -> w^{-1} x
    sign: Scalar = Fraction(1)
    for form, e in space.den.items():
        sign = sign * form.image(winv)[1] ** e
    index = {m: t for t, m in enumerate(space.monomials)}
    out = [Fraction(0)] * (n * nm)
    for j in range(n):
        acc: Dict[Tuple[int, ...], Scalar] = {}
        for k in range(n):
            if not w[j][k]:
                continue
            base = k * nm
            for t, mono in enumerate(space.monomials):
                c = vec[base + t]
                if not c:
                    continue
                img = _monomial_image(arr, ("gen", gen_idx), winv, mono)
                for e, cf in img.terms.items():
                    acc[e] = acc.get(e, Fraction(0)) + c * cf * w[j][k]
        for e, cf in acc.items():
            if cf:
                out[j * nm + index[e]] = out[j * nm + index[e]] + cf / sign
    return out


def fixed_part(arr: ArrangementData, space: OracleSpace) -> List[List[Scalar]]:
    """Basis of the W-fixed vectors of an oracle slice, in its coordinates."""
    if not space.vectors:
        return []
    rows: List[List[Scalar]] = []
    slots = len(space.vectors[0])
    for gen_idx in range(len(arr.gens_W)):
        images = [_action_on_numerators(arr, gen_idx, space, v) for v in space.vectors]
        for s in range(slots):
            row = [images[t][s] - space.vectors[t][s] for t in range(space.dim)]
            if any(row):
                rows.append(row)
    if not rows:
        return list(space.vectors)
    out = []
    for lam in rational_nullspace(rows, ncols=space.dim):
        vec = [Fraction(0)] * slots
        for l, v in zip(lam, space.vectors):
            if l:
                vec = [x + l * y for x, y in zip(vec, v)]
        out.append(vec)
    return out


def invariant_oracle_dimension(arr: ArrangementData, mult: Multiplicity, d: int) -> int:
    """Dimension of the degree-d piece of the W-fixed part of D(A, m)."""
    return len(fixed_part(arr, oracle_solution_space(arr, mult, d)))


# ---------------------------------------------------------------------------
# Graded comparison reports
# ---------------------------------------------------------------------------

def free_module_dimension(exponents: Sequence[int], rank: int, d: int) -> int:
    """Degree-d dimension of a free module with generators in the exponents."""
    total = 0
    for e in exponents:
        if d >= e:
            total += comb(d - e + rank - 1, rank - 1)
    return total


@dataclass
class GradedReport:
    label: str
    window: List[int]
    expected: List[int]
    observed: List[int]

    @property
    def mismatches(self) -> List[int]:
        return [d for d, e, o in zip(self.window, self.expected, self.observed) if e != o]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def __repr__(self):
        status = "ok" if self.ok else f"mismatch at {self.mismatches}"
        return f"GradedReport({self.label}: {status})"


def hilbert_compare(arr: ArrangementData, mult: Multiplicity,
                    exponents: Sequence[int], d_max: int, d_min: int = 0) -> GradedReport:
    """Oracle dimensions against the free-module prediction on a window."""
    window = list(range(d_min, d_max + 1))
    expected = [free_module_dimension(exponents, arr.rank, d) for d in window]
    observed = [oracle_module_dimension(arr, mult, d) for d in window]
    return GradedReport(f"D(A,{mult}) vs exponents {list(exponents)}", window, expected, observed)


def invariant_part_report(arr: ArrangementData, mult: Multiplicity, d_max: int,
                          d_min: int = 0) -> List[int]:
    return [invariant_oracle_dimension(arr, mult, d) for d in range(d_min, d_max + 1)]


def mstar_experiment(arr: ArrangementData, mult: Multiplicity, d_max: int,
                     d_min: int = 0) -> GradedReport:
    """Compare W-invariant graded dimensions of D(A, m) and D(A, m*)."""
    star = mult.star_closure()
    window = list(range(d_min, d_max + 1))
    dims_m = invariant_part_report(arr, mult, d_max, d_min)
    dims_star = invariant_part_report(arr, star, d_max, d_min)
    return GradedReport(f"invariant parts of {mult} vs {star}", window, dims_star, dims_m)


def invariant_basis_obstruction(arr: ArrangementData, mult: Multiplicity,
                                exponents: Sequence[int], d_max: int,
                                d_min: int = 0) -> Optional[int]:
    """First degree where the W-fixed dimensions refute a W-invariant basis.

    A module with a W-invariant basis of the given exponents would have
    fixed-part dimensions sum_i dim R_{d-e_i}; returns the first degree in
    the window where the oracle disagrees, or None if none does.
    """
    degrees = basic_invariants(arr, "W").degrees
    for d in range(d_min, d_max + 1):
        expected = 0
        for e in exponents:
            expected += _invariant_ring_dimension(degrees, d - e)
        observed = invariant_oracle_dimension(arr, mult, d)
        if observed != expected:
            return d
    return None


def _invariant_ring_dimension(degrees: Sequence[int], d: int) -> int:
    if d < 0:
        return 0
    counts = [0] * (d + 1)
    counts[0] = 1
    for deg in degrees:
        for v in range(deg, d + 1):
            counts[v] += counts[v - deg]
    return counts[d]


def series_coefficients(degrees: Sequence[int], shifts: Sequence[int], d_max: int) -> List[int]:
    """Coefficients of (sum_j t^{shifts_j}) / prod_i (1 - t^{degrees_i})."""
    extent = d_max + max(0, -min(shifts)) if shifts else d_max
    base = [0] * (extent + 1)
    base[0] = 1
    for deg in degrees:
        for v in range(deg, extent + 1):
            base[v] += base[v - deg]
    out = [0] * (d_max + 1)
    for s in shifts:
        for v in range(max(s, 0), d_max + 1):
            out[v] += base[v - s]
    return out


def poincare_check(system: InvariantSystem, zeta_degree: int,
                   blocks: Sequence[Sequence[Derivation]], d_max: int) -> GradedReport:
    """Primitive-decomposition block degrees against the closed-form series.

    Each block is free over T = R[P_1 .. P_{l-1}]; the union of blocks must
    reproduce (prod 1/(1-t^{d_i})) (sum_j t^{m-d_j}) through degree d_max,
    with m the degree of the universal derivation.
    """
    degrees = system.degrees
    closed = series_coefficients(degrees, [zeta_degree - d for d in degrees], d_max)
    member_degrees = []
    for block in blocks:
        for theta in block:
            e = theta.degree()
            if e is None:
                raise VerificationError("block member is not homogeneous")
            member_degrees.append(e)
    observed = series_coefficients(degrees[:-1], member_degrees, d_max)
    window = list(range(d_max + 1))
    return GradedReport("primitive decomposition series", window, closed, observed)


# ---------------------------------------------------------------------------
# Invariance classification
# ---------------------------------------------------------------------------

def classify_invariance(theta: Derivation, generators) -> List[str]:
    """Per generator: 'fixed', 'antifixed' or 'neither'."""
    out = []
    for w in generators:
        img = group_action(w, theta)
        if img == theta:
            out.append("fixed")
        elif img == -theta:
            out.append("antifixed")
        else:
            out.append("neither")
    return out


def invariance_check(basis: Sequence[Derivation], generators) -> List[List[str]]:
    return [classify_invariance(theta, generators) for theta in basis]
