"""Constructive core: primitive derivations, inverse covariant powers,
the universal derivations E^(p,q), the four basis families, the B-matrix
recursion, primitive decompositions and the equivariant-odd closure.

Inverse covariant derivatives are found by exact linear solves on a finite
candidate space: invariant numerator vectors are spanned by invariant
multiples of the gradient fields (the invariant derivation module is free
over the invariant ring on the gradients), over the orbit powers that the
bidegree (p, q) of the solution fixes as denominator.  Uniqueness in the
invariant module makes the solution exact and canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .coxeter import (ArrangementData, InvariantSystem, Multiplicity,
                      basic_invariants, cached_arrangement)
from .derivations import (Derivation, combine, coordinate_field, covariant_derivative,
                          euler, group_action, membership_conditions, partial_derivation)
from .linalg import Matrix, bareiss_determinant, rref, solve_affine, solve_over_fractions
from .poly import LinearForm, LogRational, Poly, common_denominator, form_product
from .scalars import Scalar
from .verify import (divisibility_rows, fixed_part, invariance_check, monomials_of_degree,
                     oracle_denominator, oracle_solution_space, saito_check)


class SolverError(Exception):
    """An exact solve found no solution within its pole or degree bounds."""


class EngineError(Exception):
    """Internal consistency failure (a constructed basis did not verify)."""


CASE_FRAMES = {1: "W", 2: "W1", 3: "W2", 4: "X"}

# families whose orbit-1 primitive derivation is W-invariant: their bases come
# from the four E^(p,q) cases, the others' from the rank-2 oracle route
FOUR_CASE_FAMILIES = ("B", "F4")


def case_multiplicity_pair(p: int, q: int, case: int) -> Tuple[int, int]:
    if case == 1:
        return 2 * p - 1, 2 * q - 1
    if case == 2:
        return 2 * p - 1, 2 * q
    if case == 3:
        return 2 * p, 2 * q - 1
    if case == 4:
        return 2 * p, 2 * q
    raise ValueError("case must be 1..4")


def pq_for_multiplicity(m1: int, m2: int) -> Tuple[int, int, int]:
    """(p, q, case) with (m1, m2) the case multiplicity at (p, q)."""
    if m1 % 2 != 0 and m2 % 2 != 0:
        return (m1 + 1) // 2, (m2 + 1) // 2, 1
    if m1 % 2 != 0:
        return (m1 + 1) // 2, m2 // 2, 2
    if m2 % 2 != 0:
        return m1 // 2, (m2 + 1) // 2, 3
    return m1 // 2, m2 // 2, 4


class EpqContext:
    """Arrangement with invariant systems, primitive derivations and caches."""

    def __init__(self, arr: ArrangementData):
        self.arr = arr
        self.sys_w = basic_invariants(arr, "W")
        self.sys_w1 = basic_invariants(arr, "W1")
        self.sys_w2 = basic_invariants(arr, "W2")
        self.h = self.sys_w.coxeter_number
        self.h1 = self.sys_w1.coxeter_number
        self.h2 = self.sys_w2.coxeter_number
        self._coord_fields: Dict[Tuple[str, int], Derivation] = {}
        self._epq: Dict[Tuple[int, int], Derivation] = {}
        self._inv_monomial_cache: Dict[Tuple[str, Tuple[int, ...]], Poly] = {}
        self.D = primitive_derivation(self, "W")
        self.D1 = primitive_derivation(self, "W1")
        self.D2 = primitive_derivation(self, "W2")
        if self.first_case:
            for w in arr.gens_W:
                if group_action(w, self.D1) != self.D1:
                    raise EngineError("orbit-1 primitive derivation is not W-invariant")

    @property
    def first_case(self) -> bool:
        return self.arr.family in FOUR_CASE_FAMILIES

    def system(self, tag: str) -> InvariantSystem:
        return {"W": self.sys_w, "W1": self.sys_w1, "W2": self.sys_w2}[tag]

    def coordinate_frame(self, tag: str, i: int) -> Derivation:
        key = (tag, i)
        d = self._coord_fields.get(key)
        if d is None:
            if tag == "X":
                d = partial_derivation(self.arr.rank, i)
            else:
                d = coordinate_field(self.system(tag), i)
            self._coord_fields[key] = d
        return d

    def invariant_monomial(self, tag: str, exps: Tuple[int, ...]) -> Poly:
        key = (tag, exps)
        p = self._inv_monomial_cache.get(key)
        if p is None:
            system = self.system(tag)
            p = Poly.const(self.arr.rank, 1)
            for inv, e in zip(system.invariants, exps):
                if e:
                    p = p * inv ** e
            self._inv_monomial_cache[key] = p
        return p

    def __repr__(self):
        return f"EpqContext({self.arr.family}, rank {self.arr.rank})"


_CONTEXT_CACHE: Dict[int, EpqContext] = {}


def make_context(family: str, rank: Optional[int] = None,
                 n: Optional[int] = None) -> EpqContext:
    """Contexts are cached per arrangement; they are immutable apart from
    monotone caches, so sharing across callers is safe."""
    arr = cached_arrangement(family, rank=rank, n=n)
    ctx = _CONTEXT_CACHE.get(id(arr))
    if ctx is None:
        ctx = EpqContext(arr)
        _CONTEXT_CACHE[id(arr)] = ctx
    return ctx


# ---------------------------------------------------------------------------
# Primitive derivations
# ---------------------------------------------------------------------------

def primitive_derivation(ctx: EpqContext, which: str) -> Derivation:
    """Lowest-degree derivation of the chosen invariant ring.

    W: d/dP_l by the Jacobian solve.  W1 for B: sum (1/x_i) d/dx_i; for F4
    the top coordinate field of the W1 system.  Rank-2 families take
    D1 = Q2 D and D2 = Q1 D.
    """
    arr = ctx.arr
    rank = arr.rank
    if which == "W":
        return ctx.coordinate_frame("W", rank - 1)
    if arr.family == "B":
        if which == "W1":
            coeffs = []
            for i in range(rank):
                form = LinearForm([1 if k == i else 0 for k in range(rank)])
                coeffs.append(LogRational(Poly.const(rank, 1), {form: 1}))
            return Derivation(coeffs)
        return ctx.coordinate_frame("W2", rank - 1)
    if arr.family == "F4":
        return ctx.coordinate_frame("W1" if which == "W1" else "W2", rank - 1)
    # rank-2 families: multiply the primitive derivation by the other orbit
    D = ctx.coordinate_frame("W", rank - 1)
    other = ctx.arr.Q2 if which == "W1" else ctx.arr.Q1
    return D * other


# ---------------------------------------------------------------------------
# Forward and inverse covariant powers
# ---------------------------------------------------------------------------

def forward_power(ctx: EpqContext, delta: Derivation, k: int, theta: Derivation) -> Derivation:
    if k < 0:
        raise ValueError("forward power needs k >= 0")
    out = theta
    for _ in range(k):
        out = covariant_derivative(delta, out)
    return out


def covariant_numerators(delta: Derivation, den: Mapping[LinearForm, int],
                         polys: Sequence[Poly]) -> Tuple[List[Poly], Dict[LinearForm, int]]:
    """delta(G / den) for each G in polys, as numerators over one denominator.

    With delta = (D_1 .. D_l) / Delta cleared once, delta'(P) = sum_i D_i dP/dx_i
    and L the product of the forms of den = prod f^{k_f}, the quotient rule reads
    delta(G / den) = (L delta'(G) - R G) / (Delta den L),
    R = sum_f k_f delta'(f) L / f.  Returns the numerators and Delta den L.
    """
    n = delta.nvars
    delta_den = common_denominator(c.den for c in delta.coeffs)
    lead = [c.numerator_over(delta_den) for c in delta.coeffs]

    def prime(p: Poly) -> Poly:
        acc = Poly.zero(n)
        for i, d_i in enumerate(lead):
            if d_i:
                acc = acc + d_i * p.partial(i)
        return acc

    ell = form_product(n, {f: 1 for f in den})
    r = Poly.zero(n)
    for f, k in den.items():
        rest = form_product(n, {g: 1 for g in den if g != f})
        r = r + combine(f.coeffs, lead) * rest * k
    out_den = dict(delta_den)
    for f, k in den.items():
        out_den[f] = out_den.get(f, 0) + k + 1
    return [ell * prime(g) - r * g for g in polys], out_den


def invert_covariant(ctx: EpqContext, delta_tag: str, zeta: Derivation,
                     target_pq: Tuple[int, Optional[int]]) -> Derivation:
    """The unique eta in the invariant module with nabla_delta eta = zeta.

    delta_tag "D" solves in D(A,-infinity)^W over the denominator
    Q1^{N1} Q2^{N2}; "D1" solves in D(A_1,-infinity)^{W1} over Q1^{N1}.
    target_pq = (p, q) is the universality bidegree of eta (q is None for
    "D1") and fixes the pole bounds N1 = max(0, -2p), N2 = max(0, -2q):
    E^(p,q) has no deeper pole along either orbit.  Raises SolverError
    when no eta exists at these bounds.
    """
    if zeta.is_zero():
        return Derivation.zero(ctx.arr.rank)
    arr = ctx.arr
    rank = arr.rank
    if delta_tag == "D":
        system, delta, hh = ctx.sys_w, ctx.D, ctx.h
        membership_forms = arr.forms()
    elif delta_tag == "D1":
        system, delta, hh = ctx.sys_w1, ctx.D1, ctx.h1
        membership_forms = arr.orbit_forms(1)
    else:
        raise ValueError("delta_tag must be 'D' or 'D1'")
    zdeg = zeta.degree()
    if zdeg is None:
        raise ValueError("zeta must be homogeneous")
    p, q = target_pq
    n1 = max(0, -2 * p)
    n2 = max(0, -2 * q) if delta_tag == "D" else 0
    bounds = f"invert_covariant for {delta_tag} at pole bounds ({n1}, {n2})"
    den: Dict[LinearForm, int] = {f: n1 for f in arr.orbit_forms(1) if n1}
    den.update({f: n2 for f in arr.orbit_forms(2) if n2})
    candidates: List[List[Poly]] = []
    for i in range(rank):
        fdeg = zdeg + hh + sum(den.values()) - (system.degrees[i] - 1)
        col = system.jacobian.column(i)
        for exps in monomials_of_degree(system.degrees, fdeg):
            f = ctx.invariant_monomial(system.group, exps)
            candidates.append([f * col[j] for j in range(rank)])
    if not candidates:
        raise SolverError(f"{bounds}: empty candidate space")
    ncand = len(candidates)
    rows: List[List[Scalar]] = []
    for form in membership_forms:
        for weights, k in membership_conditions(form, den.get(form, 0), 0):
            polys = [combine(weights, cand) for cand in candidates]
            rows.extend(divisibility_rows(arr, polys, form, k))
    rhs: List[Scalar] = [Fraction(0)] * len(rows)
    # nabla_delta(sum_t lambda_t cand_t / den) = zeta, compared over the lcm
    # of the two denominators in each component j, one row per (j, monomial)
    nums, lhs_den = covariant_numerators(delta, den, [c[j] for c in candidates
                                                      for j in range(rank)])
    eq_rows: Dict[Tuple, List[Scalar]] = {}
    eq_rhs: Dict[Tuple, Scalar] = {}
    for j, target in enumerate(zeta.coeffs):
        common = common_denominator((lhs_den, target.den))
        cofactor = form_product(rank, {f: e - lhs_den.get(f, 0) for f, e in common.items()})
        for mono, cf in target.numerator_over(common).terms.items():
            eq_rhs[(j, mono)] = cf
        for t in range(ncand):
            for mono, cf in (nums[t * rank + j] * cofactor).terms.items():
                row = eq_rows.get((j, mono))
                if row is None:
                    row = eq_rows[(j, mono)] = [Fraction(0)] * ncand
                row[t] = row[t] + cf
    for key in sorted(set(eq_rows) | set(eq_rhs)):
        rows.append(eq_rows.get(key, [Fraction(0)] * ncand))
        rhs.append(eq_rhs.get(key, Fraction(0)))
    solved = solve_affine(rows, rhs)
    if solved is None:
        raise SolverError(f"{bounds}: no solution")
    particular, null = solved
    if null:
        raise EngineError("inverse covariant solution is not unique")
    eta = Derivation([LogRational(combine(particular, [cand[j] for cand in candidates]),
                                  den).reduced() for j in range(rank)])
    if covariant_derivative(delta, eta) != zeta:
        raise EngineError("inverse covariant residual is nonzero")
    return eta


# ---------------------------------------------------------------------------
# The universal derivations E^(p,q)
# ---------------------------------------------------------------------------

def e_pq(ctx: EpqContext, p: int, q: int) -> Derivation:
    """E^(p,q) = nabla_D^{-q} nabla_{D1}^{q-p} E, cached over (p, q)."""
    if not ctx.first_case:
        raise ValueError("E^(p,q) requires a family with W-invariant D1")
    key = (p, q)
    cached = ctx._epq.get(key)
    if cached is not None:
        return cached
    if p == 0 and q == 0:
        val = euler(ctx.arr.rank)
    elif q > 0:
        val = invert_covariant(ctx, "D", e_pq(ctx, p - 1, q - 1), (p, q))
    elif q < 0:
        val = covariant_derivative(ctx.D, e_pq(ctx, p + 1, q + 1))
    elif p > 0:
        val = invert_covariant(ctx, "D1", e_pq(ctx, p - 1, 0), (p, None))
    else:
        val = covariant_derivative(ctx.D1, e_pq(ctx, p + 1, 0))
    expected = p * ctx.h1 + q * ctx.h2 + 1
    if val.degree() != expected:
        raise EngineError(f"deg E^({p},{q}) = {val.degree()}, expected {expected}")
    ctx._epq[key] = val
    return val


def nabla_frame(ctx: EpqContext, tag: str, zeta: Derivation) -> List[Derivation]:
    """The tuple nabla_{frame_i} zeta for the chosen coordinate frame."""
    rank = ctx.arr.rank
    partials = [Derivation([c.partial(k) for c in zeta.coeffs]) for k in range(rank)]
    if tag == "X":
        out = partials
    else:
        out = []
        for i in range(rank):
            frame = ctx.coordinate_frame(tag, i)
            acc = Derivation.zero(rank)
            for k, v in enumerate(frame.coeffs):
                if v:
                    acc = acc + partials[k] * v
            out.append(acc)
    return [Derivation([c.reduced() for c in theta.coeffs]) for theta in out]


# ---------------------------------------------------------------------------
# Certificates and the four basis families
# ---------------------------------------------------------------------------

@dataclass
class BasisCertificate:
    family: str
    params: Dict
    multiplicity: Multiplicity
    case: str  # "1".."4", or "rank2"
    basis: List[Derivation]
    exponents: List[int]
    saito_c: Scalar
    invariance: List[List[str]]
    route: str
    seeds: Optional[List] = None

    def summary(self) -> str:
        return (f"{self.family}{self.params or ''} m={self.multiplicity} case {self.case}: "
                f"exponents {self.exponents}, c = {self.saito_c}")


def _certify(ctx: EpqContext, mult: Multiplicity, basis: List[Derivation],
             case: str, route: str) -> BasisCertificate:
    if any(theta.degree() is None for theta in basis):
        raise EngineError("basis element is not homogeneous")
    basis = sorted(basis, key=Derivation.degree)  # stable: ties keep their order
    exps = [theta.degree() for theta in basis]
    c = saito_check(ctx.arr, mult, basis)
    flags = invariance_check(basis, ctx.arr.gens_W)
    return BasisCertificate(ctx.arr.family, dict(ctx.arr.params), mult, case, basis,
                            exps, c, flags, route, seeds=ctx.sys_w.seeds)


def theta_basis(ctx: EpqContext, p: int, q: int, case: int) -> BasisCertificate:
    """Free basis of D(A, m(case; p, q)) via covariant derivatives of E^(p,q)."""
    zeta = e_pq(ctx, p, q)
    tag = CASE_FRAMES[case]
    basis = nabla_frame(ctx, tag, zeta)
    m1, m2 = case_multiplicity_pair(p, q, case)
    mult = Multiplicity.from_pair(ctx.arr, m1, m2)
    cert = _certify(ctx, mult, basis, str(case), route="covariant")
    frame_degrees = {
        1: ctx.sys_w.degrees, 2: ctx.sys_w1.degrees, 3: ctx.sys_w2.degrees,
        4: [1] * ctx.arr.rank,
    }[case]
    predicted = sorted(p * ctx.h1 + q * ctx.h2 - d + 1 for d in frame_degrees)
    if cert.exponents != predicted:
        raise EngineError(f"exponents {cert.exponents} != predicted {predicted}")
    if case == 1:
        if any(f != "fixed" for flags in cert.invariance for f in flags):
            raise EngineError("odd-odd basis is not W-invariant")
    return cert


def equivariant_basis(ctx: EpqContext, m1: int, m2: int) -> BasisCertificate:
    """Basis for an equivariant multiplicity: four-case engine for B/F4,
    degree-by-degree oracle construction for the rank-2 families."""
    if ctx.first_case:
        p, q, case = pq_for_multiplicity(m1, m2)
        return theta_basis(ctx, p, q, case)
    return rank2_basis(ctx, Multiplicity.from_pair(ctx.arr, m1, m2))


# ---------------------------------------------------------------------------
# Rank-2 oracle construction
# ---------------------------------------------------------------------------

def rank2_basis(ctx: EpqContext, mult: Multiplicity) -> BasisCertificate:
    """Degree-ascending greedy basis for a rank-2 multiarrangement.

    Every rank-2 multiarrangement is free, so collecting elements that are
    independent over the polynomial ring until the Saito determinant matches
    always terminates.  For odd equivariant multiplicities the search is
    restricted to the W-fixed part, which then produces an invariant basis.
    """
    arr = ctx.arr
    if arr.rank != 2:
        raise ValueError("rank2_basis needs a rank-2 arrangement")
    invariant = mult.is_equivariant() and mult.is_odd()
    d_min = -sum(oracle_denominator(arr, mult).values())
    selected: List[Derivation] = []
    sel_degrees: List[int] = []
    d = d_min
    cap = mult.total() - d_min + 2 * len(arr.hyperplanes) + 4
    while len(selected) < 2 and d <= cap:
        space = oracle_solution_space(arr, mult, d)
        if space.dim:
            vectors = fixed_part(arr, space) if invariant else space.vectors
            if vectors:
                stack = []
                for theta, e in zip(selected, sel_degrees):
                    for mono in monomials_of_degree((1, 1), d - e):
                        shifted = theta * Poly.monomial(2, mono)
                        stack.append(_space_coordinates(space, shifted))
                got = _independent_extension(stack, vectors)
                for vec in got:
                    if len(selected) < 2:
                        selected.append(space.derivation(vec))
                        sel_degrees.append(d)
        d += 1
    if len(selected) != 2:
        raise SolverError(f"rank-2 search exhausted up to degree {cap}")
    return _certify(ctx, mult, selected, "rank2", route="oracle")


def _space_coordinates(space, theta: Derivation) -> List[Scalar]:
    nm = len(space.monomials)
    index = {m: t for t, m in enumerate(space.monomials)}
    out = [Fraction(0)] * (2 * nm)
    for j, c in enumerate(theta.coeffs):
        for mono, cf in c.numerator_over(space.den).terms.items():
            out[j * nm + index[mono]] = cf
    return out


def _independent_extension(stack: List[List[Scalar]], vectors: List[List[Scalar]]):
    """Vectors extending the span of the stack, greedily and deterministically."""
    got = []
    cur = list(stack)
    rank0 = len(rref(cur)[1]) if cur else 0
    for v in vectors:
        trial = cur + [v]
        rank1 = len(rref(trial)[1])
        if rank1 > rank0:
            cur, rank0 = trial, rank1
            got.append(v)
    return got


# ---------------------------------------------------------------------------
# Recursion along the primitive direction
# ---------------------------------------------------------------------------

@dataclass
class RecursionStep:
    b_matrix: Matrix
    next_tuple: List[Derivation]


def recursion_step(ctx: EpqContext, theta_tuple: Sequence[Derivation]) -> RecursionStep:
    """One step of the primitive recursion.

    With Theta the current tuple, solves nabla_D(Theta G) = Theta B for B,
    checks that every entry of B is a polynomial annihilated by D, that the
    antidiagonal is constant with zero upper-left triangle and constant
    nonzero determinant, and returns Theta' = Theta G B^{-1}.
    """
    arr = ctx.arr
    rank = arr.rank
    G = ctx.sys_w.gram
    tg = []
    for i in range(rank):
        acc = Derivation.zero(rank)
        for j in range(rank):
            acc = acc + theta_tuple[j] * G[j, i]
        tg.append(acc)
    z = [covariant_derivative(ctx.D, t) for t in tg]
    theta_mat = Matrix([[theta_tuple[i].coeffs[k] for i in range(rank)] for k in range(rank)])
    z_mat = Matrix([[z[i].coeffs[k] for i in range(rank)] for k in range(rank)])
    b = solve_over_fractions(theta_mat, z_mat, forms=arr.forms())
    if b is None:
        raise EngineError("recursion tuple is dependent")
    b_polys = []
    for i in range(rank):
        row = []
        for j in range(rank):
            entry = b[i, j]
            if not entry.is_poly():
                raise EngineError("B-matrix entry is not polynomial")
            p = entry.as_poly()
            if not ctx.D.apply(p).is_zero():
                raise EngineError("B-matrix entry is not annihilated by D")
            if i + j + 2 < rank + 1 and not p.is_zero():
                raise EngineError("B-matrix zero pattern violated")
            if i + j + 2 == rank + 1 and not p.is_constant():
                raise EngineError("B-matrix antidiagonal is not constant")
            row.append(p)
        b_polys.append(row)
    b_poly_mat = Matrix(b_polys)
    detb = bareiss_determinant(b_polys)
    if not detb.is_constant() or not detb.constant_value():
        raise EngineError("det B is not a nonzero constant")
    # Theta' = Theta G B^{-1}: solve X B = Theta G, i.e. B^T X^T = (Theta G)^T
    tg_mat = Matrix([[tg[i].coeffs[k] for i in range(rank)] for k in range(rank)])
    xt = solve_over_fractions(b_poly_mat.transpose(), tg_mat.transpose(), forms=arr.forms())
    if xt is None:
        raise EngineError("B-matrix is singular")
    x = xt.transpose()
    next_tuple = [Derivation(x.column(i)) for i in range(rank)]
    return RecursionStep(Matrix(b_polys), next_tuple)


def recover_zeta(theta_tuple: Sequence[Derivation], system: InvariantSystem,
                 m: int) -> Derivation:
    """zeta with nabla_{dP_i} zeta = Theta_i, for homogeneous zeta of degree m.

    Uses E = sum d_i P_i dP_i and function-linearity of the connection:
    zeta = (1/m) sum d_i P_i Theta_i.
    """
    if m == 0:
        raise ValueError("cannot recover a degree-0 derivation")
    rank = system.arr.rank
    acc = Derivation.zero(rank)
    for d_i, p_i, t_i in zip(system.degrees, system.invariants, theta_tuple):
        acc = acc + t_i * (p_i * Fraction(d_i))
    return acc * Fraction(1, m)


# ---------------------------------------------------------------------------
# Primitive decomposition and the odd-equivariant closure
# ---------------------------------------------------------------------------

def primitive_decomposition(ctx: EpqContext, p: int, q: int, k_max: int
                            ) -> List[List[Derivation]]:
    """Blocks G^(p+k, q+k) for 0 <= k <= k_max, linked by nabla_D."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    blocks = []
    for k in range(k_max + 1):
        zeta = e_pq(ctx, p + k, q + k)
        blocks.append(nabla_frame(ctx, "W", zeta))
    for k in range(k_max):
        lower, upper = blocks[k], blocks[k + 1]
        for i in range(ctx.arr.rank):
            if covariant_derivative(ctx.D, upper[i]) != lower[i]:
                raise EngineError("nabla_D does not link adjacent blocks")
    return blocks


def m_star(arr: ArrangementData, mult: Multiplicity) -> Multiplicity:
    """Equivariant odd closure max_w(2 floor(m(wH)/2) + 1)."""
    return mult.star_closure()
