"""Derivations with arrangement-rational coefficients and the flat connection.

A derivation theta = sum c_i d/dx_i is stored through its coefficient vector
of LogRational entries.  In the orthonormal coordinates of the catalog the
Levi-Civita connection of the Euclidean metric is flat with vanishing
Christoffel symbols, so nabla_theta delta differentiates delta's
coefficients along theta componentwise.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from .coxeter import ArrangementData, InvariantSystem, Multiplicity
from .linalg import Matrix, scalar_inverse, solve_over_fractions
from .poly import LinearForm, LogRational, Poly, common_denominator
from .scalars import Scalar


class Derivation:
    """Element of Der_F given by its coefficients in d/dx_1 .. d/dx_l."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Union[LogRational, Poly]]):
        cs = []
        for c in coeffs:
            if isinstance(c, Poly):
                c = LogRational.from_poly(c)
            cs.append(c)
        self.coeffs = tuple(cs)
        if not cs:
            raise ValueError("empty derivation")

    @property
    def nvars(self) -> int:
        return len(self.coeffs)

    @staticmethod
    def zero(nvars: int) -> "Derivation":
        return Derivation([LogRational.zero(nvars)] * nvars)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __add__(self, other: "Derivation") -> "Derivation":
        return Derivation([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "Derivation") -> "Derivation":
        return Derivation([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "Derivation":
        return Derivation([-a for a in self.coeffs])

    def __mul__(self, f) -> "Derivation":
        """Module action: multiply every coefficient by f."""
        return Derivation([c * f for c in self.coeffs])

    __rmul__ = __mul__

    def apply(self, f: Union[Poly, LogRational]) -> LogRational:
        """theta(f) = sum c_i * df/dx_i, reduced."""
        if isinstance(f, Poly):
            f = LogRational.from_poly(f)
        n = self.nvars
        acc = LogRational.zero(n)
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            df = f.partial(i)
            if df.is_zero():
                continue
            acc = acc + c * df
        return acc.reduced()

    def degree(self) -> Optional[int]:
        """Homogeneity degree; None when inhomogeneous or zero."""
        degs = set()
        for c in self.coeffs:
            if c.is_zero():
                continue
            if not c.is_homogeneous():
                return None
            degs.add(c.degree())
        if len(degs) != 1:
            return None
        return degs.pop()

    def render(self, names=None) -> str:
        if names is None:
            names = [f"x{i+1}" for i in range(self.nvars)]
        parts = [f"[{c.render(names)}] d/d{names[i]}"
                 for i, c in enumerate(self.coeffs) if not c.is_zero()]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return self.render()


def euler(nvars: int) -> Derivation:
    """E = sum x_i d/dx_i, characterized by E(alpha) = alpha."""
    return Derivation([Poly.variable(nvars, i) for i in range(nvars)])


def partial_derivation(nvars: int, i: int) -> Derivation:
    cs = [LogRational.zero(nvars)] * nvars
    cs = list(cs)
    cs[i] = LogRational.const(nvars, 1)
    return Derivation(cs)


def covariant_derivative(theta: Derivation, delta: Derivation) -> Derivation:
    """nabla_theta delta: componentwise directional derivative (flat metric)."""
    if theta.nvars != delta.nvars:
        raise ValueError("ambient dimension mismatch")
    return Derivation([theta.apply(c) for c in delta.coeffs])


def group_action(w, theta: Derivation) -> Derivation:
    """(w theta)(f) = w(theta(w^{-1} f)) for an invertible matrix w; each
    coefficient is moved before the rows of w combine them, so that no
    unreduced sum is substituted."""
    n = theta.nvars
    winv = scalar_inverse(w)
    moved = [c.substitute_matrix(winv) for c in theta.coeffs]
    new = []
    for j in range(n):
        acc = LogRational.zero(n)
        for k in range(n):
            if w[j][k]:
                acc = acc + moved[k] * w[j][k]
        new.append(acc)
    return Derivation(new)


def coordinate_field(system: InvariantSystem, i: int) -> Derivation:
    """d/dP_i in x-coordinates, from J(P)^T v = e_i."""
    arr = system.arr
    n = arr.rank
    rhs = Matrix([[Poly.const(n, 1) if k == i else Poly.zero(n)] for k in range(n)])
    sol = solve_over_fractions(system.jacobian.transpose(), rhs, forms=arr.forms())
    if sol is None:
        raise ValueError("Jacobian is singular")
    return Derivation(sol.column(0))


def gradient_field(system: InvariantSystem, i: int) -> Derivation:
    """I*(dP_i): the gradient of the i-th basic invariant (A = identity)."""
    return Derivation(system.jacobian.column(i))


# ---------------------------------------------------------------------------
# Logarithmic membership
# ---------------------------------------------------------------------------

def membership_conditions(form: LinearForm, pole: int,
                          order: int) -> List[Tuple[List[Scalar], int]]:
    """Membership along the hyperplane form = 0 as divisibility conditions.

    For theta = sum_j F_j d/dx_j / den with form^pole the power of the form
    in den, each pair (weights, k) asks form^k to divide sum_i weights[i] F_i:
    first theta(alpha) = sum a_i F_i / den vanishes to order m(H) when
    order = m(H) + pole is positive, then, when pole is positive, the
    tangential part theta - theta(alpha) I*(d alpha) / |a|^2 has no pole,
    one condition |a|^2 F_j - a_j sum_i a_i F_i per component j.
    """
    a = form.coeffs
    out = []
    if order > 0:
        out.append((list(a), order))
    if pole > 0:
        norm = form.norm_sq()
        for j in range(len(a)):
            out.append(([(norm if i == j else 0) - a[j] * a[i] for i in range(len(a))], pole))
    return out


def combine(weights: Sequence[Scalar], polys: Sequence[Poly]) -> Poly:
    """sum_i weights[i] * polys[i]."""
    acc = Poly.zero(polys[0].nvars)
    for w, p in zip(weights, polys):
        if w:
            acc = acc + p * w
    return acc


def membership_witness(theta: Derivation, arr: ArrangementData,
                       mult: Multiplicity) -> Optional[Tuple[str, "LinearForm"]]:
    """None when theta lies in D(A, m); otherwise (reason, hyperplane form).

    theta is cleared once to the lcm of its denominators; every condition of
    membership_conditions is then one divisibility of numerators.
    """
    if theta.is_zero():
        raise ValueError("membership of the zero derivation")
    den = common_denominator(c.den for c in theta.coeffs)
    allowed = set(arr.forms())
    for f in den:
        if f not in allowed:
            raise ValueError(f"foreign denominator form {f}")
    nums = [c.numerator_over(den) for c in theta.coeffs]
    for h in arr.hyperplanes:
        pole = den.get(h.form, 0)
        order = mult.of(h) + pole
        for idx, (weights, k) in enumerate(membership_conditions(h.form, pole, order)):
            p = combine(weights, nums)
            if p and p.strip_form(h.form, k)[0] < k:
                normal = idx == 0 and order > 0
                return ("order below multiplicity" if normal else "tangential pole", h.form)
    return None


def log_membership(theta: Derivation, arr: ArrangementData, mult: Multiplicity) -> bool:
    """theta in D(A, m): order of theta(alpha_H) at least m(H) for every H,
    together with membership in D(A, -infinity)."""
    return membership_witness(theta, arr, mult) is None
