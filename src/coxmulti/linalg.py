"""Exact linear algebra over scalars, polynomials and arrangement fractions.

Determinants of polynomial matrices use fraction-free Bareiss elimination
(every intermediate division is exact and asserted); matrices of
LogRational entries are cleared row by row first.  Solving returns reduced
LogRational entries and reports failure as a value (None), not an exception.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .poly import LinearForm, LogRational, Poly
from .scalars import Scalar


class Matrix:
    """Dense rectangular matrix of Poly or LogRational entries."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = [list(r) for r in rows]
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise ValueError("ragged matrix")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def column(self, j: int) -> List:
        return [r[j] for r in self.rows]

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.rows)))

    def __repr__(self):
        return "Matrix([\n" + "\n".join("  " + repr(r) for r in self.rows) + "\n])"


def _ambient_nvars(m: Matrix) -> int:
    for row in m.rows:
        for x in row:
            if isinstance(x, Poly):
                return x.nvars
            if isinstance(x, LogRational):
                return x.nvars
    raise ValueError("cannot infer ambient dimension")


def bareiss_determinant(rows: List[List[Poly]]) -> Poly:
    """Fraction-free determinant of a square polynomial matrix."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    nvars = rows[0][0].nvars
    a = [list(r) for r in rows]
    sign = 1
    prev = Poly.const(nvars, 1)
    for k in range(n - 1):
        # pivot with fewest terms keeps intermediates sparse
        pivot = None
        best = None
        for i in range(k, n):
            if a[i][k].terms:
                t = len(a[i][k].terms)
                if best is None or t < best:
                    best, pivot = t, i
        if pivot is None:
            return Poly.zero(nvars)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                q = num.divide_exact(prev)
                assert q is not None, "Bareiss intermediate division not exact"
                a[i][j] = q
            a[i][k] = Poly.zero(nvars)
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det if sign > 0 else -det


def _laplace_determinant(entries: List[List[LogRational]], nvars: int) -> LogRational:
    """Memoized Laplace expansion with reduction after every step.

    Reduced minors of structured rational matrices stay far smaller than the
    cleared-polynomial intermediates a fraction-free elimination would carry,
    so this is the right algorithm once denominators appear.
    """
    n = len(entries)
    memo: Dict[Tuple[int, ...], LogRational] = {(): LogRational.const(nvars, 1)}
    for size in range(1, n + 1):
        row = size - 1
        nxt: Dict[Tuple[int, ...], LogRational] = {}
        for cols in combinations(range(n), size):
            acc = LogRational.zero(nvars)
            for idx, c in enumerate(cols):
                e = entries[row][c]
                if e.is_zero():
                    continue
                sub = tuple(x for x in cols if x != c)
                term = e * memo[sub]
                acc = acc + term if (row + idx) % 2 == 0 else acc - term
            nxt[cols] = acc.reduced()
        memo = nxt
    return memo[tuple(range(n))]


def determinant(m: Matrix) -> LogRational:
    """Exact determinant: Bareiss for polynomial matrices, reduction-aware
    Laplace expansion once rational entries appear."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    nvars = _ambient_nvars(m)
    entries = [[LogRational.coerce(x, nvars) for x in row] for row in m.rows]
    if all(e.is_poly() for row in entries for e in row):
        return LogRational.from_poly(bareiss_determinant(
            [[e.as_poly() for e in row] for row in entries]))
    return _laplace_determinant(entries, nvars)


def logrational_ratio(a: LogRational, b: LogRational,
                      forms: Sequence[LinearForm] = ()) -> Optional[LogRational]:
    """a / b as a reduced LogRational, peeling b's numerator into the given
    linear factors; None when the quotient leaves the LogRational ring."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero")
    if a.is_zero():
        return LogRational.zero(a.nvars)
    out = a
    for f, e in b.den.items():
        out = out.mul_form_power(f, e)
    rest = b.num
    for form in forms:
        k, rest = rest.strip_form(form)
        out = out.mul_form_power(form, -k)
    if rest.is_constant():
        return (out * (1 / rest.constant_value())).reduced()
    q = out.num.divide_exact(rest)
    if q is None:
        return None
    return LogRational(q, out.den).reduced()


def solve_over_fractions(m: Matrix, rhs: Matrix,
                         forms: Sequence[LinearForm] = ()) -> Optional[Matrix]:
    """X with M X = N, entries reduced LogRational; None when M is singular.

    Cramer's rule over the exact determinant dispatcher.  `forms` are
    candidate linear factors for the determinant denominators; pass the
    arrangement's forms when solving against Saito-type matrices.
    """
    n = m.nrows
    if m.ncols != n or rhs.nrows != n:
        raise ValueError("dimension mismatch in solve")
    nvars = _ambient_nvars(m)
    entries = [[LogRational.coerce(x, nvars) for x in row] for row in m.rows]
    rhs_entries = [[LogRational.coerce(x, nvars) for x in row] for row in rhs.rows]
    det = determinant(Matrix(entries))
    if det.is_zero():
        return None
    out: List[List[LogRational]] = [[None] * rhs.ncols for _ in range(n)]
    for j in range(rhs.ncols):
        for i in range(n):
            cramer = [[entries[r][c] if c != i else rhs_entries[r][j]
                       for c in range(n)] for r in range(n)]
            num = determinant(Matrix(cramer))
            entry = logrational_ratio(num, det, forms)
            if entry is None:
                return None
            out[i][j] = entry
    return Matrix(out)


# ---------------------------------------------------------------------------
# Scalar linear algebra (coefficients in Q or Q(g))
# ---------------------------------------------------------------------------

def rref(rows: List[List[Scalar]]) -> Tuple[List[List[Scalar]], List[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    a = [list(r) for r in rows]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    pivots: List[int] = []
    r = 0
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nr):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return a, pivots


def rational_nullspace(rows: List[List[Scalar]], ncols: Optional[int] = None) -> List[List[Scalar]]:
    """Basis of the right nullspace, in reduced echelon convention."""
    if not rows:
        if ncols is None:
            return []
        basis = []
        for i in range(ncols):
            v = [Fraction(0)] * ncols
            v[i] = Fraction(1)
            basis.append(v)
        return basis
    nc = len(rows[0])
    a, pivots = rref(rows)
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
        basis.append(v)
    return basis


def solve_affine(rows: List[List[Scalar]], rhs: List[Scalar]):
    """Solve A x = b exactly.

    Returns (particular, nullspace_basis) or None when inconsistent.
    """
    if not rows:
        return [], []
    nc = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    a, pivots = rref(aug)
    if nc in pivots:
        return None  # pivot in the rhs column: inconsistent
    x = [Fraction(0)] * nc
    for r, pc in enumerate(pivots):
        x[pc] = a[r][nc]
    null = rational_nullspace([row[:nc] for row in a[:len(pivots)]], ncols=nc)
    return x, null


def scalar_matmul(a, b):
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
              for j in range(len(b[0])))
        for i in range(len(a))
    )


def scalar_inverse(m):
    """Inverse of a square scalar matrix via Gauss-Jordan."""
    n = len(m)
    aug = [list(m[i]) + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    a, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return tuple(tuple(a[i][n:]) for i in range(n))
