from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxmulti.coxeter import Multiplicity, cached_arrangement
from coxmulti.derivations import Derivation, euler, partial_derivation
from coxmulti.engine import (e_pq, equivariant_basis, make_context, primitive_decomposition,
                             theta_basis)
from coxmulti.linalg import Matrix, determinant, logrational_ratio, rational_nullspace
from coxmulti.poly import LinearForm, LogRational, Poly, form_product
from coxmulti.verify import (VerificationError, divisibility_rows, free_module_dimension,
                             hilbert_compare, invariance_check, invariant_basis_obstruction,
                             invariant_oracle_dimension, monomials_of_degree,
                             mstar_experiment, oracle_module_dimension, poincare_check, saito_check,
                             saito_point, series_coefficients)

X = Poly.variable(2, 0)
Y = Poly.variable(2, 1)


@pytest.fixture(scope="module")
def b2():
    return make_context("B", rank=2)


@pytest.fixture(scope="module")
def g2():
    return make_context("G2")


def test_monomials_of_degree_weighted():
    assert monomials_of_degree((1, 1, 1), 2) == [(0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1),
                                                 (1, 1, 0), (2, 0, 0)]
    assert monomials_of_degree((2, 4), 8) == [(0, 2), (2, 1), (4, 0)]
    assert monomials_of_degree((2, 4), 7) == [] == monomials_of_degree((1, 1), -1)
    assert monomials_of_degree((), 0) == [()]


def test_saito_partials(b2):
    m = Multiplicity.from_pair(b2.arr, 0, 0)
    basis = [partial_derivation(2, 0), partial_derivation(2, 1)]
    assert saito_check(b2.arr, m, basis) == 1


def test_saito_case1_determinant(b2):
    cert = theta_basis(b2, 1, 1, 1)
    assert cert.saito_c != 0
    m = Multiplicity.from_pair(b2.arr, 1, 1)
    assert saito_check(b2.arr, m, cert.basis) == cert.saito_c


def test_saito_rejects_non_member(b2):
    # x d/dx fails along x - y even though it kills y
    m = Multiplicity.from_pair(b2.arr, 1, 1)
    bad = [euler(2), Derivation([X, Poly.zero(2)])]
    with pytest.raises(VerificationError):
        saito_check(b2.arr, m, bad)


def test_saito_wrong_length(b2):
    with pytest.raises(VerificationError):
        saito_check(b2.arr, Multiplicity.constant(b2.arr, 0), [euler(2)])


def test_saito_rejects_vanishing_determinant(b2):
    # x1 E and x2 E lie in D(A, m) and their degrees sum to |m| = 4, yet det = 0
    m = Multiplicity.from_pair(b2.arr, 1, 1)
    with pytest.raises(VerificationError, match="vanishes"):
        saito_check(b2.arr, m, [euler(2) * X, euler(2) * Y])


# E and theta3 = x^3 d/dx + y^3 d/dy are a basis of D(A) for B2 (exponents 1, 3)
THETA3 = Derivation([X ** 3, Y ** 3])
WRONG_DEGREE_SUM = {
    # members with a nonzero determinant, one degree too many: det / Q = -x
    "x_theta3": ((1, 1), [euler(2), THETA3 * X], "do not sum"),
    # a basis of D(A, (1, 1)) offered for the zero multiplicity
    "basis_of_other_m": ((0, 0), [euler(2), THETA3], "do not sum"),
    # the partials fail membership first, still before any evaluation
    "partials": ((1, 1), [partial_derivation(2, 0), partial_derivation(2, 1)],
                 "not in D"),
}


@pytest.mark.parametrize("name", list(WRONG_DEGREE_SUM))
def test_saito_rejects_wrong_degree_sum_before_evaluation(b2, monkeypatch, name):
    pair, basis, reason = WRONG_DEGREE_SUM[name]
    monkeypatch.setattr("coxmulti.verify.saito_point", lambda forms: pytest.fail("evaluated"))
    with pytest.raises(VerificationError, match=reason):
        saito_check(b2.arr, Multiplicity.from_pair(b2.arr, *pair), basis)


POINT_ARRANGEMENTS = ([("B", r, None) for r in range(2, 7)] + [("F4", None, None),
                      ("G2", None, None)] + [("I2", None, n) for n in range(4, 11)])


@pytest.mark.parametrize("family,rank,n", POINT_ARRANGEMENTS)
def test_saito_point_is_first_off_the_arrangement(family, rank, n):
    forms = cached_arrangement(family, rank=rank, n=n).forms()
    p = saito_point(forms)
    assert all(f.dot(p) for f in forms)

    def point(b):
        return tuple(b ** i + i for i in range(1, len(p) + 1))

    b = p[0] - 1
    assert p == point(b)
    assert all(not all(f.dot(point(c)) for f in forms) for c in range(2, b))


def _symbolic_saito(arr, mult, basis):
    """det M(basis) / prod alpha_H^{m(H)} by the symbolic determinant."""
    det = determinant(Matrix([[t.coeffs[j] for t in basis] for j in range(arr.rank)]))
    m = {h.form: mult.of(h) for h in arr.hyperplanes}
    qm = LogRational(form_product(arr.rank, {f: e for f, e in m.items() if e > 0}),
                     {f: -e for f, e in m.items() if e < 0})
    return logrational_ratio(det, qm, arr.forms())


# one cell of each parity class on B2 (the four cases), and G2 over Q(sqrt 3)
@pytest.mark.parametrize("family,m1,m2", [("b2", 1, 1), ("b2", 2, 1), ("b2", -1, 2),
                                          ("b2", -2, 0), ("g2", -1, 1)])
def test_saito_scalar_matches_symbolic_determinant(request, family, m1, m2):
    ctx = request.getfixturevalue(family)
    cert = equivariant_basis(ctx, m1, m2)
    ratio = _symbolic_saito(ctx.arr, cert.multiplicity, cert.basis)
    assert ratio.is_poly() and ratio.num.is_constant()
    assert ratio == LogRational.const(2, saito_check(ctx.arr, cert.multiplicity, cert.basis))


def test_oracle_dimensions(b2):
    assert oracle_module_dimension(b2.arr, Multiplicity.from_pair(b2.arr, 0, 0), 1) == 4
    m11 = Multiplicity.from_pair(b2.arr, 1, 1)
    assert oracle_module_dimension(b2.arr, m11, 1) == 1
    assert oracle_module_dimension(b2.arr, m11, 3) == 4


def test_free_module_prediction():
    assert free_module_dimension([1, 3], 2, 3) == 3 + 1
    assert free_module_dimension([1, 3], 2, 0) == 0
    assert free_module_dimension([0, 0], 2, 1) == 4


def test_hilbert_windows(b2):
    m11 = Multiplicity.from_pair(b2.arr, 1, 1)
    assert hilbert_compare(b2.arr, m11, [1, 3], 8).ok
    m22 = Multiplicity.from_pair(b2.arr, 2, 2)
    assert hilbert_compare(b2.arr, m22, [4, 4], 8).ok
    bad = hilbert_compare(b2.arr, m11, [2, 2], 6)
    assert not bad.ok and bad.mismatches[0] == 1


def test_oracle_negative_degrees(b2):
    # derivations with poles appear in negative degrees
    m = Multiplicity.from_pair(b2.arr, -1, -1)
    cert_exps = [-3, -1]
    rep = hilbert_compare(b2.arr, m, cert_exps, 4, d_min=-4)
    assert rep.ok


def test_invariance_check_classifications(b2):
    e = euler(2)
    flags = invariance_check([e], b2.arr.gens_W)
    assert all(f == "fixed" for f in flags[0])
    dx = partial_derivation(2, 0)
    diag = b2.arr.gens_W[0]  # reflection through x - y
    flip = ((Fraction(-1), Fraction(0)), (Fraction(0), Fraction(1)))
    flags = invariance_check([dx], [diag, flip])
    assert flags[0][0] == "neither"
    assert flags[0][1] == "antifixed"


def test_invariance_check_g2_d1(g2):
    flags = invariance_check([g2.D1], g2.arr.generators("W2"))
    assert all(f == "antifixed" for f in flags[0])


def test_poincare_check_b2(b2):
    blocks = primitive_decomposition(b2, 1, 1, 2)
    rep = poincare_check(b2.sys_w, e_pq(b2, 1, 1).degree(), blocks, 12)
    assert rep.ok
    # dropping the top block only hurts at its degrees and above
    rep_trunc = poincare_check(b2.sys_w, e_pq(b2, 1, 1).degree(), blocks[:2], 12)
    min_deg = min(t.degree() for t in blocks[2])
    assert all(d >= min_deg for d in rep_trunc.mismatches)
    assert rep_trunc.mismatches


def test_series_coefficients():
    # 1/((1-t^2)(1-t^4)) shifted by t
    out = series_coefficients([2, 4], [1], 6)
    assert out == [0, 1, 0, 1, 0, 2, 0]
    out = series_coefficients([2], [-2], 2)
    assert out == [1, 0, 1]


def test_mstar_experiment_equivariant(b2):
    rep = mstar_experiment(b2.arr, Multiplicity.from_pair(b2.arr, 2, 2), 10)
    assert rep.ok
    odd = Multiplicity.from_pair(b2.arr, 1, 3)
    assert odd.star_closure() == odd
    assert mstar_experiment(b2.arr, odd, 6).ok


def test_mstar_experiment_non_equivariant(b2):
    fx = LinearForm([1, 0])
    values = {h: (4 if h.form == fx else (1 if h.orbit == 1 else 0))
              for h in b2.arr.hyperplanes}
    m = Multiplicity(b2.arr, values)
    assert m.star_closure().orbit_pair() == (5, 1)
    rep = mstar_experiment(b2.arr, m, 8)
    assert rep.ok


def test_invariant_basis_obstruction(b2):
    # even multiplicity: no invariant basis, witnessed inside the window
    m00 = Multiplicity.from_pair(b2.arr, 0, 0)
    assert invariant_basis_obstruction(b2.arr, m00, [0, 0], 6) is not None
    # odd equivariant: invariant dimensions match the invariant-basis series
    m11 = Multiplicity.from_pair(b2.arr, 1, 1)
    assert invariant_basis_obstruction(b2.arr, m11, [1, 3], 8) is None


def test_invariant_oracle_dimension(b2):
    # degree-1 invariant piece of Der_S is spanned by the Euler field
    m00 = Multiplicity.from_pair(b2.arr, 0, 0)
    assert invariant_oracle_dimension(b2.arr, m00, 1) == 1
    assert invariant_oracle_dimension(b2.arr, m00, 0) == 0


@st.composite
def divisibility_inputs(draw):
    """(arrangement, form, k, cofactors): small random data in 2 or 3 variables."""
    n = draw(st.sampled_from([2, 3]))
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any))
    k = draw(st.integers(0, 3))
    monomial = st.tuples(*[st.integers(0, 2)] * n)
    poly = st.dictionaries(monomial, st.integers(-3, 3).filter(bool), max_size=4).map(
        lambda terms: Poly(n, {e: Fraction(c) for e, c in terms.items()}))
    cofactors = draw(st.lists(poly, min_size=1, max_size=4))
    return cached_arrangement("B", rank=n), LinearForm(coeffs), k, cofactors


@settings(max_examples=60, deadline=None)
@given(divisibility_inputs(), st.data())
def test_divisibility_rows_sound(case, data):
    # mix divisible and non-divisible inputs and repeat one, so that the
    # nullspace also holds combinations that cancel
    arr, form, k, cofactors = case
    fp = form.to_poly()
    polys = [q * fp ** data.draw(st.integers(0, k + 1)) for q in cofactors]
    polys.append(polys[0])
    for lam in rational_nullspace(divisibility_rows(arr, polys, form, k), ncols=len(polys)):
        combo = Poly.zero(arr.rank)
        for c, p in zip(lam, polys):
            combo = combo + p * c
        assert combo.is_zero() or combo.multiplicity_along(form) >= k


@settings(max_examples=60, deadline=None)
@given(divisibility_inputs())
def test_divisibility_rows_complete(case):
    arr, form, k, cofactors = case
    polys = [q * form.to_poly() ** k for q in cofactors]
    rows = divisibility_rows(arr, polys, form, k)
    assert len(rational_nullspace(rows, ncols=len(polys))) == len(polys)
