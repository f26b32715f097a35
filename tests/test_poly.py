import gzip
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxmulti.certificates import certificate_from_json
from coxmulti.coxeter import cached_arrangement
from coxmulti.derivations import group_action
from coxmulti.linalg import logrational_ratio, scalar_inverse
from coxmulti.poly import LinearForm, LogRational, Poly, form_product
from coxmulti.scalars import AlgebraicNumber, as_fraction, cosine_field, scalar_is_rational
from coxmulti.verify import _adapted_matrix

X = Poly.variable(2, 0)
Y = Poly.variable(2, 1)
FX = LinearForm([1, 0])
FY = LinearForm([0, 1])
FD = LinearForm([1, -1])
FS = LinearForm([1, 1])
BUNDLE = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "certificates.json.gz"


def rand_poly(rng, nvars=2, deg=3, terms=4):
    p = Poly.zero(nvars)
    for _ in range(terms):
        e = tuple(rng.randint(0, deg) for _ in range(nvars))
        p = p + Poly.monomial(nvars, e, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
    return p


def test_product_difference_of_squares():
    assert (X + Y) * (X - Y) == X * X - Y * Y


def test_logrational_reduction():
    one_over_x = LogRational(Poly.const(2, 1), {FX: 1})
    out = one_over_x * X
    assert out.is_poly() and out.as_poly() == Poly.const(2, 1)


def test_arithmetic_divides_nothing(monkeypatch):
    # arithmetic leaves common forms in place; only reduced() divides
    cert = certificate_from_json(json.loads(gzip.decompress(BUNDLE.read_bytes()))["B3_p-1_q1_c4"])
    arr = cached_arrangement("B", rank=3)
    a = LogRational(X * Y, {FX: 2, FD: 1})
    b = LogRational(X - Y, {FD: 2, FY: 1})
    swap = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    calls = []
    divide = Poly.divide_exact
    monkeypatch.setattr(Poly, "divide_exact", lambda p, d: calls.append(d) or divide(p, d))
    for x in (a + b, a - b, a * b, a * X, a.partial(0), b.partial(1), a.substitute_matrix(swap),
              a.mul_form_power(FD, 2), b.mul_form_power(FX, -1)):
        assert x.den
    for w in arr.gens_W:
        for theta in cert.basis:
            group_action(w, theta)
    assert not calls


def test_sqrt3_squares_to_3():
    field, g = cosine_field(6)
    p = Poly.const(2, g)
    assert p * p == Poly.const(2, Fraction(3))


def test_ring_axioms_randomized():
    rng = random.Random(3)
    for _ in range(20):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a


def test_partial_derivative_examples():
    assert (X ** 4 + Y ** 4).partial(0) == 4 * X ** 3
    inv_x = LogRational(Poly.const(2, 1), {FX: 1})
    assert inv_x.partial(0) == LogRational(Poly.const(2, -1), {FX: 2})
    assert (X * X * Y + Y ** 3).partial(1) == X * X + 3 * Y * Y


def test_leibniz_randomized():
    rng = random.Random(5)
    for _ in range(15):
        f, g = rand_poly(rng), rand_poly(rng)
        for i in range(2):
            assert (f * g).partial(i) == f.partial(i) * g + f * g.partial(i)


def test_substitution_rotation_invariance():
    # exact rotation from a Pythagorean triple
    rot = ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(4, 5), Fraction(3, 5)))
    p = X * X + Y * Y
    assert p.substitute_matrix(rot) == p


def test_substitution_reflection():
    refl = ((Fraction(-1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert X.substitute_matrix(refl) == -X


def test_substitution_roundtrip():

    m = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))
    minv = ((Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(2)))
    rng = random.Random(9)
    for _ in range(5):
        f = rand_poly(rng)
        assert f.substitute_matrix(m).substitute_matrix(minv) == f


def test_substitution_cache_keeps_matrix_in_use(monkeypatch):
    from coxmulti import poly

    # a matrix gets a new power table exactly when it is checked for singularity
    tabled = []
    det = poly.scalar_determinant
    monkeypatch.setattr(poly, "scalar_determinant",
                        lambda key: tabled.append(key) or det(key))
    m = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))
    f = X ** 3 + X * Y
    f.substitute_matrix(m)
    for k in range(100):
        f.substitute_matrix(((Fraction(k + 2), Fraction(0)), (Fraction(0), Fraction(1))))
        f.substitute_matrix(m)
    assert tabled.count(m) <= 1
    assert len(poly._SUBST_POWER_CACHE) <= 65


def test_substitution_cache_separates_fields(monkeypatch):
    from coxmulti import poly

    # a rational AlgebraicNumber equals and hashes like the same Fraction, so
    # equal-valued matrices over Q and over Q(g) must still get their own tables
    g6, g8 = cosine_field(6)[1], cosine_field(8)[1]
    one6, zero6 = g6.field.one(), g6.field.zero()
    swap = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    swap6 = ((zero6, one6), (one6, zero6))
    monkeypatch.setattr(poly, "_SUBST_POWER_CACHE", poly.OrderedDict())
    (X * Y).substitute_matrix(swap6)
    assert (g8 * X * Y + Y ** 2).substitute_matrix(swap) == g8 * X * Y + X ** 2

    p = X ** 2 + 3 * X * Y
    monkeypatch.setattr(poly, "_SUBST_POWER_CACHE", poly.OrderedDict())
    fresh = p.substitute_matrix(swap6)
    monkeypatch.setattr(poly, "_SUBST_POWER_CACHE", poly.OrderedDict())
    p.substitute_matrix(swap)  # tables the rational swap first
    cached = p.substitute_matrix(swap6)
    assert [(e, c, type(c)) for e, c in cached.terms.items()] == \
        [(e, c, type(c)) for e, c in fresh.terms.items()]


def test_order_along_examples():
    assert (X * X * (X + Y)).multiplicity_along(FX) == 2
    assert (X * X * (X + Y)).multiplicity_along(FS) == 1
    assert (Y * (X - Y) ** 2).multiplicity_along(FD) == 2
    assert Y.multiplicity_along(FX) == 0
    # a reduced fraction keeps a pole only where its numerator has no factor
    g = LogRational(Y * (X - Y), {FX: 1, FD: 2}).reduced()
    assert g.den == {FX: 1, FD: 1}
    assert g.num.multiplicity_along(FD) == 0 and g.num.multiplicity_along(FX) == 0
    with pytest.raises(ValueError):
        Poly.zero(2).multiplicity_along(FX)


def test_order_additivity_randomized():
    rng = random.Random(13)
    for _ in range(10):
        f = (rand_poly(rng) + Poly.const(2, 1)) * FX.to_poly() ** rng.randint(0, 2)
        g = (rand_poly(rng) + Poly.const(2, 1)) * FD.to_poly() ** rng.randint(0, 2)
        if f.is_zero() or g.is_zero():
            continue
        for form in (FX, FD):
            assert ((f * g).multiplicity_along(form)
                    == f.multiplicity_along(form) + g.multiplicity_along(form))


def test_b2_jacobian_over_form_product():
    # det J for the rank-2 power sums, expanded by hand:
    # (2x)(4y^3) - (2y)(4x^3) = -8xy(x - y)(x + y)
    det = LogRational.from_poly(8 * X * Y ** 3 - 8 * X ** 3 * Y)
    forms = [FX, FY, FD, FS]
    q = LogRational.from_poly(form_product(2, {f: 1 for f in forms}))
    assert logrational_ratio(det, q, forms) == LogRational.const(2, -8)


def test_form_product_ratio_trivial_and_failure():
    one = LogRational.const(2, 1)
    assert logrational_ratio(one, one) == one
    # x^2 y over x y leaves x: not a constant multiple of the form product
    ratio = logrational_ratio(LogRational.from_poly(X * X * Y),
                              LogRational.from_poly(X * Y), [FX, FY])
    assert ratio == LogRational.from_poly(X)
    # proportional inputs collapse to the same normalized key
    assert LinearForm([2, 0]) == FX


def test_linearform_normalization():
    assert LinearForm([2, -2]) == LinearForm([-1, 1]) == FD
    assert LinearForm([Fraction(1, 2), Fraction(1, 2)]) == FS
    assert FD.coeffs == (Fraction(1), Fraction(-1))
    # normalization is idempotent
    assert LinearForm(FD.coeffs).coeffs == FD.coeffs
    with pytest.raises(ValueError):
        LinearForm([0, 0])


def test_singular_substitution_rejected():
    singular = ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        X.substitute_matrix(singular)


def test_logrational_power():
    inv_x = LogRational(Poly.const(2, 1), {FX: 1})
    assert inv_x ** 2 == LogRational(Poly.const(2, 1), {FX: 2})
    assert inv_x ** 0 == LogRational.const(2, 1)
    with pytest.raises(ValueError):
        inv_x ** -1


def test_linearform_field_normalization():
    field, g = cosine_field(6)
    a = LinearForm([g, 3])
    b = LinearForm([1, g])
    assert a == b  # sqrt3 * (1, sqrt3) = (sqrt3, 3)


def test_linearform_field_normalization_inverts_once(monkeypatch):
    g = cosine_field(8)[1]
    raw = [Fraction(0), g, Fraction(3), g * g - 1]
    expected = [c / g for c in raw]
    calls = []
    inverse = AlgebraicNumber.inverse
    monkeypatch.setattr(AlgebraicNumber, "inverse", lambda a: calls.append(a) or inverse(a))
    form = LinearForm(raw)
    assert len(calls) == 1
    assert [(c, type(c)) for c in form.coeffs] == [(c, type(c)) for c in expected]


def test_logrational_degree_and_homogeneity():
    f = LogRational(X * X * Y, {FX: 1})
    assert f.degree() == 2
    assert f.is_homogeneous()
    assert (X + X * Y).is_homogeneous() is False
    assert Poly.zero(2).degree() is None


def test_divide_exact():
    p = (X + Y) ** 3 * (X - Y)
    assert p.divide_exact(X + Y) == (X + Y) ** 2 * (X - Y)
    assert p.divide_exact(X - 2 * Y) is None
    assert p.multiplicity_along(FS) == 3


# x + sqrt(3) y, a G2 form over Q(sqrt 3)
G2_FORM = LinearForm([1, cosine_field(6)[1]])


@st.composite
def strip_inputs(draw):
    """(p, form): nonzero p in 2 or 3 variables and a form to strip from it."""
    n = draw(st.sampled_from([2, 3]))
    monomial = st.tuples(*[st.integers(0, 2)] * n)
    terms = draw(st.dictionaries(monomial, st.integers(-3, 3).filter(bool),
                                 min_size=1, max_size=4))
    rational = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any).map(LinearForm)
    form = draw(st.one_of(rational, st.just(G2_FORM)) if n == 2 else rational)
    return Poly(n, {e: Fraction(c) for e, c in terms.items()}), form


@settings(max_examples=80, deadline=None)
@given(strip_inputs(), st.integers(0, 3), st.one_of(st.none(), st.integers(0, 4)))
def test_strip_form_contract(case, j, limit):
    # the contract any faster division by a form must keep
    p, form = case
    fp = form.to_poly()
    target = p * fp ** j
    k, q = target.strip_form(form, limit)
    assert q * fp ** k == target
    assert min(j, j if limit is None else limit) <= k
    assert limit is None or k <= limit
    if limit is None or k < limit:
        assert q.divide_exact(fp) is None


def reference_divide(p, d):
    """The plain long division: rescan the remainder for its grlex-leading
    term and divide by d's leading coefficient on every step."""
    grlex = lambda e: (sum(e), e)
    ed = max(d.terms, key=grlex)
    cd = d.terms[ed]
    rem, q = dict(p.terms), {}
    while rem:
        er = max(rem, key=grlex)
        diff = tuple(a - b for a, b in zip(er, ed))
        if any(x < 0 for x in diff):
            return None
        c = rem[er] / cd
        q[diff] = c
        for e2, c2 in d.terms.items():
            e = tuple(a + b for a, b in zip(diff, e2))
            s = rem.get(e)
            v = c * c2
            if s is None:
                rem[e] = -v
            else:
                s = s - v
                if s:
                    rem[e] = s
                else:
                    del rem[e]
    return q


G8 = cosine_field(8)[1]
I2_8_FORM = LinearForm([G8, 1])  # leading coefficient the field's 1


@st.composite
def division_cases(draw):
    """(p, d): d a form over Q, Q(sqrt 3) or Q(2 cos pi/8), or a non-linear
    polynomial over that field as Bareiss divides by; p = d * q, sometimes
    plus a perturbation so the division fails."""
    gen, form = draw(st.sampled_from([
        (None, st.lists(st.integers(-2, 2), min_size=2, max_size=2).filter(any).map(LinearForm)),
        (SQRT3, st.just(G2_FORM)),
        (G8, st.just(I2_8_FORM))]))
    coeff = rationals if gen is None else st.one_of(
        rationals, st.builds(lambda a, b: a + b * gen, rationals, rationals))
    monomial = st.tuples(st.integers(0, 2), st.integers(0, 2))

    def poly(min_size, max_size):
        return Poly(2, draw(st.dictionaries(monomial, coeff.filter(bool),
                                            min_size=min_size, max_size=max_size)))

    d = poly(1, 3) if draw(st.booleans()) else draw(form).to_poly()
    p = d * poly(0, 5)
    if draw(st.booleans()):
        p = p + poly(1, 2)
    if gen is not None:  # store some rational values as field elements and vice versa
        retyped = lambda c: gen.field.element((as_fraction(c),)) if draw(st.booleans()) \
            else as_fraction(c)
        p = Poly(2, {e: retyped(c) if scalar_is_rational(c) or len(c.coeffs) == 1 else c
                     for e, c in p.terms.items()})
    return p, d


@settings(max_examples=120, deadline=None)
@given(division_cases())
def test_divide_exact_matches_reference(case):
    # same quotient terms, in the same order, with the same coefficient types
    p, d = case
    q, ref = p.divide_exact(d), reference_divide(p, d)
    assert (q is None) == (ref is None)
    if q is not None:
        assert q * d == p
        assert [(e, c, type(c)) for e, c in q.terms.items()] == \
            [(e, c, type(c)) for e, c in ref.items()]


def reference_substitute(p, m):
    """The power-product expansion: each term, in ascending grlex order, is
    its coefficient times powers of the images, then added to the sum."""
    images = [Poly.from_linear(row) for row in m]
    acc = Poly(p.nvars)
    for e, c in sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0])):
        mono = Poly.const(p.nvars, c)
        for i, k in enumerate(e):
            if k:
                mono = mono * images[i] ** k
        acc = acc + mono
    return acc


SUBSTITUTION_ARRANGEMENTS = [("B", 3, None), ("F4", None, None), ("G2", None, None),
                             ("I2", None, 4)]


@st.composite
def substitution_cases(draw):
    """(p, m) as the package pairs them.  m is a group element of B3, F4, G2
    or I2(8) or its inverse, on a polynomial over the arrangement's field;
    or an adapted matrix of one of its non-coordinate forms, on one term, as
    divisibility_rows substitutes.  Over Q(g) the coefficients mix Fraction
    and AlgebraicNumber, rational values stored either way.  Such a matrix
    has all its nonzero entries in Q(g), or one nonzero entry in every row,
    or (adapted) one row that is not a unit vector; that is what makes each
    coefficient's type independent of the order of the sums."""
    family, rank, n = draw(st.sampled_from(SUBSTITUTION_ARRANGEMENTS))
    arr = cached_arrangement(family, rank=rank, n=n)
    if draw(st.booleans()):
        m = draw(st.sampled_from(arr.group_elements("W")))
        if draw(st.booleans()):
            m = scalar_inverse(m)
        size = (0, 5)
    else:
        forms = [f for f in arr.forms() if not f.is_coordinate()]
        m = _adapted_matrix(draw(st.sampled_from(forms)))
        size = (1, 1)
    gen = arr.gamma
    coeff = rationals if gen is None else st.one_of(
        rationals, rationals.map(lambda a: gen.field.element((a,))),
        st.builds(lambda a, b: a + b * gen, rationals, rationals))
    monomial = st.tuples(*[st.integers(0, 4 if arr.rank == 2 else 2)] * arr.rank)
    terms = draw(st.dictionaries(monomial, coeff.filter(bool), min_size=size[0],
                                 max_size=size[1]))
    return Poly(arr.rank, terms), m


@settings(max_examples=100, deadline=None)
@given(substitution_cases())
def test_substitute_matrix_matches_reference(case):
    # same terms with the same coefficient types; dict order may differ
    p, m = case
    out, ref = p.substitute_matrix(m), reference_substitute(p, m)
    typed = lambda q: sorted(((e, c, type(c)) for e, c in q.terms.items()), key=lambda t: t[0])
    assert typed(out) == typed(ref)


def test_render_deterministic():
    p = 3 * X * X - Y + Poly.const(2, Fraction(1, 2))
    assert p.render() == "3*x1^2 - x2 + 1/2"
    f = LogRational(Y, {FX: 2})
    assert f.render() == "(x2) / ((x1)^2)"


def test_form_product():
    q = form_product(2, {FX: 1, FY: 1})
    assert q == X * Y


# -- property tests of the ring operations and of reduction -------------------

SQRT3 = G2_FORM.coeffs[1]
# pairwise non-proportional forms, one of them over Q(sqrt 3)
PROPERTY_FORMS = [FX, FY, FD, FS, LinearForm([1, 2]), G2_FORM]
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)
coefficients = st.one_of(rationals, st.builds(lambda a, b: a + b * SQRT3, rationals, rationals))


@st.composite
def polys(draw, max_degree=2):
    monomial = st.tuples(st.integers(0, max_degree), st.integers(0, max_degree))
    terms = draw(st.dictionaries(monomial, coefficients, max_size=3))
    return Poly(2, {e: c for e, c in terms.items() if c})


@st.composite
def denominators(draw):
    forms = draw(st.lists(st.sampled_from(PROPERTY_FORMS), max_size=2, unique=True))
    return {f: draw(st.integers(1, 2)) for f in forms}


logrationals = st.builds(LogRational, polys(), denominators())
points = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(
    lambda p: all(f.dot(p) for f in PROPERTY_FORMS))


def ring_axioms(a, b, c, zero, one):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a
    assert a - a == zero and a + (-a) == zero


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_poly_ring_axioms(a, b, c):
    ring_axioms(a, b, c, Poly.zero(2), Poly.const(2, 1))


@settings(max_examples=40, deadline=None)
@given(logrationals, logrationals, logrationals)
def test_logrational_ring_axioms(a, b, c):
    ring_axioms(a, b, c, LogRational.zero(2), LogRational.const(2, 1))


@settings(max_examples=60, deadline=None)
@given(polys(), denominators(), denominators())
def test_unreduced_logrational_equals_reduced(num, den, extra):
    # multiply top and bottom by the same form powers
    common = {f: den.get(f, 0) + extra.get(f, 0) for f in set(den) | set(extra)}
    unreduced = LogRational(num * form_product(2, extra), common)
    reduced = LogRational(num, den).reduced()
    assert unreduced == reduced
    # reduction is canonical: the same value gives the same (num, den)
    again = unreduced.reduced()
    assert (again.num, again.den) == (reduced.num, reduced.den)
    assert all(not reduced.num or reduced.num.divide_exact(f.to_poly()) is None
               for f in reduced.den)


@settings(max_examples=60, deadline=None)
@given(logrationals, logrationals)
def test_equal_values_reduce_alike(a, b):
    # a*b/b and a are the same value reached two ways
    if not b:
        return
    quotient = logrational_ratio(a * b, b, PROPERTY_FORMS)
    assert quotient == a
    a = a.reduced()
    assert (quotient.num, quotient.den) == (a.num, a.den)


@settings(max_examples=40, deadline=None)
@given(logrationals, logrationals, points)
def test_evaluation_is_a_ring_homomorphism(a, b, p):
    # polynomials are the fractions with an empty denominator
    assert (a + b).evaluate(p) == a.evaluate(p) + b.evaluate(p)
    assert (a * b).evaluate(p) == a.evaluate(p) * b.evaluate(p)
    assert (-a).evaluate(p) == -a.evaluate(p)
    assert LogRational.const(2, 1).evaluate(p) == 1


def test_evaluation_examples():
    f = LogRational(X * X + Y, {FD: 2})  # (x^2 + y) / (x - y)^2
    assert f.evaluate((3, 1)) == Fraction(10, 4)
    assert LogRational.from_poly(X * SQRT3).evaluate((2, 0)) == 2 * SQRT3
    with pytest.raises(ZeroDivisionError):
        f.evaluate((1, 1))
