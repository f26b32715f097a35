import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxmulti import scalars
from coxmulti.scalars import (AlgebraicNumber, NumberField, cosine_field, half_angle_cosines,
                              scalar_determinant)


@pytest.fixture(scope="module")
def sqrt3():
    field, g = cosine_field(6)  # 2 cos(pi/6)
    return field, g


def test_minimal_polynomial_of_sqrt3(sqrt3):
    field, g = sqrt3
    assert field.minpoly == (Fraction(-3), Fraction(0), Fraction(1))
    assert g * g == 3


def test_exact_addition_roundtrip(sqrt3):
    field, g = sqrt3
    rng = random.Random(7)
    for _ in range(50):
        a = field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(2)])
        b = field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(2)])
        assert (a + b) - b == a
        assert (a * b) - a * b == field.zero()


def test_sign_determination(sqrt3):
    field, g = sqrt3
    assert g.sign() == 1
    assert (-g).sign() == -1
    assert (g - 1).sign() == 1          # sqrt3 > 1
    assert (2 - g).sign() == 1          # sqrt3 < 2
    assert (g * g - 3).sign() == 0
    assert (7 * g - 12).sign() == 1     # 7*sqrt3 = 12.12...
    assert (7 * g - Fraction(1213, 100)).sign() == -1


def test_division_and_inverse(sqrt3):
    field, g = sqrt3
    assert g * (1 / g) == field.one()
    a = 1 + g
    assert a / a == field.one()
    assert (3 / g) == g  # 3/sqrt3 = sqrt3
    with pytest.raises(ZeroDivisionError):
        field.zero().inverse()


def euclid_inverse(a):
    """The extended Euclid that inverts any nonzero element, as reference."""
    from coxmulti.scalars import _poly_add, _poly_divmod, _poly_mul, _poly_scale, _trim

    r0, r1 = a.coeffs, a.field.minpoly
    s0, s1 = (Fraction(1),), ()
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_add(s0, _poly_scale(_poly_mul(q, s1), -1))
    _, inv = _poly_divmod(_poly_scale(s0, 1 / r0[0]), a.field.minpoly)
    return _trim(inv)


@pytest.mark.parametrize("n_lines", [6, 8])  # Q(sqrt 3) and Q(2 cos pi/8)
def test_inverse_of_rational_element_skips_euclid(n_lines, monkeypatch):
    field = cosine_field(n_lines)[0]
    rational = [field.element((c,)) for c in (Fraction(1), Fraction(-3), Fraction(2, 7))]
    expected = [euclid_inverse(a) for a in rational]
    calls = []
    divmod_ = scalars._poly_divmod
    monkeypatch.setattr(scalars, "_poly_divmod", lambda a, b: calls.append(a) or divmod_(a, b))
    for a, coeffs in zip(rational, expected):
        inv = a.inverse()
        assert isinstance(inv, AlgebraicNumber) and inv.field is field
        assert [(c, type(c)) for c in inv.coeffs] == [(c, type(c)) for c in coeffs]
    assert not calls
    g = field.generator()
    assert g.inverse().coeffs == euclid_inverse(g) and calls  # the general path still runs


def test_pow(sqrt3):
    _, g = sqrt3
    assert g ** 4 == 9
    assert g ** -2 == Fraction(1, 3)


def test_squarefree_rejected():
    with pytest.raises(ValueError):
        NumberField([1, -2, 1], 0, 2)  # (t-1)^2


def test_rational_root_rejected():
    with pytest.raises(ValueError):
        NumberField([-4, 0, 1], 1, 3)  # t^2 - 4 = (t-2)(t+2)


def test_cosine_field_degrees():
    f8, g8 = cosine_field(8)  # 2 cos(pi/8): minimal polynomial w^4 - 4 w^2 + 2
    assert f8.degree == 4
    assert f8.minpoly == (Fraction(2), Fraction(0), Fraction(-4), Fraction(0), Fraction(1))
    assert g8 ** 4 - 4 * g8 ** 2 + 2 == 0


def test_half_angle_values_exact():
    field, g = cosine_field(6)
    cos = half_angle_cosines(6, field, g)
    assert cos[0] == 1
    assert cos[1] * 2 == g              # cos(pi/6) = sqrt3/2
    assert cos[2] == Fraction(1, 2)
    assert cos[3] == 0
    assert cos[6] == -1


def test_cross_field_elements_never_equal(sqrt3):
    # same representative in different fields: unequal but hashable together,
    # so value-keyed caches may mix arrangements safely
    field_a, g_a = sqrt3
    field_b, g_b = cosine_field(8)
    assert g_a != g_b
    assert len({g_a: 1, g_b: 2}) == 2
    with pytest.raises(ValueError):
        g_a + g_b  # arithmetic across fields stays an error


def test_float_agreement_sanity(sqrt3):
    # exact arithmetic against a high-precision rational evaluation of g
    field, g = sqrt3
    rng = random.Random(11)
    eps = Fraction(1, 10 ** 20)
    for _ in range(10):
        a = field.element([Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))])
        b = field.element([Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))])
        width = Fraction(1, 10 ** 30)
        lhs = (a * b).approx(width)
        rhs = a.approx(width) * b.approx(width)
        assert abs(lhs - rhs) < eps


def test_cosine_field_interval_isolates_one_root():
    # the exact cut leaves exactly one root of the minimal polynomial in
    # [cut, 2], counted by Sturm sequences in sympy
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    for lines in range(4, 81, 2):
        field, _ = cosine_field(lines)
        lo, hi = field.interval()
        assert lo == 2 - 4 * (Fraction(63, 20) / lines) ** 2 and hi == 2
        mp = sympy.Poly(list(reversed(field.minpoly)), t, domain=sympy.QQ)
        assert mp.count_roots(sympy.Rational(lo.numerator, lo.denominator), 2) == 1, lines


# -- property tests ------------------------------------------------------------

FIELD8, G8 = cosine_field(8)  # degree 4, so products reduce modulo the minimal polynomial
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
elements = st.lists(rationals, min_size=4, max_size=4).map(FIELD8.element)


@settings(max_examples=60, deadline=None)
@given(elements, elements, elements, rationals)
def test_algebraic_ring_axioms(a, b, c, q):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a and a * 1 == a and a - a == 0
    assert a * q == q * a and (a + q) - q == a  # rationals lift into the field
    if a:
        assert a * a.inverse() == 1
        assert (b / a) * a == b


square = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=60, deadline=None)
@given(square)
def test_scalar_determinant_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    expected = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                             for r in rows]).det()
    assert scalar_determinant(rows) == Fraction(int(expected.p), int(expected.q))


field_2x2 = st.lists(st.lists(elements, min_size=2, max_size=2), min_size=2, max_size=2)


@settings(max_examples=30, deadline=None)
@given(field_2x2, field_2x2)
def test_scalar_determinant_is_multiplicative_over_the_field(a, b):
    ab = [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)] for i in range(2)]
    assert scalar_determinant(ab) == scalar_determinant(a) * scalar_determinant(b)
    assert scalar_determinant(a) == a[0][0] * a[1][1] - a[0][1] * a[1][0]
