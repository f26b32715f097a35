import random
from fractions import Fraction

import pytest

from coxmulti.coxeter import (F4_ALTERNATE_SEEDS, F4_DEFAULT_SEEDS, F4_ORBIT_SWITCH,
                              Multiplicity, basic_invariants, build_arrangement,
                              cached_arrangement, f4_w1_invariants, reflection_matrix,
                              reynolds)
from coxmulti.linalg import determinant, logrational_ratio
from coxmulti.poly import LinearForm, LogRational, Poly, form_product


def over_forms(f, forms):
    """f divided by the product of the forms, as a reduced LogRational."""
    n = forms[0].nvars
    q = LogRational.from_poly(form_product(n, {g: 1 for g in forms}))
    return logrational_ratio(LogRational.coerce(f, n), q, forms)


@pytest.fixture(scope="module")
def b2():
    return cached_arrangement("B", rank=2)


@pytest.fixture(scope="module")
def b3():
    return cached_arrangement("B", rank=3)


@pytest.fixture(scope="module")
def g2():
    return cached_arrangement("G2")


@pytest.fixture(scope="module")
def f4():
    return cached_arrangement("F4")


def test_b2_hyperplanes(b2):
    orbit1 = {h.form for h in b2.orbit(1)}
    orbit2 = {h.form for h in b2.orbit(2)}
    assert orbit1 == {LinearForm([1, 0]), LinearForm([0, 1])}
    assert orbit2 == {LinearForm([1, -1]), LinearForm([1, 1])}


def test_f4_hyperplane_counts(f4):
    assert len(f4.hyperplanes) == 24
    assert len(f4.orbit(1)) == 12 and len(f4.orbit(2)) == 12


def test_g2_hyperplanes(g2):
    assert len(g2.hyperplanes) == 6
    assert len(g2.orbit(1)) == 3 and len(g2.orbit(2)) == 3
    assert g2.field is not None and g2.field.degree == 2


def test_i2_8(b2):
    i8 = cached_arrangement("I2", n=4)
    assert len(i8.hyperplanes) == 8
    assert i8.field.degree == 4
    assert len(i8.group_elements("W")) == 16


def test_group_orders(b2, b3, g2):
    assert len(b2.group_elements("W")) == 8
    assert len(b2.group_elements("W1")) == 4
    assert len(b2.group_elements("W2")) == 4
    assert len(b3.group_elements("W")) == 48
    assert len(g2.group_elements("W")) == 12


def test_f4_group_order(f4):
    assert len(f4.group_elements("W")) == 1152  # = 2^7 * 3^2
    assert len(f4.group_elements("W1")) == 192
    assert len(f4.group_elements("W2")) == 192


def test_b2_invariant_degrees(b2):
    sys_w = basic_invariants(b2, "W")
    assert sys_w.degrees == [2, 4] and sys_w.coxeter_number == 4
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    assert sys_w.invariants[0] == x * x + y * y
    assert sys_w.invariants[1] == x ** 4 + y ** 4


def test_b3_w2_invariants(b3):
    sys_w2 = basic_invariants(b3, "W2")
    assert sys_w2.degrees == [2, 3, 4] and sys_w2.coxeter_number == 4
    x, y, z = (Poly.variable(3, i) for i in range(3))
    assert sys_w2.invariants[1] == x * y * z


def test_degree_products_and_reflection_counts(b2, b3, g2):
    for arr in (b2, b3, g2):
        sys_w = basic_invariants(arr, "W")
        prod = 1
        for d in sys_w.degrees:
            prod *= d
        assert prod == len(arr.group_elements("W"))
        assert sum(d - 1 for d in sys_w.degrees) == len(arr.hyperplanes)


def test_jacobian_determinant_is_form_product(b2, b3, g2):
    for arr, expected_c in ((b2, -8), (b3, None), (g2, None)):
        sys_w = basic_invariants(arr, "W")
        c = over_forms(determinant(sys_w.jacobian), arr.forms())
        assert c.is_poly() and c.num.is_constant() and c
        if expected_c is not None:
            assert c == LogRational.const(arr.rank, expected_c)


def test_reynolds_examples(b2):
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    avg = reynolds(x * x, b2, "W")
    assert avg == (x * x + y * y) * Fraction(1, 2)
    inv = x ** 4 + y ** 4
    assert reynolds(inv, b2, "W") == inv
    assert reynolds(x, b2, "W") == Poly.zero(2)


def test_reynolds_is_projection(b2):
    rng = random.Random(31)
    for _ in range(5):
        f = Poly.zero(2)
        for _ in range(4):
            e = (rng.randint(0, 2), rng.randint(0, 2))
            f = f + Poly.monomial(2, e, rng.randint(-3, 3))
        once = reynolds(f, b2, "W")
        assert reynolds(once, b2, "W") == once


def _average_over_every_element(f, arr):
    elements = arr.group_elements("W")
    acc = Poly.zero(f.nvars)
    for w in elements:
        acc = acc + f.substitute_matrix(w)
    return acc * Fraction(1, len(elements))


@pytest.mark.parametrize("exps", [(2,), (6,), (4, 2)])
def test_reynolds_matches_average_over_every_element(b3, g2, f4, exps):
    for arr in (b3, g2, f4):
        f = Poly.monomial(arr.rank, list(exps) + [0] * (arr.rank - len(exps)))
        assert reynolds(f, arr, "W") == _average_over_every_element(f, arr)


def test_f4_reynolds_substitutes_once_per_short_root(f4, monkeypatch):
    calls = []
    substitute = Poly.substitute_matrix

    def counting(self, m):
        calls.append(m)
        return substitute(self, m)

    monkeypatch.setattr(Poly, "substitute_matrix", counting)
    reynolds(Poly.monomial(4, [12, 0, 0, 0]), f4, "W")
    # x1 -> (row 1 of w) . x, and the first rows of W(F4) are its 24 short roots
    assert len(calls) == 24
    assert len({m[0] for m in calls}) == 24


@pytest.mark.parametrize("seeds", [F4_DEFAULT_SEEDS, F4_ALTERNATE_SEEDS])
def test_f4_w_invariants(f4, seeds):
    sys_w = basic_invariants(f4, "W", seeds=list(seeds))
    assert sys_w.degrees == [2, 6, 8, 12]
    for p in sys_w.invariants:
        for w in f4.gens_W:
            assert p.substitute_matrix(w) == p


def test_orbit_products_antiinvariant_up_to_sign(b2, g2):
    for arr in (b2, g2):
        for w in arr.gens_W:
            for q, tag in ((arr.Q1, 1), (arr.Q2, 2)):
                img = q.substitute_matrix(w)
                assert img == q or img == -q
                sign = arr.orbit_sign(w, tag)
                assert img == q * sign


def test_saito_matrix_g(b2):
    sys_w = basic_invariants(b2, "W")
    g = sys_w.gram
    p1 = sys_w.invariants[0]
    assert g[0, 0] == 4 * p1
    assert g[0, 1] == g[1, 0]


def test_f4_w1_invariant_identity():
    p1, p2, p3, p4 = f4_w1_invariants()
    x = [Poly.variable(4, i) for i in range(4)]
    power6 = sum((xi ** 6 for xi in x), Poly.zero(4))
    assert p4 == -4 * power6 + 5 * p1 * p2
    assert p3 == x[0] * x[1] * x[2] * x[3]


def test_f4_p4_tau_invariant():
    # tau reflects through x1 + x2 + x3 + x4 = 0
    tau = reflection_matrix(LinearForm([1, 1, 1, 1]))
    p4 = f4_w1_invariants()[3]
    assert p4.substitute_matrix(tau) == p4


def test_f4_orbit_switch_swaps_defining_products(f4):
    for q, tag in ((f4.Q1, 2), (f4.Q2, 1)):
        c = over_forms(q.substitute_matrix(F4_ORBIT_SWITCH), f4.orbit_forms(tag))
        assert c.is_poly() and c.num.is_constant() and c


def test_g2_products_match_re_im(g2):
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    im_z3 = 3 * x * x * y - y ** 3
    re_z3 = x ** 3 - 3 * x * y * y
    for target, tag in ((im_z3, 1), (re_z3, 2)):
        c = over_forms(target, g2.orbit_forms(tag))
        assert c.is_poly() and c.num.is_constant() and c


def test_multiplicity_basics(b2):
    m = Multiplicity.from_pair(b2, 2, -3)
    assert m.is_equivariant() and not m.is_odd()
    assert m.orbit_pair() == (2, -3)
    assert m.total() == 2 * 2 + 2 * (-3)
    star = m.star_closure()
    assert star.orbit_pair() == (3, -3)
    assert star.is_odd() and star.is_equivariant()


def test_multiplicity_non_equivariant(b2):
    fx = LinearForm([1, 0])
    values = {h: (4 if h.form == fx else (1 if h.orbit == 1 else 0))
              for h in b2.hyperplanes}
    m = Multiplicity(b2, values)
    assert not m.is_equivariant()
    assert m.star_closure().orbit_pair() == (5, 1)


def test_unsupported_family():
    with pytest.raises(ValueError):
        build_arrangement("H3")
    with pytest.raises(ValueError):
        build_arrangement("B", rank=1)
    with pytest.raises(ValueError):
        build_arrangement("I2", n=3)
