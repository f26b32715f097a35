import gzip
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from coxmulti.certificates import certificate_from_json
from coxmulti.coxeter import Multiplicity, basic_invariants, cached_arrangement
from coxmulti.derivations import (Derivation, coordinate_field, covariant_derivative,
                                  euler, gradient_field, group_action, log_membership,
                                  membership_witness, partial_derivation)
from coxmulti.linalg import scalar_inverse, scalar_matmul
from coxmulti.poly import LinearForm, LogRational, Poly

X = Poly.variable(2, 0)
Y = Poly.variable(2, 1)
FX = LinearForm([1, 0])
FY = LinearForm([0, 1])


@pytest.fixture(scope="module")
def b2():
    return cached_arrangement("B", rank=2)


@pytest.fixture(scope="module")
def b3():
    return cached_arrangement("B", rank=3)


def d1_b2() -> Derivation:
    return Derivation([LogRational(Poly.const(2, 1), {FX: 1}),
                       LogRational(Poly.const(2, 1), {FY: 1})])


def rand_derivation(rng, nvars=2, deg=2) -> Derivation:
    coeffs = []
    for _ in range(nvars):
        p = Poly.zero(nvars)
        for _ in range(3):
            e = tuple(rng.randint(0, deg) for _ in range(nvars))
            p = p + Poly.monomial(nvars, e, rng.randint(-3, 3))
        coeffs.append(p)
    return Derivation(coeffs)


def test_euler_identities():
    e = euler(2)
    assert e.apply(X ** 3 * Y) == LogRational.from_poly(4 * X ** 3 * Y)
    assert e.apply(X) == LogRational.from_poly(X)
    assert e.apply(Poly.const(2, 1)) == LogRational.zero(2)
    assert e.degree() == 1


def test_d1_application():
    assert d1_b2().apply(X * X + Y * Y) == LogRational.const(2, 4)


def test_partial_application():
    assert partial_derivation(2, 0).apply(Y) == LogRational.zero(2)
    assert partial_derivation(2, 0).degree() == 0


def test_covariant_euler_is_identity():
    rng = random.Random(41)
    e = euler(2)
    for _ in range(10):
        delta = rand_derivation(rng)
        assert covariant_derivative(delta, e) == delta


def test_covariant_examples():
    d1 = d1_b2()
    theta = Derivation([X ** 3, Poly.zero(2)])
    out = covariant_derivative(d1, theta)
    assert out == Derivation([3 * X, Poly.zero(2)])
    e = euler(2)
    theta2 = Derivation([X * X, Poly.zero(2)])
    assert covariant_derivative(e, theta2) == Derivation([2 * X * X, Poly.zero(2)])


def test_covariant_function_linear_lower_slot():
    rng = random.Random(43)
    for _ in range(8):
        theta, delta = rand_derivation(rng), rand_derivation(rng)
        f = X * Y + Poly.const(2, 2)
        lhs = covariant_derivative(theta * f, delta)
        rhs = covariant_derivative(theta, delta) * f
        assert lhs == rhs


def test_covariant_leibniz_upper_slot():
    rng = random.Random(47)
    for _ in range(8):
        theta, delta = rand_derivation(rng), rand_derivation(rng)
        f = X * X - 3 * Y
        lhs = covariant_derivative(theta, delta * f)
        rhs = delta * theta.apply(f) + covariant_derivative(theta, delta) * f
        assert lhs == rhs


def test_flatness_commutation():
    rng = random.Random(53)
    dx, dy = partial_derivation(2, 0), partial_derivation(2, 1)
    for _ in range(8):
        theta = rand_derivation(rng)
        ab = covariant_derivative(dx, covariant_derivative(dy, theta))
        ba = covariant_derivative(dy, covariant_derivative(dx, theta))
        assert ab == ba


@pytest.mark.parametrize("family,rank,n", [("B", 2, None), ("B", 3, None),
                                           ("G2", None, None), ("I2", None, 4)])
def test_primitive_commutes_with_coordinate_fields(family, rank, n):
    # [D, dP_i] = 0 gives nabla_D nabla_{dP_i} = nabla_{dP_i} nabla_D
    arr = cached_arrangement(family, rank=rank, n=n)
    sys_w = basic_invariants(arr, "W")
    nvars = arr.rank
    d = coordinate_field(sys_w, nvars - 1)
    rng = random.Random(59)
    for i in range(nvars):
        dp = coordinate_field(sys_w, i)
        theta = rand_derivation(rng, nvars=nvars, deg=2)
        lhs = covariant_derivative(d, covariant_derivative(dp, theta))
        rhs = covariant_derivative(dp, covariant_derivative(d, theta))
        assert lhs == rhs


def test_group_action_basics(b2):
    e = euler(2)
    d1 = d1_b2()
    for w in b2.gens_W:
        assert group_action(w, e) == e
        assert group_action(w, d1) == d1
    flip_x = ((Fraction(-1), Fraction(0)), (Fraction(0), Fraction(1)))
    theta = Derivation([Poly.zero(2), X])  # x d/dy
    assert group_action(flip_x, theta) == Derivation([Poly.zero(2), -X])


def test_group_action_homomorphism(b2):
    rng = random.Random(61)
    theta = rand_derivation(rng)
    w1, w2 = b2.gens_W[0], b2.gens_W[1]
    lhs = group_action(scalar_matmul(w1, w2), theta)
    rhs = group_action(w1, group_action(w2, theta))
    assert lhs == rhs


def test_coordinate_field_values(b2, b3):
    sys_w = basic_invariants(b2, "W")
    dp1 = coordinate_field(sys_w, 0)
    # y^2/(2x(y^2 - x^2)) d/dx - x^2/(2y(y^2 - x^2)) d/dy
    fd, fs = LinearForm([1, -1]), LinearForm([1, 1])
    expected = Derivation([
        LogRational(Poly.monomial(2, (0, 2), Fraction(-1, 2)), {FX: 1, fd: 1, fs: 1}),
        LogRational(Poly.monomial(2, (2, 0), Fraction(1, 2)), {FY: 1, fd: 1, fs: 1}),
    ])
    assert dp1 == expected
    sys3 = basic_invariants(b3, "W")
    for i in range(3):
        dpi = coordinate_field(sys3, i)
        for j in range(3):
            val = dpi.apply(sys3.invariants[j])
            assert val == LogRational.const(3, 1 if i == j else 0)


def test_degree_convention(b2):
    sys_w = basic_invariants(b2, "W")
    assert coordinate_field(sys_w, 1).degree() == 1 - 4
    assert d1_b2().degree() == -1
    theta = Derivation([X * X, X * Y])
    assert theta.degree() == 2
    mixed = Derivation([X + X * X, Poly.zero(2)])
    assert mixed.degree() is None


def test_log_membership_examples(b2):
    e = euler(2)
    assert log_membership(e, b2, Multiplicity.constant(b2, 1))
    dx = partial_derivation(2, 0)
    assert log_membership(dx, b2, Multiplicity.from_pair(b2, 0, 0))
    assert not log_membership(dx, b2, Multiplicity.from_pair(b2, 1, 0))
    d1 = d1_b2()
    assert log_membership(d1, b2, Multiplicity.from_pair(b2, -1, 0))
    assert not log_membership(d1, b2, Multiplicity.from_pair(b2, 0, 0))


def test_log_membership_foreign_denominator(b2):
    bad = Derivation([LogRational(Poly.const(2, 1), {LinearForm([1, 2]): 1}),
                      Poly.zero(2)])
    with pytest.raises(ValueError):
        log_membership(bad, b2, Multiplicity.constant(b2, 0))


def test_log_membership_equivariance(b2):
    # theta in D(A, m) with equivariant m implies w theta in D(A, m)
    rng = random.Random(67)
    m = Multiplicity.from_pair(b2, 1, 1)
    sys_w = basic_invariants(b2, "W")
    g1, g2 = gradient_field(sys_w, 0), gradient_field(sys_w, 1)
    for _ in range(5):
        f1 = Poly.const(2, rng.randint(-3, 3))
        theta = g1 * (X * X * rng.randint(-2, 2)) + g2 * f1
        if theta.is_zero() or not log_membership(theta, b2, m):
            continue
        for w in b2.group_elements("W"):
            assert log_membership(group_action(w, theta), b2, m)


def test_oddness_mechanism(b2):
    # W-invariant derivations have odd order along every mirror, so an even
    # order bound upgrades for free
    sys_w = basic_invariants(b2, "W")
    rng = random.Random(71)
    p1 = sys_w.invariants[0]
    for _ in range(6):
        theta = (gradient_field(sys_w, 0) * (p1 * rng.randint(-2, 2))
                 + gradient_field(sys_w, 1) * Poly.const(2, rng.randint(-2, 2)))
        if theta.is_zero():
            continue
        for h in b2.hyperplanes:
            val = theta.apply(h.form.to_poly())
            if val.is_zero():
                continue
            order = val.as_poly().multiplicity_along(h.form)
            assert order % 2 == 1  # fixed vectors vanish to odd order
            if order % 2 == 0:
                m = {hh: (order + 1 if hh == h else -5) for hh in b2.hyperplanes}
                assert log_membership(theta, b2, Multiplicity(b2, m))


def reduced_order(x, form):
    """Order of a nonzero fraction along form = 0, read off its reduced form."""
    x = x.reduced()  # the numerator keeps no factor of a pole
    return -x.den[form] if form in x.den else x.num.multiplicity_along(form)


def reference_failures(theta, arr, mult):
    """(H, reasons) at the first hyperplane where membership fails, by reduced
    fractions: the order of theta(alpha_H) and of each tangential coefficient."""
    for h in arr.hyperplanes:
        a, norm = h.form.coeffs, h.form.norm_sq()
        val = theta.apply(h.form.to_poly())
        reasons = set()
        tangential = [c - val * (a[j] / norm) for j, c in enumerate(theta.coeffs)]
        if any(t and reduced_order(t, h.form) < 0 for t in tangential):
            reasons.add("tangential pole")
        if val and reduced_order(val, h.form) < mult.of(h):
            reasons.add("order below multiplicity")
        if reasons:
            return h.form, reasons
    return None


MEMBERSHIP_ARRANGEMENTS = {"B2": ("B", 2), "B3": ("B", 3), "G2": ("G2", None)}


@st.composite
def membership_cases(draw):
    """A derivation with poles and a multiplicity at or near its orders.

    Poles along the normal direction keep theta in D(A, -infinity); a pole
    off it sometimes breaks that.  Some coefficients come unreduced.  m(H)
    is the order of theta(alpha_H) or one less (negative along a pole), and
    at most one hyperplane asks for one more.
    """
    family, rank = MEMBERSHIP_ARRANGEMENTS[draw(st.sampled_from(sorted(MEMBERSHIP_ARRANGEMENTS)))]
    arr = cached_arrangement(family, rank=rank)
    n, forms = arr.rank, arr.forms()
    some_form = st.integers(0, len(forms) - 1)

    def small_poly(min_size=0):
        p = Poly.zero(n)
        for e, c in draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * n),
                                            st.integers(-2, 2)), min_size=min_size, max_size=3)):
            p = p + Poly.monomial(n, e, c)
        return p

    coeffs = [LogRational.from_poly(small_poly()) for _ in range(n)]
    for i, e in draw(st.dictionaries(some_form, st.integers(1, 2), max_size=3)).items():
        s = small_poly()
        coeffs = [c + LogRational(s * a, {forms[i]: e}) if a else c
                  for c, a in zip(coeffs, forms[i].coeffs)]
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        coeffs[j] = coeffs[j] + LogRational(small_poly(1), {forms[draw(some_form)]: 1})
    for j, c in enumerate(coeffs):
        c = coeffs[j] = c.reduced()
        for i in draw(st.lists(some_form, max_size=1)):
            den = dict(c.den)
            den[forms[i]] = den.get(forms[i], 0) + 1
            coeffs[j] = LogRational(c.num * forms[i].to_poly(), den)
    theta = Derivation(coeffs)
    assume(not theta.is_zero())
    values = {}
    for h in arr.hyperplanes:
        val = theta.apply(h.form.to_poly())
        values[h] = (reduced_order(val, h.form) - draw(st.integers(0, 1)) if val
                     else draw(st.integers(-2, 2)))
    bump = draw(st.integers(-1, len(arr.hyperplanes) - 1))
    if bump >= 0:
        values[arr.hyperplanes[bump]] += 1
    return arr, theta, Multiplicity(arr, values)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(membership_cases())
def test_membership_witness_matches_reduced_orders(case):
    arr, theta, mult = case
    expected = reference_failures(theta, arr, mult)
    witness = membership_witness(theta, arr, mult)
    if expected is None:
        assert witness is None
    else:
        form, reasons = expected
        assert witness is not None and witness[1] == form
        assert witness[0] in reasons  # either reason when both conditions fail


def reference_action(w, theta):
    """w . theta by the defining formula: combine by the rows of w, reduce,
    then substitute x -> w^{-1} x."""
    n = theta.nvars
    winv = scalar_inverse(w)
    out = []
    for j in range(n):
        acc = LogRational.zero(n)
        for k in range(n):
            if w[j][k]:
                acc = acc + theta.coeffs[k] * w[j][k]
        out.append(acc.reduced().substitute_matrix(winv))
    return Derivation(out)


@st.composite
def action_cases(draw):
    """A derivation with poles, some coefficients unreduced, and two
    elements of its Coxeter group."""
    arr, theta, _ = draw(membership_cases())
    elements = arr.group_elements("W")
    return theta, draw(st.sampled_from(elements)), draw(st.sampled_from(elements))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(action_cases())
def test_group_action_is_an_action(case):
    theta, w1, w2 = case
    moved = group_action(w2, theta)
    assert moved == reference_action(w2, theta)
    assert group_action(w1, moved) == group_action(scalar_matmul(w1, w2), theta)


BUNDLE = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "certificates.json.gz"


def test_membership_witness_builds_no_fraction(monkeypatch):
    # E^(-1,1) case 4 of B3 has poles along the first orbit
    cert = certificate_from_json(json.loads(gzip.decompress(BUNDLE.read_bytes()))["B3_p-1_q1_c4"])
    assert any(c.den for theta in cert.basis for c in theta.coeffs)
    arr = cached_arrangement("B", rank=3)
    built = []
    init = LogRational.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LogRational, "__init__", counting_init)
    assert all(membership_witness(theta, arr, cert.multiplicity) is None
               for theta in cert.basis)
    assert not built
