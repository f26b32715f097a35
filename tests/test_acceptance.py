"""Acceptance suite: one test per criterion, exact checks throughout.

Every check is exact rational or algebraic-number arithmetic; there are no
tolerances anywhere.  Each test prints a single PASS/FAIL line.
"""

import random
import time
from contextlib import contextmanager

import pytest

from coxmulti.coxeter import Multiplicity, f4_w1_invariants, reflection_matrix
from coxmulti.derivations import group_action, log_membership
from coxmulti.engine import (e_pq, equivariant_basis, make_context, nabla_frame,
                             m_star, primitive_decomposition, recursion_step,
                             theta_basis)
from coxmulti.linalg import Matrix, bareiss_determinant, solve_over_fractions
from coxmulti.poly import LinearForm, Poly
from coxmulti.verify import (hilbert_compare, invariant_basis_obstruction,
                             mstar_experiment, poincare_check)


@contextmanager
def criterion(n: int, label: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {n}: {label} [{time.monotonic() - start:.1f}s]")
        raise
    print(f"PASS criterion {n}: {label} [{time.monotonic() - start:.1f}s]")


@pytest.fixture(scope="module")
def b2():
    return make_context("B", rank=2)


@pytest.fixture(scope="module")
def b3():
    return make_context("B", rank=3)


@pytest.fixture(scope="module")
def g2():
    return make_context("G2")


def test_criterion_1_b2_full_sweep(b2):
    with criterion(1, "B2 sweep m in {-2..4}^2 with Saito and oracle windows"):
        start = time.monotonic()
        for m1 in range(-2, 5):
            for m2 in range(-2, 5):
                cert = equivariant_basis(b2, m1, m2)
                assert cert.saito_c != 0
                assert sum(cert.exponents) == 2 * (m1 + m2)
                lo = min(cert.exponents + [0]) - 2
                rep = hilbert_compare(b2.arr, cert.multiplicity, cert.exponents,
                                      10, d_min=lo)
                assert rep.ok, f"oracle mismatch at m=({m1},{m2}): {rep.mismatches}"
        elapsed = time.monotonic() - start
        assert elapsed < 60, f"sweep took {elapsed:.1f}s (budget 60s)"


def test_criterion_2_b3_all_cases(b3):
    with criterion(2, "B3 four cases over (p,q) in {-1..2}^2 with degree formula"):
        start = time.monotonic()
        degrees = {1: b3.sys_w.degrees, 2: b3.sys_w1.degrees,
                   3: b3.sys_w2.degrees, 4: [1, 1, 1]}
        for p in range(-1, 3):
            for q in range(-1, 3):
                for case in (1, 2, 3, 4):
                    cert = theta_basis(b3, p, q, case)
                    assert cert.saito_c != 0
                    predicted = sorted(2 * p + 4 * q - d + 1 for d in degrees[case])
                    assert cert.exponents == predicted
        assert theta_basis(b3, 1, 1, 1).exponents == [1, 3, 5]
        elapsed = time.monotonic() - start
        assert elapsed < 600, f"B3 cases took {elapsed:.1f}s (budget 600s)"


def test_criterion_3_f4_invariant_identity():
    with criterion(3, "F4 orbit invariant identity and tau-invariance"):
        p1, p2, p3, p4 = f4_w1_invariants()
        x = [Poly.variable(4, i) for i in range(4)]
        sixth = sum((xi ** 6 for xi in x), Poly.zero(4))
        assert p4 == -4 * sixth + 5 * p1 * p2
        tau = reflection_matrix(LinearForm([1, 1, 1, 1]))
        assert p4.substitute_matrix(tau) == p4


def test_criterion_4_f4_odd_odd_basis():
    with criterion(4, "F4 (p,q)=(1,1) case 1: exponents (1,5,7,11), det = c*Q"):
        start = time.monotonic()
        ctx = make_context("F4")
        cert = theta_basis(ctx, 1, 1, 1)
        assert cert.exponents == [1, 5, 7, 11]
        assert cert.saito_c != 0
        assert cert.multiplicity.orbit_pair() == (1, 1)
        # every basis element must be fixed by every group generator
        assert all(f == "fixed" for flags in cert.invariance for f in flags)
        elapsed = time.monotonic() - start
        assert elapsed < 7200, f"F4 case took {elapsed:.1f}s (stretch budget 2h)"


def test_criterion_5_primitive_decomposition(b2, b3):
    with criterion(5, "primitive decomposition on B2, B3 at (1,1), k <= 2"):
        for ctx in (b2, b3):
            blocks = primitive_decomposition(ctx, 1, 1, 2)  # nabla_D links asserted
            mult = Multiplicity.from_pair(ctx.arr, 1, 1)
            for block in blocks:
                for theta in block:
                    assert log_membership(theta, ctx.arr, mult)
            rep = poincare_check(ctx.sys_w, e_pq(ctx, 1, 1).degree(), blocks, 12)
            assert rep.ok, f"Poincare mismatch on {ctx.arr.family}: {rep.mismatches}"


def test_criterion_6_recursion_structure(b2, b3):
    with criterion(6, "B^(k) structure and D[G] facts on B2, B3"):
        for ctx in (b2, b3):
            rank = ctx.arr.rank
            tup = nabla_frame(ctx, "W", e_pq(ctx, 0, 0))
            for k in range(3):
                step = recursion_step(ctx, tup)  # pattern + T-membership asserted
                det = bareiss_determinant(step.b_matrix.rows)
                assert det.is_constant() and det.constant_value() != 0
                tup = step.next_tuple
            g = ctx.sys_w.gram
            dg = []
            for i in range(rank):
                row = []
                for j in range(rank):
                    val = ctx.D.apply(g[i, j])
                    assert val.is_poly()
                    row.append(val.as_poly())
                dg.append(row)
            for i in range(rank):
                for j in range(rank):
                    assert ctx.D.apply(dg[i][j]).is_zero()  # D^2[G] = O
            det_dg = bareiss_determinant(dg)
            assert not det_dg.is_zero()  # det D[G] != 0


def test_criterion_7_section5_suite(b2, g2):
    with criterion(7, "m* closure and invariant-part equalities on B2 and G2"):
        rng = random.Random(2026)
        # (a) 200 randomized multiplicities: m* idempotent, odd, equivariant
        for ctx in (b2, g2):
            for _ in range(100):
                values = {h: rng.randint(-4, 5) for h in ctx.arr.hyperplanes}
                m = Multiplicity(ctx.arr, values)
                star = m_star(ctx.arr, m)
                assert star.is_odd() and star.is_equivariant()
                assert m_star(ctx.arr, star) == star
                assert (star == m) == (m.is_odd() and m.is_equivariant())
        # (b) invariant parts of D(A, m) and D(A, m*) agree through degree 10
        for ctx, count in ((b2, 12), (g2, 8)):
            for _ in range(count):
                values = {h: rng.randint(-2, 3) for h in ctx.arr.hyperplanes}
                m = Multiplicity(ctx.arr, values)
                rep = mstar_experiment(ctx.arr, m, 10)
                assert rep.ok, f"invariant parts differ for {m}: {rep.mismatches}"
        # (c) odd equivariant <=> a generator-fixed basis exists: fixed bases
        # come from the construction; for the converse the oracle refutes the
        # invariant-basis series at the first degree where it departs from
        # the closure's series (the finite search at the predicted degrees)
        from collections import Counter

        for ctx in (b2, g2):
            for m1 in range(-2, 5):
                for m2 in range(-2, 5):
                    cert = equivariant_basis(ctx, m1, m2)
                    mult = cert.multiplicity
                    if mult.is_odd():
                        assert all(f == "fixed"
                                   for flags in cert.invariance for f in flags)
                        continue
                    star = mult.star_closure()
                    star_exps = equivariant_basis(ctx, *star.orbit_pair()).exponents
                    ce, cs = Counter(cert.exponents), Counter(star_exps)
                    d0 = min(d for d in set(ce) | set(cs) if ce[d] != cs[d])
                    bad = invariant_basis_obstruction(
                        ctx.arr, mult, cert.exponents, d0, d_min=d0)
                    assert bad == d0, f"no obstruction for {mult} at degree {d0}"


def test_criterion_8_rank2_antiinvariance(g2):
    with criterion(8, "D1 = Q2 D antifixed by W2 reflections in G2 and I2(8)"):
        i8 = make_context("I2", n=4)
        for ctx in (g2, i8):
            d1 = ctx.D1
            assert d1 == ctx.D * ctx.arr.Q2
            refs = ctx.arr.generators("W2")
            assert len(refs) == ctx.arr.params["n"]
            for w in refs:
                assert group_action(w, d1) == -d1


def test_criterion_9_dual_route(b2):
    with criterion(9, "direct solve and B^(k) recursion span the same modules"):
        for (p, q) in [(1, 1), (2, 1), (1, 2)]:
            base = nabla_frame(b2, "W", e_pq(b2, p - 1, q - 1))
            step = recursion_step(b2, base)
            direct = nabla_frame(b2, "W", e_pq(b2, p, q))
            rank = 2
            dm = Matrix([[direct[i].coeffs[k] for i in range(rank)] for k in range(rank)])
            rm = Matrix([[step.next_tuple[i].coeffs[k] for i in range(rank)]
                         for k in range(rank)])
            for a, b in ((dm, rm), (rm, dm)):
                x = solve_over_fractions(a, b, forms=b2.arr.forms())
                assert x is not None
                polys = [[x[i, j].as_poly() for j in range(rank)] for i in range(rank)]
                det = bareiss_determinant(polys)
                assert det.is_constant() and det.constant_value() != 0
