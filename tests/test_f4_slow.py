"""Heavier F4 checks: the choice of full-group basic invariants is free.

Two different Reynolds seed sets must give invariant systems whose
coordinate frames span the same modules (related by a polynomial change
of basis with constant nonzero determinant), hence identical certified
exponents for every basis family.
"""

from coxmulti.coxeter import (F4_ALTERNATE_SEEDS, F4_DEFAULT_SEEDS, basic_invariants,
                              cached_arrangement)
from coxmulti.linalg import bareiss_determinant, solve_over_fractions


def test_f4_seed_independence():
    arr = cached_arrangement("F4")
    sys_a = basic_invariants(arr, "W", seeds=list(F4_DEFAULT_SEEDS))
    sys_b = basic_invariants(arr, "W", seeds=list(F4_ALTERNATE_SEEDS))
    assert sys_a.degrees == sys_b.degrees == [2, 6, 8, 12]
    # gradient frames related by X = J_a^{-1} J_b with polynomial entries and
    # constant nonzero determinant; the coordinate frames transform by X^{-T},
    # so all four basis families agree up to a unimodular change over S
    x = solve_over_fractions(sys_a.jacobian, sys_b.jacobian, forms=arr.forms())
    assert x is not None
    polys = [[x[i, j].as_poly() for j in range(4)] for i in range(4)]
    det = bareiss_determinant(polys)
    assert det.is_constant() and det.constant_value() != 0
    # X[i][j] = dP^b_j / dP^a_i, so the certified exponents are
    # seed-independent by the degree data alone
    for i in range(4):
        for j in range(4):
            entry = polys[i][j]
            assert entry.is_zero() or (entry.is_homogeneous() and
                                       entry.degree() == sys_b.degrees[j] - sys_a.degrees[i])
