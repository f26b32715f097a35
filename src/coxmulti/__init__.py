"""Exact free bases for derivation modules of Coxeter multiarrangements.

Construction follows the covariant-derivative calculus of the primitive
derivations: the universal derivations E^(p,q) produce, for each parity
class of equivariant multiplicities, an explicit free basis certified by
the multiarrangement Saito criterion and cross-checked by a brute-force
graded oracle.
"""

from .coxeter import Multiplicity
from .derivations import euler
from .engine import e_pq, equivariant_basis, m_star, make_context, theta_basis
from .verify import hilbert_compare, mstar_experiment, saito_check

__version__ = "0.1.0"

__all__ = [
    "Multiplicity", "e_pq", "equivariant_basis", "euler", "hilbert_compare", "m_star",
    "make_context", "mstar_experiment", "saito_check", "theta_basis",
]
