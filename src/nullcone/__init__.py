"""Exact-arithmetic toolkit for Borel-pair and nullcone geometry.

Subpackages:

- :mod:`nullcone.roots`    root systems, weights, regularity/dominance
- :mod:`nullcone.weyl`     Weyl groups, reduced words, projective-line chains
- :mod:`nullcone.shifts`   the rho +/- alpha classification and its tables
- :mod:`nullcone.algebra`  matrix realizations, invariants, polarizations
- :mod:`nullcone.geometry` tangent ranks, fibers, nullcone membership
- :mod:`nullcone.report`   deterministic verification suites
"""

__version__ = "0.1.0"

from .algebra import MatrixLieAlgebra, build_algebra
from .roots import RootSystem, SimpleType, build_root_system
from .shifts import classify_rho_minus, classify_rho_plus, full_shift_report
from .weyl import chain_of_lines, generate_weyl, weyl_orbit_pairs

__all__ = [
    "MatrixLieAlgebra",
    "RootSystem",
    "SimpleType",
    "build_algebra",
    "build_root_system",
    "chain_of_lines",
    "classify_rho_minus",
    "classify_rho_plus",
    "full_shift_report",
    "generate_weyl",
    "weyl_orbit_pairs",
    "__version__",
]
