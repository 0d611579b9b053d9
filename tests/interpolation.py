"""Exact polynomial interpolation at 0, 1, 2, ..., the reference behind the oracles.

``char_poly_by_interpolation`` and the polarization oracles of
``test_algebra`` evaluate at integer points and interpolate; the package
itself reads coefficients off one Kronecker-substituted value instead.
"""

from functools import lru_cache
from math import lcm
from operator import mul

from nullcone import linalg as la


@lru_cache(maxsize=None)
def _vandermonde_inverse(npoints: int):
    """(D, D * V^-1) for the Vandermonde matrix V of the nodes 0..npoints-1.

    D is the least common denominator, so D * V^-1 has integer entries and
    interpolation divides once per coefficient.
    """
    inv = la.inverse([[t**k for k in range(npoints)] for t in range(npoints)])
    d = lcm(*(x.denominator for row in inv for x in row))
    return d, tuple(tuple(int(x * d) for x in row) for row in inv)


def interpolate(values) -> tuple:
    """Coefficients of the polynomial with the given values at 0, 1, 2, ....

    Integral coefficients come back as plain ints, the others as Fractions.
    """
    d, scaled = _vandermonde_inverse(len(values))
    return tuple(la.ratio(sum(map(mul, row, values)), d) for row in scaled)
