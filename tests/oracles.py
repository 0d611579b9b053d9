"""Reference computations the package no longer needs, kept as test oracles.

``nullspace`` is the ``rref`` kernel basis; ``sl2_common_borel_criterion``
is the closed-form rank-one membership test; ``height_element_by_solve``
solves for the Cartan element on which every simple root is 1.
``membership_certificate_holds`` recomputes the certificate behind a
``nullcone_membership`` verdict.
"""

import re
from fractions import Fraction

from nullcone import geometry as geo
from nullcone import linalg as la


def nullspace(rows) -> list:
    """Basis of the right kernel, as a list of Fraction tuples."""
    m, pivots = la.rref(rows)
    if not rows:
        return []
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(tuple(v))
    return basis


def height_element_by_solve(alg):
    """The combination of ``alg.h_basis`` on which each simple root takes the value 1."""
    n = alg.rank
    simple = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    rows = [[alg.root_value(root, h) for h in alg.h_basis] for root in simple]
    sol = la.solve(rows, [1] * n)
    out = la.zeros(alg.size, alg.size)
    for c, h in zip(sol, alg.h_basis):
        out = la.add(out, la.scale(c, h))
    return out


def sl2_common_borel_criterion(alg, x, y) -> bool:
    """Exact rank-one criterion: x^2 = y^2 = xy = 0."""
    if alg.size != 2:
        raise ValueError("criterion applies to the rank-one algebra only")
    return (
        la.is_zero(la.mul(x, x))
        and la.is_zero(la.mul(y, y))
        and la.is_zero(la.mul(x, y))
    )


def word_product(x, y, word):
    """The product of the letters of ``word``, 'x' standing for x and 'y' for y."""
    prod = la.identity(len(x))
    for letter in word:
        prod = la.mul(prod, {"x": x, "y": y}[letter])
    return prod


def named_word(reason: str) -> str:
    """The word a rejection names, as in 'the word xxy is nonzero'."""
    return re.fullmatch(r"the word ([xy]+) is nonzero", reason).group(1)


def membership_certificate_holds(alg, x, y, m) -> bool:
    """Whether the certificate of a membership verdict checks.

    A member's flag must be a common flag.  A rejection must name a failed
    prefilter that fails here too, or a word of length N in x and y whose
    product, recomputed here, is nonzero.
    """
    n = alg.size
    if m.status == "member":
        return geo._verify_flag(x, y, m.flag)
    if m.status != "rejected":
        return False
    if m.reason == "not a pair of nilpotent elements":
        return not (la.is_zero(word_product(x, y, "x" * n)) and la.is_zero(word_product(x, y, "y" * n)))
    if m.reason == "sigma value is nonzero":
        return any(c != 0 for c in alg.sigma(x, y))
    word = named_word(m.reason)
    return len(word) == n and not la.is_zero(word_product(x, y, word))
