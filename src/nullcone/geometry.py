"""Exact tangent-map ranks and fiber/orbit checks for pair varieties.

The maps under study send (xi, v, w) to ([xi, x] + v, [xi, y] + w) with v, w
ranging over the Borel subalgebra (pairs in a common Borel) or its
nilradical (pairs of nilpotents in a common Borel).  Ranks are exact, in
root coordinates, so the dimension statements become integer equalities:
generic rank 3*b_g - rk for the Borel pair map, 3*(b_g - rk) for the
nilpotent pair map, and kernel dimension b_g for the nilradical map at a
regular nilpotent first coordinate.  The tangent directions (v, w) of the
nilpotent pair map annihilate the invariant differentials along the whole
pencil: p_i'(x + t y)(v + t w) = 0 as a polynomial in t, checked for every
t at once by one packed value per direction and invariant.

Also here: nullcone membership on every realized type, decided by whether
every word of length N in x and y vanishes, with a certificate for every
verdict (a verified common flag for a member, a nonzero word for a
rejection); and sigma-fiber/Weyl-orbit comparisons on Cartan pairs.  The
pointwise sigma, conjugation and grading identities of the geometry suite
are written in the bodies of its entries in :mod:`nullcone.report`.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, compress
from operator import mul

from . import linalg as la
from .algebra import MatrixLieAlgebra
from .weyl import weyl_orbit_pairs


TangentReport = namedtuple("TangentReport", "domain_dim rank kernel_dim")


def _pair_map_report(alg: MatrixLieAlgebra, x, y, v_fiber, w_fiber):
    """Rank and kernel of (xi, v, w) -> ([xi, x] + v, [xi, y] + w) over the given fibers.

    Fibers are sets of basis indices, i.e. unit coordinate vectors, so the rank
    is |v| + |w| plus that of the bracket coordinates outside them
    (Marsaglia-Styan 1974).  The columns outside each fiber are marked once
    per call and picked from every row by ``compress``.
    """
    kept_v = [k not in v_fiber for k in range(alg.dim)]
    kept_w = [k not in w_fiber for k in range(alg.dim)]
    rows = [
        [*compress(cx, kept_v), *compress(cy, kept_w)]
        for cx, cy in zip(alg.ad_coordinates(x), alg.ad_coordinates(y))
    ]
    domain = alg.dim + len(v_fiber) + len(w_fiber)
    r = len(v_fiber) + len(w_fiber) + la.rank(rows)
    return TangentReport(domain, r, domain - r)


def rank_borel_pair(alg: MatrixLieAlgebra, x, y) -> TangentReport:
    """Tangent rank of the Borel-pair parametrization at (identity, x, y)."""
    if not (alg.in_borel(x) and alg.in_borel(y)):
        raise ValueError("x and y must lie in the standard Borel subalgebra")
    fiber = alg.subspace_indices["b"]
    return _pair_map_report(alg, x, y, fiber, fiber)


def rank_nullcone_pair(alg: MatrixLieAlgebra, x, y) -> TangentReport:
    """Tangent rank of the nilpotent-pair parametrization at (identity, x, y)."""
    if not (alg.in_nilradical(x) and alg.in_nilradical(y)):
        raise ValueError("x and y must lie in the nilradical of the Borel")
    fiber = alg.subspace_indices["u"]
    return _pair_map_report(alg, x, y, fiber, fiber)


def rank_nonregular_stratum_pair(alg: MatrixLieAlgebra, x, y) -> TangentReport:
    """Tangent rank with fiber directions confined to the non-regular stratum.

    A nilradical element is regular exactly when all its simple-root
    coefficients are nonzero, so at a non-regular point the stratum through
    it keeps the vanishing simple coefficients at zero; the corresponding
    root directions are dropped from the fiber.
    """
    if not (alg.in_nilradical(x) and alg.in_nilradical(y)):
        raise ValueError("x and y must lie in the nilradical of the Borel")

    def stratum_fiber(z):
        coords = alg.coordinates(z)
        u = alg.subspace_indices["u"]
        return {k for k, r in zip(u, alg.rs.positive_roots) if coords[k] or not alg.rs.is_simple(r)}

    return _pair_map_report(alg, x, y, stratum_fiber(x), stratum_fiber(y))


def mu_kernel(alg: MatrixLieAlgebra, x, y) -> TangentReport:
    """Kernel dimension of (xi, w1, w2) -> ([xi,x]+w1, [xi,y]+w2) on g x u x u.

    Requires x to be a regular nilpotent element of the nilradical; at such
    a point the kernel is a copy of the Borel subalgebra, so kernel_dim
    should equal b_g.
    """
    if not (alg.in_nilradical(x) and alg.is_regular_element(x)):
        raise ValueError("x must be a regular nilpotent element of the nilradical")
    if not alg.in_nilradical(y):
        raise ValueError("y must lie in the nilradical")
    fiber = alg.subspace_indices["u"]
    return _pair_map_report(alg, x, y, fiber, fiber)


def nullcone_tangent_spanners(alg: MatrixLieAlgebra, x, y) -> list:
    """Images (v, w) of the basis directions under the nilpotent-pair map."""
    out = []
    zero = la.zeros(alg.size, alg.size)
    for xi in alg.basis:
        out.append((la.commutator(xi, x), la.commutator(xi, y)))
    for r in alg.rs.positive_roots:
        out.append((alg.pos_vectors[r], zero))
        out.append((zero, alg.pos_vectors[r]))
    return out


def pencil_tangent_vanishing(alg: MatrixLieAlgebra, x, y, tangents) -> bool:
    """Whether p_i'(x + t y)(v + t w) = 0 as a polynomial in t, for all i and all (v, w).

    The directions are scaled to integer matrices V, W by one common
    denominator, and x, y to X = L x, Y = L y; neither scaling moves a zero.
    With A(t) = M_{d_i-1}(X + t Y) = -L^(d_i-1) G_i(x + t y), Faddeev's
    auxiliary matrix, P(t) = trace(A(t) (V + t W)) is then an integer
    polynomial, and P(2^K) = trace(M_{d_i-1}(z) (V + 2^K W)) for z = X + 2^K Y,
    so one faddeev(z) (gradient_pencil) serves every t, i and direction.  The
    entries of A(t) have t-coefficients of size at most
    C = perm(N, d_max) (2M)^d_max, M = max(1, max |entry| of X, Y) (see
    MatrixLieAlgebra._pencil).  So with B = max(1, max |entry| of V, W), the
    t^j coefficient of P, a sum over the N^2 cells of a_j V + a_(j-1) W, is at
    most 2 N^2 B C.  The lanes are widened by spare = 2 N^2 B, which puts that
    below 2^(K-1); the signed base-2^K digits of a value are unique, so
    P(2^K) = 0 exactly when P = 0.
    """
    n = alg.size
    _, rows = la.clear_denominators([row for pair in tangents for m in pair for row in m])
    bound = max(1, max(map(abs, chain.from_iterable(rows)), default=0))
    _, bits, aux = alg.gradient_pencil(x, y, 2 * n * n * bound)
    grads = [la.flatten(m) for m in aux]
    for k in range(0, len(rows), 2 * n):
        # trace(A D) is the sum of A[a][b] D[b][a]: D = V + 2^K W, transposed and flattened
        v, w = (chain.from_iterable(zip(*rows[j : j + n])) for j in (k, k + n))
        packed = [a + (b << bits) for a, b in zip(v, w)]
        if any(sum(map(mul, g, packed)) for g in grads):
            return False
    return True


# -- nullcone membership by the word criterion ---------------------------------


class Membership(namedtuple("Membership", "status reason flag", defaults=("", ()))):
    """A membership verdict: ``status`` 'member' or 'rejected'.

    A member carries a verified ``flag``, a common complete flag with one
    new vector per level; a rejection carries its ``reason``.
    """

    __slots__ = ()


def _verify_flag(x, y, flag) -> bool:
    if len(flag) != len(x):
        return False
    prefix = la.Echelon()
    for v in flag:
        if not all(prefix.spans(la.mat_vec(m, v)) for m in (x, y)) or not prefix.add(v):
            return False
    return True


def nullcone_membership(alg: MatrixLieAlgebra, x, y) -> Membership:
    """Decide whether (x, y) is a pair of nilpotents in a common Borel.

    For g semisimple in gl(N) this holds exactly when every word of length N
    in x and y is 0.  If it is, the words of positive length span an
    associative algebra A with A^N = 0, so the Lie algebra x and y generate,
    inside A, consists of nilpotent matrices; by Engel's theorem it is
    nilpotent, so solvable, and lies in a Borel of g.  Conversely the
    nilradical of a Borel acts by nilpotent matrices, so by Engel's theorem
    it kills a complete flag, and every word of length N vanishes (Humphreys,
    *Introduction to Lie Algebras*, sec. 3).

    The test is the chain V_0 = Q^N, V_(k+1) = x V_k + y V_k, whose V_k is
    spanned by the columns of the words of length k.  Each level keeps the
    images x v, y v of the previous level's kept vectors v that raise its
    rank, with the word that made each; x and y are scaled to integers
    first, which changes no V_k.  A kept vector of V_N names a nonzero word,
    the rejection's witness.  Otherwise V_0 > V_1 > ... > V_N = 0 and any
    subspace between V_(k+1) and V_k is mapped into V_(k+1), so the kept
    vectors of V_(N-1), ..., V_0 that raise the rank, in that order, form a
    common flag, verified before ``member`` is returned.  A pair outside g
    raises ``ValueError``.
    """
    if not (alg.in_algebra(x) and alg.in_algebra(y)):
        raise ValueError("x and y must lie in the algebra")
    n = alg.size
    letters = (("x", la.clear_denominators(x)[1]), ("y", la.clear_denominators(y)[1]))
    levels = [[(v, "") for v in la.identity(n)]]  # the kept vectors of each V_k, with their words
    for _ in range(n):
        span, level = la.Echelon(), []
        for v, word in levels[-1]:
            for letter, m in letters:
                image = la.mat_vec(m, v)
                if span.add(image):
                    level.append((image, letter + word))
        levels.append(level)
    if levels[n]:
        return Membership("rejected", f"the word {levels[n][0][1]} is nonzero")
    span = la.Echelon()
    flag = [v for level in reversed(levels) for v, _ in level if span.add(v)]
    if not _verify_flag(x, y, flag):
        raise AssertionError("word criterion built an invalid flag")
    return Membership("member", flag=tuple(flag))


# -- sigma fibers over Cartan pairs -------------------------------------------


def h_coords(alg: MatrixLieAlgebra, x) -> tuple:
    """Simple-root values of a Cartan element."""
    return tuple(alg.root_value(s, x) for s in alg.rs.simple_roots)


def sigma_fiber_is_weyl_orbit(alg: MatrixLieAlgebra, group, pair_a, pair_b) -> bool:
    """Check sigma(pair_a) = sigma(pair_b) <=> same diagonal Weyl orbit."""
    xa, ya = pair_a
    xb, yb = pair_b
    same_sigma = alg.sigma(xa, ya) == alg.sigma(xb, yb)
    ca = (h_coords(alg, xa), h_coords(alg, ya))
    cb = (h_coords(alg, xb), h_coords(alg, yb))
    return same_sigma == (cb in weyl_orbit_pairs(alg.rs, group, ca))
