"""Reference computations the package no longer needs, kept as test oracles.

``nullspace`` is the ``rref`` kernel basis; ``sl2_common_borel_criterion``
is the closed-form rank-one membership test; ``height_element_by_solve``
solves for the Cartan element on which every simple root is 1.
``membership_certificate_holds`` recomputes the certificate behind a
``nullcone_membership`` verdict.  ``apply_h`` moves a point of the Cartan
subalgebra by a Weyl element letter by letter, through the Cartan matrix,
as the reference for the orbits ``weyl_orbit_pairs`` reads off root
permutations.  ``reflect_root`` is the Cartan-row formula for s_i on a
root and ``is_root`` the membership test, and ``reflection_tables``
reflects root by root with them, as the reference for the tables the
closure in ``RootSystem`` records, and ``weight_reflect_failures`` checks
those tables against the weights entry by entry, as the reference for the
roots suite's whole-column check.  ``pairing_zero_witness`` and
``pairing_is_regular`` pair through the invariant form, one root at a time,
as the reference for the packed coroot lanes of ``zero_pairing_witness``.
``is_nilpotent`` reads nilpotency off the characteristic polynomial.
``simple_root_lengths`` is the per-family table of squared simple-root
lengths, and ``length2_by_form`` and ``coroot_by_form`` compute (r, r) and
r^vee = 2r/(r, r) from it, as the references for the lengths and coroots
``RootSystem`` derives from the Cartan matrix alone.
``reflection_fixes_shift`` reads one simple fixed point of rho +- alpha off
its shifted weight, as the reference for the printed neighbour sums.
``whole`` writes each integral entry of a matrix as an int, as the group
elements of ``nullcone.algebra`` read back their scaled matrices.
``in_cartan``, ``decompose``, ``directional_derivatives``,
``simple_index``, ``inversions`` and ``TorusBorel`` are direct definitions
that only the tests read.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from nullcone import geometry as geo
from nullcone import linalg as la


def whole(rows):
    """The matrix with each integral entry as an int (Fraction(3, 1) becomes 3)."""
    return tuple(
        tuple([x if type(x) is int or x.denominator != 1 else x.numerator for x in row])
        for row in rows
    )


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

    A member's flag must be a common flag.  A rejection must name a word of
    length N in x and y whose product, recomputed here, is nonzero.
    """
    if m.status == "member":
        return geo._verify_flag(x, y, m.flag)
    if m.status != "rejected":
        return False
    word = named_word(m.reason)
    return len(word) == alg.size and not la.is_zero(word_product(x, y, word))


def is_nilpotent(x) -> bool:
    """x^N = 0 exactly when det(tI - x) = t^N."""
    return not any(la.char_poly(x))


def in_cartan(alg, x) -> bool:
    """Whether x is a diagonal element of the algebra."""
    return alg.in_algebra(x) and all(
        x[a][b] == 0 for a in range(alg.size) for b in range(alg.size) if a != b
    )


def decompose(alg, x):
    """x = x_0 + x_+ for x in the Borel subalgebra."""
    if not alg.in_borel(x):
        raise ValueError("element is not in the standard Borel subalgebra")
    x0 = alg.h_component(x)
    return x0, la.sub(x, x0)


def directional_derivatives(alg, x, v):
    """d/dt p_i(x + t v) at t = 0, for every invariant i."""
    return tuple(la.trace_mul(g, v) for g in alg.gradient_matrices(x))


def simple_index(rs, r) -> int:
    """1-based index of a simple root."""
    if not rs.is_simple(r):
        raise ValueError(f"{r} is not a simple root")
    return list(r).index(1) + 1


def inversions(rs, w) -> int:
    """Number of positive roots sent to negative roots by w."""
    m = rs.num_positive
    return sum(1 for j in range(m) if w.perm[j] >= m)


@dataclass(frozen=True)
class TorusBorel:
    """A Borel subalgebra containing the fixed Cartan, labelled by w(b)."""

    w: object  # a WeylElement

    def positive_set(self, rs) -> frozenset:
        return frozenset(self.w.perm[: rs.num_positive])

    def contains_support(self, rs, support) -> bool:
        """Whether w(b) contains nilpotents supported on the given roots.

        w(b) contains the root space of gamma iff w^{-1}(gamma) > 0, i.e.
        iff gamma lies in w(R+).
        """
        pos = self.positive_set(rs)
        return all(rs.index[tuple(s)] in pos for s in support)


def apply_h(rs, w, xi) -> tuple:
    """w(x) for the point x of the Cartan subalgebra with simple-root values xi_j = beta_j(x).

    A simple reflection s_i sends the values to xi_j - C[i][j] xi_i, and a
    word acts letter by letter from the right.
    """
    out = tuple(xi)
    for i in reversed(w.word):
        k = i - 1
        out = tuple(out[j] - rs.cartan[k][j] * out[k] for j in range(len(out)))
    return out


def is_root(rs, r) -> bool:
    """Whether r is a root of rs: a key of ``rs.index``."""
    return tuple(r) in rs.index


def reflect_root(rs, r, i: int) -> tuple:
    """s_{beta_i}(r) = r - <r, beta_i^vee> beta_i in simple-root coordinates (i is 1-based)."""
    if not 1 <= i <= rs.rank:
        raise ValueError(f"simple index {i} out of range 1..{rs.rank}")
    k = i - 1
    out = list(r)
    out[k] -= sum(map(mul, rs.cartan[k], r))
    return tuple(out)


def reflection_tables(rs) -> list:
    """Each simple reflection as a tuple: entry k is the index of s_i(root k).

    The roots are the positive roots, then their negatives in the same
    order, and each image is one ``reflect_root`` call.
    """
    all_roots = list(rs.positive_roots) + [tuple(-x for x in r) for r in rs.positive_roots]
    index = {r: k for k, r in enumerate(all_roots)}
    return [
        tuple(index[reflect_root(rs, r, i)] for r in all_roots) for i in range(1, rs.rank + 1)
    ]


def pairing_is_regular(rs, lam) -> bool:
    """Whether lam pairs nonzero with every positive coroot, through the invariant form."""
    return pairing_zero_witness(rs, lam) is None


def pairing_zero_witness(rs, lam):
    """The first positive root r with <lam, r^vee> = 0, or None, with no coroot table read.

    <lam, r^vee> = sum_j r_j len2(beta_j) lam_j / (r, r) with the per-family
    lengths, which 6 len2 scales to integers.
    """
    scaled = [int(6 * l) * x for l, x in zip(simple_root_lengths(rs.stype), lam)]
    for r in rs.positive_roots:
        if sum(map(mul, r, scaled)) == 0:
            return r
    return None


def reflection_fixes_shift(rs, alpha, i: int, sign: int) -> bool:
    """Whether s_{beta_i} fixes rho + sign*alpha: entry i of the shifted weight is 0."""
    return rs.rho_shift(alpha, sign)[i - 1] == 0


def weight_reflect_failures(rs) -> list:
    """(root, i) for each table entry whose weight is not s_i of its root's weight.

    One entry at a time: root k's weight reflected by ``reflect_by_cartan_entries``
    against the weight of root ``table[k]``, by root order, then letter.
    """
    weights = [rs.weight_of_root(r) for r in rs.roots]
    return [
        (r, i)
        for k, r in enumerate(rs.roots)
        for i, table in enumerate(rs.reflection_tables, 1)
        if weights[table[k]] != reflect_by_cartan_entries(rs, weights[k], i)
    ]


def reflect_by_cartan_entries(rs, lam, i):
    """s_{beta_i}(lam), entry j read as lam_j - lam_i C[j][i-1]."""
    k = i - 1
    li = lam[k]
    return tuple(lam[j] - li * rs.cartan[j][k] for j in range(rs.rank))


def rho_shift_by_generator(rs, r, sign):
    """rho + sign*r, built from a generator over r's coroot pairings."""
    w = rs.weight_of_root(r)
    return tuple(1 + sign * x for x in w)


def simple_root_lengths(stype) -> tuple:
    """Squared lengths of the simple roots, long roots normalized to 2, family by family."""
    fam, n = stype.family, stype.rank
    if fam in ("A", "D", "E"):
        return (Fraction(2),) * n
    if fam == "B":
        return (Fraction(2),) * (n - 1) + (Fraction(1),)
    if fam == "C":
        return (Fraction(1),) * (n - 1) + (Fraction(2),)
    if fam == "F":
        return (Fraction(2), Fraction(2), Fraction(1), Fraction(1))
    return (Fraction(2, 3), Fraction(2))  # G2


def length2_by_form(rs, r) -> Fraction:
    """(r, r) = sum_ij r_i r_j (beta_i, beta_j), where (beta_i, beta_j) = len2(beta_i)/2 C[i][j]."""
    lengths, n = simple_root_lengths(rs.stype), rs.rank
    return sum(
        Fraction(r[i]) * r[j] * lengths[i] / 2 * rs.cartan[i][j] for i in range(n) for j in range(n)
    )


def coroot_by_form(rs, r) -> tuple:
    """r^vee = 2r/(r, r) in simple-coroot coordinates: m_i = r_i len2(beta_i) / (r, r)."""
    len2 = length2_by_form(rs, r)
    return tuple(x * l / len2 for x, l in zip(r, simple_root_lengths(rs.stype)))
