"""Root systems of the finite simple types, in exact coordinates.

Roots are integer coordinate tuples in the simple-root basis; weights are
rational tuples of pairings with the simple coroots.  With these choices
regularity and dominance are sign tests and nothing is ever irrational.

Simple roots are indexed 1..rank and ordered the standard (Bourbaki) way:
chains are numbered consecutively; in type D the last two nodes are the
fork; in type E node 2 hangs off node 4 of the chain 1-3-4-5-...; in types
B/C/F/G the arrow conventions are fixed by the Cartan matrices below.
Long roots have squared length 2.

The root order lives here: ``rs.roots`` is the positive roots followed by
their negatives in the same order, so root k is positive exactly when
k < m, and ``rs.index`` inverts it.  Weyl permutations, Cartan-pair orbits
and the bases of the matrix realizations read this one order.

The roots are found in one closure of the simple roots under the simple
reflections, each root together with its weight (its coroot pairings):
s_i sends a root r of weight w to r - w_i beta_i, of weight w - w_i times
column i of the Cartan matrix, so the pass takes vector subtractions and
no pairing.  It records every reflection it takes as well, which gives
``rs.reflection_tables``: entry k of table i - 1 is the index of
s_i(root k), the table S_i that :mod:`nullcone.weyl` composes.

The root predicates read per-root tables built once per root system: the
coroot coordinates of every positive root, in positive-root order, and the
columns of the Cartan matrix.  A pairing <lam, r^vee> is the sum of lam
against r's coroot row, and s_{beta_i} subtracts lam_i times column i.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import factorial
from operator import mul, neg, sub

Root = tuple  # integer coordinates in the simple-root basis
Weight = tuple  # pairings with the simple coroots

_RANK_BOUNDS = {"A": 1, "B": 2, "C": 3, "D": 4}

POSITIVE_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}

WEYL_ORDERS = {
    "A": lambda n: factorial(n + 1),
    "B": lambda n: 2**n * factorial(n),
    "C": lambda n: 2**n * factorial(n),
    "D": lambda n: 2 ** (n - 1) * factorial(n),
    "E": lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n],
    "F": lambda n: 1152,
    "G": lambda n: 12,
}


class SimpleType(namedtuple("SimpleType", "family rank")):
    """A family letter and a rank that name a finite simple type, checked on creation."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        fam, n = family, rank
        if fam in _RANK_BOUNDS:
            if n < _RANK_BOUNDS[fam]:
                raise ValueError(f"type {fam} requires rank >= {_RANK_BOUNDS[fam]}, got {n}")
        elif fam == "E":
            if n not in (6, 7, 8):
                raise ValueError(f"type E requires rank in {{6,7,8}}, got {n}")
        elif fam == "F":
            if n != 4:
                raise ValueError(f"type F requires rank 4, got {n}")
        elif fam == "G":
            if n != 2:
                raise ValueError(f"type G requires rank 2, got {n}")
        else:
            raise ValueError(f"unknown family {fam!r}")
        return super().__new__(cls, family, rank)

    @classmethod
    def from_name(cls, name: str) -> "SimpleType":
        return cls(name[0].upper(), int(name[1:]))

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    def __str__(self) -> str:
        return self.name


def cartan_matrix(stype: SimpleType) -> tuple:
    """Cartan matrix with C[i][j] = <beta_j, beta_i^vee> (0-based rows i)."""
    fam, n = stype.family, stype.rank
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i, j, cij=-1, cji=-1):
        c[i - 1][j - 1] = cij
        c[j - 1][i - 1] = cji

    if fam in ("A", "B", "C", "D"):
        chain = n if fam == "A" else n - 1
        for i in range(1, chain):
            link(i, i + 1)
        if fam == "B":
            link(n - 1, n, -1, -2)  # beta_n short
        elif fam == "C":
            link(n - 1, n, -2, -1)  # beta_n long
        elif fam == "D":
            link(n - 2, n)
    elif fam == "E":
        for i, j in ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)):
            if j <= n:
                link(i, j)
        link(2, 4)
    elif fam == "F":
        link(1, 2)
        link(2, 3, -1, -2)  # beta_3 short
        link(3, 4)
    elif fam == "G":
        link(1, 2, -3, -1)  # beta_1 short
    return tuple(tuple(row) for row in c)


def _simple_root_lengths(stype: SimpleType) -> tuple:
    """Squared lengths of the simple roots, long roots normalized to 2."""
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


class RootSystem:
    """Root data of one simple type: Cartan matrix, positive roots, pairings.

    Immutable after construction; every method is a pure function of its
    arguments, so instances are safe for any number of concurrent readers.
    """

    def __init__(self, stype: SimpleType):
        self.stype = stype
        self.rank = stype.rank
        self.cartan = cartan_matrix(stype)
        self.lengths = _simple_root_lengths(stype)
        # (beta_i, beta_j) = len2(beta_i)/2 * C[i][j]; must come out symmetric
        n = self.rank
        self.bilinear = tuple(
            tuple(self.lengths[i] / 2 * self.cartan[i][j] for j in range(n))
            for i in range(n)
        )
        for i in range(n):
            for j in range(n):
                if self.bilinear[i][j] != self.bilinear[j][i]:
                    raise AssertionError("Cartan data is not symmetrizable as configured")
        self.simple_roots = tuple(tuple(int(j == i) for j in range(n)) for i in range(n))
        self._columns = tuple(zip(*self.cartan))  # column j holds C[i][j] for every i
        self._weights, images = self._close_under_reflections()
        positive = [r for r in self._weights if min(r) >= 0]
        negative = [r for r in self._weights if max(r) <= 0]
        if len(positive) + len(negative) != len(self._weights):
            raise AssertionError("found a root with mixed-sign coordinates")
        self.positive_roots = tuple(sorted(positive, key=lambda r: (sum(r), r)))
        self.roots = self.positive_roots + tuple(tuple(map(neg, r)) for r in self.positive_roots)
        self.index = {r: k for k, r in enumerate(self.roots)}
        self.reflection_tables = tuple(
            tuple(map(self.index.__getitem__, row))
            for row in zip(*map(images.__getitem__, self.roots))
        )
        expected = POSITIVE_ROOT_COUNTS[stype.family](stype.rank)
        if len(self.positive_roots) != expected:
            raise AssertionError(
                f"{stype}: found {len(self.positive_roots)} positive roots, expected {expected}"
            )
        self.highest_root = max(self.positive_roots, key=lambda r: (sum(r), r))
        self.rho = (1,) * n
        self._lengths3 = tuple(int(3 * l) for l in self.lengths)  # 3 len2(beta_i)
        self._coroot_coords = {
            r: self._coroot_in_simple_coroots(r) for r in self.positive_roots
        }
        self._coroots = tuple(self._coroot_coords.values())  # in positive-root order

    # -- construction -----------------------------------------------------

    def _close_under_reflections(self) -> tuple:
        """Every root with its weight, and its image under each simple reflection.

        Returns ``(weights, images)``: ``weights[r]`` holds the pairings
        <r, beta_i^vee>, and ``images[r][i - 1]`` is s_i(r).  A simple root's
        weight is its column of the Cartan matrix, and s_i sends a root r of
        weight w to r - w_i beta_i, of weight w - w_i times column i.  Each
        root is reflected by every s_i once, when the closure reaches it.
        """
        columns = self._columns
        weights = dict(zip(self.simple_roots, columns))
        images = {}
        frontier = self.simple_roots
        while frontier:
            found = []
            for r in frontier:
                w, row = weights[r], []
                for i, c in enumerate(w):
                    if not c:  # s_i fixes r
                        row.append(r)
                        continue
                    s = (*r[:i], r[i] - c, *r[i + 1 :])
                    if s not in weights:
                        weights[s] = tuple(map(sub, w, map(mul, repeat(c), columns[i])))
                        found.append(s)
                    row.append(s)
                images[r] = row
            frontier = found
        return weights, images

    def _coroot_in_simple_coroots(self, r: Root) -> tuple:
        """Integer coordinates m with r^vee = sum m_i beta_i^vee.

        m_i = n_i * len2(beta_i) / len2(r); coroots form a root system with
        the simple coroots as a base, so every m_i is an integer.  Lengths
        are scaled by 3, which makes every one an integer (G2's short root
        has len2 2/3), and the quotients are taken exactly by ``divmod``.
        """
        lengths = self._lengths3
        pairings = self.weight_of_root(r)
        len2 = sum(l * c * p for l, c, p in zip(lengths, r, pairings)) // 2  # 3 (r, r)
        coords = [divmod(n_i * l, len2) for n_i, l in zip(r, lengths)]
        if any(rem for _, rem in coords):
            raise AssertionError(f"{self.stype}: coroot of {r} is not integral")
        return tuple(q for q, _ in coords)

    # -- basic queries -----------------------------------------------------

    @property
    def num_positive(self) -> int:
        return len(self.positive_roots)

    @property
    def borel_dim(self) -> int:
        """b_g = |R+| + rank, the dimension of a Borel subalgebra."""
        return self.num_positive + self.rank

    def is_root(self, r) -> bool:
        return tuple(r) in self.index

    def is_positive_root(self, r) -> bool:
        m = len(self.positive_roots)
        return self.index.get(tuple(r), m) < m

    def is_simple(self, r) -> bool:
        return sum(r) == 1 and all(x in (0, 1) for x in r)

    def root_height(self, r) -> int:
        return sum(r)

    def root_length2(self, r) -> Fraction:
        """(r, r) = sum_i len2(beta_i)/2 * r_i * <r, beta_i^vee>, one term per simple root."""
        pairings = self.weight_of_root(r)
        return sum(l * c * p for l, c, p in zip(self.lengths, r, pairings)) / 2

    # -- reflections and pairings ------------------------------------------

    def reflect_root(self, r: Root, i: int) -> Root:
        """s_{beta_i}(r) in simple-root coordinates (i is 1-based)."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple index {i} out of range 1..{self.rank}")
        k = i - 1
        pairing = sum(map(mul, self.cartan[k], r))
        out = list(r)
        out[k] -= pairing
        return tuple(out)

    def reflect(self, lam: Weight, i: int) -> Weight:
        """s_{beta_i}(lam) on coroot-pairing coordinates (i is 1-based)."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple index {i} out of range 1..{self.rank}")
        return tuple(map(sub, lam, map(mul, repeat(lam[i - 1]), self._columns[i - 1])))

    def weight_of_root(self, r) -> Weight:
        """Coroot pairings <r, beta_i^vee> of a root (integer entries)."""
        w = self._weights.get(tuple(r))
        if w is None:
            raise ValueError(f"{tuple(r)} is not a root of {self.stype}")
        return w

    def pairing(self, lam: Weight, r: Root):
        """<lam, r^vee> for a positive root r."""
        m = self._coroot_coords.get(tuple(r))
        if m is None:
            m = self._coroot_in_simple_coroots(tuple(r))
        return sum(map(mul, lam, m))

    def is_dominant(self, lam: Weight) -> bool:
        return all(x >= 0 for x in lam)

    def is_regular(self, lam: Weight) -> bool:
        return self.zero_pairing_witness(lam) is None

    def zero_pairing_witness(self, lam: Weight):
        """The first positive root r with <lam, r^vee> = 0, or None if lam is regular."""
        for r, coroot in zip(self.positive_roots, self._coroots):
            if sum(map(mul, lam, coroot)) == 0:
                return r
        return None

    def rho_shift(self, r: Root, sign: int) -> Weight:
        """The weight rho + sign*r for a root r."""
        return tuple([1 + sign * x for x in self.weight_of_root(r)])


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct (and cache) the root system of the given simple type."""
    return RootSystem(SimpleType(family, rank))
