"""Root systems of the finite simple types, in exact coordinates.

Roots are integer coordinate tuples in the simple-root basis; weights are
rational tuples of pairings with the simple coroots.  With these choices
regularity and dominance are sign tests and nothing is ever irrational.

Simple roots are indexed 1..rank and ordered the standard (Bourbaki) way:
chains are numbered consecutively; in type D the last two nodes are the
fork; in type E node 2 hangs off node 4 of the chain 1-3-4-5-...; in types
B/C/F/G the arrow conventions are fixed by the Cartan matrices below.  The
Cartan matrix is the one hand-written input: every other piece of root
data is derived from it.

The root order lives here: ``rs.roots`` is the positive roots followed by
their negatives in the same order, so root k is positive exactly when
k < m, and ``rs.index`` inverts it.  Weyl permutations, Cartan-pair orbits
and the bases of the matrix realizations read this one order.

The roots are found in one closure of the simple roots under the simple
reflections, each root together with its weight (its coroot pairings)
and its coroot: s_i sends a root r of weight w to r - w_i beta_i, of weight
w - w_i times column i of the Cartan matrix, and sends r's coroot, with
coordinates m in the simple coroots and pairings cw with the simple roots,
to m - cw_i e_i, with pairings cw - cw_i times row i.  So the pass takes
vector subtractions and no pairing.  It records every reflection it takes
as well, which gives ``rs.reflection_tables``: entry k of table i - 1 is
the index of s_i(root k), the one action of s_i on roots, which the roots
suite checks and :mod:`nullcone.weyl` composes.  Cartan data of infinite
type fails the closure's root bound.

Long roots have squared length 2.  The highest root theta is long and
every theta_i is positive, so r^vee = 2r/(r, r) gives the squared lengths
len2(beta_i) = 2 theta^vee_i / theta_i; they must symmetrize the Cartan
matrix.  The degrees d_i of the fundamental invariants are the exponents
plus one, and as many exponents are >= h as there are positive roots of
height h (Kostant).

The weights and the coroot coordinates are one table each in ``rs.roots``
order, a root's row read at its position in ``rs.index``.  A pairing
<lam, r^vee> with one root is the sum of lam against r's coroot row, and
s_{beta_i} on weights subtracts lam_i times column i of the Cartan matrix.
The first zero pairing over all positive roots, which regularity asks for,
is one exact integer pass over the whole table: each coroot column is
packed into byte lanes of one int, one lane per positive root, and
sum_j lam_j column_j plus a bias of half a lane in every lane holds each
pairing in its own lane.  The lane width comes from the bound
|<lam, r^vee>| <= sum_j |lam_j| max_r r^vee_j, so no lane carries into the
next; see ``RootSystem.zero_pairing_witness``.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import factorial
from operator import mul, neg, sub

from .linalg import clear_denominators

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
        """The type named by a family letter (either case) and a rank in ASCII digits."""
        if not (name[1:].isascii() and name[1:].isdigit()):
            raise ValueError("expected a family letter and a rank in ASCII digits")
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


class RootSystem:
    """Root data of one simple type, all derived from its Cartan matrix.

    The roots and their order, weights, coroots and reflection tables come
    from one closure; the squared simple-root lengths from the highest
    root; the degrees of the fundamental invariants from the root heights.

    Immutable after construction, apart from the packed coroot lanes that
    ``zero_pairing_witness`` builds on first use; every method is a pure
    function of its arguments, so instances are safe for any number of
    concurrent readers (two first uses at once build the same lanes twice).
    """

    def __init__(self, stype: SimpleType):
        self.stype = stype
        self.rank = n = stype.rank
        self.cartan = cartan_matrix(stype)
        self.simple_roots = tuple(tuple(int(j == i) for j in range(n)) for i in range(n))
        self._columns = tuple(zip(*self.cartan))  # column j holds C[i][j] for every i
        expected = POSITIVE_ROOT_COUNTS[stype.family](n)
        weights, coroots, images = self._close_under_reflections(2 * expected)
        positive = [r for r in weights if min(r) >= 0]
        negative = [r for r in weights if max(r) <= 0]
        if len(positive) + len(negative) != len(weights):
            raise AssertionError("found a root with mixed-sign coordinates")
        self.positive_roots = tuple(sorted(positive, key=lambda r: (sum(r), r)))
        self.roots = self.positive_roots + tuple(tuple(map(neg, r)) for r in self.positive_roots)
        self.index = {r: k for k, r in enumerate(self.roots)}
        self._weights = tuple(map(weights.__getitem__, self.roots))
        self._coroots = tuple(map(coroots.__getitem__, self.roots))
        self._lanes = None  # (coroot table, column maxima, columns, {width: lanes}), on first use
        self.reflection_tables = tuple(
            tuple(map(self.index.__getitem__, row))
            for row in zip(*map(images.__getitem__, self.roots))
        )
        if len(self.positive_roots) != expected:
            raise AssertionError(
                f"{stype}: found {len(self.positive_roots)} positive roots, expected {expected}"
            )
        self.highest_root = theta = self.positive_roots[-1]
        # theta is long, of squared length 2, so len2(beta_i) = 2 theta^vee_i / theta_i
        self.lengths = tuple(Fraction(2 * m, t) for m, t in zip(self._coroots[expected - 1], theta))
        # (beta_i, beta_j) = len2(beta_i)/2 * C[i][j] must come out symmetric
        for i in range(n):
            for j in range(i):
                if self.lengths[i] * self.cartan[i][j] != self.lengths[j] * self.cartan[j][i]:
                    raise AssertionError("Cartan data is not symmetrizable as configured")
        self.rho = (1,) * n
        # the k-th largest exponent is the number of heights with at least k positive roots
        per_height = Counter(map(sum, self.positive_roots)).values()
        self.degrees = tuple(1 + sum(c >= k for c in per_height) for k in range(n, 0, -1))

    # -- construction -----------------------------------------------------

    def _close_under_reflections(self, limit: int) -> tuple:
        """Every root with its weight and coroot, and its image under each simple reflection.

        Returns ``(weights, coroots, images)``: ``weights[r]`` holds the
        pairings <r, beta_i^vee>, ``coroots[r]`` the coordinates of r^vee in
        the simple coroots, and ``images[r][i - 1]`` is s_i(r).  Alongside
        its coroot each root carries the coweight cw, the pairings
        <beta_j, r^vee>, which a simple coroot takes from its row of the
        Cartan matrix; the updates under s_i are the module docstring's.
        Each root is reflected by every s_i once, when the closure reaches
        it.  Holding more than ``limit`` roots raises ``AssertionError``, as
        Cartan data of infinite type has infinitely many.
        """
        columns, rows = self._columns, self.cartan
        weights = dict(zip(self.simple_roots, columns))
        coroots = dict(zip(self.simple_roots, self.simple_roots))
        coweights = dict(zip(self.simple_roots, rows))
        images = {}
        frontier = self.simple_roots
        while frontier:
            if len(weights) > limit:
                raise AssertionError(f"{self.stype}: more than {limit} roots, so not of finite type")
            found = []
            for r in frontier:
                w, row = weights[r], []
                m, cw = coroots[r], coweights[r]
                for i, c in enumerate(w):
                    if not c:  # s_i fixes r
                        row.append(r)
                        continue
                    s = (*r[:i], r[i] - c, *r[i + 1 :])
                    if s not in weights:
                        weights[s] = tuple(map(sub, w, map(mul, repeat(c), columns[i])))
                        d = cw[i]
                        coroots[s] = (*m[:i], m[i] - d, *m[i + 1 :])
                        coweights[s] = tuple(map(sub, cw, map(mul, repeat(d), rows[i])))
                        found.append(s)
                    row.append(s)
                images[r] = row
            frontier = found
        return weights, coroots, images

    # -- basic queries -----------------------------------------------------

    @property
    def num_positive(self) -> int:
        return len(self.positive_roots)

    @property
    def borel_dim(self) -> int:
        """b_g = |R+| + rank, the dimension of a Borel subalgebra."""
        return self.num_positive + self.rank

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

    def reflect(self, lam: Weight, i: int) -> Weight:
        """s_{beta_i}(lam) on coroot-pairing coordinates (i is 1-based)."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple index {i} out of range 1..{self.rank}")
        return tuple(map(sub, lam, map(mul, repeat(lam[i - 1]), self._columns[i - 1])))

    def weight_of_root(self, r) -> Weight:
        """Coroot pairings <r, beta_i^vee> of a root (integer entries)."""
        return self._weights[self._position(r)]

    def pairing(self, lam: Weight, r: Root):
        """<lam, r^vee> for a root r."""
        return sum(map(mul, lam, self._coroots[self._position(r)]))

    def _position(self, r) -> int:
        """The index of root r in ``self.roots``; ``ValueError`` if r is not a root."""
        k = self.index.get(tuple(r))
        if k is None:
            raise ValueError(f"{tuple(r)} is not a root of {self.stype}")
        return k

    def is_dominant(self, lam: Weight) -> bool:
        return all(x >= 0 for x in lam)

    def is_regular(self, lam: Weight) -> bool:
        return self.zero_pairing_witness(lam) is None

    def zero_pairing_witness(self, lam: Weight):
        """The first positive root r with <lam, r^vee> = 0, or None if lam is regular.

        One exact integer pass over the positive coroot table.  lam is
        first scaled to integers by the lcm of its denominators, which
        keeps every zero pairing and no other.  Column j of the table,
        coordinate j of each positive coroot, is packed into one int of
        m lanes of w bytes, lane k holding the coroot of positive root k;
        then sum_j lam_j column_j plus a bias of 2^(8w - 1) in every lane
        has <lam, r_k^vee> + 2^(8w - 1) in lane k, with no carry or borrow
        between lanes as long as each of those values lies in
        0 .. 2^(8w) - 1.  Positive coroots have nonnegative coordinates, so
        |<lam, r^vee>| <= sum_j |lam_j| max_r r^vee_j, and w is the fewest
        bytes that put this bound below 2^(8w - 1).  A zero pairing is then
        a lane that reads exactly the bias, the bytes 0 ... 0 0x80; a match
        of those bytes that straddles two lanes is skipped.  The packed
        columns are built on first use, and again whenever ``_coroots`` is
        not the table they were built from.
        """
        lanes = self._lanes
        if lanes is None or lanes[0] is not self._coroots:
            columns = tuple(map(bytes, zip(*self._coroots[: self.num_positive])))
            lanes = self._lanes = (self._coroots, tuple(map(max, columns)), columns, {})
        _, maxima, columns, widths = lanes
        bound = sum(map(mul, map(abs, lam), maxima))
        if bound.__class__ is not int:  # a Fraction entry makes the bound one
            _, (lam,) = clear_denominators((lam,))
            bound = sum(map(mul, map(abs, lam), maxima))
        width = bound.bit_length() // 8 + 1  # the fewest bytes w with bound < 2^(8w - 1)
        if width not in widths:
            widths[width] = _packed(columns, width)
        packed, bias, zero = widths[width]
        data = sum(map(mul, lam, packed), bias).to_bytes(len(columns[0]) * width, "little")
        k = data.find(zero)
        while k > 0 and k % width:  # a match across two lanes
            k = data.find(zero, k + 1)
        return None if k < 0 else self.positive_roots[k // width]

    def rho_shift(self, r: Root, sign: int) -> Weight:
        """The weight rho + sign*r for a root r."""
        return tuple([1 + sign * x for x in self.weight_of_root(r)])


def _packed(columns: tuple, width: int) -> tuple:
    """(packed columns, bias, zero lane) for byte columns in lanes of ``width`` bytes.

    Entry k of a column goes to the low byte of lane k of its int, and the
    bias holds 2^(8 width - 1) in every lane; the zero lane is the bytes
    of that bias value, least significant first.
    """
    m = len(columns[0])
    zero = bytes(width - 1) + b"\x80"
    lanes, packed = bytearray(m * width), []
    for column in columns:
        lanes[::width] = column
        packed.append(int.from_bytes(lanes, "little"))
    return tuple(packed), int.from_bytes(zero * m, "little"), zero


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct (and cache) the root system of the given simple type."""
    return RootSystem(SimpleType(family, rank))
