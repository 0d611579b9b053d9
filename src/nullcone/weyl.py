"""Finite Weyl groups: generation, reduced words, torus-fixed Borel data.

Elements act on the roots; the action is stored as a permutation of the
full root list (positive roots first, then their negatives), which both
composes cheaply (one ``operator.itemgetter`` call per simple reflection)
and makes inversion counting a table scan.  Elements are deduplicated by
their action (words are not canonical); generation is a breadth-first
closure over right multiplication by simple reflections that skips the
descents of each element (w s_i is shorter than w iff w(alpha_i) < 0, so
it was found at an earlier level), and the stored word of each element is
its lexicographically smallest reduced word.  Each group is enumerated,
and its torus-fixed Borels counted, once per process and root system; the
group is immutable once generated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .roots import RootSystem, WEYL_ORDERS


class WeylOrderError(ValueError):
    """Raised when a group is too large for the configured enumeration cap."""


@lru_cache(maxsize=None)
def _root_index(rs: RootSystem):
    """All roots (positives then matching negatives) and their index map."""
    all_roots = list(rs.positive_roots) + [
        tuple(-x for x in r) for r in rs.positive_roots
    ]
    return tuple(all_roots), {r: i for i, r in enumerate(all_roots)}


@lru_cache(maxsize=None)
def _right_multipliers(rs: RootSystem):
    """One getter per simple reflection s_i, sending the permutation of w
    to that of w s_i: (w s_i)(r) = w(s_i(r)), read through s_i's image table.
    """
    all_roots, index = _root_index(rs)
    return tuple(
        itemgetter(*(index[rs.reflect_root(r, i)] for r in all_roots))
        for i in range(1, rs.rank + 1)
    )


@dataclass(frozen=True, slots=True)
class WeylElement:
    word: tuple  # lexicographically smallest reduced word, 1-based indices
    perm: tuple  # image indices of the full root list under the action

    def __len__(self) -> int:
        return len(self.word)

    def apply_root(self, rs: RootSystem, r) -> tuple:
        all_roots, index = _root_index(rs)
        return all_roots[self.perm[index[tuple(r)]]]

    def apply_h(self, rs: RootSystem, xi) -> tuple:
        """Action on a point of the Cartan subalgebra.

        Points of h carry simple-root-value coordinates xi_j = beta_j(x);
        a simple reflection s_i sends them to xi_j - C[i][j]*xi_i, and a
        word acts letter by letter from the right.
        """
        out = tuple(xi)
        for i in reversed(self.word):
            k = i - 1
            out = tuple(
                out[j] - rs.cartan[k][j] * out[k] for j in range(len(out))
            )
        return out

    def inversion_count(self, rs: RootSystem) -> int:
        m = rs.num_positive
        return sum(1 for j in range(m) if self.perm[j] >= m)


def weyl_order(rs: RootSystem) -> int:
    return WEYL_ORDERS[rs.stype.family](rs.stype.rank)


def generate_weyl(rs: RootSystem, max_order: int = 10**6) -> tuple:
    """Enumerate the full Weyl group, refusing if it exceeds max_order.

    Returns the elements sorted by (length, word); the identity is first.
    The cap is checked on every call; the group itself is enumerated once
    per root system and the same tuple is returned afterwards.
    """
    order = weyl_order(rs)
    if order > max_order:
        raise WeylOrderError(
            f"Weyl group of {rs.stype} has order {order}, above the cap {max_order}"
        )
    return _GROUPS.get(rs) or _GROUPS.setdefault(rs, _enumerate_weyl(rs))


_GROUPS: dict = {}  # root system -> its group, enumerated on first request


def _enumerate_weyl(rs: RootSystem) -> tuple:
    multipliers = _right_multipliers(rs)
    m = rs.num_positive
    _, index = _root_index(rs)
    simple = [
        index[tuple(1 if j == i else 0 for j in range(rs.rank))] for i in range(rs.rank)
    ]
    letters = tuple(zip(range(1, rs.rank + 1), simple, multipliers))
    ident = tuple(range(2 * m))
    seen = {ident: ()}
    frontier = [(ident, ())]
    while frontier:
        nxt = []
        for perm, word in frontier:
            for letter, alpha, times_s in letters:
                if perm[alpha] >= m:
                    continue  # w(alpha_i) < 0: w s_i is shorter, already seen
                p2 = times_s(perm)
                if p2 not in seen:
                    w2 = word + (letter,)
                    seen[p2] = w2
                    nxt.append((p2, w2))
        frontier = nxt
    order = weyl_order(rs)
    if len(seen) != order:
        raise AssertionError(f"generated {len(seen)} elements, expected {order}")
    elems = [WeylElement(word=w, perm=p) for p, w in seen.items()]
    # the closure already finds elements in this order; sorting keeps the
    # order from resting on that
    return tuple(sorted(elems, key=lambda e: (len(e.word), e.word)))


def element_from_word(rs: RootSystem, word) -> WeylElement:
    multipliers = _right_multipliers(rs)
    perm = tuple(range(2 * rs.num_positive))
    for i in word:
        perm = multipliers[i - 1](perm)
    return WeylElement(word=tuple(word), perm=perm)


def inversions(rs: RootSystem, w: WeylElement) -> int:
    """Number of positive roots sent to negative roots by w."""
    return w.inversion_count(rs)


@dataclass(frozen=True)
class TorusBorel:
    """A Borel subalgebra containing the fixed Cartan, labelled by w(b)."""

    w: WeylElement

    def positive_set(self, rs: RootSystem) -> frozenset:
        m = rs.num_positive
        return frozenset(self.w.perm[j] for j in range(m))

    def contains_support(self, rs: RootSystem, support) -> bool:
        """Whether w(b) contains nilpotents supported on the given roots.

        w(b) contains the root space of gamma iff w^{-1}(gamma) > 0, i.e.
        iff gamma lies in w(R+).
        """
        _, index = _root_index(rs)
        pos = self.positive_set(rs)
        return all(index[tuple(s)] in pos for s in support)


def borels_containing_torus(rs: RootSystem, group) -> int:
    """Count the distinct torus-fixed Borels w(b) over the generated group.

    Computed from the root-image sets rather than from |W|, so the test
    that this equals the group order is not circular.  Each set w(R+) is
    keyed by its sorted tuple of root indices, the same set as
    ``TorusBorel(w).positive_set`` at a fraction of a frozenset's memory.
    The group that ``generate_weyl`` returns is counted once per root
    system; any other sequence is counted on every call.
    """
    if group is _GROUPS.get(rs):
        return _enumerated_borel_count(rs)
    return _count_borels(rs, group)


def _count_borels(rs: RootSystem, group) -> int:
    m = rs.num_positive
    return len({tuple(sorted(w.perm[:m])) for w in group})


@lru_cache(maxsize=None)
def _enumerated_borel_count(rs: RootSystem) -> int:
    return _count_borels(rs, _GROUPS[rs])


def _inverse_image(rs: RootSystem, w: WeylElement, r):
    """w^{-1}(r), read off the stored root permutation."""
    all_roots, index = _root_index(rs)
    return all_roots[w.perm.index(index[tuple(r)])]


def chain_of_lines(rs: RootSystem, support, w: WeylElement) -> list:
    """Connect b to w(b) through Borels containing a common nilpotent support.

    ``support`` is a set of positive roots S with w^{-1}(S) positive (so
    both b and w(b) contain nilpotents supported on S).  Returns the chain
    e = w_0, w_1, ..., w_q = w where consecutive elements differ by a right
    multiplication by one simple reflection and, at every step i with
    letter a_i, S lies in w_{i-1}(R+ \\ {alpha_{a_i}}) -- the nilpotent
    radical of the minimal parabolic defining the connecting projective
    line.  Every prefix also keeps w_i^{-1}(S) positive, and q = l(w).
    """
    support = [tuple(s) for s in support]
    for s in support:
        if not rs.is_positive_root(s):
            raise ValueError(f"support root {s} is not positive")
        if not all(x >= 0 for x in _inverse_image(rs, w, s)):
            raise ValueError(
                f"precondition failed: w^(-1){s} is not a positive root"
            )
    multipliers = _right_multipliers(rs)
    perm = tuple(range(2 * rs.num_positive))
    chain = [WeylElement(word=(), perm=perm)]
    for q, letter in enumerate(w.word, 1):
        perm = multipliers[letter - 1](perm)
        chain.append(WeylElement(word=w.word[:q], perm=perm))
    # defensive verification of the step conditions
    for step in range(1, len(chain)):
        prev, letter = chain[step - 1], w.word[step - 1]
        alpha = tuple(1 if j == letter - 1 else 0 for j in range(rs.rank))
        for s in support:
            pre = _inverse_image(rs, prev, s)
            if not all(x >= 0 for x in pre) or pre == alpha:
                raise AssertionError(
                    f"chain step {step}: support {s} left the parabolic nilradical"
                )
    for elem in chain:
        for s in support:
            if not all(x >= 0 for x in _inverse_image(rs, elem, s)):
                raise AssertionError("intermediate Borel lost the support")
    return chain


def weyl_orbit_pairs(rs: RootSystem, group, pair) -> frozenset:
    """Diagonal W-orbit of a rational point (x, y) of h x h.

    Points of h are given by their simple-root values beta_j(x).
    """
    x, y = tuple(pair[0]), tuple(pair[1])
    return frozenset((w.apply_h(rs, x), w.apply_h(rs, y)) for w in group)
