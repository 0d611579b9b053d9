"""Finite Weyl groups: generation, reduced words, torus-fixed Borel data.

Elements act on the roots; the action is stored as a permutation of the
full root list (positive roots first, then their negatives), which both
composes cheaply and makes inversion counting a table scan.  Elements are
deduplicated by their action (words are not canonical); generation is a
breadth-first closure over right multiplication by simple reflections, so
the stored word of each element is its lexicographically smallest reduced
word.  Groups are immutable once generated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
def _generator_perms(rs: RootSystem):
    all_roots, index = _root_index(rs)
    perms = []
    for i in range(1, rs.rank + 1):
        perms.append(tuple(index[rs.reflect_root(r, i)] for r in all_roots))
    return tuple(perms)


@dataclass(frozen=True)
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
    """
    order = weyl_order(rs)
    if order > max_order:
        raise WeylOrderError(
            f"Weyl group of {rs.stype} has order {order}, above the cap {max_order}"
        )
    gens = _generator_perms(rs)
    n = rs.rank
    ident = tuple(range(2 * rs.num_positive))
    seen = {ident: ()}
    frontier = [(ident, ())]
    while frontier:
        nxt = []
        for perm, word in frontier:
            for i in range(n):
                # right multiplication (w s_i)(r) = w(s_i(r))
                g = gens[i]
                p2 = tuple(perm[g[j]] for j in range(len(perm)))
                if p2 not in seen:
                    w2 = word + (i + 1,)
                    seen[p2] = w2
                    nxt.append((p2, w2))
        frontier = nxt
    if len(seen) != order:
        raise AssertionError(f"generated {len(seen)} elements, expected {order}")
    elems = [WeylElement(word=w, perm=p) for p, w in seen.items()]
    return tuple(sorted(elems, key=lambda e: (len(e.word), e.word)))


def element_from_word(rs: RootSystem, word) -> WeylElement:
    gens = _generator_perms(rs)
    perm = tuple(range(2 * rs.num_positive))
    for i in word:
        g = gens[i - 1]
        perm = tuple(perm[g[j]] for j in range(len(perm)))
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
    that this equals the group order is not circular.
    """
    return len({TorusBorel(w).positive_set(rs) for w in group})


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
    chain = [element_from_word(rs, w.word[:q]) for q in range(len(w.word) + 1)]
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
