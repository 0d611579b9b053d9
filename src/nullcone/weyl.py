"""Finite Weyl groups: generation, reduced words, torus-fixed Borel data.

Elements act on the roots; the action is stored as a ``bytes`` permutation
of the full root list (positive roots first, then their negatives), so that
2m <= 255 roots fit a byte each.  A simple reflection is a 256-byte table
S_i with S_i[k] the index of s_i(root k), and left multiplication is one
C-level call: perm(s_i w) = perm(w).translate(S_i).  Generation walks the
group level by level by left multiplication, skipping the letters that
shorten an element (s_i w is longer than w iff w^{-1}(alpha_i) > 0, iff
alpha_i lies in w(R+)), and deduplicates elements by their action; the
stored word of each element is its lexicographically smallest reduced
word.  Each group is enumerated, and its torus-fixed Borels counted, once
per process and root system; the group is immutable once generated.
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
def _reflections(rs: RootSystem) -> tuple:
    """(index of alpha_i, table S_i) per letter i, with S_i[k] the index of s_i(root k).

    Indices are bytes, and 0xff stays free for the Borel keys: at most 255 roots.
    """
    all_roots, index = _root_index(rs)
    if len(all_roots) > 255:
        raise ValueError(f"{rs.stype} has {len(all_roots)} roots, above the 255 bytes can index")
    rest = bytes(range(len(all_roots), 256))
    simple = [tuple(int(j == i) for j in range(rs.rank)) for i in range(rs.rank)]
    return tuple(
        (index[alpha], bytes(index[rs.reflect_root(r, i)] for r in all_roots) + rest)
        for i, alpha in enumerate(simple, 1)
    )


@dataclass(frozen=True, slots=True)
class WeylElement:
    word: tuple  # lexicographically smallest reduced word, 1-based indices
    perm: bytes  # image indices of the full root list under the action

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
    # Level L+1 holds the elements of length L+1; s_i w lies on it, for w on
    # level L, iff alpha_i is in w(R+).  A reduced word of u starts with a left
    # descent i of u and continues with a reduced word of s_i u, so u's
    # lexicographically smallest reduced word is (i0,) + that of s_i0 u, with
    # i0 its smallest left descent.  Letters run on the outside, so u is first
    # reached at letter i0, from s_i0 u, whose stored word is lex-min by
    # induction.  Within letter i's block the new words (i,) + word(w) follow
    # the previous level's word order, and blocks follow i: every level comes
    # out sorted by word, and the whole group by (length, word).
    m = rs.num_positive
    letters = tuple(enumerate(_reflections(rs), start=1))
    level = [(bytes(range(2 * m)), ())]
    seen = dict(level)
    while level:
        nxt = []
        for letter, (alpha, table) in letters:
            for perm, word in level:
                if perm.find(alpha, 0, m) < 0:
                    continue  # alpha_i not in w(R+): s_i w is shorter, already seen
                p2 = perm.translate(table)
                if p2 not in seen:
                    seen[p2] = w2 = (letter,) + word
                    nxt.append((p2, w2))
        level = nxt
    order = weyl_order(rs)
    if len(seen) != order:
        raise AssertionError(f"generated {len(seen)} elements, expected {order}")
    return tuple(WeylElement(word=w, perm=p) for p, w in seen.items())


def element_from_word(rs: RootSystem, word) -> WeylElement:
    """The element s_{a_1} ... s_{a_q}, its tables applied from the last letter to the first."""
    tables = _reflections(rs)
    perm = bytes(range(2 * rs.num_positive))
    for i in reversed(word):
        perm = perm.translate(tables[i - 1][1])
    return WeylElement(word=tuple(word), perm=perm)


def inversions(rs: RootSystem, w: WeylElement) -> int:
    """Number of positive roots sent to negative roots by w."""
    return w.inversion_count(rs)


@dataclass(frozen=True)
class TorusBorel:
    """A Borel subalgebra containing the fixed Cartan, labelled by w(b)."""

    w: WeylElement

    def positive_set(self, rs: RootSystem) -> frozenset:
        return frozenset(self.w.perm[: rs.num_positive])

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
    keyed by its indicator: the identity on the 2m root indices with those
    in w(R+) overwritten by 0xff, which no index reaches, so equal keys mean
    equal sets, the same sets as ``TorusBorel(w).positive_set``.
    The group that ``generate_weyl`` returns is counted once per root
    system; any other sequence is counted on every call.
    """
    if group is _GROUPS.get(rs):
        return _enumerated_borel_count(rs)
    return _count_borels(rs, group)


def _count_borels(rs: RootSystem, group) -> int:
    m = rs.num_positive
    mark = b"\xff" * m
    return len({bytes.maketrans(w.perm[:m], mark)[: 2 * m] for w in group})


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
            raise ValueError(f"precondition failed: w^(-1){s} is not a positive root")
    m = rs.num_positive
    reflections = _reflections(rs)
    _, index = _root_index(rs)
    targets = [(s, index[s]) for s in support]
    ident = bytes(range(2 * m))
    inv = ident  # perm of w_q^{-1} = s_{a_q} w_{q-1}^{-1}
    chain = [WeylElement(word=(), perm=ident)]
    for q, letter in enumerate(w.word, 1):
        alpha, table = reflections[letter - 1]
        # defensive verification of the step condition on w_{q-1}^{-1}(S)
        for s, k in targets:
            if inv[k] >= m or inv[k] == alpha:
                raise AssertionError(f"chain step {q}: support {s} left the parabolic nilradical")
        inv = inv.translate(table)
        chain.append(WeylElement(word=w.word[:q], perm=bytes.maketrans(inv, ident)[: 2 * m]))
    if any(inv[k] >= m for _, k in targets):
        raise AssertionError("the last Borel lost the support")
    return chain


def weyl_orbit_pairs(rs: RootSystem, group, pair) -> frozenset:
    """Diagonal W-orbit of a rational point (x, y) of h x h.

    Points of h are given by their simple-root values beta_j(x).
    """
    x, y = tuple(pair[0]), tuple(pair[1])
    return frozenset((w.apply_h(rs, x), w.apply_h(rs, y)) for w in group)
