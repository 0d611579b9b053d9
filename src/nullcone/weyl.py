"""Finite Weyl groups: generation, reduced words, torus-fixed Borel data.

Elements act on the roots; the action is stored as a ``bytes`` permutation
of ``rs.roots``, the root order of :mod:`nullcone.roots` (positive roots
first, then their negatives), looked up through ``rs.index``, so that
2m <= 255 roots fit a byte each.  Composition is one C-level call,
perm(v u) = perm(u).translate(perm(v) + the identity tail), and a simple
reflection is the 256-byte table S_i with S_i[k] the index of s_i(root k):
``rs.reflection_tables``, the one action of s_i on roots, which the roots
suite checks, with the identity tail appended.  ``chain_of_lines`` walks a
word forward by the same rule, its support one ``bytes`` of root indices.
Generation runs up the parabolic chain W_1 < W_2 < ... < W_n, where
W_k = <s_1, ..., s_k>: W_k is every product of an element of W_{k-1} with
one of the few minimal representatives of the cosets W_{k-1}\\W_k (2, 2,
3, 10, 16 and 27 on E6), so there is no deduplicating walk.  In place of a
|W|-sized set, each level's representatives are checked to be distinct,
to lie in W_k and to be free of left descents below k, which makes the
products pairwise distinct, and their final count is checked against |W|.
The stored word of each element is its lexicographically smallest reduced
word.  Each call of ``generate_weyl`` enumerates a new group, a read-only
``WeylGroup`` in product order that forms an element only when it is read.
The inversion count n(w), the number of positive roots w makes negative,
is read for every element at once from the columns of W_{n-1}'s perms; the
torus-fixed Borels w(b) are counted from it by orbit and stabilizer, and
the word lengths are checked against it, with no element built.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from operator import mul

from .roots import RootSystem, WEYL_ORDERS


class WeylOrderError(ValueError):
    """Raised when a group is too large to enumerate: above the order cap, or over 255 roots."""


@lru_cache(maxsize=None)
def _reflections(rs: RootSystem) -> tuple:
    """(index of alpha_i, table S_i) per letter i, with S_i[k] the index of s_i(root k).

    S_i is ``rs.reflection_tables[i - 1]`` as bytes, with the identity on
    the bytes above 2m.  Indices are bytes: over 255 roots raise ``WeylOrderError``.
    """
    n = len(rs.roots)
    if n > 255:
        raise WeylOrderError(f"{rs.stype} has {n} roots, above the 255 bytes can index")
    rest = bytes(range(n, 256))
    return tuple(
        (rs.index[alpha], bytes(table) + rest)
        for alpha, table in zip(rs.simple_roots, rs.reflection_tables)
    )


class WeylElement:
    """An element w of W: its lex-min reduced word and its permutation of the roots.

    Two elements are equal when their words and perms are; ``len(w)`` is
    the length of w's word.
    """

    __slots__ = ("word", "perm")

    def __init__(self, word: tuple, perm: bytes):
        self.word = word  # lexicographically smallest reduced word, 1-based indices
        self.perm = perm  # perm[k] is the index in rs.roots of w(rs.roots[k])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.word, self.perm) == (other.word, other.perm)

    def __hash__(self) -> int:
        return hash((self.word, self.perm))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(word={self.word!r}, perm={self.perm!r})"

    def __len__(self) -> int:
        return len(self.word)

    def apply_root(self, rs: RootSystem, r) -> tuple:
        return rs.roots[self.perm[rs.index[tuple(r)]]]


def weyl_order(rs: RootSystem) -> int:
    return WEYL_ORDERS[rs.stype.family](rs.stype.rank)


def generate_weyl(rs: RootSystem, max_order: int = 10**6) -> WeylGroup:
    """Enumerate the full Weyl group, refusing if it exceeds max_order or has over 255 roots.

    Returns a ``WeylGroup`` sequence in product order, the identity first,
    held as one perm buffer whose elements are built on each read.  Each
    call checks the cap, then enumerates a new group; a caller that reads
    the group more than once keeps it.
    """
    order = weyl_order(rs)
    if order > max_order:
        raise WeylOrderError(
            f"Weyl group of {rs.stype} has order {order}, above the cap {max_order}"
        )
    return _enumerate_weyl(rs)


class WeylGroup(Sequence):
    """An enumerated group in product order, held as its top coset level over W_{n-1}.

    Element j is product number j of the coset chain, v on the outside: a
    mixed-radix number whose digits, the last level least significant, pick
    one representative per level, so its word is their words joined
    (lexmin(v u) = lexmin(v) + lexmin(u), see ``_enumerate_weyl``).  With r
    representatives u on the top level, j = v r + d is v u for element v of
    W_{n-1} and the d-th u.  Only W_{n-1}'s perms are stored, joined in one
    buffer of n = 2m bytes each, beside the r perms of the top level and,
    per element, its length and its inversion count, one byte each of
    ``lengths`` and ``counts``.  ``group[j]`` composes
    perm(v u) = perm(u).translate(perm(v) + tail), with the identity tail
    on the bytes above 2m built once per group, and builds its
    ``WeylElement`` on each read; slices are tuples.
    """

    __slots__ = ("_lower", "_top", "_tail", "_words", "_lengths", "_counts")

    def __init__(self, lower: bytes, top: tuple, words: tuple, lengths: bytes, counts: bytes):
        self._lower = lower  # the perms of W_{n-1}, joined in product order
        self._top = top  # the top level's representative perms, e first
        self._tail = bytes(range(len(top[0]), 256))
        self._words = words  # per level, the representatives' lex-min words
        self._lengths = lengths  # per element, the length of its word
        self._counts = counts  # per element, its inversion count n(w)

    def __len__(self) -> int:
        return len(self._lengths)

    def __getitem__(self, j):
        j = range(len(self))[j]  # an index in range, or the indices of a slice
        if isinstance(j, range):
            return tuple(map(self.__getitem__, j))
        v, d = divmod(j, len(self._top))
        u = self._top[d]
        n = len(u)
        perm = u.translate(self._lower[v * n : (v + 1) * n] + self._tail)
        index, word = j, ()
        for level in reversed(self._words):
            index, digit = divmod(index, len(level))
            word = level[digit] + word
        return WeylElement(word, perm)


def _enumerate_weyl(rs: RootSystem) -> WeylGroup:
    # W_k = <s_1, ..., s_k> factors uniquely as W_k = W_{k-1} U_k, where
    # U_k holds the minimal representatives u of the cosets W_{k-1} u: the
    # u with no left descent below k.  Lengths add, l(v u) = l(v) + l(u).
    #
    # Distinctness.  If v u = v' u' with v, v' in W_{k-1}, then u' lies in
    # the coset W_{k-1} u, which has exactly one element with no left
    # descent below k (Humphreys, Reflection Groups and Coxeter Groups,
    # sec. 1.10), so u = u' and v = v'.  The premise v, v' in W_{k-1} holds
    # when every level-j representative lies in W_j: its lex-min word, read
    # off its perm rather than taken as given, uses no letter above j, as
    # every reduced word of an element of a standard parabolic subgroup
    # uses only that subgroup's letters.  The products are therefore
    # pairwise distinct once each level's representatives are distinct, lie
    # in W_k and have no left descent below k, which is checked per level;
    # together with the final count |W| they are the whole group, with no
    # |W|-sized set.
    #
    # Words.  For i < k, s_i v u factors as (s_i v) u, so i is a left descent
    # of v u iff it is one of v.  A v != e has a left descent, all below k,
    # so the smallest left descent of v u is v's; stripping smallest left
    # descents, which spells the lex-min reduced word, strips v first:
    # lexmin(v u) = lexmin(v) + lexmin(u).  A u != e starts with k, its only
    # left descent.
    #
    # Layout.  Each level below the top writes its products' perms into one
    # preallocated buffer: with r = len(reps), the product of the j-th
    # previous element and the d-th representative is number j r + d, so
    # the lengths of the products with representative d are the slice
    # out[d::r].  The top level's products are not formed: the group keeps
    # W_{n-1}'s buffer and the top representatives, and composes an element
    # when it is read.
    m = rs.num_positive
    n = 2 * m
    rest = bytes(range(n, 256))
    tables = _reflections(rs)
    words = []  # per level, the representatives' words
    lengths, perms = b"\0", bytes(range(n))  # perms: the previous level's perms, joined
    for k in range(1, rs.rank + 1):
        reps = _coset_representatives(rs, k)
        if len({perm for _, perm in reps}) != len(reps):
            raise AssertionError(f"{rs.stype} level {k}: a coset representative repeats")
        for word, perm in reps:
            for i, (alpha, _) in enumerate(tables[: k - 1], 1):
                if perm.find(alpha, 0, m) < 0:
                    raise AssertionError(
                        f"{rs.stype} level {k}: representative {word} has the left descent {i}"
                    )
            if max(_lex_min_word(rs, perm), default=0) > k:
                raise AssertionError(
                    f"{rs.stype} level {k}: representative {word} lies outside W_{k}"
                )
        words.append(tuple(u for u, _ in reps))
        r = len(reps)
        out = bytearray(len(lengths) * r)
        for d, (u, _) in enumerate(reps):  # l -> l + len(u), shifted on 256 bytes
            out[d::r] = lengths.translate(bytes(range(len(u), 256)) + bytes(range(len(u))))
        lengths = out
        if k == rs.rank:
            break
        joined = b"".join(perm for _, perm in reps)
        out = bytearray(len(perms) * r)
        for j in range(0, len(perms), n):
            out[j * r : (j + n) * r] = joined.translate(perms[j : j + n] + rest)
        perms = out
    order = weyl_order(rs)
    if len(lengths) != order:
        raise AssertionError(f"generated {len(lengths)} products, expected {order}")
    # free each bytearray once its bytes copy exists (out is the top level's
    # lengths), so that no buffer is alive in two copies beside the next one
    del out
    lengths = bytes(lengths)
    lower, top = bytes(perms), tuple(perm for _, perm in reps)
    del perms
    counts = _product_inversion_counts(lower, top)
    return WeylGroup(lower, top, tuple(words), lengths, counts)


def _product_inversion_counts(lower: bytes, top: tuple) -> bytes:
    """n(v u) for each v joined in ``lower`` and each u in ``top``, one byte each, in product order.

    By definition n(v u) = #{k < m : perm(v)[perm(u)[k]] >= m}.  Column c
    of ``lower``, ``lower[c::2m]``, holds perm(v)[c] for every v; translated
    by k -> [k >= m] and read as a little-endian integer, it flags the v
    that send root c negative, one byte lane per v.  The count of v u is
    then lane v of the sum of the m columns perm(u) names: each lane adds at
    most m <= 127 ones, so no carry crosses a lane.  Each column is read
    once, and no pass runs over a |W|-sized buffer.
    """
    n = len(top[0])
    m, size, r = n // 2, len(lower) // n, len(top)
    negative = bytes(m) + b"\1" * (256 - m)
    flags = [int.from_bytes(lower[c::n].translate(negative), "little") for c in range(n)]
    counts = bytearray(size * r)
    for d, u in enumerate(top):
        counts[d::r] = sum(map(flags.__getitem__, u[:m])).to_bytes(size, "little")
    del flags
    return bytes(counts)


def _coset_representatives(rs: RootSystem, k: int) -> list:
    """(lex-min word, perm) of each minimal representative of W_{k-1} \\ W_k.

    These are the u in W_k with no left descent below k; u s_j is again one
    for every right descent s_j of u, so they are reached from e by right
    multiplications that lengthen.  Listed by word, e first.
    """
    m = rs.num_positive
    rest = bytes(range(2 * m, 256))
    tables = _reflections(rs)[:k]
    lower = [alpha for alpha, _ in tables[: k - 1]]
    level = reps = [bytes(range(2 * m))]
    while level:
        longer = set()
        for u in level:
            table = u + rest
            for alpha, s in tables:
                if u[alpha] < m:  # u(alpha_j) > 0: u s_j is longer
                    us = s[: 2 * m].translate(table)
                    if all(us.find(a, 0, m) >= 0 for a in lower):
                        longer.add(us)
        level = list(longer)
        reps = reps + level
    return sorted((_lex_min_word(rs, u), u) for u in reps)


def _lex_min_word(rs: RootSystem, perm: bytes) -> tuple:
    """Lexicographically smallest reduced word of the element with this perm.

    Its first letter is the smallest left descent i, the i with alpha_i
    outside w(R+); the rest is the word of s_i w.
    """
    m = rs.num_positive
    letters = tuple(enumerate(_reflections(rs), start=1))
    word = []
    while True:
        for i, (alpha, table) in letters:
            if perm.find(alpha, 0, m) < 0:
                word.append(i)
                perm = perm.translate(table)
                break
        else:
            return tuple(word)


def element_from_word(rs: RootSystem, word) -> WeylElement:
    """The element s_{a_1} ... s_{a_q}, its tables applied from the last letter to the first.

    The word must be reduced, with letters in 1..rank; the element stores
    its lex-min reduced word, which may differ from the one given.
    """
    tables = _reflections(rs)
    word = tuple(word)
    if not all(1 <= i <= rs.rank for i in word):
        raise ValueError(f"word {word} has a letter outside 1..{rs.rank}")
    perm = bytes(range(2 * rs.num_positive))
    for i in reversed(word):
        perm = perm.translate(tables[i - 1][1])
    lex_min = _lex_min_word(rs, perm)  # as long as l(w), the inversion count
    if len(lex_min) != len(word):
        raise ValueError(f"word {word} is not reduced")
    return WeylElement(word=lex_min, perm=perm)


def borels_containing_torus(rs: RootSystem, group: WeylGroup) -> int:
    """Count the distinct torus-fixed Borels w(b) over an enumerated group.

    The Borels are told apart by their root sets w(R+), the first m
    entries of w's perm.  The enumeration's certificate makes the
    perms a permutation group of order |W|, so the sets w(R+) are the orbit
    of the positive index set R+, and by orbit and stabilizer their number
    is |W| / s, where s counts the elements with w(R+) = R+: those with no
    inversion, n(w) = 0, read off the group's inversion counts.  That s is
    1, the one fact behind W's simple transitivity on these Borels
    (Humphreys, Reflection Groups and Coxeter Groups, sec. 1.8), is what
    the count then tests, not something it assumes; an s of 0 or one that
    does not divide |W| cannot come from a group and raises
    ``AssertionError``.
    """
    order, stabilizer = len(group), group._counts.count(0)
    if not stabilizer or order % stabilizer:
        raise AssertionError(
            f"{rs.stype}: {stabilizer} of {order} elements fix R+, "
            "and a stabilizer's order is a positive divisor of the group's"
        )
    return order // stabilizer


def length_inversion_failures(group: WeylGroup) -> list:
    """The indices j with l(group[j]) != n(group[j]).

    The word lengths and the inversion counts are compared as two byte
    strings, so a group that passes builds no element.
    """
    counts, lengths = group._counts, group._lengths
    if counts == lengths:
        return []
    return [j for j, (count, length) in enumerate(zip(counts, lengths)) if count != length]


def chain_of_lines(rs: RootSystem, support, w: WeylElement) -> list:
    """Connect b to w(b) through Borels containing a common nilpotent support.

    ``support`` is a set of positive roots S in w(R+), the first m entries
    of w's perm (so both b and w(b) contain nilpotents supported on S).
    Returns the prefixes e = w_0, w_1, ..., w_q = w of w's word, each step
    w_q = w_{q-1} s_{a_q} composed forward like any product, where at every
    step S lies in w_{q-1}(R+ \\ {alpha_{a_q}}) -- the nilpotent radical of
    the minimal parabolic defining the connecting projective line.  The
    last element keeps S in w_q(R+), and q = l(w).
    """
    m = rs.num_positive
    support = [tuple(s) for s in support]
    # the support's root indices, and 255, which indexes no root, for one that is not positive
    indices = bytes(rs.index[s] if rs.is_positive_root(s) else 255 for s in support)

    def first_outside(held: bytes):  # the first support root whose index is not held
        outside = indices.translate(None, held)
        return support[indices.index(outside[0])] if outside else None

    if (s := first_outside(w.perm[:m])) is not None:
        if not rs.is_positive_root(s):
            raise ValueError(f"support root {s} is not positive")
        raise ValueError(f"precondition failed: w^(-1){s} is not a positive root")
    reflections = _reflections(rs)
    rest = bytes(range(2 * m, 256))
    perm = bytes(range(2 * m))  # perm(w_{q-1})
    chain = [WeylElement(word=(), perm=perm)]
    for q, letter in enumerate(w.word, 1):
        alpha, table = reflections[letter - 1]
        # defensive verification of the step condition: S in perm(w_{q-1})[:m] less alpha's image
        if (s := first_outside(perm[:alpha] + perm[alpha + 1 : m])) is not None:
            raise AssertionError(f"chain step {q}: support {s} left the parabolic nilradical")
        perm = table[: 2 * m].translate(perm + rest)
        chain.append(WeylElement(word=w.word[:q], perm=perm))
    if first_outside(perm[:m]) is not None:
        raise AssertionError("the last Borel lost the support")
    return chain


def weyl_orbit_pairs(rs: RootSystem, group, pair) -> frozenset:
    """Diagonal W-orbit of a rational point (x, y) of h x h.

    Points of h are given by their simple-root values beta_j(x), and each
    element's images of the simple roots are read off its perm.  The value
    of beta_j at w^{-1}x is that of w(beta_j) at x, the sum over i of
    w(beta_j)_i x_i; as w runs over W so does w^{-1}, so these points are
    the whole orbit.
    """
    simple = [rs.index[beta] for beta in rs.simple_roots]
    images = ([rs.roots[w.perm[k]] for k in simple] for w in group)
    return frozenset(
        tuple(tuple(sum(map(mul, image, point)) for image in ims) for point in pair)
        for ims in images
    )
