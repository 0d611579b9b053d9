"""Weyl group generation, reduced words, torus Borels and line chains."""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from oracles import TorusBorel, apply_h, inversions, reflection_tables

from nullcone import weyl
from nullcone.report import DEFAULT_TYPES, RunConfig, _length_inversions
from nullcone.roots import build_root_system
from nullcone.weyl import (
    WeylElement,
    WeylOrderError,
    borels_containing_torus,
    chain_of_lines,
    element_from_word,
    generate_weyl,
    weyl_orbit_pairs,
    weyl_order,
)


def test_small_group_orders():
    assert len(generate_weyl(build_root_system("A", 2))) == 6
    assert len(generate_weyl(build_root_system("B", 2))) == 8
    assert len(generate_weyl(build_root_system("F", 4))) == 1152


def test_generation_refusal_names_the_order():
    rs = build_root_system("E", 8)
    with pytest.raises(WeylOrderError, match="696729600"):
        generate_weyl(rs, 10**6)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("F", 4)])
def test_length_equals_inversions_exhaustively(family, rank):
    rs = build_root_system(family, rank)
    for w in generate_weyl(rs):
        assert len(w.word) == inversions(rs, w)


def test_words_are_lexicographically_smallest():
    for family, rank in [("A", 3), ("B", 3), ("G", 2)]:
        rs = build_root_system(family, rank)
        group = generate_weyl(rs)
        reduced = _all_reduced_words(rs)
        assert len(reduced) == len(group) == len({w.perm for w in group})
        for w in group:
            assert w.word == min(reduced[w.perm])


@pytest.mark.parametrize(
    "family,rank,expected", [("A", 1, 2), ("A", 2, 6), ("B", 3, 48), ("G", 2, 12)]
)
def test_torus_borel_counts(family, rank, expected):
    rs = build_root_system(family, rank)
    group = generate_weyl(rs)
    assert borels_containing_torus(rs, group) == expected


def test_torus_borel_support_membership():
    rs = build_root_system("A", 2)
    group = generate_weyl(rs)
    theta = (1, 1)
    holders = [w for w in group if TorusBorel(w).contains_support(rs, [theta])]
    assert sorted(w.word for w in holders) == [(), (1,), (2,)]


def test_chain_empty_support_any_word():
    rs = build_root_system("B", 2)
    w = element_from_word(rs, (1, 2, 1))
    chain = chain_of_lines(rs, [], w)
    assert len(chain) == 4
    assert chain[0].word == () and chain[-1].perm == w.perm


def test_chain_theta_one_step():
    rs = build_root_system("A", 2)
    w = element_from_word(rs, (1,))
    chain = chain_of_lines(rs, [(1, 1)], w)
    assert [c.word for c in chain] == [(), (1,)]
    # s_1(theta) = beta_2 stays positive
    assert w.apply_root(rs, (1, 1)) == (0, 1)


def test_chain_precondition_rejects_theta_for_length_two_words():
    # only e, s1, s2 keep theta inside w(b) in A2; longer words must be rejected
    rs = build_root_system("A", 2)
    w = element_from_word(rs, (1, 2))
    with pytest.raises(ValueError, match="precondition"):
        chain_of_lines(rs, [(1, 1)], w)


def test_chain_refuses_a_step_that_leaves_the_nilradical():
    # the word (1, 2) with the perm of s_1: w^(-1)(theta) = (0, 1) is positive,
    # so the precondition passes, and step 2, letter 2, finds theta sent to beta_2
    rs = build_root_system("A", 2)
    w = WeylElement(word=(1, 2), perm=element_from_word(rs, (1,)).perm)
    with pytest.raises(AssertionError, match="chain step 2: "):
        chain_of_lines(rs, [rs.highest_root], w)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3)])
def test_chains_over_whole_group_with_seeded_supports(family, rank):
    rs = build_root_system(family, rank)
    group = generate_weyl(rs)
    rng = random.Random(f"chains:{family}{rank}")
    for w in group:
        pos_image = {w.apply_root(rs, r) for r in rs.positive_roots}
        common = [r for r in rs.positive_roots if r in pos_image]
        for _ in range(3):
            support = [r for r in common if rng.random() < 0.5]
            chain = chain_of_lines(rs, support, w)
            assert len(chain) == len(w.word) + 1
            assert chain[-1].perm == w.perm
            for a, b in zip(chain, chain[1:]):
                assert len(b.word) == len(a.word) + 1


@pytest.mark.parametrize(
    "family,rank", [("A", 3), ("B", 4), ("C", 4), ("D", 4), ("F", 4), ("G", 2)]
)
def test_the_maximal_common_support_chains_every_element(family, rank):
    # R+ ∩ w(R+) is the largest support chain_of_lines accepts for w, and
    # each chain element is the element its prefix word spells
    rs = build_root_system(family, rank)
    m = rs.num_positive
    spelled = {}
    for w in generate_weyl(rs):
        image = set(w.perm[:m])
        support = [r for k, r in enumerate(rs.positive_roots) if k in image]
        chain = chain_of_lines(rs, support, w)
        assert [c.word for c in chain] == [w.word[:q] for q in range(len(w.word) + 1)]
        for c in chain:
            if c.word not in spelled:
                spelled[c.word] = element_from_word(rs, c.word).perm
            assert c.perm == spelled[c.word], (w.word, c.word)
        assert chain[-1].perm == w.perm


def test_connectivity_transport_between_two_torus_borels():
    # if v(b) and w(b) both contain the support, a chain joins them after
    # translating by v: the element u = v^{-1} w satisfies the precondition
    rs = build_root_system("A", 3)
    group = generate_weyl(rs)
    by_perm = {g.perm: g for g in group}
    rng = random.Random("connect")
    checked = 0
    for _ in range(200):
        v = group[rng.randrange(len(group))]
        w = group[rng.randrange(len(group))]
        vpos = {v.apply_root(rs, r) for r in rs.positive_roots}
        wpos = {w.apply_root(rs, r) for r in rs.positive_roots}
        common = [r for r in rs.positive_roots if r in vpos and r in wpos]
        if not common:
            continue
        support = common[: rng.randint(1, len(common))]
        # u = v^{-1} w: the permutation with v.perm o u.perm == w.perm
        inv_v = [0] * len(v.perm)
        for j, img in enumerate(v.perm):
            inv_v[img] = j
        u = by_perm[bytes(inv_v[w.perm[j]] for j in range(len(w.perm)))]
        translated = [rs.roots[inv_v[rs.index[s]]] for s in support]  # v^{-1}(S)
        chain = chain_of_lines(rs, translated, u)
        assert chain[-1].perm == u.perm
        checked += 1
    assert checked > 20


def test_orbit_pairs():
    rs1 = build_root_system("A", 1)
    g1 = generate_weyl(rs1)
    assert weyl_orbit_pairs(rs1, g1, ((0,), (0,))) == {((0,), (0,))}
    assert len(weyl_orbit_pairs(rs1, g1, ((1,), (2,)))) == 2
    rs2 = build_root_system("A", 2)
    g2 = generate_weyl(rs2)
    orbit = weyl_orbit_pairs(rs2, g2, ((1, 2), (3, 5)))
    assert len(orbit) == 6
    assert len(generate_weyl(rs2)) % len(orbit) == 0


# the default types with enumerated groups up to |W(F4)| = 1152
ENUMERATED_DEFAULT_TYPES = [
    name for name in DEFAULT_TYPES
    if weyl_order(build_root_system(name[0], int(name[1:]))) <= 1152
]


@pytest.mark.parametrize("name", ENUMERATED_DEFAULT_TYPES)
def test_orbit_pairs_match_the_cartan_walk(name):
    rs = build_root_system(name[0], int(name[1:]))
    group = generate_weyl(rs)
    rng = random.Random(f"orbit-pairs:{name}")
    points = [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rs.rank)]
        for _ in range(4)
    ]
    points.append([Fraction(0)] * rs.rank)  # fixed by all of W
    for x, y in zip(points, points[1:]):
        orbit = {(apply_h(rs, w, x), apply_h(rs, w, y)) for w in group}
        assert weyl_orbit_pairs(rs, group, (x, y)) == orbit


def _all_reduced_words(rs):
    """Every reduced word of every element, keyed by its perm, breadth first.

    The reduced words of x at distance q + 1 from e are the words y + (i,)
    of the y at distance q with y s_i = x.
    """
    gens = reflection_tables(rs)
    ident = tuple(range(len(gens[0])))
    level = {ident: {()}}
    found = dict(level)
    while level:
        nxt = {}
        for perm, words in level.items():
            for i, g in enumerate(gens, 1):
                p2 = tuple(perm[g[j]] for j in range(len(perm)))
                if p2 not in found:
                    nxt.setdefault(p2, set()).update(word + (i,) for word in words)
        found.update(nxt)
        level = nxt
    return {bytes(p): words for p, words in found.items()}


def _oracle_weyl(rs):
    """The plain breadth-first closure: every letter, one tuple per image."""
    gens = reflection_tables(rs)
    ident = tuple(range(len(gens[0])))
    seen = {ident: ()}
    frontier = [(ident, ())]
    while frontier:
        nxt = []
        for perm, word in frontier:
            for i, g in enumerate(gens):
                p2 = tuple(perm[g[j]] for j in range(len(perm)))
                if p2 not in seen:
                    seen[p2] = word + (i + 1,)
                    nxt.append((p2, seen[p2]))
        frontier = nxt
    return sorted(((w, bytes(p)) for p, w in seen.items()), key=lambda wp: (len(wp[0]), wp[0]))


ORACLE_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4), ("D", 4), ("G", 2), ("F", 4),
]


def enumerate_by_level_walk(rs):
    """The group level by level, by left multiplication, deduplicated by action.

    Letters run on the outside and the previous level, in word order, on the
    inside, so each element is first reached from s_i0 w with i0 its smallest
    left descent: it gets its lex-min reduced word, and the whole group comes
    out sorted by (length, word).
    """
    m = rs.num_positive
    letters = tuple(enumerate(weyl._reflections(rs), start=1))
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
    return tuple(WeylElement(word=w, perm=p) for p, w in seen.items())


def _by_length_and_word(group) -> tuple:
    """The elements of a group sorted by (length, word), the order of the oracles."""
    return tuple(sorted(group, key=lambda w: (len(w.word), w.word)))


@pytest.mark.parametrize("family,rank", ORACLE_TYPES + [("A", 6), ("D", 5), ("E", 6)])
def test_coset_products_match_the_level_walk(family, rank):
    rs = build_root_system(family, rank)
    assert _by_length_and_word(generate_weyl(rs)) == enumerate_by_level_walk(rs)


@pytest.mark.parametrize("family,rank", [("B", 3), ("F", 4), ("E", 6)])
def test_element_j_is_the_product_the_digits_of_j_pick(family, rank):
    # the last level is the least significant digit; each level lists e first
    rs = build_root_system(family, rank)
    group = generate_weyl(rs)
    levels = [weyl._coset_representatives(rs, k) for k in range(1, rank + 1)]
    indices = range(len(group))
    if len(group) > 1152:
        indices = random.Random(f"digits:{family}{rank}").sample(indices, 500)
    for j in indices:
        word, rest = (), j
        for reps in reversed(levels):
            rest, digit = divmod(rest, len(reps))
            word = reps[digit][0] + word
        assert group[j] == element_from_word(rs, word)  # a reduced, lex-min word
    assert group[0].word == () and group[0].perm == bytes(range(2 * rs.num_positive))


@pytest.mark.parametrize("family,rank", [("B", 3), ("E", 6)])
def test_the_group_reads_as_the_tuple_of_its_elements(family, rank):
    rs = build_root_system(family, rank)
    group = generate_weyl(rs)
    elements = tuple(group)
    n = len(elements)
    for j in (0, 1, n // 2, n - 1, -1, -2, -n):
        assert group[j] == group[j] == elements[j]
    for j in (n, -n - 1):
        with pytest.raises(IndexError):
            group[j]
    for part in (slice(None), slice(3, 9), slice(-5, None), slice(None, None, -7)):
        assert group[part] == elements[part] and type(group[part]) is tuple
    assert group[10:2:-3] == elements[10:2:-3]
    k = min(60, n // 2)
    for seed in range(3):
        drawn = random.Random(seed).sample(group, k)
        assert drawn == random.Random(seed).sample(elements, k)
        for w in drawn:
            built = element_from_word(rs, w.word)
            assert (built.word, built.perm) == (w.word, w.perm)


def _record_built_elements(monkeypatch) -> list:
    """The words of the ``WeylElement``s built from now on, in build order."""
    made = []

    class Counting(WeylElement):
        __slots__ = ()

        def __init__(self, word, perm):
            made.append(word)
            super().__init__(word, perm)

    monkeypatch.setattr(weyl, "WeylElement", Counting)
    return made


def test_enumerating_builds_no_element_until_one_is_read(monkeypatch):
    made = _record_built_elements(monkeypatch)
    rs = build_root_system("E", 6)
    weyl._reflections(rs)  # cached per root system, not held by the group
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        group = weyl._enumerate_weyl(rs)
        held, peak = (x - before for x in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    # the 1920 72-byte perms of W_5 = D5, the 27 top representatives, and one
    # length byte and one inversion-count byte per element
    assert held <= 0.5e6, f"the held E6 group takes {held / 1e6:.2f} MB"
    # no level below the top is kept beside the next, and the top is not formed
    assert peak <= 1.0e6, f"enumerating E6 peaks at {peak / 1e6:.2f} MB"
    assert len(group) == 51840 and made == []
    j = group._lengths.index(36)  # the longest element
    w = group[j]
    assert type(w) is weyl.WeylElement and len(made) == 1 and len(w.word) == 36
    # each read builds its element anew
    assert group[j] == w and len(made) == 2


def test_counting_e6_borels_builds_no_element(monkeypatch):
    made = _record_built_elements(monkeypatch)
    rs = build_root_system("E", 6)
    group = weyl._enumerate_weyl(rs)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        count = borels_containing_torus(rs, group)
        above = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert count == 51840 and made == []
    assert above < 1e6, f"counting E6's Borels takes {above / 1e6:.2f} MB"
    assert weyl.length_inversion_failures(group) == [] and made == []


@pytest.mark.parametrize("family,rank", ORACLE_TYPES + [("E", 6)])
def test_bulk_inversion_counts_match_the_element_walk(family, rank):
    rs = build_root_system(family, rank)
    group = generate_weyl(rs)
    counts = group._counts
    assert len(counts) == len(group)
    assert list(counts) == [inversions(rs, w) for w in group]
    assert counts.count(0) == 1 and counts[0] == 0
    assert weyl.length_inversion_failures(group) == []


def _planted_group(group, records):
    """``group`` with the perms of W_{n-1} at the given indices replaced.

    Its inversion counts are recomputed from the planted perms.
    """
    n = len(group._top[0])
    lower = bytearray(group._lower)
    for j, perm in records.items():
        lower[j * n : (j + 1) * n] = perm
    lower = bytes(lower)
    counts = weyl._product_inversion_counts(lower, group._top)
    return weyl.WeylGroup(lower, group._top, group._words, group._lengths, counts)


def test_a_planted_group_is_not_counted_as_w_borels():
    rs = build_root_system("B", 3)
    group = generate_weyl(rs)  # 6 elements of W_2 times 8 top representatives, e first
    ident = bytes(range(2 * rs.num_positive))
    # one perm of W_2 replaced by the identity: two elements fix R+
    once = _planted_group(group, {5: ident})
    assert list(once._counts) == [inversions(rs, w) for w in once]
    assert borels_containing_torus(rs, once) != len(group) == 48
    assert borels_containing_torus(rs, once) == 24
    # five elements fixing R+, or none, can be no stabilizer in a group of order 48
    fives = _planted_group(group, {j: ident for j in range(2, 6)})
    none = _planted_group(group, {0: group[8].perm})  # e replaced by s_2, the next of W_2
    for planted, s in ((fives, 5), (none, 0)):
        assert list(planted._counts) == [inversions(rs, w) for w in planted]
        with pytest.raises(AssertionError, match=f"{s} of 48 elements fix R\\+"):
            borels_containing_torus(rs, planted)


def test_an_off_by_one_chain_length_fails_length_inversions(monkeypatch):
    rs = build_root_system("B", 3)
    honest = weyl._coset_representatives

    def planted(rs, k):
        reps = honest(rs, k)
        if k == 2:  # the first of the 3 level-2 representatives, e, gets the word (2,)
            word, perm = reps[0]
            reps = [(word + (2,), perm)] + reps[1:]
        return reps

    monkeypatch.setattr(weyl, "_coset_representatives", planted)
    group = weyl._enumerate_weyl(rs)
    walk = [w.word for w in group if len(w.word) != inversions(rs, w)]
    assert len(walk) == 48 // 3  # every product with that representative
    unit = SimpleNamespace(rs=rs, group=group, order=48, config=RunConfig())
    assert _length_inversions(unit, None) == (False, walk[:5])


@pytest.mark.parametrize("family,rank", ORACLE_TYPES + [("E", 6)])
def test_length_distribution_is_the_poincare_polynomial(family, rank):
    # the numbers of positive roots of each height form the partition dual to
    # that of the exponents m_i (Kostant 1959; Humphreys, Reflection Groups
    # and Coxeter Groups, sec. 3.20), and W(q) = prod_i (1 + q + ... + q^m_i)
    rs = build_root_system(family, rank)
    by_height = Counter(sum(r) for r in rs.positive_roots)
    counts = [by_height[h] for h in range(1, max(by_height) + 1)]
    exponents = [sum(1 for c in counts if c >= i) for i in range(1, rank + 1)]
    poincare = [1]
    for m in exponents:
        poincare = [sum(poincare[max(0, d - m) : d + 1]) for d in range(len(poincare) + m)]
    lengths = Counter(len(w.word) for w in generate_weyl(rs))
    assert [lengths[d] for d in range(len(poincare))] == poincare
    assert sum(poincare) == len(generate_weyl(rs))


def test_e6_coset_representatives_have_no_left_descent_below_their_level():
    rs = build_root_system("E", 6)
    m = rs.num_positive
    counts = []
    for k in range(1, rs.rank + 1):
        reps = weyl._coset_representatives(rs, k)
        counts.append(len(reps))
        for word, perm in reps:
            assert word == () or word[0] == k
            assert element_from_word(rs, word) == WeylElement(word, perm)
            for alpha, _ in weyl._reflections(rs)[: k - 1]:
                assert perm.find(alpha, 0, m) >= 0
    assert counts == [2, 2, 3, 10, 16, 27]


@pytest.mark.parametrize("fault", ["repeat", "drop", "substitute", "non-minimal", "outside"])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_a_faulty_coset_representative_list_is_refused(monkeypatch, fault, level):
    rs = build_root_system("B", 3)
    honest = weyl._coset_representatives
    s1, s3 = (weyl._reflections(rs)[i][1] for i in (0, 2))

    def planted(rs, k):
        reps = honest(rs, k)
        if k == level:
            if fault == "repeat":
                reps = reps + reps[:1]
            elif fault == "drop":
                reps = reps[1:]
            elif fault == "substitute":  # as many products as |W|, two of them equal
                reps = reps[:-1] + reps[:1]
            elif fault == "non-minimal":  # the second representative u replaced by s_1 u
                word, perm = reps[1]
                reps = [reps[0], ((1,) + word, perm.translate(s1))] + reps[2:]
            else:  # the first representative replaced by s_3, which lies outside W_1 and W_2
                reps = [((3,), s3[: 2 * rs.num_positive])] + reps[1:]
        return reps

    refusal = {
        "repeat": "representative repeats",
        "drop": "expected 48",
        "substitute": "representative repeats",
        # at level 1 the second representative is e, and s_1 e repeats the first
        "non-minimal": "representative repeats" if level == 1 else "has the left descent 1",
        # at level 3 s_3 is already a representative
        "outside": "representative repeats" if level == 3 else f"\\(3,\\) lies outside W_{level}",
    }[fault]
    monkeypatch.setattr(weyl, "_coset_representatives", planted)
    with pytest.raises(AssertionError, match=refusal):
        weyl._enumerate_weyl(rs)


@pytest.mark.parametrize("family,rank", ORACLE_TYPES)
def test_generation_matches_the_plain_closure(family, rank):
    rs = build_root_system(family, rank)
    group = generate_weyl(rs)
    assert [(w.word, w.perm) for w in _by_length_and_word(group)] == _oracle_weyl(rs)


def test_e6_order_words_and_sampled_lengths():
    rs = build_root_system("E", 6)
    group = generate_weyl(rs)
    assert len(group) == 51840
    keys = [(len(w.word), w.word) for w in group]
    assert len(set(keys)) == len(keys)
    assert len({w.perm for w in group}) == len(group)
    for w in random.Random("e6-lengths").sample(group, 300):
        assert len(w.word) == inversions(rs, w)
        assert element_from_word(rs, w.word).perm == w.perm
    assert borels_containing_torus(rs, group) == len(
        {TorusBorel(w).positive_set(rs) for w in group}
    )


def test_e6_walk_gives_every_element_its_lex_min_reduced_word():
    rs = build_root_system("E", 6)
    group = generate_weyl(rs)
    m = rs.num_positive
    rest = bytes(range(2 * m, 256))
    left = {i: element_from_word(rs, (i,)).perm + rest for i in range(1, rs.rank + 1)}
    by_perm = {w.perm: w for w in group}
    simple = [tuple(int(j == i) for j in range(rs.rank)) for i in range(rs.rank)]
    for w in group[1:]:
        assert len(w.word) == inversions(rs, w)
        first = w.word[0]
        # s_first w is one letter shorter and stores the rest of the word
        assert by_perm[w.perm.translate(left[first])].word == w.word[1:]
        # the first letter is the smallest left descent: alpha_i outside w(R+)
        borel = TorusBorel(w)
        descents = [i for i, a in enumerate(simple, 1) if not borel.contains_support(rs, [a])]
        assert descents and descents[0] == first


def test_torus_borel_count_equals_the_frozenset_oracle():
    for family, rank in ORACLE_TYPES:
        rs = build_root_system(family, rank)
        group = generate_weyl(rs)
        oracle = len({TorusBorel(w).positive_set(rs) for w in group})
        assert borels_containing_torus(rs, group) == oracle == len(group)


def test_element_from_word_refuses_bad_letters_and_non_reduced_words():
    rs = build_root_system("A", 2)
    for word in [(0,), (3,), (1, 0)]:
        with pytest.raises(ValueError, match="outside 1..2"):
            element_from_word(rs, word)
    for word in [(1, 1), (1, 2, 1, 2), (2, 1, 2, 1, 2, 1)]:
        with pytest.raises(ValueError, match="not reduced"):
            element_from_word(rs, word)
    # another reduced word of the longest element keeps the lex-min one
    assert element_from_word(rs, (2, 1, 2)) == element_from_word(rs, (1, 2, 1))
    assert element_from_word(rs, (2, 1, 2)).word == (1, 2, 1)
    rs = build_root_system("A", 3)
    assert element_from_word(rs, (3, 1)).word == (1, 3)


def test_root_systems_beyond_byte_indices_are_refused():
    rs = build_root_system("A", 16)  # 272 roots
    with pytest.raises(ValueError, match="272 roots"):
        element_from_word(rs, (1,))
    with pytest.raises(WeylOrderError):
        generate_weyl(rs)
    # 17! is below this cap, so the root count is what refuses
    with pytest.raises(WeylOrderError, match="272 roots"):
        generate_weyl(rs, 10**15)


def test_the_enumerated_group_is_counted_once(monkeypatch):
    # the enumeration reads the inversion counts; the Borel count and the
    # length check only read them back
    rs = build_root_system("C", 3)
    honest, calls = weyl._product_inversion_counts, []

    def counted(lower, top):
        counts = honest(lower, top)
        calls.append(len(counts))
        return counts

    monkeypatch.setattr(weyl, "_product_inversion_counts", counted)
    group = weyl._enumerate_weyl(rs)
    assert calls == [48]
    assert borels_containing_torus(rs, group) == borels_containing_torus(rs, group) == 48
    assert weyl.length_inversion_failures(group) == []
    assert calls == [48]


def test_e7_is_enumerated_within_16_mb_but_stays_above_the_cap():
    rs = build_root_system("E", 7)
    weyl._reflections(rs)  # cached per root system, not held by the group
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        group = weyl._enumerate_weyl(rs)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the 51,840 126-byte perms of W_6 = E6, and two bytes per element
    assert held <= 16e6, f"the held E7 group takes {held / 1e6:.2f} MB"
    assert len(group) == weyl_order(rs) == 2903040
    assert borels_containing_torus(rs, group) == len(group)
    assert weyl.length_inversion_failures(group) == []
    for w in random.Random("e7").sample(group, 20):
        assert element_from_word(rs, w.word) == w
    # the default cap still refuses E7, so its records stay skipped
    with pytest.raises(WeylOrderError, match="2903040"):
        generate_weyl(rs, RunConfig().max_weyl_order)


def test_e7_enumeration_peaks_within_19_mb():
    rs = build_root_system("E", 7)
    weyl._reflections(rs)  # cached per root system, not held by the group
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        group = weyl._enumerate_weyl(rs)
        held, peak = (x - before for x in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    # at the peak the 126 column flags (6.5 MB) sit beside the group's
    # buffers; no bytearray outlives its bytes copy
    assert held <= 12.5e6, f"the held E7 group takes {held / 1e6:.2f} MB"
    assert peak <= 19e6, f"enumerating E7 peaks at {peak / 1e6:.2f} MB"
    assert len(group) == 2903040


def test_cap_is_checked_on_every_call():
    rs = build_root_system("D", 4)
    assert len(generate_weyl(rs, 10**6)) == 192
    with pytest.raises(WeylOrderError, match="192"):
        generate_weyl(rs, 191)
    with pytest.raises(WeylOrderError):
        generate_weyl(rs, max_order=1)


def test_chain_prefixes_are_the_elements_of_the_prefix_words():
    # prefixes of a lexicographically smallest reduced word are the stored
    # words of their own elements
    rs = build_root_system("F", 4)
    group = generate_weyl(rs)
    w = max(group, key=len)
    assert len(w) == 24  # the longest element
    chain = chain_of_lines(rs, [], w)
    assert [c.word for c in chain] == [w.word[:q] for q in range(len(w.word) + 1)]
    by_word = {g.word: g.perm for g in group}
    assert [c.perm for c in chain] == [by_word[c.word] for c in chain]


def test_weyl_order_formulas():
    assert weyl_order(build_root_system("D", 4)) == 192
    assert weyl_order(build_root_system("E", 7)) == 2903040
