"""Root system construction, pairings and predicates."""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    pairing_is_regular,
    pairing_zero_witness,
    reflect_by_cartan_entries,
    reflection_tables,
    rho_shift_by_generator,
)

from nullcone import weyl
from nullcone.report import DEFAULT_TYPES
from nullcone.roots import SimpleType, build_root_system

ALL_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(3, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]
)

CLASSICAL_COUNTS = {
    ("A", lambda n: n * (n + 1) // 2),
    ("B", lambda n: n * n),
    ("C", lambda n: n * n),
    ("D", lambda n: n * (n - 1)),
}


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_positive_root_counts(family, rank):
    rs = build_root_system(family, rank)
    exceptional = {("G", 2): 6, ("F", 4): 24, ("E", 6): 36, ("E", 7): 63, ("E", 8): 120}
    if (family, rank) in exceptional:
        expected = exceptional[(family, rank)]
    else:
        expected = dict(CLASSICAL_COUNTS)[family](rank)
    assert len(rs.positive_roots) == expected
    assert rs.borel_dim == expected + rank


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_simple_reflections_permute_other_positives(family, rank):
    rs = build_root_system(family, rank)
    for i in range(1, rank + 1):
        beta = tuple(1 if j == i - 1 else 0 for j in range(rank))
        for r in rs.positive_roots:
            img = rs.reflect_root(r, i)
            assert rs.is_root(img)
            if r == beta:
                assert img == tuple(-x for x in beta)
            else:
                assert rs.is_positive_root(img)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_rho_is_half_sum_of_positives(family, rank):
    rs = build_root_system(family, rank)
    total = [0] * rank
    for r in rs.positive_roots:
        for k in range(rank):
            total[k] += r[k]
    half = tuple(Fraction(t, 2) for t in total)
    pairings = tuple(
        sum(rs.cartan[i][j] * half[j] for j in range(rank)) for i in range(rank)
    )
    assert pairings == rs.rho
    assert rs.is_regular(rs.rho) and rs.is_dominant(rs.rho)


def _double_sum_length2(rs, r):
    """Reference (r, r) = sum_ij r_i r_j (beta_i, beta_j) over the symmetrized form."""
    n = rs.rank
    return sum(Fraction(r[i]) * r[j] * rs.bilinear[i][j] for i in range(n) for j in range(n))


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_root_length2_matches_double_sum(family, rank):
    rs = build_root_system(family, rank)
    for r in rs.positive_roots:
        for root in (r, tuple(-c for c in r)):
            got = rs.root_length2(root)
            assert got == _double_sum_length2(rs, root) and isinstance(got, Fraction)
    assert {rs.root_length2(r) for r in rs.positive_roots} == set(rs.lengths)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_coroot_coordinates_are_integers(family, rank):
    rs = build_root_system(family, rank)
    for r, coords in rs._coroot_coords.items():
        assert all(type(c) is int for c in coords), (r, coords)

    # r^vee = 2r/(r, r) in simple-coroot coordinates, recomputed over Fraction
    fraction_coroots = []
    for r in rs.positive_roots:
        len2 = _double_sum_length2(rs, r)
        fraction_coroots.append([Fraction(n_i) * l / len2 for n_i, l in zip(r, rs.lengths)])

    def fraction_regular(lam):
        return all(sum(x * c for x, c in zip(lam, m)) != 0 for m in fraction_coroots)

    for alpha in rs.positive_roots:
        for sign in (1, -1):
            lam = rs.rho_shift(alpha, sign)
            assert rs.is_regular(lam) == fraction_regular(lam), (alpha, sign)


def test_rank_bounds():
    with pytest.raises(ValueError):
        SimpleType("C", 2)
    with pytest.raises(ValueError):
        SimpleType("D", 3)
    with pytest.raises(ValueError):
        SimpleType("E", 9)
    with pytest.raises(ValueError):
        SimpleType("B", 1)
    assert SimpleType("B", 2).name == "B2"  # rank-2 case lives under family B


def test_a2_positive_roots_forced_by_closure():
    rs = build_root_system("A", 2)
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1)}


def test_e8_count_and_highest_root():
    rs = build_root_system("E", 8)
    assert len(rs.positive_roots) == 120
    assert rs.highest_root == (2, 3, 4, 6, 5, 4, 3, 2)


def test_weight_of_root_examples():
    a1 = build_root_system("A", 1)
    assert a1.weight_of_root((1,)) == (2,)
    a2 = build_root_system("A", 2)
    assert a2.weight_of_root((1, 1)) == (1, 1)
    g2 = build_root_system("G", 2)
    assert g2.weight_of_root((0, 1)) == (-3, 2)
    with pytest.raises(ValueError):
        a2.weight_of_root((2, 0))


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_weight_table_holds_the_cartan_product_of_every_root(family, rank):
    rs = build_root_system(family, rank)
    for r in rs.positive_roots:
        for root in (r, tuple(-x for x in r)):
            pairings = tuple(
                sum(rs.cartan[i][j] * root[j] for j in range(rank)) for i in range(rank)
            )
            assert rs.weight_of_root(root) == pairings
            assert rs.weight_of_root(list(root)) == pairings


@pytest.mark.parametrize("family,rank", [("A", 1), ("B", 3), ("C", 4), ("D", 4), ("E", 6), ("G", 2)])
def test_simple_roots_and_reflection_indices(family, rank):
    rs = build_root_system(family, rank)
    assert set(rs.simple_roots) == {r for r in rs.positive_roots if rs.is_simple(r)}
    for i, beta in enumerate(rs.simple_roots, 1):
        assert beta[i - 1] == 1
        assert rs.reflect_root(beta, i) == tuple(-x for x in beta)
    for i in (0, -1, rank + 1):
        with pytest.raises(ValueError):
            rs.reflect_root(rs.highest_root, i)


def test_reflection_examples():
    a2 = build_root_system("A", 2)
    rho = a2.rho
    # s_1(rho) = rho - beta_1: pairings change by the Cartan column
    assert a2.reflect(rho, 1) == (-1, 2)
    with pytest.raises(ValueError):
        a2.reflect(rho, 3)
    # rho - theta is fixed by s_1 (zero pairing) and not regular
    lam = a2.rho_shift((1, 1), -1)
    assert a2.reflect(lam, 1) == lam
    assert not a2.is_regular(lam)
    assert a2.pairing(lam, (1, 1)) == 0


def test_rho_plus_highest_regular_dominant():
    for family, rank in ALL_TYPES:
        rs = build_root_system(family, rank)
        lam = rs.rho_shift(rs.highest_root, +1)
        assert rs.is_regular(lam) and rs.is_dominant(lam)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([("A", 3), ("B", 3), ("C", 3), ("G", 2), ("F", 4)]),
    st.data(),
)
def test_reflection_involution_and_fixed_points(stype, data):
    family, rank = stype
    rs = build_root_system(family, rank)
    lam = tuple(
        data.draw(st.integers(-4, 4), label=f"lam{k}") for k in range(rank)
    )
    i = data.draw(st.integers(1, rank), label="i")
    refl = rs.reflect(lam, i)
    assert rs.reflect(refl, i) == lam
    assert (refl == lam) == (lam[i - 1] == 0)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("A", 3), ("B", 3), ("C", 4), ("D", 4), ("F", 4)]), st.data())
def test_weight_of_root_commutes_with_reflection(stype, data):
    family, rank = stype
    rs = build_root_system(family, rank)
    r = data.draw(st.sampled_from(rs.positive_roots), label="root")
    i = data.draw(st.integers(1, rank), label="i")
    img = rs.reflect_root(r, i)
    assert rs.weight_of_root(img) == rs.reflect(rs.weight_of_root(r), i)


def _weight_grid(rs) -> list:
    """rho +- alpha for every positive alpha, each simple reflection of those, and a seeded grid.

    The grid holds the zero weight, weights with entries in -3..3 (mostly
    non-dominant), half-integral ones, and one weight on each positive
    root's wall: m_i lam' - <lam', r^vee> e_i pairs to zero with r and, for
    a generic lam', with no root whose coroot is not a multiple of r's.
    """
    weights = []
    for alpha in rs.positive_roots:
        for sign in (1, -1):
            lam = rho_shift_by_generator(rs, alpha, sign)
            weights.append(lam)
            weights.extend(reflect_by_cartan_entries(rs, lam, i) for i in range(1, rs.rank + 1))
    rng = random.Random(f"weights:{rs.stype}")
    weights.append((0,) * rs.rank)
    weights.extend(tuple(rng.randint(-3, 3) for _ in range(rs.rank)) for _ in range(40))
    weights.extend(
        tuple(Fraction(rng.randint(-6, 6), 2) for _ in range(rs.rank)) for _ in range(10)
    )
    for r in rs.positive_roots:
        coroot = rs._coroot_in_simple_coroots(r)
        i = next(k for k, m in enumerate(coroot) if m)
        generic = [rng.randint(-(10**6), 10**6) for _ in range(rs.rank)]
        on_wall = [coroot[i] * x for x in generic]
        on_wall[i] -= sum(x * m for x, m in zip(generic, coroot))
        weights.append(tuple(on_wall))
    return weights


def _table_mismatches(rs, weights) -> list:
    """The weights on which a table read of ``rs`` differs from its per-root oracle."""
    bad = []
    for lam in weights:
        if rs.zero_pairing_witness(lam) != pairing_zero_witness(rs, lam):
            bad.append(("witness", lam))
        if rs.is_regular(lam) != pairing_is_regular(rs, lam):
            bad.append(("regular", lam))
        for i in range(1, rs.rank + 1):
            if rs.reflect(lam, i) != reflect_by_cartan_entries(rs, lam, i):
                bad.append(("reflect", lam, i))
    return bad


@pytest.mark.parametrize("name", DEFAULT_TYPES)
def test_root_tables_match_the_per_root_formulas(name):
    stype = SimpleType.from_name(name)
    rs = build_root_system(stype.family, stype.rank)
    for alpha in rs.positive_roots:
        for sign in (1, -1):
            assert rs.rho_shift(alpha, sign) == rho_shift_by_generator(rs, alpha, sign)
    weights = _weight_grid(rs)
    assert _table_mismatches(rs, weights) == []
    # the walls are reached: every positive root is the first zero of some weight
    assert {rs.zero_pairing_witness(lam) for lam in weights} >= set(rs.positive_roots)
    # the closure's image of every root under every s_i, and the bytes weyl composes
    for i, table in enumerate(rs.reflection_tables, 1):
        assert [rs.roots[k] for k in table] == [rs.reflect_root(r, i) for r in rs.roots]
    tail = bytes(range(len(rs.roots), 256))
    assert weyl._reflections(rs) == tuple(
        (rs.index[alpha], bytes(table) + tail)
        for alpha, table in zip(rs.simple_roots, reflection_tables(rs))
    )


# A1 has one positive root, so no other root's coroot can take its row
@pytest.mark.parametrize("name", DEFAULT_TYPES[1:])
def test_a_planted_wrong_coroot_row_is_caught(name):
    stype = SimpleType.from_name(name)
    rs = build_root_system(stype.family, stype.rank)
    weights = _weight_grid(rs)
    rows, m = rs._coroots, rs.num_positive
    for k in sorted({0, random.Random(f"plant:{name}").randrange(m), m - 1}):
        planted = copy.copy(rs)  # row k holds the coroot of the next positive root
        planted._coroots = rows[:k] + (rows[(k + 1) % m],) + rows[k + 1 :]
        assert _table_mismatches(planted, weights), f"row {k} of {name} planted unseen"


@pytest.mark.parametrize("name", DEFAULT_TYPES)
def test_root_order_is_the_positive_roots_then_their_negatives(name):
    stype = SimpleType.from_name(name)
    rs = build_root_system(stype.family, stype.rank)
    m = len(rs.positive_roots)
    assert len(rs.roots) == 2 * m
    assert rs.roots[:m] == rs.positive_roots
    for k, r in enumerate(rs.positive_roots):
        assert rs.roots[m + k] == tuple(-x for x in r)
    assert rs.index == {r: k for k, r in enumerate(rs.roots)}
    assert [rs.roots[k] for k in rs.index.values()] == list(rs.index)


@pytest.mark.parametrize("name", DEFAULT_TYPES)
def test_root_predicates_agree_with_their_definitions(name):
    stype = SimpleType.from_name(name)
    rs = build_root_system(stype.family, stype.rank)
    # the roots by definition: the orbit of the simple roots under the reflections
    roots, frontier = set(rs.simple_roots), list(rs.simple_roots)
    while frontier:
        images = {rs.reflect_root(r, i) for r in frontier for i in range(1, rs.rank + 1)}
        frontier = list(images - roots)
        roots |= images
    assert roots == set(rs.roots)
    for r in rs.roots:
        assert rs.is_root(r) and rs.is_root(list(r))
        assert rs.is_positive_root(r) == all(x >= 0 for x in r)
        assert rs.weight_of_root(r) == tuple(
            sum(c * x for c, x in zip(row, r)) for row in rs.cartan
        )
    candidates = {tuple(2 * x for x in r) for r in rs.roots} | {(0,) * rs.rank}
    candidates |= {tuple(map(sum, zip(r, s))) for r in rs.roots for s in rs.simple_roots}
    non_roots = candidates - roots
    assert len(non_roots) > len(rs.roots)
    for r in non_roots:
        assert not rs.is_root(r) and not rs.is_positive_root(r)
        with pytest.raises(ValueError):
            rs.weight_of_root(r)
