"""Root system construction, pairings and predicates."""

import copy
import random
import signal
from fractions import Fraction
from math import prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    coroot_by_form,
    is_root,
    length2_by_form,
    pairing_is_regular,
    pairing_zero_witness,
    reflect_by_cartan_entries,
    reflect_root,
    reflection_tables,
    rho_shift_by_generator,
    simple_root_lengths,
    weight_reflect_failures,
)

from nullcone import report, roots, weyl
from nullcone.algebra import SUPPORTED_RANKS, build_algebra
from nullcone.report import DEFAULT_TYPES, RunConfig
from nullcone.roots import (
    POSITIVE_ROOT_COUNTS,
    WEYL_ORDERS,
    RootSystem,
    SimpleType,
    build_root_system,
)

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
            img = reflect_root(rs, r, i)
            assert is_root(rs, img)
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


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_root_length2_matches_double_sum(family, rank):
    rs = build_root_system(family, rank)
    # the lengths derived from the highest root are the per-family table's
    assert rs.lengths == simple_root_lengths(rs.stype)
    for root in rs.roots:
        got = rs.root_length2(root)
        assert got == length2_by_form(rs, root) and isinstance(got, Fraction)
    assert {rs.root_length2(r) for r in rs.positive_roots} == set(rs.lengths)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_coroot_coordinates_are_integers(family, rank):
    rs = build_root_system(family, rank)
    # the closure gives every root, negative ones included, its coroot 2r/(r, r)
    assert len(rs._coroots) == len(rs.roots)
    for r, coords in zip(rs.roots, rs._coroots):
        assert all(type(c) is int for c in coords), (r, coords)
        assert coords == coroot_by_form(rs, r), r
        assert rs.pairing(rs.rho, r) == sum(coords)  # pairing reads r's row by position

    # r^vee = 2r/(r, r) in simple-coroot coordinates, recomputed over Fraction
    fraction_coroots = [coroot_by_form(rs, r) for r in rs.positive_roots]

    def fraction_regular(lam):
        return all(sum(x * c for x, c in zip(lam, m)) != 0 for m in fraction_coroots)

    for alpha in rs.positive_roots:
        for sign in (1, -1):
            lam = rs.rho_shift(alpha, sign)
            assert rs.is_regular(lam) == fraction_regular(lam), (alpha, sign)


# Humphreys, Reflection Groups and Coxeter Groups, table 3.7
TABULATED_DEGREES = {
    ("D", 4): (2, 4, 4, 6),
    ("D", 5): (2, 4, 5, 6, 8),
    ("D", 6): (2, 4, 6, 6, 8, 10),
    ("D", 7): (2, 4, 6, 7, 8, 10, 12),
    ("D", 8): (2, 4, 6, 8, 8, 10, 12, 14),
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
    ("F", 4): (2, 6, 8, 12),
    ("G", 2): (2, 6),
}


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_degrees_from_root_heights(family, rank):
    rs = build_root_system(family, rank)
    assert prod(rs.degrees) == WEYL_ORDERS[family](rank)  # Chevalley
    assert sum(d - 1 for d in rs.degrees) == POSITIVE_ROOT_COUNTS[family](rank)
    if family == "A":
        assert rs.degrees == tuple(range(2, rank + 2))
    elif family in ("B", "C"):
        assert rs.degrees == tuple(range(2, 2 * rank + 1, 2))
    else:
        assert rs.degrees == TABULATED_DEGREES[family, rank]
    if rank in SUPPORTED_RANKS.get(family, ()):
        assert build_algebra(family, rank).degrees == rs.degrees


@pytest.mark.parametrize(
    "family,rank,planted",
    [
        ("A", 3, ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))),  # nodes 1 and 3 joined: a 3-cycle
        ("G", 2, ((2, -4), (-1, 2))),  # C[0][1] = -3 made -4
    ],
)
def test_cartan_data_of_infinite_type_fails_fast(monkeypatch, family, rank, planted):
    # both are symmetrizable and of affine type, so the closure never ends by itself
    monkeypatch.setattr(roots, "cartan_matrix", lambda stype: planted)

    def stop(signum, frame):
        raise TimeoutError("the root closure did not stop")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(5)
    try:
        with pytest.raises(AssertionError, match="not of finite type"):
            RootSystem(SimpleType(family, rank))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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
        assert reflect_root(rs, beta, i) == tuple(-x for x in beta)
    for i in (0, -1, rank + 1):
        with pytest.raises(ValueError):
            reflect_root(rs, rs.highest_root, i)


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
    img = reflect_root(rs, r, i)
    assert rs.weight_of_root(img) == rs.reflect(rs.weight_of_root(r), i)


def _weight_with_bound(maxima, target) -> tuple:
    """A dominant weight lam with sum_j lam_j maxima_j = target, on at most two coordinates."""
    low = min(maxima)
    j0 = maxima.index(low)
    for j1, high in enumerate(maxima):
        for s in range(low):
            q, rest = divmod(target - s * high, low)
            if not rest:
                lam = [0] * len(maxima)
                lam[j0] += q
                lam[j1] += s
                return tuple(lam)
    raise AssertionError(f"no dominant weight reaches {target} against {maxima}")


def _lane_weights(rs) -> list:
    """Weights at the edges of the lanes ``zero_pairing_witness`` packs the coroots into.

    A lane of w bytes holds pairings up to 2^(8w - 1) - 1 in absolute value,
    and the kernel's bound, sum_j |lam_j| times the largest coordinate j of a
    positive coroot, is reached by the highest coroot, which is largest in
    every coordinate.  So a dominant weight and its negative whose bound is
    2^7 - 1, 2^7, 2^15 - 1 or 2^15 have that as their largest |pairing|, on
    the last value a lane width holds or the first one the next width takes.
    Then one weight per simple index with one huge entry, and, from rank 2,
    one whose two-byte lanes put the bytes of a zero lane, 00 80, across
    lanes 0 and 1: lanes 0 and 1 are beta_n and beta_(n-1), and where the
    largest coordinates n and n - 1 of a coroot are 1 (types A and D),
    lam_n = -32639 reads 0x0081 and lam_(n-1) = 128 reads 0x8080.
    """
    coroots = [coroot_by_form(rs, r) for r in rs.positive_roots]
    maxima = tuple(int(max(c[j] for c in coroots)) for j in range(rs.rank))
    weights = []
    for target in (2**7 - 1, 2**7, 2**15 - 1, 2**15):
        lam = _weight_with_bound(maxima, target)
        assert max(abs(sum(map(mul, lam, c))) for c in coroots) == target
        weights += [lam, tuple(-x for x in lam)]
    rng = random.Random(f"lanes:{rs.stype}")
    for j in range(rs.rank):
        lam = [rng.randint(-3, 3) for _ in range(rs.rank)]
        lam[j] = (-1) ** j * 10**40
        weights.append(tuple(lam))
    if rs.rank >= 2:
        lam = [0] * rs.rank
        lam[-1] = -((2**15 - 1 - 128 * maxima[-2]) // maxima[-1])
        lam[-2] = 128
        weights.append(tuple(lam))
    return weights


def _weight_grid(rs) -> list:
    """rho +- alpha for every positive alpha, each simple reflection of those, and a seeded grid.

    The grid holds the zero weight, weights with entries in -3..3 (mostly
    non-dominant), half-integral ones, one weight on each positive root's
    wall: m_i lam' - <lam', r^vee> e_i pairs to zero with r and, for a
    generic lam', with no root whose coroot is not a multiple of r's, and
    the lane-edge weights of ``_lane_weights``.
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
        coroot = coroot_by_form(rs, r)
        i = next(k for k, m in enumerate(coroot) if m)
        generic = [rng.randint(-(10**6), 10**6) for _ in range(rs.rank)]
        on_wall = [coroot[i] * x for x in generic]
        on_wall[i] -= sum(x * m for x, m in zip(generic, coroot))
        weights.append(tuple(on_wall))
    return weights + _lane_weights(rs)


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
        assert [rs.roots[k] for k in table] == [reflect_root(rs, r, i) for r in rs.roots]
    tail = bytes(range(len(rs.roots), 256))
    assert weyl._reflections(rs) == tuple(
        (rs.index[alpha], bytes(table) + tail)
        for alpha, table in zip(rs.simple_roots, reflection_tables(rs))
    )


@pytest.mark.parametrize("name", ("A8", "B8", "C8", "D8"))
def test_the_coroot_lanes_match_the_per_root_scan_on_rank_eight(name):
    # ranks above the default types': longer lanes, and B8 and C8 have 128
    # positive roots
    stype = SimpleType.from_name(name)
    rs = build_root_system(stype.family, stype.rank)
    assert _table_mismatches(rs, _weight_grid(rs)) == []


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


def _roots_record(rs, name: str):
    """The record of the roots suite's entry ``name`` on ``rs``, planted or not."""
    unit = report._Unit(RunConfig(), rs.stype)
    unit.rs = rs
    check = next(c for c in report._CHECKS["roots"] if c.name == name)
    return report._run_check(check, unit, "roots")


@pytest.mark.parametrize("name", DEFAULT_TYPES)
def test_a_planted_wrong_reflection_table_entry_fails_a_roots_record(name):
    stype = SimpleType.from_name(name)
    rs = build_root_system(stype.family, stype.rank)
    entries = ("simple-reflection-permutation", "weight-reflect-commutes")
    assert [_roots_record(rs, entry).status for entry in entries] == ["pass", "pass"]
    rng, n, tables = random.Random(f"plant-table:{name}"), len(rs.roots), rs.reflection_tables
    for i in range(rs.rank):
        for k in sorted({0, rng.randrange(n), n - 1}):
            planted = copy.copy(rs)  # s_{i + 1}(root k) points at the next root
            wrong = tables[i][:k] + ((tables[i][k] + 1) % n,) + tables[i][k + 1 :]
            planted.reflection_tables = tables[:i] + (wrong,) + tables[i + 1 :]
            records = [_roots_record(planted, entry) for entry in entries]
            assert "fail" in [r.status for r in records], (
                f"entry {k} of table {i} of {name} planted unseen"
            )
            # the whole-column check names the entries the per-entry loop does
            assert records[1].witness == (weight_reflect_failures(planted) or None)
            assert records[1].witness in (None, [(rs.roots[k], i + 1)])
    if rs.rank >= 2:
        # two entries, root 0 under s_2 and the last root under s_1, are
        # listed by root order, then letter
        planted = copy.copy(rs)
        first = tables[0][:-1] + ((tables[0][-1] + 1) % n,)
        second = ((tables[1][0] + 1) % n,) + tables[1][1:]
        planted.reflection_tables = (first, second) + tables[2:]
        witness = _roots_record(planted, "weight-reflect-commutes").witness
        assert witness == weight_reflect_failures(planted) == [(rs.roots[0], 2), (rs.roots[-1], 1)]


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
        images = {reflect_root(rs, r, i) for r in frontier for i in range(1, rs.rank + 1)}
        frontier = list(images - roots)
        roots |= images
    assert roots == set(rs.roots)
    for r in rs.roots:
        assert is_root(rs, r) and is_root(rs, list(r))
        assert rs.is_positive_root(r) == all(x >= 0 for x in r)
        assert rs.weight_of_root(r) == tuple(
            sum(c * x for c, x in zip(row, r)) for row in rs.cartan
        )
    candidates = {tuple(2 * x for x in r) for r in rs.roots} | {(0,) * rs.rank}
    candidates |= {tuple(map(sum, zip(r, s))) for r in rs.roots for s in rs.simple_roots}
    non_roots = candidates - roots
    assert len(non_roots) > len(rs.roots)
    for r in non_roots:
        assert not is_root(rs, r) and not rs.is_positive_root(r)
        with pytest.raises(ValueError):
            rs.weight_of_root(r)
