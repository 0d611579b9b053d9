"""The rho +/- alpha classification, its tables and the known discrepancies.

The direct pairing predicates of the root system are the ground truth;
the stated per-family classification is the system under test.  Where the
two disagree (type C has a second regular plus-shift value, type D has
none besides the highest root) the tests pin the reported discrepancy and
its witness rather than hiding it.
"""

import copy
import re
from operator import mul
from pathlib import Path

import pytest
from oracles import coroot_by_form, reflection_fixes_shift, simple_index

from nullcone import shifts
from nullcone.report import DEFAULT_TYPES
from nullcone.roots import RootSystem, SimpleType, build_root_system
from nullcone.shifts import (
    BEYOND_ONE_REFLECTION,
    CLAIMED_PLUS_COUNTS,
    NOT_REGULAR,
    REGULAR_AFTER_REFLECTION,
    REGULAR_DOMINANT,
    classification_report,
    classify_rho_minus,
    classify_rho_plus,
    full_shift_report,
    load_shift_tables,
    neighbor_sum_identity,
    verdict_evidence_ok,
    verify_shift_tables,
)

SWEEP = (
    [("A", n) for n in (1, 2, 4, 8)]
    + [("B", n) for n in (2, 4, 8)]
    + [("C", n) for n in (3, 8)]
    + [("D", n) for n in (4, 8)]
    + [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]
)


@pytest.mark.parametrize("family,rank", SWEEP)
def test_minus_shift_classification(family, rank):
    rs = build_root_system(family, rank)
    for alpha in rs.positive_roots:
        v = classify_rho_minus(rs, alpha)
        assert verdict_evidence_ok(rs, v)
        if rs.is_simple(alpha):
            assert v.status == REGULAR_AFTER_REFLECTION
            assert v.witness == simple_index(rs, alpha)
        else:
            assert v.status == NOT_REGULAR
            assert rs.pairing(rs.rho_shift(alpha, -1), v.witness) == 0


@pytest.mark.parametrize("family,rank", SWEEP)
def test_plus_shift_verdicts_match_oracle(family, rank):
    rs = build_root_system(family, rank)
    for alpha in rs.positive_roots:
        v = classify_rho_plus(rs, alpha)
        assert verdict_evidence_ok(rs, v)
        lam = rs.rho_shift(alpha, +1)
        assert (v.status == NOT_REGULAR) == (not rs.is_regular(lam))
    theta = classify_rho_plus(rs, rs.highest_root)
    assert theta.status == REGULAR_DOMINANT


def test_rejects_non_roots():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        classify_rho_minus(rs, (2, 0))
    with pytest.raises(ValueError):
        classify_rho_plus(rs, (-1, 0))


def test_g2_plus_values():
    rs = build_root_system("G", 2)
    assert classify_rho_plus(rs, (2, 1)).status == REGULAR_DOMINANT
    v = classify_rho_plus(rs, (0, 1))
    assert v.status == REGULAR_AFTER_REFLECTION and v.witness == 1
    # s_1(rho + beta_2) = rho + alpha_1
    assert rs.reflect(rs.rho_shift((0, 1), +1), 1) == rs.rho_shift((2, 1), +1)
    assert classify_rho_minus(rs, (3, 2)).status == NOT_REGULAR


def test_c3_designated_value_and_extra_value():
    rs = build_root_system("C", 3)
    assert classify_rho_plus(rs, (1, 2, 1)).status == REGULAR_DOMINANT
    # the stated classification misses this second value; the oracle finds it
    extra = classify_rho_plus(rs, (0, 2, 1))
    assert extra.status == REGULAR_AFTER_REFLECTION and extra.witness == 1
    assert rs.reflect(rs.rho_shift((0, 2, 1), +1), 1) == rs.rho_shift((1, 2, 1), +1)


def test_b_family_designated_values():
    for rank in (2, 3, 5, 8):
        rs = build_root_system("B", rank)
        ones = (1,) * rank
        assert classify_rho_plus(rs, ones).status == REGULAR_DOMINANT
        v = classify_rho_plus(rs, ones[:-1] + (0,))
        assert v.status == REGULAR_AFTER_REFLECTION and v.witness == rank


def test_f4_regular_plus_set():
    rs = build_root_system("F", 4)
    regular = {
        a for a in rs.positive_roots if rs.is_regular(rs.rho_shift(a, +1))
    }
    assert regular == {(2, 3, 4, 2), (1, 2, 3, 2), (1, 2, 2, 2)}


@pytest.mark.parametrize(
    "family,rank,count",
    [("A", 4, 0), ("E", 7, 0), ("B", 5, 2), ("F", 4, 2), ("G", 2, 2)],
)
def test_plus_regular_counts_where_the_statement_is_right(family, rank, count):
    rs = build_root_system(family, rank)
    actual = sum(
        1
        for a in rs.positive_roots
        if a != rs.highest_root and rs.is_regular(rs.rho_shift(a, +1))
    )
    assert actual == CLAIMED_PLUS_COUNTS[family] == count


@pytest.mark.parametrize("family,rank,actual", [("C", 3, 2), ("C", 8, 2), ("D", 4, 0), ("D", 8, 0)])
def test_known_discrepancies_are_reported_with_witnesses(family, rank, actual):
    rs = build_root_system(family, rank)
    report = {c.check_id: c for c in classification_report(rs)}
    count = report[f"{family}{rank}/plus-regular-count"]
    assert not count.ok
    assert count.witness["actual"] == actual
    if family == "C":
        stated = report[f"{family}{rank}/stated-plus-classification"]
        assert not stated.ok
        extra_root = (0,) + (2,) * (rank - 2) + (1,)
        assert stated.witness == [(extra_root, NOT_REGULAR, REGULAR_AFTER_REFLECTION)]
    else:
        designated = report[f"{family}{rank}/plus-designated-values"]
        assert not designated.ok
        assert "highest root" in designated.witness[0][1]
    # the oracle agreement itself is intact even where the statement fails
    assert report[f"{family}{rank}/oracle-agreement"].ok


def test_neighbor_sum_identity_matches_reflection_fixed_points():
    for family, rank in [("A", 4), ("D", 5), ("E", 6)]:
        rs = build_root_system(family, rank)
        for alpha in rs.positive_roots:
            for i in range(1, rank + 1):
                for sign in (-1, +1):
                    assert neighbor_sum_identity(rs, alpha, i, sign) == \
                        reflection_fixes_shift(rs, alpha, i, sign)
    with pytest.raises(ValueError):
        neighbor_sum_identity(build_root_system("B", 3), (1, 0, 0), 1, -1)


def test_specific_table_rows():
    e6 = build_root_system("E", 6)
    t6 = load_shift_tables("E", 6)
    # row (2 | 11) of the minus table: coordinates [2,1,2,3,2,1] displayed
    alpha = t6.roots["minus"][11]
    assert alpha == (1, 2, 2, 3, 2, 1)
    assert neighbor_sum_identity(e6, alpha, 2, -1)

    e8 = build_root_system("E", 8)
    t8 = load_shift_tables("E", 8)
    assert t8.roots["minus"][47] == e8.highest_root
    assert neighbor_sum_identity(e8, e8.highest_root, 8, -1)

    e7 = build_root_system("E", 7)
    t7 = load_shift_tables("E", 7)
    # displayed [2,1,3,4,3,2,1]
    assert t7.roots["plus"][17] == (1, 2, 3, 4, 3, 2, 1)
    assert neighbor_sum_identity(e7, t7.roots["plus"][17], 1, +1)


def test_e8_errata_are_validated_both_ways():
    rs = build_root_system("E", 8)
    tables = load_shift_tables("E", 8)
    assert ("move", "plus", 9, 3, 1) in tables.errata
    assert ("swap", "plus", 8, 16, 46) in tables.errata
    # printed entries fail, corrected ones hold
    a9 = tables.roots["plus"][9]
    assert not neighbor_sum_identity(rs, a9, 3, +1)
    assert neighbor_sum_identity(rs, a9, 1, +1)
    assert not neighbor_sum_identity(rs, tables.roots["plus"][16], 8, +1)
    assert neighbor_sum_identity(rs, tables.roots["plus"][46], 8, +1)
    effective = tables.effective_assigns("plus")
    assert 9 in effective[1] and 9 not in effective[3]
    assert effective[8] == [46]


@pytest.mark.parametrize("family,rank", [("E", 6), ("E", 7), ("E", 8), ("F", 4)])
def test_tables_verify_completely(family, rank):
    rs = build_root_system(family, rank)
    outcomes = verify_shift_tables(rs)
    failed = [o for o in outcomes if not o.ok]
    assert not failed, [(o.check_id, o.witness) for o in failed]


@pytest.mark.parametrize("family,rank", SWEEP)
def test_full_report_fails_only_at_known_places(family, rank):
    rs = build_root_system(family, rank)
    failed = {o.check_id.split("/", 1)[1] for o in full_shift_report(rs) if not o.ok}
    if family == "C":
        assert failed == {"plus-regular-count", "stated-plus-classification"}
    elif family == "D":
        assert failed == {"plus-regular-count", "plus-designated-values"}
    else:
        assert failed == set()


# -- planted faults ------------------------------------------------------------
#
# Each case plants one fault and pins every outcome that fails because of it,
# with its witness.  The shipped tables and classifications all pass, so a
# check that could not fail would go unnoticed without these cases.


def _failures(rs) -> dict:
    return {o.check_id: o.witness for o in full_shift_report(rs) if not o.ok}


def _tables(edit):
    """A plant that serves the shipped tables of the type with ``edit`` applied."""

    def plant(monkeypatch, rs):
        tables = copy.deepcopy(load_shift_tables(rs.stype.family, rs.rank))
        edit(tables)
        monkeypatch.setattr(shifts, "load_shift_tables", lambda family, rank: tables)

    return plant


def _add_non_root(t):
    t.roots["minus"][99] = (2, 2, 2, 2, 2, 2)


def _drop_root_line(t):
    del t.roots["minus"][11]
    t.assigns["minus"][2].remove(11)


def _move_to_wrong_row(t):
    t.assigns["minus"][2].remove(11)
    t.assigns["minus"][3].append(11)


def _drop_row_label(t):
    t.assigns["plus"][1].remove(6)


def _wrong_reduction_target(t):
    t.reductions["minus"][1] = (4, 6, ("r", 4))


def _reduction_onto_regular(t):
    t.roots["plus"][22] = (1, 2, 2, 2)
    t.reductions["plus"].append((3, 22, ("c", (1, 2, 3, 2))))


def _non_root_row_label(t):
    # label 6 of the plus list sits in plus row 1
    t.roots["plus"][6] = (9, 9, 9, 9)


def _non_root_reduction_target(t):
    t.reductions["minus"][0] = (3, 1, ("c", (9, 9, 9, 9)))


def _missing_row_label(t):
    t.assigns["plus"][1].append(99)


def _missing_reduction_target(t):
    t.reductions["minus"][1] = (4, 6, ("r", 99))


def _missing_reduction_label(t):
    t.reductions["minus"][1] = (4, 99, ("r", 3))


def _erratum(*record):
    """An edit that appends the erratum ``record``."""
    return lambda t: t.errata.append(record)


def _drop_corrected_entry(t):
    # the shipped erratum moves plus label 9 out of row 3
    t.assigns["plus"][3].remove(9)


def _rename_row(shift, i):
    """An edit that renames row i of ``shift`` to row 99, outside 1..rank."""
    return lambda t: t.assigns[shift].update({99: t.assigns[shift].pop(i)})


def _reduction_index_out_of_range(t):
    t.reductions["minus"][1] = (99, 6, ("r", 3))


def _move_to_row_out_of_range(t):
    t.errata[t.errata.index(("move", "plus", 9, 3, 1))] = ("move", "plus", 9, 3, 99)


def _unjustified_move(t):
    # r(1) satisfies its plus identity at both 1 and 6, so moving it is unjustified
    t.errata.append(("move", "plus", 1, 6, 1))


def _swap_to_non_unique(t):
    # r(10) holds at minus row 4, but so do r(1) and r(2)
    row = t.assigns["minus"][4]
    row[row.index(10)] = 11
    t.errata.append(("swap", "minus", 4, 11, 10))


def _lax_condition_and_wrong_row(monkeypatch, rs):
    # a misprinted F4 condition that holds everywhere only the reflection catches
    monkeypatch.setitem(shifts._F4_MINUS_CONDITIONS, 1, lambda n: True)

    def edit(t):
        t.assigns["minus"][4].remove(11)
        t.assigns["minus"][1].append(11)

    _tables(edit)(monkeypatch, rs)


def _bad_g2_identity(monkeypatch, rs):
    inline = list(shifts._G2_INLINE)
    inline[0] = (-1, (2, 1), 2, None)
    monkeypatch.setattr(shifts, "_G2_INLINE", inline)


def _lost_fixed_point(weight):
    """A plant under which the fixed points of ``weight`` read as none."""

    def plant(monkeypatch, rs):
        real = shifts._fixed_points
        monkeypatch.setattr(shifts, "_fixed_points", lambda lam: [] if lam == weight else real(lam))

    return plant


def _verdict(change):
    """A plant under which every plus verdict is ``change(rs, verdict)``."""

    def plant(monkeypatch, rs):
        real = shifts._verdict

        def verdict(rs, alpha, shift, lam):
            v = real(rs, alpha, shift, lam)
            return change(rs, v) if shift == "plus" else v

        monkeypatch.setattr(shifts, "_verdict", verdict)

    return plant


def _wrong_evidence(rs, v):
    return v._replace(witness=(1, 0)) if v.alpha == (1, 0) else v


def _dominant_claimed(rs, v):
    return v._replace(status=REGULAR_DOMINANT, witness=None) if v.alpha == (0, 1) else v


def _inert_reflections(monkeypatch, rs):
    # every simple reflection fixes every weight, so no regular non-dominant
    # shift becomes dominant after one reflection
    monkeypatch.setattr(rs, "reflect", lambda lam, i: lam)


PLANTED_FAULTS = [
    pytest.param("E6", _tables(_add_non_root), {
        "E6/table-decode-minus": [99],
        "E6/table-roots-complete-minus": {"missing": [], "extra": [(2, 2, 2, 2, 2, 2)]},
        "E6/table-coverage-minus": [99],
    }, id="table-decode"),
    pytest.param("E6", _tables(_drop_root_line), {
        "E6/table-roots-complete-minus": {"missing": [(1, 2, 2, 3, 2, 1)], "extra": []},
    }, id="table-roots-complete"),
    pytest.param("E6", _tables(_move_to_wrong_row), {
        "E6/table-rows-minus": [(3, 11, "identity")],
    }, id="table-rows-identity"),
    pytest.param("F4", _lax_condition_and_wrong_row, {
        "F4/table-rows-minus": [(1, 11, "reflection")],
    }, id="table-rows-reflection"),
    pytest.param("E6", _tables(_drop_row_label), {
        "E6/table-coverage-plus": [6],
    }, id="table-coverage"),
    pytest.param("F4", _tables(_wrong_reduction_target), {
        "F4/table-reductions-minus": [(4, 6, (1, 2, 2, 0))],
    }, id="table-reductions-target"),
    pytest.param("F4", _tables(_reduction_onto_regular), {
        "F4/table-roots-complete-plus": {"missing": [], "extra": [(1, 2, 2, 2)]},
        "F4/table-reductions-plus": [(3, 22, (1, 2, 3, 2))],
    }, id="table-reductions-regular"),
    pytest.param("F4", _tables(_non_root_row_label), {
        "F4/table-decode-plus": [6],
        "F4/table-roots-complete-plus": {"missing": [(0, 1, 1, 0)], "extra": [(9, 9, 9, 9)]},
        "F4/table-rows-plus": [(1, 6, "not a root")],
    }, id="table-rows-non-root"),
    pytest.param("F4", _tables(_non_root_reduction_target), {
        "F4/table-reductions-minus": [(3, 1, (9, 9, 9, 9))],
    }, id="table-reductions-non-root"),
    pytest.param("F4", _tables(_missing_row_label), {
        "F4/table-rows-plus": [(1, 99, "not a root")],
        "F4/table-coverage-plus": [99],
    }, id="table-rows-missing-label"),
    pytest.param("F4", _tables(_missing_reduction_target), {
        "F4/table-reductions-minus": [(4, 6, None)],
    }, id="table-reductions-missing-target"),
    pytest.param("F4", _tables(_missing_reduction_label), {
        "F4/table-coverage-minus": [6, 99],
        "F4/table-reductions-minus": [(4, 99, (0, 1, 2, 1))],
    }, id="table-reductions-missing-label"),
    pytest.param("F4", _tables(_erratum("move", "plus", 99, 1, 2)), {
        "F4/table-errata": [("move", "plus", 99, 1, 2)],
    }, id="table-errata-move-missing-label"),
    pytest.param("F4", _tables(_erratum("swap", "plus", 1, 99, 2)), {
        "F4/table-errata": [("swap", "plus", 1, 99, 2)],
    }, id="table-errata-swap-missing-label"),
    pytest.param("E6", _tables(_erratum("move", "plus", 6, 77, 2)), {
        "E6/table-errata": [("move", "plus", 6, 77, 2)],
    }, id="table-errata-move-missing-row"),
    pytest.param("E6", _tables(_erratum("swap", "plus", 77, 6, 10)), {
        "E6/table-errata": [("swap", "plus", 77, 6, 10)],
    }, id="table-errata-swap-missing-row"),
    pytest.param("E8", _tables(_drop_corrected_entry), {
        "E8/table-coverage-plus": [9],
        "E8/table-errata": [("move", "plus", 9, 3, 1)],
    }, id="table-errata-corrected-entry-missing"),
    pytest.param("E6", _tables(_rename_row("minus", 2)), {
        "E6/table-rows-minus": [(99, 11, "no such row")],
    }, id="table-rows-e-row-out-of-range"),
    pytest.param("F4", _tables(_rename_row("minus", 4)), {
        "F4/table-rows-minus": [(99, 11, "no such row")],
    }, id="table-rows-f4-row-out-of-range"),
    pytest.param("F4", _tables(_reduction_index_out_of_range), {
        "F4/table-reductions-minus": [(99, 6, (0, 1, 2, 1))],
    }, id="table-reductions-index-out-of-range"),
    pytest.param("E8", _tables(_move_to_row_out_of_range), {
        "E8/table-rows-plus": [(99, 9, "no such row")],
        "E8/table-errata": [("move", "plus", 9, 3, 99)],
    }, id="table-errata-target-row-out-of-range"),
    pytest.param("E6", _tables(_unjustified_move), {
        "E6/table-errata": [("move", "plus", 1, 6, 1)],
    }, id="table-errata-move"),
    pytest.param("E6", _tables(_swap_to_non_unique), {
        "E6/table-errata": [("swap", "minus", 4, 11, 10)],
    }, id="table-errata-swap"),
    pytest.param("G2", _bad_g2_identity, {
        "G2/inline-equalities": [(-1, (2, 1), 2)],
    }, id="inline-equalities"),
    # rho - (0, 1, 1, 2, 1, 0) on E6, the lower system of E7
    pytest.param("E7", _lost_fixed_point((2, 1, 1, 0, 1, 2)), {
        "E7/subsystem-reduction": [((0, 1, 1, 2, 1, 0, 0), -1, [])],
    }, id="subsystem-reduction"),
    # rho + (1, 1, 0) on A3, fixed by s_3 alone
    pytest.param("A3", _lost_fixed_point((2, 2, 0)), {
        "A3/low-coordinate-roots": [("plus", (1, 1, 0))],
    }, id="low-coordinate-roots"),
    pytest.param("A2", _verdict(_wrong_evidence), {
        "A2/verdict-evidence": [("plus", (1, 0))],
    }, id="verdict-evidence"),
    pytest.param("G2", _verdict(_dominant_claimed), {
        "G2/verdict-evidence": [("plus", (0, 1))],
        "G2/stated-plus-classification": [((0, 1), REGULAR_AFTER_REFLECTION, REGULAR_DOMINANT)],
        "G2/plus-designated-values": [((0, 1), "stated regular_after_reflection, got "
                                               "regular_dominant")],
        "G2/plus-reflection-to-dominant": [((0, 1), REGULAR_DOMINANT)],
    }, id="plus-reflection-to-dominant"),
    pytest.param("B3", _inert_reflections, {
        "B3/stated-minus-classification": [
            ((0, 0, 1), REGULAR_AFTER_REFLECTION, BEYOND_ONE_REFLECTION),
            ((0, 1, 0), REGULAR_AFTER_REFLECTION, BEYOND_ONE_REFLECTION),
            ((1, 0, 0), REGULAR_AFTER_REFLECTION, BEYOND_ONE_REFLECTION),
        ],
        "B3/stated-plus-classification": [
            ((1, 1, 0), REGULAR_AFTER_REFLECTION, BEYOND_ONE_REFLECTION)
        ],
        "B3/plus-designated-values": [
            ((1, 1, 0), "stated regular_after_reflection, got beyond_one_reflection")
        ],
        "B3/plus-reflection-to-dominant": [((1, 1, 0), BEYOND_ONE_REFLECTION)],
    }, id="reflection-to-dominant-beyond-one"),
]


@pytest.mark.parametrize("tname,plant,expected", PLANTED_FAULTS)
def test_a_planted_fault_fails_exactly_its_outcomes(monkeypatch, tname, plant, expected):
    rs = build_root_system(tname[0], int(tname[1:]))
    assert _failures(rs) == {}
    plant(monkeypatch, rs)
    assert _failures(rs) == expected


def _table_text_edits(text: str):
    """Each one-token edit of a table file that sets a label or a row index to 99.

    Yields (kind, edited line, edited text): kind is 'label' for an entry of
    a row, a reduction's label or ``r`` target, and each number of an
    erratum; 'index' for the header of a non-empty row and a reduction's index.
    """
    lines = text.splitlines()
    for n, line in enumerate(lines):
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind in ("minus", "plus"):  # minus i | j ...
            spots = {k: "label" for k in range(3, len(tokens))}
            if spots:
                spots[1] = "index"
        elif kind.startswith("reduce-"):  # reduce-minus i j -> r k
            spots = {1: "index", 2: "label"} | ({5: "label"} if tokens[4] == "r" else {})
        elif kind in ("move", "swap"):  # move plus j : i -> i'
            spots = dict.fromkeys((2, 4, 6), "label")
        else:
            spots = {}
        for k, what in spots.items():
            edited = " ".join(tokens[:k] + ["99"] + tokens[k + 1 :])
            yield what, edited, "\n".join(lines[:n] + [edited] + lines[n + 1 :])


def _serve_text(monkeypatch, tmp_path, rs, edit) -> str:
    """Serve the type's shipped table file with ``edit`` applied to its text; the shipped text."""
    key = (rs.stype.family, rs.rank)
    shipped = Path(shifts.__file__).parent / "data" / shifts._TABLE_FILES[key]
    text = shipped.read_text(encoding="utf-8")
    source = tmp_path / shipped.name
    source.write_text(edit(text), encoding="utf-8")
    # the loader joins the data directory with this name, and os.path.join keeps an absolute one
    monkeypatch.setitem(shifts._TABLE_FILES, key, str(source))
    return text


# labels and indices: how many edits of each kind the shipped file admits
@pytest.mark.parametrize(
    "family,rank,labels,indices",
    [("F", 4, 40, 13), ("E", 6, 21, 11), ("E", 7, 35, 12), ("E", 8, 99, 15)],
)
def test_every_slip_in_the_table_text_fails_a_table_record(
    monkeypatch, tmp_path, family, rank, labels, indices
):
    rs = build_root_system(family, rank)
    text = _serve_text(monkeypatch, tmp_path, rs, lambda text: text)
    source = Path(shifts._TABLE_FILES[(family, rank)])
    assert all(o.ok for o in full_shift_report(rs))
    counts = {"label": 0, "index": 0}
    for what, line, edited in _table_text_edits(text):
        counts[what] += 1
        source.write_text(edited, encoding="utf-8")
        failed = [o.check_id for o in full_shift_report(rs) if not o.ok]
        assert any("/table-" in c for c in failed), line
    assert counts == {"label": labels, "index": indices}


# a line the loader cannot read fails the table-decode record of the shift it
# names, or of both, with its line number and text; at the parent each raised
# ValueError out of load_shift_tables
UNREAD_LINES = [
    pytest.param("F4", "plus 1 | 2 6 9", "plus 1 | 2 6x 9", {
        "F4/table-decode-plus": ["line 69: plus 1 | 2 6x 9 11 13 16 21"],
        "F4/table-coverage-plus": [2, 6, 9, 11, 13, 16, 21],
    }, id="non-numeric-token"),
    pytest.param("F4", "reduce-minus 4 6 -> r 3", "reduce-minus 4 6 -> r", {
        "F4/table-decode-minus": ["line 44: reduce-minus 4 6 -> r"],
        "F4/table-coverage-minus": [6],
    }, id="unrecognized-reduction"),
    pytest.param("F4", "root-minus 3 | 0 1 2 1", "rot 3 | 0 1 2 1", {
        "F4/table-decode-minus": ["line 25: rot 3 | 0 1 2 1"],
        "F4/table-decode-plus": ["line 25: rot 3 | 0 1 2 1"],
        "F4/table-roots-complete-minus": {"missing": [(0, 1, 2, 1)], "extra": []},
        "F4/table-rows-minus": [(3, 3, "not a root")],
        "F4/table-coverage-minus": [3],
        "F4/table-reductions-minus": [(4, 6, None)],
    }, id="unrecognized-record-names-no-shift"),
    pytest.param("E8", "move plus 9 : 3 -> 1", "move plus 9 : 3 -> one", {
        "E8/table-decode-plus": ["line 83: move plus 9 : 3 -> one"],
        "E8/table-rows-plus": [(3, 9, "identity")],
    }, id="unrecognized-erratum"),
]


@pytest.mark.parametrize("tname,old,new,expected", UNREAD_LINES)
def test_an_unreadable_table_line_fails_its_decode_record(
    monkeypatch, tmp_path, tname, old, new, expected
):
    rs = build_root_system(tname[0], int(tname[1:]))
    assert _failures(rs) == {}
    text = _serve_text(monkeypatch, tmp_path, rs, lambda text: text.replace(old, new, 1))
    assert text.count(old) == 1
    assert _failures(rs) == expected


def test_every_non_numeric_token_fails_a_decode_record(monkeypatch, tmp_path):
    # each number of the F4 file in turn gets an "x" appended
    rs = build_root_system("F", 4)
    lines = _serve_text(monkeypatch, tmp_path, rs, lambda text: text).splitlines()
    source = Path(shifts._TABLE_FILES[("F", 4)])
    count = 0
    for n, line in enumerate(lines):
        for m in re.finditer(r"\d+", line.split("#", 1)[0]):
            edited = line[: m.end()] + "x" + line[m.end() :]
            source.write_text("\n".join(lines[:n] + [edited] + lines[n + 1 :]), encoding="utf-8")
            count += 1
            slip = f"line {n + 1}: {edited.split('#', 1)[0].strip()}"
            failed = {o.check_id: o.witness for o in full_shift_report(rs) if not o.ok}
            decode = [w for k, w in failed.items() if "/table-decode-" in k]
            assert decode and all(slip in w for w in decode), edited
    assert count == 232


def test_a_shift_no_single_reflection_dominates_fails_records_instead_of_raising():
    # C3 with inert simple reflections: rho - beta_i and rho + (0, 2, 1) are
    # regular and not dominant, and no reflection makes them dominant
    rs = RootSystem(SimpleType("C", 3))
    rs.reflect = lambda lam, i: lam
    report = {o.check_id: o for o in classification_report(rs)}
    for alpha in rs.simple_roots:
        v = classify_rho_minus(rs, alpha)
        assert v.status == BEYOND_ONE_REFLECTION and verdict_evidence_ok(rs, v)
        assert not verdict_evidence_ok(rs, v._replace(status=REGULAR_AFTER_REFLECTION, witness=1))
    assert report["C3/verdict-evidence"].ok and report["C3/oracle-agreement"].ok
    assert report["C3/stated-minus-classification"].witness == [
        (alpha, REGULAR_AFTER_REFLECTION, BEYOND_ONE_REFLECTION)
        for alpha in rs.positive_roots if rs.is_simple(alpha)
    ]
    assert report["C3/plus-reflection-to-dominant"].witness == [
        ((0, 2, 1), BEYOND_ONE_REFLECTION)
    ]


def test_beyond_one_reflection_evidence_needs_every_reflection_to_fail():
    # on the real C3, rho - beta_1 becomes regular dominant after s_1
    rs = build_root_system("C", 3)
    v = classify_rho_minus(rs, (1, 0, 0))
    assert v.status == REGULAR_AFTER_REFLECTION
    assert not verdict_evidence_ok(rs, v._replace(status=BEYOND_ONE_REFLECTION, witness=None))
    # a regular dominant weight is no evidence either
    theta = classify_rho_plus(rs, rs.highest_root)
    assert not verdict_evidence_ok(rs, theta._replace(status=BEYOND_ONE_REFLECTION))


# A1 has one positive root, so no other root's coroot can take its row
@pytest.mark.parametrize("name", DEFAULT_TYPES[1:])
def test_a_planted_wrong_coroot_row_fails_the_oracle_agreement_record(name):
    stype = SimpleType.from_name(name)
    rs = build_root_system(stype.family, stype.rank)
    coroots = [tuple(map(int, coroot_by_form(rs, r))) for r in rs.positive_roots]
    # the positive roots that are the one zero pairing of some rho +- alpha:
    # with another root's coroot in that root's row the classifier calls the
    # weight regular, and the invariant form does not
    lone = set()
    for alpha in rs.positive_roots:
        for sign in (1, -1):
            lam = rs.rho_shift(alpha, sign)
            zeros = [k for k, c in enumerate(coroots) if sum(map(mul, lam, c)) == 0]
            if len(zeros) == 1:
                lone.update(zeros)
    assert lone
    rows, m = rs._coroots, rs.num_positive
    for k in sorted(lone):
        planted = copy.copy(rs)  # row k holds the coroot of the next positive root
        planted._coroots = rows[:k] + (rows[(k + 1) % m],) + rows[k + 1 :]
        outcomes = {o.check_id: o for o in classification_report(planted)}
        assert not outcomes[f"{name}/oracle-agreement"].ok, f"row {k} of {name} planted unseen"
