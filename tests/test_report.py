"""Report determinism, CLI behaviour and exit codes."""

import json
import random
import re
import time
from pathlib import Path

import pytest

from nullcone import cli, report, weyl
from nullcone.cli import main
from nullcone.report import (
    DEFAULT_TYPES,
    RunConfig,
    run,
    structured_lines,
    text_lines,
)
from nullcone.roots import SimpleType, build_root_system

# an unknown family, a rank below the family's least, no rank, nothing, and
# ranks int() would read but that are not plain ASCII digits
INVALID_TYPES = ("X9", "C2", "A", "", "A1_0", "A+2", "A 2", "A\u0662")


def test_structured_reports_are_byte_identical():
    config = RunConfig(suites=("roots", "shifts"), types=("A2", "B2"))
    lines_a = structured_lines(config, run(config)[1])
    lines_b = structured_lines(config, run(config)[1])
    assert "\n".join(lines_a) == "\n".join(lines_b)


def test_structured_report_matches_golden_file(tmp_path):
    # tests/data/golden_small.jsonl was written by
    #   nullcone-verify all --type A1 --type A2 --type B2 --type C3 --format structured
    # so any change of a check id, claim, status or witness shows up here
    out = tmp_path / "report.jsonl"
    argv = ["all", "--format", "structured", "--out", str(out)]
    for tname in ("A1", "A2", "B2", "C3"):
        argv += ["--type", tname]
    assert main(argv) == 1  # the shifts suite flags the source's C3 plus-count
    golden = Path(__file__).parent / "data" / "golden_small.jsonl"
    assert out.read_text().splitlines() == golden.read_text().splitlines()


def test_default_structured_report_matches_golden_file(tmp_path):
    # tests/data/golden_default.jsonl was written by
    #   nullcone-verify all --format structured
    # and pins every type and suite of the default run byte for byte
    out = tmp_path / "report.jsonl"
    assert main(["all", "--format", "structured", "--out", str(out)]) == 1
    golden = Path(__file__).parent / "data" / "golden_default.jsonl"
    assert out.read_bytes() == golden.read_bytes()


def test_structured_schema_and_ordering():
    config = RunConfig(suites=("roots",), types=("A2",))
    code, results = run(config)
    assert code == 0
    lines = structured_lines(config, results)
    header = json.loads(lines[0])
    assert header["schema"] == "nullcone-report/1"
    assert header["config"]["types"] == ["A2"]
    records = [json.loads(line) for line in lines[1:]]
    ids = [r["check_id"] for r in records]
    assert ids == sorted(ids)
    for r in records:
        assert set(r) == {"check_id", "claim", "status", "witness"}
        assert r["status"] in ("pass", "fail", "undecided", "skipped")
        if r["status"] in ("fail", "undecided"):
            assert r["witness"] is not None


def test_exit_code_one_on_any_failure():
    code, results = run(RunConfig(suites=("shifts",), types=("C3",)))
    assert code == 1
    assert any(c.status == "fail" for c in results)


@pytest.mark.parametrize("tname", INVALID_TYPES)
def test_run_rejects_an_invalid_type_before_running_any(monkeypatch, tname):
    # the library refuses what the CLI refuses, naming the type
    units = []
    monkeypatch.setattr(report, "_type_results", lambda *args: units.append(args) or [])
    with pytest.raises(ValueError, match=re.escape(f"invalid simple type {tname!r}")):
        run(RunConfig(suites=("roots",), types=("A2", tname)))
    assert units == []


@pytest.mark.parametrize("suites", [("invariants",), ("geometry",)])
def test_a_lowercase_type_gives_the_records_of_its_canonical_name(suites):
    # the entry gates, streams and check ids all read the canonical name
    def records(tname):
        config = RunConfig(suites=suites, types=(tname,), samples=2)
        return [(c.check_id, c.status, c.witness) for c in run(config)[1]]

    assert records("a2") == records("A2")


def test_a_lowercase_type_gives_the_structured_report_of_its_canonical_name():
    # the header names each type as the records do, so a library run of a2
    # writes the lines the CLI writes for A2
    def lines(types):
        config = RunConfig(suites=("roots",), types=types)
        return structured_lines(config, run(config)[1])

    canonical = lines(("A2", "B2"))
    assert json.loads(canonical[0])["config"]["types"] == ["A2", "B2"]
    assert lines(("a2", "b2")) == canonical


def test_every_entry_gate_names_canonical_realized_types():
    # a misspelt gate would drop its records without a trace
    for checks in report._CHECKS.values():
        for check in checks:
            for tname in check.types or ():
                assert SimpleType.from_name(tname).name == tname, (check.name, tname)
                assert tname in report.ALGEBRA_TYPES, (check.name, tname)


def test_empty_types_runs_clean():
    code, results = run(RunConfig(suites=("roots",), types=()))
    assert code == 3 and results == []  # nothing was checked


def test_weyl_cap_skips_enumeration_checks():
    code, results = run(
        RunConfig(suites=("roots",), types=("B3",), max_weyl_order=10)
    )
    assert code == 0
    by_id = {c.check_id: c for c in results}
    assert by_id["roots/B3/weyl-order"].status == "skipped"
    assert "48" in str(by_id["roots/B3/weyl-order"].witness)


def test_more_roots_than_a_byte_indexes_skip_the_group_entries(capsys):
    # A16 has 272 roots; its order 17! is below this cap, so the root count refuses
    assert main(["roots", "--type", "A16", "--max-weyl-order", str(10**15)]) == 0
    out = capsys.readouterr().out
    assert "summary: 4 passed, 0 failed, 0 undecided, 2 skipped" in out
    _, results = run(RunConfig(suites=("roots",), types=("A16",), max_weyl_order=10**15))
    by_id = {c.check_id: c for c in results}
    for entry in ("weyl-order", "torus-borel-count"):
        record = by_id[f"roots/A16/{entry}"]
        assert record.status == "skipped" and "272 roots" in record.witness


def test_text_format_summary():
    config = RunConfig(suites=("roots",), types=("A1",))
    _, results = run(config)
    lines = text_lines(config, results)
    assert lines[-1].startswith("summary:")


def test_cli_roundtrip(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    code = main(
        ["roots", "--type", "A2", "--format", "structured", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert json.loads(lines[0])["schema"] == "nullcone-report/1"
    code = main(["shifts", "--type", "G2"])
    captured = capsys.readouterr()
    assert code == 0
    assert "summary:" in captured.out


def test_cli_exit_codes():
    assert main(["shifts", "--type", "C3"]) == 1


@pytest.mark.parametrize(
    "argv", [[], ["--type", "A1"], ["bogus-suite"], ["--seed", "3", "bogus-suite"]],
    ids=["nothing", "no-suite", "unknown", "unknown-after-an-option"],
)
def test_cli_rejects_a_missing_or_unknown_suite(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "suite" in capsys.readouterr().err


def test_cli_options_may_come_before_or_after_the_suite():
    parser = cli.build_parser()
    before = parser.parse_args(["--seed", "3", "roots", "--type", "A1"])
    assert before == parser.parse_args(["roots", "--type", "A1", "--seed", "3"])
    assert (before.suite, before.types, before.seed) == ("roots", ["A1"], 3)


def test_cli_defaults_are_the_run_config_defaults():
    args = cli.build_parser().parse_args(["all"])
    defaults = RunConfig()
    assert (args.seed, args.samples, args.max_weyl_order, args.format) == (
        defaults.seed, defaults.samples, defaults.max_weyl_order, defaults.output_format
    )


def test_a_run_that_checks_nothing_exits_3(capsys):
    assert main(["invariants", "--type", "E6", "--type", "D4"]) == 3
    assert capsys.readouterr().out.splitlines()[-1] == (
        "summary: 0 passed, 0 failed, 0 undecided, 2 skipped"
    )
    # one pass among skips is a checked run
    code, results = run(RunConfig(suites=("invariants",), types=("E6", "A1")))
    assert code == 0 and {c.status for c in results} == {"pass", "skipped"}


def test_default_types_cover_the_standard_list():
    assert "E8" in DEFAULT_TYPES and "G2" in DEFAULT_TYPES and "D4" in DEFAULT_TYPES


def test_text_report_lists_each_unit_in_the_order_it_was_checked(capsys):
    # the full_shift_report pass is timed on its first record, which now prints first
    assert main(["shifts", "--type", "E7", "--type", "A2"]) == 0
    ids = [line.split()[2] for line in capsys.readouterr().out.splitlines()[1:-1]]
    units = [i.rpartition("/")[0] for i in ids]
    assert units == sorted(units) and ids[units.index("shifts/E7")] == "shifts/E7/oracle-agreement"
    _, results = run(RunConfig(suites=("roots",), types=("A2",)))
    assert [c.check_id for c in results] == [f"roots/A2/{c.name}" for c in report._CHECKS["roots"]]


def test_common_positive_roots_read_off_the_perm_match_apply_root():
    rng = random.Random("common-positive-roots")
    for tname in DEFAULT_TYPES:
        stype = SimpleType.from_name(tname)
        rs = build_root_system(stype.family, stype.rank)
        if weyl.weyl_order(rs) > RunConfig().max_weyl_order:
            continue  # not enumerated by a default run
        group = weyl.generate_weyl(rs)
        for w in rng.sample(group, min(len(group), 40)):
            image = {w.apply_root(rs, r) for r in rs.positive_roots}
            expected = [r for r in rs.positive_roots if r in image]
            assert report._common_positive_roots(rs, w) == expected, (tname, w.word)


@pytest.mark.parametrize("tname", ["G2", "D4"])
def test_line_chains_hand_each_sampled_element_its_maximal_common_support(monkeypatch, tname):
    # all 12 elements of W(G2), and 60 sampled of the 192 of W(D4)
    calls = []
    chain = report.chain_of_lines

    def recording_chain(rs, support, w):
        calls.append((rs, list(support), w))
        return chain(rs, support, w)

    monkeypatch.setattr(report, "chain_of_lines", recording_chain)
    _, results = run(RunConfig(suites=("geometry",), types=(tname,)))
    assert {c.check_id: c.status for c in results}[f"geometry/{tname}/line-chains"] == "pass"
    rs = calls[0][0]
    assert len(calls) == min(60, weyl.weyl_order(rs))
    for _, support, w in calls:
        image = {w.apply_root(rs, r) for r in rs.positive_roots}
        assert support == [r for r in rs.positive_roots if r in image], w.word


def test_an_element_whose_word_does_not_spell_its_perm_fails_line_chains():
    # s_1 of G2 labelled (2,): its support R+ ∩ s_1(R+) holds beta_2, which
    # the one step of that word, by s_2, sends out of R+
    unit = report._Unit(RunConfig(types=("G2",)), SimpleType.from_name("G2"))
    group = list(unit.group)
    j = next(j for j, w in enumerate(group) if w.word == (1,))
    group[j] = weyl.WeylElement((2,), group[j].perm)
    unit.group = group
    check = next(c for c in report._CHECKS["geometry"] if c.name == "line-chains")
    result = report._run_check(check, unit, "geometry")
    assert (result.check_id, result.status) == ("geometry/G2/line-chains", "fail")
    assert [word for word, _ in result.witness] == [(2,)]
    assert result.witness[0][1].startswith("chain step 1: ")


def test_text_timings_are_measured_per_check(monkeypatch):
    # a slow torus-Borel count must show up on its own check only, not be
    # spread evenly over the seven roots/A2 checks
    count = report.borels_containing_torus

    def slow_count(*args):
        time.sleep(0.05)
        return count(*args)

    monkeypatch.setattr(report, "borels_containing_torus", slow_count)
    start = time.perf_counter()
    _, results = run(RunConfig(suites=("roots",), types=("A2",)))
    wall = time.perf_counter() - start
    elapsed = {c.check_id: c.elapsed for c in results}
    assert sum(elapsed.values()) <= wall
    assert len(elapsed) == 7
    assert elapsed.pop("roots/A2/torus-borel-count") >= 0.05
    assert all(t < 0.05 for t in elapsed.values()), elapsed


def test_the_shifts_pass_is_timed_on_its_first_record(monkeypatch):
    # a type's shifts records all come from one full_shift_report pass, so a
    # slow pass must show up on the first of them and on no other
    shift_report = report.full_shift_report

    def slow_report(rs):
        time.sleep(0.05)
        return shift_report(rs)

    monkeypatch.setattr(report, "full_shift_report", slow_report)
    start = time.perf_counter()
    _, results = run(RunConfig(suites=("shifts",), types=("E7",)))
    wall = time.perf_counter() - start
    elapsed = {c.check_id: c.elapsed for c in results}
    assert sum(elapsed.values()) <= wall
    assert elapsed.pop("shifts/E7/oracle-agreement") >= 0.05
    assert all(t < 0.05 for t in elapsed.values()), elapsed


def test_weyl_cap_inside_a_unit_skips_only_the_entries_that_need_the_group():
    # W(A2) has order 6: above a cap of 2 the entries that enumerate it are
    # skipped with the refusal as witness, and every other record is kept
    full = {c.check_id: c.status for c in run(RunConfig(types=("A2",)))[1]}
    code, results = run(
        RunConfig(suites=("invariants", "geometry"), types=("A2",), max_weyl_order=2)
    )
    assert code == 0
    skipped = {c.check_id: c.witness for c in results if c.status == "skipped"}
    assert skipped == {
        "invariants/A2/sigma-weyl-invariance": "Weyl group of A2 has order 6, above the cap 2",
        "geometry/A2/regular-semisimple-fiber-count": "group order 6 above the cap",
        "geometry/A2/sigma-fiber-weyl-orbit": "Weyl group of A2 has order 6, above the cap 2",
    }
    kept = {c.check_id: c.status for c in results if c.status != "skipped"}
    assert kept == {k: full[k] for k in kept}
    assert set(kept) | set(skipped) == {
        k for k in full if k.startswith(("invariants/", "geometry/"))
    } - {"geometry/A2/line-chains"}  # silent above the cap


@pytest.mark.parametrize("value", ["0", "-3"])
def test_cli_rejects_samples_below_one(value, capsys):
    # zero samples would let every sampled check pass on nothing
    with pytest.raises(SystemExit) as exc:
        main(["invariants", "--type", "A1", "--samples", value])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_cli_rejects_max_weyl_order_below_one(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["roots", "--type", "A1", "--max-weyl-order", value])
    assert exc.value.code == 2
    assert "--max-weyl-order" in capsys.readouterr().err


@pytest.mark.parametrize("value", INVALID_TYPES)
def test_cli_rejects_invalid_type(value, capsys):
    # an unknown type would otherwise run nothing and exit 0
    with pytest.raises(SystemExit) as exc:
        main(["roots", "--type", value])
    assert exc.value.code == 2
    assert "--type" in capsys.readouterr().err


def test_cli_reports_types_by_canonical_name_once(tmp_path):
    outs = {}
    for name in ("a2", "A2"):
        outs[name] = tmp_path / f"{name}.jsonl"
        argv = ["invariants", "--type", name, "--samples", "2", "--format", "structured"]
        assert main(argv + ["--out", str(outs[name])]) == 0
    assert outs["a2"].read_bytes() == outs["A2"].read_bytes()
    repeated = tmp_path / "repeated.jsonl"
    argv = ["roots", "--type", "A2", "--type", "a2", "--type", "G2", "--format", "structured"]
    assert main(argv + ["--out", str(repeated)]) == 0
    header, *records = [json.loads(line) for line in repeated.read_text().splitlines()]
    assert header["config"]["types"] == ["A2", "G2"]
    ids = [r["check_id"] for r in records]
    assert len(ids) == len(set(ids))
    assert {i.split("/")[1] for i in ids} == {"A2", "G2"}


def test_cli_rejects_unwritable_out_before_running(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "run", lambda config: calls.append(config))
    with pytest.raises(SystemExit) as exc:
        main(["roots", "--type", "A1", "--out", str(tmp_path / "missing" / "report.txt")])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("field", ["samples", "max_weyl_order"])
@pytest.mark.parametrize("value", [0, -2])
def test_run_rejects_counts_below_one(field, value):
    # the library refuses what the CLI refuses: zero samples would let every
    # sampled check pass on no draw at all
    with pytest.raises(ValueError, match=field):
        run(RunConfig(suites=("invariants",), types=("A1",), **{field: value}))


def test_run_rejects_an_unknown_suite_before_running_any(monkeypatch):
    units = []
    monkeypatch.setattr(report, "_type_results", lambda *args: units.append(args) or [])
    with pytest.raises(ValueError, match="bogus"):
        run(RunConfig(suites=("roots", "bogus"), types=("A1",)))
    assert units == []


def test_run_rejects_a_repeated_type_before_running_any(monkeypatch):
    units = []
    monkeypatch.setattr(report, "_type_results", lambda *args: units.append(args) or [])
    for types in (("A2", "A2", "a2"), ("A2", "G2", "a2")):
        with pytest.raises(ValueError, match="repeats"):
            run(RunConfig(suites=("roots",), types=types))
    assert units == []


def test_unrealized_ranks_of_a_realized_family_are_named_in_the_skip():
    config = RunConfig(suites=("invariants", "geometry"), types=("A9", "B5", "C5", "D5"),
                       max_weyl_order=1)
    skips = {c.check_id: c.witness for c in run(config)[1]
             if c.check_id.endswith(("matrix-checks", "matrix-realization"))}
    assert skips == {
        "invariants/A9/matrix-realization": "type A is realized at A1-A8 only",
        "geometry/A9/matrix-checks": "type A is realized at A1-A8 only",
        "invariants/B5/matrix-realization": "type B is realized at B2-B4 only",
        "geometry/B5/matrix-checks": "type B is realized at B2-B4 only",
        "invariants/C5/matrix-realization": "type C is realized at C3-C4 only",
        "geometry/C5/matrix-checks": "type C is realized at C3-C4 only",
        "invariants/D5/matrix-realization":
            "no realization shipped (type D uses a Pfaffian; E/F/G none)",
        "geometry/D5/matrix-checks": "no matrix realization for this type",
    }


def test_text_report_prints_the_draw_count_of_sampled_checks(capsys):
    assert main(["invariants", "--type", "A1"]) == 0
    lines = {line.split()[2]: line for line in capsys.readouterr().out.splitlines()[1:-1]}
    assert lines["invariants/A1/polarization-identity"].endswith("s, 25 draws)")
    assert lines["invariants/A1/gradient-pairing"].endswith("s, 1 draw)")
    assert lines["invariants/A1/sigma-borel-reduction"].endswith("s, 5 draws)")
    assert "draw" not in lines["invariants/A1/degree-sum"]


def _plant(monkeypatch, *checks):
    """Make the roots suite run only ``checks``; returns the exit code and records on A1."""
    monkeypatch.setitem(report._CHECKS, "roots", checks)
    return run(RunConfig(suites=("roots",), types=("A1",)))


def test_runner_stops_at_the_first_failing_draw(monkeypatch):
    drawn = []

    def draw(unit, rng):
        drawn.append(rng.random())
        return True if len(drawn) < 3 else {"draw": len(drawn)}

    code, [record] = _plant(monkeypatch, report._Check("planted", "claim", draw, None, "s", 10))
    assert code == 1
    assert (record.check_id, record.status) == ("roots/A1/planted", "fail")
    assert (record.witness, record.draws) == ({"draw": 3}, 3)
    # no draw after the failing one, all from the stream seeded by the label
    stream = random.Random("1789:roots/A1/s")
    assert drawn == [stream.random() for _ in range(3)]


def test_runner_does_not_count_draws_whose_precondition_fails(monkeypatch):
    drawn = []

    def draw(unit, rng):
        drawn.append(None)
        return None if len(drawn) % 2 else True

    planted = report._Check(
        "planted", "claim", draw, draws=7, summary=lambda unit, n: (True, {"held": n})
    )
    code, [record] = _plant(monkeypatch, planted)
    assert code == 0 and len(drawn) == 7
    assert (record.status, record.witness, record.draws) == ("pass", {"held": 3}, 3)


def test_a_sampled_check_with_no_counted_draw_is_undecided(monkeypatch):
    drawn = []

    def draw(unit, rng):
        drawn.append(None)

    planted = report._Check(
        "planted", "claim", draw, draws=4, summary=lambda unit, n: (True, {"held": n})
    )
    code, [record] = _plant(monkeypatch, planted)
    assert len(drawn) == 4
    assert (record.status, record.witness, record.draws) == ("undecided", "no counted draws", 0)
    assert code == 3  # its one record neither passed nor failed


def test_entries_naming_one_stream_share_it(monkeypatch):
    def first(unit, rng):
        return True, rng.random()

    code, records = _plant(
        monkeypatch,
        report._Check("a", "claim", first, None, "shared"),
        report._Check("b", "claim", first, None, "shared"),
        report._Check("c", "claim", first, None, "other"),
        report._Check("d", "claim", lambda unit, rng: None),  # no record at all
    )
    shared = random.Random("1789:roots/A1/shared")
    expected = [shared.random(), shared.random(), random.Random("1789:roots/A1/other").random()]
    assert [r.witness for r in records] == expected
    assert [r.draws for r in records] == [None] * 3


def test_entry_names_are_unique_within_a_suite():
    for suite, checks in report._CHECKS.items():
        names = [c.name for c in checks]
        assert len(names) == len(set(names)), suite


def test_every_sampled_entry_draws_at_samples_one():
    # the types cover every entry's type list; counts in witnesses are the runner's
    types = ("A1", "A2", "A3", "B2", "C3", "G2")
    _, results = run(RunConfig(suites=("invariants", "geometry"), types=types, samples=1))
    by_name = {}
    for c in results:
        by_name.setdefault(c.check_id.split("/")[2], []).append(c)
    for suite in ("invariants", "geometry"):
        for check in report._CHECKS[suite]:
            records = by_name[check.name]
            if check.draws is None:
                assert all(c.draws is None for c in records), check.name
                continue
            assert all(c.status == "pass" and c.draws >= 1 for c in records), check.name
            for c in records:
                if isinstance(c.witness, dict):
                    counts = {"pairs_checked", "pairs_witnessed", "members", "samples"}
                    assert [c.witness[k] for k in counts & set(c.witness)] == [c.draws]


def test_roots_suite_builds_no_algebra(monkeypatch):
    def refuse(*args):
        raise AssertionError("the roots suite built an algebra")

    monkeypatch.setattr(report, "build_algebra", refuse)
    code, results = run(RunConfig(suites=("roots",), types=("A2", "B3")))
    assert code == 0 and len(results) == 14


def test_bulk_weyl_records_build_no_element(monkeypatch):
    made = []

    class Counting(weyl.WeylElement):
        __slots__ = ()

        def __init__(self, word, perm):
            made.append(word)
            super().__init__(word, perm)

    monkeypatch.setattr(weyl, "WeylElement", Counting)
    for tname, check in (("E6", "torus-borel-count"), ("F4", "length-inversions")):
        records = report._type_results(RunConfig(suites=("roots",)), SimpleType.from_name(tname))
        assert [r.status for r in records if r.check_id == f"roots/{tname}/{check}"] == ["pass"]
    assert made == []


def _counting_enumerations(monkeypatch) -> list:
    """The types whose group ``weyl._enumerate_weyl`` enumerates, in one process."""
    enumerated, honest = [], weyl._enumerate_weyl

    def counted(rs):
        enumerated.append(rs.stype.name)
        return honest(rs)

    monkeypatch.setattr(weyl, "_enumerate_weyl", counted)
    monkeypatch.setattr(report, "_process_count", lambda config: 1)
    return enumerated


def test_the_suites_of_a_type_share_one_enumerated_group(monkeypatch):
    # roots, invariants and geometry all read the group; E7 is above the cap
    enumerated = _counting_enumerations(monkeypatch)
    code, results = run(RunConfig(types=("B3", "E6", "E7")))
    assert code == 0 and {c.check_id.partition("/")[0] for c in results} == set(report.SUITES)
    assert sorted(enumerated) == ["B3", "E6"]


def test_each_run_enumerates_its_own_groups(monkeypatch):
    enumerated = _counting_enumerations(monkeypatch)
    config = RunConfig(suites=("roots", "geometry"), types=("A2",))
    first, second = (structured_lines(config, run(config)[1]) for _ in range(2))
    assert first == second and enumerated == ["A2", "A2"]
