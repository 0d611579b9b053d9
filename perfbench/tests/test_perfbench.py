"""Fast tests of the benchmark's own logic, on synthetic inputs only.

No nullcone workload runs here: span self time, quartiles, shares, the
expected-verdict comparison, the determinism gate and the pace division
(with stand-in child scripts) and the metric list in BENCHMARK.json.
"""

import gc
import json
import statistics
import sys
import time
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
from layers import layer_metrics, per_layer_names  # noqa: E402
from pace import Sampler  # noqa: E402
from spans import Tracer, install  # noqa: E402
from stats import quartiles, share, spread  # noqa: E402
from verdicts import compare  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.enter("outer")       # t=0
    clock.now = 1.0
    tracer.enter("middle")      # t=1
    clock.now = 2.0
    tracer.enter("inner")       # t=2
    clock.now = 5.0
    tracer.exit()               # inner: 3 s
    clock.now = 6.0
    tracer.exit()               # middle: 5 s, self 2 s
    tracer.enter("inner")       # t=6, a second inner directly under outer
    clock.now = 7.0
    tracer.exit()               # inner: 1 s
    clock.now = 10.0
    tracer.exit()               # outer: 10 s, children 5 + 1
    spans = tracer.spans
    assert spans[("outer", None)].total == 10.0
    assert spans[("outer", None)].self_time == 4.0
    assert spans[("middle", "outer")].self_time == 2.0
    assert spans[("inner", "middle")].self_time == 3.0
    assert spans[("inner", "outer")].self_time == 1.0
    merged = tracer.by_name()
    assert merged["inner"].calls == 2
    assert merged["inner"].self_time == 4.0
    # self times partition the outer span
    assert sum(s.self_time for s in merged.values()) == 10.0


def test_install_replaces_reimported_names_and_methods():
    clock = FakeClock()
    tracer = Tracer(clock)

    def work(x):
        clock.now += 2.0
        return x * 2

    class Thing:
        def method(self, x):
            return work(x) + 1

    lib = types.ModuleType("lib")
    lib.work = work
    user = types.ModuleType("user")
    user.work = work  # as after ``from lib import work``
    notes = []
    install(tracer, [lib, user], lib, "work", "lib.work", lambda t, a, k, r: notes.append(r))
    install(tracer, [lib, user], Thing, "method", "lib.Thing.method")
    assert user.work is lib.work is not work
    assert user.work(3) == 6 and notes == [6]
    # the method still finds the original through its own closure, so no nesting
    assert Thing().method(1) == 3
    merged = tracer.by_name()
    assert merged["lib.work"].calls == 1 and merged["lib.work"].total == 2.0
    assert merged["lib.Thing.method"].calls == 1 and merged["lib.Thing.method"].total == 2.0


def test_note_time_is_covered_not_self_time():
    clock = FakeClock()
    tracer = Tracer(clock)

    def work():
        clock.now += 1.0
        clock.now += 0.5  # a pace sample lands in the call
        tracer.cover(0.5)

    def slow_note(t, a, k, r):
        clock.now += 5.0

    traced = tracer.wrap("work", work, slow_note)
    tracer.enter("caller")
    traced()
    clock.now += 2.0
    tracer.exit()
    assert tracer.spans[("work", "caller")].self_time == 1.0
    assert tracer.spans[("caller", None)].total == 8.5
    assert tracer.spans[("caller", None)].self_time == 2.0


def test_sampler_samples_at_start_and_every_tick():
    sampler = Sampler()
    sampler.start()
    end = time.monotonic() + 0.35  # ticks at 0.001, 0.101, 0.201 and 0.301 s
    while time.monotonic() < end:
        pass
    sampler.stop()
    assert 2 <= sampler.count <= 5 and sampler.pace() > 0
    assert gc.isenabled()


def test_span_closes_when_the_call_raises():
    tracer = Tracer(FakeClock())

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert tracer.stack == []
    assert tracer.spans[("boom", None)].calls == 1


def test_quartiles_match_statistics_and_spread_is_relative():
    values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 14.0]
    q1, q2, q3 = quartiles(values)
    assert (q1, q2, q3) == tuple(statistics.quantiles(values, n=4))
    assert q2 == statistics.median(values)
    assert spread(values) == pytest.approx((q3 - q1) / q2)
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert spread([4.0, 4.0, 4.0]) == 0.0


def test_share_reports_zero_on_an_empty_base():
    assert share(3, 4) == 0.75
    assert share(0, 0) == 0.0


EXPECTED = {
    "checks": 3,
    "exit_code": 1,
    "not_pass": {"s/X/count": "fail", "g/X/matrix": "skipped"},
}


def _report(statuses):
    header = {"schema": "nullcone-report/1", "tool_version": "0", "config": {}}
    lines = [json.dumps(header)]
    for check_id, status in statuses.items():
        lines.append(json.dumps({"check_id": check_id, "claim": "", "status": status, "witness": None}))
    return "\n".join(lines) + "\n"


GOOD = {"g/X/matrix": "skipped", "r/X/order": "pass", "s/X/count": "fail"}


def test_expected_verdicts_match():
    result = compare(EXPECTED, _report(GOOD), 1)
    assert (result.wrong, result.wrong_share, result.problems) == (0, 0.0, ())


def test_each_unexpected_status_counts_once():
    statuses = dict(GOOD, **{"r/X/order": "undecided", "s/X/count": "pass"})
    result = compare(EXPECTED, _report(statuses), 1)
    assert result.wrong == 2
    assert result.wrong_share == pytest.approx(2 / 3)


def test_missing_expected_failure_is_wrong_even_with_the_right_count():
    statuses = {"g/X/matrix": "skipped", "r/X/order": "pass", "r/X/other": "pass"}
    assert compare(EXPECTED, _report(statuses), 0).wrong == 3  # exit code 0 is wrong too
    assert compare(EXPECTED, _report(statuses), 1).wrong == 1


@pytest.mark.parametrize(
    "report, exit_code",
    [
        (None, None),                       # crashed: no report at all
        (_report({}), 0),                   # zero checks
        ("", 1),                            # empty file
        (_report(dict(GOOD, extra="pass")), 1),  # wrong check count
        (_report(GOOD), 0),                 # wrong exit code
        ('{"schema": "other"}\n', 1),       # not a nullcone report
    ],
)
def test_broken_runs_count_every_check_wrong(report, exit_code):
    result = compare(EXPECTED, report, exit_code)
    assert result.wrong == 3
    assert result.wrong_share == 1.0


def test_a_workload_must_expect_checks():
    with pytest.raises(ValueError):
        compare(dict(EXPECTED, checks=0), _report({}), 1)


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_names()
    workloads = sorted(p.stem for p in (PERFBENCH / "workloads").glob("*.json"))
    assert sorted(w["name"] for w in spec["workloads"]) == workloads


def test_traced_child_reports_every_layer_metric_the_parent_does_not():
    metrics = layer_metrics(Tracer(FakeClock()), ["pass", "fail", "pass"])
    names = [name for name, _unit in per_layer_names()]
    assert list(metrics) == [n for n in names if n not in ("trace.overhead_s", "wrong_verdict_share")]
    assert metrics["report.checks.pass"] == 2 and metrics["report.checks.fail"] == 1
    assert metrics["linalg.rank.int_share"] == 0.0  # base linalg.rank.calls is 0


NO_REPORT_CHILD = """\
import json, time
now = time.monotonic()
print(json.dumps({"setup_end": now, "verdict_end": now, "exit_code": 1, "setup_pace": 1.0, "pace": 1.0,
                  "peak_rss_mb": 1.0}))
"""

SLOW_HOST_CHILD = """\
import json, time
time.sleep(0.2)
setup_end = time.monotonic()
time.sleep(0.4)
print(json.dumps({"setup_end": setup_end, "verdict_end": time.monotonic(), "exit_code": 0,
                  "setup_pace": 4.0, "pace": 2.0, "peak_rss_mb": 1.0}))
"""


def test_child_times_are_divided_by_the_pace(tmp_path):
    script = tmp_path / "child.py"
    script.write_text(SLOW_HOST_CHILD)
    child = run.Child("full", "w", 1, deadline=time.monotonic() + 60, script=script)
    assert 0.05 <= child.setup_s < 0.1  # set-up takes the pace sampled during set-up
    assert 0.2 <= child.verdict_s < 0.3
    assert 0.3 <= child.wall_s < 0.5


def test_a_stale_report_does_not_pass_for_a_child_that_wrote_none(tmp_path):
    script = tmp_path / "child.py"
    script.write_text(NO_REPORT_CHILD)
    report = tmp_path / "w.jsonl"
    report.write_text(_report(GOOD))  # left by an earlier invocation
    child = run.Child("full", "w", 1, deadline=time.monotonic() + 60, report=report, script=script)
    assert child.data["exit_code"] == 1 and child.report_text is None
    gate = run.Gate("w:1:x", EXPECTED, tmp_path / "digests.json")
    gate.check(child)
    assert (gate.attempted, gate.failed) == (3, 3)


class _Stub:
    def __init__(self, text):
        self.mode, self.returncode, self.report_text = "full", 0, text
        self.data = {"exit_code": 1}


def test_determinism_gate_compares_only_runs_of_the_same_key(tmp_path):
    store = tmp_path / "digests.json"
    first = run.Gate("w:1:aaaa", EXPECTED, store)
    first.check(_Stub(_report(GOOD)))
    first.check(_Stub(_report(GOOD)))
    first.save()
    assert first.failed == 0 and len(json.loads(store.read_text())) == 1
    # same sources, different bytes: every check of the run is wrong
    reordered = _report(dict(reversed(list(GOOD.items()))))
    same = run.Gate("w:1:aaaa", EXPECTED, store)
    same.check(_Stub(reordered))
    assert same.failed == 3
    # other sources may change the bytes; the stored digest is not theirs
    other = run.Gate("w:1:bbbb", EXPECTED, store)
    other.check(_Stub(reordered))
    assert other.failed == 0
    # two different reports within one run break the gate too
    other.check(_Stub(_report(GOOD)))
    assert other.failed == 3


def test_source_digest_follows_names_and_contents(tmp_path):
    src = tmp_path / "src"
    (src / "__pycache__").mkdir(parents=True)
    (src / "a.py").write_text("x = 1\n")
    base = run.source_digest(src)
    (src / "__pycache__" / "a.pyc").write_bytes(b"junk")
    assert run.source_digest(src) == base
    (src / "a.py").write_text("x = 2\n")
    assert run.source_digest(src) != base
    (src / "a.py").write_text("x = 1\n")
    (src / "a.py").rename(src / "b.py")
    assert run.source_digest(src) != base
