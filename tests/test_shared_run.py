"""A run shares its types out between this process and forked workers.

Every test here bounds its run with ``signal.alarm``, so a worker that never
writes its result, or a parent that never reaps one, fails the test instead
of hanging it, and checks afterwards that no child process is left.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from nullcone import cli, report
from nullcone.report import RunConfig, run, structured_lines

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_SMALL = ("A1", "A2", "B2", "C3")
SMALL_ALGEBRAS = ("A1", "A2", "A3", "A4", "B2", "B3", "C3")


@contextmanager
def _deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"the run took more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _subprocess_env():
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def _counting_forks(monkeypatch):
    """Count the children ``os.fork`` makes from this process."""
    forks, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks


def _refused_forks(monkeypatch):
    """Make ``os.fork`` fail as it does when no process can be made; returns the attempts."""
    attempts = []

    def refuse():
        attempts.append(None)
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", refuse)
    return attempts


class _HoldingError(Exception):
    """An exception that cannot be pickled: it holds a lock."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


class _KeywordError(Exception):
    """An exception that pickles but cannot be rebuilt: its argument is keyword-only."""

    def __init__(self, *, detail):
        super().__init__(f"failed on {detail}")


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _one_process_report(monkeypatch, config):
    with monkeypatch.context() as m:
        _cpus(m, 1)
        return structured_lines(config, run(config)[1])


def _plant_first(monkeypatch, body, suite="invariants"):
    """Put a direct entry running ``body`` ahead of the entries of ``suite``."""
    planted = report._Check("planted", "claim", body)
    monkeypatch.setitem(report._CHECKS, suite, (planted,) + report._CHECKS[suite])


@contextmanager
def _in_a_child(action):
    """A body that runs ``action`` in the first forked child to call it.

    In the parent it waits, once, until a child has started ``action``, so
    the parent cannot run every type itself before a child has drawn one.
    """
    parent, (ready_r, ready_w) = os.getpid(), os.pipe()
    waited = []

    def body(unit, rng):
        if os.getpid() != parent:
            os.write(ready_w, b"!")
            action()
        elif not waited:
            waited.append(os.read(ready_r, 1))

    try:
        yield body
    finally:
        os.close(ready_r)
        os.close(ready_w)


@pytest.mark.parametrize("types", [GOLDEN_SMALL, SMALL_ALGEBRAS], ids=["golden-small", "small"])
def test_any_process_count_gives_the_one_process_report(types, monkeypatch):
    # four processes on the two-CPU host is more workers than cores
    config = RunConfig(types=types)
    expected = _one_process_report(monkeypatch, config)
    for cpus in (1, 2, 4):
        _cpus(monkeypatch, cpus)
        forks = _counting_forks(monkeypatch)
        with _deadline(120):
            _code, results = run(config)
        assert len(forks) == min(cpus, len(types)) - 1
        assert structured_lines(config, results) == expected, cpus
        _assert_no_child_left()


@pytest.mark.parametrize("failing", ["A1", "B3", "C3"])
def test_a_check_raising_on_any_type_is_raised_by_the_run(failing, monkeypatch, tmp_path, capsys):
    def body(unit, rng):
        if unit.tname == failing:
            raise ValueError(f"planted failure on {unit.tname}")

    _plant_first(monkeypatch, body)
    _cpus(monkeypatch, 2)
    forks = _counting_forks(monkeypatch)
    with _deadline(60), pytest.raises(ValueError, match=f"planted failure on {failing}"):
        run(RunConfig(types=SMALL_ALGEBRAS))
    assert len(forks) == 1
    _assert_no_child_left()

    out = tmp_path / "report.jsonl"
    argv = ["all", "--format", "structured"] + [a for t in SMALL_ALGEBRAS for a in ("--type", t)]
    for extra in ([], ["--out", str(out)]):
        with _deadline(60), pytest.raises(ValueError, match="planted failure"):
            cli.main(argv + extra)
        _assert_no_child_left()
    assert out.read_text() == ""
    assert capsys.readouterr().out == ""


def test_an_exception_in_a_child_is_raised_in_the_parent(monkeypatch):
    def fail_in_the_child():
        raise ValueError("raised in a child")

    _cpus(monkeypatch, 2)
    with _in_a_child(fail_in_the_child) as body:
        _plant_first(monkeypatch, body)
        with _deadline(60), pytest.raises(ValueError, match="raised in a child") as raised:
            run(RunConfig(types=SMALL_ALGEBRAS))
    _assert_no_child_left()
    # the child's traceback, which pickling drops, comes back as the cause
    cause = raised.value.__cause__
    assert isinstance(cause, report._ChildTraceback)
    assert "in fail_in_the_child" in str(cause) and "ValueError: raised in a child" in str(cause)


@pytest.mark.parametrize(
    "error, cannot",
    [
        (lambda: _HoldingError("holds a lock"), "cannot pickle"),
        (lambda: _KeywordError(detail="B3"), "takes 1 positional argument"),
    ],
    ids=["unpicklable", "not-rebuilt"],
)
def test_an_exception_a_child_cannot_send_is_named_by_the_run(error, cannot, monkeypatch):
    def fail_in_the_child():
        raise error()

    _cpus(monkeypatch, 2)
    with _in_a_child(fail_in_the_child) as body:
        _plant_first(monkeypatch, body)
        with _deadline(60), pytest.raises(RuntimeError, match="could not send") as raised:
            run(RunConfig(types=SMALL_ALGEBRAS))
    _assert_no_child_left()
    name = type(error()).__name__
    assert name in str(raised.value)
    text = str(raised.value.__cause__)
    assert "in fail_in_the_child" in text and name in text and cannot in text


@pytest.mark.parametrize("status", [3, 0])
def test_a_child_that_dies_without_a_result_fails_the_run(status, monkeypatch):
    _cpus(monkeypatch, 2)
    with _in_a_child(lambda: os._exit(status)) as body:
        _plant_first(monkeypatch, body)
        with _deadline(60), pytest.raises(RuntimeError, match=f"exited with status {status} "):
            run(RunConfig(types=SMALL_ALGEBRAS))
    _assert_no_child_left()


def test_a_parent_that_raises_kills_and_reaps_its_children(monkeypatch):
    parent = os.getpid()

    def body(unit, rng):
        if os.getpid() == parent:
            raise ValueError("raised in the parent")
        time.sleep(60)  # a child still busy when the parent gives up

    _plant_first(monkeypatch, body)
    _cpus(monkeypatch, 4)
    forks = _counting_forks(monkeypatch)
    start = time.monotonic()
    with _deadline(30), pytest.raises(ValueError, match="raised in the parent"):
        run(RunConfig(types=SMALL_ALGEBRAS))
    assert len(forks) == 3 and time.monotonic() - start < 20
    _assert_no_child_left()


def test_a_second_thread_or_a_failed_fork_keeps_the_run_in_one_process(monkeypatch):
    config = RunConfig(types=GOLDEN_SMALL)
    expected = _one_process_report(monkeypatch, config)
    _cpus(monkeypatch, 2)
    attempts = _refused_forks(monkeypatch)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30,))
    waiter.start()
    try:
        assert structured_lines(config, run(config)[1]) == expected
    finally:
        release.set()
        waiter.join(30)
    assert not waiter.is_alive() and attempts == []

    # with one thread the run tries to fork, and finishes alone when it cannot
    assert structured_lines(config, run(config)[1]) == expected
    assert len(attempts) == 1
    _assert_no_child_left()


def test_one_type_never_forks(monkeypatch):
    _cpus(monkeypatch, 4)
    attempts = _refused_forks(monkeypatch)
    run(RunConfig(types=("A2",)))
    assert attempts == []


def test_more_types_than_queue_slots_give_the_one_process_report(monkeypatch):
    # 300 types fill the 256 one-byte slots, so some slots hold two types;
    # no type may be named twice, so most are invalid names (one skip each)
    types = ("A1", "A2", "B2") + tuple(f"Z{k}" for k in range(294)) + ("A3", "B3", "C3")
    config = RunConfig(suites=("roots",), types=types)
    expected = _one_process_report(monkeypatch, config)
    _cpus(monkeypatch, 2)
    forks = _counting_forks(monkeypatch)
    with _deadline(120):
        assert structured_lines(config, run(config)[1]) == expected
    assert len(forks) == 1
    _assert_no_child_left()


def test_a_shared_run_warns_of_nothing_under_dev_mode(monkeypatch):
    # -X dev -W error turns a pipe left open (ResourceWarning) and a fork
    # from a process with threads (DeprecationWarning) into a failure
    argv = ["all", "--type", "A1", "--type", "A2", "--type", "B2", "--format", "structured"]
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "nullcone.cli", *argv],
        capture_output=True, text=True, env=_subprocess_env(), timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    config = RunConfig(types=("A1", "A2", "B2"), output_format="structured")
    assert done.stdout == "\n".join(_one_process_report(monkeypatch, config)) + "\n"


def _queue_types(config):
    return [config.types[b] for b in report._slot_order(config)]


def test_the_queue_hands_out_the_largest_types_first():
    spec = json.loads((ROOT / "perfbench" / "workloads" / "exceptional-roots.json").read_text())
    config = RunConfig(types=tuple(cli.build_parser().parse_args(spec["argv"]).types))
    assert _queue_types(config) == ["E8", "E7", "E6", "F4", "D4", "G2"]


def test_an_invalid_type_goes_last_and_a_slot_weighs_the_sum_of_its_types():
    # G2 and A3 both have 6 positive roots, so they keep the configured order
    assert _queue_types(RunConfig(types=("X9", "A1", "G2", "A3"))) == ["G2", "A3", "A1", "X9"]
    # 258 types: slot 0 holds A1 twice (2 roots), slot 1 holds A1 and A3 (7)
    config = RunConfig(types=("A1",) * 256 + ("A1", "A3"))
    assert list(report._slot_order(config)) == [1, 0] + list(range(2, 256))


def test_a_child_imports_no_module_between_its_fork_and_its_first_type(monkeypatch):
    # drop pickle, so that importing it anywhere in the run adds a module
    monkeypatch.delitem(sys.modules, "pickle", raising=False)
    at_fork, fork, checked = [], os.fork, []

    def snapshot():
        at_fork.append(frozenset(sys.modules))
        return fork()

    def first_type():
        if not checked:
            checked.append(None)
            new = sorted(set(sys.modules) - at_fork[-1])
            if new or "pickle" not in sys.modules:
                raise AssertionError(f"new modules at the first type: {new}")

    monkeypatch.setattr(os, "fork", snapshot)
    _cpus(monkeypatch, 2)
    with _in_a_child(first_type) as body:
        _plant_first(monkeypatch, body, "roots")
        with _deadline(60):
            run(RunConfig(suites=("roots",), types=SMALL_ALGEBRAS))
    assert len(at_fork) == 1
    _assert_no_child_left()


def test_a_run_in_one_process_imports_no_pickle():
    script = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0}\n"
        "from nullcone import cli\n"
        "cli.main(['all', '--type', 'A1', '--type', 'G2', '--format', 'structured'])\n"
        "print('pickle' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_subprocess_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_reversing_the_type_order_gives_the_same_records(monkeypatch):
    types = ("D4", "G2", "F4", "E6", "E7", "E8")
    _cpus(monkeypatch, 2)
    with _deadline(120):
        forward, backward = (run(RunConfig(types=t))[1] for t in (types, types[::-1]))
    assert [c._replace(elapsed=0) for c in forward] == [c._replace(elapsed=0) for c in backward]
    _assert_no_child_left()
