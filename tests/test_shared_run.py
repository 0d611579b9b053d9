"""A run shares its types out between this process and forked workers.

Every test here bounds its run with ``signal.alarm``, so a worker that never
writes its result, or a parent that never reaps one, fails the test instead
of hanging it, and checks afterwards that no child process is left.
"""

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

SRC = Path(__file__).resolve().parent.parent / "src"
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


def _plant_first(monkeypatch, body):
    """Put a direct entry running ``body`` ahead of the invariants suite's entries."""
    planted = report._Check("planted", "claim", body)
    monkeypatch.setitem(report._CHECKS, "invariants", (planted,) + report._CHECKS["invariants"])


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
    # 300 types fill the 256 one-byte slots, so some slots hold two types
    config = RunConfig(suites=("roots",), types=("A1", "A2", "B2") * 100)
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
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "nullcone.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    config = RunConfig(types=("A1", "A2", "B2"), output_format="structured")
    assert done.stdout == "\n".join(_one_process_report(monkeypatch, config)) + "\n"
