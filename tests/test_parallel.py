"""fork_join: results, errors and the child processes it leaves (none)."""

import errno
import inspect
import os
import pickle
import threading
import time

import pytest

import hexreg
from hexreg import errors
from hexreg.parallel import fork_join


@pytest.fixture(autouse=True)
def no_child_left():
    """After each test, this process has no child, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_returns_both_results():
    child_pid, pid = fork_join(os.getpid, os.getpid)
    assert pid == os.getpid() and child_pid != pid
    assert fork_join(lambda: [1, 2.5], lambda: {"a": None}) == ([1, 2.5], {"a": None})


def test_result_above_the_pipe_buffer():
    """A 1 MiB result, 16 times the pipe buffer, arrives whole."""
    payload = bytes(range(256)) * 4096
    got, mine = fork_join(lambda: payload, lambda: len(payload))
    assert got == payload and mine == 2**20


def test_parent_error_wins_and_kills_the_child():
    """The child would sleep a minute; the parent's error comes back at
    once, and the fixture finds the child reaped."""
    t0 = time.monotonic()
    with pytest.raises(KeyError, match="parent"):
        fork_join(lambda: time.sleep(60.0), lambda: {}["parent"])
    assert time.monotonic() - t0 < 30.0


def test_child_error_is_raised_after_the_parent_returns():
    ran = []

    def child():
        raise hexreg.NonFiniteError(7, 1.4, "x_3", row=2, u_sat=0.05)

    with pytest.raises(hexreg.NonFiniteError) as info:
        fork_join(child, lambda: ran.append("parent"))
    assert ran == ["parent"]
    assert (info.value.step, info.value.t, info.value.column) == (7, 1.4, "x_3")
    assert (info.value.row, info.value.u_sat) == (2, 0.05)


def test_child_without_a_result_names_its_exit_status():
    with pytest.raises(RuntimeError, match="exit status 7"):
        fork_join(lambda: os._exit(7), lambda: None)


def test_unpicklable_child_outcome_is_reported():
    with pytest.raises(RuntimeError, match="could not send its outcome"):
        fork_join(lambda: lambda: None, lambda: None)


@pytest.mark.parametrize("fork", ["missing", "failing"])
def test_without_fork_both_halves_run_here_parent_first(monkeypatch, fork):
    """Where os.fork does not exist, or fails, both halves run in this
    process, parent first, and no pipe end is left open."""
    if fork == "missing":
        monkeypatch.delattr(os, "fork")
    else:
        def failing():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", failing)
    open_fds = len(os.listdir("/dev/fd"))
    order = []

    def half(name):
        order.append((name, os.getpid()))
        return name

    assert fork_join(lambda: half("child"), lambda: half("parent")) == ("child", "parent")
    assert order == [("parent", os.getpid()), ("child", os.getpid())]
    with pytest.raises(ZeroDivisionError):
        fork_join(lambda: 1 / 0, lambda: None)
    assert len(os.listdir("/dev/fd")) == open_fds


def test_with_another_thread_running_both_halves_run_here():
    """A fork would copy the locks another thread holds, held; so while
    one runs, fork_join runs both halves in this process."""
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert fork_join(os.getpid, os.getpid) == (os.getpid(), os.getpid())
    finally:
        stop.set()
        thread.join(timeout=10.0)
    assert not thread.is_alive()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# one instance of every HexRegError subclass, with every attribute set
ERRORS = [
    hexreg.SingularMatrixError("A + B u numerically singular at u = 0.5", cond=3.0e15),
    hexreg.NotHurwitzError("linearized loop unstable"),
    hexreg.ZeroDCGainError("DC gain vanished"),
    hexreg.NotObservableError("rank 3 < 4"),
    hexreg.InfeasibleError("observer LMI", best_residual=0.25),
    hexreg.ReferenceUnreachableError(280.0, 288.9, 307.0),
    hexreg.MissingObserverStateError("x_hat is required"),
    hexreg.SchedulesDifferError("scenario field ref_t differs"),
    hexreg.NonFiniteError(38, 760.0, "x_1", row=None, u_sat=0.05),
]


def test_every_error_class_is_covered():
    assert {type(e) for e in ERRORS} == set(_subclasses(errors.HexRegError))
    assert {type(e) for e in ERRORS} == {
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.HexRegError) and cls is not errors.HexRegError}


@pytest.mark.parametrize("exc", ERRORS, ids=lambda e: type(e).__name__)
def test_errors_survive_pickling_and_the_process_boundary(exc):
    """Type, message and attributes survive a pickle round trip, and the
    same error raised in the child reaches the parent."""
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc) and back.args == exc.args
    assert vars(back) == vars(exc)

    def child():
        raise exc

    with pytest.raises(type(exc)) as info:
        fork_join(child, lambda: None)
    assert str(info.value) == str(exc) and vars(info.value) == vars(exc)
