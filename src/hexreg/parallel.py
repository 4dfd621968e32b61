"""Two independent halves of one computation, run on two processes.

fork_join(child, parent) runs child() in a forked copy of this process and
parent() here, and returns both results.  The halves share nothing while
they run, so a caller splits only work whose merge is exact, and gets the
bits it would get running the two halves in turn.  Where os.fork does not
exist, or another thread of this process is running (a fork would copy
the locks it holds, held, into the child), both halves run here in turn.
What the child half prints or warns, it writes itself; only its result
or its exception comes back.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading

__all__ = ["fork_join"]


def _child_main(child, r: int, w: int) -> None:
    """Send child()'s result, or the exception it raised, through the pipe
    end w, pickled, then end the process without exit handlers or flushes."""
    code = 1
    try:
        os.close(r)
        try:
            payload = (True, child())
        except BaseException as exc:  # every outcome goes back to the parent
            payload = (False, exc)
        try:
            data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # an unpicklable result or exception
            data = pickle.dumps((False, RuntimeError(
                f"fork_join child could not send its outcome: {exc!r}")))
        with open(w, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def _in_turn(child, parent):
    """fork_join's halves in this process: parent() first, then child()."""
    mine = parent()
    return child(), mine


def fork_join(child, parent):
    """(child(), parent()), with child() run in a forked process.

    The child pickles its result, or the exception it raised, into a pipe
    and ends with os._exit.  The parent reads the pipe to its end before
    it reaps the child, so a result larger than the pipe buffer cannot
    deadlock.  If parent() raises, the child is killed and reaped and the
    parent's exception propagates; otherwise the child's exception, if it
    raised one, is raised here.  A child that ends without sending an
    outcome raises RuntimeError naming its exit status.  No call returns
    or raises while its child is still running.  Without os.fork, with
    another thread running, or when the fork itself fails, parent() and
    then child() run in this process.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return _in_turn(child, parent)
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the same work, in turn
        os.close(r)
        os.close(w)
        return _in_turn(child, parent)
    if pid == 0:  # pragma: no cover - runs in the child, which never returns
        _child_main(child, r, w)
    os.close(w)
    try:
        with open(r, "rb") as fh:
            mine = parent()
            data = fh.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not data:
        raise RuntimeError(f"fork_join child ended with exit status {code} "
                           f"and sent no result")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value, mine
