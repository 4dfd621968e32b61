"""Two halves of one computation, run on two processes.

fork_join(child, parent) runs child() in a forked copy of this process and
parent() here, and returns both results.  The halves share nothing while
they run, so a caller splits only work whose merge is exact, and gets the
bits it would get running the two halves in turn.

fork_stream(child, parent) is the same with a notification pipe between
the halves: parent(send) reports its progress as ints by send(k), and
child(received) iterates them as they arrive, so the child can work on
what the parent has finished (in memory both map, made before the call)
while the parent goes on.

Where os.fork does not exist, or another thread of this process is
running (a fork would copy the locks it holds, held, into the child), both
halves run here in turn, parent first.  What the child half prints or
warns, it writes itself; only its result or its exception comes back.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading

__all__ = ["fork_join", "fork_stream"]

_NOTE_BYTES = 8  # one int sent through the notification pipe


def _received(fh):
    """The ints sent through the pipe read by fh, in order, until the
    parent closes its end."""
    while note := fh.read(_NOTE_BYTES):
        yield int.from_bytes(note, "little")


def _child_main(child, nr: int, w: int, unused: tuple[int, ...]) -> None:
    """Run child(received) on the notes read from the pipe end nr, then send
    its result, or the exception it raised, through the pipe end w,
    pickled, and end the process without exit handlers or flushes."""
    code = 1
    try:
        for fd in unused:
            os.close(fd)
        # nr closes before the outcome is sent: a parent still sending then
        # finds the pipe broken, and cannot fill it while this process waits
        # for the parent to read the outcome
        with open(nr, "rb") as fh:
            try:
                payload = (True, child(_received(fh)))
            except BaseException as exc:  # every outcome goes back to the parent
                payload = (False, exc)
        try:
            data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # an unpicklable result or exception
            data = pickle.dumps((False, RuntimeError(
                f"forked child could not send its outcome: {exc!r}")))
        with open(w, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def _in_turn(child, parent):
    """fork_stream's halves in this process: parent first, then child on
    everything the parent sent."""
    sent = []
    mine = parent(sent.append)
    return child(iter(sent)), mine


def fork_stream(child, parent):
    """(child(received), parent(send)), with child run in a forked process.

    parent calls send(k), k an int in [0, 2**64), as often as it likes;
    received yields each k in order and ends once parent has returned.  A
    send after the child has ended does nothing, and a send blocks while
    the pipe is full (64 KiB, 8192 unread notes, on Linux).

    The child pickles its result, or the exception it raised, into a pipe
    and ends with os._exit.  The parent reads that pipe to its end before
    it reaps the child, so a result larger than the pipe buffer cannot
    deadlock.  If parent raises, the child is killed and reaped and the
    parent's exception propagates; otherwise the child's exception, if it
    raised one, is raised here.  A child that ends without sending an
    outcome raises RuntimeError naming its exit status.  No call returns
    or raises while its child is still running.  Without os.fork, with
    another thread running, or when the fork itself fails, parent and then
    child run in this process, and received yields what parent sent.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return _in_turn(child, parent)
    r, w = os.pipe()    # the child's outcome
    nr, nw = os.pipe()  # the parent's notes
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the same work, in turn
        for fd in (r, w, nr, nw):
            os.close(fd)
        return _in_turn(child, parent)
    if pid == 0:  # pragma: no cover - runs in the child, which never returns
        _child_main(child, nr, w, (r, nw))
    os.close(w)
    os.close(nr)

    def send(k: int) -> None:
        nonlocal nw
        if nw is not None:
            try:
                os.write(nw, k.to_bytes(_NOTE_BYTES, "little"))
            except BrokenPipeError:  # the child has ended and reads no more
                os.close(nw)
                nw = None

    try:
        with open(r, "rb") as fh:
            try:
                mine = parent(send)
            finally:
                if nw is not None:  # the end of received
                    os.close(nw)
                    nw = None
            data = fh.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not data:
        raise RuntimeError(f"forked child ended with exit status {code} "
                           f"and sent no result")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value, mine


def fork_join(child, parent):
    """(child(), parent()), with child() run in a forked process.

    fork_stream with no notes: its rules for results, exceptions, the
    child's end and the in-turn fallback hold as written there.
    """
    return fork_stream(lambda received: child(), lambda send: parent())
