"""hexreg in worker processes: a process pool that runs scenarios gets
their results and errors back whole, and no worker is left behind.
hexreg itself starts no process but the compiler; these tests start the
pool."""

import inspect
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

import hexreg
from hexreg import errors

from conftest import KELVIN, make_scenario
from test_cli import ERRORS, _subclasses
from test_sim import _assert_same_result

pytestmark = pytest.mark.usefixtures("no_child_left")


def _pool():
    """One forked worker: it has this module, so its functions need no
    import by name there."""
    return ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("fork"))


def _raise(exc):
    raise exc


def test_result_above_the_pipe_buffer(hexsys, fwd_art):
    """A 20 000-step run, its state series alone 39 times the 64 KiB pipe
    buffer, comes back from a worker with the bits of the same run here."""
    scn = make_scenario(hexsys, fwd_art, hexreg.FORWARDING, 10000.0, 0.5,
                        [[0.0, 26.5 + KELVIN], [3000.0, 26.0 + KELVIN]],
                        dists=[[6000.0, 0.5]])
    with _pool() as pool:
        got = pool.submit(hexreg.run, scn).result()
    mine = hexreg.run(scn)
    assert got.x.nbytes > 39 * 2**16
    _assert_same_result(got, mine)


def test_child_error_is_raised_after_the_parent_returns(hexsys, fwd_art):
    """A run that diverges in the worker while another runs here: its
    NonFiniteError is raised here when asked for, with the attributes
    the same run raises in this process."""
    div = make_scenario(hexsys, fwd_art, hexreg.FORWARDING, 12000.0, 6.0,
                        [[0.0, 26.5 + KELVIN]], dists=[[6600.0, 20.0]])
    ok = make_scenario(hexsys, fwd_art, hexreg.FORWARDING, 100.0, 0.5,
                       [[0.0, 26.5 + KELVIN]])
    with pytest.raises(hexreg.NonFiniteError) as alone:
        hexreg.run(div)
    with _pool() as pool:
        future = pool.submit(hexreg.run, div)
        assert hexreg.run(ok).x.shape[0] == 201
        with pytest.raises(hexreg.NonFiniteError) as info:
            future.result()
    assert str(info.value) == str(alone.value)
    assert vars(info.value) == vars(alone.value)


def test_every_error_class_is_covered():
    assert {type(e) for e in ERRORS} == set(_subclasses(errors.HexRegError))
    assert {type(e) for e in ERRORS} == {
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.HexRegError) and cls is not errors.HexRegError}


@pytest.mark.parametrize("exc", ERRORS, ids=lambda e: type(e).__name__)
def test_errors_survive_pickling_and_the_process_boundary(exc):
    """Type, message and attributes survive a pickle round trip, and the
    same error raised in a worker reaches this process."""
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc) and back.args == exc.args
    assert vars(back) == vars(exc)

    with _pool() as pool, pytest.raises(type(exc)) as info:
        pool.submit(_raise, exc).result()
    assert str(info.value) == str(exc) and vars(info.value) == vars(exc)
