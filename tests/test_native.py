"""The kernel's compiled step loop: the same bits as the numpy oracle, its
refusals, its build, its cache, and the floating-point state it leaves."""

import ctypes
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

import hexreg
from hexreg import native
from hexreg.analysis import trajectory_monitors
from hexreg.cli import main
from hexreg.kernels import closed_loop_rk4

from conftest import KELVIN, both_loops, child_env, make_scenario, one_start

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _clear():
    native._library.cache_clear()
    native._blas_entries.cache_clear()


@pytest.fixture
def fresh_build():
    """The first kernel call, CSV or quadratic form in the test decides
    afresh whether compiled code runs."""
    _clear()
    yield
    _clear()


def _observer(L):
    """Observer artifacts around the gain L; the kernel reads only L."""
    L = np.asarray(L, dtype=np.float64)
    return hexreg.ObserverDesign(L=L, Q=np.eye(L.shape[0]), Y=L.copy(), nu=1.0,
                                 eps=0.1, mu=0.05, lmi_residual=-1.0)


def _scalar_plant(p):
    """A one-state plant with p sensors: the products' one-entry cases."""
    return hexreg.BilinearSystem(
        A=np.array([[-2.0]]), B=np.array([[-0.5]]), b=np.array([1.0]),
        E=np.array([0.3]), C=np.array([1.0]), D=np.ones((p, 1)),
        u_min=-1.0, u_max=1.0)


def _cases(hexsys, fwd_art, io_art, synthetic_observable):
    """(name, system, artifacts, law, PI gains) for every law, and for
    output feedback with each shape of L that the loop treats apart.  Each
    L is nonzero (the designed synthetic_observer's is zero)."""
    toy_eq = hexreg.equilibrium_at(synthetic_observable, 0.0)
    toy = hexreg.forwarding_design(synthetic_observable, toy_eq, k_p=0.5, k_i=0.2)
    toy.observer = _observer([[2.9950220676379886, -0.0009428876541059801],
                              [-0.014725005639627156, -0.004705008375560093],
                              [0.14952800969386623, 0.01568294073756938]])
    toy1 = dataclasses.replace(synthetic_observable, D=synthetic_observable.D[:1])
    toy1_art = hexreg.forwarding_design(toy1, toy_eq, k_p=0.5, k_i=0.2)
    toy1_art.observer = _observer([[2.0], [-0.5], [0.25]])
    cases = [("forwarding", hexsys, fwd_art, hexreg.FORWARDING, {}),
             ("integral_only", hexsys, io_art, hexreg.INTEGRAL_ONLY, {}),
             ("pi", hexsys, fwd_art, hexreg.PI, dict(kp_pi=-0.01, ki_pi=-0.001)),
             ("of_p2", synthetic_observable, toy, hexreg.OUTPUT_FEEDBACK, {}),
             ("of_p1", toy1, toy1_art, hexreg.OUTPUT_FEEDBACK, {})]
    for p in (1, 2):
        plant = _scalar_plant(p)
        art = hexreg.forwarding_design(plant, hexreg.equilibrium_at(plant, 0.1),
                                       k_p=0.5, k_i=0.2)
        art.observer = _observer(-np.linspace(0.5, 1.0, p)[None, :])
        cases.append((f"scalar_of_p{p}", plant, art, hexreg.OUTPUT_FEEDBACK, {}))
    return cases


def test_loops_agree_on_every_law(hexsys, fwd_art, io_art, synthetic_observable):
    """Every law, on one start and on a batch of three, gives the same bits
    on both loops over two blocks, through a reference step, a disturbance
    step and its release, each between two stages of a step.  The second
    batch row's estimate starts on its state, so its innovation is zero;
    the others start apart."""
    rng = np.random.default_rng(35)
    dt, steps = 0.05, 1100
    for name, plant, art, law, gains in _cases(hexsys, fwd_art, io_art,
                                               synthetic_observable):
        n = plant.n_states
        r0 = float(plant.C @ art.x_ss)
        spread = 5.0 if n == 16 else 0.5
        x0 = art.x_ss + rng.normal(0.0, spread, (3, n))
        x_hat0 = x0 + rng.normal(0.0, spread, (3, n)) * [[1.0], [0.0], [1.0]]
        scn = make_scenario(plant, art, law, steps * dt, dt,
                            [[0.0, r0], [300.3 * dt, r0 + 0.1]],
                            dists=[[600.6 * dt, 0.2], [900.2 * dt, 0.0]],
                            x0=x0[0], **gains)
        one = both_loops(one_start, scn, x0[0], x_hat0[0], 0.1)
        batch = both_loops(closed_loop_rk4, scn, x0, x_hat0, 0.1)
        assert one[-1] is None and batch[-1] is None, name
        for a, b in zip(one[:7], batch[:7]):
            assert (a is None and b is None) or a.tobytes() == b[0].tobytes(), name


def test_monitors_without_the_library_keep_their_bits(
        hexsys, fwd_art, io_art, synthetic_observable, tmp_path, monkeypatch, fresh_build):
    """Every law's monitors, over a run of two blocks, have the same bits
    from the library's quadratic forms and, with no `cc` on PATH and an
    empty cache, from einsum's: trajectory_monitors, block by block on the
    series of one run with the library, gives that run's monitors.  Each
    output-feedback run's estimate starts apart from its state under a
    nonzero L, so U is not zero."""
    if native._entry("quad_rows") is None:
        pytest.skip("no library here: no cc, or the build failed")
    rng = np.random.default_rng(37)
    runs = []
    for name, plant, art, law, gains in _cases(hexsys, fwd_art, io_art,
                                               synthetic_observable):
        n = plant.n_states
        spread = 5.0 if n == 16 else 0.5
        x0 = art.x_ss + rng.normal(0.0, spread, n)
        scn = make_scenario(plant, art, law, 1100 * 0.05, 0.05,
                            [[0.0, float(plant.C @ art.x_ss)]],
                            x0=x0, x_hat0=x0 + rng.normal(0.0, spread, n), **gains)
        X, XH, Z, *_ = one_start(scn, scn.x0, scn.x_hat0)
        runs.append((name, scn, X, XH, Z, hexreg.run(scn).monitors))
    _clear()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setenv("PATH", str(tmp_path / "no_bin"))
    private = tmp_path / "tmp"
    private.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(private))
    for name, scn, X, XH, Z, want in runs:
        for lo in range(0, len(Z), 1024):
            at = slice(lo, lo + 1024)
            got = trajectory_monitors(scn, X[at], None if XH is None else XH[at], Z[at])
            assert got.keys() == want.keys(), name
            for key in got:
                assert got[key].tobytes() == want[key][at].tobytes(), (name, key, lo)
        if scn.law == hexreg.OUTPUT_FEEDBACK:
            assert (want["U"] > 0.0).any(), name
    assert native._entry("quad_rows") is None
    assert list(private.iterdir()) == []


def test_every_c_source_is_built_and_shipped(tmp_path, monkeypatch):
    """Each C source beside native.py is in native._SOURCES, which names
    the files of the `cc` call and of the cache key, and in pyproject.toml's
    package data: no source builds here and is missing from a wheel, or
    changes without a rebuild."""
    tomllib = pytest.importorskip("tomllib")
    sources = sorted(p.name for p in Path(native.__file__).parent.glob("*.c"))
    assert sorted(p.name for p in native._SOURCES) == sources
    assert {p.parent for p in native._SOURCES} == {Path(native.__file__).parent}
    pyproject = tomllib.loads((Path(__file__).resolve().parent.parent
                               / "pyproject.toml").read_text())
    assert sorted(pyproject["tool"]["setuptools"]["package-data"]["hexreg"]) == sources
    commands = []

    def failing_cc(argv, **kwargs):
        commands.append(argv)
        return subprocess.CompletedProcess(argv, 1)

    monkeypatch.setattr(native.shutil, "which", lambda name: "cc")
    monkeypatch.setattr(native.subprocess, "run", failing_cc)
    assert native._compile(tmp_path / "lib.so").endswith("exited with status 1")
    (argv,) = commands
    assert sorted(Path(a).name for a in argv if a.endswith(".c")) == sources


def test_loop_fields_match_the_c_struct():
    """native._Loop lists the fields of rk4_rows.c's struct loop by name, in
    order, with matching types: int64_t as c_int64, double as c_double,
    double[4] as c_double * 4, and a pointer (a function pointer typedef
    included) as c_void_p.  ctypes lays the fields out in this order, so
    one missing, extra or mistyped field would shift every later one."""
    source = Path(native.__file__).with_name("rk4_rows.c").read_text()
    source = re.sub(r"/\*.*?\*/", "", source, flags=re.S)
    function_pointers = set(re.findall(r"typedef[^;]*\(\s*\*\s*(\w+)\s*\)", source))
    (body,) = re.findall(r"struct loop\s*\{(.*?)\};", source, flags=re.S)
    scalars = {"int64_t": ctypes.c_int64, "double": ctypes.c_double}
    want = []
    for decl in filter(str.strip, body.split(";")):
        base, declarators = re.fullmatch(r"\s*(?:const\s+)?(\w+)\s+(.*?)\s*", decl,
                                         flags=re.S).groups()
        for declarator in declarators.split(","):
            star, name, length = re.fullmatch(r"\s*(\*?)\s*(\w+)\s*(?:\[(\d+)\])?\s*",
                                              declarator).groups()
            if star or base in function_pointers:
                want.append((name, ctypes.c_void_p))
            elif length:
                want.append((name, scalars[base] * int(length)))
            else:
                want.append((name, scalars[base]))
    assert len(want) > 30
    assert [name for name, _ in native._Loop._fields_] == [name for name, _ in want]
    assert list(native._Loop._fields_) == want


def test_compiled_loop_builds_here():
    """On this machine's numpy (scipy-openblas with 64-bit integers) and
    with a `cc`, the kernel can run: the compiled loop builds."""
    config = np.__config__.CONFIG["Build Dependencies"]["blas"]
    if config["name"] != "scipy-openblas" or not native.shutil.which("cc"):
        pytest.skip("numpy's BLAS is not scipy-openblas, or there is no cc")
    native.step_loop()


def _scenario_file(root):
    """A forwarding scenario of two blocks with a reference step and a
    disturbance between two stages of a step."""
    path = root / "scn.json"
    path.write_text(json.dumps({
        "units": "C", "law": "forwarding", "t_end": 150.0, "dt": 0.1,
        "reference_schedule": [[0.0, 26.5], [50.03, 26.0]],
        "output_disturbance": [[100.07, 0.5]]}))
    return path


@pytest.fixture(scope="module")
def cli_ws(tmp_path_factory):
    """A system, forwarding artifacts and a short scenario."""
    root = tmp_path_factory.mktemp("native")
    assert main(["build-model", str(CONFIGS / "hex_table1.json"),
                 "--out", str(root / "hex.json")]) == 0
    assert main(["design", str(root / "hex.json"), "--law", "forwarding",
                 "--ref", "26.5", "--units", "C", "--out", str(root / "fwd.json")]) == 0
    _scenario_file(root)
    return root


def _simulate(ws, out, capfd):
    """Exit codes, output bytes and printed text of a finite run and of a
    diverging one (exit 3), with out's path masked in the text."""
    capfd.readouterr()
    args = ["simulate", str(ws / "hex.json"), str(ws / "fwd.json")]
    codes = (main(args + [str(ws / "scn.json"), "--out", str(out / "ok")]),
             main(args + [str(CONFIGS / "experiment2.json"), "--out", str(out / "div"),
                          "--dt", "20"]))
    printed = capfd.readouterr()
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return codes, files, [text.replace(str(out), "<out>") for text in printed]


def _isolate(tmp_path, monkeypatch):
    """A fresh cache directory and a private temporary directory for the
    builds of this test; returns both."""
    _clear()
    cache = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    private = tmp_path / "tmp"
    private.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(private))
    return cache, private


@pytest.mark.usefixtures("no_child_left")
@pytest.mark.parametrize("case", ["unwritable_cache", "open_cache"])
def test_fallback_gives_the_same_run(case, cli_ws, tmp_path, monkeypatch, capfd,
                                     fresh_build):
    """With a cache directory that cannot be made, or one that others may
    write to, simulate builds into a private temporary directory, once for
    the process, and removes it.  The exit codes, the bytes and the
    printed text are those of a run on the cached build, nothing more is
    printed, no process is left, and no build is written outside the
    private directory."""
    want = _simulate(cli_ws, tmp_path / "want", capfd)
    cache, private = _isolate(tmp_path, monkeypatch)
    if case == "unwritable_cache":
        cache.write_text("a file where the cache directory would go")
    else:
        (cache / "hexreg").mkdir(parents=True)
        (cache / "hexreg").chmod(0o777)
    compiles = []
    real_compile = native._compile
    monkeypatch.setattr(native, "_compile",
                        lambda dest: compiles.append(dest) or real_compile(dest))
    got = _simulate(cli_ws, tmp_path / "got", capfd)
    assert got == want
    assert len(compiles) == 1
    native.step_loop()
    assert list(private.iterdir()) == []
    assert cache.is_file() if case == "unwritable_cache" else not list(cache.rglob("*.so*"))


def _refusal_case(case, tmp_path, monkeypatch):
    """Make this process unable to run the compiled loop in the way case
    names; returns the reason the refusal must name."""
    if case == "no_cc":
        monkeypatch.setenv("PATH", str(tmp_path / "no_bin"))
        return "no `cc` on PATH"
    if case == "cc_fails":
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        (bin_dir / "cc").write_text("#!/bin/sh\nexit 1\n")
        (bin_dir / "cc").chmod(0o755)
        monkeypatch.setenv("PATH", str(bin_dir))
        return "exited with status 1"
    if case == "no_blas_entry":
        monkeypatch.setattr(native, "_BLAS", ("scipy_cblas_dgemv64_", "no_such_ddot64_"))
        return "numpy's library lacks the BLAS entry no_such_ddot64_"
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    monkeypatch.setitem(blas, "name", "openblas")
    return "numpy's BLAS is openblas, not scipy-openblas with 64-bit integers"


@pytest.mark.usefixtures("no_child_left")
@pytest.mark.parametrize("case", ["no_cc", "cc_fails", "no_blas_entry", "other_blas"])
def test_refuses_without_the_compiled_loop(case, cli_ws, tmp_path, monkeypatch, capfd,
                                           fresh_build):
    """With no `cc` on PATH, a `cc` that fails, a missing BLAS entry or a
    BLAS that is not scipy-openblas, simulate and compare-pi exit 4 and
    print one line that names the reason, with no traceback.  They create
    no --out, leave no process, and write no build outside the private
    directory."""
    cache, private = _isolate(tmp_path, monkeypatch)
    reason = _refusal_case(case, tmp_path, monkeypatch)
    capfd.readouterr()
    out = tmp_path / "out"
    for argv in (["simulate", str(cli_ws / "hex.json"), str(cli_ws / "fwd.json"),
                  str(cli_ws / "scn.json"), "--out", str(out)],
                 ["compare-pi", str(cli_ws / "hex.json"), str(cli_ws / "fwd.json"),
                  str(CONFIGS / "experiment2.json"), str(CONFIGS / "experiment2_pi.json"),
                  "--out", str(out)]):
        assert main(argv) == 4, argv
        printed = capfd.readouterr()
        (line,) = printed.err.splitlines()
        assert printed.out == ""
        assert line.startswith("error: this process cannot build or load the "
                               "compiled step loop: ") and reason in line, line
        assert not out.exists()
    with pytest.raises(hexreg.CompiledLoopError):
        native.step_loop()
    assert list(private.iterdir()) == []
    assert not list(cache.rglob("*.so*"))


def test_build_keeps_ieee_arithmetic(fresh_build, tmp_path, monkeypatch, hexsys, fwd_art):
    """The compile command keeps multiplies and adds apart and carries no
    fast-math flag.  Once the library has loaded and run, numpy's
    subnormal arithmetic is IEEE's: no flush to zero, and no subnormal
    input read as zero."""
    commands = []
    real_run = subprocess.run

    def run(argv, **kwargs):
        commands.append(list(argv))
        return real_run(argv, **kwargs)

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native.subprocess, "run", run)
    try:
        native.step_loop()
    except hexreg.CompiledLoopError:
        pytest.skip("this process cannot build the compiled loop")
    (argv,) = commands
    assert "-ffp-contract=off" in argv
    assert [a for a in argv if a in ("-Ofast", "-march=native") or "fast-math" in a
            or "unsafe-math" in a] == []
    scn = make_scenario(hexsys, fwd_art, hexreg.FORWARDING, 1.0, 0.1,
                        [[0.0, 26.5 + KELVIN]], x0=fwd_art.x_ss + 1.0)
    assert one_start(scn, scn.x0, scn.x_hat0)[-1] is None
    tiny = np.float64(5e-324)           # the smallest subnormal
    assert tiny * 1.0 == tiny           # DAZ would read it as zero
    assert tiny + tiny == np.float64(1e-323)
    assert np.float64(2.2250738585072014e-308) * 0.5 == 1.1125369292536007e-308  # FTZ
    many = np.full(8, 5e-324)
    assert (many + many == 1e-323).all()


def test_nothing_but_a_kernel_call_builds(cli_ws, tmp_path, monkeypatch, fresh_build):
    """import hexreg builds nothing, and neither do the commands that do
    not simulate.  With no `cc` on PATH, they give the same exit codes and
    the same files."""
    code = ("import hexreg, hexreg.cli, hexreg.native as n; "
            "print(n._library.cache_info().misses, n._blas_entries.cache_info().misses)")
    done = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, check=True)
    assert done.stdout == "0 0\n"

    def commands(out):
        hex_json = str(out / "hex.json")
        codes = [main(argv) for argv in (
            ["build-model", str(CONFIGS / "hex_table1.json"), "--out", hex_json],
            ["design", hex_json, "--law", "integral_only", "--ref", "26.5",
             "--units", "C", "--out", str(out / "io.json")],
            ["verify", hex_json, "--a3", "--grid", "64", "--out", str(out / "a3.json")],
            ["steady-state", hex_json, "--ref", "26.5", "--units", "C",
             "--out", str(out / "ss.json")])]
        return codes, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    with monkeypatch.context() as mp:
        mp.setattr(native, "_library", lambda: pytest.fail("built the library"))
        mp.setattr(native, "_blas_entries", lambda: pytest.fail("looked up the BLAS"))
        (tmp_path / "with_cc").mkdir()
        codes, files = commands(tmp_path / "with_cc")
    assert all(code in (0, 1) for code in codes), codes
    monkeypatch.setenv("PATH", str(tmp_path / "no_bin"))
    (tmp_path / "no_cc").mkdir()
    assert commands(tmp_path / "no_cc") == (codes, files)


@pytest.mark.parametrize("source", sorted(p.name for p in Path(native.__file__).parent.glob("*.c")))
def test_c_source_compiles_without_warnings(source):
    """Each C source passes cc -Wall -Wextra -Werror."""
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no cc")
    done = subprocess.run([cc, "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
                           str(Path(native.__file__).with_name(source))],
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr


def test_build_removes_stale_builds(tmp_path, monkeypatch, fresh_build):
    """A build into the cache removes the other builds, of this library
    or of the step loop alone, unmodified for more than 30 days; it keeps
    newer builds and other files.  Loading a cached build removes
    nothing."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cache = tmp_path / "hexreg"
    cache.mkdir(mode=0o700)
    old, recent = time.time() - 31 * 86400, time.time() - 29 * 86400
    ages = {"hexreg-1-00000000.so": old, "rk4_rows-2-00000000.so": old,
            "hexreg-3-00000000.so": recent, "rk4_rows-4-00000000.so": recent,
            "other-5.so": old, "notes.txt": old}
    for name, when in ages.items():
        (cache / name).write_bytes(b"")
        os.utime(cache / name, (when, when))
    if native._library()[0] is None:
        pytest.skip("no library here: no cc, or the build failed")
    (built,) = {p.name for p in cache.iterdir()} - set(ages)
    kept = {built, "hexreg-3-00000000.so", "rk4_rows-4-00000000.so", "other-5.so",
            "notes.txt"}
    assert {p.name for p in cache.iterdir()} == kept
    (cache / "rk4_rows-6-00000000.so").write_bytes(b"")
    os.utime(cache / "rk4_rows-6-00000000.so", (old, old))
    _clear()
    assert native._library()[0] is not None
    assert {p.name for p in cache.iterdir()} == kept | {"rk4_rows-6-00000000.so"}
