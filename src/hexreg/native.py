"""The kernel's step loop in compiled C, on numpy's own BLAS.

rk4_rows.c, which ships beside this module, holds the C loop.
compiled_rows() builds it once per process at its first call, and returns
its entry point, or None when this process cannot run it.  Then the kernel
runs its numpy loop, which gives the same bits.  That happens when:

- numpy's BLAS is not scipy-openblas with 64-bit integers;
- numpy's library lacks one of the BLAS entries the loop calls;
- no `cc` is on PATH;
- the compile or the load fails.

The C loop calls the BLAS entries that numpy's np.dot and np.matmul call.
This module finds them by name in numpy's _multiarray_umath and passes
them to the loop as pointers, so the library links against nothing.  It is compiled
with the system `cc` and the flags in _FLAGS: -ffp-contract=off keeps every
multiply and add rounded apart, as numpy rounds them, and no fast-math
flag may let the compiler reorder them or flush subnormals to zero.

A build is cached per user under $XDG_CACHE_HOME/hexreg (~/.cache/hexreg
by default), a directory made owner-only.  Its name carries the length
and the CRC-32 of the source and the flags, and it is written to a
temporary file and moved into place, so concurrent processes (compare-pi's
two halves, consecutive commands) share one build.  When that directory cannot be written, or
another user owns it, or others may write to it, the build goes to a
private temporary directory that is removed once the library is loaded.
Nothing here runs at import: only the kernel's first call compiles or
loads.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shutil
import subprocess
import tempfile
import zlib
from pathlib import Path

import numpy as np

__all__ = ["compiled_rows", "rows_function"]

_SOURCE = Path(__file__).with_name("rk4_rows.c")
# never -ffast-math, -Ofast or -march=native: each changes the bits
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_BLAS = ("scipy_cblas_dgemv64_", "scipy_cblas_ddot64_")
_COMPILE_TIMEOUT_S = 120.0

# rk4_rows.c's law codes, by the kernel's law names
_LAW_CODES = {"forwarding": 0, "output_feedback": 1, "integral_only": 2, "pi": 3}


class _Loop(ctypes.Structure):
    """rk4_rows.c's struct loop: the BLAS entries, the law and its sizes,
    its scalars, and the addresses of the operands, buffers and series."""

    _fields_ = [
        ("dgemv", ctypes.c_void_p), ("ddot", ctypes.c_void_p),
        *((name, ctypes.c_int64) for name in ("law", "single", "n", "p", "m", "W", "T", "k")),
        *((name, ctypes.c_double) for name in
          ("u_lo", "u_hi", "u_ss", "kp", "ki", "sign_dc", "kp_pi", "ki_pi")),
        ("h", ctypes.c_double * 4), ("b", ctypes.c_double * 4),
        *((name, ctypes.c_void_p) for name in
          ("G", "L", "s", "st", "ds", "K", "gx", "gxh", "innov", "corr",
           "X", "XH", "Z", "U_raw", "U_sat", "Err", "Y")),
    ]


def _blas_entries() -> dict[str, int] | None:
    """The addresses of the BLAS entries that numpy calls, or None unless
    numpy's BLAS is scipy-openblas with 64-bit integers and has them all."""
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    if blas.get("name") != "scipy-openblas" or "USE64BITINT" not in str(
            blas.get("openblas configuration", "")):
        return None
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        return {name: ctypes.cast(getattr(lib, sym), ctypes.c_void_p).value
                for name, sym in zip(("dgemv", "ddot"), _BLAS)}
    except (AttributeError, OSError):
        return None


def _cache_dir() -> Path | None:
    """The per-user build cache, made owner-only when it is missing; None
    when it cannot be made or written, or it is not this user's alone."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    path = Path(root) / "hexreg"
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = path.stat()
    except OSError:
        return None
    if st.st_uid != os.getuid() or st.st_mode & 0o022 or not os.access(path, os.W_OK | os.X_OK):
        return None
    return path


def _compile(dest: Path) -> bool:
    """Compile rk4_rows.c to dest through a temporary file beside it; False
    when there is no `cc` or the compile fails.  Prints nothing."""
    cc = shutil.which("cc")
    if cc is None:
        return False
    try:
        fd, tmp = tempfile.mkstemp(prefix=".rk4_rows-", suffix=".so", dir=dest.parent)
    except OSError:
        return False
    os.close(fd)
    try:
        done = subprocess.run([cc, *_FLAGS, "-o", tmp, str(_SOURCE)],
                              stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=_COMPILE_TIMEOUT_S,
                              check=False)
        if done.returncode != 0:
            return False
        os.replace(tmp, dest)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load(path: Path):
    """rk4_rows from the library at path, with its argument types."""
    fn = ctypes.CDLL(str(path)).rk4_rows
    fn.argtypes = [ctypes.POINTER(_Loop), ctypes.c_int64, ctypes.c_int64,
                   ctypes.c_void_p, ctypes.c_void_p]
    fn.restype = None
    return fn


@functools.cache
def compiled_rows():
    """(rk4_rows, BLAS addresses by field name) for this process, or None
    when the kernel must run its numpy loop.  The first call compiles or
    loads; every later one returns its result."""
    blas = _blas_entries()
    if blas is None:
        return None
    try:
        source = _SOURCE.read_bytes()
    except OSError:
        return None
    # CRC-32, not hashlib: hashlib loads OpenSSL, about 3.7 MiB more
    # resident memory in every process that simulates
    key = source + "\0".join(_FLAGS).encode()
    name = f"rk4_rows-{len(key):x}-{zlib.crc32(key):08x}.so"
    try:
        cache = _cache_dir()
        if cache is not None and ((cache / name).exists() or _compile(cache / name)):
            return _load(cache / name), blas
        with tempfile.TemporaryDirectory(prefix="hexreg-") as private:
            path = Path(private) / name
            return (_load(path), blas) if _compile(path) else None
    except (OSError, AttributeError):   # unreadable, or a library without rk4_rows
        return None


def rows_function(law: str, **fields):
    """rows(lo, hi, ref, dist), which runs rk4_rows.c on the struct of law
    and fields, or None when the kernel must run its numpy loop.

    fields names every other field of _Loop except the BLAS entries; an
    array field takes a C-contiguous float64 array, or None, and the
    function holds each array while it lives.  ref and dist give each
    step's four stage values of the reference and the disturbance, as
    C-contiguous float64 arrays of shape (hi - lo, 4).
    """
    built = compiled_rows()
    if built is None:
        return None
    fn, blas = built
    loop = _Loop(law=_LAW_CODES[law], **blas, **{
        name: (value.ctypes.data if isinstance(value, np.ndarray) else value)
        for name, value in fields.items()})
    ref_loop = ctypes.byref(loop)

    # _held keeps the arrays whose addresses loop holds alive with rows
    def rows(lo: int, hi: int, ref: np.ndarray, dist: np.ndarray, _held=fields) -> None:
        fn(ref_loop, lo, hi, ref.ctypes.data, dist.ctypes.data)

    return rows
