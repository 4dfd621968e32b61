"""The compiled C of the kernel's step loop and of the CSV formatter.

rk4_rows.c and csv_rows.c, which ship beside this module, are built into
one library with one `cc` call.  compiled_rows() returns the step loop's
entry point, or None when this process cannot run it.  Then the kernel
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

csv_rows(block) formats rows of the CSV that sim.write_csv writes, in
integer arithmetic, or returns None, and write_csv formats the block in
Python with the same bytes.  That happens when the library is
unavailable, or when the block holds a value csv_rows.c refuses.  The
formatter needs no BLAS, so it is not gated on numpy's.

A build is cached per user under $XDG_CACHE_HOME/hexreg (~/.cache/hexreg
by default), a directory made owner-only.  Its name carries the length
and the CRC-32 of the sources and the flags, and it is written to a
temporary file and moved into place, so concurrent processes share one
build.  After a build into the cache, the other builds there that this
user owns and that nobody has modified for 30 days are removed.  When
that directory cannot be written, or another user owns it, or others
may write to it, the build goes to a private temporary directory that is
removed once the library is loaded.  Nothing here runs at import: only
the first kernel call or the first CSV compiles or loads.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shutil
import subprocess
import tempfile
import time
import zlib
from pathlib import Path

import numpy as np

__all__ = ["compiled_rows", "csv_rows", "rows_function"]

_SOURCES = tuple(Path(__file__).with_name(name) for name in ("rk4_rows.c", "csv_rows.c"))
# never -ffast-math, -Ofast or -march=native: each changes the bits
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_BLAS = ("scipy_cblas_dgemv64_", "scipy_cblas_ddot64_")
_COMPILE_TIMEOUT_S = 120.0
_CSV_VALUE_BYTES = 24  # the most csv_rows.c writes per value, separator included
# this library's builds, and those of the step loop alone that came before
_BUILDS = ("hexreg-*.so", "rk4_rows-*.so")
_STALE_S = 30 * 86400  # a build unmodified this long is removed after a build

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
    """Compile the sources to dest through a temporary file beside it; False
    when there is no `cc` or the compile fails.  Prints nothing."""
    cc = shutil.which("cc")
    if cc is None:
        return False
    try:
        fd, tmp = tempfile.mkstemp(prefix=".hexreg-", suffix=".so", dir=dest.parent)
    except OSError:
        return False
    os.close(fd)
    try:
        done = subprocess.run([cc, *_FLAGS, "-o", tmp, *map(str, _SOURCES)],
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


def _evict_stale(cache: Path, keep: str) -> None:
    """Remove the builds in cache other than keep that this user owns and
    that nobody has modified for _STALE_S seconds; a build that cannot be
    read or removed stays."""
    cutoff = time.time() - _STALE_S
    for pattern in _BUILDS:
        for path in cache.glob(pattern):
            try:
                st = path.lstat()
                if path.name != keep and st.st_uid == os.getuid() and st.st_mtime < cutoff:
                    path.unlink()
            except OSError:
                pass


def _library() -> ctypes.CDLL | None:
    """The library of both sources, loaded from the cache, or built there
    (or in a private directory) first; None when it cannot be built or
    loaded."""
    try:
        # CRC-32, not hashlib: hashlib loads OpenSSL, about 3.7 MiB more
        # resident memory in every process that simulates
        key = b"\0".join(path.read_bytes() for path in _SOURCES) + "\0".join(_FLAGS).encode()
        name = f"hexreg-{len(key):x}-{zlib.crc32(key):08x}.so"
        cache = _cache_dir()
        if cache is not None and (cache / name).exists():
            return ctypes.CDLL(str(cache / name))
        if cache is not None and _compile(cache / name):
            _evict_stale(cache, name)
            return ctypes.CDLL(str(cache / name))
        with tempfile.TemporaryDirectory(prefix="hexreg-") as private:
            path = Path(private) / name
            return ctypes.CDLL(str(path)) if _compile(path) else None
    except OSError:   # an unreadable source, or a library that does not load
        return None


@functools.cache
def compiled_rows():
    """(rk4_rows, BLAS addresses by field name) for this process, or None
    when the kernel must run its numpy loop.  The first call compiles or
    loads; every later one returns its result."""
    blas = _blas_entries()
    # None too for a library without rk4_rows
    fn = None if blas is None else getattr(_library(), "rk4_rows", None)
    if fn is None:
        return None
    fn.argtypes = [ctypes.POINTER(_Loop), ctypes.c_int64, ctypes.c_int64,
                   ctypes.c_void_p, ctypes.c_void_p]
    fn.restype = None
    return fn, blas


@functools.cache
def _csv_function():
    """csv_rows.c's entry point for this process, or None when the library
    is unavailable.  The first call compiles or loads."""
    fn = getattr(_library(), "csv_rows", None)  # None too for a library without it
    if fn is not None:
        fn.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p]
        fn.restype = ctypes.c_int64
    return fn


def csv_rows(block: np.ndarray) -> bytes | None:
    """The bytes of ",".join("%.17g" % v for v in row) + "\n" for each row
    of the 2-D block, formatted by csv_rows.c; None when the library is
    unavailable or csv_rows.c refuses a value of the block (see its
    header), and the caller formats the block itself."""
    fn = _csv_function()
    if fn is None:
        return None
    block = np.ascontiguousarray(block, dtype=np.float64)
    if block.ndim != 2:
        raise ValueError(f"csv_rows takes a 2-D block, got shape {block.shape}")
    out = np.empty(block.size * _CSV_VALUE_BYTES, dtype=np.uint8)
    count = fn(block.ctypes.data, block.shape[0], block.shape[1], out.ctypes.data)
    return None if count < 0 else out[:count].tobytes()


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
