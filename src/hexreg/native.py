"""The compiled C of the kernel's step loop, the CSV formatter and the
monitors' quadratic forms.

rk4_rows.c, csv_rows.c and quad_rows.c, which ship beside this module,
are built into one library with one `cc` call, at most once per process.
The kernel's steps run only in rk4_rows.c.  step_loop() returns its entry
point, or raises CompiledLoopError naming why this process cannot run it:

- numpy's BLAS is not scipy-openblas with 64-bit integers;
- numpy's library lacks one of the BLAS entries the loop calls;
- no `cc` is on PATH;
- the compile or the load fails.

The first call decides, and every later call in the process repeats its
answer.  The CLI asks before it makes a simulation's output directory.

The C loop calls the BLAS entries that numpy's np.dot and np.matmul call.
This module finds them by name in numpy's _multiarray_umath and passes
them to the loop as pointers, so the library links against nothing.  It is compiled
with the system `cc` and the flags in _FLAGS: -ffp-contract=off keeps every
multiply and add rounded apart, as numpy rounds them, and no fast-math
flag may let the compiler reorder them or flush subnormals to zero.

csv_rows(block) formats rows of the CSV that sim.write_csv writes, in
integer arithmetic, or returns None, and write_csv formats the block in
Python with the same bytes.  That happens when the library is
unavailable, or when the block holds a value csv_rows.c refuses.

quad_rows(x, P) gives np.einsum("ij,jk,ik->i", x, P, x) with einsum's
bits, from quad_rows.c when the library is loaded and x and P are
C-contiguous float64, and from einsum itself otherwise: with an F-ordered
or strided P, or on a block of at most 8 products, einsum sums in another
order (see quad_rows.c).  Neither the formatter nor the quadratic forms
need BLAS, so neither is gated on numpy's.

A build is cached per user under $XDG_CACHE_HOME/hexreg (~/.cache/hexreg
by default), a directory made owner-only.  Its name carries the length
and the CRC-32 of the sources and the flags, and it is written to a
temporary file and moved into place, so concurrent processes share one
build.  After a build into the cache, the other builds there that this
user owns and that nobody has modified for 30 days are removed.  When
that directory cannot be written, or another user owns it, or others
may write to it, the build goes to a private temporary directory that is
removed once the library is loaded.  Nothing here runs at import: only
the first kernel call, CSV or quadratic form compiles or loads, and the
three share that one build.
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

from .errors import CompiledLoopError

__all__ = ["csv_rows", "quad_rows", "rows_function", "step_loop"]

_SOURCES = tuple(Path(__file__).with_name(name)
                 for name in ("rk4_rows.c", "csv_rows.c", "quad_rows.c"))
# never -ffast-math, -Ofast or -march=native: each changes the bits
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_BLAS = ("scipy_cblas_dgemv64_", "scipy_cblas_ddot64_")
_COMPILE_TIMEOUT_S = 120.0
_CSV_VALUE_BYTES = 24  # the most csv_rows.c writes per value, separator included
# this library's builds, and those of the step loop alone that came before
_BUILDS = ("hexreg-*.so", "rk4_rows-*.so")
_STALE_S = 30 * 86400  # a build unmodified this long is removed after a build

# einsum sums a block of this many products or fewer in another order (see
# quad_rows.c), so such a block stays with einsum
_EINSUM_PRODUCTS = 8

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


# the argument and result types of the library's entries
_ENTRIES = {
    "rk4_rows": ([ctypes.POINTER(_Loop), ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
                  ctypes.c_void_p], None),
    "csv_rows": ([ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p],
                 ctypes.c_int64),
    "quad_rows": ([ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
                   ctypes.c_void_p], None),
}


@functools.cache
def _blas_entries() -> tuple[dict[str, int] | None, str | None]:
    """(the addresses of the BLAS entries that numpy calls, None), or
    (None, why not) unless numpy's BLAS is scipy-openblas with 64-bit
    integers and has them all."""
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    if blas.get("name") != "scipy-openblas" or "USE64BITINT" not in str(
            blas.get("openblas configuration", "")):
        return None, (f"numpy's BLAS is {blas.get('name', 'unknown')!s:.40}, "
                      "not scipy-openblas with 64-bit integers")
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError) as exc:
        return None, f"numpy's library does not load: {exc}"
    entries = {}
    for name, sym in zip(("dgemv", "ddot"), _BLAS):
        try:
            entries[name] = ctypes.cast(getattr(lib, sym), ctypes.c_void_p).value
        except AttributeError:
            return None, f"numpy's library lacks the BLAS entry {sym}"
    return entries, None


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


def _compile(dest: Path) -> str | None:
    """Compile the sources to dest through a temporary file beside it; None
    when it is built, or else why not.  Prints nothing."""
    cc = shutil.which("cc")
    if cc is None:
        return "no `cc` on PATH"
    try:
        fd, tmp = tempfile.mkstemp(prefix=".hexreg-", suffix=".so", dir=dest.parent)
    except OSError as exc:
        return f"no build can be written in {dest.parent}: {exc.strerror}"
    os.close(fd)
    try:
        done = subprocess.run([cc, *_FLAGS, "-o", tmp, *map(str, _SOURCES)],
                              stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=_COMPILE_TIMEOUT_S,
                              check=False)
        if done.returncode != 0:
            return f"`{cc} {' '.join(_FLAGS)}` exited with status {done.returncode}"
        os.replace(tmp, dest)
        return None
    except subprocess.TimeoutExpired:
        return f"`{cc}` ran for more than {_COMPILE_TIMEOUT_S:g} s"
    except (OSError, subprocess.SubprocessError) as exc:
        return f"`{cc}` failed: {exc}"
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


def _load(path: Path) -> tuple[ctypes.CDLL | None, str | None]:
    """(the library at path with its entries typed, None), or (None, why
    it does not load)."""
    try:
        lib = ctypes.CDLL(str(path))
        for name, (argtypes, restype) in _ENTRIES.items():
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = argtypes, restype
    except (OSError, AttributeError) as exc:
        return None, f"the build {path.name} does not load: {exc}"
    return lib, None


@functools.cache
def _library() -> tuple[ctypes.CDLL | None, str | None]:
    """(the library of _SOURCES, None), loaded from the cache, or built
    there (or in a private directory) first; or (None, why it cannot be
    built or loaded).  The first call compiles at most once; every later
    one returns its result."""
    try:
        # CRC-32, not hashlib: hashlib loads OpenSSL, about 3.7 MiB more
        # resident memory in every process that simulates
        key = b"\0".join(path.read_bytes() for path in _SOURCES) + "\0".join(_FLAGS).encode()
    except OSError as exc:
        return None, f"a C source cannot be read: {exc}"
    name = f"hexreg-{len(key):x}-{zlib.crc32(key):08x}.so"
    cache = _cache_dir()
    if cache is not None:
        if not (cache / name).exists():
            reason = _compile(cache / name)
            if reason is not None:
                return None, reason
            _evict_stale(cache, name)
        return _load(cache / name)
    try:
        with tempfile.TemporaryDirectory(prefix="hexreg-") as private:
            path = Path(private) / name
            reason = _compile(path)
            return (None, reason) if reason is not None else _load(path)
    except OSError as exc:
        return None, f"no private build directory: {exc}"


def _entry(name: str):
    """The library's entry point name, for this process, or None when the
    library is unavailable."""
    return getattr(_library()[0], name, None)


def step_loop():
    """(rk4_rows, BLAS addresses by _Loop field) for this process; raises
    CompiledLoopError, naming why, when this process cannot run it."""
    blas, reason = _blas_entries()
    if reason is None:
        lib, reason = _library()
    if reason is not None:
        raise CompiledLoopError(reason)
    return lib.rk4_rows, blas


def csv_rows(block: np.ndarray) -> bytes | None:
    """The bytes of ",".join("%.17g" % v for v in row) + "\n" for each row
    of the 2-D block, formatted by csv_rows.c; None when the library is
    unavailable or csv_rows.c refuses a value of the block (see its
    header), and the caller formats the block itself."""
    fn = _entry("csv_rows")
    if fn is None:
        return None
    block = np.ascontiguousarray(block, dtype=np.float64)
    if block.ndim != 2:
        raise ValueError(f"csv_rows takes a 2-D block, got shape {block.shape}")
    out = np.empty(block.size * _CSV_VALUE_BYTES, dtype=np.uint8)
    count = fn(block.ctypes.data, block.shape[0], block.shape[1], out.ctypes.data)
    return None if count < 0 else out[:count].tobytes()


def quad_rows(x: np.ndarray, P: np.ndarray) -> np.ndarray:
    """x_i^T P x_i for each row x_i of the 2-D x, with the bits of
    np.einsum("ij,jk,ik->i", x, P, x): quad_rows.c computes it when the
    library is loaded and x and P are C-contiguous float64 of shapes
    (rows, n) and (n, n) with more than _EINSUM_PRODUCTS products in all;
    einsum itself otherwise."""
    fn = _entry("quad_rows")
    if (fn is None or x.dtype != np.float64 or P.dtype != np.float64 or x.ndim != 2
            or P.shape != (x.shape[1],) * 2 or not x.flags.c_contiguous
            or not P.flags.c_contiguous or x.size * x.shape[1] <= _EINSUM_PRODUCTS):
        return np.einsum("ij,jk,ik->i", x, P, x)
    out = np.empty(x.shape[0])
    fn(x.ctypes.data, x.shape[0], x.shape[1], P.ctypes.data, out.ctypes.data)
    return out


def rows_function(law: str, **fields):
    """rows(lo, hi, ref, dist), which runs rk4_rows.c on the struct of law
    and fields; raises CompiledLoopError as step_loop() does.

    fields names every other field of _Loop except the BLAS entries; an
    array field takes a C-contiguous float64 array, or None, and the
    function holds each array while it lives.  ref and dist give each
    step's four stage values of the reference and the disturbance, as
    C-contiguous float64 arrays of shape (hi - lo, 4).
    """
    fn, blas = step_loop()
    for name, value in fields.items():
        if isinstance(value, np.ndarray) and not (
                value.dtype == np.float64 and value.flags.c_contiguous):
            raise ValueError(f"the step loop's {name} must be a C-contiguous float64 array")
    loop = _Loop(law=_LAW_CODES[law], **blas, **{
        name: (value.ctypes.data if isinstance(value, np.ndarray) else value)
        for name, value in fields.items()})
    ref_loop = ctypes.byref(loop)

    # _held keeps the arrays whose addresses loop holds alive with rows
    def rows(lo: int, hi: int, ref: np.ndarray, dist: np.ndarray, _held=fields) -> None:
        fn(ref_loop, lo, hi, ref.ctypes.data, dist.ctypes.data)

    return rows
