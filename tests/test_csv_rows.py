"""The compiled CSV formatter: the bytes of Python's "%.17g" on every
value it accepts, and a refusal, which write_csv formats in Python, on
every value it does not."""

import math
import tempfile
from fractions import Fraction

import numpy as np
import pytest

import hexreg
from hexreg import native

# a row of the hex plant's CSV: t, x (16), u_raw, u_sat, e, y, V; and of
# its output-feedback CSV, which adds x_hat (16) and the U and W monitors
WIDTHS = (1, 22, 40)


@pytest.fixture
def fresh_formatter():
    """The first CSV in the test decides afresh whether the library runs."""
    native._library.cache_clear()
    yield
    native._library.cache_clear()


@pytest.fixture(scope="module")
def formatter():
    if native._entry("csv_rows") is None:
        pytest.skip("no library here: no cc, or the build failed")


def _python_rows(block):
    """write_csv's Python formatting of a 2-D block, the reference."""
    fmt = ",".join(["%.17g"] * block.shape[1]) + "\n"
    return "".join(fmt % tuple(row) for row in block.tolist()).encode()


def _in_path(v):
    """The values csv_rows.c formats, short of a margin at 1e-39 (whose
    double lies below 10**-39): zeros, and normals with 1e-39 < |v| < 2**51."""
    a = np.abs(v)
    return (a == 0.0) | ((a >= 1.0000001e-39) & (a < 2.0**51))


def _outside(v):
    """The values csv_rows.c refuses, but for those at the margin."""
    a = np.abs(v)
    return ~np.isfinite(v) | ((a > 0.0) & (a < 1e-39)) | (a >= 2.0**51)


def _assert_formats_as_python(values):
    """csv_rows of values, laid out in rows of each width in WIDTHS, gives
    Python's bytes.  Python formats each value once, one to a line; a
    row of width w is w lines with a comma for each inner newline."""
    want = ("%.17g\n" * values.size % tuple(values.tolist())).encode()
    newline = np.flatnonzero(np.frombuffer(want, dtype=np.uint8) == ord("\n"))
    for width in WIDTHS:
        rows = values.size // width
        text = np.frombuffer(want, dtype=np.uint8)[:newline[rows * width - 1] + 1].copy()
        text[newline[:rows * width].reshape(rows, width)[:, :-1]] = ord(",")
        got = native.csv_rows(values[:rows * width].reshape(rows, width))
        assert got is not None, width
        assert got == text.tobytes(), width


def _refused(v) -> bool:
    return native.csv_rows(np.array([[v]])) is None


@pytest.mark.usefixtures("formatter")
def test_random_bit_patterns():
    """A million random sign and mantissa bits, each with an exponent
    drawn over the whole accepted range [2**-129, 2**51)."""
    rng = np.random.default_rng(36)
    bits = rng.integers(0, 2**64, 1_000_000, dtype=np.uint64)
    field = rng.integers(1023 - 129, 1023 + 51, bits.size).astype(np.uint64)
    bits = (bits & np.uint64(0x800F_FFFF_FFFF_FFFF)) | (field << np.uint64(52))
    _assert_formats_as_python(bits.view(np.float64))


@pytest.mark.usefixtures("formatter")
def test_scaled_normals():
    """Normal draws scaled by every power of ten from 1e-45 to 1e30: those
    in the path as Python formats them, the others refused."""
    rng = np.random.default_rng(7)
    v = rng.standard_normal(100_000) * 10.0 ** rng.integers(-45, 31, 100_000)
    inside = _in_path(v)
    assert 60_000 < inside.sum() < v.size
    _assert_formats_as_python(v[inside])
    assert all(_refused(x) for x in v[_outside(v)][:2000].tolist())


@pytest.mark.usefixtures("formatter")
def test_powers_of_two_and_ten_and_their_neighbours():
    powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                             [float(f"1e{i}") for i in range(-323, 309)]])
    v = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    v = np.concatenate([v, -v])
    inside = _in_path(v)
    assert inside.sum() > 1000
    _assert_formats_as_python(v[inside])
    assert all(_refused(x) for x in v[_outside(v)].tolist())


def _ties(rng, per_shift):
    """Doubles j / 2**t, j odd, with 18 significant digits: the last is 5,
    so each lies exactly half-way between two 17-digit values."""
    out = []
    for t in range(2, 26):  # j < 2**53 needs t >= 2; t = 26 leaves no j
        lo = -(-10**17 // 5**t)
        hi = min((10**18 - 1) // 5**t, 2**53 - 1)
        j = rng.integers(lo, hi + 1, per_shift) | 1
        out.append(np.ldexp(j[j <= hi].astype(np.float64), -t))
    v = np.concatenate(out)
    return np.concatenate([v, -v])


@pytest.mark.usefixtures("formatter")
def test_exact_ties_round_half_to_even():
    v = _ties(np.random.default_rng(5), 2000)
    for x in v[::97].tolist():
        k = 16 - math.floor(math.log10(abs(x)))
        scaled = Fraction(abs(x)) * 10**k
        assert scaled - math.floor(scaled) == Fraction(1, 2), x
    _assert_formats_as_python(v)
    # "%.17e" gives the 18 digits exactly: the ties round both ways, as
    # the 17th digit is odd (up) or even (down)
    mantissas = ["%.17e" % x for x in v[::97].tolist()]
    assert {m[m.index("e") - 1] for m in mantissas} == {"5"}
    assert {int(m[m.index("e") - 2]) % 2 for m in mantissas} == {0, 1}


SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
           5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
           1e17, np.nextafter(1e17, 0.0), np.nextafter(1e17, math.inf), -1e17,
           1e-39, np.nextafter(1e-39, 0.0), np.nextafter(1e-39, 1.0), -1e-39,
           2.0**51, np.nextafter(2.0**51, 0.0), 1e16, 1e15, 1e300, 1.7976931348623157e308]


@pytest.mark.usefixtures("formatter")
@pytest.mark.parametrize("v", SPECIAL, ids=repr)
def test_special_values(v, tmp_path):
    """Zeros are formatted; NaN of either sign, infinities, subnormals and
    values at or beyond the range are refused; write_csv gives Python's
    bytes for each."""
    got = native.csv_rows(np.array([[v]]))
    if v == 0.0:
        assert got == _python_rows(np.array([[v]]))
    elif _outside(v):
        assert got is None
    else:
        assert got in (None, _python_rows(np.array([[v]])))
    block = np.full((3, 22), 0.25)
    block[1, 7] = v
    assert _csv_of(block, tmp_path) == _header() + _python_rows(block)


def _result(block):
    """A SimResult whose write_csv rows are block's, of width 22."""
    return hexreg.SimResult(
        times=block[:, 0], x=block[:, 1:17], x_hat=None, u_raw=block[:, 17],
        u_sat=block[:, 18], e=block[:, 19], y=block[:, 20:21],
        monitors={"V": block[:, 21]})


def _header():
    return ",".join(["t", *(f"x_{i}" for i in range(1, 17)),
                     "u_raw", "u_sat", "e", "y_1", "V"]).encode() + b"\n"


def _csv_of(block, tmp_path):
    hexreg.write_csv(_result(block), tmp_path / "out.csv")
    return (tmp_path / "out.csv").read_bytes()


@pytest.mark.usefixtures("formatter")
@pytest.mark.parametrize("odd", [math.nan, 1e300])
def test_refused_block_goes_to_python(odd, tmp_path):
    """One value csv_rows.c refuses, in the second of three 1024-row
    blocks, sends that block to Python; the file has Python's bytes."""
    rng = np.random.default_rng(3)
    block = rng.standard_normal((3000, 22)) * 300.0
    block[1500, 9] = odd
    assert native.csv_rows(block[:1024]) is not None
    assert native.csv_rows(block[1024:2048]) is None
    assert _csv_of(block, tmp_path) == _header() + _python_rows(block)


def test_without_the_library_write_csv_gives_the_same_bytes(
        tmp_path, monkeypatch, fresh_formatter):
    """With no `cc` on PATH and an empty cache, no library loads and
    Python formats every row, with the bytes of the library's CSV."""
    rng = np.random.default_rng(4)
    block = rng.standard_normal((2100, 22)) * 10.0 ** rng.integers(-8, 8, (2100, 22))
    want = _csv_of(block, tmp_path)
    native._library.cache_clear()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setenv("PATH", str(tmp_path / "no_bin"))
    private = tmp_path / "tmp"
    private.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(private))
    assert _csv_of(block, tmp_path) == want == _header() + _python_rows(block)
    assert native._entry("csv_rows") is None
    assert list(private.iterdir()) == []
