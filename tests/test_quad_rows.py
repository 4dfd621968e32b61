"""The compiled quadratic forms of the monitors: the bits of
np.einsum("ij,jk,ik->i", x, P, x) on every block the compiled loop takes,
and einsum itself on every other block."""

import numpy as np
import pytest

from hexreg import native

WIDTHS = (1, 2, 3, 16, 40, 64)
# every row count up to 9 (two groups of four and the tail), the counts
# around the kernel's 1024-row blocks, and the largest asked for
ROWS = (*range(1, 10), 63, 255, 1023, 1024, 1025, 1100)


@pytest.fixture(scope="module")
def compiled():
    if native._entry("quad_rows") is None:
        pytest.skip("no library here: no cc, or the build failed")


def einsum(x, P):
    return np.einsum("ij,jk,ik->i", x, P, x)


def assert_same_bits(got, want):
    """The same bits in every entry, except that a NaN need only be a NaN
    where einsum's is: its sign and payload depend on operand order."""
    nan = np.isnan(want)
    assert got.dtype == want.dtype and np.array_equal(np.isnan(got), nan)
    bits = f"i{want.itemsize}"
    assert np.array_equal(got.view(bits)[~nan], want.view(bits)[~nan])


def _spread(rng, shape, lo, hi):
    """Normal values scaled by powers of 2 drawn from [lo, hi)."""
    return rng.standard_normal(shape) * np.ldexp(1.0, rng.integers(lo, hi, shape))


@pytest.mark.usefixtures("compiled")
@pytest.mark.parametrize("n", WIDTHS)
def test_matches_einsum_bit_for_bit(n):
    """Each row count and width, with entries of one scale and of scales
    that span the exponent range, so that some sums cancel, overflow, or
    end in subnormals."""
    rng = np.random.default_rng(n)
    for rows in ROWS:
        for lo, hi in ((0, 1), (-40, 40), (-700, 340), (-1074, -900), (300, 520)):
            x = _spread(rng, (rows, n), lo, hi)
            P = _spread(rng, (n, n), lo // 2, (hi + 1) // 2)
            with np.errstate(all="ignore"):
                assert_same_bits(native.quad_rows(x, P), einsum(x, P))


@pytest.mark.usefixtures("compiled")
@pytest.mark.parametrize("n", WIDTHS)
def test_signed_zeros_nan_and_infinities(n):
    """Rows and forms of +0.0 and -0.0 entries, and rows holding NaN or an
    infinity among finite entries, give einsum's zeros, infinities and
    NaN positions."""
    rng = np.random.default_rng(100 + n)
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])
    rows = 1100
    x = rng.standard_normal((rows, n))
    x[rng.random((rows, n)) < 0.3] = -0.0
    x[: rows // 2][rng.random((rows // 2, n)) < 0.5] = 0.0
    pick = rng.random((rows, n)) < 0.02
    x[pick] = rng.choice(special, pick.sum())
    x[7] = -0.0
    x[8] = 0.0
    for P in (rng.standard_normal((n, n)), np.zeros((n, n)), np.full((n, n), -0.0),
              np.where(rng.random((n, n)) < 0.5, -0.0, rng.standard_normal((n, n)))):
        with np.errstate(all="ignore"):
            assert_same_bits(native.quad_rows(x, P), einsum(x, P))


@pytest.mark.parametrize("layout", ["fortran", "strided", "x_strided", "float32",
                                    "8_products"])
def test_other_blocks_go_to_einsum(layout, monkeypatch):
    """An F-ordered or strided P, a strided x, another dtype or a block of
    8 products never reaches the compiled loop (einsum sums an F-ordered
    P's products k outer, and a block of two 2-entry rows j by j, so the
    loop's order would change the bits), and the result is einsum's."""
    rng = np.random.default_rng(5)
    x = _spread(rng, (1100, 16), -40, 40)
    P = _spread(rng, (16, 16), -20, 20)
    if layout == "fortran":
        P = np.asfortranarray(P)
    elif layout == "strided":
        P = _spread(rng, (32, 32), -20, 20)[::2, ::2]
    elif layout == "x_strided":
        x = _spread(rng, (1100, 32), -40, 40)[:, ::2]
    elif layout == "float32":
        x, P = x.astype(np.float32), P.astype(np.float32)
    else:
        x, P = x[:2, :2].copy(), P[:2, :2].copy()

    def loop(*args):
        pytest.fail("the compiled loop ran")

    monkeypatch.setattr(native, "_entry", lambda name: loop)
    assert_same_bits(native.quad_rows(x, P), einsum(x, P))
