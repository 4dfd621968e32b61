/* The CSV text of sim.write_csv, formatted in integer arithmetic.
 *
 * csv_rows writes the rows of a C-contiguous (rows, width) float64 block
 * as the bytes of ",".join("%.17g" % v for v in row) + "\n", row after
 * row, and returns their count.  It uses no floating-point arithmetic, no
 * snprintf and no locale.
 *
 * Exactness.  A normal double is v = m 2^e with m < 2^53 an integer.  Let
 * q = floor(log10 |v|) and k = 16 - q; the 17 significant digits of |v|
 * are D = round(|v| 10^k) = round(m 5^k / 2^s), with the shift
 * s = -(e + k).  For k in [0, 55], 5^k < 2^128, so N = m 5^k < 2^181 is
 * held exactly in three 64-bit limbs.  D is N shifted right by s, rounded
 * half to even by comparing the s bits shifted out with 2^(s - 1).  Every
 * step is exact, so D is the correctly rounded 17-digit value that
 * CPython's dtoa gives, ties included.  The digits are then laid out as
 * CPython's format_float_short lays out 'g' at precision 17: exponent
 * form when decpt <= -4 or decpt > 17, a two-digit minimum exponent,
 * trailing zeros stripped, and "0" or "-0" for a zero.
 *
 * Refusal.  csv_rows formats nothing and returns -1, and the caller
 * formats the whole block itself, when any value of the block is NaN,
 * infinite or subnormal, or has k outside [0, 55] (|v| >= 1e17 or
 * |v| < 1e-39), or a shift s <= 0 (|v| >= 2^51).  So |decpt| < 40 on this
 * path, and every exponent has two digits.
 */

#include <stdint.h>
#include <string.h>

typedef unsigned __int128 u128;

enum { MAX_K = 55, DIGITS = 17 };

static const char PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233"
    "34353637383940414243444546474849505152535455565758596061626364656667"
    "6869707172737475767778798081828384858687888990919293949596979899";

/* floor(b log10 2), exact for |b| <= 1650 */
static int floor_log10_pow2(int b)
{
    return b >= 0 ? (b * 78913) >> 18 : -((-b * 78913 + (1 << 18) - 1) >> 18);
}

/* bits s..s+63 of the three-limb N, s in [0, 191] */
static uint64_t bits_from(const uint64_t n[3], int s)
{
    int i = s >> 6, off = s & 63;
    uint64_t lo = n[i] >> off;
    if (off && i < 2)
        lo |= n[i + 1] << (64 - off);
    return lo;
}

/* whether any of the bits 0..s-1 of N is set, s in [0, 191] */
static int any_below(const uint64_t n[3], int s)
{
    int i = s >> 6;
    for (int j = 0; j < i; j++)
        if (n[j])
            return 1;
    return (n[i] & ((UINT64_C(1) << (s & 63)) - 1)) != 0;
}

/* "%.17g" % v into out; returns its length, or -1 when v is refused */
static int format_value(double v, const u128 *pow5, char *out)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    char *p = out;
    if (bits >> 63)
        *p++ = '-';
    const uint64_t frac = bits & ((UINT64_C(1) << 52) - 1);
    const int field = (int)(bits >> 52) & 0x7ff;
    if (field == 0 && frac == 0) {
        *p++ = '0';
        return (int)(p - out);
    }
    if (field == 0 || field == 0x7ff)
        return -1;
    const uint64_t m = frac | UINT64_C(1) << 52;
    const int e = field - 1075;

    /* q is floor(log10 |v|) or one less; start from the larger */
    int k = 15 - floor_log10_pow2(e + 52);
    int s = -(e + k);
    if (k < 0 || k > MAX_K || s < 1)
        return -1;
    const u128 lo = (u128)m * (uint64_t)pow5[k];
    const u128 hi = (u128)m * (uint64_t)(pow5[k] >> 64);
    const u128 mid = (lo >> 64) + (uint64_t)hi;
    uint64_t n[3] = {(uint64_t)lo, (uint64_t)mid,
                     (uint64_t)(hi >> 64) + (uint64_t)(mid >> 64)};
    if (bits_from(n, s) < UINT64_C(10000000000000000)) {
        /* q was the smaller: N times 5 and one bit less of shift is
         * N 10 / 2^s, which has 17 digits */
        if (k == MAX_K || s == 1)
            return -1;
        u128 t = 0;
        for (int j = 0; j < 3; j++) {
            t = (u128)n[j] * 5 + (uint64_t)(t >> 64);
            n[j] = (uint64_t)t;
        }
        k++;
        s--;
    }
    uint64_t d = bits_from(n, s);
    if ((n[(s - 1) >> 6] >> ((s - 1) & 63) & 1) && (any_below(n, s - 1) || (d & 1)))
        d++;
    int decpt = DIGITS - k; /* |v| = 0.DIGITS 10^decpt */
    if (d == UINT64_C(100000000000000000)) {
        d /= 10;
        decpt++;
    }

    char dig[DIGITS];
    for (int i = DIGITS - 1; i > 0; i -= 2) {
        memcpy(dig + i - 1, PAIRS + 2 * (d % 100), 2);
        d /= 100;
    }
    dig[0] = (char)('0' + d);
    int nd = DIGITS;
    while (dig[nd - 1] == '0')
        nd--;

    if (decpt <= -4 || decpt > DIGITS) {
        int x = decpt - 1;
        *p++ = dig[0];
        if (nd > 1) {
            *p++ = '.';
            memcpy(p, dig + 1, nd - 1);
            p += nd - 1;
        }
        *p++ = 'e';
        *p++ = x < 0 ? '-' : '+';
        x = x < 0 ? -x : x;
        memcpy(p, PAIRS + 2 * x, 2);
        p += 2;
    } else if (decpt <= 0) {
        *p++ = '0';
        *p++ = '.';
        memset(p, '0', -decpt);
        p += -decpt;
        memcpy(p, dig, nd);
        p += nd;
    } else if (decpt >= nd) {
        memcpy(p, dig, nd);
        p += nd;
        memset(p, '0', decpt - nd);
        p += decpt - nd;
    } else {
        memcpy(p, dig, decpt);
        p += decpt;
        *p++ = '.';
        memcpy(p, dig + decpt, nd - decpt);
        p += nd - decpt;
    }
    return (int)(p - out);
}

/* The block's rows into out, which holds at least 24 bytes per value;
 * returns the count of bytes written, or -1 when a value is refused. */
int64_t csv_rows(const double *block, int64_t rows, int64_t width, char *out)
{
    u128 pow5[MAX_K + 1];
    pow5[0] = 1;
    for (int k = 1; k <= MAX_K; k++)
        pow5[k] = pow5[k - 1] * 5;

    char *p = out;
    for (int64_t r = 0; r < rows; r++) {
        for (int64_t c = 0; c < width; c++) {
            const int len = format_value(block[r * width + c], pow5, p);
            if (len < 0)
                return -1;
            p += len;
            *p++ = c + 1 < width ? ',' : '\n';
        }
    }
    return p - out;
}
