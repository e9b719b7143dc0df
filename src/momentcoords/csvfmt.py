"""Exact vectorized "%.17g": the bytes of ",%.17g" % v for a stack of floats.

Seventeen correctly rounded digits lie past the floating-point fast path of
Python's float-to-decimal conversion (Gay's dtoa, at most 14 digits), so
every value pays for bignum arithmetic there.  For 1e-38 < |v| < 1e15,
whose decimal exponents e10 run from -38 to 14, the digits are computed
here for a whole stack, as round(v * 10**k) with k = 16 - e10, in one of
two ways per formatting pass, chosen from the pass's own values:

* Double-double, when every value lies from 1e-6 up: then k <= 22, so
  10**k is an exact double, and Dekker's TwoProduct on Veltkamp halves
  gives v * 10**k = hi + lo exactly.  hi is an even integer whenever the
  exponent is right (at least 10**16 > 2**53), so int(hi) + rint(lo)
  rounds half to even, and the range checks against 10**16 and 10**17
  are exact comparisons of hi, then of the sign of lo.
* Integer words, for any other pass: with v = M * 2**E (M < 2**53) and
  k <= 54,

      v * 10**k = M * 5**k * 2**(E + k),

  so the 17 digits are M * 5**k shifted right by -(E + k), rounded half
  to even on the exact remainder.  M * 5**k < 2**180 is held in three
  64-bit words, from 32-bit limb products: 5**k = 5**a * 5**b with both
  factors below 2**64.

A pass takes one way for all its values: a hexahedral pass holds face
noise below 1e-6, and splitting it between both ways costs more than the
integer words for all of it.  "%g" writes exponents -4 to 14 in fixed
notation and -38 to -5 as d.dddddddddddddddde-XX, and the kernel writes
both; it writes exact zeros too.  Every other value (|v| <= 1e-38,
|v| >= 1e15, subnormals, infinities, NaN) goes through "%.17g" itself.

Every uint64 operation takes unsigned operands only: numpy promotes uint64
with a signed integer to float64.
"""

from __future__ import annotations

import numpy as np

# One value's slot, in five 8-byte words.  In fixed notation: the comma, the
# sign, "0.000" (for |v| < 1) and the first digit, then four groups of four
# digits with a '.' slot before each digit; digit i sits at column 2 * i + 7
# and the '.' after it at 2 * i + 8.  In exponent notation: the comma, the
# sign, the first digit and the '.' (columns 0 to 3), the other 16 digits
# (4 to 19) and "e-XX" (20 to 23).  A zero is columns 0 to 2 of the fixed
# layout's first word.  A fallback string fits.
WIDTH = 40
_LEAD = np.frombuffer("".join(",-0.000%d" % d for d in range(10)).encode("ascii"), np.uint64)
_LEAD_EXP = np.frombuffer("".join(",-%d." % d for d in range(10)).encode("ascii"), np.uint32)
_EXPONENT = np.frombuffer("".join("e-%02d" % e for e in range(39)).encode("ascii"), np.uint32)
# _GROUP[g] is ".d.d.d.d" and _QUAD[g] "dddd", the four digits of g < 10**4;
# 1 + 4 * j + _SIG[g] is one past the last significant digit when group j
# (from 0) is g, and below 1 when g is 0.
_GROUP = np.full((10, 10, 10, 10, 8), ord("."), dtype=np.uint8)
_SIG = np.full((10, 10, 10, 10), -16, dtype=np.int8)
for _i in range(4):
    _digit = np.arange(10).reshape((10,) + (1,) * (3 - _i))
    _GROUP[..., 2 * _i + 1] = ord("0") + _digit
    np.copyto(_SIG, _i + 1, where=_digit != 0)
_QUAD = np.ascontiguousarray(_GROUP[..., 1::2]).view(np.uint32).reshape(-1)
_GROUP, _SIG = _GROUP.view(np.uint64).reshape(-1), _SIG.reshape(-1)

# The kernel's decimal exponents; a first estimate may be off by one on
# either side.  Fixed notation starts at _FIXED_MIN.
_E10_MIN, _FIXED_MIN, _E10_MAX = -38, -4, 14
# 5**k = _POW5[k] * _POW5_HIGH[k], each below 2**64, for k up to 16 - _E10_MIN.
_SPLIT = 27
_POW5 = np.array([5 ** min(k, _SPLIT) for k in range(17 - _E10_MIN)], dtype=np.uint64)
_POW5_HIGH = np.array([5 ** max(k - _SPLIT, 0) for k in range(17 - _E10_MIN)], dtype=np.uint64)
# 10**k for the exponents of _round_double_double, k = 16 - e10 <= 22, and
# the Veltkamp halves of each (26 bits and the rest).  The double nearest
# 1e-6 lies below it, so the values above _EXACT_MIN are those from 1e-6 up.
_EXACT_MIN, _EXACT_E10_MIN = 1e-6, -6
_VELTKAMP = 2.0**27 + 1.0
_POW10 = 10.0 ** np.arange(17 - _EXACT_E10_MIN)
_POW10_HI = _VELTKAMP * _POW10 - (_VELTKAMP * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_LOW32 = np.uint64(0xFFFFFFFF)
_ONE = np.uint64(1)
_CARRY32 = np.uint64(1 << 32)


def _keep_table() -> np.ndarray:
    """Row (e10 - _FIXED_MIN) * 18 + nsig: the slot columns written for a
    positive value in fixed notation with decimal exponent e10 and nsig
    significant digits; then row _EXP_ROWS + nsig for exponent notation, and
    _ZERO_ROW for a zero."""
    e10 = np.arange(_FIXED_MIN, _E10_MAX + 1)[:, None, None]
    nsig = np.arange(18)[None, :, None]
    col = np.arange(WIDTH)
    digit = np.where((col >= 7) & (col % 2 == 1), (col - 7) // 2, -1)  # digit i's column
    dot = np.where((col >= 8) & (col % 2 == 0), (col - 8) // 2, -1)  # the '.' after digit i
    fraction = (e10 < 0) & (((col >= 2) & (col < 3 - e10)) | ((digit >= 0) & (digit < nsig)))
    whole = (e10 >= 0) & (
        ((digit >= 0) & (digit < np.maximum(nsig, e10 + 1))) | ((dot == e10) & (nsig > e10 + 1))
    )
    fixed = (col == 0) | fraction | whole
    nsig = nsig[0]
    exponent = (col == 0) | (col == 2) | ((col == 3) & (nsig > 1))
    exponent |= ((col >= 4) & (col < 3 + nsig)) | ((col >= 20) & (col < 24))
    zero = (col == 0) | (col == 2)
    return np.concatenate([fixed.reshape(-1, WIDTH), exponent, zero[None]])


_KEEP = _keep_table()
_EXP_ROWS = (_E10_MAX - _FIXED_MIN + 1) * 18
_ZERO_ROW = _EXP_ROWS + 18


def _mul(x, y):
    """The 128-bit products of uint64 arrays x and y, as (high, low) words."""
    x_hi, x_lo = x >> 32, x & _LOW32
    y_hi, y_lo = y >> 32, y & _LOW32
    low, hl = x_lo * y_lo, x_hi * y_lo
    mid = x_lo * y_hi + hl
    lo = low + (mid << 32)
    return x_hi * y_hi + (mid >> 32) + (mid < hl) * _CARRY32 + (lo < low), lo


def _round_digits(mant, exp2, e10):
    """round(v * 10**(16 - e10)) for v = mant * 2**exp2, half to even, and
    whether v * 10**(16 - e10) lies from 10**17 up or below 10**16 (e10 too
    small or too large)."""
    k = 16 - e10
    shift = -(exp2 + k)
    too_big = shift < 1  # then v * 10**k >= M * 5**k >= 2**52 * 5**2 > 10**17
    hi, lo = _mul(mant, _POW5[k])
    sticky = 0
    # Rows whose 5**k has a second factor, or whose shift passes 63 bits.
    wide = np.flatnonzero((k > _SPLIT) | (shift > 63))
    if wide.size:
        # M * 5**k as three words (w2, w1, w0).  A shift past 63 bits takes
        # (w2, w1, w0) >> 63 as (hi, lo) and the rest of w0 as a sticky bit:
        # only whether it is zero counts for the rounding.  w2 is 0 below
        # that, since the quotient stays under 10**18 < 2**60.
        high, s = _POW5_HIGH[k[wide]], shift[wide]
        carry, w0 = _mul(lo[wide], high)
        w2, w1 = _mul(hi[wide], high)
        w1 += carry
        w2 += w1 < carry
        long = s > 63
        hi[wide] = np.where(long, (w2 << _ONE) | (w1 >> 63), w1)
        lo[wide] = np.where(long, (w1 << _ONE) | (w0 >> 63), w0)
        sticky = np.zeros_like(lo)
        sticky[wide] = long & ((w0 << _ONE) != 0)
        shift[wide] = np.where(long, s - 63, s)
    shift = np.maximum(shift, 1).astype(np.uint64)
    q = (lo >> shift) | (hi << (np.uint64(64) - shift))
    too_big |= (hi >> shift) != 0
    half = _ONE << (shift - _ONE)
    rem = lo & (half - _ONE + half)
    # Judge e10 on the digits before rounding: a rounding up to 10**16 is
    # still one digit short.
    too_big |= q >= 10**17
    small = q < 10**16
    # Up when the remainder passes half, or equals it and q is odd (half to
    # even) or the sticky bit is set.
    q += rem > half - ((q & _ONE) | sticky)
    return q, too_big, small


def _round_double_double(v, e10):
    """What _round_digits returns, for v (n,) with 10**(16 - e10) an exact
    double: v * 10**k = hi + lo exactly (Dekker's TwoProduct on Veltkamp
    halves), hi is an even integer (it is at least 2**53 whenever the
    flags pass), so rint(lo) rounds the sum half to even."""
    k = 16 - e10
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    t = _VELTKAMP * v
    v_hi = t - (t - v)
    v_lo = v - v_hi
    hi = v * _POW10[k]
    lo = v_hi * p_hi - hi
    lo += v_hi * p_lo
    lo += v_lo * p_hi
    lo += v_lo * p_lo
    big = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    small = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), big, small


def _digits(v):
    """The 17 digits as an integer in [10**16, 10**17), and the decimal
    exponent, of each positive v (n,) in (1e-38, 1e15).

    A pass whose values all lie above _EXACT_MIN takes _round_double_double;
    any other takes the integer words of _round_digits, for the whole pass.
    """
    e10 = np.floor(np.log10(v)).astype(np.int64)
    if v.min(initial=1.0) > _EXACT_MIN:
        round_, args = _round_double_double, (v,)
        # The exponents are at least -6 here, so no estimate needs less.
        np.clip(e10, _EXACT_E10_MIN, _E10_MAX, out=e10)
    else:
        mant, exp2 = np.frexp(v)
        mant = (mant * 2.0**53).astype(np.uint64)
        round_, args = _round_digits, (mant, exp2.astype(np.int64) - 53)
        np.clip(e10, _E10_MIN, _E10_MAX, out=e10)
    q, big, small = round_(*args, e10)
    redo = np.arange(len(v))
    while (wrong := big | small).any():
        # Near a power of ten: move the exponent by one and round again.
        redo = redo[wrong]
        e10[redo] += np.where(big[wrong], 1, -1)
        q[redo], big, small = round_(*(a[redo] for a in args), e10[redo])
    # A rounding up to 10**17 is 10**16 at the next exponent.
    carry = q == 10**17
    return np.where(carry, 10**16, q), e10 + carry


def _split(q):
    """The first digit, the four groups of four digits and the number of
    significant digits of each q (n,) in [10**16, 10**17).

    Signed, to index the tables (a // b and a - (a // b) * b: numpy's
    divmod is slower).
    """
    q = q.astype(np.int64)
    hi = q // 10**8
    lo = q - hi * 10**8
    lead = hi // 10**8
    hi -= lead * 10**8
    groups = []
    for half in (hi, lo):
        top = half // 10**4
        groups += [top, half - top * 10**4]
    nsig = np.ones(q.size, dtype=np.intp)
    for j, group in enumerate(groups):
        nsig = np.maximum(nsig, _SIG.take(group) + (4 * j + 1))
    return lead, groups, nsig


def format17(x) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of ",%.17g" % v for each v of the float array x (n,).

    Returns (text, keep), two (n, WIDTH) arrays of uint8 and bool: the kept
    bytes of row i, in order, are "," + format(x[i], ".17g").  Column 0 is
    the comma of every row, so a caller blanks field i by clearing
    keep[i, 1:].  The kernel writes zeros and every value with
    1e-38 < |v| < 1e15 in one digit pass over the stack; the rest go
    through "%.17g" one at a time.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e15)  # False for NaN
    # The double nearest 1e-38 is 9.9999999999999996e-39, so this bound is
    # strict; and no double below 1e-4 rounds up to fixed notation.
    small = (a > 1e-38) & (a < 1e-4)
    # One digit pass, with zeros and the fallback rows as 1.0, writes every
    # row in fixed notation; the rows in exponent notation are then
    # rewritten in their layout.
    q, e10 = _digits(np.where(fixed | small, a, 1.0))
    lead, groups, nsig = _split(q)
    words = np.empty((x.size, WIDTH // 8), dtype=np.uint64)
    words[:, 0] = _LEAD.take(lead)
    for j, group in enumerate(groups):
        words[:, j + 1] = _GROUP.take(group)
    row = (e10 - _FIXED_MIN) * 18 + nsig
    np.copyto(row, _ZERO_ROW, where=a == 0.0)  # ",-0" is in every first word
    g = np.flatnonzero(small)
    if g.size:
        exp_words = np.zeros((g.size, WIDTH // 4), dtype=np.uint32)
        exp_words[:, 0] = _LEAD_EXP.take(lead[g])
        for j, group in enumerate(groups):
            exp_words[:, j + 1] = _QUAD.take(group[g])
        exp_words[:, 5] = _EXPONENT.take(-e10[g])
        words[g] = exp_words.view(np.uint64)
        row[g] = _EXP_ROWS + nsig[g]
    text, keep = words.view(np.uint8), _KEEP.take(row, axis=0)
    keep[:, 1] = np.signbit(x)
    s = np.flatnonzero(~(fixed | small) & (a != 0.0))
    if s.size:
        strings = np.array([",%.17g" % v for v in x[s].tolist()], dtype=f"S{WIDTH}")
        text[s] = strings.view(np.uint8).reshape(s.size, WIDTH)
        keep[s] = text[s] != 0
    return text, keep
