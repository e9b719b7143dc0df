"""Exact vectorized "%.17g": the bytes of ",%.17g" % v for a stack of floats.

Seventeen correctly rounded digits lie past the floating-point fast path of
Python's float-to-decimal conversion (Gay's dtoa, at most 14 digits), so
every value pays for bignum arithmetic there.  For 1e-4 <= |v| < 1e15,
which "%g" writes in fixed notation, the digits are computed here for a
whole stack in 128-bit integer arithmetic: with v = M * 2**E (M < 2**53)
and k = 16 - floor(log10 |v|),

    v * 10**k = M * 5**k * 2**(E + k),

so the 17 digits are M * 5**k (below 2**102) shifted right by -(E + k),
rounded half to even on the exact remainder.  Every other value (zeros,
exponent notation, |v| >= 1e15, subnormals, infinities, NaN) goes through
"%.17g" itself.

Every uint64 operation takes unsigned operands only: numpy promotes uint64
with a signed integer to float64.
"""

from __future__ import annotations

import numpy as np

# One value's slot, in five 8-byte words: the comma, the sign, "0.000" (for
# |v| < 1) and the first digit, then four groups of four digits with a '.'
# slot before each digit.  Digit i sits at column 2 * i + 7 and the '.' after
# it at 2 * i + 8.  A fallback string fits.
WIDTH = 40
_LEAD = np.frombuffer("".join(",-0.000%d" % d for d in range(10)).encode("ascii"), np.uint64)
# _GROUP[g] is ".d.d.d.d", the four digits of g < 10**4; 1 + 4 * j + _SIG[g]
# is one past the last significant digit when group j (from 0) is g, and
# below 1 when g is 0.
_GROUP = np.full((10, 10, 10, 10, 8), ord("."), dtype=np.uint8)
_SIG = np.full((10, 10, 10, 10), -16, dtype=np.int8)
for _i in range(4):
    _digit = np.arange(10).reshape((10,) + (1,) * (3 - _i))
    _GROUP[..., 2 * _i + 1] = ord("0") + _digit
    np.copyto(_SIG, _i + 1, where=_digit != 0)
_GROUP, _SIG = _GROUP.view(np.uint64).reshape(-1), _SIG.reshape(-1)

# Fixed notation covers decimal exponents -4 to 14 here; a first estimate
# may be off by one on either side.
_E10_MIN, _E10_MAX = -4, 14
_POW5 = np.array([5**k for k in range(16 - _E10_MIN + 2)], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
_ONE = np.uint64(1)


def _keep_table() -> np.ndarray:
    """Row (e10 - _E10_MIN) * 18 + nsig: the slot columns written for a
    positive value with decimal exponent e10 and nsig significant digits."""
    e10 = np.arange(_E10_MIN, _E10_MAX + 1)[:, None, None]
    nsig = np.arange(18)[None, :, None]
    col = np.arange(WIDTH)
    digit = np.where((col >= 7) & (col % 2 == 1), (col - 7) // 2, -1)  # digit i's column
    dot = np.where((col >= 8) & (col % 2 == 0), (col - 8) // 2, -1)  # the '.' after digit i
    fraction = (e10 < 0) & (((col >= 2) & (col < 3 - e10)) | ((digit >= 0) & (digit < nsig)))
    whole = (e10 >= 0) & (
        ((digit >= 0) & (digit < np.maximum(nsig, e10 + 1))) | ((dot == e10) & (nsig > e10 + 1))
    )
    return ((col == 0) | fraction | whole).reshape(-1, WIDTH)


_KEEP = _keep_table()


def _round_digits(mant, exp2, e10):
    """round(v * 10**(16 - e10)) for v = mant * 2**exp2, half to even, and
    whether it lies below 10**16 or from 10**17 up (e10 too large or too
    small)."""
    k = 16 - e10
    shift = -(exp2 + k)
    too_big = shift < 1  # then v * 10**k >= M * 5**k >= 2**52 * 5**2 > 10**17
    shift = np.maximum(shift, 1).astype(np.uint64)
    five = _POW5[k]
    # The 128-bit product mant * five as (hi, lo), from 32-bit limbs.
    m_hi, m_lo = mant >> 32, mant & _LOW32
    f_hi, f_lo = five >> 32, five & _LOW32
    low = m_lo * f_lo
    mid = m_lo * f_hi + m_hi * f_lo
    lo = low + ((mid & _LOW32) << 32)
    hi = m_hi * f_hi + (mid >> 32) + (lo < low)
    q = (lo >> shift) | (hi << (np.uint64(64) - shift))
    too_big |= (hi >> shift) != 0
    rem = lo & ((_ONE << shift) - _ONE)
    half = _ONE << (shift - _ONE)
    q += (rem > half) | ((rem == half) & ((q & _ONE) == _ONE))
    too_big |= q >= 10**17
    return q, too_big, q < 10**16


def _fixed(v):
    """The 17 digits as an integer in [10**16, 10**17), and the decimal
    exponent, of each positive v (n,) in [1e-4, 1e15)."""
    mant, exp2 = np.frexp(v)
    mant = (mant * 2.0**53).astype(np.uint64)
    exp2 = exp2.astype(np.int64) - 53
    e10 = np.clip(np.floor(np.log10(v)).astype(np.int64), _E10_MIN, _E10_MAX)
    q, big, small = _round_digits(mant, exp2, e10)
    redo = np.arange(len(v))
    while (wrong := big | small).any():
        # Near a power of ten: move the exponent by one and round again.
        redo = redo[wrong]
        e10[redo] += np.where(big[wrong], 1, -1)
        q[redo], big, small = _round_digits(mant[redo], exp2[redo], e10[redo])
    return q, e10


def format17(x) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of ",%.17g" % v for each v of the float array x (n,).

    Returns (text, keep), two (n, WIDTH) arrays of uint8 and bool: the kept
    bytes of row i, in order, are "," + format(x[i], ".17g").  Column 0 is
    the comma of every row, so a caller blanks field i by clearing
    keep[i, 1:].
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e15)  # False for NaN
    f = np.flatnonzero(fast)
    q, e10 = _fixed(a[f])
    # The 17 digits as the first and four groups of four, signed to index
    # the tables (a // b and a - (a // b) * b: numpy's divmod is slower).
    q = q.astype(np.int64)
    hi = q // 10**8
    lo = q - hi * 10**8
    lead = hi // 10**8
    hi -= lead * 10**8
    groups = []
    for half in (hi, lo):
        top = half // 10**4
        groups += [top, half - top * 10**4]
    words = np.empty((f.size, WIDTH // 8), dtype=np.uint64)
    words[:, 0] = _LEAD.take(lead)
    nsig = np.ones(f.size, dtype=np.intp)
    for j, g in enumerate(groups):
        words[:, j + 1] = _GROUP.take(g)
        nsig = np.maximum(nsig, _SIG.take(g) + (4 * j + 1))
    keep = _KEEP.take((e10 - _E10_MIN) * 18 + nsig, axis=0)
    keep[:, 1] = np.signbit(x[f])
    if f.size == x.size:
        return words.view(np.uint8), keep
    s = np.flatnonzero(~fast)
    strings = np.array([",%.17g" % v for v in x[s].tolist()], dtype=f"S{WIDTH}")
    slow = strings.view(np.uint8).reshape(s.size, WIDTH)
    # Back to the order of x: row i of x is row order[i] of [fast; slow].
    order = np.empty(x.size, dtype=np.intp)
    order[np.concatenate([f, s])] = np.arange(x.size)
    text = np.concatenate([words.view(np.uint8), slow]).take(order, axis=0)
    return text, np.concatenate([keep, slow != 0]).take(order, axis=0)
