"""Exact vectorized "%.17g": the bytes of ",%.17g" % v for a stack of floats.

Seventeen correctly rounded digits lie past the floating-point fast path of
Python's float-to-decimal conversion (Gay's dtoa, at most 14 digits), so
every value pays for bignum arithmetic there.  For 1e-29 < |v| < 1e15,
whose decimal exponents e10 run from -29 to 14, the digits are computed
here for a whole stack, as round(v * 10**k) with k = 16 - e10, in
double-double arithmetic:

* For k <= 45, 10**k = P + T exactly in two doubles (T is 0 for k <= 22),
  and Dekker's TwoProduct on Veltkamp halves gives v * P = hi + lo
  exactly.  hi is an even integer whenever the exponent is right (at
  least 10**16 > 2**53), so int(hi) + rint(lo) rounds half to even, and
  for k <= 22 that is the exact rounding.
* For k > 22, v * T (below 12 in magnitude there) is added to hi by
  Dekker's FastTwoSum, and the sum's error to lo.  The two roundings
  leave lo within 2**-48 of the exact remainder.  A value within 2**-40
  of a rounding tie, or of 10**16 or 10**17, is unsure and goes through
  "%.17g" itself, as Grisu3 (Loitsch, PLDI 2010) hands back what it
  cannot certify; exact ties such as 3 * 2**-24 * 10**23, which ends in
  .5, are among them.

The range checks compare lo with 10**16 - hi and 10**17 - hi, which are
exact near those bounds.  "%g" writes exponents -4 to 14 in fixed notation
and -29 to -5 as d.dddddddddddddddde-XX, and the kernel writes both; it
writes exact zeros too.  Every other value (|v| <= 1e-29, |v| >= 1e15,
subnormals, infinities, NaN) goes through "%.17g" itself.
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
# The sign byte, in a slot's first word.
_MINUS = np.frombuffer(b"\0-\0\0\0\0\0\0", np.uint64)[0]
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
_E10_MIN, _FIXED_MIN, _E10_MAX = -29, -4, 14
_EXPONENT = np.frombuffer("".join("e-%02d" % e for e in range(1 - _E10_MIN)).encode("ascii"), np.uint32)
# 10**k = _POW10[k] + _POW10_TAIL[k] exactly, for the exponents k = 16 - e10
# of the kernel; the tail is 0 up to _EXACT_K.  _POW10_HI and _POW10_LO are
# the Veltkamp halves of _POW10 (26 bits and the rest).
_EXACT_K = 22
_POW10 = np.array([float(10**k) for k in range(17 - _E10_MIN)])
_POW10_TAIL = np.array([float(10**k - int(p)) for k, p in enumerate(_POW10.tolist())])
_VELTKAMP = 2.0**27 + 1.0
_POW10_HI = _VELTKAMP * _POW10 - (_VELTKAMP * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# How near a tie or a range bound a remainder within 2**-48 of the exact
# one leaves its rounding unsure.
_UNSURE = 2.0**-40


def _keep_table() -> np.ndarray:
    """Row (e10 - _FIXED_MIN) * 18 + nsig: the slot columns written for a
    positive value in fixed notation with decimal exponent e10 and nsig
    significant digits; then row _EXP_ROWS + nsig for exponent notation, and
    _ZERO_ROW for a zero.  As word masks: 0xFF for a kept byte, 0 for
    another, five uint64 words per row."""
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
    keep = np.concatenate([fixed.reshape(-1, WIDTH), exponent, zero[None]])
    return np.where(keep, 0xFF, 0).astype(np.uint8).view(np.uint64)


_KEEP = _keep_table()
_EXP_ROWS = (_E10_MAX - _FIXED_MIN + 1) * 18
_ZERO_ROW = _EXP_ROWS + 18


def _round(v, e10):
    """round(v * 10**k) for k = 16 - e10 and v (n,), half to even; whether
    v * 10**k lies from 10**17 up or below 10**16 (e10 too small or too
    large); and whether the value is unsure: k > 22 and v * 10**k within
    2**-40 of a tie or of either bound.  An unsure value has neither flag."""
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
    unsure = np.zeros(v.shape, dtype=bool)
    wide = np.flatnonzero(k > _EXACT_K)
    if wide.size:
        # hi + lo + v * tail: |v * tail| <= 2**-53 v * 10**k, so hi leads
        # the FastTwoSum, and v * tail (below 16, rounded within 2**-50)
        # and the sum of lo and the sum's error (within 2**-49) leave lo
        # within 2**-48 of the exact remainder.
        h, tail = hi[wide], v[wide] * _POW10_TAIL[k[wide]]
        hi[wide] = s = h + tail
        lo[wide] = r = lo[wide] + (tail - (s - h))
        tie = np.abs(np.abs(r - np.rint(r)) - 0.5)
        bound = np.minimum(np.abs(r - (1e16 - s)), np.abs(r - (1e17 - s)))
        unsure[wide] = np.minimum(tie, bound) < _UNSURE
    # Exact for k <= 22, and near the bounds, where the differences are.
    sure = ~unsure
    big = (1e17 - hi <= lo) & sure
    small = (1e16 - hi > lo) & sure
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), big, small, unsure


def _digits(v):
    """The 17 digits as an integer in [10**16, 10**17), and the decimal
    exponent, of each positive v (n,) in (1e-29, 1e15); and whether the
    digits are unsure, for the caller to format those values otherwise."""
    e10 = np.floor(np.log10(v)).astype(np.int64)
    np.clip(e10, _E10_MIN, _E10_MAX, out=e10)
    q, big, small, unsure = _round(v, e10)
    redo = np.arange(len(v))
    while (wrong := big | small).any():
        # Near a power of ten: move the exponent by one and round again.
        redo = redo[wrong]
        e10[redo] += np.where(big[wrong], 1, -1)
        q[redo], big, small, unsure[redo] = _round(v[redo], e10[redo])
    # A rounding up to 10**17 is 10**16 at the next exponent.
    carry = q == 10**17
    return np.where(carry, 10**16, q), e10 + carry, unsure


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


def format17(x) -> np.ndarray:
    """The bytes of ",%.17g" % v for each v of the float array x (n,).

    Returns an (n, WIDTH) uint8 array whose row i holds the bytes of
    "," + format(x[i], ".17g") in order, with zero bytes between and after
    them; no formatted byte is zero, so deleting the zeros joins the
    fields.  Column 0 is the comma of every row, so a caller blanks field i
    by zeroing row i from column 1.  The kernel writes zeros and every
    value with 1e-29 < |v| < 1e15 in one digit pass over the stack; the
    rest, and the few whose rounding the kernel cannot certify, go through
    "%.17g" one at a time.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e15)  # False for NaN
    # The double nearest 1e-29 is 9.9999999999999994e-30, so this bound is
    # strict; and no double below 1e-4 rounds up to fixed notation.
    small = (a > 1e-29) & (a < 1e-4)
    # One digit pass, with zeros and the fallback rows as 1.0, writes every
    # row in fixed notation; the rows in exponent notation are then
    # rewritten in their layout.
    q, e10, unsure = _digits(np.where(fixed | small, a, 1.0))
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
    # The masks clear the sign column; the negative rows set it again.
    words &= _KEEP.take(row, axis=0)
    words[np.flatnonzero(np.signbit(x)), 0] |= _MINUS
    text = words.view(np.uint8)
    s = np.flatnonzero(~(fixed | small) & (a != 0.0) | unsure)
    if s.size:
        strings = np.array([",%.17g" % v for v in x[s].tolist()], dtype=f"S{WIDTH}")
        text[s] = strings.view(np.uint8).reshape(s.size, WIDTH)
    return text
