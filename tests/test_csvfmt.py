"""csvfmt.format17 writes exactly the bytes of "," + format(v, ".17g")."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentcoords import csvfmt
from momentcoords.csvfmt import WIDTH, format17


def _expected(x):
    return [("," + format(v, ".17g")).encode("ascii") for v in x.tolist()]


def _assert_formats(x):
    """format17(x) holds "," + format(v, ".17g") for each v of x, with zero
    bytes between and after.  A mismatch reports its first value, not a
    diff of the whole stack."""
    text = format17(x)
    assert text.shape == (len(x), WIDTH) and text.dtype == np.uint8
    expected = _expected(x)
    if text.tobytes().translate(None, b"\0") == b"".join(expected):
        return
    for i, (v, want) in enumerate(zip(x.tolist(), expected)):
        got = text[i].tobytes().translate(None, b"\0")
        if got != want:
            pytest.fail(f"value {i} ({v!r}): expected {want!r}, got {got!r}", pytrace=False)


def _near(values, ulps=3):
    """values and their neighbours within ulps units in the last place."""
    out = [np.asarray(values, dtype=float)]
    below = above = out[0]
    for _ in range(ulps):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [below, above]
    return np.concatenate(out)


def _ties():
    # K / 2**18 with K odd has 18 fraction bits, so its decimal expansion has
    # 18 digits after the point: from K = 26215 on (|v| >= 0.1) its 18th
    # significant digit is a 5 with nothing after it, a tie to even.
    return np.arange(26215, 2**18, 2) / 2.0**18


def _ties_past_22():
    # v * 10**k is a tie, m * 5**k / 2 with m odd, for v = m / 2**(k + 1);
    # from 10**16 up that leaves k = 23 (m = 3 to 15) and k = 24 (m = 1, 3),
    # 3 * 2**-24 * 10**23 = 17881393432617187.5 among them.  No double has
    # a tie for k = 25 to 45: m * 5**k / 2 passes 10**17 from m = 1 on.
    return np.array([
        m * 2.0 ** -(k + 1)
        for k in range(23, 46)
        for m in range(1, -(-2 * 10**17 // 5**k), 2)
        if m * 5**k >= 2 * 10**16
    ])


def _near_ties(ks=range(23, 32), scale=-60, per_k=2):
    """Doubles whose v * 10**k lies near a tie but not at it, a few per k,
    from 2**54 up: d * 2**scale away for the first d = 1, 2, ... that give a
    double (d units of the last fraction bit where that is coarser).  With
    v = M * 2**E, M of 53 bits, M * 5**k * 2**(E + k) has F fraction bits,
    and its fraction is 1/2 + s / 2**F for M = (2**(F - 1) + s) / 5**k
    mod 2**F."""
    out = []
    for k in ks:
        b = (5**k).bit_length()
        f, e = b - 3, 3 - b - k  # M * 5**k * 2**-f lies in [2**54, 2**56)
        inverse = pow(5**k, -1, 2**f)
        unit = 2 ** max(f + scale, 0)
        found = 0
        for d in range(1, 1 << 18):
            for s in (d * unit, -d * unit):
                m = (2 ** (f - 1) + s) * inverse % 2**f
                if f <= 52:
                    m |= 1 << 52
                if 2**52 <= m < 2**53:
                    out.append(math.ldexp(m, e))
                    found += 1
            if found >= per_k:
                break
    return np.array(out)


def _decades():
    # Near a power of ten the first estimate of the decimal exponent is off
    # by one, and just below it the 17 digits are nines; the doubles nearest
    # 1e-28, 1e-23 and others lie below them, so rounding to the estimated
    # exponent reaches 10**16 exactly.
    return _near(10.0 ** np.arange(-40, 17))


def _edges():
    # The bounds of the ranges the kernel computes itself: exponent notation
    # from 1e-29 (whose double is 9.9999999999999994e-30) to 1e-5, fixed
    # notation from 1e-4 to 1e15; 1e-38, in the "%.17g" range below the
    # kernel's, and 1e-6 and 1e-7, around the last power of ten that is a
    # double (10**22).
    return _near([1e-38, 1e-29, 1e-7, 1e-6, 1e-5, 1e-4, 1e15], ulps=3)


def _face_noise():
    # Rounding noise as hexahedral grids have it, +-j * 2**-e: exponent
    # notation, and below 1e-29 "%.17g" itself.
    j = np.arange(1, 65, dtype=float)[:, None]
    e = np.arange(53, 141, dtype=float)
    return np.concatenate([j * 2.0**-e, -j * 2.0**-e], axis=None)


def _special():
    # Zeros, subnormals, the smallest normal, exponent notation, infinity,
    # NaN of either sign ("%.17g" writes both as nan).
    tiny = np.nextafter(0.0, 1.0)
    nan = np.array([np.nan])
    return np.concatenate([[0.0, tiny, 1e-310, 2.2250738585072014e-308, 1e300, np.inf], nan, -nan])


def _random_bits():
    # Both signs, and mostly exponent notation.
    bits = np.random.default_rng(24).integers(0, 2**64, 200_000, dtype=np.uint64)
    x = bits.view(np.float64)
    return x[np.isfinite(x)]


def _uniform():
    return np.random.default_rng(24).random(200_000)


def _log_uniform(low, high, n=200_000):
    # Magnitudes log-uniform over [low, high), both signs.
    rng = np.random.default_rng(37)
    x = 10.0 ** rng.uniform(np.log10(low), np.log10(high), n)
    return np.where(rng.random(x.size) < 0.5, -x, x)


CORPORA = {
    "ties": _ties,
    "ties-past-22": lambda: _near(_ties_past_22(), ulps=2),
    "near-ties": _near_ties,
    "near-ties-outside": lambda: _near_ties(scale=-38),
    "decades": _decades,
    "edges": _edges,
    "face-noise": _face_noise,
    "special": _special,
    "random-bits": _random_bits,
    "uniform": _uniform,
    "below-1e-6": lambda: _log_uniform(1e-29, 1e-6, 50_000),
    "empty": lambda: np.zeros(0),
}


@pytest.mark.parametrize("values", CORPORA.values(), ids=CORPORA.keys())
def test_format17_equals_format(values):
    _assert_formats(values())


@pytest.mark.parametrize("values", [_decades, _edges, _special], ids=["decades", "edges", "special"])
def test_format17_equals_format_negated(values):
    _assert_formats(-values())


@pytest.mark.parametrize("values", CORPORA.values(), ids=CORPORA.keys())
def test_format17_fields_hold_no_zero_byte(values):
    # cli._format_rows joins the fields by deleting every zero byte, so no
    # byte of a field may be zero: each row holds as many nonzero bytes as
    # its field has, and "%.17g" writes none.
    x = values()
    expected = _expected(x)
    assert not any(b"\0" in field for field in expected)
    written = np.count_nonzero(format17(x), axis=1)
    wrong = np.flatnonzero(written != [len(field) for field in expected])
    assert wrong.size == 0, (x[wrong[0]], written[wrong[0]], expected[wrong[0]])


def test_format17_ties_round_half_to_even():
    # 26215 / 2**18 = 0.100002288818359375 and 26217 / 2**18 =
    # 0.100009918212890625 end in a 5 after the 17th digit: the first
    # rounds up to an even digit, the second keeps its even digit.
    text = format17(np.array([26215, 26217]) / 2.0**18)
    assert text.tobytes().translate(None, b"\0") == b",0.10000228881835938,0.10000991821289062"


def test_ties_past_22_take_the_fallback_half_to_even():
    # Past k = 22 the remainder is not exact, so a tie is unsure and goes
    # through "%.17g", which rounds it half to even: 3 * 2**-24 * 10**23 =
    # 17881393432617187.5 is written ...188, 5 * 2**-24 * 10**23 =
    # 29802322387695312.5 keeps its ...312.
    x = np.array([3, 5]) * 2.0**-24
    assert csvfmt._digits(x)[2].tolist() == [True, True]
    text = format17(x)
    assert text.tobytes().translate(None, b"\0") == b",1.7881393432617188e-07,2.9802322387695312e-07"
    ties = _ties_past_22()
    assert ties.size == 9 and csvfmt._digits(ties)[2].all()


def test_format17_blanks_by_clearing_all_but_the_comma():
    text = format17(np.array([0.5, -3.25, 0.0]))
    text[1, 1:] = 0
    assert text.tobytes().translate(None, b"\0") == b",0.5,,0"


def test_format17_log_uniform_from_1e_8():
    # Log-uniform magnitudes from 1e-8 to 1e15, both signs, with the double
    # nearest 1e-6 (which lies below it) and its neighbours: as one call,
    # and by range on either side of 1e-6 (10**22 is the last power of ten
    # that is a double).
    x = np.concatenate([_near([1e-6, 1e-7, 1e15], ulps=3), _log_uniform(1e-8, 1e15)])
    _assert_formats(x)
    above = np.abs(x) > 1e-6
    _assert_formats(x[above])
    _assert_formats(x[~above])


def test_powers_of_ten_are_exact_double_doubles():
    # 10**k = _POW10[k] + _POW10_TAIL[k] for every k of the kernel, with no
    # tail up to 10**22, and the Veltkamp halves add up to _POW10.
    assert len(csvfmt._POW10) == 46
    for k, (p, tail) in enumerate(zip(csvfmt._POW10.tolist(), csvfmt._POW10_TAIL.tolist())):
        assert int(p) + int(tail) == 10**k
        assert (tail == 0.0) == (k <= csvfmt._EXACT_K)
    assert (csvfmt._POW10_HI + csvfmt._POW10_LO == csvfmt._POW10).all()


def _exact(v, k):
    """v * 10**k as a fraction, and its value rounded half to even."""
    product = Fraction(v) * 10**k
    return product, round(product)


def test_round_matches_an_exact_reference_at_every_estimated_exponent():
    # _round's digits (rounded half to even) and range flags against
    # Fraction arithmetic, for each value at its decimal exponent and one
    # off on either side, as a first estimate may be, k from 2 to 45.  Only
    # a value whose exact v * 10**k lies within 2**-40 of a tie or of a
    # range bound may be unsure, and only for k > 22.  fl(1e-6) * 10**22
    # lies just below 10**16 and fl(0.1) * 10**18 just above 10**17, and
    # both round to the bound: only lo tells the range there.
    v = np.concatenate([
        _near([1e-29, 1e-28, 1e-23, 1e-7, 1e-6, 1e-5, 1e-4, 0.1, 0.5, 1.0, 1e14], ulps=2),
        np.abs(_log_uniform(1e-29, 1e15, 6_000)),
        _near(_ties_past_22(), ulps=1),
        _near_ties(),
        _near_ties(scale=-38),
    ])
    v = v[(v > 1e-29) & (v < 1e15)]
    true_e10 = np.array([int(format(x, ".16e").split("e")[1]) for x in v.tolist()])
    assert true_e10.min() == -29 and true_e10.max() == 14
    margin = Fraction(1, 2**40)
    for off in (-1, 0, 1):
        e10 = np.clip(true_e10 + off, csvfmt._E10_MIN, csvfmt._E10_MAX)
        q, big, small, unsure = csvfmt._round(v, e10)
        for i, (x, e) in enumerate(zip(v.tolist(), e10.tolist())):
            k = 16 - e
            product, rounded = _exact(x, k)
            if unsure[i]:
                near_tie = abs(product - rounded) > Fraction(1, 2) - margin
                near_bound = min(abs(product - 10**16), abs(product - 10**17)) < margin
                assert k > csvfmt._EXACT_K and (near_tie or near_bound), (x, k)
                assert not big[i] and not small[i]
                continue
            assert (big[i], small[i]) == (product >= 10**17, product < 10**16), (x, k)
            if not (big[i] or small[i]):
                assert e == true_e10[i] and q[i] == rounded, (x, k, q[i], rounded)
    # The near ties within 2**-40 are all unsure, those 2**-38 away none.
    assert csvfmt._digits(_near_ties())[2].all()
    assert not csvfmt._digits(_near_ties(scale=-38))[2].any()


def test_kernel_starts_above_the_double_nearest_1e_29():
    # The double nearest 1e-29 lies below it, so it and the doubles under it
    # go through "%.17g" (exponent -30); the next one up is the smallest
    # value the kernel writes, with k = 45.
    nearest = 1e-29
    assert Fraction(nearest) < Fraction(1, 10**29)
    above = np.nextafter(nearest, 1.0)
    assert Fraction(above) > Fraction(1, 10**29)
    q, e10, unsure = csvfmt._digits(np.array([above]))
    assert e10.tolist() == [-29] and not unsure[0]
    assert q[0] == _exact(above, 45)[1]
    assert format(nearest, ".17g") == "9.9999999999999994e-30"
    _assert_formats(np.concatenate([_near([nearest]), -_near([nearest])]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_format17_equals_format_on_any_floats(values):
    _assert_formats(np.array(values, dtype=float))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(1e-6, 1e15, exclude_min=True, exclude_max=True), min_size=1, max_size=64))
def test_format17_equals_format_on_double_double_floats(values):
    # The values whose 10**k is a double: the product is exact.
    _assert_formats(np.array(values, dtype=float))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(1e-29, 1e-6, exclude_min=True), min_size=1, max_size=64))
def test_format17_equals_format_below_1e_6(values):
    # The values whose 10**k has a tail: face noise of hexahedral grids.
    _assert_formats(np.array(values, dtype=float))
