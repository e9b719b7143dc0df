"""csvfmt.format17 writes exactly the bytes of "," + format(v, ".17g")."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentcoords import csvfmt
from momentcoords.csvfmt import WIDTH, format17


def _kernel(x):
    text, keep = format17(x)
    assert text.shape == keep.shape == (len(x), WIDTH)
    assert text.dtype == np.uint8 and keep.dtype == bool
    return text.reshape(-1)[keep.reshape(-1)].tobytes().decode("ascii")


def _reference(x):
    return "".join("," + format(v, ".17g") for v in x.tolist())


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


def _decades():
    # Near a power of ten the first estimate of the decimal exponent is off
    # by one, and just below it the 17 digits are nines; the doubles nearest
    # 1e-28, 1e-23 and others lie below them, so rounding to the estimated
    # exponent reaches 10**16 exactly.
    return _near(10.0 ** np.arange(-40, 17))


def _edges():
    # The bounds of the ranges the kernel computes itself: exponent notation
    # from 1e-38 (whose double is 9.9999999999999996e-39) to 1e-5, fixed
    # notation from 1e-4 to 1e15.
    return _near([1e-38, 1e-5, 1e-4, 1e15], ulps=3)


def _face_noise():
    # Rounding noise as hexahedral grids have it, +-j * 2**-e: exponent
    # notation, and below 1e-38 "%.17g" itself.
    j = np.arange(1, 65, dtype=float)[:, None]
    e = np.arange(53, 131, dtype=float)
    return np.concatenate([j * 2.0**-e, -j * 2.0**-e], axis=None)


def _special():
    # Zeros, subnormals, the smallest normal, exponent notation, infinity.
    tiny = np.nextafter(0.0, 1.0)
    return np.array([0.0, tiny, 1e-310, 2.2250738585072014e-308, 1e300, np.inf])


def _random_bits():
    # Both signs, and mostly exponent notation.
    bits = np.random.default_rng(24).integers(0, 2**64, 200_000, dtype=np.uint64)
    x = bits.view(np.float64)
    return x[np.isfinite(x)]


def _uniform():
    return np.random.default_rng(24).random(200_000)


@pytest.mark.parametrize(
    "values",
    [_ties, _decades, _edges, _face_noise, _special, _random_bits, _uniform, lambda: np.zeros(0)],
    ids=["ties", "decades", "edges", "face-noise", "special", "random-bits", "uniform", "empty"],
)
def test_format17_equals_format(values):
    x = values()
    assert _kernel(x) == _reference(x)


@pytest.mark.parametrize("values", [_decades, _edges, _special], ids=["decades", "edges", "special"])
def test_format17_equals_format_negated(values):
    x = -values()
    assert _kernel(x) == _reference(x)


def test_format17_ties_round_half_to_even():
    # 26215 / 2**18 = 0.100002288818359375 and 26217 / 2**18 =
    # 0.100009918212890625 end in a 5 after the 17th digit: the first
    # rounds up to an even digit, the second keeps its even digit.
    assert _kernel(np.array([26215, 26217]) / 2.0**18) == (
        ",0.10000228881835938,0.10000991821289062"
    )


def test_format17_blanks_by_clearing_all_but_the_comma():
    text, keep = format17(np.array([0.5, -3.25, 0.0]))
    keep[1, 1:] = False
    assert text.reshape(-1)[keep.reshape(-1)].tobytes() == b",0.5,,0"


def _log_uniform(low, high):
    # Magnitudes log-uniform over [low, high), both signs.
    rng = np.random.default_rng(37)
    x = 10.0 ** rng.uniform(np.log10(low), np.log10(high), 200_000)
    return np.where(rng.random(x.size) < 0.5, -x, x)


def _paths(monkeypatch):
    """The digit paths format17 takes from here on, by name, one per pass."""
    taken = []
    for name in ("_round_double_double", "_round_digits"):
        kernel = getattr(csvfmt, name)

        def spy(*args, _kernel=kernel, _name=name):
            taken.append(_name)
            return _kernel(*args)

        monkeypatch.setattr(csvfmt, name, spy)
    return taken


def test_format17_log_uniform_from_1e_8(monkeypatch):
    # Log-uniform magnitudes from 1e-8 to 1e15, both signs, with the double
    # nearest 1e-6 (which lies below it) and its neighbours.  As one call,
    # a pass with values on both sides of 1e-6, it takes the integer words
    # for all; by range, each part takes its own path.
    x = np.concatenate([_near([1e-6, 1e-7, 1e15], ulps=3), _log_uniform(1e-8, 1e15)])
    taken = _paths(monkeypatch)
    assert _kernel(x) == _reference(x)
    assert set(taken) == {"_round_digits"}
    above = np.abs(x) > 1e-6
    smallest = np.array([1e-6, 0.5])
    above_it = np.array([np.nextafter(1e-6, 1.0), 0.5])
    for part, path in (
        (x[above], "_round_double_double"),
        (x[~above], "_round_digits"),
        (smallest, "_round_digits"),
        (above_it, "_round_double_double"),
    ):
        taken.clear()
        assert _kernel(part) == _reference(part)
        assert set(taken) == {path}


def test_digit_paths_agree_at_every_estimated_exponent():
    # Both ways give the same range flags for each value at its decimal
    # exponent and one off on either side, as a first estimate may be, and
    # the same digits where the flags pass.  fl(1e-6) * 10**22 lies just
    # below 10**16 and fl(0.1) * 10**18 just above 10**17, and both round
    # to the bound: only the sign of lo tells the range there.
    near = _near([1e-6, 1e-5, 1e-4, 0.1, 0.5, 1.0, 1e14], ulps=2)
    v = np.concatenate([near, _log_uniform(1e-6, 1e15)])
    v = np.abs(v[np.abs(v) < 1e15])
    mant, exp2 = np.frexp(v)
    mant, exp2 = (mant * 2.0**53).astype(np.uint64), exp2.astype(np.int64) - 53
    true_e10 = np.array([int(format(x, ".16e").split("e")[1]) for x in v.tolist()])
    for off in (-1, 0, 1):
        e10 = np.clip(true_e10 + off, -6, 14)
        q, big, small = csvfmt._round_double_double(v, e10)
        q_words, big_words, small_words = csvfmt._round_digits(mant, exp2, e10)
        assert big.tolist() == big_words.tolist() and small.tolist() == small_words.tolist()
        passed = ~(big | small)
        assert q[passed].tolist() == q_words[passed].tolist()
        assert passed.tolist() == (e10 == true_e10).tolist()
    q, big, small = csvfmt._round_double_double(np.array([1e-6, 0.1]), np.array([-6, -2]))
    assert small.tolist() == [True, False] and big.tolist() == [False, True]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_format17_equals_format_on_any_floats(values):
    x = np.array(values, dtype=float)
    assert _kernel(x) == _reference(x)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(1e-6, 1e15, exclude_min=True, exclude_max=True), min_size=1, max_size=64))
def test_format17_equals_format_on_double_double_floats(values):
    x = np.array(values, dtype=float)
    assert _kernel(x) == _reference(x)
