"""The straight-line element set-up and the single-point evaluators against
their loop-form copies (tests/loop_reference.py), bit for bit.

geometry takes the set-up tables (_check_quad, a quadrilateral's
reproducing_kernel, edge_rows and corner crosses, _face_is_simple, the tail
of _check_hex, pair_lines) in straight-line float arithmetic, and the
single-point evaluators locate their point with _locate_quad or _locate_hex
directly.  Each must give what the loop form gave: the same violation
messages in the same order, the same table bits, the same weight bits or
the same exception class.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference as ref
from momentcoords import coords2d, coords3d, geometry, sampling, shapes
from momentcoords.errors import FrameNotFound, MomentCoordsError, OutsideDomain
from momentcoords.geometry import REFERENCE_CUBE, Hexahedron, Quadrilateral


def _bits(x) -> bytes:
    """x as bytes, so that equal means the same structure, types and float
    bits (-0.0 differs from 0.0): None, bools, ints, strings, floats, float
    arrays, and tuples or lists of them."""
    if x is None or type(x) in (bool, int, str):
        return f"{type(x).__name__}:{x!r}".encode()
    if type(x) is float:
        return struct.pack("<d", x)
    if isinstance(x, np.ndarray):
        return x.dtype.str.encode() + str(x.shape).encode() + x.tobytes()
    if type(x) in (tuple, list):
        inner = b",".join(_bits(t) for t in x)
        return (b"(%s)" if type(x) is tuple else b"[%s]") % inner
    raise TypeError(f"unexpected {type(x).__name__} in a table")


def _outcome(fn, *args):
    """fn(*args), or the class of the MomentCoordsError it raises."""
    try:
        return fn(*args)
    except MomentCoordsError as exc:
        return type(exc)


def _same_outcome(new, old, *args):
    a, b = _outcome(new, *args), _outcome(old, *args)
    if isinstance(a, type) or isinstance(b, type):
        assert a is b, (new.__name__, args, a, b)
    else:
        assert _bits(a) == _bits(b), (new.__name__, args)
    return a


# Offsets from the boundary, in classification tolerances: inside and
# outside the band on both sides.
_BAND = np.array([-3.0, -0.5, 0.5, 3.0])[:, None]


def _quad_points(quad, rng):
    """Convex combinations of the vertices (some exterior on a nonconvex
    quad), the vertices, edge points, the edge points moved across their
    edge by a few tolerances, and two exterior points."""
    v = quad.vertices
    w = rng.dirichlet(np.ones(4), 6)
    t = rng.uniform(0.05, 0.95, 4)[:, None]
    e = v[[1, 2, 3, 0]] - v
    edges = (1 - t) * v + t * v[[1, 2, 3, 0]]
    normals = np.stack([e[:, 1], -e[:, 0]], axis=1) / np.linalg.norm(e, axis=1)[:, None]
    tol = geometry.CLASSIFY_RTOL * quad.diameter
    band = [q + k * tol * n for q, n in zip(edges, normals) for k in _BAND]
    c, d = v.mean(axis=0), quad.diameter
    return [*(w @ v), *v, *edges, *band, c + (2.0 * d, 0.0), c - (0.0, 1.5 * d)]


QUAD_EVALUATORS = [
    (coords2d.moment_coords_quad, lambda q, p: ref.coords_quad(q, p, False)),
    (coords2d.wachspress_coords_quad, lambda q, p: ref.coords_quad(q, p, True)),
    (coords2d.mvc_oracle, ref.mvc_oracle),
    (coords2d.cramer_coords_quad, ref.cramer_coords_quad),
    (coords2d.wachspress_oracle, ref.wachspress_oracle),
]


def _assert_quad_matches(v, rng):
    v = np.asarray(v, dtype=float)
    assert _bits(geometry._check_quad(v)) == _bits(ref.check_quad(v))
    if geometry.quad_violations(v):
        return
    quad = Quadrilateral(v)
    assert _bits(quad.reproducing_kernel) == _bits(ref.reproducing_kernel(quad))
    assert _bits(quad.edge_rows) == _bits(ref.edge_rows(quad))
    assert _bits(quad._corner_crosses) == _bits(ref.corner_crosses(quad))
    for p in _quad_points(quad, rng):
        for new, old in QUAD_EVALUATORS:
            _same_outcome(new, old, quad, p)


def _hex_points(hexa, rng):
    """Interior points, the vertices, face centroids, the face centroids
    moved across their face by a few tolerances, and two exterior points."""
    v = hexa.vertices
    w = rng.dirichlet(np.ones(8), 6)
    faces = [v[list(f)].mean(axis=0) for f in geometry.HEX_FACES]
    tol = geometry.CLASSIFY_RTOL * hexa.diameter
    band = [q + k * tol * np.array(n) for q, n in zip(faces, hexa.face_normals) for k in _BAND]
    c, d = v.mean(axis=0), hexa.diameter
    return [*(w @ v), *v, *faces, *band, c + (2.0 * d, 0.0, 0.0), c - (0.0, 0.0, 1.5 * d)]


def _assert_hex_matches(v, rng):
    v = np.asarray(v, dtype=float)
    expected, ref_tables = ref.check_hex(v)
    assert geometry.hex_violations(v) == expected
    if expected:
        return
    hexa = Hexahedron(v)
    kept = (hexa.corner_tuple, hexa._centroids, hexa.face_normals, hexa.plane_rows, hexa.diameter)
    assert _bits(kept) == _bits(ref_tables)
    assert _bits(hexa.pair_lines) == _bits(ref.pair_lines(hexa))
    for f, idx in enumerate(geometry.HEX_FACES):
        args = (hexa.face_normals[f], tuple(hexa.corner_tuple[i] for i in idx), hexa.diameter)
        assert geometry._face_is_simple(*args) is ref.face_is_simple(*args)
    for p in _hex_points(hexa, rng):
        _same_outcome(coords3d.moment_coords_hex, ref.moment_coords_hex, hexa, p)


_SEEDS = st.integers(0, 2**32 - 1)
_LOG_SCALES = st.floats(-6.0, 6.0)
_OFFSETS = st.floats(-1e6, 1e6)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=_SEEDS, log_scale=_LOG_SCALES, dx=_OFFSETS, dy=_OFFSETS)
def test_quad_setup_and_evaluators_match_loop_form(seed, log_scale, dx, dy):
    rng = np.random.default_rng(seed)
    v = sampling.random_simple_quad(rng).vertices * 10.0**log_scale + (dx, dy)
    _assert_quad_matches(v, rng)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    seed=_SEEDS,
    log_scale=_LOG_SCALES,
    offset=st.tuples(_OFFSETS, _OFFSETS, _OFFSETS),
    plane=st.booleans(),
)
def test_hex_setup_and_evaluator_match_loop_form(seed, log_scale, offset, plane):
    rng = np.random.default_rng(seed)
    base = sampling.random_plane_hex(rng, tilt=0.4) if plane else sampling.random_affine_cube_hex(rng)
    _assert_hex_matches(base.vertices * 10.0**log_scale + offset, rng)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=_SEEDS, log_scale=_LOG_SCALES)
def test_face_test_matches_loop_form(seed, log_scale):
    # Four points in space seen along a random direction: a face's
    # projection along its normal is a simple quadrilateral, but these
    # are simple, crossed and flat alike, so every orientation decides.
    rng = np.random.default_rng(seed)
    seen = set()
    for _ in range(50):
        corners = rng.normal(size=(4, 3)) * 10.0**log_scale
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        diam = max(float(np.linalg.norm(a - b)) for a in corners for b in corners)
        args = (tuple(n.tolist()), tuple(map(tuple, corners.tolist())), diam)
        verdict = geometry._face_is_simple(*args)
        assert verdict is ref.face_is_simple(*args)
        seen.add(verdict)
    assert seen == {False, True}


_TWISTED = REFERENCE_CUBE[[1, 0, 2, 3, 4, 5, 6, 7]]
# A rank-2 image of the reference cube: every face planar and simple, but
# zero volume.
_FLAT = np.array(
    [
        [1.5, 1.8, 1.5],
        [1.1, 0.4, 0.64],
        [0.5, -1.6, -0.6],
        [0.9, -0.2, 0.26],
        [-0.5, 1.6, 0.6],
        [-0.9, 0.2, -0.26],
        [-1.5, -1.8, -1.5],
        [-1.1, -0.4, -0.64],
    ]
)
_NONPLANAR = REFERENCE_CUBE + np.array([[0.0, 0.0, 0.3]] + [[0.0, 0.0, 0.0]] * 7)

INVALID_QUADS = {
    "bow-tie": [(0, 0), (1, 1), (1, 0), (0, 1)],
    "collinear": [(0, 0), (1, 1), (2, 2), (3, 3)],
    "coincident": [(0, 0), (1, 0), (1, 0), (0, 1)],
}
INVALID_HEXES = {"twisted face": _TWISTED, "flat": _FLAT, "non-planar face": _NONPLANAR}


@pytest.mark.parametrize("name", sorted(INVALID_QUADS))
def test_invalid_quad_violations_match_loop_form(name):
    v = np.array(INVALID_QUADS[name], dtype=float)
    expected = ref.check_quad(v)[0]
    assert expected
    # At 1e-170 every squared distance underflows: the underflow message.
    for scale, offset in ((1.0, 0.0), (1e-6, 1e6), (1e6, -3e5), (1e-170, 0.0)):
        w = v * scale + offset
        assert geometry.quad_violations(w) == ref.check_quad(w)[0]
    assert geometry.quad_violations(v) == expected


@pytest.mark.parametrize("name", sorted(INVALID_HEXES))
def test_invalid_hex_violations_match_loop_form(name):
    v = INVALID_HEXES[name]
    expected = ref.check_hex(v)[0]
    kinds = {"twisted face": "simple", "flat": "flat", "non-planar face": "planar"}
    assert any(kinds[name] in m for m in expected), expected
    for scale, offset in ((1.0, 0.0), (1e-3, 1e6), (1e6, -3e5), (1e-170, 0.0)):
        w = v * scale + offset
        assert geometry.hex_violations(w) == ref.check_hex(w)[0]
    assert geometry.hex_violations(v) == expected


def test_builtins_match_loop_form():
    rng = np.random.default_rng(0)
    for name in ("biunit-square", "conv-quad", "nonconv-quad"):
        _assert_quad_matches(shapes.BUILTINS[name]().vertices, rng)
    # A nearly straight corner: the Cramer oracle's corner triangle is flat.
    _assert_quad_matches([(0.0, 0.0), (1.0, 1e-14), (2.0, 0.0), (1.0, 1.0)], rng)
    for hexa in (shapes.convex_hex(), shapes.cube()):
        _assert_hex_matches(hexa.vertices, rng)


def test_frame_failures_raise_as_loop_form():
    # A small hexahedron far from the origin, on which the frame misses the
    # sign pattern at some interior points.
    base = sampling.random_affine_cube_hex(np.random.default_rng(0))
    hexa = Hexahedron(base.vertices * 10.0**-1.75 + [0.0, 0.0, 167410.0])
    p = np.array([0.06729071091913807, -0.0839112874585554, 167410.03098120925])
    assert _same_outcome(coords3d.moment_coords_hex, ref.moment_coords_hex, hexa, p) is FrameNotFound
    # Around it, a bounding-box grid: interior and exterior points.
    lo, hi = hexa.vertices.min(axis=0), hexa.vertices.max(axis=0)
    axes = [np.linspace(lo[d], hi[d], 7) for d in range(3)]
    for q in np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1):
        _same_outcome(coords3d.moment_coords_hex, ref.moment_coords_hex, hexa, q)
    exterior = hexa.vertices.mean(axis=0) + (0.0, 0.0, hexa.diameter)
    assert _same_outcome(coords3d.moment_coords_hex, ref.moment_coords_hex, hexa, exterior) is OutsideDomain
