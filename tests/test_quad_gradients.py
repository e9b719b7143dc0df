"""Closed-form gradients of the quadrilateral coordinates.

The moment gradient is checked against the gradient of Floater's tangent
formula for mean value coordinates ("Mean value coordinates", CAGD 2003),
the Wachspress gradient against grad phi_i = phi_i (R_i - sum_j phi_j R_j)
with R_i = n_(i-1) / h_(i-1) + n_i / h_i (Floater, Gillette and Sukumar,
SIAM J. Numer. Anal. 2014), both written here on their own.
"""

import csv

import numpy as np
import pytest

from momentcoords import sampling, shapes
from momentcoords.cli import main
from momentcoords.coords2d import (
    moment_coords_quad,
    moment_coords_quad_many,
    moment_gradient_quad_many,
    wachspress_coords_quad,
    wachspress_coords_quad_many,
    wachspress_gradient_quad_many,
)
from momentcoords.errors import NotConvex
from momentcoords.geometry import (
    LOC_FACET,
    LOC_INTERIOR,
    LOC_VERTEX,
    Quadrilateral,
    classify_points_quad,
)

_NEXT = [1, 2, 3, 0]
_PREV = [3, 0, 1, 2]

FAMILIES = {
    "moment": (moment_coords_quad, moment_coords_quad_many, moment_gradient_quad_many),
    "wachspress": (
        wachspress_coords_quad,
        wachspress_coords_quad_many,
        wachspress_gradient_quad_many,
    ),
}


def _mvc_gradient(quad, pts):
    """The gradient (m, 4, 2) of the tangent formula w_i = (t_(i-1) + t_i) /
    r_i, t_i = tan(alpha_i / 2), phi = w / sum w, by the quotient rule, in
    coordinates about the vertex centroid."""
    c = quad.vertices.mean(axis=0)
    d = (quad.vertices - c)[None] - (pts - c)[:, None]  # v_i - p, (m, 4, 2)
    dn = d[:, _NEXT]
    r = np.hypot(d[..., 0], d[..., 1])
    gr = -d / r[..., None]
    cross = d[..., 0] * dn[..., 1] - d[..., 1] * dn[..., 0]
    dot = (d * dn).sum(axis=-1)
    rr = r * r[:, _NEXT]
    g_cross = np.stack([d[..., 1] - dn[..., 1], dn[..., 0] - d[..., 0]], axis=-1)
    g_dot = -(d + dn)
    g_rr = r[:, _NEXT, None] * gr + r[..., None] * gr[:, _NEXT]
    # tan(alpha/2) = sin / (1 + cos) = (1 - cos) / sin on the stable branch.
    ahead = dot >= 0.0
    t = np.where(ahead, cross / (rr + dot), (rr - dot) / cross)
    gt = np.where(
        ahead[..., None],
        (g_cross - t[..., None] * (g_rr + g_dot)) / (rr + dot)[..., None],
        (g_rr - g_dot - t[..., None] * g_cross) / cross[..., None],
    )
    w = (t[:, _PREV] + t) / r
    gw = (gt[:, _PREV] + gt) / r[..., None] - (w / r)[..., None] * gr
    total = w.sum(axis=1)
    phi = w / total[:, None]
    return (gw - phi[..., None] * gw.sum(axis=1)[:, None]) / total[:, None, None]


def _wachspress_gradient(quad, pts):
    """grad phi_i = phi_i (R_i - sum_j phi_j R_j), R_i = n_(i-1) / h_(i-1) +
    n_i / h_i with n_j the unit outward normal of edge j and h_j the
    distance of p from it, in coordinates about the vertex centroid."""
    c = quad.vertices.mean(axis=0)
    v, p = quad.vertices - c, pts - c
    e = v[_NEXT] - v
    length = np.hypot(e[:, 0], e[:, 1])
    n = np.stack([e[:, 1], -e[:, 0]], axis=-1) / length[:, None]
    h = ((v[None] - p[:, None]) * n[None]).sum(axis=-1)  # (m, 4), edge j
    a, b = e[_PREV], e  # the edges into and out of each vertex
    corner = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    # w_i = A(v_(i-1), v_i, v_(i+1)) / (A(p, v_(i-1), v_i) A(p, v_i, v_(i+1))),
    # A(p, v_j, v_(j+1)) = l_j h_j / 2.
    w = corner / (length[_PREV] * h[:, _PREV] * length * h)
    phi = w / w.sum(axis=1, keepdims=True)
    big_r = n[_PREV][None] / h[:, _PREV, None] + n[None] / h[..., None]
    return phi[..., None] * (big_r - (phi[..., None] * big_r).sum(axis=1, keepdims=True))


ORACLES = {"moment": _mvc_gradient, "wachspress": _wachspress_gradient}


def _quads():
    rng = np.random.default_rng(11)
    out = {name: shapes.BUILTINS[name]() for name in ("conv-quad", "nonconv-quad", "biunit-square")}
    for i in range(4):
        out[f"random-convex-{i}"] = sampling.random_simple_quad(rng, convex=True)
        out[f"random-nonconvex-{i}"] = sampling.random_simple_quad(rng, convex=False)
    out["nonconv-quad+1e6"] = Quadrilateral(shapes.nonconvex_quad().vertices + [1e6, -0.7e6])
    return out


QUADS = _quads()


def _cases(names):
    """(family, name) for each family defined on each quadrilateral."""
    return [(f, n) for f in FAMILIES for n in names if f == "moment" or QUADS[n].is_convex]


def _gradients(family, quad, pts):
    _, many, gradient = FAMILIES[family]
    phi, ok, info = many(quad, pts)
    grad, grad_ok = gradient(quad, pts, info)
    return phi, ok, grad, grad_ok, info


@pytest.mark.parametrize("family, name", _cases(QUADS))
def test_gradient_matches_oracle(family, name):
    quad = QUADS[name]
    pts = sampling.interior_points_quad(quad, 300, np.random.default_rng(3))
    _, ok, grad, grad_ok, _ = _gradients(family, quad, pts)
    assert ok.all() and grad_ok.all()
    err = np.abs(grad - ORACLES[family](quad, pts)).max() * quad.diameter
    assert err <= 1e-9, err


def _grid(capsys, tmp_path, geometry, method, resolution):
    out = tmp_path / "grid.csv"
    argv = ["grid", "--geometry", geometry, "--resolution", str(resolution),
            "--method", method, "--derivatives", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    with open(out, newline="") as fh:
        return list(csv.reader(fh))[1:]


@pytest.mark.parametrize(
    "geometry, method",
    [
        ("nonconv-quad", "moment"),
        ("conv-quad", "moment"),
        ("conv-quad", "wachspress"),
        ("biunit-square", "moment"),
        ("biunit-square", "wachspress"),
    ],
)
def test_grid_gradients_reproduce_linear_fields(capsys, tmp_path, geometry, method):
    # Every written row, edge and vertex rows included, carries a gradient
    # with sum_i grad phi_i = 0 and sum_i grad phi_i (v_i - c)^T = I.
    quad = shapes.BUILTINS[geometry]()
    rows = _grid(capsys, tmp_path, geometry, method, 41)
    assert all("" not in row for row in rows)
    data = np.array(rows, dtype=float)
    kinds = set(classify_points_quad(quad, data[:, :2])[0].tolist())
    assert {"interior", "on_edge", "at_vertex"} <= kinds
    grad = data[:, 6:].reshape(-1, 4, 2)
    v = quad.vertices - quad.vertices.mean(axis=0)
    assert np.abs(grad.sum(axis=1)).max() <= 1e-12
    assert np.abs(np.einsum("mij,ik->mkj", grad, v) - np.eye(2)).max() <= 1e-12


@pytest.mark.parametrize(
    "family, name",
    _cases(["conv-quad", "nonconv-quad", "biunit-square", "random-convex-0", "random-nonconvex-0"]),
)
def test_vertex_gradient_is_the_limit_along_the_bisector(family, name):
    # At a vertex the gradient is the one the interior reaches along the
    # inward bisector: its component along the bisector matches a one-sided
    # difference there, and the whole gradient the interior gradient a
    # small step in.  Both differ by O(step); at 1e-6 diameters the sharp
    # corners of conv-quad and nonconv-quad differ by up to 3.5e-4, at 1e-8
    # by up to 3.5e-6.
    quad = QUADS[name]
    single = FAMILIES[family][0]
    _, ok, grad, grad_ok, info = _gradients(family, quad, quad.vertices)
    assert ok.all() and grad_ok.all() and (info.code == LOC_VERTEX).all()
    b = np.array(quad.inward_bisectors)
    inner = quad.vertices + 1e-8 * quad.diameter * b
    _, _, grad_in, in_ok, info_in = _gradients(family, quad, inner)
    assert in_ok.all() and (info_in.code == LOC_INTERIOR).all()
    for i, v in enumerate(quad.vertices):
        step = inner[i] - v
        h = np.hypot(*step)
        change = (single(quad, inner[i]) - single(quad, v)) / h
        assert np.abs(grad[i] @ step / h - change).max() * quad.diameter <= 1e-5
        assert np.abs(grad[i] - grad_in[i]).max() * quad.diameter <= 1e-5


def test_vertex_gradient_translation_invariant():
    # The vertex rows of a quadrilateral moved by about 1e6 carry the
    # gradients of the unmoved one.
    near, far = QUADS["nonconv-quad"], QUADS["nonconv-quad+1e6"]
    grad = _gradients("moment", near, near.vertices)[2]
    grad_far = _gradients("moment", far, far.vertices)[2]
    assert np.abs(grad - grad_far).max() * near.diameter <= 1e-12


def test_edge_and_vertex_rows_keep_their_location():
    # A point snapped onto a vertex takes the gradient at the vertex itself,
    # a point within the tolerance of an edge the formula at the point.
    quad = shapes.nonconvex_quad()
    tol = 1e-11 * quad.diameter
    pts = np.array([quad.vertices[1] + [tol, -tol], [1.0, 0.0], [1.0, tol]])
    _, _, grad, grad_ok, info = _gradients("moment", quad, pts)
    _, _, exact, _, _ = _gradients("moment", quad, np.array([quad.vertices[1], [1.0, 0.0]]))
    assert info.code.tolist() == [LOC_VERTEX, LOC_FACET, LOC_FACET] and grad_ok.all()
    assert grad[0].tobytes() == exact[0].tobytes()
    assert np.abs(grad[2] - exact[1]).max() <= 1e-9


def test_exterior_rows_and_nonconvex_wachspress():
    quad = shapes.convex_quad()
    pts = np.array([[0.25, 0.5], [5.0, 5.0]])
    _, ok, grad, grad_ok, info = _gradients("moment", quad, pts)
    assert ok.tolist() == grad_ok.tolist() == [True, False]
    assert np.isfinite(grad[0]).all() and np.isnan(grad[1]).all()
    empty = _gradients("wachspress", quad, pts[:0])
    assert empty[2].shape == (0, 4, 2) and empty[3].shape == (0,)
    nonconvex = shapes.nonconvex_quad()
    info = moment_coords_quad_many(nonconvex, pts)[2]
    with pytest.raises(NotConvex):
        wachspress_gradient_quad_many(nonconvex, pts, info)

