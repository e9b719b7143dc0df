"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines including runtimes.
"""

import time

import numpy as np

from momentcoords import sampling, shapes
from momentcoords.coords1d import hat_oracle, moment_coords_1d
from momentcoords.coords2d import (
    cramer_coords_quad_many,
    moment_coords_quad,
    moment_coords_quad_many,
    mvc_oracle_many,
    wachspress_coords_quad,
)
from momentcoords.coords3d import (
    _induced_face_quad,
    moment_coords_hex,
    moment_coords_hex_many,
    sign_pattern_ok,
)
from momentcoords.errors import SingularMatrix
from momentcoords.geometry import (
    HEX_FACES,
    classify_point_quad,
    classify_points_quad,
    face_of_point_hex,
)
from momentcoords.gradients import finite_difference_gradient


def _report(num, desc, worst, tol, elapsed=None, budget=None):
    ok = worst <= tol
    line = f"criterion {num} [{'PASS' if ok else 'FAIL'}] {desc}: worst={worst:.3e} tol={tol:.1e}"
    if elapsed is not None:
        line += f" runtime={elapsed:.2f}s"
        if budget is not None:
            ok = ok and elapsed < budget
            line += f" budget={budget:.0f}s"
    print(line)
    assert ok, line


# Closed forms transcribed from the published rational/radical expressions.


def wachspress_closed_form_conv_quad(x, y):
    den = 16 * x - y + 8
    return np.array(
        [
            (-32 * x**2 + 4 * x * y + 16 * x + y**2 - 10 * y + 16) / (2 * den),
            4 * x * (4 * x - y + 2) / den,
            6 * x * y / den,
            y * (8 - 8 * x - y) / (2 * den),
        ]
    )


def moment_closed_form_biunit(x, y):
    q1 = np.sqrt(x**2 - 2 * x + y**2 - 2 * y + 2)  # distance to (1, 1)
    q2 = np.sqrt(x**2 + 2 * x + y**2 - 2 * y + 2)  # distance to (-1, 1)
    q3 = np.sqrt(x**2 - 2 * x + y**2 + 2 * y + 2)  # distance to (1, -1)
    q4 = np.sqrt(x**2 + 2 * x + y**2 + 2 * y + 2)  # distance to (-1, -1)
    den = 2 * (q1 + q2 + q3 + q4)
    return np.array(
        [
            -(x * q1 - q2 - q3 + x * q2 + y * q1 + y * q3) / den,
            (q1 + q4 + x * q1 + x * q2 - y * q2 - y * q4) / den,
            (q3 + q2 + x * q3 + x * q4 + y * q2 + y * q4) / den,
            (q1 + q4 - x * q3 - x * q4 + y * q1 + y * q3) / den,
        ]
    )


def moment_closed_form_nonconv_quad(x, y):
    d1 = np.sqrt(x**2 + y**2)
    d2 = np.sqrt(x**2 - 4 * x + y**2 + 4)
    d3 = np.sqrt(x**2 - 2 * x + y**2 - 8 * y + 17)
    d4 = np.sqrt(x**2 - 2 * x + y**2 - 4 * y + 5)
    den = 2 * (4 * d4 + 2 * d3 - d2 + d1)
    return np.array(
        [
            -(2 * d2 - 8 * d4 - 4 * d3 - 2 * x * d2 + 4 * x * d4 + 2 * x * d3 + y * d4 + y * d3)
            / den,
            (2 * x * d1 - 2 * d1 + 4 * x * d4 + 2 * x * d3 - y * d4 - y * d3) / den,
            (2 * x * d2 - y * d2 + 2 * x * d1 + y * d1 - 4 * d1 + 2 * y * d4) / den,
            -(4 * x * d2 - y * d2 + 4 * x * d1 + y * d1 - 8 * d1 - 2 * y * d3) / den,
        ]
    )


def _bilinear_grid_points(quad, n=5, lo=0.1, hi=0.9):
    corners = quad.vertices
    pts = []
    for s in np.linspace(lo, hi, n):
        for t in np.linspace(lo, hi, n):
            pts.append(
                (1 - s) * (1 - t) * corners[0]
                + s * (1 - t) * corners[1]
                + s * t * corners[2]
                + (1 - s) * t * corners[3]
            )
    return pts


def test_criterion_1_wachspress_printed_forms():
    quad = shapes.convex_quad()
    worst = np.abs(
        wachspress_coords_quad(quad, (0.5, 1.0)) - [0.3, 0.4, 0.2, 0.1]
    ).max()
    for p in _bilinear_grid_points(quad):
        expect = wachspress_closed_form_conv_quad(p[0], p[1])
        worst = max(worst, np.abs(wachspress_coords_quad(quad, p) - expect).max())
    _report(1, "wachspress matches printed rational forms", worst, 1e-12)


def test_criterion_2_moment_equals_mean_value_and_cramer():
    rng = np.random.default_rng(1002)
    cases = [
        (shapes.biunit_square(), 1000),
        (shapes.convex_quad(), 1000),
        (shapes.nonconvex_quad(), 1000),
    ]
    cases += [(sampling.random_simple_quad(rng), 50) for _ in range(20)]
    sampled = [
        (quad, sampling.interior_points_quad(quad, count, rng))
        for quad, count in cases
    ]
    worst_mvc = worst_cramer = 0.0
    start = time.perf_counter()
    for quad, pts in sampled:
        phi, ok, _ = moment_coords_quad_many(quad, pts)
        mvc, mvc_ok, _ = mvc_oracle_many(quad, pts)
        cramer, cramer_ok, _ = cramer_coords_quad_many(quad, pts)
        assert ok.all() and mvc_ok.all() and cramer_ok.all()
        worst_mvc = max(worst_mvc, np.abs(phi - mvc).max())
        worst_cramer = max(worst_cramer, np.abs(phi - cramer).max())
    elapsed = time.perf_counter() - start
    _report(
        2,
        "moment = mean value = cramer on simple quads",
        max(worst_mvc, worst_cramer),
        1e-10,
        elapsed,
        budget=1.0,
    )


def test_criterion_3_biunit_closed_forms():
    quad = shapes.biunit_square()
    worst = 0.0
    for x in np.linspace(-0.8, 0.8, 5):
        for y in np.linspace(-0.8, 0.8, 5):
            p = (x, y)
            worst = max(
                worst,
                np.abs(moment_coords_quad(quad, p) - moment_closed_form_biunit(x, y)).max(),
            )
            bilinear = 0.25 * np.array(
                [
                    (1 - x) * (1 - y),
                    (1 + x) * (1 - y),
                    (1 + x) * (1 + y),
                    (1 - x) * (1 + y),
                ]
            )
            worst = max(
                worst, np.abs(wachspress_coords_quad(quad, p) - bilinear).max()
            )
    _report(3, "biunit square printed moment form and bilinear wachspress", worst, 1e-12)


def test_criterion_4_nonconvex_nonnegativity_and_printed_forms():
    quad = shapes.nonconvex_quad()
    v = quad.vertices
    lo = v.min(axis=0)
    hi = v.max(axis=0)
    gx, gy = np.meshgrid(np.linspace(lo[0], hi[0], 201), np.linspace(lo[1], hi[1], 201))
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    interior = grid[classify_points_quad(quad, grid)[0] == "interior"]
    phi, ok, _ = moment_coords_quad_many(quad, interior)
    assert len(interior) > 10000 and ok.all()
    min_weight = phi.min()
    rng = np.random.default_rng(1004)
    pts = sampling.interior_points_quad(quad, 25, rng)
    phi, ok, _ = moment_coords_quad_many(quad, pts)
    assert ok.all()
    worst_form = np.abs(phi - moment_closed_form_nonconv_quad(*pts.T).T).max()
    _report(4, "nonconvex dense nonnegativity", max(0.0, -min_weight), 1e-10)
    _report(4, "nonconvex printed moment forms", worst_form, 1e-10)


def test_criterion_5_interval_feasibility():
    rng = np.random.default_rng(1005)
    worst = 0.0
    singular = 0
    start = time.perf_counter()
    for n in range(3, 13):
        for _ in range(1000):
            nodes = sampling.random_nodes(rng, n)
            x = rng.uniform(nodes.nodes[0], nodes.nodes[-1])
            try:
                phi = moment_coords_1d(nodes, x)
            except SingularMatrix:
                singular += 1
                continue
            worst = max(worst, np.abs(phi - hat_oracle(nodes, x)).max())
    elapsed = time.perf_counter() - start
    _report(5, "no singular interval system in 10000 cases", float(singular), 0.0)
    _report(5, "interval moment equals hat functions", worst, 1e-10, elapsed, budget=5.0)


def test_criterion_6_hexahedron_axioms():
    rng = np.random.default_rng(1006)
    geoms = [shapes.convex_hex()] + [
        sampling.random_affine_cube_hex(rng) for _ in range(20)
    ]
    per_geom = 10000 // len(geoms)
    extra = 10000 - per_geom * len(geoms)
    worst_pu = worst_lp = worst_neg = 0.0
    pattern_failures = singular = 0
    start = time.perf_counter()
    for k, hexa in enumerate(geoms):
        count = per_geom + (1 if k < extra else 0)
        pts = sampling.interior_points_hex(hexa, count, rng)
        phi, ok, w, _ = moment_coords_hex_many(hexa, pts, return_frame_coords=True)
        # Every failure counts here, not only a singular solve.
        singular += int((~ok).sum())
        phi, pts, w = phi[ok], pts[ok], w[ok]
        pattern_failures += int((~sign_pattern_ok(w, hexa.diameter)).sum())
        worst_pu = max(worst_pu, np.abs(phi.sum(axis=1) - 1.0).max())
        worst_lp = max(worst_lp, np.abs(phi @ hexa.vertices - pts).max() / hexa.diameter)
        worst_neg = max(worst_neg, -float(phi.min()))
        phi, ok, _ = moment_coords_hex_many(hexa, hexa.vertices)
        assert ok.all() and np.abs(phi - np.eye(8)).max() <= 1e-10
    elapsed = time.perf_counter() - start
    _report(6, "hex partition of unity", worst_pu, 1e-12)
    _report(6, "hex linear precision (relative)", worst_lp, 1e-9)
    _report(6, "hex nonnegativity", worst_neg, 1e-10)
    _report(
        6,
        "no singularity with verified sign pattern",
        float(singular + pattern_failures),
        0.0,
        elapsed,
        budget=10.0,
    )


def test_criterion_7_facet_reduction():
    hexa = shapes.convex_hex()
    rng = np.random.default_rng(1007)
    worst_face = worst_off = 0.0
    for f in range(6):
        idx = list(HEX_FACES[f])
        off = [i for i in range(8) if i not in idx]
        pts = sampling.face_points_hex(hexa, f, 100, rng)
        for p in pts:
            loc = face_of_point_hex(hexa, p)
            assert loc.kind == "on_face" and loc.index == f
            phi, frame = moment_coords_hex(hexa, p, return_frame=True)
            worst_off = max(worst_off, np.abs(phi[off]).max())
            psi = moment_coords_quad(_induced_face_quad(f, frame.coords(hexa.vertices)), np.zeros(2))
            worst_face = max(worst_face, np.abs(phi[idx] - psi).max())
    _report(7, "facet reduction to 2D moment coordinates", worst_face, 1e-9)
    _report(7, "off-face weights vanish", worst_off, 1e-10)


def test_criterion_8_gradient_consistency():
    worst_sum = worst_identity = 0.0
    for quad in (shapes.convex_quad(), shapes.nonconvex_quad()):
        v = quad.vertices
        lo = v.min(axis=0)
        hi = v.max(axis=0)
        h = 1e-6 * quad.diameter

        def inside(q):
            return classify_point_quad(quad, q).inside

        def evaluate(q):
            return moment_coords_quad(quad, q)

        for x in np.linspace(lo[0], hi[0], 21):
            for y in np.linspace(lo[1], hi[1], 21):
                p = np.array([x, y])
                if classify_point_quad(quad, p).kind != "interior":
                    continue
                grad = finite_difference_gradient(evaluate, inside, p, h)
                worst_sum = max(worst_sum, np.abs(grad.sum(axis=0)).max())
                worst_identity = max(
                    worst_identity, np.abs(v.T @ grad - np.eye(2)).max()
                )
    _report(8, "gradients sum to zero", worst_sum, 1e-6)
    _report(8, "gradients reproduce the identity", worst_identity, 1e-5)
