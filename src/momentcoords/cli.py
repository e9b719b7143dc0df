"""Command line front end: evaluate coordinates, sample grids, run checks.

Exit codes: 0 ok, 1 property failure, 2 input error, 3 domain error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import checks, coords1d, coords2d, coords3d
from .errors import DegenerateTriangle, DomainError, InvalidGeometry, MomentCoordsError, NotConvex
from .geometry import (
    Hexahedron,
    NodeSet1D,
    Quadrilateral,
    classify_points_quad,
    face_of_points_hex,
)
from .gradients import FD_STEP_RTOL, finite_difference_gradient_many
from .shapes import BUILTINS

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_DOMAIN_ERROR = 3

# grid evaluates its points in chunks of this many, which bounds the memory
# of the stacked solves.
GRID_CHUNK = 512


class InputError(Exception):
    pass


def _load_geometry(source: str):
    """A builtin name or a JSON file with kind/vertices (or kind/nodes)."""
    if source in BUILTINS:
        return BUILTINS[source]()
    try:
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read geometry file {source!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"geometry file {source!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "kind" not in data:
        raise InputError("geometry object needs a 'kind' field")
    kind = data["kind"]
    try:
        if kind == "quad":
            return Quadrilateral(data["vertices"])
        if kind == "hex":
            return Hexahedron(data["vertices"])
        if kind == "interval":
            return NodeSet1D(data["nodes"])
    except KeyError as exc:
        raise InputError(f"geometry of kind {kind!r} is missing field {exc}") from exc
    except (InvalidGeometry, ValueError) as exc:
        raise InputError(f"invalid geometry: {exc}") from exc
    raise InputError(f"unknown geometry kind {kind!r} (quad, hex, or interval)")


# Single-point methods, used by eval.
METHODS = {
    "quad": {
        "moment": coords2d.moment_coords_quad,
        "wachspress": coords2d.wachspress_coords_quad,
        "mvc-oracle": coords2d.mvc_oracle,
        "wachspress-oracle": coords2d.wachspress_oracle,
        "cramer": coords2d.cramer_coords_quad,
    },
    "hex": {
        "moment": coords3d.moment_coords_hex,
    },
    "interval": {
        "moment": coords1d.moment_coords_1d,
        "hat": coords1d.hat_oracle,
    },
}

# Batch methods, used by grid: (points (m, dim)) -> (weights (m, n), ok (m,)).
BATCH_METHODS = {
    "quad": {
        "moment": coords2d.moment_coords_quad_many,
        "wachspress": coords2d.wachspress_coords_quad_many,
        "mvc-oracle": coords2d.mvc_oracle_many,
        "wachspress-oracle": coords2d.wachspress_oracle_many,
        "cramer": coords2d.cramer_coords_quad_many,
    },
    "hex": {
        "moment": coords3d.moment_coords_hex_many,
    },
    "interval": {
        "moment": coords1d.moment_coords_1d_many,
        "hat": coords1d.hat_oracle_many,
    },
}


def _geometry_kind(geom) -> str:
    if isinstance(geom, Quadrilateral):
        return "quad"
    if isinstance(geom, Hexahedron):
        return "hex"
    return "interval"


def _resolve_method(geom, name: str, tables=METHODS):
    kind = _geometry_kind(geom)
    table = tables[kind]
    if name not in table:
        raise InputError(
            f"method {name!r} is not available for {kind} geometry"
            f" (choose from {', '.join(sorted(table))})"
        )
    return table[name]


def _require_defined(geom, method: str):
    """Refuse a quadrilateral family that is undefined on geom: Wachspress
    on a nonconvex quadrilateral, Cramer on one with a flat corner."""
    if not isinstance(geom, Quadrilateral):
        return
    if method.startswith("wachspress") and not geom.is_convex:
        raise NotConvex("Wachspress coordinates are undefined on nonconvex quadrilaterals")
    if method == "cramer":
        coords2d.require_cramer(geom)


def _parse_point(text: str, dim: int) -> np.ndarray:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise InputError(f"cannot parse point {text!r}: {exc}") from exc
    if len(values) != dim:
        raise InputError(f"point {text!r} has {len(values)} coordinates, expected {dim}")
    if not all(math.isfinite(v) for v in values):
        raise InputError(f"point {text!r} has a non-finite coordinate")
    return np.array(values)


def _fmt(value) -> str:
    """JSON with floats rendered to 17 significant digits."""
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        items = (f"{json.dumps(k)}: {_fmt(v)}" for k, v in value.items())
        return "{" + ", ".join(items) + "}"
    return json.dumps(value)


def _geometry_dim(geom) -> int:
    return {"quad": 2, "hex": 3, "interval": 1}[_geometry_kind(geom)]


def _evaluate(geom, method_name: str, point: np.ndarray):
    """Weights plus the reference frame (hex only, None otherwise)."""
    kind = _geometry_kind(geom)
    fn = _resolve_method(geom, method_name)
    if kind == "hex":
        return fn(geom, point, return_frame=True)
    if kind == "interval":
        return fn(geom, float(point[0])), None
    return fn(geom, point), None


def cmd_eval(args) -> int:
    geom = _load_geometry(args.geometry)
    point = _parse_point(args.point, _geometry_dim(geom))
    weights, frame = _evaluate(geom, args.method, point)
    diameter, vertices = _geometry_size(geom)
    if not _row_ok(weights[None], vertices, point[None], diameter)[0]:
        raise MomentCoordsError("coordinate invariants violated at write time")
    record = {
        "point": point.tolist(),
        "method": args.method,
        "weights": weights.tolist(),
    }
    if _geometry_kind(geom) == "hex":
        record["frame"] = (
            None
            if frame is None
            else {
                "r1": frame.r1.tolist(),
                "r2": frame.r2.tolist(),
                "r3": frame.r3.tolist(),
            }
        )
    print(_fmt(record))
    return EXIT_OK


def _grid_axes(vertices, n: int):
    """n points per axis over the bounding box of vertices (k, dim)."""
    return [np.linspace(lo, hi, n) for lo, hi in zip(vertices.min(axis=0), vertices.max(axis=0))]


def _inside_many(geom, points) -> np.ndarray:
    """Which rows of points (m, dim) lie inside or on the boundary."""
    kind = _geometry_kind(geom)
    if kind == "quad":
        return classify_points_quad(geom, points)[0] != "exterior"
    if kind == "hex":
        return face_of_points_hex(geom, points)[0] != "exterior"
    return coords1d._locate(geom, points[:, 0])[2]


def _geometry_size(geom) -> tuple[float, np.ndarray]:
    kind = _geometry_kind(geom)
    if kind == "interval":
        return geom.span, geom.nodes[:, None]
    return geom.diameter, geom.vertices


def _row_ok(weights, vertices, points, diameter) -> np.ndarray:
    """Write-time check of each row of weights (m, n) at points (m, dim):
    partition of unity, nonnegativity, and linear precision about the
    vertex centroid, against the check suites' axiom tolerances.  A row
    beyond them is unpublishable."""
    return (
        (np.abs(weights.sum(axis=1) - 1.0) <= checks.PARTITION_TOL)
        & (weights.min(axis=1) >= -checks.NONNEG_TOL)
        & (
            checks.linear_precision_error(weights, vertices, points)
            <= checks.PRECISION_RTOL * diameter
        )
    )


def _format_rows(points, weights, ok, grad, grad_ok) -> list[str]:
    """CSV rows, each value as format(v, ".17g") (which "%.17g" equals);
    failed weights or derivatives leave their fields empty."""
    m, dim = points.shape
    blocks = [points, weights] + ([] if grad is None else [grad.reshape(m, -1)])
    width = sum(b.shape[1] for b in blocks)
    filled = np.where(ok, dim + weights.shape[1], dim)
    if grad is not None:
        filled[grad_ok] = width
    templates = {k: ",".join(["%.17g"] * k) + "," * (width - k) for k in set(filled.tolist())}
    return [
        templates[k] % tuple(row[:k])
        for k, row in zip(filled.tolist(), np.hstack(blocks).tolist())
    ]


def cmd_grid(args) -> int:
    geom = _load_geometry(args.geometry)
    if args.resolution < 2:
        raise InputError("resolution must be at least 2")
    evaluate = functools.partial(_resolve_method(geom, args.method, BATCH_METHODS), geom)
    _require_defined(geom, args.method)
    diameter, vertices = _geometry_size(geom)
    axes = _grid_axes(vertices, args.resolution)
    nweights = vertices.shape[0]
    dim = len(axes)
    axis_names = ["x", "y", "z"][:dim]

    header = axis_names + [f"phi{i + 1}" for i in range(nweights)]
    if args.derivatives:
        for i in range(nweights):
            for ax in axis_names:
                header.append(f"dphi{i + 1}_d{ax}")

    h = FD_STEP_RTOL * diameter
    failures = 0
    lines = [",".join(header)]
    grids = np.meshgrid(*axes, indexing="ij")
    all_points = np.stack([g.ravel() for g in grids], axis=-1)
    for start in range(0, len(all_points), GRID_CHUNK):
        points = all_points[start : start + GRID_CHUNK]
        points = points[_inside_many(geom, points)]
        weights, ok = evaluate(points)
        ok &= _row_ok(weights, vertices, points, diameter)
        grad = grad_ok = None
        if args.derivatives:
            grad = np.full((len(points), nweights, dim), np.nan)
            grad_ok = np.zeros(len(points), dtype=bool)
            grad[ok], grad_ok[ok] = finite_difference_gradient_many(
                evaluate, lambda q: _inside_many(geom, q), points[ok], weights[ok], h
            )
        failures += int((~ok).sum()) if grad_ok is None else int((~grad_ok).sum())
        lines += _format_rows(points, weights, ok, grad, grad_ok)

    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise InputError(f"cannot write {args.out!r}: {exc}") from exc
    if failures:
        print(f"warning: {failures} grid points failed to evaluate", file=sys.stderr)
    return EXIT_OK


def cmd_check(args) -> int:
    geom = _load_geometry(args.geometry)
    if args.samples < 1:
        raise InputError("samples must be at least 1")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise InputError(f"tol must be finite and > 0, got {args.tol}")
    if args.method is not None:
        _resolve_method(geom, args.method)  # raises InputError when incompatible
        _require_defined(geom, args.method)
    results = checks.run_suite(geom, args.samples, args.seed, args.tol, method=args.method)
    for result in results:
        print(result.line())
    if all(r.passed for r in results):
        print(f"all {len(results)} properties passed")
        return EXIT_OK
    failed = sum(not r.passed for r in results)
    print(f"{failed} of {len(results)} properties failed")
    return EXIT_PROPERTY_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentcoords",
        description="Nonnegative barycentric coordinates on intervals, "
        "quadrilaterals, and convex hexahedra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    builtin_help = f"geometry file or builtin ({', '.join(sorted(BUILTINS))})"

    p_eval = sub.add_parser("eval", help="evaluate coordinates at one point")
    p_eval.add_argument("--geometry", required=True, help=builtin_help)
    p_eval.add_argument("--point", required=True, help="comma separated coordinates")
    p_eval.add_argument("--method", required=True, help="coordinate family")
    p_eval.set_defaults(func=cmd_eval)

    p_grid = sub.add_parser("grid", help="sample a grid over the bounding box to CSV")
    p_grid.add_argument("--geometry", required=True, help=builtin_help)
    p_grid.add_argument("--resolution", type=int, required=True, help="points per axis")
    p_grid.add_argument("--method", required=True, help="coordinate family")
    p_grid.add_argument(
        "--derivatives", action="store_true", help="append finite-difference gradients"
    )
    p_grid.add_argument("--out", required=True, help="output CSV path")
    p_grid.set_defaults(func=cmd_grid)

    p_check = sub.add_parser("check", help="run the property suite")
    p_check.add_argument("--geometry", required=True, help=builtin_help)
    p_check.add_argument("--samples", type=int, default=1000, help="random sample count")
    p_check.add_argument("--seed", type=int, default=0, help="random seed")
    p_check.add_argument(
        "--tol", type=float, default=1.0, help="scale factor on the property tolerances"
    )
    p_check.add_argument("--method", default=None, help="restrict to one coordinate family")
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (DomainError, NotConvex, DegenerateTriangle) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    except (MomentCoordsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
