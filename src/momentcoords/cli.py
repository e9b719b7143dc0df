"""Command line front end: evaluate coordinates, sample grids, run checks.

Every float eval prints and every field of a grid CSV is format(v, ".17g")
of its value, byte for byte; grid formats its weights and derivatives
through the vectorized kernel csvfmt.format17, whose zero-marked slots it
joins to its zero-padded row labels by deleting every zero byte.

Exit codes: 0 ok, 1 property failure, 2 input error (the file, the point or
the options: InputError, ValueError), 3 domain error (every other
MomentCoordsError: an evaluator that fails on a valid geometry).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

import numpy as np

from . import checks, coords1d, coords2d, coords3d, csvfmt, geometry
from .errors import InvalidGeometry, MomentCoordsError
from .geometry import CAUSES, EXTERIOR, OK, BatchInfo, Hexahedron, NodeSet1D, Quadrilateral
from .gradients import FD_STEP_RTOL, finite_difference_gradient_many
from .shapes import BUILTINS

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_DOMAIN_ERROR = 3

# Why a grid row is blank: the batch evaluators' causes (geometry.CAUSES),
# then grid's own: the write-time row check (checks.row_ok), no admissible
# finite-difference step along some axis, an offset that failed to evaluate,
# a closed-form gradient that is singular or not finite at the point.
GRID_CAUSES = CAUSES + (
    "row check",
    "no admissible derivative step",
    "derivative offset failed",
    "singular derivative",
)
ROW_CHECK, NO_STEP, OFFSET_FAILED, SINGULAR_GRADIENT = range(len(CAUSES), len(GRID_CAUSES))


class InputError(Exception):
    pass


def _numbers(value, field: str):
    """value, a JSON vertex or node list, once every entry in it is a JSON
    number a float holds: not a boolean (which Python counts as an int), a
    string, null or an object, and not an integer beyond the float range."""
    stack = [value]
    while stack:
        entry = stack.pop()
        if isinstance(entry, list):
            stack.extend(entry)
            continue
        if isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise InputError(f"invalid geometry: {field} entry {json.dumps(entry)} is not a number")
        try:
            float(entry)
        except OverflowError:
            message = f"invalid geometry: a {field} entry is too large for a float"
            raise InputError(message) from None
    return value


def _load_geometry(source: str):
    """A builtin name or a JSON file with kind/vertices (or kind/nodes),
    whose coordinates are JSON numbers (_numbers)."""
    if source in BUILTINS:
        return BUILTINS[source]()
    try:
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read geometry file {source!r}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"geometry file {source!r} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise InputError(f"geometry file {source!r} is nested too deeply to read") from None
    if not isinstance(data, dict) or "kind" not in data:
        raise InputError("geometry object needs a 'kind' field")
    kind = data["kind"]
    try:
        if kind == "quad":
            return Quadrilateral(_numbers(data["vertices"], "vertices"))
        if kind == "hex":
            return Hexahedron(_numbers(data["vertices"], "vertices"))
        if kind == "interval":
            return NodeSet1D(_numbers(data["nodes"], "nodes"))
    except KeyError as exc:
        raise InputError(f"geometry of kind {kind!r} is missing field {exc}") from exc
    except (InvalidGeometry, TypeError, ValueError) as exc:
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

# Batch methods, used by grid: (points (m, dim)) -> (weights (m, n), ok (m,),
# geometry.BatchInfo), the record naming why each failed row failed.
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

# Closed-form gradients, used by grid --derivatives where a family has one:
# (geometry, points (m, dim), info) -> (grad (m, n, dim), ok (m,)), info the
# BatchInfo of the batch method at the same points.  The other families take
# central finite differences (gradients.finite_difference_gradient_many).
GRADIENT_METHODS = {
    "quad": {
        "moment": coords2d.moment_gradient_quad_many,
        "wachspress": coords2d.wachspress_gradient_quad_many,
    },
}


def _resolve_method(geom, name: str, tables=METHODS):
    table = tables[geom.kind]
    if name not in table:
        raise InputError(
            f"method {name!r} is not available for {geom.kind} geometry"
            f" (choose from {', '.join(sorted(table))})"
        )
    return table[name]


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


def _evaluate(geom, method_name: str, point: np.ndarray):
    """Weights plus the reference frame (hex only, None otherwise)."""
    fn = _resolve_method(geom, method_name)
    if geom.kind == "hex":
        return fn(geom, point, return_frame=True)
    if geom.kind == "interval":
        return fn(geom, float(point[0])), None
    return fn(geom, point), None


def cmd_eval(args) -> int:
    geom = _load_geometry(args.geometry)
    diameter, vertices = _geometry_size(geom)
    point = _parse_point(args.point, vertices.shape[1])
    weights, frame = _evaluate(geom, args.method, point)
    if not checks.row_ok(weights[None], vertices, point[None], diameter)[0]:
        raise MomentCoordsError("coordinate invariants violated at write time")
    record = {
        "point": point.tolist(),
        "method": args.method,
        "weights": weights.tolist(),
    }
    if geom.kind == "hex":
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


def _geometry_size(geom) -> tuple[float, np.ndarray]:
    if geom.kind == "interval":
        return geom.span, geom.nodes[:, None]
    return geom.diameter, geom.vertices


def _label_bytes(labels: list[str]) -> np.ndarray:
    """The strings labels as zero-padded byte rows (k, L)."""
    text = np.array(labels, dtype="S")
    return text.view(np.uint8).reshape(len(labels), text.itemsize)


def _format_rows(labels, fields, filled) -> bytes:
    """CSV rows as bytes, in one formatting pass.  Row i is its label
    labels[i] (zero-padded bytes, the newline and axis values of the
    _label_bytes tables) and one field per value of fields[i], ",%.17g" of
    the value (csvfmt.format17, zero-marked); the fields from filled[i] on
    are left empty (",", their other bytes zeroed), and a pass whose rows
    are all full blanks nothing.  No label or field byte is zero, so
    deleting the zeros joins the rows."""
    m, width = fields.shape
    if filled.min(initial=width) < width:
        blank = np.arange(width) >= filled[:, None]
        text = csvfmt.format17(np.where(blank, 1.0, fields))
        text[blank.reshape(-1), 1:] = 0
    else:
        text = csvfmt.format17(fields)
    row_text = np.concatenate([labels, text.reshape(m, width * csvfmt.WIDTH)], axis=1)
    return row_text.tobytes().translate(None, b"\0")


def cmd_grid(args) -> int:
    geom = _load_geometry(args.geometry)
    if args.resolution < 2:
        raise InputError("resolution must be at least 2")
    evaluate = functools.partial(_resolve_method(geom, args.method, BATCH_METHODS), geom)
    diameter, vertices = _geometry_size(geom)
    n = args.resolution
    axes = _grid_axes(vertices, n)
    nweights = vertices.shape[0]
    dim = len(axes)
    axis_names = ["x", "y", "z"][:dim]

    header = axis_names + [f"phi{i + 1}" for i in range(nweights)]
    if args.derivatives:
        for i in range(nweights):
            for ax in axis_names:
                header.append(f"dphi{i + 1}_d{ax}")

    # Each axis value is formatted once per command, into one table per
    # axis: the first axis's values after a newline, the others' after a
    # comma.  A row's label is each table's entry at the row's index along
    # that axis, the index that gathers its point from axes.
    tables = [
        _label_bytes([form % v for v in axis.tolist()])
        for form, axis in zip(["\n%.17g"] + [",%.17g"] * (dim - 1), axes)
    ]

    h = FD_STEP_RTOL * diameter
    causes = np.zeros(len(GRID_CAUSES), dtype=int)
    gradient = GRADIENT_METHODS.get(geom.kind, {}).get(args.method)
    chunk = geometry.BATCH_CHUNK
    total = n**dim
    try:
        with contextlib.ExitStack() as files:
            for start in range(0, total, chunk):
                index = np.arange(start, min(start + chunk, total))
                axis_index = np.unravel_index(index, (n,) * dim)
                points = np.stack([axis[i] for axis, i in zip(axes, axis_index)], axis=-1)
                weights, ok, info = evaluate(points)
                if start == 0:
                    # Opened once the first chunk has evaluated: a family
                    # undefined on geom refuses in its batch, leaving no file.
                    fh = files.enter_context(open(args.out, "wb"))
                    fh.write(",".join(header).encode("ascii"))
                inside = np.flatnonzero(info.cause != EXTERIOR)
                points, weights, ok = points[inside], weights[inside], ok[inside]
                cause = info.cause[inside]
                row_ok = checks.row_ok(weights, vertices, points, diameter)
                cause[ok & ~row_ok] = ROW_CHECK
                ok &= row_ok
                fields, filled = weights, np.where(ok, nweights, 0)
                if args.derivatives:
                    # The rows with weights; the others stay blank.
                    rows = np.flatnonzero(ok)
                    if gradient is None:
                        part, part_ok, no_step = finite_difference_gradient_many(
                            evaluate, points[rows], weights[rows], h
                        )
                        failure = np.where(no_step, NO_STEP, OFFSET_FAILED)
                    else:
                        sel = inside[rows]
                        info = BatchInfo(info.code[sel], info.index[sel], info.cause[sel])
                        part, part_ok = gradient(geom, points[rows], info)
                        failure = SINGULAR_GRADIENT
                    cause[rows] = np.where(part_ok, OK, failure)
                    grad = np.full((len(points), nweights * dim), np.nan)
                    # Not reshape(m, -1): a chunk with no row to take has m = 0.
                    grad[rows] = part.reshape(len(rows), nweights * dim)
                    fields = np.hstack([weights, grad])
                    filled[rows[part_ok]] = fields.shape[1]
                causes += np.bincount(cause, minlength=len(GRID_CAUSES))
                labels = np.concatenate(
                    [table.take(i[inside], axis=0) for table, i in zip(tables, axis_index)], axis=1
                )
                per_pass = max(geometry.BATCH_CHUNK // fields.shape[1], 1)
                for lo in range(0, len(points), per_pass):
                    sl = slice(lo, lo + per_pass)
                    fh.write(_format_rows(labels[sl], fields[sl], filled[sl]))
            fh.write(b"\n")
    except OSError as exc:
        raise InputError(f"cannot write {args.out!r}: {exc}") from exc
    causes[OK] = 0
    if causes.any():
        named = geometry.named_counts(causes.tolist(), GRID_CAUSES)
        print(f"warning: {causes.sum()} grid points failed to evaluate ({named})", file=sys.stderr)
    return EXIT_OK


def cmd_check(args) -> int:
    results = checks.run_suite(_load_geometry(args.geometry), args.samples, args.seed)
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
        "--derivatives",
        action="store_true",
        help="append gradients (closed form for quad moment and wachspress, "
        "central finite differences otherwise)",
    )
    p_grid.add_argument("--out", required=True, help="output CSV path")
    p_grid.set_defaults(func=cmd_grid)

    p_check = sub.add_parser("check", help="run the property suite")
    p_check.add_argument("--geometry", required=True, help=builtin_help)
    p_check.add_argument("--samples", type=int, default=1000, help="random sample count")
    p_check.add_argument("--seed", type=int, default=0, help="random seed")
    p_check.set_defaults(func=cmd_check)

    return parser


# Built once per process: parsing does not change the parser, and building
# it costs more than parsing a check or grid command.
_PARSER = build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value that starts with "-" and is not a plain number
    # as an option, so "--point -0.5,-0.5" goes in as "--point=-0.5,-0.5".
    while "--point" in argv[:-1]:
        i = argv.index("--point")
        argv[i : i + 2] = ["--point=" + argv[i + 1]]
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MomentCoordsError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
