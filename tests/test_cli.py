import csv
import json
import pathlib
import re
import warnings

import numpy as np
import pytest

from momentcoords import cli, sampling, smallsolve
from momentcoords.cli import main
from momentcoords.geometry import (
    LOC_FACET,
    LOC_VERTEX,
    OVERFLOW_MESSAGE,
    REFERENCE_CUBE,
    UNDERFLOW_MESSAGE,
    Hexahedron,
    Quadrilateral,
    _locate_quad,
)
from momentcoords.shapes import convex_hex, convex_quad, nonconvex_quad


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_wachspress_fixture(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--geometry", "conv-quad", "--point", "0.5,1", "--method", "wachspress"
        )
        assert code == 0
        record = json.loads(out)
        assert record["method"] == "wachspress"
        assert np.abs(np.array(record["weights"]) - [0.3, 0.4, 0.2, 0.1]).max() <= 1e-12

    def test_biunit_moment_center(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--geometry", "biunit-square", "--point", "0,0", "--method", "moment"
        )
        assert code == 0
        assert json.loads(out)["weights"] == [0.25, 0.25, 0.25, 0.25]

    def test_hex_vertex_kronecker(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--geometry", "conv-hex", "--point", "1,2,1", "--method", "moment"
        )
        assert code == 0
        record = json.loads(out)
        assert record["weights"] == [1, 0, 0, 0, 0, 0, 0, 0]
        assert record["frame"] is None

    def test_hex_interior_reports_frame(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--geometry", "conv-hex", "--point", "0,0.5,0", "--method", "moment"
        )
        assert code == 0
        record = json.loads(out)
        assert set(record["frame"]) == {"r1", "r2", "r3"}
        for key in ("r1", "r2", "r3"):
            assert np.linalg.norm(record["frame"][key]) == pytest.approx(1.0)

    def test_seventeen_digit_output(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--geometry", "conv-quad", "--point", "0.3,0.7", "--method", "moment"
        )
        assert code == 0
        weights = json.loads(out)["weights"]
        assert abs(sum(weights) - 1.0) < 1e-15  # round trips at full precision

    def test_exterior_point_domain_error(self, capsys):
        code, _, err = run(
            capsys, "eval", "--geometry", "nonconv-quad", "--point", "1.6,2", "--method", "moment"
        )
        assert code == 3 and "domain error" in err

    @pytest.mark.parametrize(
        "method", ["moment", "wachspress", "mvc-oracle", "wachspress-oracle", "cramer"]
    )
    def test_exterior_point_message_per_quad_method(self, capsys, method):
        code, out, err = run(
            capsys, "eval", "--geometry", "conv-quad", "--point", "5,5", "--method", method
        )
        assert code == 3 and out == ""
        assert err == "domain error: point [5.0, 5.0] lies outside the quadrilateral\n"

    def test_wachspress_on_nonconvex_domain_error(self, capsys):
        code, _, err = run(
            capsys, "eval", "--geometry", "nonconv-quad", "--point", "0.9,1.5", "--method", "wachspress"
        )
        assert code == 3

    def test_mvc_oracle_on_boundary_domain_error(self, capsys):
        code, _, err = run(
            capsys, "eval", "--geometry", "biunit-square", "--point", "1,0", "--method", "mvc-oracle"
        )
        assert code == 3

    def test_unknown_method_input_error(self, capsys):
        code, _, err = run(
            capsys, "eval", "--geometry", "biunit-square", "--point", "0,0", "--method", "trilinear"
        )
        assert code == 2 and "error" in err

    def test_bad_point_input_error(self, capsys):
        code, _, _ = run(
            capsys, "eval", "--geometry", "biunit-square", "--point", "0,zebra", "--method", "moment"
        )
        assert code == 2

    def test_wrong_dimension_input_error(self, capsys):
        code, _, _ = run(
            capsys, "eval", "--geometry", "biunit-square", "--point", "0,0,0", "--method", "moment"
        )
        assert code == 2

    def test_missing_file_input_error(self, capsys):
        code, _, _ = run(
            capsys, "eval", "--geometry", "/nope/missing.json", "--point", "0,0", "--method", "moment"
        )
        assert code == 2

    def test_geometry_file_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "quad.json"
        path.write_text(json.dumps({"kind": "quad", "vertices": [[0, 0], [2, 0], [2, 2], [0, 2]]}))
        code, out, _ = run(
            capsys, "eval", "--geometry", str(path), "--point", "1,1", "--method", "moment"
        )
        assert code == 0
        assert json.loads(out)["weights"] == [0.25, 0.25, 0.25, 0.25]

    def test_invalid_geometry_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "quad", "vertices": [[0, 0], [1, 1], [1, 0], [0, 1]]}))
        code, _, _ = run(capsys, "eval", "--geometry", str(path), "--point", "0.5,0.5", "--method", "moment")
        assert code == 2

    def test_interval_methods(self, capsys, tmp_path):
        path = tmp_path / "iv.json"
        path.write_text(json.dumps({"kind": "interval", "nodes": [0, 0.4, 1]}))
        code, out, _ = run(capsys, "eval", "--geometry", str(path), "--point", "0.2", "--method", "hat")
        assert code == 0
        assert json.loads(out)["weights"] == [0.5, 0.5, 0]
        code, out, _ = run(capsys, "eval", "--geometry", str(path), "--point", "0.2", "--method", "moment")
        assert code == 0
        assert np.allclose(json.loads(out)["weights"], [0.5, 0.5, 0])

    @pytest.mark.parametrize("point", ["nan", "inf", "-inf"])
    def test_interval_non_finite_point_input_error(self, capsys, tmp_path, point):
        path = tmp_path / "iv.json"
        path.write_text(json.dumps({"kind": "interval", "nodes": [0, 0.4, 1]}))
        for method in ("moment", "hat"):
            code, out, err = run(
                capsys, "eval", "--geometry", str(path), f"--point={point}", "--method", method
            )
            assert code == 2 and out == "" and "non-finite" in err

    @pytest.mark.parametrize(
        "geometry, point",
        [("biunit-square", "-0.5,-0.5"), ("conv-hex", "-0.5,0,0"), ("interval", "-1e-3")],
    )
    def test_negative_point_either_spelling(self, capsys, tmp_path, geometry, point):
        # argparse would read "-0.5,-0.5" after "--point" as an option.
        if geometry == "interval":
            geometry = _geometry_file(tmp_path, "interval", [-0.5, 0, 0.4, 1])
        spaced = run(capsys, "eval", "--geometry", geometry, "--point", point, "--method", "moment")
        joined = run(capsys, "eval", "--geometry", geometry, f"--point={point}", "--method", "moment")
        assert spaced == joined and spaced[0] == 0 and spaced[2] == ""
        assert json.loads(spaced[1])["point"] == [float(x) for x in point.split(",")]

    def test_quad_non_finite_point_input_error(self, capsys):
        code, _, err = run(
            capsys, "eval", "--geometry", "conv-quad", "--point", "0.5,nan", "--method", "moment"
        )
        assert code == 2 and "non-finite" in err


def _far_quad(tmp_path):
    """nonconv-quad translated by (1e8, 0.7e8), as a geometry file."""
    path = tmp_path / "far.json"
    vertices = nonconvex_quad().vertices + [1e8, 0.7e8]
    path.write_text(json.dumps({"kind": "quad", "vertices": vertices.tolist()}))
    return str(path)


class TestEvalFarTranslated:
    def test_centred_row_check(self, capsys, tmp_path):
        # The absolute residual |phi @ v - p| here is 1.5e-8 against a bound
        # of 4.1e-10; about the vertex centroid it is 0.
        code, out, _ = run(
            capsys, "eval", "--geometry", _far_quad(tmp_path),
            "--point", "100000000.9,70000001.1", "--method", "moment",
        )
        assert code == 0
        weights = np.array(json.loads(out)["weights"])
        assert abs(weights.sum() - 1.0) <= 1e-12 and weights.min() >= 0.0


class TestGridFarTranslated:
    @pytest.mark.parametrize("offset", [(-818964.0, -819947.0), (1061548.0, -314558.0)])
    def test_no_blank_rows_near_edges(self, capsys, tmp_path, offset):
        # Grid points up to the classification tolerance outside an edge
        # snap onto it; solving there gave weights near -3e-11, and 20 (28)
        # of these rows were blank before edge points took the edge's linear
        # interpolation.
        path = tmp_path / "far.json"
        vertices = nonconvex_quad().vertices + offset
        path.write_text(json.dumps({"kind": "quad", "vertices": vertices.tolist()}))
        out_path = tmp_path / "grid.csv"
        code, _, err = run(
            capsys, "grid", "--geometry", str(path), "--resolution", "61",
            "--method", "moment", "--out", str(out_path),
        )
        assert code == 0 and "failed" not in err
        with open(out_path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 1426
        weights = np.array([[float(c) for c in row[2:]] for row in rows])
        assert weights.min() >= 0.0


class TestCheckFarTranslated:
    # The suites measure linear precision about the vertex centroid; the
    # absolute form |phi @ v - p| read 1.129e-10 against 1e-10 on both.
    @pytest.mark.parametrize(
        "builtin, kind, offset",
        [
            (nonconvex_quad, "quad", [1e6, -7e5]),
            (convex_hex, "hex", [1e6, 1e6, 1e6]),
        ],
    )
    def test_translated_geometry_passes(self, capsys, tmp_path, builtin, kind, offset):
        path = tmp_path / "far.json"
        vertices = builtin().vertices + offset
        path.write_text(json.dumps({"kind": kind, "vertices": vertices.tolist()}))
        code, out, _ = run(
            capsys, "check", "--geometry", str(path), "--samples", "200", "--seed", "1"
        )
        assert code == 0 and "FAIL" not in out
        assert "PASS moment linear precision" in out


def _far_hex():
    """A small hexahedron far from the origin, on which the frame misses the
    sign pattern at a few points (FrameNotFound)."""
    base = sampling.random_affine_cube_hex(np.random.default_rng(0))
    return base, Hexahedron(base.vertices * 10.0**-1.75 + [0.0, 0.0, 167410.0])


def _property_names(out):
    lines = [line for line in out.splitlines() if line.startswith(("PASS ", "FAIL "))]
    return [line[5:].split(":")[0] for line in lines]


class TestEvaluatorFailureOnValidInput:
    # An evaluator that fails on a valid geometry at a valid point is a
    # domain error (exit 3), not an input error (exit 2); check counts such
    # failures in its evaluates property and exits 1, printing every
    # property.  These geometries fail a few rows through the precision
    # defects of far-translated geometry.
    @pytest.mark.parametrize(
        "name, samples, seed, cause",
        [("hex", 200, 7, "frame"), ("conv-quad", 600, 7, "exterior"),
         ("nonconv-quad", 50, 0, "exterior")],
    )
    def test_far_check_counts_failed_rows(self, capsys, tmp_path, name, samples, seed, cause):
        if name == "hex":
            base, far = _far_hex()
            base_arg = str(tmp_path / "base.json")
            pathlib.Path(base_arg).write_text(
                json.dumps({"kind": "hex", "vertices": base.vertices.tolist()})
            )
        else:
            base_arg = name
            builtin = convex_quad if name == "conv-quad" else nonconvex_quad
            far = Quadrilateral(builtin().vertices + [3e6, -2.1e6])
        far_arg = _geometry_file(tmp_path, "hex" if name == "hex" else "quad", far.vertices)
        argv = ["--samples", str(samples), "--seed", str(seed)]
        code, out, err = run(capsys, "check", "--geometry", far_arg, *argv)
        assert code == 1 and err == ""
        assert "nan" not in out and "Traceback" not in out
        evaluates = [line for line in out.splitlines() if "evaluates" in line]
        assert len(evaluates) == 1 and evaluates[0].startswith("FAIL evaluates:")
        assert f" {cause})" in evaluates[0] or f" {cause}," in evaluates[0]
        _, base_out, _ = run(capsys, "check", "--geometry", base_arg, *argv)
        assert _property_names(out) == _property_names(base_out)

    def test_write_time_row_check_is_a_domain_error(self, capsys):
        code, out, err = run(
            capsys, "eval", "--geometry", "conv-hex",
            "--point", "1.0000000002473863,1.0,0.0", "--method", "moment",
        )
        assert (code, out) == (3, "")
        assert err == "domain error: coordinate invariants violated at write time\n"

    def test_frame_not_found_is_a_domain_error(self, capsys, tmp_path):
        far_arg = _geometry_file(tmp_path, "hex", _far_hex()[1].vertices)
        code, out, err = run(
            capsys, "eval", "--geometry", far_arg,
            "--point", "0.035602849770264795,-0.03427649460436619,167410.1046359527",
            "--method", "moment",
        )
        assert (code, out) == (3, "")
        assert err.startswith("domain error: the frame row of pair 2 misses the sign pattern")

    def test_check_never_exits_with_the_input_error_code_on_valid_input(self, capsys, tmp_path):
        # A covariance image of this square fails validation, though grid
        # evaluates the square: a domain error, not an input error.
        path = _geometry_file(tmp_path, "quad", [[0, 0], [6e153, 0], [6e153, 6e153], [0, 6e153]])
        code, _, err = run(capsys, "check", "--geometry", path, "--samples", "100")
        assert code in (0, 3) and "Traceback" not in err
        assert code == 0 or err.startswith("domain error: ")


    @pytest.mark.parametrize(
        "kind, vertices, point, margin",
        [("quad", [[0, 0], [1, 0], [1, 1e-7], [0, 1e-7]], "0.5,5e-8", "1e-05"),
         ("hex", REFERENCE_CUBE * [1, 1, 1e-8], "0.5,0.5,0", "1e-07")],
        ids=["thin-rectangle", "thin-slab"],
    )
    def test_check_sampler_without_interior_points_is_a_domain_error(
        self, capsys, tmp_path, kind, vertices, point, margin
    ):
        # An element thinner than check's sampling margin is valid: eval and
        # grid evaluate it.  check finds too few points that far inside it,
        # an evaluator failure on a valid geometry, not an input error.
        path = _geometry_file(tmp_path, kind, vertices)
        code, out, err = run(capsys, "check", "--geometry", path, "--samples", "50")
        assert (code, out) == (3, "")
        assert err == (
            f"domain error: could not sample 50 interior points (margin {margin}"
            " too large for this geometry?)\n"
        )
        code, out, err = run(
            capsys, "eval", "--geometry", path, "--point", point, "--method", "moment"
        )
        assert code == 0 and json.loads(out)["weights"] and err == ""
        code, _, err = run(
            capsys, "grid", "--geometry", path, "--resolution", "5",
            "--method", "moment", "--out", str(tmp_path / "grid.csv"),
        )
        assert (code, err) == (0, "")


class TestResidualContract:
    # A solution beyond the residual contract, forced here through the one
    # bound smallsolve.RESIDUAL_RTOL, is an evaluator failure like any
    # other: eval exits 3 naming it, grid blanks its rows under the
    # residual cause and exits 0, check counts them in evaluates and exits
    # 1, and none of them prints a traceback.
    INTERVAL = [0.0, 0.13, 0.4, 0.55, 0.9, 1.0, 1.7]

    def _geometry(self, tmp_path, name):
        if name == "interval":
            return _geometry_file(tmp_path, "interval", self.INTERVAL)
        return name

    @pytest.mark.parametrize(
        "name, point, what",
        [("conv-hex", "0.1,0.5,0.2", "solve"), ("nonconv-quad", "0.3,0.3", "closed-form"),
         ("interval", "0.3", "folded")],
    )
    def test_eval_exits_3_naming_the_residual(self, capsys, tmp_path, monkeypatch, name, point, what):
        geometry = self._geometry(tmp_path, name)
        monkeypatch.setattr(smallsolve, "RESIDUAL_RTOL", -1.0)
        argv = ["eval", "--geometry", geometry, "--point", point, "--method", "moment"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "") and "Traceback" not in err
        assert re.fullmatch(rf"domain error: {what} residual \S+ exceeds contract\n", err)

    @pytest.mark.parametrize(
        "name, options",
        [("conv-hex", ["--resolution", "5"]),
         ("nonconv-quad", ["--resolution", "11", "--derivatives"]),
         ("interval", ["--resolution", "21"])],
    )
    def test_grid_blanks_residual_rows(self, capsys, tmp_path, monkeypatch, name, options):
        geometry = self._geometry(tmp_path, name)
        out_path = tmp_path / "grid.csv"
        argv = ["grid", "--geometry", geometry, "--method", "moment", "--out", str(out_path)]
        assert run(capsys, *argv, *options) == (0, "", "")
        reference = out_path.read_text().splitlines()
        monkeypatch.setattr(smallsolve, "RESIDUAL_RTOL", -1.0)
        code, out, err = run(capsys, *argv, *options)
        assert (code, out) == (0, "")
        rows = out_path.read_text().splitlines()
        assert len(rows) == len(reference) and rows[0] == reference[0]
        blank = [r for r in rows[1:] if "" in r.split(",")]
        assert blank and err == (
            f"warning: {len(blank)} grid points failed to evaluate ({len(blank)} residual)\n"
        )
        # A blank row keeps its point; every other row keeps its bytes.
        dim = rows[0].split(",").index("phi1")
        for row, ref in zip(rows[1:], reference[1:]):
            assert row == ref or (row in blank and row.split(",")[:dim] == ref.split(",")[:dim])

    @pytest.mark.parametrize("name", ["conv-hex", "nonconv-quad", "interval"])
    def test_check_counts_residual_rows(self, capsys, tmp_path, monkeypatch, name):
        geometry = self._geometry(tmp_path, name)
        monkeypatch.setattr(smallsolve, "RESIDUAL_RTOL", -1.0)
        code, out, err = run(capsys, "check", "--geometry", geometry, "--samples", "50")
        assert (code, err) == (1, "") and "Traceback" not in out
        [evaluates] = [line for line in out.splitlines() if "evaluates" in line]
        assert re.fullmatch(r"FAIL evaluates: worst=\S+ tol=5.0e-01 \(\d+ residual\)", evaluates)


class TestCheckSmallScale:
    # The covariance maps act in element units about the vertex centroid.
    # With offsets drawn in absolute units, a square of side 2e-8 moved by
    # up to 3 units, some 1e8 of its diameters: "FAIL moment similarity
    # covariance: worst=1.779e-08" at seed 7.
    @pytest.mark.parametrize("scale", [1e-8, 1e-12])
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_scaled_square_passes(self, capsys, tmp_path, scale, seed):
        square = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]
        path = _geometry_file(tmp_path, "quad", np.array(square) * scale)
        code, out, _ = run(
            capsys, "check", "--geometry", path, "--samples", "600", "--seed", str(seed)
        )
        assert code == 0 and "FAIL" not in out
        assert "PASS moment similarity covariance" in out
        assert "PASS wachspress affine covariance" in out


class TestGrid:
    def test_biunit_three_by_three(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run(
            capsys, "grid", "--geometry", "biunit-square", "--resolution", "3",
            "--method", "moment", "--out", str(out_path),
        )
        assert code == 0
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        center = [r for r in rows if float(r["x"]) == 0 and float(r["y"]) == 0][0]
        assert [float(center[f"phi{i}"]) for i in (1, 2, 3, 4)] == [0.25] * 4

    def test_rows_only_inside(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run(
            capsys, "grid", "--geometry", "nonconv-quad", "--resolution", "21",
            "--method", "moment", "--out", str(out_path),
        )
        assert code == 0
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert 0 < len(rows) < 21 * 21
        mins = min(float(r[f"phi{i}"]) for r in rows for i in (1, 2, 3, 4))
        assert mins >= -1e-10

    def test_byte_stable(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run(
                capsys, "grid", "--geometry", "conv-quad", "--resolution", "7",
                "--method", "wachspress", "--out", str(p),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_lf_line_endings(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        run(
            capsys, "grid", "--geometry", "biunit-square", "--resolution", "3",
            "--method", "moment", "--out", str(out_path),
        )
        data = out_path.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n")

    def test_derivative_columns(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run(
            capsys, "grid", "--geometry", "conv-quad", "--resolution", "9",
            "--method", "moment", "--derivatives", "--out", str(out_path),
        )
        assert code == 0
        with open(out_path, newline="") as fh:
            reader = csv.DictReader(fh)
            assert "dphi1_dx" in reader.fieldnames and "dphi4_dy" in reader.fieldnames
            for row in reader:
                if any(row[k] == "" for k in reader.fieldnames):
                    continue
                sx = sum(float(row[f"dphi{i}_dx"]) for i in (1, 2, 3, 4))
                sy = sum(float(row[f"dphi{i}_dy"]) for i in (1, 2, 3, 4))
                assert abs(sx) <= 1e-6 and abs(sy) <= 1e-6

    def test_interval_grid(self, capsys, tmp_path):
        geom = tmp_path / "iv.json"
        geom.write_text(json.dumps({"kind": "interval", "nodes": [0, 0.25, 0.5, 1]}))
        out_path = tmp_path / "grid.csv"
        code, _, _ = run(
            capsys, "grid", "--geometry", str(geom), "--resolution", "5",
            "--method", "hat", "--out", str(out_path),
        )
        assert code == 0
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert [float(v) for v in rows[0].values()] == [0.0, 1.0, 0.0, 0.0, 0.0]

    def test_wachspress_on_nonconvex_refused(self, capsys, tmp_path):
        # grid refuses with eval's line, coords2d.require_convex's message,
        # and writes no file.
        expected = "domain error: Wachspress coordinates require a convex quadrilateral\n"
        code, out, err = run(
            capsys, "eval", "--geometry", "nonconv-quad", "--point", "0.9,1.5",
            "--method", "wachspress",
        )
        assert (code, out, err) == (3, "", expected)
        for method in ("wachspress", "wachspress-oracle"):
            code, out, err = run(
                capsys, "grid", "--geometry", "nonconv-quad", "--resolution", "5",
                "--method", method, "--out", str(tmp_path / "g.csv"),
            )
            assert (code, out, err) == (3, "", expected)
            assert not (tmp_path / "g.csv").exists()

    def test_unknown_method_before_convexity(self, capsys, tmp_path):
        # An unknown name is an input error whatever the geometry, as in eval
        # and check; a known Wachspress method stays a domain error.
        for method, expected in (("wachspressX", 2), ("wachspress", 3)):
            code, _, err = run(
                capsys, "grid", "--geometry", "nonconv-quad", "--resolution", "5",
                "--method", method, "--out", str(tmp_path / "g.csv"),
            )
            assert code == expected
            assert ("not available" in err) == (expected == 2)

    @pytest.mark.parametrize("target", ["directory", "missing-parent", "full-device"])
    def test_unwritable_out_input_error(self, capsys, tmp_path, target):
        # A full device opens, then fails on a write inside the chunk loop:
        # the 41 x 41 grid's CSV outgrows the write buffer.
        out = {
            "directory": tmp_path,
            "missing-parent": tmp_path / "missing" / "g.csv",
            "full-device": pathlib.Path("/dev/full"),
        }[target]
        if target == "full-device" and not out.exists():
            pytest.skip("no /dev/full on this system")
        code, _, err = run(
            capsys, "grid", "--geometry", "biunit-square", "--resolution", "41",
            "--method", "moment", "--out", str(out),
        )
        assert code == 2
        assert err.startswith(f"error: cannot write {str(out)!r}")

    def test_far_translated_rows_written(self, capsys, tmp_path):
        # Linear precision is checked about the vertex centroid: measured in
        # absolute coordinates, 1,864 of these 3,836 rows were left blank.
        out_path = tmp_path / "grid.csv"
        code, _, err = run(
            capsys, "grid", "--geometry", _far_quad(tmp_path), "--resolution", "101",
            "--method", "moment", "--out", str(out_path),
        )
        assert code == 0
        rows = out_path.read_text().splitlines()[1:]
        blank = sum("" in row.split(",") for row in rows)
        assert len(rows) == 3836 and blank <= 6
        assert f"warning: {blank} grid points" in err if blank else err == ""

    def test_blank_rows_name_their_cause(self, capsys, tmp_path):
        # The hexahedron's points on solid edges sharper than 90 degrees have
        # no admissible finite-difference step; the rest of its 11**3 grid
        # evaluates.
        out_path = tmp_path / "grid.csv"
        code, _, err = run(
            capsys, "grid", "--geometry", "conv-hex", "--resolution", "11",
            "--method", "moment", "--derivatives", "--out", str(out_path),
        )
        assert code == 0
        assert err == "warning: 22 grid points failed to evaluate (22 no admissible derivative step)\n"
        rows = [row.split(",") for row in out_path.read_text().splitlines()[1:]]
        assert sum(r[3] != "" and r[-1] == "" for r in rows) == 22
        # The mean value oracle is undefined on the boundary: every blank row
        # is an edge or vertex point, and stderr counts them as such.
        code, _, err = run(
            capsys, "grid", "--geometry", "conv-quad", "--resolution", "21",
            "--method", "mvc-oracle", "--out", str(out_path),
        )
        assert code == 0
        rows = [row.split(",") for row in out_path.read_text().splitlines()[1:]]
        blank = np.array([[float(r[0]), float(r[1])] for r in rows if r[2] == ""])
        codes = _locate_quad(convex_quad(), *blank.T)[0]
        assert len(blank) > 0 and set(codes.tolist()) == {LOC_FACET, LOC_VERTEX}
        assert err == f"warning: {len(blank)} grid points failed to evaluate ({len(blank)} boundary)\n"

    def test_failed_closed_form_gradient_named(self, capsys, tmp_path, monkeypatch):
        # A closed-form gradient that is singular or not finite at its point
        # blanks that row's derivative cells, keeps its weights, and is
        # counted under its own cause.
        real = cli.GRADIENT_METHODS["quad"]["moment"]

        def failing(quad, points, info):
            grad, ok = real(quad, points, info)
            first = np.flatnonzero(ok)[:1]
            grad[first], ok[first] = np.nan, False
            return grad, ok

        monkeypatch.setitem(cli.GRADIENT_METHODS["quad"], "moment", failing)
        out_path = tmp_path / "grid.csv"
        code, _, err = run(
            capsys, "grid", "--geometry", "biunit-square", "--resolution", "5",
            "--method", "moment", "--derivatives", "--out", str(out_path),
        )
        assert code == 0
        assert err == "warning: 1 grid points failed to evaluate (1 singular derivative)\n"
        rows = [row.split(",") for row in out_path.read_text().splitlines()[1:]]
        assert [r[6:] for r in rows].count([""] * 8) == 1 and all(r[5] != "" for r in rows)

    def test_bad_resolution(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "grid", "--geometry", "biunit-square", "--resolution", "1",
            "--method", "moment", "--out", str(tmp_path / "g.csv"),
        )
        assert code == 2


class TestCheck:
    def test_convex_quad_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--geometry", "conv-quad", "--samples", "120")
        assert code == 0
        assert "FAIL" not in out and "PASS" in out

    def test_nonconvex_quad_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--geometry", "nonconv-quad", "--samples", "120")
        assert code == 0

    def test_hex_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--geometry", "conv-hex", "--samples", "120")
        assert code == 0
        assert "facet reduction" in out

    def test_deterministic_for_seed(self, capsys):
        _, out1, _ = run(capsys, "check", "--geometry", "conv-quad", "--samples", "60", "--seed", "9")
        _, out2, _ = run(capsys, "check", "--geometry", "conv-quad", "--samples", "60", "--seed", "9")
        assert out1 == out2

    def test_interval_geometry(self, capsys, tmp_path):
        geom = tmp_path / "iv.json"
        geom.write_text(json.dumps({"kind": "interval", "nodes": [0, 0.3, 0.6, 1]}))
        code, out, _ = run(capsys, "check", "--geometry", str(geom), "--samples", "200")
        assert code == 0
        assert "hat oracle" in out

    @pytest.mark.parametrize("samples", ["0", "-5"])
    @pytest.mark.parametrize("geometry", ["conv-quad", "conv-hex"])
    def test_nonpositive_samples_input_error(self, capsys, geometry, samples):
        code, out, err = run(capsys, "check", "--geometry", geometry, f"--samples={samples}")
        assert code == 2 and "passed" not in out and "samples" in err

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1", "2"])
    def test_bad_tol_input_error(self, capsys, tol):
        # The tolerances are fixed: check has no --tol, and any value is a
        # usage error.
        argv = ["check", "--geometry", "conv-quad", "--samples", "5", f"--tol={tol}"]
        code, out, err = _outcome(capsys, main, argv)
        assert (code, out) == (2, "") and "Traceback" not in err
        assert err.startswith("usage: momentcoords") and "unrecognized arguments: --tol" in err

    def test_help_lists_geometry_samples_seed(self, capsys):
        code, out, _ = _outcome(capsys, main, ["check", "--help"])
        assert code == 0
        assert set(re.findall(r"--\w+", out)) == {"--help", "--geometry", "--samples", "--seed"}

    def test_method_option_removed(self, capsys):
        # check runs every family that is defined on the geometry.
        argv = ["check", "--geometry", "conv-quad", "--method", "moment"]
        code, out, err = _outcome(capsys, main, argv)
        assert (code, out) == (2, "") and "Traceback" not in err
        assert err.startswith("usage: momentcoords") and "unrecognized arguments: --method" in err

    @pytest.mark.parametrize("geometry", ["conv-quad", "conv-hex"])
    def test_negative_seed_input_error(self, capsys, geometry):
        # The random generator's own message names neither the option nor
        # the value.
        code, out, err = run(capsys, "check", "--geometry", geometry, "--seed=-1")
        assert (code, out) == (2, "")
        assert err == "error: seed must be a non-negative integer, got -1\n"


def _outcome(capsys, call, argv):
    """(exit code, stdout, stderr) of call(argv), which may exit."""
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_built_once(capsys, monkeypatch):
    # main parses with one parser per process: a command run again after a
    # usage error and two help requests prints what it printed first, and
    # the help and usage bytes are those of a freshly built parser.
    exits = [["grid"], ["--help"], ["check", "--help"]]
    fresh = [_outcome(capsys, cli.build_parser().parse_args, argv) for argv in exits]
    assert [code for code, _, _ in fresh] == [2, 0, 0]
    assert fresh[0][2].startswith("usage: momentcoords grid") and "--geometry" in fresh[0][2]
    assert fresh[1][1].startswith("usage: momentcoords") and "check" in fresh[1][1]
    check = ["check", "--geometry", "conv-quad", "--samples", "30", "--seed", "4"]
    first = _outcome(capsys, main, check)
    assert first[0] == 0 and "all 16 properties passed" in first[1]

    def refuse():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert [_outcome(capsys, main, argv) for argv in exits] == fresh
    assert _outcome(capsys, main, check) == first


def _geometry_file(tmp_path, kind, vertices):
    path = tmp_path / f"{kind}.json"
    key = "nodes" if kind == "interval" else "vertices"
    path.write_text(json.dumps({"kind": kind, key: np.asarray(vertices).tolist()}))
    return str(path)


@pytest.mark.parametrize("kind", ["quad", "hex", "interval"])
def test_overflowing_coordinates_one_message(capsys, tmp_path, kind):
    # Pairwise distances of the +-1e308 square or cube overflow; every pair
    # used to be reported as coincident, after numpy overflow warnings.  The
    # span of nodes +-1e308 overflowed too: SingularMatrix, after a warning.
    shape, origin = {
        "quad": ([(-1, -1), (1, -1), (1, 1), (-1, 1)], "0,0"),
        "hex": (REFERENCE_CUBE, "0,0,0"),
        "interval": ([-1, 0, 1], "0"),
    }[kind]
    path = _geometry_file(tmp_path, kind, np.asarray(shape, dtype=float) * 1e308)
    for command in (
        ["check", "--samples", "5"],
        ["eval", "--point", origin, "--method", "moment"],
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, command[0], "--geometry", path, *command[1:])
        assert (code, out) == (2, "")
        assert err == f"error: invalid geometry: {OVERFLOW_MESSAGE}\n"


@pytest.mark.parametrize("kind", ["quad", "hex"])
def test_underflowing_coordinates_one_message(capsys, tmp_path, kind):
    # Every squared distance of the square or cube scaled by 1e-170
    # underflows to 0, though no two vertices are equal: that was reported
    # as "all vertices coincide".  Intervals take differences, never squares.
    shape, origin = {
        "quad": ([(-1, -1), (1, -1), (1, 1), (-1, 1)], "0,0"),
        "hex": (REFERENCE_CUBE, "0,0,0"),
    }[kind]
    out_csv = str(tmp_path / "tiny.csv")
    coincident = np.full_like(np.asarray(shape, dtype=float), 1e-170)
    for vertices, message in (
        (np.asarray(shape, dtype=float) * 1e-170, UNDERFLOW_MESSAGE),
        (coincident, "all vertices coincide"),
    ):
        path = _geometry_file(tmp_path, kind, vertices)
        for command in (
            ["check", "--samples", "5"],
            ["eval", "--point", origin, "--method", "moment"],
            ["grid", "--resolution", "3", "--method", "moment", "--out", out_csv],
        ):
            code, out, err = run(capsys, command[0], "--geometry", path, *command[1:])
            assert (code, out) == (2, "")
            assert err == f"error: invalid geometry: {message}\n"
    assert not (tmp_path / "tiny.csv").exists()


def test_zero_volume_hex_invalid_geometry(capsys, tmp_path):
    # All eight vertices in one plane: check used to exit 2 with "could not
    # sample 20 interior points" and grid wrote blank rows.
    a = np.array([[1.0, 0.3, 0.2], [0.1, 1.0, 0.7]])
    path = _geometry_file(tmp_path, "hex", REFERENCE_CUBE @ np.vstack([a, 0.4 * a[0] + 0.5 * a[1]]).T)
    out_csv = str(tmp_path / "flat.csv")
    for command in (
        ["check", "--samples", "20"],
        ["grid", "--resolution", "5", "--method", "moment", "--out", out_csv],
        ["eval", "--point", "0,0,0", "--method", "moment"],
    ):
        code, out, err = run(capsys, command[0], "--geometry", path, *command[1:])
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid geometry: solid is flat: ") and "face 0" in err
    assert not (tmp_path / "flat.csv").exists()



@pytest.mark.parametrize(
    "data",
    [
        {"kind": "quad", "vertices": [[0, 0], [1, 0], [1, 1], [0, {}]]},
        {"kind": "hex", "vertices": {}},
        {"kind": "interval", "nodes": [0, {}, 1]},
    ],
    ids=["quad", "hex", "interval"],
)
@pytest.mark.parametrize("command", ["eval", "grid", "check"])
def test_non_numeric_geometry_entry_input_error(capsys, tmp_path, data, command):
    # float() of a JSON object raises TypeError, which used to escape as a
    # traceback with exit 1, the code of a property failure.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    point = {"quad": "0.5,0.5", "hex": "0,0,0", "interval": "0.5"}[data["kind"]]
    args = {
        "eval": ["--point", point, "--method", "moment"],
        "grid": ["--resolution", "5", "--method", "moment", "--out", str(tmp_path / "bad.csv")],
        "check": ["--samples", "5"],
    }[command]
    code, out, err = run(capsys, command, "--geometry", str(path), *args)
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid geometry: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize(
    "data",
    [
        {"kind": "quad", "vertices": [[False, False], [True, False], [True, True], [False, True]]},
        {"kind": "quad", "vertices": [["0", 0], [1, 0], [1, 1], [0, 1]]},
        {"kind": "quad", "vertices": [[0, 0], [1, 0], [1, 1], [0, None]]},
        {"kind": "hex", "vertices": [list(map(bool, v)) for v in (REFERENCE_CUBE + 1) / 2]},
        {"kind": "hex", "vertices": [[str(x) for x in v] for v in REFERENCE_CUBE.tolist()]},
        {"kind": "interval", "nodes": [False, True, 2]},
        {"kind": "interval", "nodes": ["0", "0.5", "1"]},
    ],
    ids=["quad-bool", "quad-string", "quad-null", "hex-bool", "hex-string", "interval-bool",
         "interval-string"],
)
@pytest.mark.parametrize("command", ["eval", "grid", "check"])
def test_non_number_coordinate_input_error(capsys, tmp_path, data, command):
    # JSON booleans and numeric strings used to pass as coordinates: the
    # boolean square evaluated as the unit square, "0" as 0.0.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    point = {"quad": "0.5,0.5", "hex": "0,0,0", "interval": "0.5"}[data["kind"]]
    args = {
        "eval": ["--point", point, "--method", "moment"],
        "grid": ["--resolution", "5", "--method", "moment", "--out", str(tmp_path / "bad.csv")],
        "check": ["--samples", "5"],
    }[command]
    code, out, err = run(capsys, command, "--geometry", str(path), *args)
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid geometry: ") and err.count("\n") == 1
    assert "is not a number" in err
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize(
    "content, message",
    [
        (b'{"kind": "quad", "vertices": [[0, 0], [1, 0]', "geometry file {path!r} is not valid JSON: "),
        (b'[[0, 0], [1, 0], [1, 1], [0, 1]]', "geometry object needs a 'kind' field"),
        (b'"quad"', "geometry object needs a 'kind' field"),
        (b'{"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}', "geometry object needs a 'kind' field"),
        (b'{"kind": "quad", "nodes": [0, 1, 2]}', "geometry of kind 'quad' is missing field 'vertices'"),
        (b'{"kind": "tet", "vertices": []}', "unknown geometry kind 'tet' (quad, hex, or interval)"),
        (b'{"kind": ["quad"], "vertices": []}', "unknown geometry kind ['quad'] (quad, hex, or interval)"),
        (b'{"kind": "quad", "vertices": [[0, 0], [1, 0], [1, 1], [0]]}', "invalid geometry: "),
        (b"\xff\xfe{}", "geometry file {path!r} is not valid JSON: 'utf-8' codec can't decode"),
    ],
    ids=["truncated", "list", "string", "no-kind", "no-vertices", "tet", "list-kind", "ragged",
         "not-utf-8"],
)
@pytest.mark.parametrize("command", ["eval", "grid", "check"])
def test_malformed_geometry_file_input_error(capsys, tmp_path, content, message, command):
    # A non-UTF-8 file used to print the codec's message without the file's
    # name.
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    args = {
        "eval": ["--point", "0.5,0.5", "--method", "moment"],
        "grid": ["--resolution", "5", "--method", "moment", "--out", str(tmp_path / "bad.csv")],
        "check": ["--samples", "5"],
    }[command]
    code, out, err = run(capsys, command, "--geometry", str(path), *args)
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message.format(path=str(path))) and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "bad.csv").exists()


def test_integer_beyond_float_range_input_error(capsys, tmp_path):
    # An integer too large for a float used to escape as an OverflowError
    # traceback with exit 1.
    path = tmp_path / "big.json"
    path.write_text('{"kind": "interval", "nodes": [0, 1, 1' + "0" * 400 + "]}")
    code, out, err = run(
        capsys, "eval", "--geometry", str(path), "--point", "0.5", "--method", "moment"
    )
    assert (code, out) == (2, "")
    assert err == "error: invalid geometry: a nodes entry is too large for a float\n"


def test_integer_coordinates_accepted(capsys, tmp_path):
    path = tmp_path / "ints.json"
    path.write_text(json.dumps({"kind": "quad", "vertices": [[0, 0], [2, 0], [2, 2], [0, 2]]}))
    code, out, _ = run(
        capsys, "eval", "--geometry", str(path), "--point", "1,1", "--method", "moment"
    )
    assert code == 0 and json.loads(out)["weights"] == [0.25] * 4


class TestCramerOnFlatCorner:
    # A valid quadrilateral whose corner at vertex 1 is nearly straight: the
    # corner triangle (0, 1, 2) is too flat for the Cramer expansion.
    VERTICES = [(0.0, 0.0), (1.0, 0.0), (2.0, 1e-14), (1.0, 1.0)]
    MESSAGE = (
        "domain error: Cramer's rule is undefined on this quadrilateral:"
        " corner triangle (0, 1, 2) has area 5.000e-15\n"
    )

    def test_eval_domain_error(self, capsys, tmp_path):
        path = _geometry_file(tmp_path, "quad", self.VERTICES)
        for method, expected in (("cramer", (3, "", self.MESSAGE)), ("moment", (0,))):
            result = run(capsys, "eval", "--geometry", path, "--point", "1,0.5", "--method", method)
            assert result[: len(expected)] == expected

    def test_grid_domain_error(self, capsys, tmp_path):
        path = _geometry_file(tmp_path, "quad", self.VERTICES)
        out_path = tmp_path / "grid.csv"
        code, out, err = run(
            capsys, "grid", "--geometry", path, "--resolution", "9",
            "--method", "cramer", "--out", str(out_path),
        )
        assert (code, out, err) == (3, "", self.MESSAGE)
        assert not out_path.exists()

    def test_check_leaves_out_cramer_line(self, capsys, tmp_path):
        path = _geometry_file(tmp_path, "quad", self.VERTICES)
        code, out, _ = run(capsys, "check", "--geometry", path, "--samples", "50")
        assert code == 0
        assert "cramer" not in out and "moment vs mean-value oracle" in out
        assert out.endswith("all 15 properties passed\n")


@pytest.mark.parametrize("scale", [1e9, 1e12, 1e14, 1e100])
def test_large_interval_evaluates(capsys, tmp_path, scale):
    # Scaled by 1e9 the n x n interval solve failed its residual contract
    # (grid and check exited 1 with a traceback); from 1e14 its pivot floor
    # refused every point (blank grid rows, check exited 2).
    nodes = sampling.random_nodes(np.random.default_rng(3), 7).nodes * scale + 3 * scale
    path = _geometry_file(tmp_path, "interval", nodes)
    out_path = tmp_path / "grid.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point = repr(float(nodes[3]))
        code, out, err = run(capsys, "eval", "--geometry", path, "--point", point, "--method", "moment")
        assert (code, err) == (0, "") and json.loads(out)["weights"] == [0, 0, 0, 1, 0, 0, 0]
        code, _, err = run(
            capsys, "grid", "--geometry", path, "--resolution", "41",
            "--method", "moment", "--out", str(out_path),
        )
        assert (code, err) == (0, "")
        code, out, err = run(capsys, "check", "--geometry", path, "--samples", "50")
        assert (code, err) == (0, "") and out.endswith("properties passed\n")
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 41 and all(cell != "" for row in rows for cell in row)


@pytest.mark.parametrize("scale", [1e9, 1e12])
def test_large_hex_evaluates(capsys, tmp_path, scale):
    # The 8 x 8 system took its frame rows in absolute units: at 1e9 eval
    # printed an AssertionError traceback (solve residual beyond the
    # contract), and grid and check failed with it.
    vertices = convex_hex().vertices * scale + 3 * scale
    path = _geometry_file(tmp_path, "hex", vertices)
    out_path = tmp_path / "grid.csv"
    point = ",".join(repr(float(x)) for x in np.array([0.0, 0.5, 0.0]) * scale + 3 * scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "eval", "--geometry", path, "--point", point, "--method", "moment")
        assert (code, err) == (0, "")
        weights = np.array(json.loads(out)["weights"])
        assert np.abs(weights - 0.125).max() <= 1e-14
        code, _, err = run(
            capsys, "grid", "--geometry", path, "--resolution", "9",
            "--method", "moment", "--out", str(out_path),
        )
        assert (code, err) == (0, "")
        code, out, err = run(capsys, "check", "--geometry", path, "--samples", "50")
        assert (code, err) == (0, "") and out.endswith("properties passed\n")
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows and all(cell != "" for row in rows for cell in row)


@pytest.mark.parametrize("side", [1e9, 1e100])
def test_large_square_evaluates(capsys, tmp_path, side):
    # On [0, 1e9]^2 the 4 x 4 solve failed its residual contract (an
    # AssertionError traceback from grid --method wachspress and eval
    # --method moment); on [0, 1e100]^2 its pivot floor refused moment and
    # the Wachspress row's diameter**4 overflowed, and check failed its area
    # oracle (the product of two edge areas overflowed to NaN weights).
    path = _geometry_file(tmp_path, "quad", np.array([(0, 0), (1, 0), (1, 1), (0, 1)]) * side)
    point = f"{0.5 * side!r},{side / 3!r}"
    out_path = tmp_path / "grid.csv"
    for method in ("moment", "wachspress"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "eval", "--geometry", path, "--point", point, "--method", method)
            assert (code, err) == (0, "")
            weights = np.array(json.loads(out)["weights"])
            assert np.abs(weights - [1 / 3, 1 / 3, 1 / 6, 1 / 6]).max() <= 1e-14
            code, _, err = run(
                capsys, "grid", "--geometry", path, "--resolution", "21",
                "--method", method, "--out", str(out_path),
            )
        assert (code, err) == (0, "")
        with open(out_path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 21 * 21 and all(cell != "" for row in rows for cell in row)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "check", "--geometry", path, "--samples", "100")
    assert (code, err) == (0, "") and out.endswith("properties passed\n")
