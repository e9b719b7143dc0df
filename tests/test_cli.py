import csv
import json
import warnings

import numpy as np
import pytest

from momentcoords import sampling
from momentcoords.cli import main
from momentcoords.geometry import OVERFLOW_MESSAGE, REFERENCE_CUBE
from momentcoords.shapes import convex_hex, nonconvex_quad


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
        for method in ("wachspress", "wachspress-oracle"):
            code, _, err = run(
                capsys, "grid", "--geometry", "nonconv-quad", "--resolution", "5",
                "--method", method, "--out", str(tmp_path / "g.csv"),
            )
            assert code == 3 and "domain error" in err

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

    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    def test_unwritable_out_input_error(self, capsys, tmp_path, target):
        out = tmp_path if target == "directory" else tmp_path / "missing" / "g.csv"
        code, _, err = run(
            capsys, "grid", "--geometry", "biunit-square", "--resolution", "3",
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

    def test_wachspress_on_nonconvex_refused(self, capsys):
        code, _, err = run(
            capsys, "check", "--geometry", "nonconv-quad", "--method", "wachspress"
        )
        assert code == 3 and "domain error" in err

    def test_method_restricts_suite(self, capsys):
        code, out, _ = run(
            capsys, "check", "--geometry", "conv-quad", "--samples", "60",
            "--method", "wachspress",
        )
        assert code == 0
        assert "wachspress" in out and "moment" not in out

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

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    def test_bad_tol_input_error(self, capsys, tol):
        # An infinite scale would pass every property and a zero, negative
        # or NaN one fail them all, whatever the coordinates.
        code, out, err = run(
            capsys, "check", "--geometry", "conv-quad", "--samples", "5", f"--tol={tol}"
        )
        assert code == 2 and out == "" and "tol" in err


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
        assert out.endswith("all 14 properties passed\n")
        code, _, err = run(capsys, "check", "--geometry", path, "--samples", "50", "--method", "cramer")
        assert (code, err) == (3, self.MESSAGE)


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
    # the Wachspress row's diameter**4 overflowed.
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
