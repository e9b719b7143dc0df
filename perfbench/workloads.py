"""Seeded workloads: their inputs, their requests and their correctness gate.

A workload is built from the freshly imported package and a seed.  It draws
every input from ``momentcoords.sampling`` (or from the builtins), writes the
geometry files the CLI reads, and exposes a list of requests.  One round runs
every request once; the runner repeats rounds for the measured time.  The
program sees only the generated inputs: grid and check requests go through
``momentcoords.cli.main``, mesh requests through the public single-point API.

Each request times only its call into the package; reading back the CSV or
the printed report, counting rows and hashing outputs happen after the clock
stops.  ``gate`` then checks the outputs of the last round.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Axiom tolerances of the gate, the same as the package's own check suite.
PARTITION_TOL = 1e-12
NONNEG_TOL = 1e-12
PRECISION_RTOL = 1e-10  # times the geometry diameter (interval: span)
ORACLE_TOL = 1e-9
# Finite-difference gradients of a linear reproduction are exact up to
# rounding amplified by 1 / step (step = 1e-6 * diameter).
GRADIENT_RTOL = 1e-6
ORACLE_SAMPLE = 64  # grid rows (or mesh evaluations) compared per output

WARNING_RE = re.compile(r"warning: (\d+) grid points failed")


@dataclass
class Outcome:
    """What one request delivered in one round."""

    elapsed: float  # seconds spent inside the package call
    pts: int  # coordinate evaluations delivered (the pts_per_s numerator)
    attempted: int  # operations that can fail
    failed: int
    digest: str  # hash of the outputs, identical in every round
    failures: Counter = field(default_factory=Counter)
    output: object = None  # kept for the gate
    scaled: float = float("nan")  # elapsed at the nominal machine speed (speed.py)


def _call_cli(cli, argv):
    """Run cli.main in-process; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        elapsed = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), elapsed


def _digest(*parts) -> str:
    h = hashlib.sha1()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


def _write_geometry(path: Path, kind: str, key: str, values) -> str:
    path.write_text(json.dumps({"kind": kind, key: np.asarray(values).tolist()}))
    return str(path)


def _axiom_problems(label, phi, vertices, points, scale):
    """Partition of unity, nonnegativity and linear precision for rows of
    weights phi (m, n) at points (m, dim).  Linear precision is taken about
    the vertex centroid, so a far-translated geometry is judged on the
    weights and not on the rounding of its absolute coordinates."""
    out = []
    if phi.size == 0:
        return out
    part = float(np.abs(phi.sum(axis=1) - 1.0).max())
    if part > PARTITION_TOL:
        out.append(f"{label}: partition of unity off by {part:.3e}")
    neg = float(-phi.min())
    if neg > NONNEG_TOL:
        out.append(f"{label}: weight {-neg:.3e} below zero")
    c = vertices.mean(axis=0)
    prec = float(np.abs(phi @ (vertices - c) - (points - c)).max()) / scale
    if prec > PRECISION_RTOL:
        out.append(f"{label}: centred linear precision off by {prec:.3e} x diameter")
    return out


# --------------------------------------------------------------------------
# Grid workloads: cli grid on one geometry per command.


class GridRequest:
    def __init__(self, mc, label, geometry_arg, geom, resolution, method, out, derivatives=False):
        self.mc = mc
        self.label = label
        self.geom = geom
        self.method = method
        self.derivatives = derivatives
        self.argv = [
            "grid", "--geometry", geometry_arg, "--resolution", str(resolution),
            "--method", method, "--out", str(out),
        ] + (["--derivatives"] if derivatives else [])
        self.out = Path(out)

    def run(self) -> Outcome:
        rc, _, err, elapsed = _call_cli(self.mc.cli, self.argv)
        text = self.out.read_text() if rc == 0 else ""
        rows = text.splitlines()[1:]
        blank = sum(1 for r in rows if r.endswith(",") or ",," in r)
        failures = Counter({"grid blank row": blank}) if blank else Counter()
        if rc != 0:
            failures["nonzero exit"] += 1
        return Outcome(
            elapsed, len(rows), len(rows) + (rc != 0), blank + (rc != 0),
            _digest(rc, text), failures, (rc, text, err),
        )

    def gate(self, outcome: Outcome, rng) -> tuple[list[str], Counter]:
        """Problems with the written rows, and the blank rows by cause."""
        rc, text, err = outcome.output
        if rc != 0:
            return [f"{self.label}: exit code {rc}: {err.strip()}"], Counter()
        problems = []
        m = WARNING_RE.search(err)
        warned = int(m.group(1)) if m else 0
        if warned != outcome.failed:
            problems.append(
                f"{self.label}: {outcome.failed} blank rows but stderr reports {warned}"
            )
        vertices = self.geom.vertices
        n, dim = vertices.shape
        header, *rows = text.splitlines()
        full, blank = [], []
        for row in rows:
            fields = row.split(",")
            (blank if "" in fields else full).append(fields)
        data = np.array(full, dtype=float).reshape(len(full), len(header.split(",")))
        pts, phi = data[:, :dim], data[:, dim : dim + n]
        problems += _axiom_problems(self.label, phi, vertices, pts, self.geom.diameter)
        if self.derivatives and len(full):
            problems += self._gradient_problems(data[:, dim + n :].reshape(-1, n, dim))
        problems += self._oracle_problems(pts, phi, rng)
        return problems, self._blank_causes(blank, n, dim)

    def _gradient_problems(self, grad):
        # d/dx of sum(phi) = 0 and d/dx of sum(phi_i (v_i - c)) = identity.
        v = self.geom.vertices - self.geom.vertices.mean(axis=0)
        d = self.geom.diameter
        part = float(np.abs(grad.sum(axis=1)).max()) * d
        prec = float(np.abs(np.einsum("mij,ik->mkj", grad, v) - np.eye(v.shape[1])).max())
        out = []
        if part > GRADIENT_RTOL:
            out.append(f"{self.label}: gradient partition off by {part:.3e}")
        if prec > GRADIENT_RTOL:
            out.append(f"{self.label}: gradient linear precision off by {prec:.3e}")
        return out

    def _oracle_problems(self, pts, phi, rng):
        mc = self.mc
        oracle = {"moment": mc.mvc_oracle, "wachspress": mc.wachspress_oracle}.get(self.method)
        if oracle is None or not isinstance(self.geom, mc.Quadrilateral) or not len(pts):
            return []
        worst = 0.0
        for i in rng.choice(len(pts), min(ORACLE_SAMPLE, len(pts)), replace=False):
            try:
                ref = oracle(self.geom, pts[i])
            except mc.OnBoundary:
                continue  # the closed forms are undefined on the boundary
            worst = max(worst, float(np.abs(phi[i] - ref).max()))
        if worst > ORACLE_TOL:
            return [f"{self.label}: {self.method} differs from its oracle by {worst:.3e}"]
        return []

    def _blank_causes(self, blank, n, dim):
        """Re-evaluate each blank row through the public API to name the
        exception the CLI swallowed."""
        mc = self.mc
        fn = mc.cli.METHODS["quad" if dim == 2 else "hex"][self.method]
        causes = Counter()
        for fields in blank:
            p = np.array(fields[:dim], dtype=float)
            if fields[dim] != "":
                causes["derivatives: " + self._gradient_error(fn, p)] += 1
                continue
            try:
                fn(self.geom, p)
            except Exception as exc:  # noqa: BLE001 - naming the failure is the point
                causes[type(exc).__name__] += 1
            else:
                causes["MomentCoordsError (write-time row check)"] += 1
        return causes

    def _gradient_error(self, fn, p):
        mc = self.mc
        classify = mc.classify_point_quad if p.shape[0] == 2 else mc.face_of_point_hex
        h = mc.gradients.FD_STEP_RTOL * self.geom.diameter
        try:
            mc.gradients.finite_difference_gradient(
                lambda q: fn(self.geom, q), lambda q: classify(self.geom, q).inside, p, h
            )
        except Exception as exc:  # noqa: BLE001
            return type(exc).__name__
        return "not reproduced"


class Workload:
    def __init__(self, mc, requests):
        self.mc = mc
        self.requests = requests


class GridWorkload(Workload):
    """Shared by quad-grid and hex-grid."""

    def warm_up(self):
        for req in self.requests:
            argv = list(req.argv)
            argv[argv.index("--resolution") + 1] = "5"
            _call_cli(self.mc.cli, argv)

    def gate(self, outcomes, seed):
        rng = np.random.default_rng([seed, 1])
        problems, causes = [], Counter()
        for req, outcome in zip(self.requests, outcomes):
            p, c = req.gate(outcome, rng)
            problems += p
            causes += Counter({f"{req.label}: {k}": v for k, v in c.items()})
        return problems, causes


def quad_grid(mc, seed, workdir):
    """Four grid commands, one quadrilateral each; the fourth is the
    nonconvex builtin translated by a seeded offset of about 1e6."""
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    offset = rng.uniform(0.8e6, 1.2e6) * np.array([np.cos(angle), np.sin(angle)])
    far = mc.shapes.nonconvex_quad().vertices + offset
    far_file = _write_geometry(workdir / "far-quad.json", "quad", "vertices", far)
    specs = [
        ("nonconv-quad moment 101", "nonconv-quad", 101, "moment", False),
        ("conv-quad wachspress 101", "conv-quad", 101, "wachspress", False),
        ("nonconv-quad moment 41 derivatives", "nonconv-quad", 41, "moment", True),
        ("translated nonconv-quad moment 61", far_file, 61, "moment", False),
    ]
    requests = []
    for i, (label, arg, res, method, deriv) in enumerate(specs):
        geom = mc.Quadrilateral(far) if arg == far_file else mc.shapes.BUILTINS[arg]()
        requests.append(
            GridRequest(mc, label, arg, geom, res, method, workdir / f"grid{i}.csv", deriv)
        )
    return GridWorkload(mc, requests)


def hex_grid(mc, seed, workdir):
    """The tapered builtin hexahedron and a seeded tilted plane hexahedron."""
    rng = np.random.default_rng(seed)
    tilted = mc.sampling.random_plane_hex(rng, tilt=0.4)
    tilted_file = _write_geometry(workdir / "plane-hex.json", "hex", "vertices", tilted.vertices)
    requests = [
        GridRequest(mc, "conv-hex moment 21", "conv-hex", mc.shapes.convex_hex(), 21,
                    "moment", workdir / "grid0.csv"),
        GridRequest(mc, "plane-hex(tilt=0.4) moment 15", tilted_file, tilted, 15,
                    "moment", workdir / "grid1.csv"),
    ]
    return GridWorkload(mc, requests)


# --------------------------------------------------------------------------
# Mesh workload: many small elements through the public single-point API.


class MeshElement:
    """Build one element from raw vertices (validating it) and evaluate it
    at its precomputed points with every method that applies."""

    def __init__(self, mc, kind, raw, points):
        self.mc = mc
        self.label = f"{kind} element"
        self.kind = kind
        self.raw = raw
        self.points = points

    def _evaluate(self):
        mc = self.mc
        if self.kind == "quad":
            geom = mc.Quadrilateral(self.raw)
            fns = [mc.moment_coords_quad]
            if geom.is_convex:
                fns.append(mc.wachspress_coords_quad)
        elif self.kind == "hex":
            geom = mc.Hexahedron(self.raw)
            fns = [mc.moment_coords_hex]
        else:
            geom = mc.NodeSet1D(self.raw)
            fns = [mc.moment_coords_1d]
        results, failures = [], Counter()
        for p in self.points:
            for fn in fns:
                try:
                    results.append((fn.__name__, p, fn(geom, p)))
                except Exception as exc:  # noqa: BLE001 - counted as a failed evaluation
                    failures[type(exc).__name__] += 1
        return geom, results, failures

    def run(self) -> Outcome:
        t0 = time.perf_counter()
        geom, results, failures = self._evaluate()
        elapsed = time.perf_counter() - t0
        evals = len(results) + sum(failures.values())
        digest = _digest(*(w.tobytes() for _, _, w in results), sorted(failures.items()))
        return Outcome(elapsed, evals, evals, sum(failures.values()), digest, failures,
                       (geom, results))


class MeshWorkload(Workload):
    def warm_up(self):
        for req in self.requests[:20]:
            req.run()

    def gate(self, outcomes, seed):
        mc = self.mc
        rng = np.random.default_rng([seed, 1])
        problems = []
        checked = rng.choice(len(outcomes), min(len(outcomes), 8 * ORACLE_SAMPLE), replace=False)
        oracles = {
            "moment_coords_quad": mc.mvc_oracle,
            "wachspress_coords_quad": mc.wachspress_oracle,
            "moment_coords_1d": mc.hat_oracle,
        }
        worst = 0.0
        for i, outcome in enumerate(outcomes):
            geom, results = outcome.output
            if not results:
                continue
            if isinstance(geom, mc.NodeSet1D):
                vertices, scale = geom.nodes[:, None], geom.span
                pts = np.array([[p] for _, p, _ in results])
            else:
                vertices, scale = geom.vertices, geom.diameter
                pts = np.array([p for _, p, _ in results])
            phi = np.array([w for _, _, w in results])
            problems += _axiom_problems(f"mesh element {i} ({geom!r})", phi, vertices, pts, scale)
        for i in checked:
            geom, results = outcomes[i].output
            for name, p, w in results:
                if name in oracles:
                    worst = max(worst, float(np.abs(w - oracles[name](geom, p)).max()))
        if worst > ORACLE_TOL:
            problems.append(f"mesh: coordinates differ from their oracles by {worst:.3e}")
        return problems, Counter()


def mesh(mc, seed, workdir):
    """About 1,000 shuffled elements: 400 random simple quads (half of them
    translated by up to 1e3), 100 affine cubes, 100 plane hexahedra and 400
    intervals with 3-16 nodes, each with 4-8 precomputed interior points."""
    s = mc.sampling
    rng = np.random.default_rng(seed)
    elements = []
    for i in range(400):
        quad = s.random_simple_quad(rng)
        if i % 2:
            quad = mc.Quadrilateral(quad.vertices + rng.uniform(-1e3, 1e3, 2))
        pts = s.interior_points_quad(quad, int(rng.integers(4, 9)), rng)
        elements.append(("quad", quad.vertices.tolist(), list(pts)))
    for i in range(200):
        hexa = s.random_affine_cube_hex(rng) if i % 2 else s.random_plane_hex(rng)
        pts = s.interior_points_hex(hexa, int(rng.integers(4, 9)), rng)
        elements.append(("hex", hexa.vertices.tolist(), list(pts)))
    for _ in range(400):
        nodes = s.random_nodes(rng, int(rng.integers(3, 17)))
        xs = rng.uniform(nodes.nodes[0], nodes.nodes[-1], int(rng.integers(4, 9)))
        elements.append(("interval", nodes.nodes.tolist(), [float(x) for x in xs]))
    order = rng.permutation(len(elements))
    return MeshWorkload(mc, [MeshElement(mc, *elements[i]) for i in order])


# --------------------------------------------------------------------------
# Check workload: the property suites behind cli check.


class CheckRequest:
    SAMPLES = 600

    def __init__(self, mc, label, geometry_arg, seed):
        self.mc = mc
        self.label = label
        self.argv = ["check", "--geometry", geometry_arg, "--samples", str(self.SAMPLES),
                     "--seed", str(seed)]

    def run(self) -> Outcome:
        rc, out, err, elapsed = _call_cli(self.mc.cli, self.argv)
        lines = [ln for ln in out.splitlines() if ln.startswith(("PASS ", "FAIL "))]
        failed = sum(ln.startswith("FAIL ") for ln in lines)
        failures = Counter({"property FAIL": failed}) if failed else Counter()
        if rc != 0:
            failures[f"exit code {rc}"] += 1
        return Outcome(elapsed, self.SAMPLES, len(lines) + 1, failed + (rc != 0),
                       _digest(rc, out, err), failures, (rc, out, err, lines))


class CheckWorkload(Workload):
    def warm_up(self):
        for req in self.requests:
            argv = list(req.argv)
            argv[argv.index("--samples") + 1] = "10"
            _call_cli(self.mc.cli, argv)

    def gate(self, outcomes, seed):
        problems = []
        for req, outcome in zip(self.requests, outcomes):
            rc, out, err, lines = outcome.output
            if rc != 0:
                problems.append(f"{req.label}: exit code {rc}: {err.strip()}")
            if not lines:
                problems.append(f"{req.label}: no property lines printed")
            problems += [f"{req.label}: {ln}" for ln in lines if not ln.startswith("PASS ")]
            if f"all {len(lines)} properties passed" not in out:
                problems.append(f"{req.label}: missing 'all {len(lines)} properties passed'")
        return problems, Counter()


def check(mc, seed, workdir):
    """check on the four builtins plus a seeded 12-node interval."""
    rng = np.random.default_rng(seed)
    nodes = mc.sampling.random_nodes(rng, 12)
    nodes_file = _write_geometry(workdir / "nodes.json", "interval", "nodes", nodes.nodes)
    names = sorted(mc.shapes.BUILTINS) + ["interval(12 nodes)"]
    args = sorted(mc.shapes.BUILTINS) + [nodes_file]
    return CheckWorkload(mc, [CheckRequest(mc, n, a, seed) for n, a in zip(names, args)])


WORKLOADS = {"quad-grid": quad_grid, "hex-grid": hex_grid, "mesh": mesh, "check": check}
