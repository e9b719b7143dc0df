#!/usr/bin/env python3
"""Layered benchmark for momentcoords.

Run from the repository root:

    python3 perfbench/run.py --workload quad-grid --seed 1 --seconds 15 --trace 0

Workloads (why each exists is recorded in BENCHMARK.json):

* quad-grid: ``grid`` on nonconv-quad moment 101^2, conv-quad wachspress
  101^2, nonconv-quad moment 41^2 with --derivatives, and nonconv-quad
  translated by a seeded offset of about 1e6 at 61^2.
* hex-grid: ``grid`` on conv-hex 21^3 and a seeded tilt-0.4 plane hex 15^3.
* mesh: about 1,000 shuffled quads, hexahedra and intervals, each built from
  raw vertices and evaluated at 4-8 points through the single-point API.
* check: ``check --samples 600`` on the four builtins and a seeded 12-node
  interval.

One run imports the package from ``src/`` of the checkout, sets the workload
up several times (import, seeded inputs, geometry files, warm-up), then sends
its requests in a closed loop with one client, round after round, until
``--seconds`` have passed.  The outputs of the last round go through a
correctness gate, and every round must reproduce the first bit for bit.

Times are scaled to a nominal machine speed sampled next to each request,
because the speed a shared host gives one process swings by up to 2x within
seconds; speed.py says how.  The measured figures are printed as well.

``--trace 0`` prints the end-to-end metrics:

* setup_s: median set-up time over several set-ups;
* pts_per_s: coordinate evaluations per round (grid rows written, mesh point
  evaluations, check samples x geometries) over the sum of the per-request
  median times;
* ok_frac: 1 - failed_frac, the share of attempted operations that did not
  fail (grid: blank CSV rows; mesh: raised exceptions; check: failed
  properties or a nonzero exit);
* peak_rss_mb: peak resident memory of the process.

The JSON ``attempted`` and ``failed`` count the operations of one round, so
they depend on the seed only.  The lines before the JSON add failed_frac with
its counts and causes, the per-request times and, on mesh, the per-element latency percentiles.

``--trace 1`` runs untraced rounds and then traced rounds (half the time
each), and prints per-layer counts and self times per round, plus
trace.overhead_frac.  The spans are written to perfbench/out/.

The program exits with 2, printing no result, when it cannot run: no
``src/momentcoords`` in the checkout, or Python started with -O (the solver's
residual contract only runs under ``__debug__``).
"""

from __future__ import annotations

import os

# One BLAS thread, pinned before numpy is imported.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 5  # set-ups per run; setup_s is their median

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
from tracing import LAYER_NAMES, PACKAGE, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class CannotRun(Exception):
    pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def setup(workload: str, seed: int, workdir: Path):
    """Import the package afresh, build the workload's inputs and warm up."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    mc = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    if not Path(mc.__file__).resolve().is_relative_to(SRC):
        raise CannotRun(f"{PACKAGE} was imported from {mc.__file__}, not from {SRC}")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = WORKLOADS[workload](mc, seed, workdir)
    wl.warm_up()
    return mc, wl


def run_rounds(wl, seconds: float, probe: speed.SpeedProbe, tracer: Tracer | None = None):
    """Closed loop, one client: whole rounds until `seconds` have passed,
    with the machine speed sampled between requests."""
    rounds = []
    deadline = time.perf_counter() + seconds
    probe.sample()
    while not rounds or time.perf_counter() < deadline:
        outcomes = []
        for i, req in enumerate(wl.requests):
            if probe.due():
                probe.sample()
            if tracer is not None:
                tracer.request = len(rounds) * len(wl.requests) + i
            outcome = req.run()
            probe.track(outcome)
            outcomes.append(outcome)
        if rounds:  # only the last round's outputs are gated; keep memory flat
            for outcome in rounds[-1]:
                outcome.output = None
        rounds.append(outcomes)
    probe.sample()
    return rounds


def summarize(wl, rounds, seed):
    """Throughput, failure accounting and gate problems of a timed phase."""
    first, last = rounds[0], rounds[-1]
    problems = []
    for r, outcomes in enumerate(rounds[1:], start=2):
        for req, a, b in zip(wl.requests, first, outcomes):
            if a.digest != b.digest:
                problems.append(f"round {r} output differs from round 1: {req.label}")
    gate_problems, causes = wl.gate(last, seed)
    problems += gate_problems
    medians = [statistics.median(r[i].scaled for r in rounds) for i in range(len(first))]
    measured = [statistics.median(r[i].elapsed for r in rounds) for i in range(len(first))]
    pts = sum(o.pts for o in first)
    # Every round is checked to reproduce the first bit for bit, so the counts
    # of one round depend on the seed only, not on how many rounds fit in time.
    attempted = sum(o.attempted for o in first)
    failed = sum(o.failed for o in first)
    by_type = Counter()
    for o in last:
        by_type += o.failures
    return {
        "problems": problems,
        "medians": medians,
        "pts_per_round": pts,
        "pts_per_s": pts / sum(medians),
        "measured_pts_per_s": pts / sum(measured),
        "attempted": attempted,
        "failed": failed,
        "failures_per_round": by_type,
        "causes_per_round": causes,
        "samples": [o.scaled for outcomes in rounds for o in outcomes],
    }


def report_requests(wl, rounds, summary):
    """One line per request of a grid or check round (mesh has too many)."""
    if len(wl.requests) > 10:
        return
    for req, med, o in zip(wl.requests, summary["medians"], rounds[-1]):
        print(f"  {req.label}: {o.pts} points, {o.failed} of {o.attempted} "
              f"failed, scaled median {med * 1e3:.1f} ms")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        raise CannotRun("refusing to run under python -O: the solver's residual "
                        "contract only runs under __debug__")
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise CannotRun(f"no package source at {SRC / PACKAGE}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        return (traced if args.trace else untraced)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def environment(mc) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": mc.smallsolve.active_backend(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def untraced(args, workdir) -> int:
    probe = speed.SpeedProbe()
    probe.sample()
    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        mc, wl = setup(args.workload, args.seed, workdir)
        setups.append(SimpleNamespace(elapsed=time.perf_counter() - t0))
        probe.track(setups[-1])
        probe.sample()
    print("env:", json.dumps(environment(mc)))
    rounds = run_rounds(wl, args.seconds, probe)
    s = summarize(wl, rounds, args.seed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{len(wl.requests)} requests and {s['pts_per_round']} points per round")
    print(f"  speed probe: {len(probe.samples)} samples, fastest "
          f"{min(probe.samples) * 1e3:.3f} ms, median {statistics.median(probe.samples) * 1e3:.3f} ms"
          f" (nominal {speed.NOMINAL_S * 1e3:.3f} ms)")
    print(f"  measured: {s['measured_pts_per_s']:.1f} pts/s, setup "
          f"{statistics.median(x.elapsed for x in setups):.4f} s")
    report_requests(wl, rounds, s)
    if args.workload == "mesh":
        lat = np.array(s["samples"]) * 1e6
        print(f"  elem_p50_us {np.percentile(lat, 50):.1f} us, elem_p99_us "
              f"{np.percentile(lat, 99):.1f} us over {lat.size} elements "
              f"({lat.size // 100} beyond p99)")
    failed_frac = s["failed"] / s["attempted"]
    print(f"  failed_frac {failed_frac:.6g} ({s['failed']} of {s['attempted']} operations per round)")
    for kind, count in sorted(s["failures_per_round"].items()):
        print(f"  failures per round: {count} {kind}")
    for cause, count in sorted(s["causes_per_round"].items()):
        print(f"  cause: {count} x {cause}")
    for problem in s["problems"]:
        print(f"  GATE FAILED: {problem}")

    metrics = {
        "setup_s": (statistics.median(x.scaled for x in setups), "s"),
        "pts_per_s": (s["pts_per_s"], "1/s"),
        "ok_frac": (1.0 - failed_frac, "frac"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return emit(not s["problems"], s["attempted"], s["failed"], metrics)


def traced(args, workdir) -> int:
    mc, wl = setup(args.workload, args.seed, workdir)
    print("env:", json.dumps(environment(mc)))
    plain = run_rounds(wl, args.seconds / 2, speed.SpeedProbe())
    probe = speed.SpeedProbe()
    tracer = Tracer()
    tracer.install()
    try:
        rounds = run_rounds(wl, args.seconds / 2, probe, tracer)
    finally:
        tracer.uninstall()
    s = summarize(wl, plain + rounds, args.seed)
    for problem in s["problems"]:
        print(f"  GATE FAILED: {problem}")
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
    tracer.write(spans_file)
    print(f"{len(tracer.spans)} spans over {len(rounds)} traced rounds written to "
          f"{spans_file.relative_to(ROOT)}")

    # Span times are scaled to the nominal machine speed like request times,
    # by the median speed sample of the traced phase.
    scale = speed.NOMINAL_S / statistics.median(probe.samples)
    n = len(rounds)
    totals = tracer.layer_totals()
    metrics = {}
    for layer in LAYER_NAMES:
        agg = totals[layer]
        metrics[f"{layer}.calls"] = (agg["calls"] / n, "count")
        metrics[f"{layer}.self_s"] = (agg["self_s"] * scale / n, "s")
        if layer == "smallsolve.solve":
            mean = agg["total_s"] * scale / agg["calls"] * 1e6 if agg["calls"] else 0.0
            metrics[f"{layer}.mean_us"] = (mean, "us")
            metrics[f"{layer}.singular"] = (agg["singular"] / n, "count")
        elif layer == "geometry.classify":
            metrics[f"{layer}.per_pt"] = (agg["calls"] / n / s["pts_per_round"], "calls/pt")
        elif layer == "coords3d.frame":
            frac = agg["identity"] / agg["calls"] if agg["calls"] else 0.0
            metrics[f"{layer}.identity_frac"] = (frac, "frac")
    plain_round = statistics.median(sum(o.scaled for o in r) for r in plain)
    traced_round = statistics.median(sum(o.scaled for o in r) for r in rounds)
    metrics["trace.overhead_frac"] = (traced_round / plain_round - 1.0, "frac")
    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value:.6g} {unit}")
    return emit(not s["problems"], s["attempted"], s["failed"], metrics)


def emit(correct, attempted, failed, metrics) -> int:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except CannotRun as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
