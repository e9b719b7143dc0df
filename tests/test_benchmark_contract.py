"""The names the benchmark (perfbench/) looks up in the package.

perfbench/tracing.py wraps the functions of its LAYERS table by name, and
perfbench/run.py and workloads.py call into the package; removing or
renaming one of these names would break a traced benchmark run, so it
fails here first.  The gate's own tolerances in workloads.py are held no
tighter than the package's row check.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import momentcoords
from momentcoords import cli, gradients, smallsolve, tolerances
from momentcoords.coords3d import Frame3

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """perfbench/<name>.py, loaded from its file and registered under
    perfbench_<name>, where its dataclasses look their module up."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_target_resolves():
    layers = _load("tracing").LAYERS
    assert layers
    for targets in layers.values():
        for module, attr in targets:
            obj = importlib.import_module(f"{momentcoords.__name__}.{module}")
            for part in attr.split("."):
                obj = getattr(obj, part)
            assert callable(obj), (module, attr)


def test_every_batch_method_has_a_single_point_method():
    for kind, table in cli.BATCH_METHODS.items():
        for name in table:
            assert callable(cli.METHODS[kind][name]), (kind, name)


def test_gradient_step_resolves():
    # GridRequest._gradient_error steps by gradients.FD_STEP_RTOL.
    assert gradients.FD_STEP_RTOL is tolerances.FD_STEP_RTOL


def test_gate_is_no_tighter_than_the_row_check():
    # The gate must not judge grid rows by a bound tighter than the one
    # checks.row_ok wrote them under.
    gate = _load("workloads")
    assert gate.PARTITION_TOL >= tolerances.PARTITION_TOL
    assert gate.NONNEG_TOL >= tolerances.NONNEG_TOL
    assert gate.PRECISION_RTOL >= tolerances.PRECISION_RTOL


def test_frame_identity_and_backend():
    assert callable(Frame3.is_identity)
    assert smallsolve.active_backend() == "python"


def test_every_exported_name_resolves():
    for name in momentcoords.__all__:
        assert hasattr(momentcoords, name), name
