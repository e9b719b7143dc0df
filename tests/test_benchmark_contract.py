"""The names the benchmark (perfbench/) looks up in the package.

perfbench/tracing.py wraps the functions of its LAYERS table by name, and
perfbench/run.py and workloads.py call into the package; removing or
renaming one of these names would break a traced benchmark run, so it
fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

import momentcoords
from momentcoords import cli, smallsolve
from momentcoords.coords3d import Frame3

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_target_resolves():
    layers = _load_tracing().LAYERS
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


def test_frame_identity_and_backend():
    assert callable(Frame3.is_identity)
    assert smallsolve.active_backend() == "python"


def test_every_exported_name_resolves():
    for name in momentcoords.__all__:
        assert hasattr(momentcoords, name), name
