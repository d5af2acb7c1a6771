"""The benchmark's tracer wraps dmuss functions by name.

``bench/tracer.py`` looks up every name in its ``BOUNDARIES`` on the
named ``dmuss`` module, so deleting or renaming one of them breaks
``bench/run.py --trace``.  This reads that table and checks each name.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_boundaries() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


def test_bench_boundaries_resolve_on_dmuss():
    boundaries = load_boundaries()
    assert "planner" in boundaries and "plan_decomposition" in boundaries["planner"]
    for module_name, names in boundaries.items():
        module = importlib.import_module(f"dmuss.{module_name}")
        for name in names:
            obj = getattr(module, name, None)
            assert callable(obj), f"dmuss.{module_name}.{name}"
            if isinstance(obj, type):  # the tracer wraps a class's own __init__
                assert "__init__" in vars(obj), f"dmuss.{module_name}.{name}.__init__"
