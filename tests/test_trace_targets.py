"""The benchmark's traced runs wrap library methods and functions by name
(``perfbench/spans.py``); each name must still exist, so a rename fails
here and not only in a traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_methods_exist():
    for layer, cls, method in _spans().METHOD_COUNTERS:
        owner = getattr(importlib.import_module(f"ultraconv.{layer}"), cls)
        assert inspect.isfunction(vars(owner).get(method)), (layer, cls, method)


def test_traced_functions_exist():
    for layer, name in _spans().FUNCTION_COUNTERS:
        module = importlib.import_module(f"ultraconv.{layer}")
        obj = getattr(module, name, None)
        # spans wraps only public functions defined in the module itself
        assert inspect.isfunction(obj) and obj.__module__ == module.__name__, (layer, name)
        assert not name.startswith("_"), (layer, name)
