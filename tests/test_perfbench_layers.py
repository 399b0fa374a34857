"""The traced benchmark wraps the functions named in ``perfbench/trace.py``
``LAYERS``; a rename inside chemtext must fail here rather than in a
benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [
        (layer, module_name, attr)
        for layer, targets in module.LAYERS.items()
        for module_name, attr in targets
    ]


@pytest.mark.parametrize("layer,module_name,attr", _layers())
def test_traced_function_resolves(layer, module_name, attr):
    owner = importlib.import_module(module_name)
    cls_name, _, name = attr.rpartition(".")
    if cls_name:
        owner = getattr(owner, cls_name)
        # the tracer replaces the method in the class's own namespace
        assert name in vars(owner), f"{layer}: {module_name}.{attr}"
    assert callable(getattr(owner, name)), f"{layer}: {module_name}.{attr}"
