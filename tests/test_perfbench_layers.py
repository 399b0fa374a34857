"""The traced benchmark wraps the functions named in ``perfbench/trace.py``
``LAYERS``; a rename inside chemtext must fail here rather than in a
benchmark run."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


# What ``perfbench/run.py --trace 1`` does before ``Tracer.install``: import
# the SMILES layer and the CLI, patch ``cli.eval_pairs`` and run the
# workload's one-pair set-up command. Then every LAYERS module must be loaded,
# since the tracer looks each one up in ``sys.modules``.
_TRACE_REPLAY = """
import contextlib, importlib.util, io, json, sys

spec = importlib.util.spec_from_file_location("perfbench_trace", sys.argv[1])
trace = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trace)
argv = json.loads(sys.argv[2])

import chemtext.smiles
from chemtext import cli

calls = []
original = cli.eval_pairs

def counted(*args, **kwargs):
    calls.append(args[1].value)
    return original(*args, **kwargs)

cli.eval_pairs = counted
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(cli.main(argv))
    missing = [m for targets in trace.LAYERS.values() for m, _ in targets if m not in sys.modules]
    tracer = trace.Tracer()
    tracer.install()
    try:
        codes.append(cli.main(argv))
    finally:
        tracer.uninstall()
print(json.dumps({"codes": codes, "missing": missing, "calls": calls, "spans": sorted(set(tracer.names))}))
"""

_ONE_PAIR = {"mol2text": ("an acid", "a strong acid"), "retro": ("CC.O", "CCO"), "text2mol": ("OCC", "CCO")}


@pytest.mark.parametrize("task", sorted(_ONE_PAIR))
def test_layers_are_loaded_before_the_tracer_installs(tmp_path, task):
    prediction, reference = _ONE_PAIR[task]
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps(
        {"id": "0", "task": task, "prediction": prediction, "reference": reference}) + "\n")
    argv = ["evaluate", "--task", task, "--predictions", str(preds), "--quiet"]
    if task == "retro":
        oracle = tmp_path / "oracle.jsonl"
        oracle.write_text('{"precursors": "CC.O", "product": "CCO"}\n')
        argv += ["--oracle", f"lookup:{oracle}"]
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _TRACE_REPLAY, str(TRACE), json.dumps(argv)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0]
    assert result["missing"] == []
    assert result["calls"] == [task, task]  # cmd_evaluate calls the patched cli.eval_pairs
    # the traced run records the task's evaluator, and a molecule task its parses
    assert f"harness.eval_{task}" in result["spans"]
    assert ("smiles.parse_smiles" in result["spans"]) == (task != "mol2text")
