"""The benchmark pins the sha256 of the default seed's captions reports in
``perfbench/digests.json``; reports are canonical JSON and the text metrics
are exact, so a kernel change that moves one byte must fail here rather than
in a benchmark run. The inputs come from the benchmark's own generator,
loaded by path; nothing under ``perfbench/`` is written."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from chemtext.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def captions(tmp_path_factory):
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body is processed
    sys.modules[spec.name] = gen
    try:
        spec.loader.exec_module(gen)
    finally:
        del sys.modules[spec.name]
    out_dir = tmp_path_factory.mktemp("captions")
    inputs = gen.generate("captions", DIGESTS["default_seed"], out_dir)
    got = {name: _sha256(Path(path).read_bytes()) for name, path in inputs.files.items()}
    assert got == DIGESTS["inputs"]["captions"]
    return inputs.files


@pytest.mark.parametrize("task", ["mol2text", "para2actions"])
def test_default_seed_report_bytes_match_pinned_digest(task, captions, capsys):
    name = f"{task}.jsonl"
    code = main(["evaluate", "--task", task, "--predictions", captions[name], "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert _sha256(out.encode("utf-8")) == DIGESTS["outputs"]["captions"][name]
