"""The benchmark pins the sha256 of the default seed's inputs and of every
command's output in ``perfbench/digests.json``; reports are canonical JSON,
fingerprints and text metrics are exact, so a change that moves one byte of
any workload's output must fail here rather than in a benchmark run. The
inputs, the commands and the digest rule come from the benchmark's own
``run.py``, loaded by path; nothing under ``perfbench/`` is written."""

import hashlib
import importlib.util
import io
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
def run_module():
    """``perfbench/run.py``, loaded by path with its sibling ``gen`` and
    ``trace`` modules; the names are restored afterwards, as ``trace`` shadows
    the standard library's."""
    saved = {name: sys.modules.pop(name, None) for name in ("gen", "trace")}
    sys.path.insert(0, str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body is processed
    sys.modules[spec.name] = run
    try:
        spec.loader.exec_module(run)
    finally:
        del sys.modules[spec.name]
        sys.path.remove(str(PERFBENCH))
        for name, module in saved.items():
            sys.modules.pop(name, None)
            if module is not None:
                sys.modules[name] = module
    return run


@pytest.fixture(scope="module")
def commands(run_module, tmp_path_factory):
    """``commands(workload)``: the default seed's commands from
    ``run.commands_for``, on inputs made once per workload and checked against
    the pinned input digests."""
    made = {}

    def commands_for(workload):
        if workload not in made:
            in_dir, work = tmp_path_factory.mktemp(workload), tmp_path_factory.mktemp("work")
            inputs = run_module.gen.generate(workload, DIGESTS["default_seed"], in_dir)
            got = {name: _sha256(Path(path).read_bytes()) for name, path in inputs.files.items()}
            assert got == DIGESTS["inputs"][workload]
            cmds, _ = run_module.commands_for(workload, inputs, str(work))
            made[workload] = {cmd.name: cmd for cmd in cmds}
        return made[workload]

    return commands_for


def _output_digest(cmd, capsys, monkeypatch) -> str:
    """Runs the benchmark command in-process; the digest rule of
    ``run.output_digest``: sha256 of stdout followed by the written file."""
    if cmd.stdin is not None:
        stdin = Path(cmd.stdin).read_text(encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(cmd.args)
    out = capsys.readouterr().out.encode("utf-8")
    if cmd.out_file is not None:
        out += Path(cmd.out_file).read_bytes()
    assert code == 0
    return _sha256(out)


@pytest.mark.parametrize("task", ["mol2text", "para2actions"])
def test_default_seed_report_bytes_match_pinned_digest(task, commands, capsys, monkeypatch):
    name = f"{task}.jsonl"
    digest = _output_digest(commands("captions")[name], capsys, monkeypatch)
    assert digest == DIGESTS["outputs"]["captions"][name]


@pytest.mark.parametrize(
    "workload, name",
    [
        ("text2mol_30", "text2mol.jsonl"),
        ("reactions_10", "forward.jsonl"),
        ("reactions_10", "retro.jsonl"),
        ("reactions_10", "canonicalize.txt"),
        ("captions", "corpus.jsonl"),
    ],
)
def test_default_seed_output_bytes_match_pinned_digest(workload, name, commands, capsys, monkeypatch):
    digest = _output_digest(commands(workload)[name], capsys, monkeypatch)
    assert digest == DIGESTS["outputs"][workload][name]
