"""chemtext benchmark: runs the ``chemtext`` CLI end to end on one workload.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload text2mol_30 --seed 1 --seconds 15 --trace 0

The inputs are made from ``--seed`` by ``gen.py`` and handed to the CLI as
files; the CLI runs as ``python -m chemtext`` with ``PYTHONPATH=src``, one
child at a time. Every command's output is checked. The last line of stdout
is a JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it list every figure with its unit and sample count.

``--trace 0`` reports the end-to-end metrics: set-up time, CLI wall time and
throughput, in-process per-pair latency, and peak RSS. ``--trace 1`` repeats
the CLI rounds and adds an in-process run with spans around each layer's
public functions (see ``trace.py``), from which the per-layer metrics come.
``--workload all`` runs every workload in turn and prints one result line
per workload.

``--record-digests`` rewrites ``digests.json`` from the default seed: the
sha256 of every input file and of every command's output. Later runs fail
when the inputs differ from it, and count a command as failed when the
default seed's output differs from it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import gen
from trace import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 0
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 150.0
LATENCY_BATCH = 25  # in-process pairs between two speed probes
# Typical time of ``gen.speed_probe`` on the machine the baseline was recorded
# on (a 2-core x86-64 VM); timings are scaled to that machine's speed.
PROBE_REFERENCE_S = 0.0015
TASK_ORDER = ["forward", "retro", "para2actions", "text2mol", "mol2text"]
PROMPTS = {
    "forward": "Predict the product of the following reaction: <input>",
    "retro": "Predict the reaction that produces the following product: <input>",
    "para2actions": "Which actions are described in the following paragraph: <input>",
    "text2mol": "Write in SMILES the described molecule: <input>",
    "mol2text": "Caption the following SMILES: <input>",
}


class BenchmarkError(Exception):
    """The benchmark itself cannot run here (no sources, drifted inputs)."""


# -- commands -----------------------------------------------------------------------


@dataclass
class Command:
    name: str
    args: list[str]  # after ``python -m chemtext``
    kind: str  # evaluate | canonicalize | build
    items: int  # pairs, lines or records
    stdin: str | None = None
    out_file: str | None = None  # file the command writes besides stdout
    expect: object = None


def commands_for(workload: str, inputs: gen.Inputs, work: str) -> tuple[list[Command], Command]:
    """The workload's commands, and the one-pair command timed as set-up."""
    f, e = inputs.files, inputs.expect

    def evaluate(task: str, name: str, extra: list[str] = ()) -> Command:
        one_pair = name.endswith("_one.jsonl")
        return Command(
            name=name,
            args=["evaluate", "--task", task, "--predictions", f[name], "--quiet", *extra],
            kind="evaluate",
            items=1 if one_pair else e[task]["n_total"],
            expect=None if one_pair else e[task],
        )

    if workload == "text2mol_30":
        return [evaluate("text2mol", "text2mol.jsonl")], evaluate("text2mol", "text2mol_one.jsonl")
    if workload == "reactions_10":
        oracle = ["--oracle", "lookup:" + f["oracle.jsonl"]]
        canon = Command(
            name="canonicalize.txt",
            args=["canonicalize"],
            kind="canonicalize",
            items=len(e["canonicalize"]),
            stdin=f["canonicalize.txt"],
            expect=e["canonicalize"],
        )
        return (
            [evaluate("forward", "forward.jsonl"), evaluate("retro", "retro.jsonl", oracle), canon],
            evaluate("retro", "retro_one.jsonl", oracle),
        )
    build_spec = e["build-dataset"]
    build = Command(
        name="corpus.jsonl",
        args=[
            "build-dataset",
            *[a for task in build_spec["streams"] for a in ("--task-file", f"{task}={f[f'stream_{task}.jsonl']}")],
            "--per-task", str(build_spec["per_task"]),
            "--seed", "7",
            "--out", os.path.join(work, "corpus.jsonl"),
            "--quiet",
        ],
        kind="build",
        items=build_spec["per_task"] * len(build_spec["streams"]),
        out_file=os.path.join(work, "corpus.jsonl"),
        expect=build_spec,
    )
    return (
        [evaluate("mol2text", "mol2text.jsonl"), evaluate("para2actions", "para2actions.jsonl"), build],
        evaluate("mol2text", "mol2text_one.jsonl"),
    )


# -- speed probe ----------------------------------------------------------------------
#
# The host's speed drifts by up to ~60% within a minute when other tenants load
# the machine, far more than the differences the benchmark must resolve. CPU
# time drifts the same way, so it is no remedy. Every timed unit is therefore
# scaled by PROBE_REFERENCE_S over the mean time of ``gen.speed_probe`` (a
# fixed slice of pure-Python graph and string work, like chemtext's) taken
# while the unit ran:
# - a CLI child samples itself every 0.1 s (``childprobe/sitecustomize.py``);
# - a batch of in-process pairs (~0.1 s) or an in-process pass is bracketed
#   by probes just before and after it.
# The raw wall time is printed beside the scaled one.


def probe_s() -> float:
    """Mean of five speed probes taken back to back."""
    return statistics.fmean(gen.speed_probe() for _ in range(5))


def timed(fn):
    """Run ``fn()`` between two probes; returns (result, wall_s, scale), where
    ``wall_s * scale`` is the time at the reference machine's speed."""
    before = probe_s()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    return result, wall, 2 * PROBE_REFERENCE_S / (before + probe_s())


# -- running the CLI ------------------------------------------------------------------


@dataclass
class ChildResult:
    code: int
    wall_s: float
    max_rss_mb: float
    stdout: bytes
    stderr: str
    output: bytes = b""  # content of the command's out_file, if any
    samples: list[float] = field(default_factory=list)  # the child's speed probes

    @property
    def scaled_s(self) -> float:
        """``wall_s`` at the reference speed (raw when the child took no sample)."""
        return self.wall_s * PROBE_REFERENCE_S / statistics.fmean(self.samples) if self.samples else self.wall_s


def pooled_walls(results: list[ChildResult]) -> list[float]:
    """Wall times of short children (a few samples each) at the reference
    speed, scaled by the mean of all their samples."""
    samples = [t for r in results for t in r.samples]
    scale = PROBE_REFERENCE_S / statistics.fmean(samples) if samples else 1.0
    return [r.wall_s * scale for r in results]


def child_env(root: str, work: str) -> dict:
    """Environment of a CLI child: the sources and the speed sampler on the
    path, and the file the sampler writes to."""
    paths = [os.path.join(root, "src"), os.path.join(HERE, "childprobe")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths), PERFBENCH_PROBE_FILE=os.path.join(work, "child.probe"))


def run_child(argv: list[str], env: dict, work: str, stdin_path: str | None = None) -> ChildResult:
    """Run one child to completion; its max RSS comes from ``os.wait4`` and
    its speed from the samples it took of itself (none: scale 1)."""
    out_path = os.path.join(work, "child.stdout")
    err_path = os.path.join(work, "child.stderr")
    probe_path = env["PERFBENCH_PROBE_FILE"]
    if os.path.exists(probe_path):
        os.remove(probe_path)
    with open(stdin_path or os.devnull, "rb") as fin, open(out_path, "wb") as fout, open(err_path, "wb") as ferr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=fin, stdout=fout, stderr=ferr, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fp:
        stdout = fp.read()
    with open(err_path, "rb") as fp:
        stderr = fp.read().decode("utf-8", "replace")
    result = ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout, stderr)
    if os.path.exists(probe_path):
        with open(probe_path, encoding="utf-8") as fp:
            result.samples = [float(line) for line in fp]
    return result


def run_command(cmd: Command, env: dict, work: str) -> ChildResult:
    result = run_child([sys.executable, "-m", "chemtext", *cmd.args], env, work, cmd.stdin)
    if cmd.out_file and os.path.exists(cmd.out_file):
        with open(cmd.out_file, "rb") as fp:
            result.output = fp.read()
        os.remove(cmd.out_file)
    return result


# -- output checks ------------------------------------------------------------------------


def _json_escape(text: str) -> str:
    out = ['"']
    for ch in text:
        if ch in '"\\':
            out.append("\\" + ch)
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def canonical_json(value) -> str:
    """The report format: sorted keys, ``", "``/``": "`` separators, floats
    with six fractional digits, integers as integers."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, str):
        return _json_escape(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_json_escape(k)}: {canonical_json(v)}" for k, v in sorted(value.items())) + "}"
    raise TypeError(f"unexpected report value {value!r}")


def check_report(stdout: bytes, expect: dict | None, items: int) -> list[str]:
    text = stdout.decode("utf-8", "replace")
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    if text.rstrip("\n") != canonical_json(report):
        problems.append("report is not canonical JSON")
    counts = report.get("counts", {})
    if counts.get("n_total") != items:
        problems.append(f"n_total {counts.get('n_total')} != {items} pairs written")
    for name, value in report.get("metrics", {}).items():
        if not isinstance(value, float) or (name != "levenshtein" and not 0.0 <= value <= 1.0):
            problems.append(f"metric {name}={value!r} out of range")
    if expect:
        for key in ("n_valid_pred", "n_skipped"):
            if counts.get(key) != expect[key]:
                problems.append(f"{key} {counts.get(key)} != {expect[key]}")
        for name, want in expect.get("metrics", {}).items():
            got = report.get("metrics", {}).get(name)
            if got is None or abs(got - want) > 5e-7:
                problems.append(f"{name} {got} != {want:.6f}")
        if "skip_reasons" in expect and report.get("skip_reasons") != expect["skip_reasons"]:
            problems.append(f"skip_reasons {report.get('skip_reasons')} != {expect['skip_reasons']}")
    return problems


def check_canonicalize(stdout: bytes, rows: list[tuple]) -> list[str]:
    """Both writings of a molecule give one string; one string never covers
    two different signatures; no valid line is reported invalid."""
    lines = stdout.decode("utf-8", "replace").splitlines()
    if len(lines) != len(rows):
        return [f"{len(lines)} output lines for {len(rows)} input lines"]
    problems = []
    by_molecule: dict[int, set[str]] = {}
    by_output: dict[str, set] = {}
    for line, (signature, molecule) in zip(lines, rows):
        if line.startswith("INVALID"):
            problems.append(f"valid input reported as {line[:60]!r}")
        by_molecule.setdefault(molecule, set()).add(line)
        by_output.setdefault(line, set()).add(signature)
    if any(len(v) > 1 for v in by_molecule.values()):
        problems.append("two writings of one molecule canonicalize differently")
    if any(len(v) > 1 for v in by_output.values()):
        problems.append("molecules with different formulas share a canonical string")
    return problems[:5]


def check_build(stdout: bytes, corpus: bytes, spec: dict) -> list[str]:
    per_task = spec["per_task"]
    tasks = [t for t in TASK_ORDER if t in spec["streams"]]
    want = "".join(f"{t}\t{per_task}\n" for t in tasks)
    problems = []
    if stdout.decode("utf-8", "replace") != want:
        problems.append("per-task counts on stdout are wrong")
    known = {
        task: {(json.loads(line)["source"], json.loads(line)["target"]) for line in lines}
        for task, lines in spec["streams"].items()
    }
    lines = corpus.decode("utf-8", "replace").splitlines()
    if len(lines) != per_task * len(tasks):
        return problems + [f"corpus has {len(lines)} records, expected {per_task * len(tasks)}"]
    counts = dict.fromkeys(tasks, 0)
    for line in lines:
        record = json.loads(line)
        task = record.get("task")
        if task not in known or (record.get("source"), record.get("target")) not in known[task]:
            return problems + ["corpus holds a record that is in no input stream"]
        if record.get("prompt") != PROMPTS[task].replace("<input>", record["source"]):
            return problems + ["corpus record has a wrong prompt"]
        counts[task] += 1
    if any(c != per_task for c in counts.values()):
        problems.append(f"per-task corpus counts {counts}")
    return problems


def check_output(cmd: Command, result: ChildResult, digest: str | None) -> list[str]:
    if result.code != 0:
        return [f"exit code {result.code}: {result.stderr.strip()[-300:]}"]
    if cmd.kind == "evaluate":
        problems = check_report(result.stdout, cmd.expect, cmd.items)
    elif cmd.kind == "canonicalize":
        problems = check_canonicalize(result.stdout, cmd.expect)
    else:
        problems = check_build(result.stdout, result.output, cmd.expect)
    if digest is not None and output_digest(result) != digest:
        problems.append("default-seed output differs from the digest recorded in digests.json")
    return problems


def output_digest(result: ChildResult) -> str:
    return hashlib.sha256(result.stdout + result.output).hexdigest()


def file_digests(inputs: gen.Inputs) -> dict[str, str]:
    out = {}
    for name, path in sorted(inputs.files.items()):
        with open(path, "rb") as fp:
            out[name] = hashlib.sha256(fp.read()).hexdigest()
    return out


# -- measurement ------------------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)
    outputs: dict[str, bytes] = field(default_factory=dict)  # first good output per command

    def record(self, cmd: Command, result: ChildResult, expected_digest: str | None) -> None:
        self.attempted += 1
        self.peak_rss_mb = max(self.peak_rss_mb, result.max_rss_mb)
        problems = check_output(cmd, result, expected_digest)
        output = result.stdout + result.output
        if result.code == 0 and self.outputs.setdefault(cmd.name, output) != output:
            problems.append("output differs between runs of the same input")
        if problems:
            self.failed += 1
            self.problems.extend(f"{cmd.name}: {p}" for p in problems)


def measure_setup(cmd: Command, env: dict, work: str, tally: Tally) -> list[float]:
    results = []
    for _ in range(SETUP_REPEATS):
        results.append(run_command(cmd, env, work))
        tally.record(cmd, results[-1], None)
    return pooled_walls(results)


def measure_rounds(cmds, env, work, seconds, min_rounds, tally, digests) -> tuple[list[dict], list[dict]]:
    """Run all of the workload's commands, round after round, for at least
    ``seconds`` and ``min_rounds`` rounds; returns each round's scaled and
    raw wall time per command."""
    rounds, raw = [], []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        rounds.append({})
        raw.append({})
        for cmd in cmds:
            result = run_command(cmd, env, work)
            tally.record(cmd, result, digests.get(cmd.name))
            rounds[-1][cmd.name] = result.scaled_s
            raw[-1][cmd.name] = result.wall_s
    return rounds, raw


def load_pairs(cmds: list[Command]):
    from chemtext.dataset import TaskKind
    from chemtext.harness import PredictionPair

    pairs = []
    for cmd in cmds:
        if cmd.kind != "evaluate":
            continue
        with open(cmd.args[cmd.args.index("--predictions") + 1], encoding="utf-8") as fp:
            for line in fp:
                obj = json.loads(line)
                pairs.append(PredictionPair(TaskKind(obj["task"]), obj["prediction"], obj["reference"], obj["id"]))
    return pairs


def load_oracle(inputs: gen.Inputs):
    from chemtext.harness import LookupOracle

    path = inputs.files.get("oracle.jsonl")
    if path is None:
        return None
    with open(path, encoding="utf-8") as fp:
        rows = [json.loads(line) for line in fp]
    return LookupOracle({row["precursors"]: row["product"] for row in rows})


def pair_latencies_ms(pairs, oracle) -> list[float]:
    """One untraced ``eval_*`` call per pair, each pair once (a repeat could
    hit a cache and so would not measure a pair's cost), in batches of
    ``LATENCY_BATCH`` pairs, each batch scaled by the probes around it."""
    from chemtext.dataset import TaskKind
    from chemtext import harness

    def evaluator(task):
        if task is TaskKind.RETRO:
            return lambda batch: harness.eval_retro(batch, oracle)
        return {
            TaskKind.TEXT2MOL: harness.eval_text2mol,
            TaskKind.FORWARD: harness.eval_forward,
            TaskKind.MOL2TEXT: harness.eval_mol2text,
            TaskKind.PARA2ACTIONS: harness.eval_para2actions,
        }[task]

    calls = [(evaluator(p.task), [p]) for p in pairs]
    clock = time.perf_counter

    def batch(chunk):
        out = []
        for fn, args in chunk:
            start = clock()
            fn(args)
            out.append((clock() - start) * 1e3)
        return out

    latencies = []
    for i in range(0, len(calls), LATENCY_BATCH):
        times, _, scale = timed(lambda: batch(calls[i : i + LATENCY_BATCH]))
        latencies.extend(t * scale for t in times)
    return latencies


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(round(q * len(ordered))) - 1))]


def run_in_process(cmds: list[Command], tracer: Tracer | None) -> tuple[float, float, dict[str, bytes]]:
    """Run each command through ``chemtext.cli.main`` in this process.
    Returns total wall time, time inside ``eval_pairs`` and stdout per
    command."""
    from chemtext import cli

    eval_ns = [0]
    original_eval = cli.eval_pairs

    def timed_eval(*args, **kwargs):
        start = time.perf_counter_ns()
        try:
            return original_eval(*args, **kwargs)
        finally:
            eval_ns[0] += time.perf_counter_ns() - start

    outputs = {}
    total = 0.0
    saved_stdin = sys.stdin
    cli.eval_pairs = timed_eval
    if tracer is not None:
        tracer.install()
    try:
        for cmd in cmds:
            buf = io.StringIO()
            with open(cmd.stdin or os.devnull, encoding="utf-8") as fin, contextlib.redirect_stdout(buf):
                sys.stdin = fin
                start = time.perf_counter()
                code = cli.main(cmd.args)
                total += time.perf_counter() - start
            output = b""
            if cmd.out_file:
                with open(cmd.out_file, "rb") as fp:
                    output = fp.read()
                os.remove(cmd.out_file)
            outputs[cmd.name] = (code, buf.getvalue().encode("utf-8") + output)
    finally:
        sys.stdin = saved_stdin
        if tracer is not None:
            tracer.uninstall()
        cli.eval_pairs = original_eval
    return total, eval_ns[0] / 1e9, outputs


def smiles_fields(inputs: gen.Inputs, cmds: list[Command]) -> int:
    """SMILES-bearing fields in the input files: two per text2mol, forward or
    retro pair, two per oracle entry, one per canonicalize line."""
    total = 0
    for cmd in cmds:
        if cmd.kind == "evaluate" and cmd.args[cmd.args.index("--task") + 1] in ("text2mol", "forward", "retro"):
            total += 2 * cmd.items
        elif cmd.kind == "canonicalize":
            total += cmd.items
    if "oracle.jsonl" in inputs.files:
        with open(inputs.files["oracle.jsonl"], encoding="utf-8") as fp:
            total += 2 * sum(1 for _ in fp)
    return total


def layer_metrics(workload, inputs, cmds, setup_cmd, tally, rounds, env, work, out_dir, seed) -> dict[str, tuple]:
    """Per-layer figures from one traced in-process pass over the workload's
    commands, an untraced pass, and fresh-interpreter imports. Both passes
    share one scale, so ``trace.overhead_share`` is their raw ratio."""
    from chemtext.smiles import validate

    import_walls = pooled_walls(
        [run_child([sys.executable, "-c", "import chemtext.cli"], env, work) for _ in range(IMPORT_REPEATS)]
    )
    run_in_process([setup_cmd], None)  # warm-up: lazily loaded tables
    tracer = Tracer()
    (traced_s, _, traced_out), _, traced_scale = timed(lambda: run_in_process(cmds, tracer))
    (plain_s, eval_s, plain_out), _, plain_scale = timed(lambda: run_in_process(cmds, None))
    scale = (traced_scale + plain_scale) / 2
    traced_s, plain_s, eval_s = traced_s * scale, plain_s * scale, eval_s * scale
    for cmd in cmds:
        code, output = traced_out[cmd.name]
        if code != 0 or output != plain_out[cmd.name][1] or output != tally.outputs.get(cmd.name):
            tally.problems.append(f"{cmd.name}: in-process output differs from the CLI's")
    os.makedirs(out_dir, exist_ok=True)
    tracer.dump(os.path.join(out_dir, f"spans-{workload}-seed{seed}.json"))

    calls, returned = tracer.calls(), tracer.returned()
    total = {name: t * scale for name, t in tracer.total_ns().items()}
    own = {layer: t * scale for layer, t in tracer.self_ns_by_layer().items()}
    n_pairs = sum(c.items for c in cmds if c.kind == "evaluate")
    n_smiles = smiles_fields(inputs, cmds)
    n_read = sum(len(v) for c in cmds if c.kind == "build" for v in c.expect["streams"].values())
    n_written = sum(c.items for c in cmds if c.kind == "build")

    def per_call_us(name):
        return total[name] / calls[name] / 1e3 if calls[name] else 0.0

    def per_item_us(name, n):
        return total.get(name, 0) / n / 1e3 if n else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    parse_calls = calls["smiles.parse_smiles"]
    valid = sum(1 for mol in tracer.parsed if validate(mol).valid)
    fp_calls = sum(calls[f"fingerprints.{n}_fingerprint"] for n in ("morgan", "path", "key"))
    import_s = statistics.median(import_walls)
    canon_walls = [r[c.name] for r in rounds for c in cmds if c.kind == "canonicalize"]
    build_walls = [r[c.name] for r in rounds for c in cmds if c.kind == "build"]
    canon_lines = sum(c.items for c in cmds if c.kind == "canonicalize")
    lookups = calls["harness.LookupOracle.predict_product"]
    m = {
        "smiles.tokenize_us": (per_call_us("smiles.tokenize"), "us", f"{calls['smiles.tokenize']} calls"),
        "smiles.parse_us": (per_call_us("smiles.parse_smiles"), "us", f"{parse_calls} calls"),
        "smiles.validate_us": (per_call_us("smiles.validate"), "us", f"{calls['smiles.validate']} calls"),
        "smiles.canonicalize_us": (per_call_us("smiles.canonicalize"), "us", f"{calls['smiles.canonicalize']} calls"),
        "smiles.parse_calls_per_smiles": (ratio(parse_calls, n_smiles), "count", f"{n_smiles} SMILES fields"),
        "smiles.validate_calls_per_smiles": (ratio(calls["smiles.validate"], n_smiles), "count", ""),
        "smiles.canonicalize_calls_per_smiles": (ratio(calls["smiles.canonicalize"], n_smiles), "count", ""),
        "smiles.valid_share": (ratio(valid, parse_calls), "share", f"{valid}/{parse_calls}"),
        "fingerprints.morgan_us": (per_call_us("fingerprints.morgan_fingerprint"), "us", ""),
        "fingerprints.path_us": (per_call_us("fingerprints.path_fingerprint"), "us", ""),
        "fingerprints.keys_us": (per_call_us("fingerprints.key_fingerprint"), "us", ""),
        "fingerprints.tanimoto_us": (per_call_us("fingerprints.tanimoto"), "us", ""),
        "fingerprints.calls_per_pair": (ratio(fp_calls, n_pairs), "count", f"{fp_calls} calls"),
        "textmetrics.levenshtein_us": (per_item_us("textmetrics.levenshtein", n_pairs), "us", "per pair"),
        "textmetrics.bleu_us": (per_item_us("textmetrics.bleu", n_pairs), "us", "per pair"),
        "textmetrics.rouge_n_us": (per_item_us("textmetrics.rouge_n", n_pairs), "us", "per pair"),
        "textmetrics.rouge_l_us": (per_item_us("textmetrics.rouge_l", n_pairs), "us", "per pair"),
        "textmetrics.meteor_lite_us": (per_item_us("textmetrics.meteor_lite", n_pairs), "us", "per pair"),
        "dataset.read_records_us": (per_item_us("dataset.read_records", n_read), "us", f"{n_read} records read"),
        "dataset.equal_mix_us": (per_item_us("dataset.equal_mix", n_written), "us", f"{n_written} records"),
        "dataset.write_records_us": (per_item_us("dataset.write_records", n_written), "us", ""),
        "harness.eval_s": (eval_s, "s", "untraced, in-process"),
        "harness.oracle_build_s": (total.get("harness.LookupOracle.__init__", 0) / 1e9, "s", ""),
        "harness.oracle_lookup_us": (per_call_us("harness.LookupOracle.predict_product"), "us", f"{lookups} calls"),
        "harness.oracle_hit_share": (
            ratio(returned["harness.LookupOracle.predict_product"], lookups), "share", ""),
        "cli.import_s": (import_s, "s", f"median of {IMPORT_REPEATS}"),
        "cli.overhead_s": (
            len(cmds) * import_s + plain_s - eval_s, "s",
            "start-up per command plus in-process CLI time outside eval_pairs"),
        "cli.canon_lines_per_s": (
            canon_lines / statistics.median(canon_walls) if canon_walls else 0.0, "1/s",
            f"median of {len(canon_walls)}"),
        "cli.records_per_s": (
            n_written / statistics.median(build_walls) if build_walls else 0.0, "1/s",
            f"median of {len(build_walls)}"),
        "cli.error_share": (ratio(tally.failed, tally.attempted), "share", f"{tally.failed}/{tally.attempted}"),
        "trace.overhead_share": (traced_s / plain_s - 1.0, "share", f"traced {traced_s:.4f} s, untraced {plain_s:.4f} s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (own.get(layer, 0) / 1e9, "s", "")
    return m


# -- entry point ----------------------------------------------------------------------------


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fp:
        return json.load(fp)


def stamp(root: str) -> str:
    import numpy

    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    src = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(root, "src", "chemtext"))):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            src.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fp:
                src.update(fp.read())
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return (
        f"commit={commit} src_sha256={src.hexdigest()[:16]} python={platform.python_version()} "
        f"numpy={numpy.__version__} nproc={cpus}"
    )


def prepare(workload: str, seed: int, work: str, digests: dict) -> gen.Inputs:
    """Generate the default seed's inputs and check them against the pinned
    digests, then the requested seed's inputs."""
    default_dir = os.path.join(work, "default")
    os.makedirs(default_dir)
    default = gen.generate(workload, DEFAULT_SEED, default_dir)
    pinned = digests.get("inputs", {}).get(workload)
    if pinned is not None and file_digests(default) != pinned:
        raise BenchmarkError(f"{workload}: default-seed inputs differ from digests.json; the generator drifted")
    if seed == DEFAULT_SEED:
        return default
    seed_dir = os.path.join(work, "seed")
    os.makedirs(seed_dir)
    return gen.generate(workload, seed, seed_dir)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: str, digests: dict) -> dict:
    work = os.path.join(root, ".perfbench_work", f"{workload}-seed{seed}-pid{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = child_env(root, work)
    try:
        inputs = prepare(workload, seed, work, digests)
        cmds, setup_cmd = commands_for(workload, inputs, work)
        expected = digests.get("outputs", {}).get(workload, {}) if seed == DEFAULT_SEED else {}
        tally = Tally()
        lines = [f"# workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)}"]
        setup = [] if trace else measure_setup(setup_cmd, env, work, tally)
        # A traced run spends its time in the in-process passes; one CLI round
        # gives its output checks and the per-layer CLI throughputs.
        rounds, raw_rounds = measure_rounds(
            cmds, env, work, 0 if trace else seconds, 1 if trace else MIN_ROUNDS, tally, expected
        )
        if trace:
            metrics = layer_metrics(workload, inputs, cmds, setup_cmd, tally, rounds, env, work,
                                    os.path.join(root, ".perfbench_out"), seed)
        else:
            samples = pair_latencies_ms(load_pairs(cmds), load_oracle(inputs))
            n_rounds = f"median of {len(rounds)} rounds"
            eval_names = [c.name for c in cmds if c.kind == "evaluate"]
            n_pairs = sum(c.items for c in cmds if c.kind == "evaluate")
            raw_wall = statistics.median(sum(r.values()) for r in raw_rounds)
            metrics = {
                "setup_s": (statistics.median(setup), "s", f"median of {len(setup)}"),
                "wall_s": (statistics.median(sum(r.values()) for r in rounds), "s", f"{n_rounds}; raw {raw_wall:.4f} s"),
                "pairs_per_s": (
                    statistics.median(n_pairs / sum(r[n] for n in eval_names) for r in rounds), "1/s",
                    f"{n_pairs} pairs, {n_rounds}"),
                "pair_ms_p50": (quantile(samples, 0.50), "ms", f"{len(samples)} samples"),
                "pair_ms_p99": (quantile(samples, 0.99), "ms", f"{len(samples)} samples"),
                "peak_rss_mb": (tally.peak_rss_mb, "MB", f"max over {tally.attempted} CLI children"),
            }
        lines.append(f"# commands: {', '.join(f'{c.args[0]} {c.name}' for c in cmds)}; {len(rounds)} rounds")
        lines.extend(f"# problem: {p}" for p in tally.problems[:20])
        if trace:
            eval_s = metrics["harness.eval_s"][0]
            lines.append(
                "# layer shares of harness.eval_s: "
                + ", ".join(f"{layer} {metrics[f'{layer}.self_s'][0] / eval_s:.2f}" for layer in LAYERS if eval_s)
            )
        for name, (value, unit, note) in metrics.items():
            lines.append(f"{name:40s} {value:14.6f} {unit:6s} {note}")
        return {
            "lines": lines,
            "result": {
                "correct": tally.failed == 0 and not tally.problems,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
            },
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def record_digests(root: str) -> int:
    """Pin the default seed's input and output digests in ``digests.json``."""
    pinned: dict = {"default_seed": DEFAULT_SEED, "inputs": {}, "outputs": {}}
    for workload in gen.WORKLOAD_SIZES:
        work = os.path.join(root, ".perfbench_work", f"record-{workload}-pid{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        env = child_env(root, work)
        try:
            inputs = gen.generate(workload, DEFAULT_SEED, work)
            pinned["inputs"][workload] = file_digests(inputs)
            cmds, _ = commands_for(workload, inputs, work)
            pinned["outputs"][workload] = {}
            for cmd in cmds:
                result = run_command(cmd, env, work)
                problems = check_output(cmd, result, None)
                if problems:
                    print(f"{workload} {cmd.name}: {problems}", file=sys.stderr)
                    return 1
                pinned["outputs"][workload][cmd.name] = output_digest(result)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    with open(DIGESTS, "w", encoding="utf-8") as fp:
        json.dump(pinned, fp, indent=2, sort_keys=True)
        fp.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*gen.WORKLOAD_SIZES, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0, help="minimum time spent in CLI rounds")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "chemtext", "cli.py")):
        print("error: run from the root of a chemtext checkout (src/chemtext not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    if args.record_digests:
        return record_digests(root)
    digests = load_digests()
    workloads = list(gen.WORKLOAD_SIZES) if args.workload == "all" else [args.workload]
    print(f"# chemtext perfbench: {stamp(root)}")
    try:
        for workload in workloads:
            out = run_workload(workload, args.seed, args.seconds, bool(args.trace), root, digests)
            print("\n".join(out["lines"]))
            print(json.dumps(out["result"]), flush=True)
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
