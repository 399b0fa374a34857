"""Prompt rendering and balanced multi-task corpus construction.

Five tasks are supported, each with a fixed prompt template applied by exact
``<input>`` substitution. Corpora are balanced with an equal-mixing strategy:
every task contributes exactly ``per_task`` records, short streams are
oversampled by whole-pass repetition plus a seeded random remainder (so
per-record multiplicities stay within one of each other), long streams are
subsampled without replacement, and the union gets one global seeded shuffle.

Determinism contract: identical 64-bit seed implies byte-identical output.
The pinned generator is the stdlib Mersenne Twister (``random.Random(seed)``)
with draws in a fixed order (tasks in ``TaskKind`` declaration order, then
the global shuffle).

JSONL interface: one record per line, object with string fields ``task``,
``source``, ``target``, ``prompt``; UTF-8, LF line endings. The prompt is
derived, not stored: :attr:`TaskRecord.prompt` renders the task's template
with the source, every record is written with it, and a prompt read with a
record must equal it. Unknown fields are preserved on read and dropped on
write.
"""

from __future__ import annotations

import enum
import json
import math
import random
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Mapping, Sequence

from chemtext.errors import ChemtextError, bad_utf8


class TaskKind(enum.Enum):
    FORWARD = "forward"
    RETRO = "retro"
    PARA2ACTIONS = "para2actions"
    TEXT2MOL = "text2mol"
    MOL2TEXT = "mol2text"


PROMPT_TEMPLATES: dict[TaskKind, str] = {
    TaskKind.FORWARD: "Predict the product of the following reaction: <input>",
    TaskKind.RETRO: "Predict the reaction that produces the following product: <input>",
    TaskKind.PARA2ACTIONS: "Which actions are described in the following paragraph: <input>",
    TaskKind.TEXT2MOL: "Write in SMILES the described molecule: <input>",
    TaskKind.MOL2TEXT: "Caption the following SMILES: <input>",
}


class EmptyInputError(ChemtextError):
    """render_prompt called with an empty input string."""


class EmptyStreamError(ChemtextError):
    """A task stream handed to equal_mix has no records."""

    def __init__(self, task: TaskKind) -> None:
        super().__init__(f"empty stream for task {task.value}")
        self.task = task


class BadFractionsError(ChemtextError):
    """Split fractions are not three finite non-negative numbers summing to 1."""


class RecordError(ChemtextError):
    """A JSONL record is malformed."""


def render_prompt(task: TaskKind, input_text: str) -> str:
    """Exact template substitution for one task."""
    if not input_text:
        raise EmptyInputError(f"empty input for task {task.value}")
    return PROMPT_TEMPLATES[task].replace("<input>", input_text)


@dataclass(frozen=True)
class TaskRecord:
    """One training/eval sample; its prompt is its task's template rendered
    with its source."""

    task: TaskKind
    source: str
    target: str
    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.target:
            raise RecordError("record target must be non-empty")
        if not self.source:
            raise EmptyInputError(f"empty input for task {self.task.value}")

    @property
    def prompt(self) -> str:
        return render_prompt(self.task, self.source)


def make_record(task: TaskKind, source: str, target: str, extra: dict | None = None) -> TaskRecord:
    return TaskRecord(task, source, target, extra or {})


def equal_mix(
    streams: Mapping[TaskKind, Sequence[TaskRecord]],
    per_task: int,
    seed: int,
) -> list[TaskRecord]:
    """Balance task streams to exactly ``per_task`` records each.

    Deterministic for a given seed; see the module docstring for the
    oversampling and shuffling rules.
    """
    if per_task < 1:
        raise ValueError("per_task must be >= 1")
    if not streams:
        raise ValueError("equal_mix needs at least one task stream")
    for task in streams:
        if not streams[task]:
            raise EmptyStreamError(task)
        if any(r.task is not task for r in streams[task]):
            raise RecordError(f"stream for {task.value} contains other tasks")
    rng = random.Random(seed)
    mixed: list[TaskRecord] = []
    for task in TaskKind:
        if task not in streams:
            continue
        stream = list(streams[task])
        # a stream longer than per_task makes no pass and one draw of per_task
        passes, remainder = divmod(per_task, len(stream))
        mixed.extend(stream * passes)
        if remainder:
            mixed.extend(rng.sample(stream, remainder))
    rng.shuffle(mixed)
    return mixed


def build_splits(
    records: Sequence[TaskRecord],
    fractions: tuple[float, float, float],
    seed: int,
) -> dict[str, list[TaskRecord]]:
    """Disjoint, covering train/valid/test split, stratified by task."""
    if len(fractions) != 3:
        raise BadFractionsError(f"need three fractions (train, valid, test), got {fractions!r}")
    if not all(map(math.isfinite, fractions)):
        raise BadFractionsError(f"fractions must be finite, got {fractions!r}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise BadFractionsError(f"fractions sum to {sum(fractions)!r}, not 1")
    if any(f < 0 for f in fractions):
        raise BadFractionsError("fractions must be non-negative")
    rng = random.Random(seed)
    splits: dict[str, list[TaskRecord]] = {"train": [], "valid": [], "test": []}
    for task in TaskKind:
        bucket = [r for r in records if r.task is task]
        if not bucket:
            continue
        rng.shuffle(bucket)
        n = len(bucket)
        cut1 = round(n * fractions[0])
        cut2 = round(n * (fractions[0] + fractions[1]))
        splits["train"].extend(bucket[:cut1])
        splits["valid"].extend(bucket[cut1:cut2])
        splits["test"].extend(bucket[cut2:])
    return splits


# -- JSONL IO -----------------------------------------------------------------


def record_to_json(record: TaskRecord) -> str:
    payload = {
        "task": record.task.value,
        "source": record.source,
        "target": record.target,
        "prompt": record.prompt,
    }
    return json.dumps(payload, ensure_ascii=False, separators=(",", ":"))


def record_from_obj(obj: dict, where: str | None = None) -> TaskRecord:
    """Validate one decoded record; ``where`` (as :func:`read_jsonl` yields
    it) starts error messages."""
    where = "" if where is None else f"{where}: "
    if not isinstance(obj, dict):
        raise RecordError(f"{where}record is not an object")
    try:
        task = TaskKind(obj["task"])
    except KeyError:
        raise RecordError(f"{where}missing field 'task'") from None
    except ValueError:
        raise RecordError(f"{where}unknown task {obj['task']!r}") from None
    for key in ("source", "target"):
        if key not in obj or not isinstance(obj[key], str):
            raise RecordError(f"{where}missing or non-string field {key!r}")
    extra = {
        k: v for k, v in obj.items() if k not in ("task", "source", "target", "prompt")
    }
    prompt = obj.get("prompt")
    if prompt is not None and not isinstance(prompt, str):
        raise RecordError(f"{where}non-string field 'prompt'")
    try:
        record = TaskRecord(task, obj["source"], obj["target"], extra)
    except (RecordError, EmptyInputError) as exc:
        raise RecordError(f"{where}{exc}") from None
    if prompt is not None and prompt != record.prompt:
        raise RecordError(f"{where}prompt does not match the {task.value} template")
    return record


def read_jsonl(fp: IO[str], path: str | None = None) -> Iterator[tuple[str, dict]]:
    """Yield ``(where, obj)`` for each non-blank line of a JSONL stream.

    ``where`` names the line as ``path:N``, or ``line N`` when ``path`` is
    omitted. A line that is not JSON (or nests too deeply to decode) or not
    an object, or holds a byte the stream cannot decode, raises
    :class:`RecordError` starting with it."""

    def name(lineno: int) -> str:
        return f"line {lineno}" if path is None else f"{path}:{lineno}"

    lineno = 0
    try:
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
                raise RecordError(f"{name(lineno)}: bad JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise RecordError(f"{name(lineno)}: not an object")
            yield name(lineno), obj
    except UnicodeDecodeError as exc:
        # the stream decodes a block at a time, and none of the block's lines
        # has been read: the bad byte's line follows the line breaks before
        # it in the block (\r, \n or \r\n, as a text stream splits lines)
        head = exc.object[:exc.start]
        lineno += 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise RecordError(f"{name(lineno)}: {bad_utf8(exc)}") from None


def read_records(fp: IO[str], path: str | None = None) -> list[TaskRecord]:
    """Read JSONL task records; a malformed line raises RecordError led by its
    ``where`` (see :func:`read_jsonl`)."""
    return [record_from_obj(obj, where) for where, obj in read_jsonl(fp, path)]


def write_records(fp: IO[str], records: Iterable[TaskRecord]) -> int:
    """Write records as JSONL (LF endings, unknown fields dropped); returns
    the number written."""
    count = 0
    for record in records:
        fp.write(record_to_json(record))
        fp.write("\n")
        count += 1
    return count
