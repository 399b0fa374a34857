import dataclasses
import io
import random
from collections import Counter

import pytest

from chemtext.dataset import (
    BadFractionsError,
    EmptyInputError,
    EmptyStreamError,
    PROMPT_TEMPLATES,
    RecordError,
    TaskKind,
    TaskRecord,
    build_splits,
    equal_mix,
    make_record,
    read_records,
    record_from_obj,
    render_prompt,
    write_records,
)


def stream(task, n, tag="s"):
    return [make_record(task, f"{tag}{i}", f"t{i}") for i in range(n)]


# -- prompts ------------------------------------------------------------------


def test_prompt_templates_byte_exact():
    assert (
        render_prompt(TaskKind.FORWARD, "CC.O")
        == "Predict the product of the following reaction: CC.O"
    )
    assert (
        render_prompt(TaskKind.RETRO, "CCO")
        == "Predict the reaction that produces the following product: CCO"
    )
    assert (
        render_prompt(TaskKind.PARA2ACTIONS, "Stir the mixture.")
        == "Which actions are described in the following paragraph: Stir the mixture."
    )
    assert (
        render_prompt(TaskKind.TEXT2MOL, "an alcohol")
        == "Write in SMILES the described molecule: an alcohol"
    )
    assert (
        render_prompt(TaskKind.MOL2TEXT, "CCO")
        == "Caption the following SMILES: CCO"
    )


def test_empty_input_rejected():
    with pytest.raises(EmptyInputError):
        render_prompt(TaskKind.TEXT2MOL, "")


def test_prompt_round_trip():
    for task in TaskKind:
        prefix = PROMPT_TEMPLATES[task].replace("<input>", "")
        record = make_record(task, "payload text", "target")
        assert record.prompt == prefix + "payload text"
        assert record.prompt[len(prefix):] == record.source


def test_record_invariants():
    with pytest.raises(RecordError):
        TaskRecord(task=TaskKind.FORWARD, source="CC", target="")
    with pytest.raises(RecordError):  # the target is checked first
        TaskRecord(task=TaskKind.FORWARD, source="", target="")
    with pytest.raises(EmptyInputError):
        TaskRecord(task=TaskKind.FORWARD, source="", target="C")


def test_prompt_follows_the_source():
    record = make_record(TaskKind.RETRO, "CCO", "CC.O")
    moved = dataclasses.replace(record, source="CCN")
    assert moved.prompt == render_prompt(TaskKind.RETRO, "CCN")
    assert moved == make_record(TaskKind.RETRO, "CCN", "CC.O")


# -- equal mix ----------------------------------------------------------------


def test_equal_mix_oversampling_counts():
    streams = {
        TaskKind.FORWARD: stream(TaskKind.FORWARD, 10, "a"),
        TaskKind.RETRO: stream(TaskKind.RETRO, 4, "b"),
    }
    mixed = equal_mix(streams, per_task=10, seed=7)
    counts = Counter(r.task for r in mixed)
    assert counts == {TaskKind.FORWARD: 10, TaskKind.RETRO: 10}
    # task B: 2 full passes (8) plus 2 seeded picks; multiplicities within 1
    retro_mult = Counter(r.source for r in mixed if r.task is TaskKind.RETRO)
    assert sorted(retro_mult.values()) in ([2, 2, 3, 3], [2, 2, 2, 4])
    assert max(retro_mult.values()) - min(retro_mult.values()) <= 1


def test_equal_mix_exact_lengths_is_permutation():
    streams = {t: stream(t, 6, t.value) for t in TaskKind}
    mixed = equal_mix(streams, per_task=6, seed=3)
    assert Counter((r.task, r.source) for r in mixed) == Counter(
        (r.task, r.source) for s in streams.values() for r in s
    )


def test_equal_mix_subsampling_without_replacement():
    streams = {TaskKind.MOL2TEXT: stream(TaskKind.MOL2TEXT, 50)}
    mixed = equal_mix(streams, per_task=20, seed=1)
    sources = [r.source for r in mixed]
    assert len(sources) == 20
    assert len(set(sources)) == 20


def test_equal_mix_deterministic():
    streams = {
        TaskKind.TEXT2MOL: stream(TaskKind.TEXT2MOL, 9),
        TaskKind.MOL2TEXT: stream(TaskKind.MOL2TEXT, 30),
    }
    a = equal_mix(streams, per_task=12, seed=99)
    b = equal_mix(streams, per_task=12, seed=99)
    assert a == b
    c = equal_mix(streams, per_task=12, seed=100)
    assert [r.source for r in c] != [r.source for r in a]
    # different seeds preserve per-task multisets when no resampling happens
    full = {TaskKind.RETRO: stream(TaskKind.RETRO, 8)}
    x = equal_mix(full, per_task=8, seed=1)
    y = equal_mix(full, per_task=8, seed=2)
    assert Counter(r.source for r in x) == Counter(r.source for r in y)


def test_equal_mix_empty_stream():
    with pytest.raises(EmptyStreamError):
        equal_mix({TaskKind.FORWARD: []}, per_task=5, seed=0)


def test_equal_mix_rejects_mixed_stream():
    bad = {TaskKind.FORWARD: stream(TaskKind.RETRO, 3)}
    with pytest.raises(RecordError):
        equal_mix(bad, per_task=3, seed=0)


def test_equal_mix_needs_a_stream():
    with pytest.raises(ValueError, match="at least one task stream"):
        equal_mix({}, per_task=3, seed=0)
    with pytest.raises(ValueError):
        equal_mix({TaskKind.FORWARD: stream(TaskKind.FORWARD, 3)}, per_task=0, seed=0)


# -- splits -------------------------------------------------------------------


def test_splits_all_train():
    records = stream(TaskKind.FORWARD, 13)
    splits = build_splits(records, (1.0, 0.0, 0.0), seed=0)
    assert len(splits["train"]) == 13
    assert not splits["valid"] and not splits["test"]


def test_splits_stratified_arithmetic():
    records = []
    for task in TaskKind:
        records.extend(stream(task, 20, task.value))
    splits = build_splits(records, (0.8, 0.1, 0.1), seed=5)
    for name, want in [("train", 16), ("valid", 2), ("test", 2)]:
        per_task = Counter(r.task for r in splits[name])
        assert all(count == want for count in per_task.values()), (name, per_task)
    # disjoint and covering
    everything = [(r.task, r.source) for part in splits.values() for r in part]
    assert Counter(everything) == Counter((r.task, r.source) for r in records)


def test_bad_fractions():
    with pytest.raises(BadFractionsError):
        build_splits(stream(TaskKind.RETRO, 4), (0.5, 0.6, 0.1), seed=0)
    with pytest.raises(BadFractionsError, match="fractions must be non-negative"):
        build_splits(stream(TaskKind.RETRO, 4), (1.5, -0.5, 0.0), seed=0)


@pytest.mark.parametrize(
    "fractions",
    [(0.5, 0.5, float("nan")), (float("nan"), 0.5, 0.5), (float("inf"), 0.5, -float("inf"))],
)
def test_non_finite_fractions_are_rejected(fractions):
    # the first once split 10 records 5/5/0; the second raised a raw ValueError
    with pytest.raises(BadFractionsError, match="fractions must be finite"):
        build_splits(stream(TaskKind.RETRO, 10), fractions, seed=0)


@pytest.mark.parametrize("fractions", [(0.6, 0.2, 0.1, 0.1), (0.5, 0.5), (1.0,)])
def test_fractions_other_than_three_are_rejected(fractions):
    # the first once split 10 records 6/2/2, the second left test empty and
    # the third raised IndexError
    with pytest.raises(BadFractionsError, match="need three fractions"):
        build_splits(stream(TaskKind.RETRO, 10), fractions, seed=0)


@pytest.mark.parametrize(
    "obj, message",
    [
        ([1], "in.jsonl:3: record is not an object"),
        ({"task": "forward", "source": "CC", "target": "C", "prompt": 3},
         "in.jsonl:3: non-string field 'prompt'"),
    ],
)
def test_record_from_obj_names_a_non_object_and_a_non_string_prompt(obj, message):
    with pytest.raises(RecordError) as info:
        record_from_obj(obj, "in.jsonl:3")
    assert str(info.value) == message


# -- JSONL --------------------------------------------------------------------


def test_jsonl_round_trip():
    records = [
        make_record(TaskKind.FORWARD, "CC.O", "CCO"),
        make_record(TaskKind.MOL2TEXT, "CCO", "an alcohol", extra={"id": "7"}),
    ]
    buffer = io.StringIO()
    assert write_records(buffer, records) == 2
    text = buffer.getvalue()
    assert text.endswith("\n") and "\r" not in text
    assert '"id"' not in text  # unknown fields dropped on write
    back = read_records(io.StringIO(text))
    assert back == records


def test_jsonl_preserves_unknown_fields_on_read():
    line = (
        '{"task":"mol2text","source":"CCO","target":"x",'
        '"prompt":"Caption the following SMILES: CCO","weight":3}\n'
    )
    [record] = read_records(io.StringIO(line))
    assert record.extra == {"weight": 3}


def test_jsonl_renders_missing_prompt():
    line = '{"task":"retro","source":"CCO","target":"CC.O"}\n'
    [record] = read_records(io.StringIO(line))
    assert record.prompt == render_prompt(TaskKind.RETRO, "CCO")


@pytest.mark.parametrize(
    "line",
    [
        "not json",
        '{"task":"nope","source":"a","target":"b"}',
        '{"source":"a","target":"b"}',
        '{"task":"retro","target":"b"}',
        '{"task":"retro","source":"a","target":""}',
        '{"task":"retro","source":"a","target":"b","prompt":"bad"}',
        '{"task":"retro","source":"","target":"b"}',
        "[" * 100_000,  # nested past the decoder's recursion limit
    ],
)
def test_jsonl_errors_carry_line_numbers(line):
    with pytest.raises(RecordError) as err:
        read_records(io.StringIO(line + "\n"))
    assert str(err.value).startswith("line 1: ")


def _undecodable_lines(rng, n, bad_line):
    """``n`` JSONL lines, LF or CRLF, some blank, most long enough that the
    file spans several decode blocks; line ``bad_line`` (from 1) holds a
    byte that is not UTF-8."""
    out = []
    for lineno in range(1, n + 1):
        body = b""
        if rng.random() < 0.9:
            text = "é" * rng.randint(0, 60) + "x" * rng.randint(0, 40)
            body = ('{"task":"retro","source":"%s","target":"b"}' % text).encode()
        if lineno == bad_line:
            cut = rng.randint(0, len(body))
            body = body[:cut] + rng.choice([b"\xff", b"\xe2\x28", b"\xc3"]) + body[cut:]
        out.append(body + rng.choice([b"\n", b"\r\n"]))
    return b"".join(out)


@pytest.mark.parametrize("seed", range(40))
def test_undecodable_byte_is_named_by_its_line(tmp_path, seed):
    rng = random.Random(seed)
    n = rng.randint(1, 400)
    bad_line = rng.randint(1, n)
    data = _undecodable_lines(rng, n, bad_line)
    if bad_line == n and rng.random() < 0.5:
        data = data.rstrip(b"\r\n")  # the byte sits in an unterminated last line
    path = tmp_path / "records.jsonl"
    path.write_bytes(data)
    with open(path, encoding="utf-8") as fp, pytest.raises(RecordError) as err:
        read_records(fp, str(path))
    assert str(err.value).startswith(f"{path}:{bad_line}: bad UTF-8: ")
    with open(path, encoding="utf-8") as fp, pytest.raises(RecordError) as err:
        read_records(fp)
    assert str(err.value).startswith(f"line {bad_line}: bad UTF-8: ")


def test_undecodable_byte_message():
    stream = io.TextIOWrapper(io.BytesIO(b'{"a":"b"}\n\n{"a":"\xff"}\n'), encoding="utf-8")
    with pytest.raises(RecordError) as err:
        read_records(stream, "in.jsonl")
    assert str(err.value) == "in.jsonl:3: bad UTF-8: invalid start byte 0xff"
