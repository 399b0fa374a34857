import io
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import chemtext
from chemtext.cli import main
from chemtext.dataset import TaskKind, make_record, read_records, write_records
from chemtext.fingerprints import FingerprintConfig
from chemtext.harness import PredictionPair, eval_pairs, report_to_json
from chemtext.smiles import canon, random_smiles
from molgen import clique_smiles, random_molecule


def run_cli(argv, stdin_text=None, capsys=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def write_task_file(path, task, n, tag="s"):
    with open(path, "w", encoding="utf-8") as fp:
        write_records(fp, [make_record(task, f"{tag}{i}", f"t{i}") for i in range(n)])


def write_predictions(path, task, rows):
    with open(path, "w", encoding="utf-8") as fp:
        for i, (pred, ref) in enumerate(rows):
            fp.write(
                json.dumps(
                    {"id": str(i), "task": task.value, "prediction": pred, "reference": ref}
                )
                + "\n"
            )


# -- build-dataset -------------------------------------------------------------


def test_build_dataset_counts_and_determinism(tmp_path, capsys):
    fwd = tmp_path / "fwd.jsonl"
    retro = tmp_path / "retro.jsonl"
    write_task_file(fwd, TaskKind.FORWARD, 14, "f")
    write_task_file(retro, TaskKind.RETRO, 4, "r")
    out1 = tmp_path / "mix1.jsonl"
    out2 = tmp_path / "mix2.jsonl"
    argv = [
        "build-dataset",
        "--task-file", f"forward={fwd}",
        "--task-file", f"retro={retro}",
        "--per-task", "10",
        "--seed", "11",
        "--quiet",
    ]
    code, out, _ = run_cli(argv + ["--out", str(out1)], capsys=capsys)
    assert code == 0
    assert out.splitlines() == ["forward\t10", "retro\t10"]
    assert sum(1 for _ in open(out1)) == 20
    code, _, _ = run_cli(argv + ["--out", str(out2)], capsys=capsys)
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    with open(out1, encoding="utf-8") as fp:
        records = read_records(fp)
    assert sum(1 for r in records if r.task is TaskKind.RETRO) == 10


def test_build_dataset_missing_out_is_usage_error(tmp_path, capsys):
    fwd = tmp_path / "fwd.jsonl"
    write_task_file(fwd, TaskKind.FORWARD, 3)
    code, _, err = run_cli(
        ["build-dataset", "--task-file", f"forward={fwd}", "--per-task", "2", "--seed", "1"],
        capsys=capsys,
    )
    assert code == 1
    assert "usage error" in err


def test_build_dataset_empty_stream_is_data_error(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code, _, err = run_cli(
        ["build-dataset", "--task-file", f"forward={empty}", "--per-task", "2",
         "--seed", "1", "--out", str(tmp_path / "o.jsonl")],
        capsys=capsys,
    )
    assert code == 2


def test_build_dataset_malformed_jsonl_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"task":"forward","source":"a"}\n')
    code, _, err = run_cli(
        ["build-dataset", "--task-file", f"forward={bad}", "--per-task", "2",
         "--seed", "1", "--out", str(tmp_path / "o.jsonl")],
        capsys=capsys,
    )
    assert code == 2
    assert "line 1" in err


# -- evaluate -------------------------------------------------------------------


def test_evaluate_text2mol_perfect(tmp_path, capsys):
    preds = tmp_path / "preds.jsonl"
    write_predictions(preds, TaskKind.TEXT2MOL, [("CCO", "CCO"), ("OCC", "CCO")])
    code, out, _ = run_cli(
        ["evaluate", "--task", "text2mol", "--predictions", str(preds), "--quiet"],
        capsys=capsys,
    )
    assert code == 0
    assert '"accuracy": 1.000000' in out
    payload = json.loads(out)
    assert payload["metrics"]["validity"] == 1.0


@pytest.mark.parametrize(
    "flags, config",
    [([], FingerprintConfig(radius=2, nbits=2048)),
     (["--fp-bits", "64", "--fp-radius", "0"], FingerprintConfig(radius=0, nbits=64))],
    ids=["defaults", "given"],
)
def test_evaluate_text2mol_reads_fp_flags(tmp_path, capsys, flags, config):
    rows = [("CCO", "CCN"), ("c1ccccc1O", "c1ccccc1N"), ("CC(=O)O", "CC(=O)O")]
    preds = tmp_path / "preds.jsonl"
    write_predictions(preds, TaskKind.TEXT2MOL, rows)
    code, out, _ = run_cli(
        ["evaluate", "--task", "text2mol", "--predictions", str(preds), "--quiet", *flags],
        capsys=capsys,
    )
    assert code == 0
    pairs = [PredictionPair(TaskKind.TEXT2MOL, p, r, str(i)) for i, (p, r) in enumerate(rows)]
    assert out == report_to_json(eval_pairs(pairs, TaskKind.TEXT2MOL, fp_config=config)) + "\n"


def test_evaluate_retro_needs_oracle(tmp_path, capsys):
    preds = tmp_path / "preds.jsonl"
    write_predictions(preds, TaskKind.RETRO, [("CC.O", "CCO")])
    code, _, err = run_cli(
        ["evaluate", "--task", "retro", "--predictions", str(preds)], capsys=capsys
    )
    assert code == 1


def test_evaluate_retro_with_lookup_oracle(tmp_path, capsys):
    preds = tmp_path / "preds.jsonl"
    write_predictions(preds, TaskKind.RETRO, [("CC.O", "CCO"), ("CN.O", "CO")])
    oracle = tmp_path / "oracle.jsonl"
    oracle.write_text(
        '{"precursors":"CC.O","product":"CCO"}\n'
        '{"precursors":"CN.O","product":"CO"}\n'
    )
    code, out, _ = run_cli(
        ["evaluate", "--task", "retro", "--predictions", str(preds),
         "--oracle", f"lookup:{oracle}", "--quiet"],
        capsys=capsys,
    )
    assert code == 0
    assert '"roundtrip_accuracy": 1.000000' in out


def test_evaluate_mixed_tasks_is_data_error(tmp_path, capsys):
    preds = tmp_path / "preds.jsonl"
    with open(preds, "w") as fp:
        fp.write('{"id":"0","task":"text2mol","prediction":"C","reference":"C"}\n')
        fp.write('{"id":"1","task":"forward","prediction":"C","reference":"C"}\n')
    code, _, _ = run_cli(
        ["evaluate", "--task", "text2mol", "--predictions", str(preds)], capsys=capsys
    )
    assert code == 2


def test_evaluate_malformed_line_reports_line_number(tmp_path, capsys):
    preds = tmp_path / "preds.jsonl"
    preds.write_text(
        '{"id":"0","task":"text2mol","prediction":"C","reference":"C"}\nnot json\n'
    )
    code, _, err = run_cli(
        ["evaluate", "--task", "text2mol", "--predictions", str(preds)], capsys=capsys
    )
    assert code == 2
    assert ":2:" in err


@pytest.mark.parametrize(
    "line",
    [
        '{"id":"0","task":"mol2text","prediction":null,"reference":"None"}',
        '{"id":"0","task":"mol2text","prediction":"a","reference":5}',
        '{"id":0,"task":"mol2text","prediction":"a","reference":"a"}',
        '{"id":"0","task":"mol2text","prediction":["a"],"reference":"a"}',
    ],
)
def test_evaluate_non_string_field_is_data_error(tmp_path, capsys, line):
    preds = tmp_path / "preds.jsonl"
    preds.write_text(line + "\n")
    code, out, err = run_cli(
        ["evaluate", "--task", "mol2text", "--predictions", str(preds)], capsys=capsys
    )
    assert code == 2
    assert out == ""
    # one message, naming the file and line
    assert err.count("\n") == 1 and f"{preds}:1:" in err


def test_evaluate_bad_json_reported_once(tmp_path, capsys):
    preds = tmp_path / "preds.jsonl"
    preds.write_text("not json\n")
    code, _, err = run_cli(
        ["evaluate", "--task", "text2mol", "--predictions", str(preds)], capsys=capsys
    )
    assert code == 2
    assert err.count("\n") == 1 and f"{preds}:1:" in err


@pytest.mark.parametrize(
    "oracle_line", ["5", '["CC.O","CCO"]', '{"precursors":null,"product":"CCO"}']
)
def test_evaluate_bad_oracle_line_is_data_error(tmp_path, capsys, oracle_line):
    preds = tmp_path / "preds.jsonl"
    write_predictions(preds, TaskKind.RETRO, [("CC.O", "CCO")])
    oracle = tmp_path / "oracle.jsonl"
    oracle.write_text('{"precursors":"CN.O","product":"CO"}\n' + oracle_line + "\n")
    code, _, err = run_cli(
        ["evaluate", "--task", "retro", "--predictions", str(preds),
         "--oracle", f"lookup:{oracle}"],
        capsys=capsys,
    )
    assert code == 2
    assert f"{oracle}:2:" in err


@pytest.mark.parametrize(
    "second, code",
    [
        ('{"precursors":"CC.O","product":"CN"}', 2),   # a repeated line, another product
        ('{"precursors":"O.CC","product":"CN"}', 2),   # another spelling, another product
        ('{"precursors":"CC.O","product":"CCO"}', 0),  # the same product
        ('{"precursors":"O.CC","product":"OCC"}', 0),  # a canonically equal product
    ],
)
def test_evaluate_conflicting_oracle_entries_are_data_errors(tmp_path, capsys, second, code):
    preds = tmp_path / "preds.jsonl"
    write_predictions(preds, TaskKind.RETRO, [("CC.O", "CCO")])
    oracle = tmp_path / "oracle.jsonl"
    oracle.write_text('{"precursors":"CC.O","product":"CCO"}\n' + second + "\n")
    got, out, err = run_cli(
        ["evaluate", "--task", "retro", "--predictions", str(preds),
         "--oracle", f"lookup:{oracle}", "--quiet"],
        capsys=capsys,
    )
    assert got == code, err
    if code:
        assert out == "" and "'CCO'" in err and "'CN'" in err
        # a repeated line is named by path:line, a second spelling by itself
        assert (f"{oracle}:2:" if '"CC.O"' in second else "'CC.O' and 'O.CC'") in err
    else:
        assert '"roundtrip_accuracy": 1.000000' in out


def test_evaluate_fingerprint_budget_skips_one_pair(tmp_path, capsys):
    clique = clique_smiles()
    preds = tmp_path / "preds.jsonl"
    write_predictions(
        preds, TaskKind.TEXT2MOL, [(clique, clique), ("CCO", "OCC"), ("CCN", "CCO")]
    )
    code, out, _ = run_cli(
        ["evaluate", "--task", "text2mol", "--predictions", str(preds), "--quiet"],
        capsys=capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["counts"] == {"n_skipped": 1, "n_total": 3, "n_valid_pred": 3}
    assert report["skip_reasons"] == {"fingerprint_budget": 1}
    # the skipped pair still counts toward accuracy and validity
    assert report["metrics"]["accuracy"] == pytest.approx(2 / 3, abs=1e-6)
    assert report["metrics"]["validity"] == 1.0
    assert report["supports"]["morgan_fts"] == 2


def test_evaluate_canon_budget_skips_one_pair(tmp_path, capsys, monkeypatch):
    # one candidate allowed: the symmetric ring trips the budget, the
    # asymmetric chains do not
    monkeypatch.setattr(canon, "_MAX_CANDIDATES", 1)
    preds = tmp_path / "preds.jsonl"
    write_predictions(
        preds,
        TaskKind.TEXT2MOL,
        [("C1CCCCC1", "C1CCCCC1"), ("CCO", "OCC"), ("CCN", "CCO")],
    )
    code, out, _ = run_cli(
        ["evaluate", "--task", "text2mol", "--predictions", str(preds), "--quiet"],
        capsys=capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["counts"] == {"n_skipped": 1, "n_total": 3, "n_valid_pred": 3}
    assert report["skip_reasons"] == {"canon_budget": 1}
    # the budget pair scores as incorrect but still counts as valid
    assert report["metrics"]["accuracy"] == pytest.approx(1 / 3, abs=1e-6)
    assert report["metrics"]["validity"] == 1.0
    assert report["supports"]["morgan_fts"] == 2


def test_evaluate_mol2text_long_y_run_exits_0(tmp_path, capsys):
    # each "y" is a consonant or a vowel by the letter before it, so a long
    # run must not cost one stack frame per letter
    preds = tmp_path / "preds.jsonl"
    write_predictions(
        preds,
        TaskKind.MOL2TEXT,
        [("y" * 5000 + "s", "y" * 5000 + "ed"), ("the cat ran", "the cat ran")],
    )
    code, out, err = run_cli(
        ["evaluate", "--task", "mol2text", "--predictions", str(preds), "--quiet"],
        capsys=capsys,
    )
    assert code == 0, err
    assert json.loads(out)["counts"]["n_total"] == 2


def test_fingerprint_budget_line_is_invalid(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["fingerprint", "--scheme", "path"],
        stdin_text=clique_smiles() + "\nCCO\n",
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "INVALID path enumeration budget exceeded"
    assert lines[1] and not lines[1].startswith("INVALID")


def test_evaluate_unreadable_file(tmp_path, capsys):
    code, _, _ = run_cli(
        ["evaluate", "--task", "text2mol", "--predictions", str(tmp_path / "nope.jsonl")],
        capsys=capsys,
    )
    assert code == 2


# -- line-oriented commands -------------------------------------------------------


def test_canonicalize_pipe(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["canonicalize"], stdin_text="OCC\nCCO\n", capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == lines[1]


def test_canonicalize_invalid_lines_continue(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["canonicalize"], stdin_text="C(\nCCO\n", capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("INVALID ")
    assert lines[1] == "CCO"


def test_canonicalize_all_invalid_exits_2(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["canonicalize"], stdin_text="C(\nxx\n", capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 2
    assert all(l.startswith("INVALID ") for l in out.splitlines())


def test_canonicalize_repeated_symmetric_fragments(capsys, monkeypatch):
    # each cyclopropane is searched on its own, so five of them stay cheap
    cyclopropanes = ".".join(["C1CC1"] * 5)
    code, out, _ = run_cli(
        ["canonicalize"],
        stdin_text=f"OCC\n{cyclopropanes}\nC(\nC1.C1\n",
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0] == "CCO"
    assert lines[1] == cyclopropanes
    assert lines[2].startswith("INVALID ")
    assert lines[3] == "CC"


def test_fingerprint_pipe(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["fingerprint", "--scheme", "morgan", "--bits", "128"],
        stdin_text="CCO\nC(\n",
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    lines = out.splitlines()
    bits = [int(x) for x in lines[0].split()]
    assert bits == sorted(bits) and all(0 <= b < 128 for b in bits)
    assert lines[1].startswith("INVALID ")


def test_fingerprint_schemes_differ(capsys, monkeypatch):
    outputs = {}
    for scheme in ("morgan", "path", "keys"):
        code, out, _ = run_cli(
            ["fingerprint", "--scheme", scheme],
            stdin_text="CC(=O)O\n",
            capsys=capsys,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        outputs[scheme] = out.strip()
    assert len(set(outputs.values())) == 3


def test_fingerprint_custom_key_table(tmp_path, capsys, monkeypatch):
    table = tmp_path / "mini.keys"
    table.write_text("1\t1\tO\n2\t1\tX\n3\t1\tC=O\n")
    code, out, _ = run_cli(
        ["fingerprint", "--scheme", "keys", "--key-table", str(table)],
        stdin_text="CC(=O)O\nCCl\n",
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0 2"   # O present, carbonyl present
    assert lines[1] == "1"     # halogen only


def test_similarity_self_is_one(capsys):
    for scheme in ("morgan", "path", "keys"):
        code, out, _ = run_cli(
            ["similarity", "c1ccccc1", "c1ccccc1", "--scheme", scheme], capsys=capsys
        )
        assert code == 0
        assert out.strip() == "1.000000"


def test_similarity_invalid_is_data_error(capsys):
    code, _, _ = run_cli(["similarity", "C(", "CCO"], capsys=capsys)
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["fingerprint", "--scheme", "morgan", "--bits", "0"],
        ["fingerprint", "--scheme", "path", "--bits", "-8"],
        ["fingerprint", "--scheme", "morgan", "--radius", "-1"],
        ["fingerprint", "--scheme", "path", "--max-len", "0"],
        ["similarity", "CCO", "CCN", "--bits", "0"],
        ["similarity", "CCO", "CCN", "--radius", "-1"],
        ["similarity", "CCO", "CCN", "--scheme", "path", "--max-len", "0"],
        ["evaluate", "--task", "text2mol", "--predictions", "PREDS", "--fp-bits", "0"],
        ["evaluate", "--task", "text2mol", "--predictions", "PREDS", "--fp-radius", "-1"],
        ["evaluate", "--task", "text2mol", "--predictions", "PREDS", "--fp-bits", "two"],
        ["build-dataset", "--task-file", "text2mol=PREDS", "--per-task", "0",
         "--seed", "1", "--out", "unused.jsonl"],
    ],
)
def test_out_of_range_width_or_radius_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    preds = tmp_path / "preds.jsonl"
    write_predictions(preds, TaskKind.TEXT2MOL, [("CCO", "CCO")])
    argv = [str(preds) if a == "PREDS" else a for a in argv]
    code, out, err = run_cli(argv, stdin_text="CCO\n", capsys=capsys, monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: argument --")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["evaluate", "--task", "text2mol", "--predictions", "PREDS", "--oracle", "MISSING"],
         "--oracle"),
        (["evaluate", "--task", "forward", "--predictions", "PREDS", "--oracle", "MISSING"],
         "--oracle"),
        (["evaluate", "--task", "mol2text", "--predictions", "PREDS", "--oracle", "MISSING"],
         "--oracle"),
        (["fingerprint", "--scheme", "morgan", "--key-table", "MISSING"], "--key-table"),
        (["fingerprint", "--scheme", "path", "--key-table", "MISSING"], "--key-table"),
        (["merge-demo", "--base", "MISSING", "--adapt", "MISSING", "--params", "MISSING",
          "--grad-epsilon", "0"], "--grad-epsilon"),
        (["merge-demo", "--base", "MISSING", "--adapt", "MISSING", "--params", "MISSING",
          "--grad-epsilon=-1"], "--grad-epsilon"),
        (["merge-demo", "--base", "MISSING", "--adapt", "MISSING", "--params", "MISSING",
          "--grad-epsilon", "nan"], "--grad-epsilon"),
        (["merge-demo", "--base", "MISSING", "--adapt", "MISSING", "--params", "MISSING",
          "--grad-epsilon", "2e-3"], "--grad-epsilon"),
        (["build-dataset", "--task-file", "forward=MISSING", "--task-file", "forward=MISSING",
          "--per-task", "1", "--seed", "1", "--out", "MISSING"], "--task-file"),
        (["build-dataset", "--task-file", "retro=MISSING", "--task-file", "forward=MISSING",
          "--task-file", "retro=MISSING", "--per-task", "1", "--seed", "1", "--out", "MISSING"],
         "--task-file"),
        (["evaluate", "--task", "forward", "--predictions", "MISSING", "--fp-bits", "7"],
         "--fp-bits"),
        (["evaluate", "--task", "mol2text", "--predictions", "MISSING", "--fp-radius", "9"],
         "--fp-radius"),
        (["evaluate", "--task", "retro", "--predictions", "MISSING", "--oracle", "lookup:MISSING",
          "--fp-bits", "7", "--fp-radius", "9"], "--fp-bits"),
    ],
)
def test_ignored_or_out_of_range_flag_is_usage_error_before_any_read(
    tmp_path, capsys, monkeypatch, argv, flag
):
    # the named files do not exist, so reading any of them would exit 2
    preds = tmp_path / "preds.jsonl"
    write_predictions(preds, TaskKind.TEXT2MOL, [("CCO", "CCO")])
    missing = str(tmp_path / "missing")
    argv = [str(preds) if a == "PREDS" else missing if a == "MISSING" else a for a in argv]
    code, out, err = run_cli(argv, stdin_text="CCO\n", capsys=capsys, monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert err.startswith(f"usage error: argument {flag}: ")


@pytest.mark.parametrize(
    "argv", [["canonicalize"], ["fingerprint", "--scheme", "morgan"]]
)
def test_line_commands_answer_each_line_before_reading_the_next(monkeypatch, argv):
    stdout = io.StringIO()
    written_before_second_read = []

    def stdin():
        yield "CCO\n"
        written_before_second_read.append(stdout.getvalue())
        yield "C(\n"

    monkeypatch.setattr(sys, "stdin", stdin())
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == 0
    first, second = stdout.getvalue().splitlines()
    assert written_before_second_read == [first + "\n"]
    assert not first.startswith("INVALID") and second.startswith("INVALID ")


def test_line_commands_empty_input_exits_0(capsys, monkeypatch):
    for argv in (["canonicalize"], ["fingerprint", "--scheme", "keys"]):
        code, out, _ = run_cli(argv, stdin_text="\n  \n", capsys=capsys, monkeypatch=monkeypatch)
        assert (code, out) == (0, "")


def test_fingerprint_invalid_valence_reason(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["fingerprint", "--scheme", "path"],
        stdin_text="C(C)(C)(C)(C)C\n",
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 2
    assert out == "INVALID valence violation at atom 0 (C): total 5 exceeds 4\n"


# -- merge demo -------------------------------------------------------------------


def test_merge_demo_shipped_sample(capsys):
    from importlib import resources

    data = resources.files("chemtext") / "data" / "merge_demo"
    code, out, _ = run_cli(
        [
            "merge-demo",
            "--base", str(data / "base_3x4.txt"),
            "--adapt", str(data / "adapt_2x5.txt"),
            "--params", str(data / "params.json"),
        ],
        capsys=capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3 3"
    grad_line = lines[-1]
    assert grad_line.startswith("grad_check op=cross_attend")
    max_rel = float(grad_line.split("max_rel_error=")[1].split()[0])
    assert max_rel < 1e-4


def test_merge_demo_explicit_params(tmp_path, capsys):
    base = tmp_path / "b.txt"
    base.write_text("1 1\n2.0\n")
    adapt = tmp_path / "a.txt"
    adapt.write_text("1 1\n3.0\n")
    params = tmp_path / "p.json"
    params.write_text(json.dumps({
        "d": 1, "depth": 1, "combine": "base_only",
        "w_q": [[1.0]], "w_k": [[1.0]], "w_v": [[0.5]],
    }))
    code, out, _ = run_cli(
        ["merge-demo", "--base", str(base), "--adapt", str(adapt), "--params", str(params)],
        capsys=capsys,
    )
    assert code == 0
    assert out.splitlines()[1] == "1.5"


def _shipped_merge_demo(tmp_path, capsys, spec):
    from importlib import resources

    data = resources.files("chemtext") / "data" / "merge_demo"
    params = tmp_path / "p.json"
    params.write_text(json.dumps(spec))
    return run_cli(
        [
            "merge-demo",
            "--base", str(data / "base_3x4.txt"),
            "--adapt", str(data / "adapt_2x5.txt"),
            "--params", str(params),
        ],
        capsys=capsys,
    )


@pytest.mark.parametrize(
    "spec, op_id",
    [
        ({"d": 4, "depth": 2, "seed": 7}, "hierarchical_merge"),
        ({"d": 3, "combine": "bidirectional_sum", "seed": 7}, "bidirectional_merge"),
        ({"d": 3, "combine": "bidirectional_concat_project", "seed": 7}, "bidirectional_merge"),
    ],
)
def test_merge_demo_op_paths_match_library(tmp_path, capsys, spec, op_id):
    import numpy as np
    from importlib import resources

    from chemtext import merge

    data = resources.files("chemtext") / "data" / "merge_demo"
    with open(data / "base_3x4.txt", encoding="utf-8") as fp:
        h_t = merge.load_matrix(fp)
    with open(data / "adapt_2x5.txt", encoding="utf-8") as fp:
        h_m = merge.load_matrix(fp)
    params = merge.random_params(
        h_t=4, h_m=5, d=spec["d"], seed=7, depth=spec.get("depth", 1),
        combine=merge.CombineMode(spec.get("combine", "base_only")),
    )
    op = merge.hierarchical_merge if op_id == "hierarchical_merge" else merge.bidirectional_merge
    expected = op(h_t, h_m, params)

    code, out, _ = _shipped_merge_demo(tmp_path, capsys, spec)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"3 {spec['d']}"
    got = np.array([[float(x) for x in line.split()] for line in lines[1:-1]])
    assert got.shape == (3, spec["d"])
    assert np.max(np.abs(got - expected)) <= 1e-12
    grad_line = lines[-1]
    assert grad_line.startswith(f"grad_check op={op_id} ")
    assert float(grad_line.split("max_rel_error=")[1].split()[0]) < 1e-4


@pytest.mark.parametrize(
    "spec, field",
    [
        ({"seed": 7}, "d"),
        ({"d": 3, "depth": 2.7, "seed": 7}, "depth"),
        ({"d": 3, "seed": 7.9}, "seed"),
        (
            {"d": 1, "seed": 7.5, "w_q": [[1.0]] * 4, "w_k": [[1.0]] * 5, "w_v": [[1.0]] * 5},
            "seed",
        ),
        ({"d": 3.0, "seed": 7}, "d"),
        ({"d": True, "seed": 7}, "d"),
        ({"d": 3, "depth": False, "seed": 7}, "depth"),
        ({"d": 0, "seed": 7}, "d"),
        ({"d": 1, "seed": 7, "w_q": [[1.0]] * 4, "w_k": [[1.0]] * 5}, "w_v"),
        ({"d": 3, "seed": 7, "combine": "bidirectional_concat_project", "w_c": [[1.0]]}, "w_c"),
        ({"d": 1, "w_q": {"a": 1}, "w_k": [[1.0]] * 5, "w_v": [[1.0]] * 5}, "w_q"),
        ({"d": 3, "w_q": [[1.0]] * 4, "w_k": [[1.0]] * 5, "w_v": [[0.5]] * 5}, "d"),
        ({"d": 4, "depth": 3, "combine": "bidirectional_sum", "seed": 7}, "depth"),
        (
            {"d": 1, "combine": "base_only", "w_q": [[1]] * 4, "w_k": [[1]] * 5,
             "w_v": [[0.5]] * 5, "w_c": [[7], [9]]},
            "w_c",
        ),
        ({"d": 3, "seed": 7, "combine": None}, "combine"),
        ({"d": 3, "seed": 7, "combine": "sideways"}, "combine"),
        ({"d": 3, "seed": 7, "combine": 3}, "combine"),
    ],
)
def test_merge_demo_bad_params_field_is_data_error(tmp_path, capsys, spec, field):
    code, out, err = _shipped_merge_demo(tmp_path, capsys, spec)
    assert code == 2
    assert out == ""
    assert repr(field) in err


_PARAM_NAMES = ("d", "depth", "combine", "seed", "w_q", "w_k", "w_v", "w_c")
_COMBINES = ["base_only", "bidirectional_sum", "bidirectional_concat_project"]
_JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6), st.floats(), st.text(max_size=4)
)
# rows of any small length, so shapes may be right, wrong or ragged
_ROWS = st.lists(st.lists(st.one_of(st.floats(-3, 3), _JSON_SCALAR), max_size=6), max_size=11)
_MATRIX = st.one_of(_ROWS, _JSON_SCALAR, st.dictionaries(st.text(max_size=2), _JSON_SCALAR))
_ANY_VALUES = {
    "d": _JSON_SCALAR, "depth": _JSON_SCALAR,
    "seed": st.one_of(st.integers(-2, 2**64), _JSON_SCALAR),
    "combine": st.one_of(st.sampled_from(_COMBINES), _JSON_SCALAR),
    "w_q": _MATRIX, "w_k": _MATRIX, "w_v": _MATRIX, "w_c": _MATRIX,
}
_EPSILON = st.one_of(
    st.sampled_from(["1e-5", "1e-4", "1e-3"]),
    st.floats(min_value=1e-8, max_value=1e-3).map(repr),
    st.floats().map(repr),
    st.text(max_size=5),
)


@st.composite
def _merge_params(draw):
    """Params that fit the shipped 3x4 base and 2x5 adaptation inputs (by
    seed or by explicit matrices), with up to three fields then dropped or
    replaced by a value of any type or shape."""
    combine = draw(st.sampled_from(_COMBINES))
    depth = draw(st.integers(1, 3)) if combine == "base_only" else 1
    d = 4 if depth > 1 else draw(st.integers(1, 4))
    spec = {"d": d, "depth": depth, "combine": combine}
    if draw(st.booleans()):
        spec["seed"] = draw(st.integers(0, 2**32 - 1))
    else:
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        shapes = {"w_q": (4, d), "w_k": (5, d), "w_v": (5, d)}
        if combine == "bidirectional_concat_project":
            shapes["w_c"] = (2 * d, d)
        for name, (rows, cols) in shapes.items():
            spec[name] = [[rng.uniform(-1, 1) for _ in range(cols)] for _ in range(rows)]
    for name in draw(st.lists(st.sampled_from(_PARAM_NAMES), unique=True, max_size=3)):
        if name in spec and draw(st.booleans()):
            del spec[name]
        else:
            spec[name] = draw(_ANY_VALUES[name])
    return spec


@given(spec=_merge_params(), epsilon=_EPSILON)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_merge_demo_never_exits_3(tmp_path, capsys, spec, epsilon):
    from importlib import resources

    data = resources.files("chemtext") / "data" / "merge_demo"
    params = tmp_path / "p.json"
    params.write_text(json.dumps(spec))
    code, out, err = run_cli(
        ["merge-demo", "--base", str(data / "base_3x4.txt"),
         "--adapt", str(data / "adapt_2x5.txt"), "--params", str(params),
         f"--grad-epsilon={epsilon}"],
        capsys=capsys,
    )
    assert code in (0, 1, 2), err
    if code == 1:
        assert out == ""


def test_merge_demo_params_must_be_an_object(tmp_path, capsys):
    code, out, err = _shipped_merge_demo(tmp_path, capsys, [3, 7])
    assert code == 2
    assert out == ""
    assert "JSON object" in err


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run_cli(["frobnicate"], capsys=capsys)
    assert code == 1


# -- start-up -------------------------------------------------------------------

_NUMPY_PROBE = (
    "import json, sys\n"
    "from chemtext.cli import main\n"
    "code = main(json.loads(sys.argv[1]))\n"
    "print(json.dumps([code, 'numpy' in sys.modules]), file=sys.stderr)\n"
)

_PROBE_ROWS = {
    TaskKind.MOL2TEXT: [("an acid", "a strong acid")],
    TaskKind.PARA2ACTIONS: [("ADD water", "ADD  water")],
    TaskKind.FORWARD: [("OCC", "CCO")],
    TaskKind.RETRO: [("CC.O", "CCO")],
}


@pytest.mark.parametrize(
    "command", ["mol2text", "para2actions", "forward", "retro", "canonicalize", "build-dataset"]
)
def test_text_and_smiles_commands_never_import_numpy(tmp_path, command):
    stdin_text = ""
    if command == "canonicalize":
        argv = ["canonicalize"]
        stdin_text = "OCC\nc1ccccc1\n"
    elif command == "build-dataset":
        stream = tmp_path / "fwd.jsonl"
        write_task_file(stream, TaskKind.FORWARD, 3)
        argv = ["build-dataset", "--task-file", f"forward={stream}", "--per-task", "4",
                "--seed", "1", "--out", str(tmp_path / "mix.jsonl"), "--quiet"]
    else:
        preds = tmp_path / "preds.jsonl"
        write_predictions(preds, TaskKind(command), _PROBE_ROWS[TaskKind(command)])
        argv = ["evaluate", "--task", command, "--predictions", str(preds), "--quiet"]
        if command == "retro":
            oracle = tmp_path / "oracle.jsonl"
            oracle.write_text('{"precursors":"CC.O","product":"CCO"}\n')
            argv += ["--oracle", f"lookup:{oracle}"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(chemtext.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, json.dumps(argv)],
        input=stdin_text, capture_output=True, text=True, env=env, timeout=120,
    )
    code, numpy_loaded = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0, proc.stderr
    assert not numpy_loaded


# -- generated text-task streams -------------------------------------------------

_TEXT = st.one_of(st.text(), st.text(alphabet=" \t\r\n\u00a0\u2028\u3000"))
_NOT_STRING = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.lists(st.text(max_size=3), max_size=2),
)
_ANY_TASK = st.one_of(st.sampled_from([t.value for t in TaskKind]), _TEXT, _NOT_STRING)


@st.composite
def _jsonl_stream(draw, task, fields):
    """JSONL text meant to hold ``task`` records with string ``fields``:
    either every line well formed with arbitrary unicode values, or lines
    with missing or non-string fields and other tasks, plus non-JSON text."""
    clean = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        if clean:
            obj = {"task": task.value, **{f: draw(_TEXT) for f in fields}}
        elif draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.text()))
            continue
        else:
            obj = {}
            for f in ("task",) + fields:
                shape = draw(st.sampled_from(["missing", "string", "other"]))
                if shape == "string":
                    obj[f] = draw(_ANY_TASK if f == "task" else _TEXT)
                elif shape == "other":
                    obj[f] = draw(_NOT_STRING)
        lines.append(json.dumps(obj, ensure_ascii=draw(st.booleans())))
    return "\n".join(lines) + "\n"


def _canonical_json(value) -> str:
    """Sorted keys at every level; floats with exactly six fractional digits."""
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ", ".join(f"{json.dumps(k)}: {_canonical_json(v)}" for k, v in items) + "}"
    if isinstance(value, float):
        return f"{value:.6f}"
    return json.dumps(value)


@pytest.mark.parametrize("task", [TaskKind.MOL2TEXT, TaskKind.PARA2ACTIONS])
@given(data=st.data())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_evaluate_text_task_never_exits_3(tmp_path, capsys, task, data):
    preds = tmp_path / "preds.jsonl"
    preds.write_text(data.draw(_jsonl_stream(task, ("id", "prediction", "reference"))),
                     encoding="utf-8")
    code, out, err = run_cli(
        ["evaluate", "--task", task.value, "--predictions", str(preds), "--quiet"],
        capsys=capsys,
    )
    assert code in (0, 1, 2), err
    if code == 0:
        assert out == _canonical_json(json.loads(out)) + "\n"


@given(data=st.data())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_build_dataset_never_exits_3(tmp_path, capsys, data):
    argv = ["build-dataset", "--per-task", "3", "--seed", "5",
            "--out", str(tmp_path / "mix.jsonl"), "--quiet"]
    tasks = [TaskKind.MOL2TEXT, TaskKind.PARA2ACTIONS]
    repeated = data.draw(st.sampled_from([None, *tasks]))
    if repeated is not None:
        tasks.append(repeated)
    for k, task in enumerate(tasks):
        stream = tmp_path / f"{k}-{task.value}.jsonl"
        stream.write_text(data.draw(_jsonl_stream(task, ("source", "target"))),
                          encoding="utf-8")
        argv += ["--task-file", f"{task.value}={stream}"]
    code, _, err = run_cli(argv, capsys=capsys)
    if repeated is not None:
        assert code == 1
        assert err.startswith("usage error: argument --task-file: ") and repeated.value in err
    assert code in (0, 1, 2), err


# -- generated SMILES-task inputs ------------------------------------------------

# Pieces of the SMILES alphabet, valid or not in any order: organic and bracket
# atoms, ring labels (two-digit ones too), dots, unbalanced parentheses and
# every bond symbol.
_SMILES_PIECES = [
    "C", "c", "N", "n", "O", "o", "S", "s", "Cl", "Br", "F", "P", "B", "I",
    "[CH4]", "[nH]", "[NH4+]", "[13C]", "[Fe+3]", "[O-]", "[C@@H]", "[Xx]", "[U]",
    "[", "]", "H", "@", "+", "1", "2", "3", "9", "%10", "%99", "%1", "0",
    ".", "(", ")", "=", "#", "-", ":", "/", "\\", " ",
]
_PIECED = st.lists(st.sampled_from(_SMILES_PIECES), max_size=24).map("".join)
_MOLGEN = st.integers(0, 2**32 - 1).map(
    lambda seed: random_smiles(random_molecule(random.Random(seed), 10), random.Random(seed))
)
_SMILES_TEXT = st.one_of(_PIECED, _MOLGEN)


@given(lines=st.lists(_SMILES_TEXT, max_size=8))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_canonicalize_never_exits_3(capsys, monkeypatch, lines):
    code, out, err = run_cli(["canonicalize"], stdin_text="".join(l + "\n" for l in lines),
                             capsys=capsys, monkeypatch=monkeypatch)
    assert code in (0, 1, 2), err
    assert len(out.splitlines()) == sum(1 for l in lines if l.strip())


@pytest.mark.parametrize("task", [TaskKind.FORWARD, TaskKind.RETRO, TaskKind.TEXT2MOL])
@given(data=st.data())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_evaluate_smiles_task_never_exits_3(tmp_path, capsys, task, data):
    rows = data.draw(st.lists(st.tuples(_SMILES_TEXT, _SMILES_TEXT), min_size=1, max_size=5))
    preds = tmp_path / "preds.jsonl"
    write_predictions(preds, task, rows)
    argv = ["evaluate", "--task", task.value, "--predictions", str(preds), "--quiet"]
    if task is TaskKind.RETRO:
        # some entries are keyed by a drawn prediction, so lookups can hit
        key = st.one_of(st.sampled_from([p for p, _ in rows]), _SMILES_TEXT)
        entries = data.draw(st.lists(st.tuples(key, _SMILES_TEXT), max_size=5))
        oracle = tmp_path / "oracle.jsonl"
        oracle.write_text("".join(json.dumps({"precursors": p, "product": q}) + "\n"
                                  for p, q in entries), encoding="utf-8")
        argv += ["--oracle", f"lookup:{oracle}"]
    code, out, err = run_cli(argv, capsys=capsys)
    assert code in (0, 1, 2), err
    if code == 0:
        assert out == _canonical_json(json.loads(out)) + "\n"
