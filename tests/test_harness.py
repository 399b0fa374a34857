import json
import random
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from chemtext.dataset import TaskKind
from chemtext.errors import ChemtextError
from chemtext.harness import (
    DimensionMismatchError,
    FingerprintConfig,
    IllConditionedError,
    LookupOracle,
    MixedTasksError,
    OracleError,
    PredictionPair,
    eval_forward,
    eval_mol2text,
    eval_pairs,
    eval_para2actions,
    eval_retro,
    eval_text2mol,
    frechet_distance,
    report_to_json,
)
from chemtext import fingerprints, harness, textmetrics
from chemtext.smiles import canon, canonicalize, parse_smiles, random_smiles
from chemtext.textmetrics import (
    EmptyCorpusError,
    bleu,
    meteor_lite,
    rouge_l,
    rouge_n,
    word_tokenize,
)
from metric_oracles import forward_oracle, retro_oracle, text2mol_both_sides_oracle
from molgen import clique_smiles, random_molecule


def pairs_for(task, rows):
    return [
        PredictionPair(task=task, prediction=p, reference=r, id=str(i))
        for i, (p, r) in enumerate(rows)
    ]


# -- mol2text -----------------------------------------------------------------


def test_mol2text_perfect_predictions():
    rows = [("an alcohol with two carbons", "an alcohol with two carbons")] * 3
    report = eval_mol2text(pairs_for(TaskKind.MOL2TEXT, rows))
    for name in ("bleu2", "bleu4", "rouge1", "rouge2", "rougeL"):
        assert report.value(name) == pytest.approx(1.0), name
    assert set(report.metrics) == {
        "bleu2", "bleu4", "rouge1", "rouge2", "rougeL", "meteor_lite",
    }


def test_mol2text_counts_each_pairs_ngrams_once(monkeypatch):
    # one Counter per side for each order 1..4, shared by BLEU-2/4 and ROUGE-1/2
    calls = []
    ngrams = textmetrics._ngrams

    def counting(tokens, n):
        calls.append(n)
        return ngrams(tokens, n)

    monkeypatch.setattr(textmetrics, "_ngrams", counting)
    rows = [("an acid", "a strong acid"), ("", "a sugar"), ("a blue dye", "")]
    eval_mol2text(pairs_for(TaskKind.MOL2TEXT, rows))
    assert len(calls) == 8 * len(rows)
    assert sorted(set(calls)) == [1, 2, 3, 4]


def test_mol2text_empty_corpus():
    with pytest.raises(EmptyCorpusError):
        eval_mol2text([])


def test_mol2text_composes_with_standalone_metrics():
    rows = [
        ("the molecule is an acid", "the molecule is a strong acid"),
        ("a blue dye", "a red dye"),
        ("it is a fatty acid", "it is a fatty acid found in plants"),
        ("aromatic ring compound", "an aromatic compound"),
        ("sugar", "a sugar"),
    ]
    report = eval_mol2text(pairs_for(TaskKind.MOL2TEXT, rows))
    cands = [word_tokenize(p) for p, _ in rows]
    refs = [word_tokenize(r) for _, r in rows]
    assert report.value("bleu2") == pytest.approx(bleu(cands, refs, 2).value)
    assert report.value("bleu4") == pytest.approx(bleu(cands, refs, 4).value)
    assert report.value("rouge1") == pytest.approx(rouge_n(cands, refs, 1).value)
    assert report.value("rouge2") == pytest.approx(rouge_n(cands, refs, 2).value)
    assert report.value("rougeL") == pytest.approx(rouge_l(cands, refs).value)
    assert report.value("meteor_lite") == pytest.approx(meteor_lite(cands, refs).value)


def test_mixed_tasks_rejected():
    bad = pairs_for(TaskKind.MOL2TEXT, [("a", "a")]) + pairs_for(
        TaskKind.TEXT2MOL, [("C", "C")]
    )
    with pytest.raises(MixedTasksError):
        eval_mol2text(bad)


# -- text2mol -----------------------------------------------------------------


def test_text2mol_perfect():
    rows = [("CCO", "CCO"), ("c1ccccc1", "c1ccccc1")]
    report = eval_text2mol(pairs_for(TaskKind.TEXT2MOL, rows))
    assert report.value("accuracy") == 1.0
    assert report.value("validity") == 1.0
    assert report.value("levenshtein") == 0.0
    for name in ("maccs_fts", "rdk_fts", "morgan_fts"):
        assert report.value(name) == pytest.approx(1.0)
    assert report.n_skipped == 0


def test_text2mol_all_unparseable():
    rows = [("C(", "CCO"), ("C(", "CC")]
    report = eval_text2mol(pairs_for(TaskKind.TEXT2MOL, rows))
    assert report.value("validity") == 0.0
    assert report.value("accuracy") == 0.0
    assert report.n_valid_pred == 0
    assert "maccs_fts" not in report.metrics
    assert report.omitted_metrics["maccs_fts"] == "no pair with both sides valid"
    assert report.n_skipped == 2


def test_text2mol_mixed_counting():
    rows = [
        ("CCO", "CCO"),        # exact match (canonical)
        ("CCN", "CCO"),        # valid non-match
        ("C(", "CCO"),         # invalid
        ("xx", "CCO"),         # invalid
    ]
    report = eval_text2mol(pairs_for(TaskKind.TEXT2MOL, rows))
    assert report.value("accuracy") == 0.25
    assert report.value("validity") == 0.5
    assert report.metrics["maccs_fts"].support == 2
    assert report.n_skipped == 2
    assert report.skip_reasons == {"invalid_smiles_side": 2}


def test_text2mol_fingerprint_budget_is_a_skip_reason():
    clique = clique_smiles()
    rows = [(clique, clique), ("C(", "CCO"), ("CCO", "OCC")]
    report = eval_text2mol(pairs_for(TaskKind.TEXT2MOL, rows))
    assert report.n_skipped == 2
    assert report.skip_reasons == {"fingerprint_budget": 1, "invalid_smiles_side": 1}
    # the budget pair still counts as valid and correct
    assert report.value("validity") == pytest.approx(2 / 3)
    assert report.value("accuracy") == pytest.approx(2 / 3)
    assert report.metrics["rdk_fts"].support == 1
    assert report.value("rdk_fts") == 1.0
    only = eval_text2mol(pairs_for(TaskKind.TEXT2MOL, rows[:1]))
    assert only.omitted_metrics["rdk_fts"] == (
        "no pair with both sides valid within the path-enumeration budget"
    )


def test_text2mol_canonical_equality_not_string_equality():
    rows = [("OCC", "CCO")]
    report = eval_text2mol(pairs_for(TaskKind.TEXT2MOL, rows))
    assert report.value("accuracy") == 1.0
    assert report.value("levenshtein") > 0


def test_text2mol_accuracy_le_validity():
    rng = random.Random(4)
    choices = ["CCO", "CCN", "C(", "c1ccccc1", "not smiles", "CC(=O)O"]
    rows = [(rng.choice(choices), rng.choice(choices[:3])) for _ in range(40)]
    report = eval_text2mol(pairs_for(TaskKind.TEXT2MOL, rows))
    assert report.value("accuracy") <= report.value("validity")


@given(st.lists(st.text(max_size=15), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_text2mol_total_on_arbitrary_predictions(preds):
    # model outputs can be any string; the evaluator must never raise
    rows = [(p, "CCO") for p in preds]
    report = eval_text2mol(pairs_for(TaskKind.TEXT2MOL, rows))
    assert 0.0 <= report.value("validity") <= 1.0
    assert report.value("accuracy") <= report.value("validity")


def test_text2mol_fp_config_respected():
    rows = [("CCO", "CCC")]
    small = eval_text2mol(
        pairs_for(TaskKind.TEXT2MOL, rows), FingerprintConfig(radius=0, nbits=64)
    )
    default = eval_text2mol(pairs_for(TaskKind.TEXT2MOL, rows))
    assert small.value("morgan_fts") != default.value("morgan_fts")


def _counted_fingerprint_molecules(monkeypatch):
    """Molecules handed to each scheme's kernel, by scheme."""
    counts = Counter()
    kernels = {"keys": "key_fingerprint", "path": "path_fingerprints", "morgan": "morgan_fingerprints"}
    for scheme, name in kernels.items():
        def counted(mol_or_mols, *args, scheme=scheme, kernel=getattr(harness, name)):
            counts[scheme] += 1 if scheme == "keys" else len(mol_or_mols)
            return kernel(mol_or_mols, *args)

        monkeypatch.setattr(harness, name, counted)
    return counts


@pytest.mark.parametrize(
    "row, expected",
    [
        (("OCC", "CCO"), 3),             # exact match: the reference only
        (("CCN", "CCO"), 6),             # two valid sides that differ
        (("C(", "CCO"), 0),              # unparseable prediction
        (("CCO", "C("), 0),              # unparseable reference
        (("C(C)(C)(C)(C)C", "CCO"), 0),  # valence violation
    ],
)
def test_text2mol_fingerprint_calls_per_pair(monkeypatch, row, expected):
    # expected counts the molecules of all three schemes together
    counts = _counted_fingerprint_molecules(monkeypatch)
    eval_text2mol(pairs_for(TaskKind.TEXT2MOL, [row]))
    assert sum(counts.values()) == expected
    if expected:
        assert counts == dict.fromkeys(["keys", "path", "morgan"], expected // 3)


def test_text2mol_exact_pair_keeps_the_empty_fingerprint_rule():
    # methane has no bonds, so no paths: 0/0 is pinned to 0.0, not 1.0
    report = eval_text2mol(pairs_for(TaskKind.TEXT2MOL, [("C", "[CH4]")]))
    assert report.value("accuracy") == 1.0
    assert report.value("rdk_fts") == 0.0
    assert report.value("morgan_fts") == 1.0


@pytest.mark.parametrize("budget_side", ["prediction", "reference"])
def test_text2mol_budget_on_either_side_of_a_non_exact_pair(budget_side):
    clique = clique_smiles()
    row = (clique, "CCO") if budget_side == "prediction" else ("CCO", clique)
    report = eval_text2mol(pairs_for(TaskKind.TEXT2MOL, [row, ("CCN", "CCO")]))
    assert report.skip_reasons == {"fingerprint_budget": 1}
    assert report.metrics["rdk_fts"].support == 1


def _text2mol_corpus(seed, max_atoms, n):
    """Exact matches as rewrites, other valid molecules, broken and
    non-SMILES text, and the special cases the scoring treats apart."""
    rng = random.Random(seed)
    rows = [("C", "[CH4]"), (clique_smiles(), clique_smiles()), (clique_smiles(), "CCO")]
    for _ in range(n):
        ref = random_molecule(rng, max_atoms)
        kind = rng.randrange(4)
        if kind == 0:
            pred = random_smiles(ref, rng)
        elif kind == 1:
            pred = random_smiles(random_molecule(rng, max_atoms), rng)
        elif kind == 2:
            pred = random_smiles(ref, rng)[:-1] + "("
        else:
            pred = "a molecule"
        rows.append((pred, random_smiles(ref, rng)))
    return pairs_for(TaskKind.TEXT2MOL, rows)


@pytest.mark.parametrize("max_atoms", [10, 30])
@pytest.mark.parametrize(
    "config", [FingerprintConfig(), FingerprintConfig(radius=0, nbits=64)], ids=["default", "small"]
)
def test_text2mol_report_equals_both_sides_oracle(max_atoms, config):
    pairs = _text2mol_corpus(7, max_atoms, 60)
    report = eval_text2mol(pairs, config)
    expected = text2mol_both_sides_oracle(pairs, config)
    assert report == expected
    assert report_to_json(report) == report_to_json(expected)
    # the corpus holds exact and non-exact valid pairs and both budget pairs
    assert 0 < report.value("accuracy") < report.value("validity")
    assert report.skip_reasons["fingerprint_budget"] == 2


@pytest.mark.parametrize("n", [1, 15, 16, 17, 33])
def test_text2mol_chunks_equal_both_sides_oracle(monkeypatch, n):
    # pairs are fingerprinted 16 at a time; budget pairs end the first chunk
    # and open the second
    monkeypatch.setattr(fingerprints, "_MAX_PATHS_WALKED", 50_000)
    rows = [(p.prediction, p.reference) for p in _text2mol_corpus(13, 30, 40)[3:3 + n]]
    budget_rows = {15: (clique_smiles(), "CCO"), 16: ("CCO", clique_smiles())}
    for i, row in budget_rows.items():
        if i < n:
            rows[i] = row
    pairs = pairs_for(TaskKind.TEXT2MOL, rows)
    report = eval_text2mol(pairs)
    assert report == text2mol_both_sides_oracle(pairs)
    assert report.skip_reasons.get("fingerprint_budget", 0) == sum(i < n for i in budget_rows)


def test_text2mol_bleu_tokenizer_override():
    from chemtext.harness import smiles_bleu_tokenize

    assert smiles_bleu_tokenize("CCl").tokens == ("C", "Cl")
    assert smiles_bleu_tokenize("C\x00").tokens == ("C", "\x00")  # fallback
    rows = [("ClCC", "CCCl"), ("CBr", "CBr")]
    chars = eval_text2mol(pairs_for(TaskKind.TEXT2MOL, rows))
    smi_tok = eval_text2mol(
        pairs_for(TaskKind.TEXT2MOL, rows), bleu_tokenizer=smiles_bleu_tokenize
    )
    assert chars.value("bleu") != smi_tok.value("bleu")
    # non-BLEU metrics unaffected by the tokenizer choice
    assert chars.value("accuracy") == smi_tok.value("accuracy")


# -- forward ------------------------------------------------------------------


def test_each_parsed_molecule_is_validated_once(monkeypatch):
    from chemtext import harness
    from chemtext.smiles import valence

    parsed, validated = [], []
    parse, validate = harness.parse_smiles, valence.validate

    def counting_parse(smiles):
        parsed.append(parse(smiles))
        return parsed[-1]

    def counting_validate(mol):
        validated.append(mol)
        return validate(mol)

    monkeypatch.setattr(harness, "parse_smiles", counting_parse)
    monkeypatch.setattr(valence, "validate", counting_validate)
    rows = [("CCO", "OCC"), ("c1ccccc1", "CCN"), ("C(C)(C)(C)(C)C", "CCO"), ("C(", "CC"), ("CC", "xx")]
    eval_text2mol([PredictionPair(TaskKind.TEXT2MOL, p, r) for p, r in rows])
    eval_forward([PredictionPair(TaskKind.FORWARD, p, r) for p, r in rows])
    oracle = LookupOracle({"OCC": "CCO", "c1ccccc1": "CCN", "CC": "CC"})
    eval_retro([PredictionPair(TaskKind.RETRO, p, r) for p, r in rows], oracle)
    # text2mol parses 8 of its 10 fields ("C(" and "xx" fail); forward also
    # skips the references of its two invalid predictions; retro parses the
    # 3 table keys, then each prediction once and, on its 3 hits, the
    # product and the reference ("xx" fails)
    assert len(parsed) == 14 + 3 + 9
    assert sorted(map(id, validated)) == sorted(map(id, parsed))


def test_forward_accuracy():
    rows = [("CCO", "CCO"), ("OCC", "CCO"), ("C(", "CC"), ("CC", "CCC")]
    report = eval_forward(pairs_for(TaskKind.FORWARD, rows))
    # exact, reordered-correct, invalid, wrong
    assert report.value("accuracy") == 0.5


def test_forward_half_invalid():
    rows = [("CCO", "CCO"), ("C(", "CCO")]
    report = eval_forward(pairs_for(TaskKind.FORWARD, rows))
    assert report.value("accuracy") == 0.5


def test_forward_canon_budget_is_a_skip_reason(monkeypatch):
    monkeypatch.setattr(canon, "_MAX_CANDIDATES", 1)
    rows = [("c1ccccc1", "c1ccccc1"), ("OCC", "CCO"), ("CCN", "CCO")]
    report = eval_forward(pairs_for(TaskKind.FORWARD, rows))
    assert report.skip_reasons == {"canon_budget": 1}
    assert report.n_valid_pred == 3
    assert report.value("accuracy") == pytest.approx(1 / 3)


# -- retro --------------------------------------------------------------------


def test_retro_lookup_oracle_full_coverage():
    rows = [("CC.O", "CCO"), ("CBr.N", "CN")]
    oracle = LookupOracle({"CC.O": "CCO", "CBr.N": "CN"})
    report = eval_retro(pairs_for(TaskKind.RETRO, rows), oracle)
    assert report.value("roundtrip_accuracy") == 1.0


def test_retro_constant_oracle_zero():
    class ConstantOracle:
        def predict_product(self, precursors: str) -> str:
            return "C"

    rows = [("CC.O", "CCO"), ("CBr.N", "CN")]
    report = eval_retro(pairs_for(TaskKind.RETRO, rows), ConstantOracle())
    assert report.value("roundtrip_accuracy") == 0.0


def test_retro_partial_lookup():
    rows = [("CC.O", "CCO"), ("CBr.N", "CN"), ("CI.O", "CO")]
    oracle = LookupOracle({"CC.O": "CCO", "CBr.N": "CN"})
    report = eval_retro(pairs_for(TaskKind.RETRO, rows), oracle)
    assert report.value("roundtrip_accuracy") == pytest.approx(2 / 3)
    assert report.skip_reasons == {"oracle_failure": 1}


def test_retro_canon_budget_is_a_skip_reason(monkeypatch):
    class TableOracle:
        def __init__(self, table):
            self.table = table

        def predict_product(self, precursors: str) -> str:
            return self.table[precursors]

    monkeypatch.setattr(canon, "_MAX_CANDIDATES", 1)
    oracle = TableOracle({"CCN.O": "OCC", "CCCN.O": "c1ccccc1", "CCCO": "CCCO"})
    rows = [("CCN.O", "CCO"), ("CCCN.O", "c1ccccc1"), ("CCCO", "CCO")]
    report = eval_retro(pairs_for(TaskKind.RETRO, rows), oracle)
    assert report.skip_reasons == {"canon_budget": 1}
    assert report.n_valid_pred == 3
    assert report.value("roundtrip_accuracy") == pytest.approx(1 / 3)


@pytest.mark.parametrize("precursors", ["C1CCCCC1.O", "O.C1CCCCC1"])
def test_retro_lookup_canon_budget_in_any_atom_order(monkeypatch, precursors):
    monkeypatch.setattr(canon, "_MAX_CANDIDATES", 1)
    oracle = LookupOracle({"C1CCCCC1.O": "CCO"})
    report = eval_retro(pairs_for(TaskKind.RETRO, [(precursors, "CCO")]), oracle)
    assert report.skip_reasons == {"canon_budget": 1}
    assert report.n_valid_pred == 1
    assert report.value("roundtrip_accuracy") == 0.0


def test_retro_lookup_invalid_valence_is_an_oracle_failure():
    # parses but fails validation: not a budget hit, so the key stays the
    # exact string and any other spelling misses the table
    oracle = LookupOracle({"C(C)(C)(C)(C)C.O": "CCO"})
    assert oracle.predict_product("C(C)(C)(C)(C)C.O") == "CCO"
    rows = [("O.C(C)(C)(C)(C)C", "CCO"), ("C(C)(C)(C)(C)C.O", "CCO")]
    report = eval_retro(pairs_for(TaskKind.RETRO, rows), oracle)
    assert report.skip_reasons == {"oracle_failure": 1}
    assert report.n_valid_pred == 0
    assert report.value("roundtrip_accuracy") == pytest.approx(1 / 2)


def test_lookup_oracle_canonical_keys():
    oracle = LookupOracle({"CC.O": "CCO"})
    assert oracle.predict_product("O.CC") == "CCO"
    with pytest.raises(OracleError):
        oracle.predict_product("CN")


def test_lookup_oracle_conflicting_spellings_raise():
    with pytest.raises(ChemtextError, match=r"'CC\.O' and 'O\.CC'.*'CCO' and 'CN'"):
        LookupOracle({"CC.O": "CCO", "O.CC": "CN"})
    # spellings that do not parse are keyed by their exact string, so they
    # never collide with one another
    oracle = LookupOracle({"C(.O": "CCO", "O.C(": "CN"})
    assert oracle.predict_product("O.C(") == "CN"


@pytest.mark.parametrize("product", ["CCO", "OCC"])
def test_lookup_oracle_repeats_with_one_product_are_accepted(product):
    oracle = LookupOracle({"CC.O": "CCO", "O.CC": product})
    assert oracle.predict_product("CC.O") == product


def test_lookup_oracle_same_product(monkeypatch):
    assert LookupOracle.same_product("CCO", "OCC")
    assert not LookupOracle.same_product("CCO", "CN")
    assert LookupOracle.same_product("C(", "C(")
    assert not LookupOracle.same_product("C(", "C(C")
    # over the canonicalization budget, a product equals only itself
    monkeypatch.setattr(canon, "_MAX_CANDIDATES", 1)
    assert LookupOracle.same_product("c1ccccc1", "c1ccccc1")
    assert not LookupOracle.same_product("c1ccccc1", "C1=CC=CC=C1")


def test_retro_hands_other_oracles_the_string():
    seen = []

    class RecordingOracle:
        def predict_product(self, precursors: str) -> str:
            seen.append(precursors)
            return "CCO"

    rows = [("CC.O", "CCO"), ("C(", "CCO")]
    report = eval_retro(pairs_for(TaskKind.RETRO, rows), RecordingOracle())
    assert seen == ["CC.O", "C("] and all(type(p) is str for p in seen)
    assert report.value("roundtrip_accuracy") == 1.0


def _counted_smiles_calls(monkeypatch):
    """parse_smiles and canonicalize calls the harness makes, by name."""
    counts = Counter()
    for name in ("parse_smiles", "canonicalize"):
        def counted(arg, name=name, fn=getattr(harness, name)):
            counts[name] += 1
            return fn(arg)

        monkeypatch.setattr(harness, name, counted)
    return counts


@pytest.mark.parametrize(
    "row, budget, parses, canons",
    [
        # hit: the prediction, the product and the reference, each once
        (("O.CC", "OCC"), None, 3, 3),
        (("CI.O", "CO"), None, 1, 1),                 # miss
        (("C(", "CCO"), None, 1, 0),                  # does not parse: a miss
        (("C(C)(C)(C)(C)C.O", "CCO"), None, 3, 2),    # fails validation: hit by its string
        (("C1CCCCC1.O", "CCO"), 1, 1, 1),             # over the canonicalization budget
    ],
    ids=["hit", "miss", "unparseable", "invalid", "canon_budget"],
)
def test_retro_lookup_calls_per_pair(monkeypatch, row, budget, parses, canons):
    oracle = LookupOracle({"CC.O": "CCO", "C(C)(C)(C)(C)C.O": "CCO"})
    counts = _counted_smiles_calls(monkeypatch)
    if budget is not None:
        monkeypatch.setattr(canon, "_MAX_CANDIDATES", budget)
    eval_retro(pairs_for(TaskKind.RETRO, [row]), oracle)
    assert (counts["parse_smiles"], counts["canonicalize"]) == (parses, canons)


# -- forward and retro against the loops that parsed each field on its own ---

_INVALID = ["C(", "a molecule", "c1cc", "C(C)(C)(C)(C)C", "O(C)(C)C", "C1CC", "[Xx]", ""]


def _invalid(rng):
    """A string that does not parse, or parses and fails validation."""
    return rng.choice(_INVALID)


def _forward_corpus(seed, max_atoms, n):
    """Exact matches as rewrites, other molecules, and predictions or
    references that do not parse or fail validation."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        ref = random_molecule(rng, max_atoms)
        pred, ref_text = random_smiles(ref, rng), random_smiles(ref, rng)
        kind = rng.randrange(5)
        if kind == 1:
            pred = random_smiles(random_molecule(rng, max_atoms), rng)
        elif kind == 2:
            pred = _invalid(rng)
        elif kind == 3:
            pred = pred[:-1] + "("
        elif kind == 4:
            ref_text = _invalid(rng)
        rows.append((pred, ref_text))
    return pairs_for(TaskKind.FORWARD, rows)


def _retro_corpus(seed, max_atoms, n):
    """Retro pairs and the oracle table they are scored with: hits in the
    written and in a rewritten atom order, wrong products, misses, keys and
    products that do not parse or fail validation."""
    rng = random.Random(seed)
    table = {"C(C)(C)(C)(C)C.O": "CCO", "O.C(": "c1ccccc1"}
    keys = set()
    entries = []
    while len(entries) < max(2, n // 3):
        precursors = parse_smiles(
            f"{random_smiles(random_molecule(rng, max_atoms), rng)}."
            f"{random_smiles(random_molecule(rng, max_atoms // 2), rng)}"
        )
        if canonicalize(precursors) in keys:
            continue
        keys.add(canonicalize(precursors))
        product = random_molecule(rng, max_atoms) if rng.random() < 0.9 else None
        text = random_smiles(product, rng) if product else _invalid(rng)
        table[random_smiles(precursors, rng)] = text
        entries.append((precursors, product))
    rows = [("C(C)(C)(C)(C)C.O", "OCC"), ("O.C(C)(C)(C)(C)C", "CCO"), ("O.C(", "c1ccccc1")]
    for _ in range(n):
        precursors, product = rng.choice(entries)
        ref = random_smiles(product, rng) if product else _invalid(rng)
        kind = rng.randrange(5)
        if kind == 0:
            pred = random_smiles(precursors, rng)
        elif kind == 1:
            pred, ref = random_smiles(precursors, rng), random_smiles(random_molecule(rng, max_atoms), rng)
        elif kind == 2:
            pred = random_smiles(random_molecule(rng, max_atoms), rng)
        elif kind == 3:
            pred = _invalid(rng)
        else:
            pred, ref = random_smiles(precursors, rng), _invalid(rng)
        rows.append((pred, ref))
    return pairs_for(TaskKind.RETRO, rows), table


class _StringOracle:
    """The same table behind the plain string protocol."""

    def __init__(self, oracle):
        self.oracle = oracle

    def predict_product(self, precursors: str) -> str:
        return self.oracle.predict_product(precursors)


_BUDGETS = st.sampled_from([None, 1, 40])


@given(seed=st.integers(0, 2**32 - 1), max_atoms=st.sampled_from([10, 30]), budget=_BUDGETS)
@settings(max_examples=40, deadline=None)
def test_forward_equals_field_by_field_loop(seed, max_atoms, budget):
    pairs = _forward_corpus(seed, max_atoms, 12)
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(canon, "_MAX_CANDIDATES", budget)
        report, expected = eval_forward(pairs), forward_oracle(pairs)
    assert report == expected
    assert report_to_json(report) == report_to_json(expected)


@given(seed=st.integers(0, 2**32 - 1), max_atoms=st.sampled_from([10, 30]), budget=_BUDGETS)
@settings(max_examples=40, deadline=None)
def test_retro_equals_field_by_field_loop(seed, max_atoms, budget):
    pairs, table = _retro_corpus(seed, max_atoms, 12)
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(canon, "_MAX_CANDIDATES", budget)
        oracle = LookupOracle(table)
        lookup = eval_retro(pairs, oracle)
        strings = eval_retro(pairs, _StringOracle(oracle))
        expected = retro_oracle(pairs, oracle)
    assert lookup == strings == expected
    assert report_to_json(lookup) == report_to_json(strings) == report_to_json(expected)


def test_field_by_field_corpora_reach_every_outcome():
    # the corpora above score hits and misses and trip every skip reason
    forward = [forward_oracle(_forward_corpus(seed, 10, 12)) for seed in range(4)]
    assert all(0 < r.value("accuracy") < r.n_valid_pred / r.n_total < 1 for r in forward)
    retro = []
    for seed in range(4):
        pairs, table = _retro_corpus(seed, 10, 12)
        retro.append(retro_oracle(pairs, LookupOracle(table)))
    assert all(0 < r.value("roundtrip_accuracy") < 1 for r in retro)
    assert all(r.skip_reasons.get("oracle_failure") for r in retro)
    (pairs, table), forward_pairs = _retro_corpus(0, 10, 12), _forward_corpus(0, 10, 12)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(canon, "_MAX_CANDIDATES", 1)
        assert retro_oracle(pairs, LookupOracle(table)).skip_reasons.get("canon_budget")
        assert forward_oracle(forward_pairs).skip_reasons.get("canon_budget")


def test_eval_pairs_retro_requires_oracle():
    rows = [("CC.O", "CCO")]
    with pytest.raises(OracleError):
        eval_pairs(pairs_for(TaskKind.RETRO, rows), TaskKind.RETRO)


# -- para2actions -------------------------------------------------------------


def test_para2actions_exact():
    rows = [("ADD water; STIR.", "ADD water; STIR.")] * 2
    report = eval_para2actions(pairs_for(TaskKind.PARA2ACTIONS, rows))
    assert report.value("accuracy") == 1.0
    assert report.value("bleu4") == pytest.approx(1.0)


def test_para2actions_whitespace_normalized():
    rows = [("ADD  water;  STIR.", "ADD water; STIR.")]
    report = eval_para2actions(pairs_for(TaskKind.PARA2ACTIONS, rows))
    assert report.value("accuracy") == 1.0


def test_para2actions_counting():
    rows = [("a", "a"), ("b", "b"), ("c", "c"), ("d", "x")]
    report = eval_para2actions(pairs_for(TaskKind.PARA2ACTIONS, rows))
    assert report.value("accuracy") == 0.75


def test_para2actions_all_different():
    rows = [("alpha", "beta"), ("gamma", "delta")]
    report = eval_para2actions(pairs_for(TaskKind.PARA2ACTIONS, rows))
    assert report.value("accuracy") == 0.0


# -- reports ------------------------------------------------------------------


def test_report_json_canonical():
    rows = [("CCO", "CCO"), ("C(", "CC")]
    report = eval_text2mol(pairs_for(TaskKind.TEXT2MOL, rows))
    text = report_to_json(report)
    payload = json.loads(text)
    assert payload["task"] == "text2mol"
    assert payload["counts"] == {"n_skipped": 1, "n_total": 2, "n_valid_pred": 1}
    assert payload["metrics"]["accuracy"] == 0.5
    # six fractional digits and sorted keys, stable across runs
    assert '"accuracy": 0.500000' in text
    assert list(payload["metrics"]) == sorted(payload["metrics"])
    assert text == report_to_json(eval_text2mol(pairs_for(TaskKind.TEXT2MOL, rows)))


def test_report_order_independence():
    rows = [("CCO", "CCO"), ("CCN", "CCO"), ("C(", "CC"), ("CCC", "CCC")]
    pairs = pairs_for(TaskKind.TEXT2MOL, rows)
    front = eval_text2mol(pairs)
    back = eval_text2mol(list(reversed(pairs)))
    assert report_to_json(front) == report_to_json(back)


# -- frechet ------------------------------------------------------------------


def test_frechet_identical_sets():
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(20, 4))
    assert frechet_distance(feats, feats) <= 1e-8


def test_frechet_one_dimensional_analytic():
    a = np.array([[-1.0], [1.0]])
    b = np.array([[0.0], [2.0]])
    assert frechet_distance(a, b) == pytest.approx(1.0, abs=1e-9)


def test_frechet_symmetry():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(30, 3))
    b = rng.normal(loc=0.5, size=(25, 3))
    assert frechet_distance(a, b) == pytest.approx(frechet_distance(b, a), abs=1e-8)


def test_frechet_against_independent_eigensolver():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.normal(size=(40, 3))
        b = rng.normal(loc=rng.normal(size=3), size=(35, 3))
        got = frechet_distance(a, b)
        mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
        sa = np.cov(a, rowvar=False)
        sb = np.cov(b, rowvar=False)
        cross = scipy.linalg.sqrtm(sa @ sb)
        want = float(
            np.sum((mu_a - mu_b) ** 2)
            + np.trace(sa + sb - 2.0 * np.real(cross))
        )
        assert got == pytest.approx(want, abs=1e-6)


def test_frechet_errors():
    rng = np.random.default_rng(3)
    with pytest.raises(DimensionMismatchError):
        frechet_distance(rng.normal(size=(10, 3)), rng.normal(size=(10, 4)))
    with pytest.raises(IllConditionedError):
        frechet_distance(rng.normal(size=(3, 5)), rng.normal(size=(10, 5)))
    # ridge rescues the under-determined case
    value = frechet_distance(
        rng.normal(size=(3, 5)), rng.normal(size=(10, 5)), ridge=1e-6
    )
    assert value >= 0.0
