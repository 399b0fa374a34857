import dataclasses
import json
import random
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chemtext.dataset import TaskKind
from chemtext.errors import ChemtextError
from chemtext.harness import (
    DimensionMismatchError,
    FingerprintConfig,
    IllConditionedError,
    LookupOracle,
    MetricReport,
    MixedTasksError,
    OracleError,
    PredictionPair,
    _Side,
    eval_forward,
    eval_mol2text,
    eval_pairs,
    eval_para2actions,
    eval_retro,
    eval_text2mol,
    frechet_distance,
    report_to_json,
)
import chemtext.fingerprints.keys
from chemtext import fingerprints, harness, molecule_tasks, textmetrics
from chemtext.smiles import (
    CanonError,
    Molecule,
    ParseError,
    canon,
    canonicalize,
    parse_smiles,
    random_smiles,
    tokenize,
)
from chemtext.textmetrics import (
    EmptyCorpusError,
    bleu,
    meteor_lite,
    rouge_l,
    rouge_n,
    word_tokenize,
)
from metric_oracles import (
    EagerLookupOracle,
    forward_oracle,
    retro_oracle,
    text2mol_both_sides_oracle,
)
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


@pytest.mark.parametrize(
    "rows, budgets",
    [
        ([("c1ccccc1", "c1ccccc1")], "canonicalization budget"),
        (
            [("c1ccccc1", "c1ccccc1"), (clique_smiles(), clique_smiles())],
            "canonicalization and path-enumeration budgets",
        ),
    ],
    ids=["canon", "both"],
)
def test_text2mol_omitted_reason_names_each_budget(monkeypatch, rows, budgets):
    # the clique's atoms are all distinct, so one candidate canonicalizes it
    monkeypatch.setattr(canon, "_MAX_CANDIDATES", 1)
    pairs = pairs_for(TaskKind.TEXT2MOL, rows)
    report = eval_text2mol(pairs)
    assert report.value("validity") == 1.0
    reason = f"no pair with both sides valid within the {budgets}"
    assert report.omitted_metrics == dict.fromkeys(("maccs_fts", "rdk_fts", "morgan_fts"), reason)
    assert report == text2mol_both_sides_oracle(pairs)


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
    kernels = {"keys": "key_fingerprints", "path": "path_fingerprints", "morgan": "morgan_fingerprints"}
    for scheme, name in kernels.items():
        def counted(mols, *args, scheme=scheme, kernel=getattr(molecule_tasks, name)):
            counts[scheme] += len(mols)
            return kernel(mols, *args)

        monkeypatch.setattr(molecule_tasks, name, counted)
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


def test_text2mol_compiles_a_plain_tuple_key_table_once(monkeypatch):
    built = []

    class CountedTable(fingerprints.keys._CompiledTable):
        def __init__(self, table):
            built.append(len(table))
            super().__init__(table)

    monkeypatch.setattr(fingerprints.keys, "_CompiledTable", CountedTable)
    table = tuple(fingerprints.default_key_table())
    config = FingerprintConfig(key_table=table)
    assert config == FingerprintConfig(key_table=fingerprints.KeyTable(table))
    pairs = _text2mol_corpus(7, 30, 60)  # four chunks of pairs
    report = eval_text2mol(pairs, config)
    assert built == [len(table)]
    assert report == eval_text2mol(pairs)


# -- forward ------------------------------------------------------------------


def test_each_parsed_molecule_records_its_validity_when_built(monkeypatch):
    from chemtext.smiles import valence

    parsed = []
    parse = molecule_tasks.parse_smiles

    def counting_parse(smiles):
        mol = parse(smiles)
        # recorded by the constructor, not worked out on a later read
        assert {"validity", "atom_texts"} <= vars(mol).keys()
        parsed.append(mol)
        return mol

    def uncalled_validate(mol):
        raise AssertionError("the harness reads mol.validity")

    monkeypatch.setattr(molecule_tasks, "parse_smiles", counting_parse)
    monkeypatch.setattr(valence, "validate", uncalled_validate)
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
    assert [mol.validity.valid for mol in parsed].count(False) == 3


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


def test_lookup_oracle_checks_repeats_of_over_budget_precursors(monkeypatch):
    # kept under its exact string, which no lookup reaches; a repeat of that
    # string with another product conflicts, another spelling is another key
    monkeypatch.setattr(canon, "_MAX_CANDIDATES", 1)
    entries = [("oracle:1", "C1CCCCC1.O", "CCO"), ("oracle:2", "C1CCCCC1.O", "CN")]
    with pytest.raises(ChemtextError, match=r"^oracle:2: .*\(the first at oracle:1\)$"):
        LookupOracle(entries)
    LookupOracle([entries[0], ("oracle:2", "O.C1CCCCC1", "CN")])


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
    message = r"^entry 2: .*'CC\.O' and 'O\.CC'.*'CCO' and 'CN' \(the first at entry 1\)$"
    with pytest.raises(ChemtextError, match=message):
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
    # equal formulas, so only canonicalization could tell them apart
    assert not LookupOracle.same_product("c1ccccc1", "c1cc[cH]cc1")
    monkeypatch.undo()
    assert LookupOracle.same_product("c1ccccc1", "c1cc[cH]cc1")


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
        def counted(arg, name=name, fn=getattr(molecule_tasks, name)):
            counts[name] += 1
            return fn(arg)

        monkeypatch.setattr(molecule_tasks, name, counted)
    return counts


@pytest.mark.parametrize(
    "row, budget, parses, canons",
    [
        # hit: the prediction, the entry it reaches, the product and the
        # reference, each once (the entry's key is written on first lookup)
        (("O.CC", "OCC"), None, 3, 4),
        (("O.CC", "CCN"), None, 3, 2),                # wrong product: formulas differ
        (("CI.O", "CO"), None, 1, 1),                 # miss
        (("C(", "CCO"), None, 1, 0),                  # does not parse: a miss
        (("C(C)(C)(C)(C)C.O", "CCO"), None, 3, 2),    # fails validation: hit by its string
        (("C1CCCCC1.O", "CCO"), 1, 1, 1),             # over the canonicalization budget
    ],
    ids=["hit", "wrong_product", "miss", "unparseable", "invalid", "canon_budget"],
)
def test_retro_lookup_calls_per_pair(monkeypatch, row, budget, parses, canons):
    oracle = LookupOracle({"CC.O": "CCO", "C(C)(C)(C)(C)C.O": "CCO"})
    counts = _counted_smiles_calls(monkeypatch)
    if budget is not None:
        monkeypatch.setattr(canon, "_MAX_CANDIDATES", budget)
    eval_retro(pairs_for(TaskKind.RETRO, [row]), oracle)
    assert (counts["parse_smiles"], counts["canonicalize"]) == (parses, canons)


@pytest.mark.parametrize("evaluate", [eval_forward, eval_text2mol], ids=["forward", "text2mol"])
@pytest.mark.parametrize(
    "row, canons",
    [
        (("OCC", "CCO"), 2),    # equal formulas, one molecule
        (("CC=O", "CCO"), 2),   # equal formulas, two molecules
        (("CCN", "CCO"), 0),    # atom texts differ
        (("C1CC1", "CCC"), 0),  # bond counts differ
        (("C(", "CCO"), 0),     # does not parse
    ],
    ids=["exact", "same_formula", "other_atoms", "other_bonds", "unparseable"],
)
def test_canonicalize_calls_per_pair(monkeypatch, evaluate, row, canons):
    counts = _counted_smiles_calls(monkeypatch)
    task = TaskKind.FORWARD if evaluate is eval_forward else TaskKind.TEXT2MOL
    evaluate(pairs_for(task, [row]))
    assert counts["canonicalize"] == canons


# -- the formula rule: canonical inequality decided before canonicalizing ----


def _atom_tokens(smiles):
    return sorted(t for t in tokenize(smiles) if t[0] == "[" or t[0].isalpha())


@pytest.mark.parametrize("max_atoms", [10, 30])
@pytest.mark.parametrize("seed", [0, 1])
def test_formula_is_read_back_from_the_canonical_string(max_atoms, seed):
    rng = random.Random(seed)
    formulas: dict[str, tuple] = {}
    for _ in range(40):
        mol = random_molecule(rng, max_atoms)
        for smiles in [random_smiles(mol, rng) for _ in range(3)]:
            side = _Side.of(smiles)
            canonical = canonicalize(side.mol)
            written = (len(parse_smiles(canonical).bonds), tuple(_atom_tokens(canonical)))
            assert side.formula == written, smiles
            # equal canonical strings have equal formulas
            assert formulas.setdefault(canonical, side.formula) == side.formula, smiles
    assert len(formulas) > 20


_BENZENE, _BENZENE_RESPELT = "c1ccccc1", "c1cc[cH]cc1"


@pytest.mark.parametrize("evaluate", [eval_forward, eval_text2mol], ids=["forward", "text2mol"])
def test_over_budget_pair_of_differing_formulas_is_plainly_incorrect(monkeypatch, evaluate):
    monkeypatch.setattr(canon, "_MAX_CANDIDATES", 1)
    task = TaskKind.FORWARD if evaluate is eval_forward else TaskKind.TEXT2MOL
    differ = evaluate(pairs_for(task, [(_BENZENE, "CCO"), ("CCO", _BENZENE)]))
    assert differ.skip_reasons == {}
    assert differ.value("accuracy") == 0.0
    same = evaluate(pairs_for(task, [(_BENZENE, _BENZENE_RESPELT)]))
    assert same.skip_reasons == {"canon_budget": 1}
    assert same.value("accuracy") == 0.0
    if evaluate is eval_text2mol:
        # the differing pairs are fingerprinted, the equal-formula one is not
        assert differ.n_skipped == 0 and differ.metrics["morgan_fts"].support == 2
        assert same.n_skipped == 1 and "morgan_fts" in same.omitted_metrics


@pytest.mark.parametrize("lookup", [True, False], ids=["lookup", "string"])
def test_over_budget_product_of_differing_formula_is_plainly_incorrect(monkeypatch, lookup):
    monkeypatch.setattr(canon, "_MAX_CANDIDATES", 1)
    oracle = LookupOracle({"CCN.O": _BENZENE})
    if not lookup:
        oracle = _StringOracle(oracle)
    rows = [("O.NCC", "CCO"), ("CCN.O", _BENZENE_RESPELT)]
    report = eval_retro(pairs_for(TaskKind.RETRO, rows), oracle)
    assert report.skip_reasons == {"canon_budget": 1}
    assert report.value("roundtrip_accuracy") == 0.0


# -- forward and retro against the loops that parsed each field on its own ---

_INVALID = ["C(", "a molecule", "c1cc", "C(C)(C)(C)(C)C", "O(C)(C)C", "C1CC", "[Xx]", ""]


def _invalid(rng):
    """A string that does not parse, or parses and fails validation."""
    return rng.choice(_INVALID)


# a uranium 10-clique as spelled and as rewritten (every rewrite is one
# string): canonicalizing it writes 46 candidate strings, so it is the
# corpora's molecule over a budget of 40
_U_CLIQUE = clique_smiles(("U",) * 10)
_U_CLIQUE_TEXTS = (_U_CLIQUE, random_smiles(parse_smiles(_U_CLIQUE), random.Random(0)))


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
    rows.append(_U_CLIQUE_TEXTS[::-1])
    return pairs_for(TaskKind.FORWARD, rows)


def _retro_corpus(seed, max_atoms, n):
    """Retro pairs and the oracle table they are scored with: hits in the
    written and in a rewritten atom order, wrong products, misses, keys and
    products that do not parse or fail validation."""
    rng = random.Random(seed)
    table = {"C(C)(C)(C)(C)C.O": "CCO", "O.C(": "c1ccccc1", _U_CLIQUE: "CCO"}
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
    rows = [("C(C)(C)(C)(C)C.O", "OCC"), ("O.C(C)(C)(C)(C)C", "CCO"), ("O.C(", "c1ccccc1"),
            (_U_CLIQUE_TEXTS[1], "OCC")]
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
@example(seed=0, max_atoms=10, budget=40)
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
@example(seed=0, max_atoms=10, budget=40)
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
    pairs, table = _retro_corpus(0, 10, 12)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(canon, "_MAX_CANDIDATES", 1)
        assert retro_oracle(pairs, LookupOracle(table)).skip_reasons.get("canon_budget")
        # only a pair of two valid sides with equal formulas counts
        forward = [forward_oracle(_forward_corpus(seed, 10, 12)) for seed in range(4)]
        assert any(r.skip_reasons.get("canon_budget") for r in forward)


def test_budget_40_examples_trip_the_canon_budget():
    # the uranium clique is over a budget of 40 as a forward pair side, a
    # retro precursor set and a lookup query, so the budget-40 examples of
    # the differential tests score a skip, not the unbounded case again
    forward, (pairs, table) = _forward_corpus(0, 10, 12), _retro_corpus(0, 10, 12)
    lookups = [_lookup_corpora(0, 10, corpus) for corpus in ("retro", "molgen")]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(canon, "_MAX_CANDIDATES", 40)
        assert eval_forward(forward).skip_reasons == {"canon_budget": 1}
        assert eval_retro(pairs, LookupOracle(table)).skip_reasons.get("canon_budget")
        for entries, _, queries in lookups:
            oracle = LookupOracle(entries)
            for text in _U_CLIQUE_TEXTS:
                assert text in queries
                with pytest.raises(CanonError):
                    oracle.predict_product(text)


# -- the lookup oracle against the eager table ---------------------------------

# precursor sets, by the spellings of each; sets of one formula (bond count
# and sorted atom texts) follow one another
_ISOMERS = [
    ("CCO", "OCC"), ("COC",),
    ("CC.O", "O.CC"), ("C.CO", "OC.C"),
    ("C1CC1.O", "O.C1CC1"), ("C1CO1.C",),
    ("c1ccccc1C.O",), ("c1ccccc1O.C", "C.Oc1ccccc1"),
]


def _formula(mol):
    return len(mol.bonds), tuple(sorted(mol.atom_texts))


def _isomer(rng, mol):
    """Another molecule of ``mol``'s formula, its atoms shuffled over its
    bonds, or ``None`` when a few shuffles give none."""
    atoms = [dataclasses.replace(atom, hydrogens=None) for atom in mol.atoms]
    for _ in range(20):
        try:
            other = Molecule(rng.sample(atoms, len(atoms)), mol.bonds)
        except ParseError:  # an aromatic bond moved onto a plain atom
            continue
        if (other.validity.valid and _formula(other) == _formula(mol)
                and canonicalize(other) != canonicalize(mol)):
            return other
    return None


def _product(rng, max_atoms):
    return random_smiles(random_molecule(rng, max_atoms), rng) if rng.random() < 0.9 else _invalid(rng)


def _respelt(rng, text):
    """The string, or at times a random rewrite of it if it is valid."""
    mol = _Side.of(text).mol
    return random_smiles(mol, rng) if mol is not None and rng.random() < 0.7 else text


def _lookup_corpus(rng, table, queries, max_atoms):
    """Oracle entries and lookups around a precursors -> product table. The
    entries add isomers of its precursors, ``_ISOMERS`` and two invalid
    strings, each with a random product, and repeats spelled as written or
    rewritten, with the same product string. A second entry list also
    repeats three entries with a rewritten product or another one, which
    may conflict. The lookups are ``queries``, every precursors string and
    a rewrite of each, isomers not in the table, every spelling in
    ``_ISOMERS``, invalid strings and other molecules."""
    entries = [(f"t{k}", *item) for k, item in enumerate(table.items())]
    entries += [(f"s{k}", spellings[0], _product(rng, max_atoms))
                for k, spellings in enumerate(_ISOMERS) if rng.random() < 0.5]
    entries += [(f"x{k}", text, _product(rng, max_atoms)) for k, text in enumerate(rng.sample(_INVALID, 2))]
    mols = [mol for mol in (_Side.of(precursors).mol for _, precursors, _ in entries) if mol]
    known = {canonicalize(mol) for mol in mols}
    isomers = []
    for mol in mols:
        other = _isomer(rng, mol)
        if other is not None and canonicalize(other) not in known:
            known.add(canonicalize(other))
            isomers.append(random_smiles(other, rng))
    half = len(isomers) // 2
    entries += [(f"i{k}", text, _product(rng, max_atoms)) for k, text in enumerate(isomers[:half])]
    rng.shuffle(entries)
    for k in range(len(entries) // 3):
        at = rng.randrange(len(entries))
        _, precursors, product = entries[at]
        entries.insert(rng.randint(at + 1, len(entries)), (f"r{k}", _respelt(rng, precursors), product))
    repeated = list(entries)
    for k in range(3):
        at = rng.randrange(len(repeated))
        _, precursors, product = repeated[at]
        other = _respelt(rng, product) if rng.random() < 0.7 else _product(rng, max_atoms)
        repeated.insert(rng.randint(at + 1, len(repeated)), (f"c{k}", _respelt(rng, precursors), other))
    spelt = [precursors for _, precursors, _ in repeated]
    queries = [*queries, *spelt, *(_respelt(rng, text) for text in spelt), *isomers[half:],
               *(text for spellings in _ISOMERS for text in spellings), *_INVALID,
               *(random_smiles(random_molecule(rng, max_atoms), rng) for _ in range(3))]
    return entries, repeated, queries


def _molgen_table(rng, max_atoms, n):
    """Precursor sets of one or two random molecules, each with a product."""
    table = {}
    for _ in range(n):
        text = random_smiles(random_molecule(rng, max_atoms), rng)
        if rng.random() < 0.7:
            text += "." + random_smiles(random_molecule(rng, max(3, max_atoms // 2)), rng)
        table[text] = _product(rng, max_atoms)
    return table


def _lookup_corpora(seed, max_atoms, corpus):
    rng = random.Random(seed)
    if corpus == "retro":
        pairs, table = _retro_corpus(seed, max_atoms, 12)
        # the retro corpus already holds the uranium clique in both spellings
        return _lookup_corpus(rng, table, [pair.prediction for pair in pairs], max_atoms)
    return _lookup_corpus(rng, _molgen_table(rng, max_atoms, 6), _U_CLIQUE_TEXTS, max_atoms)


def _outcome(call, arg):
    """What ``call(arg)`` returns, or the type and message of the error."""
    try:
        return call(arg)
    except ChemtextError as exc:
        return type(exc), str(exc)


@given(
    seed=st.integers(0, 2**32 - 1),
    max_atoms=st.sampled_from([10, 30]),
    budget=_BUDGETS,
    corpus=st.sampled_from(["retro", "molgen"]),
)
@example(seed=0, max_atoms=10, budget=40, corpus="retro")
@example(seed=0, max_atoms=10, budget=40, corpus="molgen")
@settings(max_examples=60, deadline=None)
def test_lookup_oracle_equals_the_eager_table(seed, max_atoms, budget, corpus):
    # every build gives the eager table's error or none, and every lookup,
    # by string or by record, in the first or a later round, its product or
    # error; each table is built once more as a mapping
    entries, repeated, queries = _lookup_corpora(seed, max_atoms, corpus)
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(canon, "_MAX_CANDIDATES", budget)
        for table in (entries, repeated, {p: q for _, p, q in entries}):
            oracle, eager = _outcome(LookupOracle, table), _outcome(EagerLookupOracle, table)
            if isinstance(eager, tuple):
                assert oracle == eager
                continue
            for _ in range(2):
                for query in queries:
                    expected = _outcome(eager.predict_product, query)
                    assert _outcome(oracle.predict_product, query) == expected, query
                    assert _outcome(oracle.predict_product, _Side.of(query)) == expected, query


def test_lookup_corpora_reach_every_outcome():
    # the corpora above hold equal-formula isomers and rewrites, and reach
    # hits, misses within a bucket, conflicting and accepted repeats, and
    # lookups over a budget of 1 (and of 40: the uranium clique)
    seen = Counter()
    for corpus in ("retro", "molgen"):
        for seed, max_atoms in zip(range(4), [10, 10, 30, 30]):
            entries, repeated, queries = _lookup_corpora(seed, max_atoms, corpus)
            formulas = Counter(_formula(side.mol) for side in map(_Side.of, {p for _, p, _ in entries})
                               if side.mol is not None)
            seen[corpus, "isomers"] += any(count > 1 for count in formulas.values())
            eager = EagerLookupOracle(entries)  # the first list has no conflict
            for query in queries:
                mol = _Side.of(query).mol
                outcome = _outcome(eager.predict_product, query)
                if isinstance(outcome, str):
                    seen[corpus, "hit" if mol is not None else "invalid_hit"] += 1
                elif mol is not None and formulas[_formula(mol)]:
                    seen[corpus, "bucket_miss"] += 1
            seen[corpus, "conflict"] += isinstance(_outcome(EagerLookupOracle, repeated), tuple)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(canon, "_MAX_CANDIDATES", 1)
                outcomes = [_outcome(eager.predict_product, query) for query in queries]
            seen[corpus, "canon_budget"] += sum(o[0] is CanonError for o in outcomes
                                                if isinstance(o, tuple))
    for corpus in ("retro", "molgen"):
        for outcome in ("isomers", "hit", "invalid_hit", "bucket_miss", "conflict", "canon_budget"):
            assert seen[corpus, outcome], (corpus, outcome)
    assert seen["retro", "conflict"] < 4 or seen["molgen", "conflict"] < 4  # some repeats build


def test_lookup_oracle_writes_keys_only_where_compared(monkeypatch):
    counts = _counted_smiles_calls(monkeypatch)
    # four formulas, one entry each (and an invalid one): nothing is written
    oracle = LookupOracle({"CC.O": "CCO", "CN.O": "CO", "c1ccccc1": "C", "C(": "C", "CC": "C"})
    assert counts["canonicalize"] == 0
    # a second entry of a formula writes both keys for the repeat check
    LookupOracle({"CC.O": "CCO", "CN.O": "CO", "C.CO": "CCO"})
    assert counts["canonicalize"] == 2
    # a lookup writes the query, then the entry its formula reaches, once
    assert oracle.predict_product("O.CC") == "CCO"
    assert counts["canonicalize"] == 4
    assert oracle.predict_product("CC.O") == "CCO"
    assert counts["canonicalize"] == 5
    with pytest.raises(OracleError):
        oracle.predict_product("C.CO")  # its formula's entry is written already
    assert counts["canonicalize"] == 6
    with pytest.raises(OracleError):
        oracle.predict_product("CCC")  # no entry has its formula
    assert counts["canonicalize"] == 7
    assert oracle.predict_product("C(") == "C"  # invalid: its string is its key
    assert counts["canonicalize"] == 7


# -- rows ---------------------------------------------------------------------


_ROW_WORDS = ["the", "a", "acid", "acids", "react", "reacts", "reacted", "Blue", ",", ".", "STIR."]


def _word_corpus(task, seed, n):
    """Word pairs: equal, equal up to whitespace, and unrelated; some empty."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        ref = " ".join(rng.choices(_ROW_WORDS, k=rng.randint(0, 9)))
        other = " ".join(rng.choices(_ROW_WORDS, k=rng.randint(0, 9)))
        rows.append((rng.choice([ref, "  ".join(ref.split()) + "\t", other]), ref))
    return pairs_for(task, rows)


def _row_corpus(task, seed):
    """At least 27 pairs of ``task``, and the evaluator that scores them."""
    if task is TaskKind.TEXT2MOL:
        return _text2mol_corpus(seed, 10, 24), eval_text2mol
    if task is TaskKind.FORWARD:
        return _forward_corpus(seed, 10, 27), eval_forward
    if task is TaskKind.RETRO:
        pairs, table = _retro_corpus(seed, 10, 27)
        oracle = LookupOracle(table)
        return pairs, lambda batch: eval_retro(batch, oracle)
    evaluate = eval_mol2text if task is TaskKind.MOL2TEXT else eval_para2actions
    return _word_corpus(task, seed, 27), evaluate


def _rows_of(evaluate, pairs):
    """The rows ``evaluate`` hands its fold for ``pairs``, and its report."""
    seen = []
    fold = harness._report

    def capture(task, rows):
        seen.append(list(rows))
        return fold(task, rows)

    with pytest.MonkeyPatch.context() as mp:
        for module in (harness, molecule_tasks):  # the text and the molecule tasks
            mp.setattr(module, "_report", capture)
        report = evaluate(pairs)
    (rows,) = seen
    return rows, report


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("task", list(TaskKind), ids=lambda task: task.value)
def test_rows_are_per_pair_and_each_report_is_their_fold(task, seed):
    pairs, evaluate = _row_corpus(task, seed)
    rows, report = _rows_of(evaluate, pairs)
    # text2mol: A+B's second chunk of 16 starts inside B
    a, b = pairs[:10], pairs[10:]
    assert rows == _rows_of(evaluate, a)[0] + _rows_of(evaluate, b)[0]
    assert harness._report(task, rows) == report
    picks = random.Random(seed).choices(range(len(pairs)), k=len(pairs))
    assert harness._report(task, [rows[i] for i in picks]) == evaluate([pairs[i] for i in picks])


def test_row_corpora_reach_every_row_field():
    # hits and misses, and for text2mol each of its skip reasons but canon_budget
    for task in set(TaskKind) - {TaskKind.MOL2TEXT}:
        pairs, evaluate = _row_corpus(task, 0)
        rows, _ = _rows_of(evaluate, pairs)
        assert 0 < sum(row.exact for row in rows) < len(rows), task
    rows, _ = _rows_of(eval_mol2text, _row_corpus(TaskKind.MOL2TEXT, 0)[0])
    assert {0.0, 1.0} < {row.rouge_l for row in rows}
    assert 0.0 in {row.meteor for row in rows} and max(row.meteor for row in rows) > 0.0
    rows, report = _rows_of(eval_text2mol, _text2mol_corpus(0, 10, 24))
    assert {"fingerprint_budget", "invalid_smiles_side"} <= report.skip_reasons.keys()
    assert any(row.fts for row in rows) and any(row.edits for row in rows)


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
    with pytest.raises(DimensionMismatchError, match="must be 2-D"):
        frechet_distance(rng.normal(size=10), rng.normal(size=(10, 1)))
    with pytest.raises(IllConditionedError):
        frechet_distance(rng.normal(size=(3, 5)), rng.normal(size=(10, 5)))
    # ridge rescues the under-determined case
    value = frechet_distance(
        rng.normal(size=(3, 5)), rng.normal(size=(10, 5)), ridge=1e-6
    )
    assert value >= 0.0


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("side", [0, 1])
def test_frechet_rejects_non_finite_features(value, side):
    # numpy's eigensolver once failed on them with LinAlgError
    rng = np.random.default_rng(4)
    sets = [rng.normal(size=(10, 3)), rng.normal(size=(10, 3))]
    sets[side][2, 1] = value
    with pytest.raises(IllConditionedError, match="features must be finite"):
        frechet_distance(*sets)


def test_report_validation():
    with pytest.raises(ValueError, match="n_valid_pred cannot exceed n_total"):
        MetricReport(TaskKind.FORWARD, {}, n_total=2, n_valid_pred=3)
    report = MetricReport(TaskKind.FORWARD, {}, 1, omitted_metrics={"accuracy": None})
    with pytest.raises(TypeError, match="unsupported report value None"):
        report_to_json(report)


@pytest.mark.parametrize("ridge", [float("nan"), float("inf"), -1.0])
def test_frechet_rejects_a_non_finite_or_negative_ridge(ridge):
    # numpy's eigensolver once failed on the first two with LinAlgError
    rng = np.random.default_rng(3)
    message = "ridge must be non-negative" if ridge < 0 else "ridge must be finite"
    with pytest.raises(ValueError, match=message):
        frechet_distance(rng.normal(size=(10, 3)), rng.normal(size=(10, 3)), ridge=ridge)


def test_report_strings_escape_quotes_backslashes_and_control_characters():
    report = MetricReport(
        TaskKind.FORWARD, {}, 1, skip_reasons={'say "hi"\\\n': 1},
        omitted_metrics={"accuracy": 'a "b" \\ c\nd'},
    )
    text = report_to_json(report)
    assert r'"omitted": {"accuracy": "a \"b\" \\ c\u000ad"}' in text
    assert r'"skip_reasons": {"say \"hi\"\\\u000a": 1}' in text
    decoded = json.loads(text)
    assert decoded["omitted"] == report.omitted_metrics
    assert decoded["skip_reasons"] == report.skip_reasons
