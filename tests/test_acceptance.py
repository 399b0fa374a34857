"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figure (visible under ``pytest -s`` or on failure).

Run with ``pytest tests/test_acceptance.py -v``.
"""

import json
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import scipy.linalg

from attention_oracle import cross_attend_loops, random_instance
import chemtext
from chemtext.dataset import (
    PROMPT_TEMPLATES,
    TaskKind,
    equal_mix,
    make_record,
    render_prompt,
    write_records,
)
from chemtext.fingerprints import BitFingerprint, tanimoto
from chemtext.harness import (
    LookupOracle,
    PredictionPair,
    eval_retro,
    frechet_distance,
)
from chemtext.merge import attention_weights, cross_attend, grad_check
from chemtext.smiles import (
    canonical_smiles,
    canonicalize,
    parse_smiles,
    random_smiles,
    tokenize,
    validate_smiles,
)
from chemtext.textmetrics import (
    bleu,
    levenshtein,
    meteor_lite,
    rouge_l,
    rouge_n,
    word_tokenize,
)
from metric_oracles import (
    bleu_oracle,
    levenshtein_oracle,
    meteor_oracle,
    rouge_l_oracle,
    rouge_n_oracle,
)
from molgen import random_molecule


def test_criterion_1_canonicalization_invariance():
    """500 random valid molecules (<= 20 atoms) x 20 random rewrites each:
    100% identical canonical strings in under 10 seconds."""
    rng = random.Random(0xC0FFEE)
    start = time.perf_counter()
    molecules = 0
    for _ in range(500):
        mol = random_molecule(rng, max_atoms=20)
        assert len(mol.atoms) <= 20
        reference = canonicalize(mol)
        for _ in range(20):
            rewritten = random_smiles(mol, rng)
            assert canonical_smiles(rewritten) == reference, (rewritten, reference)
        molecules += 1
    elapsed = time.perf_counter() - start
    assert molecules == 500
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"PASS criterion 1: 500 molecules x 20 rewrites invariant in {elapsed:.2f}s")


# -- criterion 2 ----------------------------------------------------------------

_ORACLE_VALENCES = {
    "H": (1,), "B": (3,), "C": (4,), "N": (3,), "O": (2,), "F": (1,),
    "Si": (4,), "P": (3, 5), "S": (2, 4, 6), "Cl": (1,), "Se": (2, 4, 6),
    "Br": (1,), "As": (3, 5), "I": (1,),
}


def _oracle_valid(smiles: str) -> bool:
    """Brute-force validity oracle: independently recomputes implicit
    hydrogens and per-atom valence sums from the parsed graph plus the raw
    token stream (to know which atoms were written in brackets)."""
    try:
        tokens = tokenize(smiles)
        mol = parse_smiles(smiles)
    except Exception:
        return False
    # an atom is a text starting with "[" (a bracket atom) or a letter
    atom_tokens = [t for t in tokens if t[0] == "[" or t[0].isalpha()]
    assert len(atom_tokens) == len(mol.atoms)
    bracket_re = re.compile(
        r"(\d*)(se|as|[A-Z][a-z]?|[bcnops])(@{1,2})?(H(\d*))?([+-]?.*)"
    )
    for i, atom in enumerate(mol.atoms):
        token = atom_tokens[i]
        orders = []
        for j, bi in mol.adjacency[i]:
            bond = mol.bonds[bi]
            orders.append(1 if bond.aromatic else bond.order)
        bond_sum = sum(orders)
        degree = len(orders)
        if token[0] == "[":
            match = bracket_re.fullmatch(token[1:-1])
            hydrogens = 0
            if match and match.group(4):
                hydrogens = int(match.group(5)) if match.group(5) else 1
        else:
            base = _ORACLE_VALENCES[atom.symbol]
            probe = bond_sum
            if atom.aromatic:
                if atom.symbol == "C":
                    probe += 1
                elif atom.symbol in ("N", "P") and degree == 2:
                    probe += 1
            hydrogens = 0
            for v in base:
                if probe <= v:
                    hydrogens = v - probe
                    break
        pi = 0
        if atom.aromatic:
            if atom.symbol == "C":
                pi = 1
            elif atom.symbol in ("N", "P") and degree == 2 and hydrogens == 0:
                pi = 1
        total = bond_sum + hydrogens + pi
        base = _ORACLE_VALENCES.get(atom.symbol)
        if base is None:
            continue
        charge = atom.charge
        if charge:
            if atom.symbol == "B":
                base = tuple(v - charge for v in base)
            elif atom.symbol == "C":
                base = tuple(v - abs(charge) for v in base)
            else:
                base = tuple(v + charge for v in base)
        if total > max(base):
            return False
    return True


def _enumerated_cases() -> list[tuple[str, bool]]:
    cases: list[tuple[str, bool]] = []
    # valid families
    for n in range(1, 11):
        cases.append(("C" * n, True))                      # 10 alkanes
    for n in range(1, 6):
        cases.append(("O" + "C" * n, True))                # 5 alcohols
        cases.append(("N" + "C" * n, True))                # 5 amines
        cases.append(("C" * n + "Cl", True))               # 5 chlorides
        cases.append(("C" * n + "C(=O)O", True))           # 5 acids
        cases.append((f"C{n % 9 + 1}" + "C" * max(2, n) + f"{n % 9 + 1}", True))  # 5 rings
    cases += [
        ("O=C=O", True), ("C#N", True), ("N#N", True), ("CC(=O)OC", True),
        ("c1ccccc1", True), ("c1ccncc1", True), ("c1cc[nH]c1", True),
        ("c1ccoc1", True), ("c1ccsc1", True), ("c1ccc2ccccc2c1", True),
        ("Cc1ccccc1", True), ("Oc1ccccc1", True), ("Nc1ccccc1", True),
        ("c1ccc2[nH]ccc2c1", True), ("c1cnc2ccccc2c1", True),
        ("[NH4+]", True), ("[OH-]", True), ("[CH3+]", True), ("[CH3-]", True),
        ("[BH4-]", True), ("[O-]C(=O)C", True), ("O=[N+]([O-])C", True),
        ("[Na+].[Cl-]", True), ("[Fe+2].[O-]C(=O)C.[O-]C(=O)C", True),
        ("S(=O)(=O)(O)O", True), ("P(=O)(O)(O)O", True), ("FC(F)(F)F", True),
        ("ClC(Cl)(Cl)Cl", True), ("BrCCBr", True), ("ICI", True),
        ("CS(=O)C", True), ("CS(=O)(=O)C", True), ("CSSC", True),
        ("C/C=C/C", True), ("F/C=C\\F", True), ("C[C@H](N)C(=O)O", True),
        ("C[C@@H](N)C(=O)O", True), ("[13CH4]", True), ("[2H]O[2H]", True),
        ("[Au]", True), ("[Au](C)(C)(C)(C)(C)C", True), ("[Si](C)(C)(C)C", True),
        ("C1CC2CCC1CC2", True), ("C1CC2(CC1)CCCC2", True), ("C%10CCCC%10", True),
        ("C1.C1", True), ("OCC(O)CO", True), ("N[C@@H](CC1=CC=CC=C1)C(O)=O", True),
        ("CC(C)(C)C", True), ("CCOC(=O)C", True), ("O1CCOCC1", True),
        ("[nH]1cccc1", True), ("B(O)(O)O", True), ("[Se](C)C", True),
        ("[As](C)(C)C", True), ("[te]", False),  # unsupported aromatic symbol
    ]
    # invalid: over-valence families
    cases += [
        ("C(C)(C)(C)(C)C", False), ("C(C)(C)(C)(C)(C)C", False),
        ("N(C)(C)(C)C", False), ("O(C)(C)C", False), ("F(C)C", False),
        ("FF(F)F", False), ("Cl(C)C", False), ("Br(C)C", False), ("I(C)C", False),
        ("O=C(=O)=O", False), ("C=C(=C)(=C)C", False), ("N(=O)=O", False),
        ("[NH5+]", False), ("[NH4]", False), ("[CH5]", False), ("[OH3]", False),
        ("[ClH2]", False), ("[SH7]", False), ("[BH4]", False), ("[OH3+](C)C", False),
        ("[O-](C)C", False), ("B(F)(F)(F)F", False), ("N#C=O", False),
        ("C#C#C", False), ("O=S(=O)(=O)(=O)O", False), ("[PH6]", False),
        ("N(C)(C)(C)(C)C", False), ("O(C)(C)(C)C", False),
        ("[SeH7]", False), ("[AsH6]", False),
    ]
    # invalid: structural parse errors
    cases += [
        ("C1CC", False), ("C1CC2", False), ("CC1", False), ("1CC", False),
        ("C(C", False), ("CC)", False), ("C()C", False), ("C((C))C", False),
        ("CC=", False), ("=CC", False), ("C=(C)", False), ("C==C", False),
        ("C#=C", False), ("C11", False), ("C1C1", False), ("C=1CC-1", False),
        (".CC", False), ("CC.", False), ("C..C", False), ("C(.C)", False),
        ("C%1CC", False), ("C%CC", False), ("[C", False), ("C]", False),
        ("[]", False), ("[13]", False), ("[C@@@H]", False), ("[C$]", False),
        ("", False), (" ", False), ("C C", False), ("Cx", False),
        ("c1ccccc2", False), ("C:C", False), ("FC=C(F)(F)F", False), ("%12CC", False),
    ]
    # valid/invalid aromatic valence contrasts
    cases += [
        ("c1ccncc1C", True), ("[F-]C", False),
        ("c1cc[nH]c1C", True), ("Cn1cccc1", True),
        ("c1ccc(cc1)c1ccccc1", True), ("c1ccccc1-c1ccccc1", True),
    ]
    # more homologous families, valid and invalid
    for n in range(1, 6):
        cases.append(("C" * n + "OC", True))                 # ethers
        cases.append(("C" * n + "C(=O)N", True))             # amides
        cases.append(("C" * n + "S", True))                  # thiols
        cases.append(("C" * n + "C#N", True))                # nitriles
        cases.append(("C" * n + "C=C", True))                # alkenes
        cases.append(("C" * n + "Br", True))                 # bromides
        cases.append(("OC(=O)" + "C" * n + "C(=O)O", True))  # diacids
        cases.append(("C(=O)(=O)" + "C" * n, False))         # pentavalent C
        cases.append(("C" * n + "N(C)(C)C", False))          # tetravalent neutral N
    return cases


def test_criterion_2_parse_validate_oracle_agreement():
    """200 hand-constructed valid/invalid SMILES: implementation agrees with
    the brute-force valence oracle and the construction labels, 100%."""
    cases = _enumerated_cases()
    assert len(cases) >= 200, f"only {len(cases)} cases"
    cases = cases[:200]
    disagreements = []
    for smiles, expected in cases:
        got = validate_smiles(smiles).valid
        oracle = _oracle_valid(smiles)
        if got != expected or oracle != expected:
            disagreements.append((smiles, expected, got, oracle))
    assert not disagreements, disagreements
    print(f"PASS criterion 2: {len(cases)} labeled SMILES, 100% agreement")


def test_criterion_3_metric_oracle_equivalence():
    """BLEU, ROUGE-1/2/L, METEOR-lite, Levenshtein match their independent
    brute-force implementations on 100 random small pairs."""
    rng = random.Random(31337)
    words = ["the", "cat", "ran", "red", "acid", "ring", "fast", "a", "dog",
             "molecule", "running", "jumps", ",", "."]
    cands, refs = [], []
    for _ in range(100):
        cands.append(" ".join(rng.choices(words, k=rng.randint(1, 9))))
        refs.append(" ".join(rng.choices(words, k=rng.randint(1, 9))))
    tc = [word_tokenize(c) for c in cands]
    tr = [word_tokenize(r) for r in refs]
    raw_c = [t.tokens for t in tc]
    raw_r = [t.tokens for t in tr]
    checks = {
        "bleu2": (bleu(tc, tr, 2).value, bleu_oracle(raw_c, raw_r, 2)),
        "bleu4": (bleu(tc, tr, 4).value, bleu_oracle(raw_c, raw_r, 4)),
        "rouge1": (rouge_n(tc, tr, 1).value, rouge_n_oracle(raw_c, raw_r, 1)),
        "rouge2": (rouge_n(tc, tr, 2).value, rouge_n_oracle(raw_c, raw_r, 2)),
        "rougeL": (rouge_l(tc, tr).value, rouge_l_oracle(raw_c, raw_r)),
        "meteor_lite": (meteor_lite(tc, tr).value, meteor_oracle(raw_c, raw_r)),
    }
    for name, (got, want) in checks.items():
        assert abs(got - want) <= 1e-9, (name, got, want)
    for cand, ref in zip(cands, refs):
        assert levenshtein(cand, ref) == levenshtein_oracle(cand, ref)
    print("PASS criterion 3: all metrics within 1e-9 of oracles (levenshtein exact)")


def test_criterion_4_tanimoto_metric_property():
    """1000 random bit-vector triples: exact symmetry and the 1-T triangle
    inequality within 1e-12."""
    rng = random.Random(44)
    for _ in range(1000):
        a, b, c = (
            BitFingerprint(
                "morgan", 96, frozenset(i for i in range(96) if rng.random() < rng.random())
            )
            for _ in range(3)
        )
        assert tanimoto(a, b) == tanimoto(b, a)
        dab = 1.0 - tanimoto(a, b)
        dbc = 1.0 - tanimoto(b, c)
        dac = 1.0 - tanimoto(a, c)
        assert dac <= dab + dbc + 1e-12
    print("PASS criterion 4: 1000 triples, symmetry exact, triangle within 1e-12")


def test_criterion_5_cross_attention():
    """20 random instances match the scalar triple-loop oracle within 1e-10;
    grad_check max relative error < 1e-4 at eps 1e-5; attention rows sum to 1
    within 1e-12; adaptation-token permutation invariance within 1e-12."""
    rng = np.random.default_rng(555)
    worst_grad = 0.0
    for _ in range(20):
        n_t, n_m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        h_t, h_m, params = random_instance(rng, n_t=n_t, n_m=n_m)
        got = cross_attend(h_t, h_m, params)
        want = np.array(
            cross_attend_loops(
                h_t.tolist(), h_m.tolist(),
                params.w_q.tolist(), params.w_k.tolist(), params.w_v.tolist(),
            )
        )
        assert np.max(np.abs(got - want)) <= 1e-10
        weights = attention_weights(h_t, h_m, params)
        assert np.max(np.abs(weights.sum(axis=1) - 1.0)) <= 1e-12
        perm = rng.permutation(n_m)
        assert np.max(np.abs(cross_attend(h_t, h_m[perm], params) - got)) <= 1e-12
        report = grad_check("cross_attend", h_t, h_m, params, epsilon=1e-5)
        worst_grad = max(worst_grad, report.max_rel_error)
    assert worst_grad < 1e-4
    print(f"PASS criterion 5: 20 instances, worst grad rel error {worst_grad:.2e}")


def test_criterion_6_frechet_distance():
    """Identical sets -> <= 1e-8; the 1-D two-point analytic case -> 1.0
    within 1e-9; 3-D random sets match the independent eigen-solver oracle
    within 1e-6."""
    rng = np.random.default_rng(66)
    feats = rng.normal(size=(25, 4))
    assert frechet_distance(feats, feats) <= 1e-8
    a = np.array([[-1.0], [1.0]])
    b = np.array([[0.0], [2.0]])
    assert abs(frechet_distance(a, b) - 1.0) <= 1e-9
    for _ in range(5):
        x = rng.normal(size=(50, 3))
        y = rng.normal(loc=rng.normal(size=3), scale=1.3, size=(40, 3))
        got = frechet_distance(x, y)
        sx = np.cov(x, rowvar=False)
        sy = np.cov(y, rowvar=False)
        want = float(
            np.sum((x.mean(axis=0) - y.mean(axis=0)) ** 2)
            + np.trace(sx + sy - 2.0 * np.real(scipy.linalg.sqrtm(sx @ sy)))
        )
        assert abs(got - want) <= 1e-6
    print("PASS criterion 6: frechet identity/analytic/oracle checks hold")


def test_criterion_7_dataset_builder(tmp_path):
    """equal_mix yields exactly per_task records per task; equal seeds give
    byte-identical JSONL; prompts are byte-exact to the template table."""
    streams = {
        TaskKind.FORWARD: [make_record(TaskKind.FORWARD, f"f{i}", "p") for i in range(23)],
        TaskKind.RETRO: [make_record(TaskKind.RETRO, f"r{i}", "p") for i in range(7)],
        TaskKind.MOL2TEXT: [make_record(TaskKind.MOL2TEXT, f"m{i}", "p") for i in range(15)],
    }
    mixed = equal_mix(streams, per_task=15, seed=2024)
    counts = Counter(r.task for r in mixed)
    assert counts == {TaskKind.FORWARD: 15, TaskKind.RETRO: 15, TaskKind.MOL2TEXT: 15}
    paths = []
    for name in ("run1.jsonl", "run2.jsonl"):
        path = tmp_path / name
        with open(path, "w", encoding="utf-8", newline="\n") as fp:
            write_records(fp, equal_mix(streams, per_task=15, seed=2024))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    templates = {
        TaskKind.FORWARD: "Predict the product of the following reaction: <input>",
        TaskKind.RETRO: "Predict the reaction that produces the following product: <input>",
        TaskKind.PARA2ACTIONS: "Which actions are described in the following paragraph: <input>",
        TaskKind.TEXT2MOL: "Write in SMILES the described molecule: <input>",
        TaskKind.MOL2TEXT: "Caption the following SMILES: <input>",
    }
    assert PROMPT_TEMPLATES == templates
    for task, template in templates.items():
        assert render_prompt(task, "XYZ") == template.replace("<input>", "XYZ")
    print("PASS criterion 7: equal mix exact, byte-identical reruns, prompts byte-exact")


def test_criterion_8_end_to_end_cli(tmp_path):
    """cmd_evaluate over a 1000-pair synthetic text2mol JSONL (with invalid
    predictions) in < 5 s, canonical-JSON report, accuracy <= validity."""
    rng = random.Random(88)
    path = tmp_path / "text2mol.jsonl"
    with open(path, "w", encoding="utf-8") as fp:
        for i in range(1000):
            mol = random_molecule(rng, max_atoms=10)
            reference = canonicalize(mol)
            roll = rng.random()
            if roll < 0.4:
                prediction = random_smiles(mol, rng)        # correct, rewritten
            elif roll < 0.7:
                prediction = canonicalize(random_molecule(rng, max_atoms=8))
            elif roll < 0.85:
                prediction = "C(" + reference               # invalid
            else:
                prediction = "not a molecule"
            fp.write(
                json.dumps(
                    {"id": str(i), "task": "text2mol",
                     "prediction": prediction, "reference": reference}
                )
                + "\n"
            )
    # the child imports the package this process imported
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(chemtext.__file__)))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "chemtext", "evaluate", "--task", "text2mol",
         "--predictions", str(path), "--quiet"],
        capture_output=True,
        text=True,
        env=env,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report = json.loads(proc.stdout)
    assert report["counts"]["n_total"] == 1000
    assert report["metrics"]["accuracy"] <= report["metrics"]["validity"]
    assert re.search(r'"accuracy": \d\.\d{6}[,}]', proc.stdout)
    assert list(report) == sorted(report)
    assert list(report["metrics"]) == sorted(report["metrics"])
    print(f"PASS criterion 8: 1000-pair e2e evaluate in {elapsed:.2f}s")


def test_criterion_9_roundtrip_fixtures():
    """Lookup oracle covering k of n pairs gives roundtrip accuracy exactly
    k/n for three constructed fixtures."""
    fixtures = [
        (4, 4),   # full coverage
        (2, 3),   # partial
        (0, 5),   # none
    ]
    for k, n in fixtures:
        rows = [(f"{'C' * (i + 1)}.O", "C" * (i + 2) + "O") for i in range(n)]
        table = {precursors: product for precursors, product in rows[:k]}
        pairs = [
            PredictionPair(task=TaskKind.RETRO, prediction=p, reference=r, id=str(i))
            for i, (p, r) in enumerate(rows)
        ]
        report = eval_retro(pairs, LookupOracle(table))
        assert report.value("roundtrip_accuracy") == k / n, (k, n)
    print("PASS criterion 9: roundtrip accuracy exactly k/n on all fixtures")
