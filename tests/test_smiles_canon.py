import random

import pytest

from chemtext.smiles import (
    CanonError,
    canonical_smiles,
    canonicalize,
    parse_smiles,
    random_smiles,
)
from chemtext.smiles import canon
from canon_oracle import oracle_canonical_smiles
from molgen import isomorphic, random_molecule


def test_same_constitution_same_string():
    assert canonical_smiles("OCC") == canonical_smiles("CCO")
    assert canonical_smiles("C(O)C") == canonical_smiles("CCO")


def test_idempotence():
    for smi in ["CCO", "c1ccccc1", "CC(=O)Oc1ccccc1C(=O)O", "C[C@@H](N)C(=O)O",
                "[O-]C(=O)c1ccccc1", "F/C=C/F", "C1CC2CCC1CC2"]:
        mol = parse_smiles(smi)
        c = canonicalize(mol)
        assert canonical_smiles(c) == c


def test_invalid_molecule_raises():
    with pytest.raises(CanonError):
        canonicalize(parse_smiles("C(C)(C)(C)(C)C"))


def test_fragments_sorted():
    a = canonical_smiles("[Na+].[Cl-]")
    b = canonical_smiles("[Cl-].[Na+]")
    assert a == b
    assert a.split(".") == sorted(a.split("."))


def test_permutation_invariance_quantified():
    # brute-force permutation oracle built on the parser itself
    rng = random.Random(20240901)
    for _ in range(60):
        mol = random_molecule(rng, 16)
        reference = canonicalize(mol)
        for _ in range(20):
            rewritten = random_smiles(mol, rng)
            assert canonical_smiles(rewritten) == reference, rewritten


def test_round_trip_graph_isomorphic():
    rng = random.Random(77)
    checked = 0
    while checked < 40:
        mol = random_molecule(rng, 12)
        if len(mol.atoms) > 12:
            continue
        back = parse_smiles(canonicalize(mol))
        assert isomorphic(mol, back)
        checked += 1


def test_stereo_annotations_survive():
    canon = canonical_smiles("F/C=C/F")
    mol = parse_smiles(canon)
    assert sum(1 for b in mol.bonds if b.stereo) == 2
    assert sum(1 for b in mol.bonds if b.order == 2) == 1


def test_chirality_survives_and_separates():
    at = canonical_smiles("C[C@@H](N)C(=O)O")
    al = canonical_smiles("C[C@H](N)C(=O)O")
    assert at != al
    assert "@@" in at or "@" in at


def test_bracket_normalization():
    # explicit hydrogens matching the implicit count drop their brackets
    assert canonical_smiles("[CH4]") == "C"
    assert canonical_smiles("[CH3][CH3]") == "CC"
    # but genuinely explicit counts are preserved
    assert canonical_smiles("[CH3-]") == "[CH3-]"


def test_aromatic_single_bond_kept_explicit():
    canon = canonical_smiles("c1ccccc1-c1ccccc1")
    assert "-" in canon
    mol = parse_smiles(canon)
    plain_single = [b for b in mol.bonds if not b.aromatic and b.order == 1]
    assert len(plain_single) == 1


def test_isotopes_matter():
    assert canonical_smiles("[13CH4]") != canonical_smiles("C")


def test_highly_symmetric_molecules():
    # cubane-like cage and twistane exercise the tie-break search
    for smi in ["C1CC2CCC1CC2", "C(C)(C)(C)C", "CC(C)(C)c1ccc(cc1)C(C)(C)C"]:
        mol = parse_smiles(smi)
        reference = canonicalize(mol)
        rng = random.Random(5)
        for _ in range(10):
            assert canonical_smiles(random_smiles(mol, rng)) == reference


def _distinct_joins(rng, max_atoms, count):
    """``count`` molecules, each 2-3 distinct molgen molecules written as dot
    fragments (no repeated fragment: the oracle's search multiplies their
    symmetries)."""
    joins = []
    while len(joins) < count:
        parts: dict[str, object] = {}
        want = rng.choice((2, 3))
        while len(parts) < want:
            mol = random_molecule(rng, max_atoms)
            parts.setdefault(canonicalize(mol), mol)
        joins.append(parse_smiles(".".join(random_smiles(m, rng) for m in parts.values())))
    return joins


@pytest.mark.parametrize("max_atoms", [10, 20])
def test_component_search_matches_whole_molecule_oracle(max_atoms):
    rng = random.Random(4100 + max_atoms)
    for mol in _distinct_joins(rng, max_atoms, 40):
        expected = oracle_canonical_smiles(mol)
        assert canonicalize(mol) == expected
        for _ in range(2):
            rewritten = random_smiles(mol, rng)
            assert canonical_smiles(rewritten) == expected, rewritten
            assert oracle_canonical_smiles(parse_smiles(rewritten)) == expected


@pytest.mark.parametrize(
    "smiles, expected",
    [
        # one benzene takes 12 candidates; repeats must not multiply them
        ("c1ccccc1.c1ccccc1.c1ccccc1", "c1ccccc1.c1ccccc1.c1ccccc1"),
        ("C1CC1.C1CC1.C1CC1.C1CC1.C1CC1", "C1CC1.C1CC1.C1CC1.C1CC1.C1CC1"),
        # a ring bond spanning a dot joins one component
        ("C1.C1", "CC"),
        ("C1CC.C1", "CCCC"),
    ],
)
def test_components_are_searched_on_their_own(monkeypatch, smiles, expected):
    monkeypatch.setattr(canon, "_MAX_CANDIDATES", 12)
    assert canonical_smiles(smiles) == expected
