import ast
import dataclasses
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemtext.smiles import (
    Atom,
    Bond,
    CanonError,
    Molecule,
    canonical_smiles,
    canonicalize,
    parse_smiles,
    random_smiles,
)
from chemtext.smiles import canon, valence
from canon_oracle import _write_component as oracle_write_component
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


# -- the refinement against the first release's ---------------------------------


def test_oracle_ranks_with_its_own_copies():
    """The oracle must not rank with the package's refinement, or it would
    check that code against itself."""
    tree = ast.parse(pathlib.Path(__file__).with_name("canon_oracle.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "chemtext.smiles.canon":
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "chemtext.smiles":
            assert "canon" not in {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert "chemtext.smiles.canon" not in {alias.name for alias in node.names}
    assert imported <= {"CanonError", "_BARE_AROMATIC", "_BARE_PLAIN"}


def _clique(n):
    atoms = [Atom("U", hydrogens=0)] * n
    return Molecule(atoms, [Bond(a, b) for a in range(n) for b in range(a + 1, n)])


def _molgen_with_brackets(count):
    rng = random.Random(4242)
    found = []
    while len(found) < count:
        mol = random_molecule(rng, 30)
        if "[" in canonicalize(mol):
            found.append(mol)
    return found


# family name -> builder of its molecules, called inside the test
_SYMMETRIC_FAMILIES = {
    "chains": lambda: [parse_smiles("C" * n) for n in (1, 2, 3, 4, 7, 20, 51, 200)],
    "cycles": lambda: [parse_smiles("C1" + "C" * (n - 1) + "1")
                       for n in (3, 4, 5, 6, 9, 16, 25, 40)],
    "oligophenylenes": lambda: [parse_smiles("c1ccc(cc1)" * k + "C") for k in range(1, 7)],
    "tied_fragments": lambda: [
        parse_smiles(smiles)
        for smiles in ("C1CC1.C1CC1.C1CC1", "CC.CC.CC", "c1ccccc1.c1ccccc1",
                       "C1CC1.C1CCC1.C1CC1", "OCC(O)CO.OCC(O)CO", "C1CC2CCC1CC2.C1CC2CCC1CC2")
    ],
    "uranium_cliques": lambda: [_clique(4), _clique(5)],
    # several cells split in one round here, so the sub-cell order depends on
    # every split of a round reading the ranks the round began with
    "ring_systems": lambda: [
        parse_smiles(smiles)
        for smiles in ("C1C2CNC2CC1F", "Cc1cnc(C)cc1O", "C1C2CNC2(CC1F)O", "C1C2COOOC1CO2",
                       "C1Cc2cc(c1cn2)F", "CC(C)CN1C(CPCCC1O)Cl", "CC1(C2OC(C)(C(C1(F)F)Cl)S2)ON",
                       "CC1C2CC1C(=C(C(C2)OCO)OF)[13S]O",
                       "BrC(CSC(Br)(CO)S)([18CH](F)S[13C](Br)(C)C)Cl",
                       "CC1C[18S]OCOC(=C(C(O)SC)OCl)C11C(C)OCC(C)O[13O]1")
    ],
    "molgen_brackets": lambda: _molgen_with_brackets(12),
}


@pytest.mark.parametrize("family", sorted(_SYMMETRIC_FAMILIES))
def test_symmetric_families_match_the_oracle(family):
    """Chains, cycles, oligophenylenes, repeated fragments and cliques keep
    the refinement and the tie-break search busiest, and ring systems split
    several cells at once; each molecule and a rewrite of it must give the
    oracle's string."""
    rng = random.Random(family)
    for mol in _SYMMETRIC_FAMILIES[family]():
        expected = oracle_canonical_smiles(mol)
        assert canonicalize(mol) == expected
        rewritten = random_smiles(mol, rng)
        assert canonical_smiles(rewritten) == expected, rewritten


_PARITY_XFAIL = pytest.mark.xfail(
    strict=True, reason="@/@@ are copied as written, not re-derived for the output "
    "neighbour order (ROADMAP: chirality parity on output)")


@_PARITY_XFAIL
def test_enantiomers_get_different_strings():
    assert canonical_smiles("C[C@H](N)O") != canonical_smiles("N[C@H](C)O")


@_PARITY_XFAIL
def test_one_stereoisomer_written_two_ways_gets_one_string():
    assert canonical_smiles("C[C@H](N)O") == canonical_smiles("C[C@@H](O)N")


def test_double_bond_markers_follow_the_output_order():
    assert canonical_smiles("F/C=C/F") == canonical_smiles("F\\C=C\\F")
    assert canonical_smiles("F/C=C/F") != canonical_smiles("F/C=C\\F")


# -- the writer against the first release's ------------------------------------


def _writes(mol, ranks):
    """Each component written by the package's writer and by the oracle's,
    or the error each raised."""
    texts = canon._atom_texts(mol)
    results = []
    for comp in mol.components:
        pair = []
        for write in (lambda: canon._write_component(mol, comp, ranks, texts),
                      lambda: oracle_write_component(mol, comp, ranks)):
            try:
                pair.append(write())
            except CanonError as exc:
                pair.append(("CanonError", str(exc)))
        results.append(pair)
    return results


def _assert_writers_agree(mol, ranks):
    for new, old in _writes(mol, ranks):
        assert new == old


@pytest.mark.parametrize("max_atoms", [10, 30])
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=80, deadline=None)
def test_writer_matches_oracle_on_molgen_under_random_ranks(max_atoms, seed, data):
    mol = random_molecule(random.Random(seed), max_atoms)
    ranks = data.draw(st.permutations(range(len(mol.atoms))))
    _assert_writers_agree(mol, ranks)


# Bare and bracket atoms: default and non-default hydrogen counts, charges,
# isotopes, chirality, and elements outside the valence table.
_ATOMS = [
    Atom("C"), Atom("N"), Atom("O"), Atom("S"), Atom("Cl"), Atom("B"),
    Atom("C", aromatic=True), Atom("N", aromatic=True), Atom("S", aromatic=True),
    Atom("C", hydrogens=4), Atom("C", hydrogens=1), Atom("N", aromatic=True, hydrogens=1),
    Atom("N", charge=1, hydrogens=4), Atom("O", charge=-1, hydrogens=0),
    Atom("C", charge=-2, hydrogens=2), Atom("Fe", charge=3, hydrogens=0),
    Atom("C", isotope=13), Atom("H", isotope=2, hydrogens=0),
    Atom("C", chirality="@", hydrogens=1), Atom("C", chirality="@@", hydrogens=0),
    Atom("Pt", hydrogens=0), Atom("Se", aromatic=True, hydrogens=0),
]


@st.composite
def _graphs(draw):
    """A molecule (valid or not) over ``_ATOMS``; a dense one is a clique of
    up to 22 atoms, whose rings need ``%nn`` labels, and beyond 99 open
    ring bonds both writers raise."""
    dense = draw(st.booleans())
    n = draw(st.integers(10, 22) if dense else st.integers(1, 16))
    atoms = [draw(st.sampled_from(_ATOMS)) for _ in range(n)]
    if dense:
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    else:
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2 * n))
    bonds, seen = [], set()
    for a, b in pairs:
        if a == b or frozenset((a, b)) in seen:
            continue
        seen.add(frozenset((a, b)))
        aromatic = atoms[a].aromatic and atoms[b].aromatic and draw(st.booleans())
        order = 1 if aromatic else draw(st.sampled_from([1, 1, 2, 3]))
        # stereo is oriented from a to b; either end may be written first
        stereo = None if aromatic or order != 1 else draw(st.sampled_from([None, "up", "down"]))
        bonds.append(Bond(a, b, order, aromatic, stereo))
    return Molecule(atoms, bonds)


@given(mol=_graphs(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_writer_matches_oracle_on_any_graph_under_random_ranks(mol, data):
    ranks = data.draw(st.permutations(range(len(mol.atoms))))
    _assert_writers_agree(mol, ranks)


def test_writer_cases_reach_percent_labels_and_the_ring_limit():
    def clique(n):
        atoms = [Atom("Pt", hydrogens=0)] * n
        return Molecule(
            atoms, [Bond(a, b) for a in range(n) for b in range(a + 1, n)])

    (new, old), = _writes(clique(16), list(range(16)))
    assert new == old and "%" in new
    (new, old), = _writes(clique(22), list(range(22)))
    assert new == old == ("CanonError", "more than 99 simultaneously open ring closures")


def _first_atom_end(smiles):
    if smiles.startswith("["):
        return smiles.index("]") + 1
    return 2 if smiles[:2] in ("Cl", "Br") else 1


@given(seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
       data=st.data())
@settings(max_examples=80, deadline=None)
def test_writer_matches_oracle_on_ring_bonds_spanning_a_dot(seeds, data):
    # two molgen molecules joined by ring label 98, written across the dot
    parts = []
    for seed in seeds:
        smiles = random_smiles(random_molecule(random.Random(seed), 10), random.Random(seed))
        end = _first_atom_end(smiles)
        parts.append(smiles[:end] + "%98" + smiles[end:])
    mol = parse_smiles(".".join(parts))
    assert len(mol.components) < ".".join(parts).count(".") + 1
    ranks = data.draw(st.permutations(range(len(mol.atoms))))
    _assert_writers_agree(mol, ranks)


# -- work counts -----------------------------------------------------------------


@pytest.mark.parametrize("max_atoms", [10, 30])
def test_hydrogen_counts_are_worked_out_once_per_atom(monkeypatch, max_atoms):
    calls = {"hydrogens": 0, "replace": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(valence, "hydrogens_for_total",
                        counting("hydrogens", valence.hydrogens_for_total))
    monkeypatch.setattr(dataclasses, "replace", counting("replace", dataclasses.replace))
    rng = random.Random(900 + max_atoms)
    corpus = [random_smiles(random_molecule(rng, max_atoms), rng) for _ in range(30)]
    corpus += ["[CH4]", "[CH3-]", "c1cc[nH]c1", "[13CH3]C(=O)[O-]", "F/C=C/F", "C1.C1"]
    for smiles in corpus:
        calls.update(hydrogens=0, replace=0)
        mol = parse_smiles(smiles)
        assert calls["hydrogens"] <= len(mol.atoms), smiles
        calls.update(hydrogens=0)
        assert mol.validity.valid
        canonicalize(mol)
        assert calls == {"hydrogens": 0, "replace": 0}, smiles
