import random

import pytest

import fingerprint_oracles as oracles
from chemtext.fingerprints import key_fingerprint
from chemtext.fingerprints.keys import (
    KeyTableError,
    PatternAtom,
    PatternNode,
    atom_kind,
    count_matches,
    default_key_table,
    load_key_table,
    matches,
    parse_pattern,
)
from chemtext.smiles import parse_smiles
from molgen import random_molecule


def bit_ids(smiles, table=None):
    return {b + 1 for b in key_fingerprint(parse_smiles(smiles), table).bits}


def test_default_table_well_formed():
    table = default_key_table()
    assert len(table) == 166
    assert sorted(k.id for k in table) == list(range(1, 167))
    assert all(k.count_threshold >= 1 for k in table)


def test_default_tree_keys_have_threshold_one():
    # so the numpy join scores the shipped table (a counted tree key would
    # send every text2mol chunk to the Python embedder)
    compiled = default_key_table().compiled
    assert len(compiled.tree_keys) == 38
    assert all(threshold == 1 for _, threshold, _ in compiled.tree_keys)
    assert compiled.chunkable


@pytest.mark.parametrize(
    "text, message",
    [
        ("C-C)", "trailing characters in pattern 'C-C)'"),
        ("C(C)", "expected bond after '(' in 'C(C)'"),
        ("C(-C", "missing ')' in pattern 'C(-C'"),
        ("C-", "expected atom at end of pattern 'C-'"),
        ("", "expected atom at end of pattern ''"),
        # element symbols are ASCII [A-Z][a-z]?, as in a SMILES bracket atom
        ("É", "bad atom class at position 0 in 'É'"),
        ("Cé-C", "trailing characters in pattern 'Cé-C'"),
        ("\uff23", "bad atom class at position 0 in '\uff23'"),  # fullwidth C
        # X is always the halogen class, never the start of Xe
        ("Xe", "trailing characters in pattern 'Xe'"),
        ("C[ar", "unterminated attribute list in 'C[ar'"),
        ("C[zz]", "bad attribute 'zz' in 'C[zz]'"),
        # checked before parsing, which recurses once per pattern atom
        ("C" + "-C" * 128, "pattern of 257 characters is over the limit of 256"),
        ("C(-" * 5000 + "C" + ")" * 5000, "pattern of 20001 characters is over the limit of 256"),
    ],
)
def test_pattern_grammar_errors(text, message):
    with pytest.raises(KeyTableError) as info:
        parse_pattern(text)
    assert str(info.value) == message
    if text:  # a table line drops its trailing tab, and with it an empty pattern
        with pytest.raises(KeyTableError) as info:
            load_key_table([f"1\t1\t{text}"])
        assert str(info.value) == f"line 1: {message}"


def test_pattern_atoms_read_elements_classes_and_attributes():
    chlorine = PatternNode(PatternAtom("Cl", None, None, ()), ())
    charged = PatternAtom(None, None, True, (("chg", ">=", 1),))
    assert parse_pattern("Cl") == chlorine
    assert parse_pattern("*[ar,chg>=1]-Cl") == PatternNode(charged, (("-", chlorine),))
    assert parse_pattern("Q[al]~X").children[0][1].atom.class_ == "X"
    table = load_key_table(["1\t1\tCl", "2\t1\t*[ar,chg>=1]-Cl"])
    assert [key.pattern for key in table] == [chlorine, parse_pattern("*[ar,chg>=1]-Cl")]


def test_empty_table_rejected():
    with pytest.raises(KeyTableError):
        key_fingerprint(parse_smiles("C"), [])
    with pytest.raises(KeyTableError):
        load_key_table(["# only a comment"])


@pytest.mark.parametrize(
    "bad_line",
    [
        "1\t1",                 # missing pattern
        "x\t1\tC",              # non-integer id
        "0\t1\tC",              # id below 1
        "1\t0\tC",              # zero threshold
        "1\t1\tC[",             # unterminated attrs
        "1\t1\tC[zz]",          # unknown attr
        "1\t1\t(C)",            # branch with no root
        "1\t1\tC(-)",           # branch missing atom
        "1\t1\tq",              # bad class
        "\u0661\t\u0662\tC",        # Arabic-Indic id and threshold
        "\u0661\t1\tC",           # non-ASCII id
        "1\t\u0662\tC",           # non-ASCII threshold
        "1_0\t1\tC",            # underscore read by int()
        "1\t1\tC[deg>=\u0663]",   # non-ASCII attribute digit
    ],
)
def test_malformed_tables(bad_line):
    with pytest.raises(KeyTableError, match="^line 1: "):
        load_key_table([bad_line])


def test_duplicate_ids_rejected():
    with pytest.raises(KeyTableError):
        load_key_table(["1\t1\tC", "1\t1\tO"])


def test_benzene_aromatic_key():
    ids = bit_ids("c1ccccc1")
    assert 64 in ids          # any aromatic atom
    assert 65 in ids          # six aromatic atoms
    assert 144 in ids         # aromatic C chain
    assert 77 not in ids      # no plain C=O
    assert 78 not in ids      # aromatic bonds are not C=C


def test_methane_halogen_key_clear():
    ids = bit_ids("C")
    assert 26 not in ids
    assert ids == {28, 57}    # carbon present, methyl present


def test_functional_group_keys():
    acetic = bit_ids("CC(=O)O")
    assert {77, 115, 52, 104}.issubset(acetic)   # C=O, O=C-O, O-H, C-O
    assert 116 not in acetic                     # no amide
    amide = bit_ids("CC(=O)NC")
    assert 116 in amide and 115 not in amide
    nitrile = bit_ids("CC#N")
    assert {80, 133}.issubset(nitrile)
    urea = bit_ids("NC(=O)N")
    assert 141 in urea
    cf3 = bit_ids("FC(F)(F)C")
    assert {137, 112, 94, 18}.issubset(cf3)


def test_count_thresholds():
    # one hydroxyl vs two
    assert 52 in bit_ids("OCC") and 53 not in bit_ids("OCC")
    two = bit_ids("OCCO")
    assert {52, 53}.issubset(two)


def test_symmetric_pattern_counts_sets_once():
    pattern = parse_pattern("O-C-O")
    mol = parse_smiles("OCO")
    assert count_matches(mol, pattern) == 1
    two_sites = parse_smiles("OCO.OCO")
    assert count_matches(two_sites, pattern) == 2


def test_injective_embedding():
    # O=C-O needs two distinct oxygens
    pattern = parse_pattern("O=C-O")
    assert not matches(parse_smiles("C=O"), pattern)
    assert matches(parse_smiles("OC=O"), pattern)


def test_ring_bond_attribute():
    pattern = parse_pattern("O[rb>=2]")
    assert matches(parse_smiles("C1CCOC1"), pattern)
    assert not matches(parse_smiles("CCO"), pattern)


def test_charge_attribute():
    pattern = parse_pattern("O[chg<=-1]")
    assert matches(parse_smiles("[O-]C"), pattern)
    assert not matches(parse_smiles("OC"), pattern)


def test_any_bond_and_classes():
    assert matches(parse_smiles("CBr"), parse_pattern("X"))
    assert matches(parse_smiles("CBr"), parse_pattern("C~X"))
    assert matches(parse_smiles("CN"), parse_pattern("Q"))
    assert not matches(parse_smiles("CC"), parse_pattern("Q"))


def test_every_default_key_matches_something():
    # sanity corpus exercising a good spread of the table
    corpus = [
        "[Li+].[Cl-]", "[Na+].[Cl-]", "[K+].[Br-]", "[Mg+2]", "[Ca+2]",
        "B(O)(O)O", "[Al+3]", "[Si](C)(C)(C)C", "[Fe+2]", "[Zn+2]",
        "[Cu+2]", "[Mn+2]", "[Co+2]", "[Ni+2]", "[Sn](C)(C)(C)C",
        "[As](C)(C)C", "[Se](C)C", "FC(F)(F)F", "ClCCl", "BrCBr", "ICI",
        "P(=O)(O)(O)O", "S(=O)(=O)(O)O", "NCCN", "OCCO",
        "c1ccccc1", "c1ccncc1", "c1cc[nH]c1", "c1ccoc1", "c1ccsc1",
        "CC(=O)OC", "CC(=O)NC", "CC#N", "C=CC=C", "C=CC=O", "CSC",
        "COC", "CNC", "NC(=O)N", "N=C(N)N", "O=C(O)O", "OC=O",
        "CC(C)(C)C", "CN(C)C", "[NH4+]", "[O-]C(=O)C", "S",
        "O=S(=O)(N)C", "OO", "SS", "N=O", "NN", "NO", "C1CC1",
        "C1CCC1", "C1CCCC1", "C1CCOC1", "C1CCNC1", "C1CCSC1",
        "C1=CCCC1", "c1ccc2ccccc2c1", "C1CC2CCC1CC2",
        "c1ccc(cc1)-c1ccccc1", "Cc1ccccc1", "Oc1ccccc1", "Nc1ccccc1",
        "Sc1ccccc1", "Clc1ccccc1", "O=Cc1ccccc1",
        "O=[N+]([O-])c1ccccc1", "c1cnc2[nH]ccc2c1", "c1cncnc1",
        "CC(N)C(=O)O", "SCC(N)C(=O)O", "OCC(N)CO", "O=CC=O",
        "FC(F)(F)c1ccc(cc1)C(F)(F)F", "ClC(Cl)(Cl)C(Cl)(Cl)Cl",
        "O=C1CCCCC1", "O=S1CCCC1", "N1CC1", "C1OC1", "S1CC1",
        "C#CC", "N#CC", "C=COC", "O=NN(C)C", "COP(=O)(OC)OC",
        "c1cc[n+](C)cc1", "[13CH4]", "O=C(Cl)C", "CCCCCCCCCC",
        "OCC1OC(O)C(O)C(O)C1O", "c1ccc2c(c1)ccc1ccccc12",
        "C1CCC2(CC1)CCCCC2", "NP(N)N", "CS(=O)C",
        "OP(=O)(O)OP(=O)(O)O",    # two phosphorus atoms
        "[Na+].[K+].[O-]S([O-])(=O)=O",  # two cations
        "[S-]C",                  # thiolate anion
        "[N+](C)(C)(C)C",         # four-connected nitrogen
        "S=C(N)N",                # thiourea C=S
        "CN=NC",                  # azo N=N
        "O[Si](C)(C)C",           # Si-O
        "c1ccnnc1",               # aromatic N:N
        "N#CCC#N",                # two nitriles
        "NCO",                    # N-C-O
        "CSC(C)=O",               # thioester S-C=O
        "O=CC(=O)C=O",            # three carbonyls
    ]
    table = default_key_table()
    hit: set[int] = set()
    for smi in corpus:
        hit |= bit_ids(smi)
    missing = sorted(set(range(1, 167)) - hit)
    assert not missing, f"keys never matched by corpus: {missing}"


# every pattern-atom form: "*", the X and Q classes, elements (H and the
# halogens too) and each attribute, alone, combined and unsatisfiable
_SLOT_TABLE = [
    "*", "*[ar]", "*[al,rb=0]", "*[rb>=2]", "*[chg>=1]", "*[H=0,chg=0]", "*[deg=0]",
    "X", "X[deg<=1]", "X[chg<=-1]", "Q", "Q[ar]", "Q[al,H>=1]", "Q[chg>=1,deg>=4]",
    "H", "F", "Cl[chg=-1]", "Br", "I[chg<=-1]", "C[deg>=3,deg<=3]", "C[H>=2,H<=1]",
    "N[ar,H>=1]", "O[al,rb=0,deg<=1]", "C[ar,rb>=2]", "C[ar]~X", "Q[rb>=1]-*[H>=3]",
]
# hand-made atoms: hydrogen, each halogen, an unknown element, charges,
# aromatic atoms, ring and non-ring atoms
_SLOT_SMILES = [
    "[H][H]", "[2H]C", "FC(Cl)(Br)I", "[Xx]", "[Xx+2]C", "[NH4+]", "[O-]C(=O)C",
    "[I-]", "[Na+].[Cl-]", "C[N+](C)(C)C", "c1ccccc1", "c1cc[nH]c1", "c1ccoc1",
    "Clc1ccncc1", "C1CC2CCC1CC2", "CCO", "O=S(=O)(O)O",
]


def _pattern_atoms(node):
    yield node.atom
    for _, child in node.children:
        yield from _pattern_atoms(child)


@pytest.mark.parametrize(
    "table",
    [default_key_table(), load_key_table(f"{i}\t1\t{p}" for i, p in enumerate(_SLOT_TABLE, 1))],
    ids=["shipped", "custom"],
)
def test_kind_slots_are_the_slots_the_oracle_atom_test_accepts(table):
    compiled = table.compiled
    slot_patterns = {}
    for key, steps in zip(table, compiled.steps):
        for patom, (_, _, slot) in zip(_pattern_atoms(key.pattern), steps):
            slot_patterns[slot] = patom
    assert sorted(slot_patterns) == list(range(compiled.n_slots))
    rng = random.Random(103)
    corpus = [random_molecule(rng, size) for size in (10, 30) for _ in range(100)]
    corpus += [parse_smiles(smiles) for smiles in _SLOT_SMILES]
    for mol in corpus:
        for i, atom in enumerate(mol.atoms):
            kind = atom_kind(atom, len(mol.adjacency[i]), mol.ring_bond_counts[i])
            expected = {
                slot for slot, patom in slot_patterns.items()
                if oracles._atom_matches(mol, i, patom)
            }
            assert set(compiled.kind_slots(kind)) == expected, (kind, sorted(expected))
