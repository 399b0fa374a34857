import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemtext.smiles import (
    Atom,
    Bond,
    Molecule,
    ParseError,
    canonical_smiles,
    canonicalize,
    implicit_hydrogen_count,
    parse,
    parse_smiles,
    tokenize,
)
from chemtext.smiles.parse import _resolved_atom
from molgen import random_molecule


def test_ethanol_graph():
    mol = parse_smiles("CCO")
    assert len(mol.atoms) == 3
    assert len(mol.bonds) == 2
    assert all(b.order == 1 and not b.aromatic for b in mol.bonds)
    assert mol.ring_bond_indices == frozenset()
    assert [a.hydrogens for a in mol.atoms] == [3, 2, 1]


def test_cyclopropane_ring_closure():
    mol = parse_smiles("C1CC1")
    assert len(mol.atoms) == 3
    assert len(mol.bonds) == 3
    assert len(mol.ring_bond_indices) == 3


def test_benzene_aromatic():
    mol = parse_smiles("c1ccccc1")
    assert len(mol.atoms) == 6
    assert all(a.aromatic for a in mol.atoms)
    assert len(mol.bonds) == 6
    assert all(b.aromatic for b in mol.bonds)
    assert [a.hydrogens for a in mol.atoms] == [1] * 6


def test_unclosed_ring_label():
    with pytest.raises(ParseError):
        parse_smiles("C1CC")


@pytest.mark.parametrize(
    "bad",
    [
        "C(C",        # unbalanced branch
        "CC)",        # stray close
        "C()C",       # empty branch
        "CC=",        # trailing bond
        "C=(C)",      # bond before branch
        "C=.C",       # bond before dot
        ".CC",        # leading dot
        "CC.",        # trailing dot
        "C..C",       # double dot
        "C(.C)",      # dot inside branch
        "1CC",        # ring closure with no atom
        "C==C",       # doubled bond symbols
        "C11",        # ring closes onto itself
        "C=1CC-1",    # conflicting ring bond orders
        "",           # empty input
        "C(C)(C))",   # extra close
        "[]",         # no symbol
        "[13]",       # isotope only
        "[C@@@]",     # bad chirality
        "[C$]",       # garbage after symbol
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_smiles(bad)


def test_duplicate_bond_rejected():
    with pytest.raises(ParseError):
        parse_smiles("C1C1")  # ring bond parallel to the chain bond


def test_fragments_and_dot():
    mol = parse_smiles("CC.O")
    assert mol.components == ((0, 1), (2,))
    assert len(mol.atoms) == 3
    assert len(mol.bonds) == 1


def test_ring_closure_across_dot():
    # labels survive the separator; this is ethane written strangely
    mol = parse_smiles("C1.C1")
    assert len(mol.bonds) == 1
    assert len(mol.components) == 1


@pytest.mark.parametrize("smiles", ["CC.O", "C1.C1"])
def test_equality_does_not_depend_on_construction(smiles):
    # bare atoms given with hydrogens=None resolve to what the parser wrote
    mol = parse_smiles(smiles)
    bare = [Atom(a.symbol, a.aromatic) for a in mol.atoms]
    for built in (Molecule(mol.atoms, mol.bonds), Molecule(bare, mol.bonds)):
        assert built == mol and hash(built) == hash(mol) and repr(built) == repr(mol)


def test_bare_atom_gets_its_default_hydrogens():
    mol = Molecule((Atom("C"),), ())
    assert mol == parse_smiles("C")
    assert canonicalize(mol) == "C"


_C, _c = Atom("C"), Atom("C", aromatic=True)


@pytest.mark.parametrize(
    "atoms, bonds, message",
    [
        ([_C, _C], [Bond(0, 0)], "bond endpoints must be distinct"),
        ([_C, _C], [Bond(0, 2)], "bond endpoint out of range"),
        ([_C, _C], [Bond(-1, 0)], "bond endpoint out of range"),
        ([_C, _C], [Bond(0, 1), Bond(1, 0, 2)], "duplicate bond between atoms (0, 1)"),
        ([_C, _C], [Bond(0, 1, aromatic=True)], "aromatic bond between non-aromatic atoms (0, 1)"),
        ([_C, _C], [Bond(0, 1, order=0)], "bond order must be 1, 2 or 3"),
        ([_C, _C], [Bond(0, 1, order=4)], "bond order must be 1, 2 or 3"),
        ([_c, _c], [Bond(0, 1, 2, aromatic=True)], "aromatic bond must have order 1"),
        ([_C, _C], [Bond(0, 1, stereo="x")], "bond stereo must be None, 'up' or 'down'"),
        ([_C, _C], [Bond(0, 1, 2, stereo="up")], "stereo marker on a non-single bond"),
        ([_c, _c], [Bond(0, 1, 1, True, "down")], "stereo marker on a non-single bond"),
    ],
    ids=["self", "out_of_range", "negative", "duplicate", "aromatic_plain_ends", "order_0",
         "order_4", "aromatic_order_2", "stereo_x", "stereo_double", "stereo_aromatic"],
)
def test_constructor_rejects_malformed_bonds(atoms, bonds, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        Molecule(atoms, bonds)


@pytest.mark.parametrize(
    "atom, message",
    [
        (Atom("C", hydrogens=-1), "atom hydrogen count must be None or a non-negative int"),
        (Atom("C", hydrogens=1.0), "atom hydrogen count must be None or a non-negative int"),
        (Atom("C", isotope=-3), "atom isotope must be None or a non-negative int"),
        (Atom("C", isotope="13"), "atom isotope must be None or a non-negative int"),
        (Atom("C", charge=2.5), "atom charge must be an int"),
        (Atom("C", charge=None), "atom charge must be an int"),
    ],
    ids=["hydrogens_negative", "hydrogens_float", "isotope_negative", "isotope_str",
         "charge_float", "charge_none"],
)
def test_constructor_rejects_malformed_atoms(atom, message):
    # each of these once built a molecule whose canonical string named another
    # molecule, did not parse, or raised ValueError
    with pytest.raises(ParseError, match=re.escape(message)):
        Molecule([atom], [])
    with pytest.raises(ParseError, match=re.escape(message)):
        Molecule([_C, atom], [Bond(0, 1)])


def test_constructor_accepts_zero_counts():
    mol = Molecule([Atom("C", isotope=0, hydrogens=0)], [])
    assert canonical_smiles(canonicalize(mol)) == canonicalize(mol)


def _random_bond(rng, n):
    if rng.random() < 0.05:  # any field may be out of range
        return Bond(rng.randrange(-1, n + 1), rng.randrange(-1, n + 1), rng.randrange(5),
                    rng.random() < 0.5, rng.choice([None, "up", "down", "x"]))
    return Bond(rng.randrange(n), rng.randrange(n), rng.choice([1, 1, 1, 2, 3]),
                rng.random() < 0.2, rng.choice([None, None, None, "up", "down"]))


@pytest.mark.parametrize("max_atoms", [10, 30])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_random_bond_lists_are_rejected_or_canonicalize_stably(max_atoms, seed):
    # molgen atoms, 30% of them with hydrogens left to the constructor
    rng = random.Random(seed)
    atoms = [
        Atom(a.symbol, a.aromatic, a.charge, a.isotope, None, a.chirality)
        if rng.random() < 0.3 else a
        for a in random_molecule(rng, max_atoms).atoms
    ]
    bonds = [_random_bond(rng, len(atoms)) for _ in range(rng.randint(0, len(atoms)))]
    try:
        mol = Molecule(atoms, bonds)
    except ParseError:
        return
    if mol.validity.valid:
        text = canonicalize(mol)
        assert canonical_smiles(text) == text


@pytest.mark.parametrize("max_atoms", [10, 30])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_recorded_facts_do_not_depend_on_construction(max_atoms, seed):
    # the stored facts equal what the bonds say, however the atoms were given
    mol = random_molecule(random.Random(seed), max_atoms)
    incident = [[] for _ in mol.atoms]
    for bi, bond in enumerate(mol.bonds):
        incident[bond.a].append((bond.b, bi))
        incident[bond.b].append((bond.a, bi))
    bonds_of = [[(mol.bonds[bi].order, mol.bonds[bi].aromatic) for _, bi in e] for e in incident]
    assert mol.adjacency == tuple(map(tuple, incident))
    assert mol.bond_order_totals == tuple(sum(o for o, _ in b) for b in bonds_of)
    assert mol.default_hydrogens == tuple(
        implicit_hydrogen_count(a.symbol, a.aromatic, b) for a, b in zip(mol.atoms, bonds_of)
    )
    bare = Molecule([Atom(a.symbol, a.aromatic) for a in mol.atoms], mol.bonds)
    assert [a.hydrogens for a in bare.atoms] == list(mol.default_hydrogens)
    for name in ("adjacency", "bond_order_totals", "default_hydrogens"):
        assert getattr(bare, name) == getattr(mol, name), name


def test_ring_label_reuse_after_closure():
    mol = parse_smiles("C1CC1C1CC1")
    assert len(mol.ring_bond_indices) == 6


def test_bracket_fields():
    mol = parse_smiles("[13C@H2+2]")
    atom = mol.atoms[0]
    assert atom.symbol == "C"
    assert atom.isotope == 13
    assert atom.chirality == "@"
    assert atom.hydrogens == 2
    assert atom.charge == 2


def test_bracket_charge_forms():
    assert parse_smiles("[O-]").atoms[0].charge == -1
    assert parse_smiles("[Fe++]").atoms[0].charge == 2
    assert parse_smiles("[N+3]").atoms[0].charge == 3
    assert parse_smiles("[NH4+]").atoms[0].hydrogens == 4


def test_atom_map_ignored():
    mol = parse_smiles("[CH3:7][OH:2]")
    assert [a.symbol for a in mol.atoms] == ["C", "O"]
    assert [a.hydrogens for a in mol.atoms] == [3, 1]


def test_aromatic_bracket_atoms():
    mol = parse_smiles("c1cc[nH]c1")
    n = mol.atoms[3]
    assert n.symbol == "N" and n.aromatic and n.hydrogens == 1


def test_explicit_aromatic_bond_needs_aromatic_atoms():
    with pytest.raises(ParseError):
        parse_smiles("C:C")


@pytest.mark.parametrize(
    "smiles, message",
    [
        ("C1C1", "duplicate bond between atoms (0, 1)"),
        ("CC12CC12", "duplicate bond between atoms (1, 3)"),
        ("C:C", "aromatic bond between non-aromatic atoms (0, 1)"),
        ("c1ccccc1:C", "aromatic bond between non-aromatic atoms (5, 6)"),
        # the bond checks run when the molecule is built, after end-of-input checks
        ("C1C1C(", "unclosed branch at end of input"),
    ],
)
def test_structural_error_messages(smiles, message):
    with pytest.raises(ParseError) as info:
        parse_smiles(smiles)
    assert str(info.value) == message


def test_bond_orders_and_stereo():
    mol = parse_smiles("F/C=C\\F")
    orders = sorted(b.order for b in mol.bonds)
    assert orders == [1, 1, 2]
    stereos = [b.stereo for b in mol.bonds if b.stereo]
    assert sorted(stereos) == ["down", "up"]


def test_parse_accepts_token_sequence():
    mol = parse(tokenize("O=C=O"))
    assert isinstance(mol, Molecule)
    assert sorted(b.order for b in mol.bonds) == [2, 2]


def test_implicit_hydrogens_follow_valence_table():
    # pyridine N: 0 H; pyrrole-type handled via bracket
    mol = parse_smiles("c1ccncc1")
    n = next(a for a in mol.atoms if a.symbol == "N")
    assert n.hydrogens == 0
    # naphthalene fusion carbons: 0 H, others 1
    mol = parse_smiles("c1ccc2ccccc2c1")
    hs = sorted(a.hydrogens for a in mol.atoms)
    assert hs == [0, 0, 1, 1, 1, 1, 1, 1, 1, 1]
    # thiophene S and furan O carry no H
    for smi, sym in [("c1ccsc1", "S"), ("c1ccoc1", "O")]:
        mol = parse_smiles(smi)
        het = next(a for a in mol.atoms if a.symbol == sym)
        assert het.hydrogens == 0


# -- the resolved-atom memo ------------------------------------------------------


def test_atom_memo_is_bounded_and_changes_nothing():
    maxsize = _resolved_atom.cache_info().maxsize
    assert maxsize is not None
    # 5,000 atoms with distinct isotopes: 50 chains of 100 carbons
    for first in range(1, 5001, 100):
        atoms = [Atom("C", isotope=first + k) for k in range(100)]
        bonds = [Bond(k, k + 1) for k in range(99)]
        mol = Molecule(atoms, bonds)
        assert _resolved_atom.cache_info().currsize <= maxsize
        fresh = Molecule(
            [Atom("C", isotope=first + k, hydrogens=3 if k in (0, 99) else 2)
             for k in range(100)],
            bonds,
        )
        assert mol == fresh
        assert hash(mol) == hash(fresh)
        assert repr(mol) == repr(fresh)
        assert mol.default_hydrogens == fresh.default_hydrogens
        assert all(type(a) is Atom for a in mol.atoms)


def test_atom_memo_keeps_field_types():
    # equal fields of different types (True and 1) are resolved apart
    Molecule([Atom("C", aromatic=False)], [])
    mol = Molecule([Atom("C", aromatic=0)], [])
    assert repr(mol) == repr(Molecule([Atom("C", aromatic=0, hydrogens=4)], []))


def test_each_resolved_atom_is_built_once():
    _resolved_atom.cache_clear()
    first = parse_smiles("CCCC")
    second = parse_smiles("CCCC")
    # the end and middle carbons, once each
    assert _resolved_atom.cache_info().misses == 2
    assert all(a is b for a, b in zip(first.atoms, second.atoms))
    assert first.atoms[0] is first.atoms[3]
