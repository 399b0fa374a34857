import random
import re
from collections import Counter
from dataclasses import replace
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemtext.fingerprints import SCHEMES, fingerprint, key_fingerprint
from chemtext.smiles import (
    Atom,
    Bond,
    CanonError,
    Molecule,
    ParseError,
    canonical_smiles,
    canonicalize,
    implicit_hydrogen_count,
    parse_smiles,
    random_smiles,
    tokenize,
    validate_smiles,
)
from chemtext.smiles.parse import AROMATIC_BRACKET, _analysed_atom, _bond, _bracket_atom
from chemtext.smiles.tokenize import LexError
from chemtext.smiles.valence import hydrogens_for_total
from molgen import isomorphic, random_molecule


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


@pytest.mark.parametrize("smiles", ["CC.O", "C1.C1", "C(C)(C)(C)(C)C.c1ccccc1", "FC(F)(F)(F)F"])
def test_equality_does_not_depend_on_construction(smiles):
    # bare atoms given with hydrogens=None resolve to what the parser wrote,
    # and the recorded validity and atom texts follow
    mol = parse_smiles(smiles)
    bare = [Atom(a.symbol, a.aromatic) for a in mol.atoms]
    for built in (Molecule(mol.atoms, mol.bonds), Molecule(bare, mol.bonds)):
        assert built == mol and hash(built) == hash(mol) and repr(built) == repr(mol)
        assert built.validity == mol.validity
        assert built.atom_texts == mol.atom_texts


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
        ([_C, _C], [Bond(0.0, 1)], "bond endpoint out of range or not an int"),
        ([_C, _C], [Bond(0, True)], "bond endpoint out of range or not an int"),
        ([_C, _C], [Bond(0, 1, order=2.0)], "bond order must be 1, 2 or 3"),
        ([_C, _C], [Bond(0, 1, order=True)], "bond order must be 1, 2 or 3"),
        ([_c, _c], [Bond(0, 1, aromatic="yes")], "bond aromatic flag must be a bool, 0 or 1"),
        ([_c, _c], [Bond(0, 1, aromatic=2)], "bond aromatic flag must be a bool, 0 or 1"),
        ([_c, _c], [Bond(0, 1, aromatic=1.0)], "bond aromatic flag must be a bool, 0 or 1"),
        ([_c, _c], [Bond(0, 1, aromatic=[])], "bond aromatic flag must be a bool, 0 or 1"),
    ],
    ids=["self", "out_of_range", "negative", "duplicate", "aromatic_plain_ends", "order_0",
         "order_4", "aromatic_order_2", "stereo_x", "stereo_double", "stereo_aromatic",
         "endpoint_float", "endpoint_bool", "order_float", "order_bool", "aromatic_str",
         "aromatic_2", "aromatic_float", "aromatic_list"],
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
        (Atom(6), "atom symbol must be a str"),
        (Atom(None), "atom symbol must be a str"),
        (Atom(""), "atom symbol must be A-Z and an optional a-z: ''"),
        (Atom("c"), "atom symbol must be A-Z and an optional a-z: 'c'"),
        (Atom("Cx1"), "atom symbol must be A-Z and an optional a-z: 'Cx1'"),
        (Atom("CL"), "atom symbol must be A-Z and an optional a-z: 'CL'"),
        (Atom("Ä"), "atom symbol must be A-Z and an optional a-z: 'Ä'"),
        (Atom("C\n"), "atom symbol must be A-Z and an optional a-z: 'C\\n'"),
        (Atom("c", aromatic=True), "atom symbol must be A-Z and an optional a-z: 'c'"),
        (Atom("Cl", aromatic=True), "aromatic atom symbol must be B, C, N, O, P, S, Se or As: 'Cl'"),
        (Atom("X", aromatic=1), "aromatic atom symbol must be B, C, N, O, P, S, Se or As: 'X'"),
        (Atom("C", chirality="x"), "atom chirality must be None, '@' or '@@': 'x'"),
        (Atom("C", chirality=""), "atom chirality must be None, '@' or '@@': ''"),
        (Atom("C", chirality="@@@"), "atom chirality must be None, '@' or '@@': '@@@'"),
        (Atom("C", chirality=1), "atom chirality must be None, '@' or '@@'"),
        (Atom("C", chirality=["@"]), "atom chirality must be None, '@' or '@@'"),
        (Atom("C", aromatic=[]), "atom aromatic flag must be a bool, 0 or 1"),
        (Atom("C", aromatic="yes"), "atom aromatic flag must be a bool, 0 or 1"),
        (Atom("C", aromatic=2), "atom aromatic flag must be a bool, 0 or 1"),
        (Atom("C", aromatic=1.0), "atom aromatic flag must be a bool, 0 or 1"),
        (Atom("C", aromatic=None), "atom aromatic flag must be a bool, 0 or 1"),
    ],
    ids=["hydrogens_negative", "hydrogens_float", "isotope_negative", "isotope_str",
         "charge_float", "charge_none", "symbol_int", "symbol_none", "symbol_empty",
         "symbol_lower", "symbol_digit", "symbol_upper_upper", "symbol_non_ascii",
         "symbol_newline", "aromatic_lower", "aromatic_cl", "aromatic_unknown",
         "chirality_x", "chirality_empty", "chirality_triple", "chirality_int",
         "chirality_list", "aromatic_list", "aromatic_str", "aromatic_2", "aromatic_float",
         "aromatic_none"],
)
def test_constructor_rejects_malformed_atoms(atom, message):
    # each of these once built a molecule whose canonical string named another
    # molecule, did not parse, or raised ValueError; Atom("C", chirality="x")
    # wrote [CxH4], an element Cx, and Atom("c") an aromatic [c]
    with pytest.raises(ParseError, match=re.escape(message)):
        Molecule([atom], [])
    with pytest.raises(ParseError, match=re.escape(message)):
        Molecule([_C, atom], [Bond(0, 1)])


def test_constructor_accepts_zero_counts():
    mol = Molecule([Atom("C", isotope=0, hydrogens=0)], [])
    assert canonical_smiles(canonicalize(mol)) == canonicalize(mol)


def test_constructor_accepts_every_symbol_shape_the_parser_reads():
    mol = Molecule(
        [Atom("Xx"), Atom("Q"), Atom("Se", aromatic=True), Atom("As", aromatic=1),
         Atom("H", chirality="@@"), Atom("C", aromatic=0, chirality="@")],
        [Bond(2, 3, aromatic=True)],
    )
    assert mol.atom_texts == ("[Xx]", "[Q]", "[seH]", "[asH2]", "[H@@H]", "[C@H4]")


# one value of each field the constructor rejects, and some it accepts
_ANY_FIELD = {
    "symbol": st.one_of(st.text(max_size=3), st.sampled_from([None, 6, b"C", "c", "CL", "Ä"])),
    "aromatic": st.sampled_from([False, True, 0, 1, 2, 1.0, None, "yes", []]),
    "charge": st.sampled_from([None, 1.0, True]),
    "isotope": st.sampled_from([-1, 1.0, "13"]),
    "hydrogens": st.sampled_from([-1, 1.0, "1"]),
    "chirality": st.one_of(st.text(max_size=3), st.sampled_from([1, b"@", ["@"]])),
}


@st.composite
def _atoms(draw):
    symbol = draw(st.sampled_from(["C", "N", "O", "S", "P", "B", "Cl", "Br", "Se", "As", "H",
                                   "Na", "Xx", "Q"]))
    aromatic = symbol.lower() in AROMATIC_BRACKET and draw(st.booleans())
    return Atom(
        symbol,
        draw(st.sampled_from([bool, int]))(aromatic),  # aromatic=0 and 1 are accepted
        draw(st.integers(-2, 2)),
        draw(st.one_of(st.none(), st.integers(0, 300))),
        draw(st.one_of(st.none(), st.integers(0, 4))),
        draw(st.sampled_from([None, None, "@", "@@"])),
    )


# the same for a bond
_ANY_BOND_FIELD = {
    "a": st.sampled_from([0.0, True, False, -1]),
    "b": st.sampled_from([1.0, True, 6]),
    "order": st.sampled_from([2.0, 1.0, True, 0, "1"]),
    "aromatic": st.sampled_from([0, 1, 2, 1.0, None, "yes", []]),
}


@st.composite
def _built_molecules(draw):
    """Atoms with well-formed fields, of which one may take any value, and
    bonds between some of their pairs, of which one may take any value."""
    atoms = draw(st.lists(_atoms(), min_size=1, max_size=6))
    if draw(st.booleans()):
        k = draw(st.integers(0, len(atoms) - 1))
        name = draw(st.sampled_from(sorted(_ANY_FIELD)))
        atoms[k] = replace(atoms[k], **{name: draw(_ANY_FIELD[name])})
    pairs = [(a, b) for a in range(len(atoms)) for b in range(a)]
    bonds = []
    for a, b in draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []:
        order = draw(st.sampled_from([1, 1, 1, 2, 3]))
        aromatic = order == 1 and atoms[a].aromatic and atoms[b].aromatic and draw(st.booleans())
        plain = order == 1 and not aromatic
        stereo = draw(st.sampled_from([None, None, "up", "down"])) if plain else None
        flag = draw(st.sampled_from([bool, int]))(bool(aromatic))  # 0 and 1 are accepted
        bonds.append(Bond(a, b, order, flag, stereo))
    if bonds and draw(st.booleans()):
        k = draw(st.integers(0, len(bonds) - 1))
        name = draw(st.sampled_from(sorted(_ANY_BOND_FIELD)))
        bonds[k] = replace(bonds[k], **{name: draw(_ANY_BOND_FIELD[name])})
    return atoms, bonds


@given(_built_molecules())
@settings(max_examples=400, deadline=None)
def test_built_molecules_are_rejected_or_written_back(built):
    # ROADMAP item 6: every molecule the constructor accepts is written as a
    # string naming that molecule
    try:
        mol = Molecule(*built)
    except ParseError:
        return
    if not mol.validity.valid:
        with pytest.raises(CanonError):
            canonicalize(mol)
        return
    text = canonicalize(mol)
    back = parse_smiles(text)
    assert isomorphic(back, mol)
    assert Counter(back.atoms) == Counter(mol.atoms)
    assert canonicalize(back) == text
    for scheme in SCHEMES:
        assert fingerprint(mol, scheme).bits == fingerprint(back, scheme).bits, scheme


def _random_bond(rng, n):
    if rng.random() < 0.05:  # any field may be out of range or of another type
        return Bond(rng.choice([rng.randrange(-1, n + 1), 0.0, True]),
                    rng.choice([rng.randrange(-1, n + 1), 1.0, False]),
                    rng.choice([rng.randrange(5), 2.0, True]),
                    rng.choice([False, True, 0, 1, 2, 1.0, None, "yes", []]),
                    rng.choice([None, "up", "down", "x"]))
    return Bond(rng.randrange(n), rng.randrange(n), rng.choice([1, 1, 1, 2, 3]),
                rng.choice([bool, int])(rng.random() < 0.2),
                rng.choice([None, None, None, "up", "down"]))


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
    defaults = [implicit_hydrogen_count(a.symbol, a.aromatic, b)
                for a, b in zip(mol.atoms, bonds_of)]
    bare = Molecule([Atom(a.symbol, a.aromatic) for a in mol.atoms], mol.bonds)
    assert [a.hydrogens for a in bare.atoms] == defaults
    assert bare.adjacency == mol.adjacency
    # two extra single bonds may leave atoms over their valence
    rng = random.Random(seed)
    pairs = {(b.a, b.b) for b in mol.bonds} | {(b.b, b.a) for b in mol.bonds}
    extra = [(a, b) for a in range(len(mol.atoms)) for b in range(a) if (a, b) not in pairs]
    extra = rng.sample(extra, min(2, len(extra)))
    over = Molecule(mol.atoms, [*mol.bonds, *(Bond(a, b) for a, b in extra)])
    for built in (mol, over):
        # a parse of the molecule, and the molecules built from its
        # explicit-H atoms and from its atoms with the hydrogens of those
        # written bare left to the constructor, record the same facts
        parsed = parse_smiles(random_smiles(built, rng))
        assert sorted(parsed.atom_texts) == sorted(built.atom_texts)
        assert len(parsed.validity.reasons) == len(built.validity.reasons)
        left = [a if text.startswith("[") else Atom(a.symbol, a.aromatic)
                for a, text in zip(parsed.atoms, parsed.atom_texts)]
        for other in (Molecule(parsed.atoms, parsed.bonds), Molecule(left, parsed.bonds)):
            assert other.atoms == parsed.atoms
            for name in ("adjacency", "atom_texts", "validity"):
                assert getattr(other, name) == getattr(parsed, name), name


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


@pytest.mark.parametrize(
    "smiles, message",
    [
        # int() reads these digits, or fails on them with a ValueError
        ("[²C]", "expected element symbol in bracket atom '[²C]' at position 0"),
        ("[٣C]", "expected element symbol in bracket atom '[٣C]' at position 0"),
        ("C[CH²]", "unexpected '²' in bracket atom '[CH²]' at position 1"),
        ("C[CH٣]", "unexpected '٣' in bracket atom '[CH٣]' at position 1"),
        ("[C+²]", "unexpected '²' in bracket atom '[C+²]' at position 0"),
        ("[C:²]", "expected digits after ':' in bracket atom '[C:²]' at position 0"),
    ],
)
def test_bracket_atoms_take_only_ascii_digits(smiles, message):
    with pytest.raises(ParseError) as info:
        parse_smiles(smiles)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "smiles, message",
    [
        # str.isupper and str.islower accept these letters
        ("[Ä]", "expected element symbol in bracket atom '[Ä]' at position 0"),
        ("[ä]", "expected element symbol in bracket atom '[ä]' at position 0"),
        ("C[Cä]C", "unexpected 'ä' in bracket atom '[Cä]' at position 1"),
        ("[Ωx]", "expected element symbol in bracket atom '[Ωx]' at position 0"),
        ("[13Ωx+]", "expected element symbol in bracket atom '[13Ωx+]' at position 0"),
    ],
)
def test_bracket_atoms_take_only_ascii_letters(smiles, message):
    with pytest.raises(ParseError) as info:
        parse_smiles(smiles)
    assert str(info.value) == message
    assert validate_smiles(smiles).reasons == (message,)
    with pytest.raises(ParseError):
        canonical_smiles(smiles)


@pytest.mark.parametrize("text", ["[O-]", "[13F]", "[nH]", "[C@@H]", "[NH4+]", "[Fe+2]"])
def test_one_bracket_text_gives_one_atom(text):
    assert _bracket_atom(text) is _bracket_atom(text)
    assert _bracket_atom(text) is _bracket_atom(text[:-1] + "]")  # another string, one text
    # repeats of the token in one molecule and in another read the same atom
    first, second = parse_smiles(f"{text}.{text}"), parse_smiles(f"C{text}")
    assert first.atoms[0] == first.atoms[1] == second.atoms[1]


@pytest.mark.parametrize(
    "bracket, message",
    [
        ("[]", "expected element symbol"),
        ("[13]", "expected element symbol"),
        ("[x]", "unknown aromatic symbol 'x'"),
        ("[ax]", "unknown aromatic symbol 'a'"),
        ("[C++2]", "charge combines repeated signs with digits"),
        ("[C:]", "expected digits after ':'"),
        ("[CH3q]", "unexpected 'q'"),
        ("[C@@@H]", "unexpected '@H'"),
        ("[Na+-]", "unexpected '-'"),
    ],
)
def test_malformed_bracket_messages_are_not_memoized(bracket, message):
    # each read raises afresh, and the parser adds the token and its position
    for prefix in ("", "CC.", "", "C"):
        with pytest.raises(ParseError) as info:
            parse_smiles(prefix + bracket)
        assert str(info.value) == f"{message} in bracket atom {bracket!r} at position {len(prefix)}"
        with pytest.raises(ParseError) as info:
            _bracket_atom(bracket)
        assert str(info.value) == message


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
        ("[C++2]", "charge combines repeated signs with digits in bracket atom '[C++2]' at position 0"),
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


@pytest.mark.parametrize(
    "smiles, message",
    [
        ("[13CH3]C)", "unbalanced ')' at position 8"),
        ("C%12CC(=O)==C", "two bond symbols in a row at position 11"),
        ("CC.[C$]", "unexpected '$' in bracket atom '[C$]' at position 3"),
        ("C(C=)C", "dangling bond inside branch at position 4"),
    ],
)
def test_error_positions_count_characters(smiles, message):
    with pytest.raises(ParseError) as info:
        parse_smiles(smiles)
    assert str(info.value) == message


def test_lex_error_wins_over_an_earlier_parse_error():
    with pytest.raises(LexError) as info:
        parse_smiles("C))x")
    assert info.value.position == 3


def test_parse_reads_double_bonds():
    mol = parse_smiles("O=C=O")
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


# -- the per-atom memo -----------------------------------------------------------


def test_atom_memo_is_bounded_and_changes_nothing():
    maxsize = _analysed_atom.cache_info().maxsize
    assert maxsize is not None
    # 5,000 atoms with distinct isotopes: 50 chains of 100 carbons
    for first in range(1, 5001, 100):
        atoms = [Atom("C", isotope=first + k) for k in range(100)]
        bonds = [Bond(k, k + 1) for k in range(99)]
        mol = Molecule(atoms, bonds)
        assert _analysed_atom.cache_info().currsize <= maxsize
        fresh = Molecule(
            [Atom("C", isotope=first + k, hydrogens=3 if k in (0, 99) else 2)
             for k in range(100)],
            bonds,
        )
        assert mol == fresh
        assert hash(mol) == hash(fresh)
        assert repr(mol) == repr(fresh)
        assert mol.atom_texts == fresh.atom_texts
        assert mol.validity == fresh.validity
        assert all(type(a) is Atom for a in mol.atoms)


@pytest.mark.parametrize("hydrogens", [None, 4])
def test_atom_memo_keeps_field_types(hydrogens):
    # equal fields of different types (False and 0) are resolved apart
    Molecule([Atom("C", aromatic=False, hydrogens=hydrogens)], [])
    mol = Molecule([Atom("C", aromatic=0, hydrogens=hydrogens)], [])
    assert repr(mol) == "Molecule(atoms=(Atom(symbol='C', aromatic=0, charge=0, isotope=None, " \
        "hydrogens=4, chirality=None),), bonds=())"
    assert mol.atom_texts == ("C",)


def test_each_atom_is_analysed_once():
    _analysed_atom.cache_clear()
    first = parse_smiles("CCCC")
    second = parse_smiles("CCCC")
    # the end and middle carbons, once each
    assert _analysed_atom.cache_info().misses == 2
    assert all(a is b for a, b in zip(first.atoms, second.atoms))
    assert first.atoms[0] is first.atoms[3]


# -- the bond memo and default hydrogens -------------------------------------------


def test_bond_memo_is_bounded_and_changes_nothing():
    maxsize = _bond.cache_info().maxsize
    assert maxsize is not None
    mol = parse_smiles("C" * (2 * maxsize) + "1CC1")  # more distinct bonds than the memo holds
    assert _bond.cache_info().currsize <= maxsize
    fresh = Molecule(mol.atoms, [Bond(b.a, b.b, b.order, b.aromatic, b.stereo) for b in mol.bonds])
    assert mol == fresh and hash(mol) == hash(fresh) and repr(mol) == repr(fresh)
    assert all(type(b) is Bond for b in mol.bonds)


def test_each_parsed_bond_is_built_once():
    _bond.cache_clear()
    first = parse_smiles("c1ccccc1/C=C/F")
    second = parse_smiles("c1ccccc1/C=C/F")
    assert _bond.cache_info().misses == len(first.bonds)
    assert all(a is b for a, b in zip(first.bonds, second.bonds))


@pytest.mark.parametrize("max_atoms, seed", [(10, 1), (30, 2)])
def test_default_hydrogens_match_the_valence_table(max_atoms, seed):
    # an atom is written bare only with the hydrogens the table gives it bare
    rng = random.Random(seed)
    for _ in range(150):
        mol = random_molecule(rng, max_atoms)
        totals = [0] * len(mol.atoms)
        for bond in mol.bonds:
            totals[bond.a] += bond.order
            totals[bond.b] += bond.order
        bare = Molecule([Atom(a.symbol, a.aromatic) for a in mol.atoms], mol.bonds)
        for i, atom in enumerate(mol.atoms):
            expected = hydrogens_for_total(atom.symbol, atom.aromatic, totals[i], mol.degree(i))
            assert bare.atoms[i].hydrogens == expected
            if not mol.atom_texts[i].startswith("["):
                assert atom.hydrogens == expected


# -- the graph walk: components, ring bonds, ring-bond counts --------------------


def _walk_smiles(rng: random.Random, max_atoms: int) -> str:
    """One to three random fragments joined by dots, with up to four ring
    closures between atoms of different fragments: these join fragments
    across a dot and can close rings through several of them."""
    parts = [
        list(tokenize(random_smiles(random_molecule(rng, max_atoms), rng)))
        for _ in range(rng.randint(1, 3))
    ]
    sites = [
        (f, k) for f, part in enumerate(parts)
        for k, text in enumerate(part) if text[0] == "[" or text[0].isalpha()
    ]
    pairs: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for _ in range(rng.randint(0, 4) if len(parts) > 1 else 0):
        a, b = sorted(rng.sample(sites, 2))
        if a[0] != b[0] and (a, b) not in pairs:
            pairs.append((a, b))
    for label, pair in enumerate(pairs, 90):
        for f, k in pair:
            parts[f][k] += f"%{label}"
    return ".".join(map("".join, parts))


def _brute_force_walk(mol: Molecule):
    """Components, ring bonds and ring-bond counts by their definitions: a
    component is what a search over the bonds reaches, and a bond is on a
    ring iff its ends stay connected without it."""
    incident: dict[int, list[int]] = {i: [] for i in range(len(mol.atoms))}
    for bi, bond in enumerate(mol.bonds):
        incident[bond.a].append(bi)
        incident[bond.b].append(bi)

    def reach(start: int, skip: int | None = None) -> set[int]:
        seen, frontier = {start}, [start]
        while frontier:
            u = frontier.pop()
            for bi in incident[u]:
                bond = mol.bonds[bi]
                v = bond.a + bond.b - u
                if bi != skip and v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return seen

    components: list[tuple[int, ...]] = []
    for i in range(len(mol.atoms)):
        if not any(i in c for c in components):
            components.append(tuple(sorted(reach(i))))
    ring = frozenset(bi for bi, b in enumerate(mol.bonds) if b.b in reach(b.a, skip=bi))
    counts = tuple(sum(bi in ring for bi in incident[i]) for i in range(len(mol.atoms)))
    return tuple(components), ring, counts


def _check_walk(mol: Molecule) -> None:
    components, ring, counts = _brute_force_walk(mol)
    assert mol.components == components
    assert mol.ring_bond_indices == ring
    assert mol.ring_bond_counts == counts


@pytest.mark.parametrize(
    "smiles",
    ["C", "CC.O", "C1.C1", "C12.C1C2", "C1CC1.C2CC2", "c1ccccc1.C1CC1CC", "C1CC12CC2", "C%90.C%90CC1.C1"],
)
def test_walk_matches_brute_force_on_examples(smiles):
    _check_walk(parse_smiles(smiles))


@pytest.mark.parametrize("max_atoms", [10, 30])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_walk_matches_brute_force(max_atoms, seed):
    _check_walk(parse_smiles(_walk_smiles(random.Random(seed), max_atoms)))


def test_walk_corpus_closes_rings_across_dots():
    # the corpus above joins fragments, and closes rings, through dots
    rng = random.Random(0)
    joined = crossing_rings = 0
    for _ in range(100):
        smiles = _walk_smiles(rng, 10)
        mol = parse_smiles(smiles)
        fragment_of = []  # per atom, how many dots precede it
        dots = 0
        for text in tokenize(smiles):
            dots += text == "."
            if text[0] == "[" or text[0].isalpha():
                fragment_of.append(dots)
        joined += len(mol.components) < dots + 1
        crossing_rings += any(
            fragment_of[mol.bonds[bi].a] != fragment_of[mol.bonds[bi].b]
            for bi in mol.ring_bond_indices
        )
    assert joined > 20 and crossing_rings > 5


def test_each_molecule_is_walked_once(monkeypatch):
    # the three facts, canonicalization and key fingerprints all read one walk
    rng = random.Random(5)
    smiles = [_walk_smiles(rng, max_atoms) for max_atoms in (10, 30) * 10]
    walked = []
    walk = Molecule._walk

    def counted(mol):
        walked.append(mol)
        return walk.func(mol)

    prop = cached_property(counted)
    prop.__set_name__(Molecule, "_walk")
    monkeypatch.setattr(Molecule, "_walk", prop)
    mols = [parse_smiles(text) for text in smiles]
    assert walked == []
    for mol in mols:
        for name in ("ring_bond_counts", "components", "ring_bond_indices", "ring_bond_counts"):
            getattr(mol, name)
        if mol.validity.valid:
            canonicalize(mol)
            key_fingerprint(mol)
    assert len(walked) == len(mols) and all(a is b for a, b in zip(walked, mols))
    assert any(mol.validity.valid for mol in mols)
