"""The regex lexer and one-loop parser against the first release's tokenizer
and parser, kept in ``parse_oracle.py``: every input gives an equal molecule
with the same repr, or the same exception type, message and position."""

import ast
import pathlib
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chemtext.smiles import parse_smiles, random_smiles, tokenize
from molgen import random_molecule
from parse_oracle import oracle_parse_smiles
from parse_oracle import tokenize as oracle_tokenize

_BRACKET = re.compile(r"\[[^\]]*\]")

# the SMILES alphabet plus a few characters outside it; "²" is a digit to
# str.isdigit, and "٣" also to int() and to a regex's \d
_ALPHABET = "CNOSPFIBrlcnops[]()=#:/\\-+@H%.0123456789 x$²٣"


def _outcome(fn, smiles):
    try:
        result = fn(smiles)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return result, repr(result)


def _oracle_texts(smiles):
    """The oracle's token texts, after checking that each token's kind and
    position follow from its text as the package reads them: an atom is a
    text starting with ``[`` or a letter, and a position is the length of
    the texts before it."""
    tokens = oracle_tokenize(smiles)
    offset = 0
    for token in tokens:
        is_atom = token.text[0] == "[" or token.text[0].isalpha()
        assert is_atom == (token.kind.value in ("atom-organic", "atom-bracket"))
        assert token.position == offset
        offset += len(token.text)
    return [token.text for token in tokens]


def _non_ascii_in_bracket(smiles):
    # The oracle reads bracket digits with str.isdigit and element letters
    # with str.isupper and str.islower, so to it a non-ASCII digit there is
    # part of an isotope, count or map, or a ValueError from int(), and a
    # non-ASCII letter part of an element symbol; the package rejects both
    # with a ParseError on purpose. These are the only inputs the property
    # tests leave out.
    return any(
        (ch.isdigit() or ch.isalpha()) and not ch.isascii()
        for br in _BRACKET.findall(smiles)
        for ch in br
    )


def _assert_same_as_oracle(smiles):
    want = _outcome(oracle_parse_smiles, smiles)
    assert _outcome(parse_smiles, smiles) == want
    assert _outcome(tokenize, smiles) == _outcome(_oracle_texts, smiles)


def test_oracle_parses_with_its_own_copies():
    """The oracle must not lex or parse with the package's code, or it would
    check that code against itself."""
    tree = ast.parse(pathlib.Path(__file__).with_name("parse_oracle.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("chemtext"):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("chemtext") for alias in node.names)
    assert imported <= {"Atom", "Bond", "Molecule", "ParseError", "LexError"}


@pytest.mark.parametrize(
    "smiles",
    [
        "", "[", "]", "%", "%1", "C%1a", "[C", "C[", "(", ")", ".", "C1", "C%00C%00",
        "C1.C1", "C/1CC/1", "C/1CC\\1", "C=1CC1", "C=1CC#1", "c:1cccc:c1", "C1CC1C1CC1",
        "C()C", "C(.C)", "C..C", "C==C", "C11", "C1C1", "[13C@@H2+2:7]", "[Fe++]", "[C+2+]",
        "[se]1cccc1", "[as]", "[x]", "[H][H]", "Cl[Br]Br", "C\nC", "C)x", "CC(=O)[O-].[Na+]",
    ],
)
def test_edge_cases_match_the_oracle(smiles):
    _assert_same_as_oracle(smiles)


@st.composite
def _molgen_rewrites(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    mol = random_molecule(rng, draw(st.sampled_from([10, 30])))
    return random_smiles(mol, rng)


@st.composite
def _mutated_rewrites(draw):
    chars = list(draw(_molgen_rewrites()))
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(chars)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op == "insert":
            chars.insert(pos, draw(st.sampled_from(_ALPHABET)))
        elif chars:
            pos = min(pos, len(chars) - 1)
            if op == "delete":
                del chars[pos]
            else:
                chars[pos] = draw(st.sampled_from(_ALPHABET))
    return "".join(chars)


@given(_molgen_rewrites())
@settings(max_examples=150, deadline=None)
def test_molgen_rewrites_match_the_oracle(smiles):
    _assert_same_as_oracle(smiles)


@given(_mutated_rewrites())
@settings(max_examples=400, deadline=None)
def test_mutated_rewrites_match_the_oracle(smiles):
    assume(not _non_ascii_in_bracket(smiles))
    _assert_same_as_oracle(smiles)


@given(st.one_of(st.text(max_size=40), st.text(alphabet=_ALPHABET, max_size=40)))
@settings(max_examples=400, deadline=None)
def test_arbitrary_text_matches_the_oracle(smiles):
    assume(not _non_ascii_in_bracket(smiles))
    _assert_same_as_oracle(smiles)


# bracket pieces: digits, the two-letter aromatic symbols, letters, and
# the chirality, hydrogen, charge and atom-map characters
_BRACKET_PIECES = [*"0123456789", "se", "as", *"CNOSHXZclsaehx", "@", "H", "+", "-", ":"]
# per field in order, values that are well formed or faulty
_BRACKET_FIELDS = [
    ["", "", "13", "0", "007"],
    ["C", "c", "Cl", "se", "as", "x", "Xx", "H", ""],
    ["", "@", "@@", "@@@"],
    ["", "H", "H2", "H0", "HH"],
    ["", "+", "-", "++", "--", "+2", "-3", "++2", "+-"],
    ["", ":", ":1", ":12", "::"],
]


@st.composite
def _brackets(draw):
    if draw(st.booleans()):
        pieces = draw(st.lists(st.sampled_from(_BRACKET_PIECES), max_size=8))
    else:
        pieces = [draw(st.sampled_from(values)) for values in _BRACKET_FIELDS]
    return draw(st.sampled_from(["", "C"])) + "[" + "".join(pieces) + "]"


@given(_brackets())
@settings(max_examples=600, deadline=None)
def test_bracket_interiors_match_the_oracle(smiles):
    # several fields, and several faults, in one bracket: the first fault
    # in field order is the one reported
    _assert_same_as_oracle(smiles)
