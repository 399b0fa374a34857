import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemtext.smiles import LexError, tokenize


def is_atom(text):
    # an atom token is a bracket atom or an organic-subset symbol
    return text[0] == "[" or text[0].isalpha()


def test_three_organic_atoms():
    assert tokenize("CCO") == ["C", "C", "O"]
    assert all(map(is_atom, tokenize("CCO")))


def test_two_letter_elements_consume_two_chars():
    assert tokenize("CCl") == ["C", "Cl"]
    assert tokenize("BrBr") == ["Br", "Br"]
    # 'Cl' wins over 'C' even mid-string
    assert tokenize("ClCCl") == ["Cl", "C", "Cl"]


def test_unbalanced_branch_is_not_a_lex_error():
    # lexer/parser separation: tokenization succeeds, parsing fails later
    assert tokenize("C(C") == ["C", "(", "C"]
    assert [is_atom(t) for t in tokenize("C(C")] == [True, False, True]


def test_bracket_atom_is_single_token():
    # hand-applied grammar on the alanine SMILES
    assert tokenize("C[C@@H](N)C(=O)O") == [
        "C", "[C@@H]", "(", "N", ")", "C", "(", "=", "O", ")", "O",
    ]
    assert [t for t in tokenize("C[C@@H](N)C(=O)O") if is_atom(t)] == [
        "C", "[C@@H]", "N", "C", "O", "O",
    ]


def test_ring_closure_labels():
    tokens = tokenize("C1CC%12C1C%12")
    ring = [t for t in tokens if t[0] in "%0123456789"]
    assert ring == ["1", "%12", "1", "%12"]


@pytest.mark.parametrize(
    "smiles,texts",
    [
        ("c1ccccc1.[NH4+]", ["c", "1", "c", "c", "c", "c", "c", "1", ".", "[NH4+]"]),
        ("", []),
        ("C=C#N", ["C", "=", "C", "#", "N"]),
        ("C:c-C", ["C", ":", "c", "-", "C"]),
        ("F/C=C\\F", ["F", "/", "C", "=", "C", "\\", "F"]),
        ("[13CH3][C@@H](Cl)[O-]", ["[13CH3]", "[C@@H]", "(", "Cl", ")", "[O-]"]),
        # 'Sc' is sulfur then aromatic carbon: only Cl and Br are two letters
        ("Sc1ccsc1", ["S", "c", "1", "c", "c", "s", "c", "1"]),
        # a bare digit is one ring label, '%' takes the next two
        ("C12CC1C2", ["C", "1", "2", "C", "C", "1", "C", "2"]),
        ("C%10CC%10", ["C", "%10", "C", "C", "%10"]),
        ("[nH]1cccc1", ["[nH]", "1", "c", "c", "c", "c", "1"]),
        ("CC(C)(C(=O)O)N", ["C", "C", "(", "C", ")", "(", "C", "(", "=", "O", ")", "O", ")", "N"]),
    ],
    ids=[
        "aromatic_ion", "empty", "bonds", "aromatic_bond", "stereo_bonds", "brackets",
        "sulfur_then_aromatic", "digit_labels", "percent_labels", "bracket_aromatic",
        "nested_branches",
    ],
)
def test_texts_cover_the_input(smiles, texts):
    assert tokenize(smiles) == texts
    assert "".join(tokenize(smiles)) == smiles


@pytest.mark.parametrize(
    "bad", ["CxC", "C&C", "C[NH4", "C%1", "C%", "Cz", "C C", "C²", "C%1²", "C٣C"]
)
def test_lex_errors_carry_position(bad):
    with pytest.raises(LexError) as err:
        tokenize(bad)
    assert 0 <= err.value.position < len(bad)


@given(st.text(max_size=60))
@settings(max_examples=300, deadline=None)
def test_tokenizer_totality(s):
    # never panics: either covers the string or raises LexError with an
    # in-range position
    try:
        tokens = tokenize(s)
    except LexError as err:
        assert 0 <= err.position < len(s)
    else:
        assert "".join(tokens) == s


@pytest.mark.parametrize(
    "bad, message",
    [
        ("CC[NH4", "unterminated bracket atom (position 2)"),
        ("C%1C", "expected two digits after '%' (position 1)"),
        ("CC)x[", "character 'x' outside the SMILES alphabet (position 3)"),
        ("C1²", "character '²' outside the SMILES alphabet (position 2)"),
    ],
)
def test_lex_error_messages(bad, message):
    with pytest.raises(LexError) as err:
        tokenize(bad)
    assert str(err.value) == message

