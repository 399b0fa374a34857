import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemtext.smiles import LexError, TokenKind, tokenize
from chemtext.smiles.tokenize import lex


def kinds(smiles):
    return [t.kind for t in tokenize(smiles)]


def texts(smiles):
    return [t.text for t in tokenize(smiles)]


def test_three_organic_atoms():
    assert kinds("CCO") == [TokenKind.ATOM_ORGANIC] * 3
    assert texts("CCO") == ["C", "C", "O"]


def test_two_letter_elements_consume_two_chars():
    assert texts("CCl") == ["C", "Cl"]
    assert texts("BrBr") == ["Br", "Br"]
    # 'Cl' wins over 'C' even mid-string
    assert texts("ClCCl") == ["Cl", "C", "Cl"]


def test_unbalanced_branch_is_not_a_lex_error():
    # lexer/parser separation: tokenization succeeds, parsing fails later
    assert kinds("C(C") == [
        TokenKind.ATOM_ORGANIC,
        TokenKind.BRANCH_OPEN,
        TokenKind.ATOM_ORGANIC,
    ]


def test_bracket_atom_is_single_token():
    # hand-applied grammar on the alanine SMILES
    assert texts("C[C@@H](N)C(=O)O") == [
        "C", "[C@@H]", "(", "N", ")", "C", "(", "=", "O", ")", "O",
    ]
    assert kinds("C[C@@H](N)C(=O)O")[1] == TokenKind.ATOM_BRACKET


def test_ring_closure_labels():
    tokens = tokenize("C1CC%12C1C%12")
    ring = [t for t in tokens if t.kind == TokenKind.RING_CLOSURE]
    assert [t.text for t in ring] == ["1", "%12", "1", "%12"]


def test_positions_and_coverage():
    smiles = "c1ccccc1.[NH4+]"
    tokens = tokenize(smiles)
    assert "".join(t.text for t in tokens) == smiles
    offset = 0
    for token in tokens:
        assert token.position == offset
        offset += len(token.text)


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
        assert "".join(t.text for t in tokens) == s


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
    for lexer in (lex, tokenize):
        with pytest.raises(LexError) as err:
            lexer(bad)
        assert str(err.value) == message

