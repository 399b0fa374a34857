import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemtext.stem import porter_stem
from stem_oracle import porter_stem_oracle


@pytest.mark.parametrize(
    "word,stem",
    [
        # step examples from the original algorithm description
        ("caresses", "caress"),
        ("ponies", "poni"),
        ("ties", "ti"),
        ("caress", "caress"),
        ("cats", "cat"),
        ("feed", "feed"),
        ("agreed", "agre"),
        ("plastered", "plaster"),
        ("bled", "bled"),
        ("motoring", "motor"),
        ("sing", "sing"),
        ("happy", "happi"),
        ("sky", "sky"),
        # full-pipeline classics
        ("running", "run"),
        ("argument", "argument"),
        ("controlling", "control"),
        ("generalizations", "gener"),
        ("hopping", "hop"),
        ("falling", "fall"),
        ("hissing", "hiss"),
        ("filing", "file"),
        ("conflated", "conflat"),
        ("troubled", "troubl"),
        ("sized", "size"),
    ],
)
def test_known_stems(word, stem):
    assert porter_stem(word) == stem


def test_short_words_unchanged():
    for word in ["a", "is", "be", "ox"]:
        assert porter_stem(word) == word


def test_idempotent_on_common_words():
    for word in ["running", "nationalization", "probabilities", "hopeful"]:
        once = porter_stem(word)
        assert porter_stem(once) == once


# "y" runs make the consonant test depend on every preceding letter
@given(st.text(alphabet="aeiouybcstl", max_size=40))
@settings(max_examples=500, deadline=None)
def test_matches_recursive_consonant_oracle(word):
    assert porter_stem(word) == porter_stem_oracle(word)
