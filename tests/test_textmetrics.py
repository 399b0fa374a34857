import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chemtext.textmetrics as textmetrics
from chemtext.textmetrics import _align, _lcs_length
from chemtext.textmetrics import (
    EmptyCorpusError,
    LengthMismatchError,
    TokenizedText,
    bleu,
    char_tokenize,
    levenshtein,
    meteor_lite,
    ngram_scores,
    rouge_l,
    rouge_n,
    word_tokenize,
)
from metric_oracles import (
    bleu_counter_oracle,
    bleu_oracle,
    levenshtein_oracle,
    meteor_oracle,
    rouge_l_oracle,
    rouge_n_counter_oracle,
    rouge_n_oracle,
)
from metric_oracles import lcs_table, meteor_alignment_oracle

_WORDS = [
    "the", "a", "cat", "dog", "ran", "running", "quickly", "molecule",
    "is", "acid", "red", "blue", "jumps", "jumped", ",", ".", "over",
]


def tk(text):
    return word_tokenize(text)


def corpus(texts):
    return [tk(t) for t in texts]


def random_pairs(rng, n_pairs, max_len=9):
    cands, refs = [], []
    for _ in range(n_pairs):
        cands.append(" ".join(rng.choices(_WORDS, k=rng.randint(1, max_len))))
        refs.append(" ".join(rng.choices(_WORDS, k=rng.randint(1, max_len))))
    return corpus(cands), corpus(refs)


# -- tokenizer ----------------------------------------------------------------


def test_word_tokenizer():
    t = word_tokenize("The cat, the DOG.")
    assert t.tokens == ("the", "cat", ",", "the", "dog", ".")
    assert t.source == "The cat, the DOG."


def test_char_tokenizer_preserves_case():
    assert char_tokenize("CCl").tokens == ("C", "C", "l")


def test_tokens_must_be_nonempty():
    with pytest.raises(ValueError):
        TokenizedText(tokens=("a", ""), source="a ")


def test_caller_supplied_tokenization_overrides():
    # pre-tokenized inputs bypass the shipped tokenizer entirely
    custom = [TokenizedText(tokens=("The", "Cat"), source="The Cat")]
    shipped = [word_tokenize("The Cat")]
    assert rouge_n(custom, shipped, 1).value == 0.0  # case preserved, no overlap
    assert rouge_n(custom, custom, 1).value == 1.0


# -- bleu ---------------------------------------------------------------------


def test_bleu_identical_is_one():
    texts = corpus(["the cat ran over the dog", "a red molecule is blue"])
    assert bleu(texts, texts, 2).value == 1.0
    assert bleu(texts, texts, 4).value == 1.0


def test_bleu_empty_candidates_near_zero():
    cands = corpus(["", ""])
    refs = corpus(["the cat", "a dog ran"])
    assert bleu(cands, refs, 4).value <= 1e-6


def test_bleu_mini_corpus_matches_oracle():
    cands = corpus(["the cat ran", "a dog", "the molecule is red and big"])
    refs = corpus(["the cat ran quickly", "a red dog", "the molecule is red"])
    for max_n in (2, 4):
        got = bleu(cands, refs, max_n).value
        want = bleu_oracle(
            [c.tokens for c in cands], [r.tokens for r in refs], max_n
        )
        assert got == pytest.approx(want, abs=1e-9)


def test_bleu_validations():
    texts = corpus(["the cat"])
    with pytest.raises(LengthMismatchError):
        bleu(texts, corpus(["a", "b"]), 2)
    with pytest.raises(EmptyCorpusError):
        bleu([], [], 2)
    with pytest.raises(ValueError):
        bleu(texts, texts, 3)
    with pytest.raises(LengthMismatchError):
        ngram_scores(texts, corpus(["a", "b"]))
    with pytest.raises(EmptyCorpusError):
        ngram_scores([], [])


# -- rouge --------------------------------------------------------------------


def test_rouge_identical_and_disjoint():
    texts = corpus(["the cat ran over the dog"])
    assert rouge_n(texts, texts, 1).value == 1.0
    assert rouge_n(texts, texts, 2).value == 1.0
    assert rouge_l(texts, texts).value == 1.0
    other = corpus(["blue molecule acid"])
    assert rouge_n(texts, other, 1).value == 0.0
    assert rouge_l(texts, other).value == 0.0


def test_rouge1_direct_count():
    # "a b c" vs "a b d": overlap 2, P=R=2/3, F1=2/3
    got = rouge_n(corpus(["a b c"]), corpus(["a b d"]), 1).value
    assert got == pytest.approx(2 / 3, abs=1e-12)


# x/y/z/w sides overlap often; p/q sides share nothing with them; runs of one
# token clip; lists of at most three tokens fall short of the higher orders
_NGRAM_SIDE = st.one_of(
    st.lists(st.sampled_from(["x", "y", "z", "w"]), max_size=12),
    st.builds(lambda token, k: [token] * k, st.sampled_from(["x", "y"]), st.integers(0, 12)),
    st.lists(st.sampled_from(["p", "q"]), max_size=6),
    st.lists(st.sampled_from(["x", "y"]), max_size=3),
)


@given(st.lists(st.tuples(_NGRAM_SIDE, _NGRAM_SIDE), min_size=1, max_size=8))
@example([([], [])])
@example([(["x"], ["x", "x", "x", "x"]), (["x", "y", "z"], [])])
@example([(["x"] * 9, ["x", "x"]), (["y", "y"], ["y"] * 7)])
@example([(["x", "y"], ["y", "x"]), (["p", "q", "p"], ["x", "y", "z", "w"])])
@settings(max_examples=300, deadline=None)
def test_shared_ngram_pass_equals_per_order_counters_exactly(pairs):
    cands = [TokenizedText(tuple(c), " ".join(c)) for c, _ in pairs]
    refs = [TokenizedText(tuple(r), " ".join(r)) for _, r in pairs]
    shared = ngram_scores(cands, refs)
    for max_n in (2, 4):
        want = bleu_counter_oracle(cands, refs, max_n)
        assert bleu(cands, refs, max_n) == want
        assert shared[f"bleu{max_n}"] == want
    for n in (1, 2):
        want = rouge_n_counter_oracle(cands, refs, n)
        assert rouge_n(cands, refs, n) == want
        assert shared[f"rouge{n}"] == want


def test_rouge_l_dp_example():
    # LCS("a c e", "a b c d e") = 3 -> P=1.0, R=0.6, F1=0.75
    got = rouge_l(corpus(["a c e"]), corpus(["a b c d e"])).value
    assert got == pytest.approx(0.75, abs=1e-12)


# lengths drawn uniformly from 0..200, so most pairs carry across 64 bits
_THREE_TOKENS = st.integers(0, 200).flatmap(
    lambda n: st.lists(st.sampled_from(["x", "y", "z"]), min_size=n, max_size=n)
)


@given(_THREE_TOKENS, _THREE_TOKENS)
@settings(max_examples=100, deadline=None)
def test_lcs_length_matches_full_table(a, b):
    assert _lcs_length(a, b) == lcs_table(a, b)


# -- meteor -------------------------------------------------------------------


def test_meteor_identical_penalty_formula():
    # all matched in order: one chunk, penalty = 0.5 * (1/m)^3
    for text in ["cat", "the cat ran", "a b c d e f"]:
        m = len(tk(text).tokens)
        got = meteor_lite(corpus([text]), corpus([text])).value
        assert got == pytest.approx(1.0 - 0.5 * (1.0 / m) ** 3, abs=1e-12)


def test_meteor_single_token_half():
    assert meteor_lite(corpus(["cat"]), corpus(["cat"])).value == pytest.approx(0.5)


def test_meteor_zero_matches():
    assert meteor_lite(corpus(["cat dog"]), corpus(["acid blue"])).value == 0.0


def test_meteor_stem_stage_matches():
    got = meteor_lite(corpus(["running"]), corpus(["run"])).value
    assert got > 0.0


def test_meteor_fixed_corpus_matches_oracle():
    cands = corpus(["the cat ran", "a dog jumped over", "molecules running fast"])
    refs = corpus(["the cat ran quickly", "a dog jumps", "the molecule runs"])
    got = meteor_lite(cands, refs).value
    want = meteor_oracle([c.tokens for c in cands], [r.tokens for r in refs])
    assert got == pytest.approx(want, abs=1e-9)


# exact repeats plus stem-equal variants ("react"/"reacts"/"reacted"...)
_STEM_TOKENS = st.lists(
    st.sampled_from(
        ["react", "reacts", "reacted", "reacting", "cat", "cats", "the", "a"]
    ),
    max_size=30,
)


@given(_STEM_TOKENS, _STEM_TOKENS)
@example(["reacts", "react"], ["react"])
@example(["react", "react"], ["a", "react", "react"])
@settings(max_examples=300, deadline=None)
def test_align_matches_two_stage_oracle(cand, ref):
    assert _align(cand, ref, {}) == meteor_alignment_oracle(cand, ref)


def test_meteor_stems_each_distinct_token_once(monkeypatch):
    calls = []
    stem = textmetrics.porter_stem

    def counting_stem(word):
        calls.append(word)
        return stem(word)

    monkeypatch.setattr(textmetrics, "porter_stem", counting_stem)
    cands, refs = random_pairs(random.Random(11), 60)
    got = meteor_lite(cands, refs).value
    distinct = {t for text in cands + refs for t in text.tokens}
    assert 0 < len(calls) <= len(distinct)
    want = meteor_oracle([c.tokens for c in cands], [r.tokens for r in refs])
    assert got == pytest.approx(want, abs=1e-9)


# -- levenshtein --------------------------------------------------------------


def test_levenshtein_basics():
    assert levenshtein("abc", "abc") == 0
    assert levenshtein("", "abc") == 3
    assert levenshtein("abc", "") == 3
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("züge", "zuge") == 1


@given(st.text(max_size=12), st.text(max_size=12))
@settings(max_examples=200, deadline=None)
def test_levenshtein_matches_full_table_oracle(a, b):
    assert levenshtein(a, b) == levenshtein_oracle(a, b)


# a small alphabet makes edits overlap; the astral-plane scalars are one
# character each, not two UTF-16 units
_MULTI_WORD = st.text(alphabet="ab\U0001F600\U00010348", min_size=60, max_size=200)


@given(_MULTI_WORD, _MULTI_WORD)
@settings(max_examples=60, deadline=None)
def test_levenshtein_matches_oracle_past_one_machine_word(a, b):
    # lengths past 64 exercise carries across the bit-vector's words
    assert levenshtein(a, b) == levenshtein_oracle(a, b)


@given(st.text(max_size=8), st.text(max_size=8), st.text(max_size=8))
@settings(max_examples=200, deadline=None)
def test_levenshtein_symmetry_and_triangle(a, b, c):
    assert levenshtein(a, b) == levenshtein(b, a)
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


# -- cross-cutting properties ---------------------------------------------------


def test_oracle_equivalence_on_random_pairs():
    rng = random.Random(2024)
    cands, refs = random_pairs(rng, 100)
    raw_c = [c.tokens for c in cands]
    raw_r = [r.tokens for r in refs]
    assert bleu(cands, refs, 2).value == pytest.approx(bleu_oracle(raw_c, raw_r, 2), abs=1e-9)
    assert bleu(cands, refs, 4).value == pytest.approx(bleu_oracle(raw_c, raw_r, 4), abs=1e-9)
    assert rouge_n(cands, refs, 1).value == pytest.approx(rouge_n_oracle(raw_c, raw_r, 1), abs=1e-9)
    assert rouge_n(cands, refs, 2).value == pytest.approx(rouge_n_oracle(raw_c, raw_r, 2), abs=1e-9)
    assert rouge_l(cands, refs).value == pytest.approx(rouge_l_oracle(raw_c, raw_r), abs=1e-9)
    assert meteor_lite(cands, refs).value == pytest.approx(meteor_oracle(raw_c, raw_r), abs=1e-9)


def test_order_independence():
    rng = random.Random(5)
    cands, refs = random_pairs(rng, 30)
    order = list(range(30))
    rng.shuffle(order)
    shuffled_c = [cands[i] for i in order]
    shuffled_r = [refs[i] for i in order]
    assert bleu(cands, refs, 4).value == pytest.approx(bleu(shuffled_c, shuffled_r, 4).value, abs=1e-12)
    assert rouge_l(cands, refs).value == pytest.approx(rouge_l(shuffled_c, shuffled_r).value, abs=1e-12)
    assert meteor_lite(cands, refs).value == pytest.approx(meteor_lite(shuffled_c, shuffled_r).value, abs=1e-12)


def test_ranges():
    rng = random.Random(8)
    cands, refs = random_pairs(rng, 40)
    for value in (
        bleu(cands, refs, 2).value,
        rouge_n(cands, refs, 1).value,
        rouge_l(cands, refs).value,
        meteor_lite(cands, refs).value,
    ):
        assert 0.0 <= value <= 1.0
