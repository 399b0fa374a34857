"""Corpus text-generation metrics: BLEU, ROUGE-N, ROUGE-L, METEOR-lite and
Levenshtein distance.

All sequence metrics consume :class:`TokenizedText`, so callers can supply
their own tokenization; :func:`word_tokenize` is the single shipped word
tokenizer (lowercase, split on whitespace and punctuation boundaries,
punctuation kept as tokens) that makes scores reproducible.

Conventions pinned here:

- BLEU is corpus-level: modified n-gram precisions aggregate counts over all
  pairs, each smoothed additively (epsilon 1e-9 on numerator and denominator)
  so short candidates with zero higher-order overlap do not collapse the
  geometric mean; brevity penalty exp(1 - r/c) applies when c < r.
- ROUGE is reported as per-pair F1 averaged over pairs; pairs where both
  sides lack n-grams (or share none) score 0.
- METEOR-lite keeps the exact and stem matching stages only; the synonym
  stage needs an external lexical database and is dropped, hence the name.
  Alignment: per stage, candidate tokens left to right each take the
  leftmost available reference token; chunks are maximal runs of adjacent
  pairs. Score = F_mean * (1 - gamma * (chunks/matches)^beta) with
  alpha=0.9, beta=3, gamma=0.5.

Kernels: each pair's n-grams are counted once per order in one pass that
BLEU-2/4 and ROUGE-1/2 share (:func:`ngram_scores`); the clipped overlap
caps each candidate n-gram's count by the reference's without a
Python-level loop, and n-gram totals come from the token counts. The
ROUGE-L LCS length is bit-parallel on Python ints (Allison & Dix 1986, in
Hyyrö's 2004 form), and the METEOR-lite alignment pops the leftmost free
reference position from per-token (then per-stem) position lists, stemming
each distinct token once per :func:`meteor_lite` call. They give the same
integers and pairs as counting per metric, the full LCS table and the scan
above, so the conventions are unchanged.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

from chemtext.errors import ChemtextError
from chemtext.stem import porter_stem

BLEU_EPSILON = 1e-9
METEOR_ALPHA = 0.9
METEOR_BETA = 3.0
METEOR_GAMMA = 0.5

_WORD_RE = re.compile(r"\w+|[^\w\s]")


class LengthMismatchError(ChemtextError):
    """Candidates and references have different lengths."""


class EmptyCorpusError(ChemtextError):
    """A corpus metric was asked to aggregate zero pairs."""


@dataclass(frozen=True)
class TokenizedText:
    """Token sequence plus the string it came from."""

    tokens: tuple[str, ...]
    source: str

    def __post_init__(self) -> None:
        if any(not t for t in self.tokens):
            raise ValueError("tokens must be non-empty strings")


@dataclass(frozen=True)
class MetricValue:
    """A named score with the number of pairs it aggregates."""

    name: str
    value: float
    support: int

    def __post_init__(self) -> None:
        if self.support < 1:
            raise ValueError("support must be >= 1")


def word_tokenize(text: str) -> TokenizedText:
    """Lowercase word tokenization with punctuation kept as tokens."""
    return TokenizedText(tokens=tuple(_WORD_RE.findall(text.lower())), source=text)


def char_tokenize(text: str) -> TokenizedText:
    """Each character one token; case preserved (SMILES is case-sensitive)."""
    return TokenizedText(tokens=tuple(text), source=text)


def _check_pairs(
    candidates: Sequence[TokenizedText], references: Sequence[TokenizedText]
) -> None:
    if len(candidates) != len(references):
        raise LengthMismatchError(
            f"{len(candidates)} candidates vs {len(references)} references"
        )
    if not candidates:
        raise EmptyCorpusError("no (candidate, reference) pairs")


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    """Counts of the order-``n`` n-grams; order 1 keys by the token itself
    (callers only compare counts, so the key type does not matter)."""
    if n == 1:
        return Counter(tokens)
    return Counter(zip(*(tokens[i:] for i in range(n))))


def _ngram_total(length: int, n: int) -> int:
    """The number of order-``n`` n-grams in ``length`` tokens."""
    return max(length - n + 1, 0)


_Row = tuple[int, int, dict[int, int]]


def _overlap_rows(
    candidates: Sequence[TokenizedText],
    references: Sequence[TokenizedText],
    orders: Sequence[int],
) -> list[_Row]:
    """The one n-gram pass: per pair, the candidate and reference lengths and
    the clipped overlap keyed by each of ``orders``. The overlap caps each
    candidate n-gram's count by the reference's (``dict.get``, so a miss
    calls no ``Counter.__missing__``) in ``map`` calls, with no Python-level
    loop over the n-grams."""
    rows = []
    for cand, ref in zip(candidates, references):
        overlaps = {}
        for n in orders:
            c_counts = _ngrams(cand.tokens, n)
            r_counts = _ngrams(ref.tokens, n)
            overlaps[n] = sum(map(min, c_counts.values(), map(r_counts.get, c_counts, repeat(0))))
        rows.append((len(cand.tokens), len(ref.tokens), overlaps))
    return rows


def _bleu_value(rows: list[_Row], max_n: int) -> float:
    matches = [0] * max_n
    totals = [0] * max_n
    cand_len = 0
    ref_len = 0
    for c_len, r_len, overlaps in rows:
        cand_len += c_len
        ref_len += r_len
        for n in range(1, max_n + 1):
            matches[n - 1] += overlaps[n]
            totals[n - 1] += _ngram_total(c_len, n)
    log_sum = 0.0
    for m, t in zip(matches, totals):
        log_sum += math.log((m + BLEU_EPSILON) / (t + BLEU_EPSILON))
    if cand_len == 0:
        return 0.0
    brevity = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return brevity * math.exp(log_sum / max_n)


def _f1(overlap: int, c_total: int, r_total: int) -> float:
    precision = overlap / c_total if c_total else 0.0
    recall = overlap / r_total if r_total else 0.0
    if precision + recall > 0:
        return 2 * precision * recall / (precision + recall)
    return 0.0


def _rouge_value(rows: list[_Row], n: int) -> float:
    total = 0.0
    for c_len, r_len, overlaps in rows:
        total += _f1(overlaps[n], _ngram_total(c_len, n), _ngram_total(r_len, n))
    return total / len(rows)


def bleu(
    candidates: Sequence[TokenizedText],
    references: Sequence[TokenizedText],
    max_n: int,
) -> MetricValue:
    """Corpus BLEU with uniform weights over orders 1..max_n."""
    if max_n not in (2, 4):
        raise ValueError("max_n must be 2 or 4")
    _check_pairs(candidates, references)
    rows = _overlap_rows(candidates, references, range(1, max_n + 1))
    return MetricValue(name=f"bleu{max_n}", value=_bleu_value(rows, max_n),
                       support=len(candidates))


def rouge_n(
    candidates: Sequence[TokenizedText],
    references: Sequence[TokenizedText],
    n: int,
) -> MetricValue:
    """Mean per-pair n-gram F1 (clipped overlap)."""
    if n not in (1, 2):
        raise ValueError("n must be 1 or 2")
    _check_pairs(candidates, references)
    rows = _overlap_rows(candidates, references, (n,))
    return MetricValue(name=f"rouge{n}", value=_rouge_value(rows, n),
                       support=len(candidates))


def ngram_scores(
    candidates: Sequence[TokenizedText],
    references: Sequence[TokenizedText],
) -> dict[str, MetricValue]:
    """BLEU-2, BLEU-4, ROUGE-1 and ROUGE-2 from one n-gram pass per pair,
    keyed by metric name; each value equals the one its own function gives."""
    _check_pairs(candidates, references)
    rows = _overlap_rows(candidates, references, range(1, 5))
    support = len(candidates)
    return {
        "bleu2": MetricValue("bleu2", _bleu_value(rows, 2), support),
        "bleu4": MetricValue("bleu4", _bleu_value(rows, 4), support),
        "rouge1": MetricValue("rouge1", _rouge_value(rows, 1), support),
        "rouge2": MetricValue("rouge2", _rouge_value(rows, 2), support),
    }


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """LCS length, bit-parallel (Allison & Dix, IPL 23, 1986, in Hyyrö's
    form, AWOCA 2004): one column of the LCS table over ``b`` is held in a
    Python int ``v`` of any width, whose zero bits mark the rows where the
    column steps up, and is advanced once per token of ``a``."""
    match: dict[str, int] = {}
    for j, token in enumerate(b):
        match[token] = match.get(token, 0) | (1 << j)
    mask = (1 << len(b)) - 1
    v = mask
    for token in a:
        m = match.get(token)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & mask
    return len(b) - v.bit_count()


def rouge_l(
    candidates: Sequence[TokenizedText],
    references: Sequence[TokenizedText],
) -> MetricValue:
    """Mean per-pair F1 of longest-common-subsequence statistics."""
    _check_pairs(candidates, references)
    total = 0.0
    for cand, ref in zip(candidates, references):
        lcs = _lcs_length(cand.tokens, ref.tokens)
        total += _f1(lcs, len(cand.tokens), len(ref.tokens))
    return MetricValue(name="rougeL", value=total / len(candidates),
                       support=len(candidates))


def _align(
    cand: Sequence[str], ref: Sequence[str], stems: dict[str, str]
) -> list[tuple[int, int]]:
    """Two-stage alignment: exact matches first, stem matches on the rest.
    Candidate positions scan left to right and take the leftmost free
    reference position.

    Each stage keeps, per key, the free reference positions in descending
    order, so ``pop()`` yields the leftmost one. ``stems`` maps a token to
    its Porter stem and is filled on demand; sharing it across calls stems
    each distinct token once.
    """
    free: dict[str, list[int]] = {}
    for j in range(len(ref) - 1, -1, -1):
        free.setdefault(ref[j], []).append(j)
    pairs: list[tuple[int, int]] = []
    unmatched: list[int] = []
    for i, token in enumerate(cand):
        slots = free.get(token)
        if slots:
            pairs.append((i, slots.pop()))
        else:
            unmatched.append(i)
    if unmatched and len(pairs) < len(ref):
        taken = {j for _, j in pairs}
        by_stem: dict[str, list[int]] = {}
        for j in range(len(ref) - 1, -1, -1):
            if j not in taken:
                by_stem.setdefault(_stem(ref[j], stems), []).append(j)
        for i in unmatched:
            slots = by_stem.get(_stem(cand[i], stems))
            if slots:
                pairs.append((i, slots.pop()))
        pairs.sort()
    return pairs


def _stem(token: str, stems: dict[str, str]) -> str:
    stem = stems.get(token)
    if stem is None:
        stem = stems[token] = porter_stem(token)
    return stem


def _chunk_count(pairs: list[tuple[int, int]]) -> int:
    chunks = 0
    prev = None
    for ci, ri in pairs:
        if prev is None or (ci, ri) != (prev[0] + 1, prev[1] + 1):
            chunks += 1
        prev = (ci, ri)
    return chunks


def meteor_lite(
    candidates: Sequence[TokenizedText],
    references: Sequence[TokenizedText],
) -> MetricValue:
    """METEOR restricted to exact and Porter-stem matching, averaged over
    pairs."""
    _check_pairs(candidates, references)
    total = 0.0
    stems: dict[str, str] = {}
    for cand, ref in zip(candidates, references):
        pairs = _align(cand.tokens, ref.tokens, stems)
        m = len(pairs)
        if m == 0:
            continue
        precision = m / len(cand.tokens)
        recall = m / len(ref.tokens)
        f_mean = (precision * recall) / (
            METEOR_ALPHA * precision + (1 - METEOR_ALPHA) * recall
        )
        penalty = METEOR_GAMMA * (_chunk_count(pairs) / m) ** METEOR_BETA
        total += f_mean * (1.0 - penalty)
    return MetricValue(name="meteor_lite", value=total / len(candidates),
                       support=len(candidates))


def levenshtein(a: str, b: str) -> int:
    """Minimal edit count (insert/delete/substitute) over unicode scalars.

    Bit-parallel (Myers, J. ACM 46(3), 1999, in Hyyrö's form for global
    distance): one column of the edit table is held as vertical +1/-1
    delta bitsets over the longer string, in Python ints of any width, and
    advanced once per character of the shorter string.
    """
    if a == b:
        return 0
    if len(b) > len(a):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    for i, ch in enumerate(a):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    mask = (1 << len(a)) - 1
    last = 1 << (len(a) - 1)
    pv, mv, score = mask, 0, len(a)
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return score
