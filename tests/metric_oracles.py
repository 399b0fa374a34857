"""Independent brute-force implementations of the text metrics.

These transcribe the documented metric definitions as literally as possible
(explicit loops, full DP tables, no shared helpers with the package) and
exist solely to cross-check chemtext.textmetrics. The per-order Counter
BLEU and ROUGE-N below are the exception: they keep the package's earlier
kernels, sharing only its types and pair check, as the bit-exact reference.
So is the text2mol loop at the end, which fingerprints both sides of every
pair, as the harness did before it scored an exact match from the
reference's fingerprints alone, and so are the forward and retro loops
after it, which parse and canonicalize each field through their own helpers,
as the harness did before it analysed each SMILES side into one record.
All three canonicalize a pair only when its two sides have equal formulas
(bond count and sorted atom texts, from the first release's atom writer in
``canon_oracle``), so only such a pair can count under ``canon_budget``.
:class:`EagerLookupOracle` is the lookup oracle as the harness built it
before it held entries by formula: every entry's key is written at build.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Mapping, Sequence

from chemtext.dataset import TaskKind
from chemtext.errors import ChemtextError
from chemtext.fingerprints import FingerprintConfig, FingerprintError, fingerprint, tanimoto
from chemtext.harness import ForwardOracle, MetricReport, OracleError, PredictionPair
from chemtext.smiles import CanonError, LexError, ParseError, canonicalize, parse_smiles
from chemtext.stem import porter_stem
from chemtext.textmetrics import (
    BLEU_EPSILON,
    MetricValue,
    TokenizedText,
    _check_pairs,
    bleu,
    char_tokenize,
    levenshtein,
)
from canon_oracle import _atom_text

EPS = 1e-9


def ngram_list(tokens, n):
    out = []
    for i in range(len(tokens)):
        if i + n <= len(tokens):
            out.append(tuple(tokens[i : i + n]))
    return out


def clipped_overlap(cand_ngrams, ref_ngrams):
    remaining = list(ref_ngrams)
    hits = 0
    for g in cand_ngrams:
        if g in remaining:
            remaining.remove(g)
            hits += 1
    return hits


def bleu_oracle(cands, refs, max_n):
    match = [0] * max_n
    total = [0] * max_n
    c_len = 0
    r_len = 0
    for cand, ref in zip(cands, refs):
        c_len += len(cand)
        r_len += len(ref)
        for n in range(1, max_n + 1):
            cg = ngram_list(cand, n)
            rg = ngram_list(ref, n)
            match[n - 1] += clipped_overlap(cg, rg)
            total[n - 1] += len(cg)
    product = 1.0
    for n in range(max_n):
        product *= (match[n] + EPS) / (total[n] + EPS)
    geo = product ** (1.0 / max_n)
    if c_len == 0:
        return 0.0
    bp = 1.0 if c_len >= r_len else math.exp(1.0 - r_len / c_len)
    return bp * geo


def rouge_n_oracle(cands, refs, n):
    scores = []
    for cand, ref in zip(cands, refs):
        cg = ngram_list(cand, n)
        rg = ngram_list(ref, n)
        overlap = clipped_overlap(cg, rg)
        p = overlap / len(cg) if cg else 0.0
        r = overlap / len(rg) if rg else 0.0
        f1 = 0.0 if (p + r) == 0 else 2 * p * r / (p + r)
        scores.append(f1)
    return sum(scores) / len(scores)


# -- per-order Counter BLEU and ROUGE-N ------------------------------------------
#
# The package's BLEU and ROUGE-N as they were before one n-gram pass per pair
# was shared between them: every metric and every order builds its own
# Counters and sums the clipped overlap over all candidate n-grams. Their
# floats are the reference the shared pass must reproduce bit for bit.


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(zip(*(tokens[i:] for i in range(n))))


def bleu_counter_oracle(
    candidates: Sequence[TokenizedText],
    references: Sequence[TokenizedText],
    max_n: int,
) -> MetricValue:
    """Corpus BLEU with uniform weights over orders 1..max_n."""
    if max_n not in (2, 4):
        raise ValueError("max_n must be 2 or 4")
    _check_pairs(candidates, references)
    matches = [0] * max_n
    totals = [0] * max_n
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        cand_len += len(cand.tokens)
        ref_len += len(ref.tokens)
        for n in range(1, max_n + 1):
            c_counts = _ngrams(cand.tokens, n)
            r_counts = _ngrams(ref.tokens, n)
            matches[n - 1] += sum(min(c, r_counts[g]) for g, c in c_counts.items())
            totals[n - 1] += sum(c_counts.values())
    log_sum = 0.0
    for m, t in zip(matches, totals):
        log_sum += math.log((m + BLEU_EPSILON) / (t + BLEU_EPSILON))
    if cand_len == 0:
        value = 0.0
    else:
        brevity = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
        value = brevity * math.exp(log_sum / max_n)
    return MetricValue(name=f"bleu{max_n}", value=value, support=len(candidates))


def rouge_n_counter_oracle(
    candidates: Sequence[TokenizedText],
    references: Sequence[TokenizedText],
    n: int,
) -> MetricValue:
    """Mean per-pair n-gram F1 (clipped overlap)."""
    if n not in (1, 2):
        raise ValueError("n must be 1 or 2")
    _check_pairs(candidates, references)
    total = 0.0
    for cand, ref in zip(candidates, references):
        c_counts = _ngrams(cand.tokens, n)
        r_counts = _ngrams(ref.tokens, n)
        overlap = sum(min(c, r_counts[g]) for g, c in c_counts.items())
        c_total = sum(c_counts.values())
        r_total = sum(r_counts.values())
        precision = overlap / c_total if c_total else 0.0
        recall = overlap / r_total if r_total else 0.0
        if precision + recall > 0:
            total += 2 * precision * recall / (precision + recall)
    return MetricValue(name=f"rouge{n}", value=total / len(candidates),
                       support=len(candidates))


def lcs_table(a, b):
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def rouge_l_oracle(cands, refs):
    scores = []
    for cand, ref in zip(cands, refs):
        lcs = lcs_table(cand, ref)
        p = lcs / len(cand) if cand else 0.0
        r = lcs / len(ref) if ref else 0.0
        f1 = 0.0 if (p + r) == 0 else 2 * p * r / (p + r)
        scores.append(f1)
    return sum(scores) / len(scores)


def meteor_oracle(cands, refs):
    scores = []
    for cand, ref in zip(cands, refs):
        pairs = []
        cand_taken = set()
        ref_taken = set()
        # stage 1: exact, candidate left-to-right, leftmost free reference
        for i in range(len(cand)):
            for j in range(len(ref)):
                if i in cand_taken or j in ref_taken:
                    continue
                if cand[i] == ref[j]:
                    pairs.append((i, j))
                    cand_taken.add(i)
                    ref_taken.add(j)
                    break
        # stage 2: stems of whatever is left
        for i in range(len(cand)):
            if i in cand_taken:
                continue
            for j in range(len(ref)):
                if j in ref_taken:
                    continue
                if porter_stem(cand[i]) == porter_stem(ref[j]):
                    pairs.append((i, j))
                    cand_taken.add(i)
                    ref_taken.add(j)
                    break
        m = len(pairs)
        if m == 0:
            scores.append(0.0)
            continue
        pairs.sort()
        chunks = 1
        for k in range(1, len(pairs)):
            ci, ri = pairs[k]
            pi, pj = pairs[k - 1]
            if not (ci == pi + 1 and ri == pj + 1):
                chunks += 1
        p = m / len(cand)
        r = m / len(ref)
        f_mean = p * r / (0.9 * p + 0.1 * r)
        penalty = 0.5 * (chunks / m) ** 3
        scores.append(f_mean * (1 - penalty))
    return sum(scores) / len(scores)


def meteor_alignment_oracle(cand, ref):
    """The sorted (candidate, reference) pairs of meteor_oracle's two
    stages, for one pair."""
    pairs = []
    cand_taken = set()
    ref_taken = set()
    # stage 1: exact, candidate left-to-right, leftmost free reference
    for i in range(len(cand)):
        for j in range(len(ref)):
            if i in cand_taken or j in ref_taken:
                continue
            if cand[i] == ref[j]:
                pairs.append((i, j))
                cand_taken.add(i)
                ref_taken.add(j)
                break
    # stage 2: stems of whatever is left
    for i in range(len(cand)):
        if i in cand_taken:
            continue
        for j in range(len(ref)):
            if j in ref_taken:
                continue
            if porter_stem(cand[i]) == porter_stem(ref[j]):
                pairs.append((i, j))
                cand_taken.add(i)
                ref_taken.add(j)
                break
    pairs.sort()
    return pairs


def levenshtein_oracle(a, b):
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + cost,
            )
    return table[len(a)][len(b)]


_FTS_SCHEMES = {"maccs_fts": "keys", "rdk_fts": "path", "morgan_fts": "morgan"}


def _parse_valid(smiles):
    try:
        mol = parse_smiles(smiles)
    except (LexError, ParseError):
        return None
    return mol if mol.validity.valid else None


def _formula(mol):
    """Bond count and sorted atom texts: what any canonical string of the
    molecule holds, so molecules whose formulas differ are unequal."""
    return len(mol.bonds), sorted(_atom_text(mol, i) for i in range(len(mol.atoms)))


def _canonically_equal(a, b):
    """Whether two valid-or-None molecules are equal under canonical SMILES;
    canonicalizes (and may raise ``CanonError``) only for equal formulas."""
    if a is None or b is None or _formula(a) != _formula(b):
        return False
    return canonicalize(a) == canonicalize(b)


def text2mol_both_sides_oracle(
    pairs: Sequence[PredictionPair], config: FingerprintConfig = FingerprintConfig()
) -> MetricReport:
    """The text2mol report with each scheme fingerprinted on both sides of
    every pair with two valid sides, exact matches included."""
    bleu4 = bleu([char_tokenize(p.prediction) for p in pairs],
                 [char_tokenize(p.reference) for p in pairs], 4)
    metrics = {"bleu": MetricValue("bleu", bleu4.value, bleu4.support)}
    exact = n_valid = lev_total = fts_support = budget_hits = canon_hits = 0
    fts_sums = dict.fromkeys(_FTS_SCHEMES, 0.0)
    for pair in pairs:
        lev_total += levenshtein(pair.prediction, pair.reference)
        pred_mol = _parse_valid(pair.prediction)
        ref_mol = _parse_valid(pair.reference)
        n_valid += pred_mol is not None
        if pred_mol is None or ref_mol is None:
            continue
        try:
            exact += _canonically_equal(pred_mol, ref_mol)
        except CanonError:
            canon_hits += 1
            continue
        try:
            fts = {
                name: tanimoto(fingerprint(pred_mol, scheme, config),
                               fingerprint(ref_mol, scheme, config))
                for name, scheme in _FTS_SCHEMES.items()
            }
        except FingerprintError:
            budget_hits += 1
            continue
        for name, value in fts.items():
            fts_sums[name] += value
        fts_support += 1
    n = len(pairs)
    metrics["accuracy"] = MetricValue("accuracy", exact / n, n)
    metrics["levenshtein"] = MetricValue("levenshtein", lev_total / n, n)
    metrics["validity"] = MetricValue("validity", n_valid / n, n)
    omitted = {}
    if fts_support:
        for name, total in fts_sums.items():
            metrics[name] = MetricValue(name, total / fts_support, fts_support)
    else:
        reason = "no pair with both sides valid"
        if canon_hits and budget_hits:
            reason += " within the canonicalization and path-enumeration budgets"
        elif canon_hits:
            reason += " within the canonicalization budget"
        elif budget_hits:
            reason += " within the path-enumeration budget"
        omitted = dict.fromkeys(fts_sums, reason)
    skipped = n - fts_support
    skip_reasons = {
        "invalid_smiles_side": skipped - budget_hits - canon_hits,
        "fingerprint_budget": budget_hits,
        "canon_budget": canon_hits,
    }
    return MetricReport(
        task=TaskKind.TEXT2MOL,
        metrics=metrics,
        n_total=n,
        n_valid_pred=n_valid,
        n_skipped=skipped,
        skip_reasons={k: v for k, v in skip_reasons.items() if v},
        omitted_metrics=omitted,
    )


def forward_oracle(pairs: Sequence[PredictionPair]) -> MetricReport:
    """The forward report as the harness computed it before it analysed
    each SMILES side into one record, under the formula rule."""
    exact = 0
    n_valid = 0
    canon_hits = 0
    for pair in pairs:
        pred_mol = _parse_valid(pair.prediction)
        if pred_mol is None:
            continue
        n_valid += 1
        try:
            exact += _canonically_equal(pred_mol, _parse_valid(pair.reference))
        except CanonError:
            canon_hits += 1
    n = len(pairs)
    metrics = {"accuracy": MetricValue("accuracy", exact / n, n)}
    return MetricReport(
        task=TaskKind.FORWARD,
        metrics=metrics,
        n_total=n,
        n_valid_pred=n_valid,
        skip_reasons={"canon_budget": canon_hits} if canon_hits else {},
    )


def retro_oracle(pairs: Sequence[PredictionPair], oracle: ForwardOracle) -> MetricReport:
    """The retro report as the harness computed it before it analysed each
    SMILES side into one record, under the formula rule: the prediction is
    parsed for the validity count and handed to the oracle as a string."""
    hits = 0
    n_valid = 0
    failures = 0
    canon_hits = 0
    for pair in pairs:
        if _parse_valid(pair.prediction) is not None:
            n_valid += 1
        try:
            product = _parse_valid(oracle.predict_product(pair.prediction))
            hits += _canonically_equal(product, _parse_valid(pair.reference))
        except OracleError:
            failures += 1
        except CanonError:
            canon_hits += 1
    n = len(pairs)
    metrics = {"roundtrip_accuracy": MetricValue("roundtrip_accuracy", hits / n, n)}
    skip_reasons = {"oracle_failure": failures, "canon_budget": canon_hits}
    return MetricReport(
        task=TaskKind.RETRO,
        metrics=metrics,
        n_total=n,
        n_valid_pred=n_valid,
        skip_reasons={k: v for k, v in skip_reasons.items() if v},
    )


class EagerLookupOracle:
    """A precursors -> product table keyed at build: the canonical SMILES of
    valid precursors, else (invalid, or over the canonicalization budget)
    the string itself. A repeated key whose product is neither the same
    string nor canonically equal to the latest one's raises, naming the
    latest earlier entry of the key; a lookup canonicalizes a valid query
    (which may raise ``CanonError``) and reads its key."""

    def __init__(self, table: Mapping[str, str] | Iterable[tuple[str, str, str]]) -> None:
        if isinstance(table, Mapping):
            table = [(f"entry {k}", *item) for k, item in enumerate(table.items(), start=1)]
        self.table: dict[str, tuple[str, str, str]] = {}
        for where, precursors, product in table:
            mol = _parse_valid(precursors)
            try:
                key = precursors if mol is None else canonicalize(mol)
            except CanonError:
                key = precursors
            if key in self.table and not _same_product(self.table[key][2], product):
                first, spelled, earlier = self.table[key]
                raise ChemtextError(
                    f"{where}: oracle precursors {spelled!r} and {precursors!r} are one "
                    f"precursor set with different products {earlier!r} and {product!r} "
                    f"(the first at {first})"
                )
            self.table[key] = (where, precursors, product)

    def predict_product(self, precursors: str) -> str:
        mol = _parse_valid(precursors)
        key = precursors if mol is None else canonicalize(mol)
        if key not in self.table:
            raise OracleError(f"no product known for precursors {precursors!r}")
        return self.table[key][2]


def _same_product(a: str, b: str) -> bool:
    try:
        return a == b or _canonically_equal(_parse_valid(a), _parse_valid(b))
    except CanonError:
        return False
