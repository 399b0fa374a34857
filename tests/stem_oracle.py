"""Reference Porter stemmer with the recursive consonant test of the
algorithm's definition: ``_is_consonant`` recurses once per preceding ``y``.
It is the oracle for ``chemtext.stem``, whose consonant test is one
left-to-right pass; use it only on words short enough for the recursion
limit.
"""

from __future__ import annotations

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of VC sequences in [C](VC)^m[V]."""
    forms = []
    for i in range(len(stem)):
        forms.append("c" if _is_consonant(stem, i) else "v")
    collapsed = "".join(ch for i, ch in enumerate(forms) if i == 0 or forms[i - 1] != ch)
    return collapsed.count("vc")


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    if not (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
    ):
        return False
    return word[-1] not in "wxy"


def _apply_rules(word: str, rules, min_measure: int) -> str:
    """Apply the first rule whose suffix matches; condition checked only on
    the longest match per the original algorithm."""
    for suffix, replacement in rules:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > min_measure:
                return stem + replacement
            return word
    return word


_STEP2 = [
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
]
_STEP2.sort(key=lambda r: -len(r[0]))

_STEP3 = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]
_STEP3.sort(key=lambda r: -len(r[0]))

_STEP4_SUFFIXES = [
    "ement", "ance", "ence", "able", "ible", "ment", "ant", "ent", "ism",
    "ate", "iti", "ous", "ive", "ize", "ion", "al", "er", "ic", "ou",
]
_STEP4_SUFFIXES.sort(key=len, reverse=True)


def porter_stem_oracle(word: str) -> str:
    """Stem one lowercase word."""
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _apply_rules(word, _STEP2, 0)
    word = _apply_rules(word, _STEP3, 0)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            return word[:-1]
        return word
    matched = None
    if word.endswith("ed") and _contains_vowel(word[:-2]):
        matched = word[:-2]
    elif word.endswith("ing") and _contains_vowel(word[:-3]):
        matched = word[:-3]
    if matched is None:
        return word
    word = matched
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_consonant(word) and word[-1] not in "lsz":
        return word[:-1]
    if _measure(word) == 1 and _ends_cvc(word):
        return word + "e"
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _step4(word: str) -> str:
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if suffix == "ion" and not stem.endswith(("s", "t")):
                return word
            if _measure(stem) > 1:
                return stem
            return word
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        return word[:-1]
    return word
