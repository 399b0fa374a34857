"""Substructure key tables and their pattern mini-language.

A key table file has one key per line::

    id<TAB>count_threshold<TAB>pattern

with ``#`` comments and blank lines ignored (UTF-8). The shipped table
``data/structure-keys-v1.keys`` holds 166 keys approximating the classic
166-bit key set with patterns expressible in this grammar.

Pattern grammar (rooted tree, SMILES-flavored)::

    pattern := atom tail
    tail    := ( "(" bond pattern ")" )* ( bond pattern )?
    atom    := class [ "[" attr ("," attr)* "]" ]
    class   := element symbol | "*" (any) | "X" (halogen) | "Q" (hetero, not C)
    bond    := "-" | "=" | "#" | ":" | "~"
    attr    := "ar" | "al"
             | ("chg" | "rb" | "H" | "deg") ("=" | ">=" | "<=") integer

``ar``/``al`` constrain aromaticity; ``chg`` is formal charge, ``rb`` the
number of incident ring bonds, ``H`` the total hydrogen count, ``deg`` the
heavy-atom degree. ``~`` matches any bond; ``-`` matches only plain single
bonds (not aromatic).

Matching embeds the pattern tree injectively (distinct pattern nodes map to
distinct atoms). The match count is the number of distinct atom SETS
supporting an embedding, so a symmetric pattern like ``O-C-O`` counts each
acetal site once.

A :class:`KeyTable` is compiled on first use: its distinct pattern atoms
become numbered slots, and each molecule is scored from per-slot atom
bitsets. Single-atom keys count atoms, single-bond keys count bonds, and
larger patterns go through the same embedder as :func:`count_matches`.
Key bits are stable across releases: the compiled matcher must set exactly
the bits of the one-pattern-at-a-time reference kept in
``tests/fingerprint_oracles.py``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from typing import Iterable, Sequence

from chemtext.errors import ChemtextError
from chemtext.smiles.parse import Molecule

_HALOGENS = frozenset({"F", "Cl", "Br", "I"})
_ATTR_RE = re.compile(r"(chg|rb|H|deg)(>=|<=|=)([+-]?\d+)")


class KeyTableError(ChemtextError):
    """Malformed key table file or pattern."""


@dataclass(frozen=True)
class PatternAtom:
    element: str | None  # None for "*"; "X"/"Q" become class_
    class_: str | None   # "X" or "Q"
    aromatic: bool | None
    constraints: tuple[tuple[str, str, int], ...]  # (field, op, value)


@dataclass(frozen=True)
class PatternNode:
    atom: PatternAtom
    # (bond char, child) pairs
    children: tuple[tuple[str, "PatternNode"], ...]


@dataclass(frozen=True)
class KeyDefinition:
    """One key: 1-based id, minimum match count, compiled pattern."""

    id: int
    count_threshold: int
    pattern: PatternNode
    source: str


class KeyTable(tuple):
    """An immutable sequence of :class:`KeyDefinition`.

    The form used for matching is built on first use and kept with the
    table, so a table is compiled once however many molecules it scores.
    """

    @cached_property
    def compiled(self) -> "_CompiledTable":
        return _CompiledTable(self)


def parse_pattern(text: str) -> PatternNode:
    """Compile a pattern string; raises KeyTableError on grammar errors."""
    node, pos = _parse_pattern(text, 0)
    if pos != len(text):
        raise KeyTableError(f"trailing characters in pattern {text!r}")
    return node


def _parse_pattern(text: str, pos: int) -> tuple[PatternNode, int]:
    atom, pos = _parse_atom(text, pos)
    children: list[tuple[str, PatternNode]] = []
    while pos < len(text) and text[pos] == "(":
        if pos + 1 >= len(text) or text[pos + 1] not in "-=#:~":
            raise KeyTableError(f"expected bond after '(' in {text!r}")
        bond = text[pos + 1]
        child, pos = _parse_pattern(text, pos + 2)
        if pos >= len(text) or text[pos] != ")":
            raise KeyTableError(f"missing ')' in pattern {text!r}")
        pos += 1
        children.append((bond, child))
    if pos < len(text) and text[pos] in "-=#:~":
        bond = text[pos]
        child, pos = _parse_pattern(text, pos + 1)
        children.append((bond, child))
    return PatternNode(atom=atom, children=tuple(children)), pos


def _parse_atom(text: str, pos: int) -> tuple[PatternAtom, int]:
    if pos >= len(text):
        raise KeyTableError(f"expected atom at end of pattern {text!r}")
    ch = text[pos]
    element: str | None = None
    class_: str | None = None
    if ch == "*":
        pos += 1
    elif ch in ("X", "Q"):
        class_ = ch
        pos += 1
    elif ch.isupper():
        element = ch
        pos += 1
        if pos < len(text) and text[pos].islower():
            element += text[pos]
            pos += 1
    else:
        raise KeyTableError(f"bad atom class at position {pos} in {text!r}")
    aromatic: bool | None = None
    constraints: list[tuple[str, str, int]] = []
    if pos < len(text) and text[pos] == "[":
        end = text.find("]", pos)
        if end < 0:
            raise KeyTableError(f"unterminated attribute list in {text!r}")
        for raw in text[pos + 1 : end].split(","):
            raw = raw.strip()
            if raw == "ar":
                aromatic = True
            elif raw == "al":
                aromatic = False
            else:
                m = _ATTR_RE.fullmatch(raw)
                if not m:
                    raise KeyTableError(f"bad attribute {raw!r} in {text!r}")
                constraints.append((m.group(1), m.group(2), int(m.group(3))))
        pos = end + 1
    return (
        PatternAtom(
            element=element,
            class_=class_,
            aromatic=aromatic,
            constraints=tuple(constraints),
        ),
        pos,
    )


def load_key_table(lines: Iterable[str]) -> KeyTable:
    """Parse a key table from text lines; validates unique positive ids,
    positive thresholds and pattern syntax."""
    table: list[KeyDefinition] = []
    seen_ids: set[int] = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        # '#' is the triple-bond character, so only whole-line comments
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise KeyTableError(f"line {lineno}: expected id<TAB>threshold<TAB>pattern")
        try:
            key_id = int(parts[0])
            threshold = int(parts[1])
        except ValueError as exc:
            raise KeyTableError(f"line {lineno}: {exc}") from exc
        if key_id < 1:
            raise KeyTableError(f"line {lineno}: id must be >= 1")
        if key_id in seen_ids:
            raise KeyTableError(f"line {lineno}: duplicate id {key_id}")
        if threshold < 1:
            raise KeyTableError(f"line {lineno}: threshold must be >= 1")
        seen_ids.add(key_id)
        try:
            pattern = parse_pattern(parts[2])
        except KeyTableError as exc:
            raise KeyTableError(f"line {lineno}: {exc}") from exc
        table.append(
            KeyDefinition(id=key_id, count_threshold=threshold, pattern=pattern,
                          source=parts[2])
        )
    if not table:
        raise KeyTableError("key table must be non-empty")
    return KeyTable(table)


_DEFAULT_TABLE: KeyTable | None = None


def default_key_table() -> KeyTable:
    """The shipped 166-entry table (cached)."""
    global _DEFAULT_TABLE
    if _DEFAULT_TABLE is None:
        text = (
            resources.files("chemtext.fingerprints")
            .joinpath("data/structure-keys-v1.keys")
            .read_text(encoding="utf-8")
        )
        _DEFAULT_TABLE = load_key_table(text.splitlines())
    return _DEFAULT_TABLE


# -- matching -----------------------------------------------------------------

# atom feature tuple: (symbol, aromatic, charge, hydrogens, degree, ring bonds)
_FIELD_INDEX = {"chg": 2, "H": 3, "deg": 4, "rb": 5}


def _atom_features(mol: Molecule) -> list[tuple]:
    ring_bonds = mol.ring_bond_indices
    return [
        (
            atom.symbol,
            atom.aromatic,
            atom.charge,
            atom.hydrogens,
            len(neighbors),
            sum(1 for _, bi in neighbors if bi in ring_bonds),
        )
        for atom, neighbors in zip(mol.atoms, mol.adjacency)
    ]


class _CompiledPatterns:
    """Patterns whose distinct pattern atoms are numbered as slots.

    A compiled pattern is its tree in preorder, one ``(parent step, bond
    symbol, slot)`` step per node; the root's parent is -1. Matching a
    molecule first computes, per slot, the bitset of atoms that satisfy it,
    so an atom test is one shift.
    """

    def __init__(self, patterns: Iterable[PatternNode]) -> None:
        self._slot_of: dict[PatternAtom, int] = {}
        self.steps: list[tuple[tuple[int, str, int], ...]] = []
        for pattern in patterns:
            steps: list[tuple[int, str, int]] = []
            self._linearize(pattern, -1, "", steps)
            self.steps.append(tuple(steps))
        # per slot: (aromatic, ((feature index, low, high), ...))
        self._tests: list[tuple] = []
        self._by_element: dict[str, list[int]] = {}
        self._by_class: dict[str | None, list[int]] = {None: [], "X": [], "Q": []}
        for slot, patom in enumerate(self._slot_of):
            bounds: dict[int, tuple[float, float]] = {}
            for field, op, value in patom.constraints:
                low, high = bounds.get(_FIELD_INDEX[field], (-math.inf, math.inf))
                if op in ("=", ">="):
                    low = max(low, value)
                if op in ("=", "<="):
                    high = min(high, value)
                bounds[_FIELD_INDEX[field]] = (low, high)
            self._tests.append(
                (patom.aromatic, tuple((i, lo, hi) for i, (lo, hi) in bounds.items()))
            )
            if patom.element is not None:
                self._by_element.setdefault(patom.element, []).append(slot)
            else:
                self._by_class[patom.class_].append(slot)

    def _linearize(self, node: PatternNode, parent: int, bond: str, out: list) -> None:
        slot = self._slot_of.setdefault(node.atom, len(self._slot_of))
        step = len(out)
        out.append((parent, bond, slot))
        for child_bond, child in node.children:
            self._linearize(child, step, child_bond, out)

    def _matching_slots(self, features: tuple) -> list[int]:
        symbol, aromatic = features[0], features[1]
        candidates = self._by_element.get(symbol, []) + self._by_class[None]
        if symbol in _HALOGENS:
            candidates += self._by_class["X"]
        if symbol not in ("C", "H"):
            candidates += self._by_class["Q"]
        out = []
        for slot in candidates:
            want_aromatic, bounds = self._tests[slot]
            if want_aromatic is not None and aromatic != want_aromatic:
                continue
            for i, low, high in bounds:
                if not low <= features[i] <= high:
                    break
            else:
                out.append(slot)
        return out

    def slot_atoms(self, mol: Molecule) -> list[int]:
        """Per slot, the bitset of atom indices that satisfy it."""
        by_features: dict[tuple, int] = {}
        for i, features in enumerate(_atom_features(mol)):
            by_features[features] = by_features.get(features, 0) | (1 << i)
        out = [0] * len(self._slot_of)
        for features, atoms in by_features.items():
            for slot in self._matching_slots(features):
                out[slot] |= atoms
        return out


class _CompiledTable(_CompiledPatterns):
    """A key table split by pattern size: single-atom keys count atoms,
    single-bond keys count bonds, and only larger trees use the embedder."""

    def __init__(self, table: Sequence[KeyDefinition]) -> None:
        super().__init__(key.pattern for key in table)
        self.nbits = max(key.id for key in table)
        self.atom_keys: list[tuple[int, int, int]] = []
        self.bond_keys: list[tuple[int, int, int, str, int]] = []
        self.tree_keys: list[tuple[int, int, tuple]] = []
        for key, steps in zip(table, self.steps):
            bit, threshold = key.id - 1, key.count_threshold
            if len(steps) == 1:
                self.atom_keys.append((bit, threshold, steps[0][2]))
            elif len(steps) == 2:
                (_, _, slot), (_, bond, child_slot) = steps
                self.bond_keys.append((bit, threshold, slot, bond, child_slot))
            else:
                self.tree_keys.append((bit, threshold, steps))

    def bits(self, mol: Molecule) -> frozenset[int]:
        """Indices of the keys whose pattern reaches its count threshold."""
        slot_atoms = self.slot_atoms(mol)
        bits = {
            bit
            for bit, threshold, slot in self.atom_keys
            if slot_atoms[slot].bit_count() >= threshold
        }
        kinds = [bond.symbol for bond in mol.bonds]
        ends_by_kind: dict[str, list[tuple[int, int]]] = {"~": []}
        for bond, kind in zip(mol.bonds, kinds):
            ends = (1 << bond.a, 1 << bond.b)
            ends_by_kind["~"].append(ends)
            ends_by_kind.setdefault(kind, []).append(ends)
        # one bond is one atom set, so a single-bond key counts bonds
        for bit, threshold, slot, bond, child_slot in self.bond_keys:
            first, second = slot_atoms[slot], slot_atoms[child_slot]
            if not (first and second):
                continue
            count = 0
            for a, b in ends_by_kind.get(bond, ()):
                if (first & a and second & b) or (first & b and second & a):
                    count += 1
                    if count >= threshold:
                        bits.add(bit)
                        break
        for bit, threshold, steps in self.tree_keys:
            if not all(slot_atoms[slot] for _, _, slot in steps):
                continue
            if _count_embeddings(mol, kinds, slot_atoms, steps, threshold) >= threshold:
                bits.add(bit)
        return frozenset(bits)


def _count_embeddings(
    mol: Molecule,
    kinds: list[str],
    slot_atoms: list[int],
    steps: tuple[tuple[int, str, int], ...],
    limit: int | None,
) -> int:
    """Number of distinct atom sets supporting an injective embedding of the
    compiled pattern ``steps``, stopping once ``limit`` sets are found.

    Steps are assigned atoms in order; each non-root step takes an unused
    neighbor of its parent's atom, over a bond its symbol allows.
    """
    adjacency = mol.adjacency
    assigned = [0] * len(steps)
    found: set[int] = set()  # atom sets as bitsets

    def extend(k: int, used: int) -> bool:
        """True once ``limit`` distinct atom sets were recorded."""
        if k == len(steps):
            found.add(used)
            return limit is not None and len(found) >= limit
        parent, bond, slot = steps[k]
        allowed = slot_atoms[slot] & ~used
        for neighbor, bond_index in adjacency[assigned[parent]]:
            if not allowed >> neighbor & 1:
                continue
            if bond != "~" and kinds[bond_index] != bond:
                continue
            assigned[k] = neighbor
            if extend(k + 1, used | 1 << neighbor):
                return True
        return False

    roots = slot_atoms[steps[0][2]]
    while roots:
        low = roots & -roots
        assigned[0] = low.bit_length() - 1
        if extend(1, low):
            break
        roots ^= low
    return len(found)


def count_matches(mol: Molecule, pattern: PatternNode, limit: int | None = None) -> int:
    """Number of distinct atom sets supporting an embedding of ``pattern``.

    ``limit`` allows early exit once that many distinct sets are found
    (thresholds only need "at least k").
    """
    compiled = _CompiledPatterns([pattern])
    kinds = [bond.symbol for bond in mol.bonds]
    return _count_embeddings(mol, kinds, compiled.slot_atoms(mol), compiled.steps[0], limit)


def matches(mol: Molecule, pattern: PatternNode) -> bool:
    return count_matches(mol, pattern, limit=1) >= 1
