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
    class   := element | "*" (any) | "X" (halogen) | "Q" (hetero, not C)
    element := [A-Z][a-z]?  (ASCII, spelled as in a SMILES bracket atom)
    bond    := "-" | "=" | "#" | ":" | "~"
    attr    := "ar" | "al"
             | ("chg" | "rb" | "H" | "deg") ("=" | ">=" | "<=") integer

A pattern holds at most 256 characters.

``ar``/``al`` constrain aromaticity; ``chg`` is formal charge, ``rb`` the
number of incident ring bonds, ``H`` the total hydrogen count, ``deg`` the
heavy-atom degree. ``~`` matches any bond; ``-`` matches only plain single
bonds (not aromatic). ``X`` and ``Q`` are always classes, so ``Xe`` reads as
a halogen followed by a stray ``e``.

Matching embeds the pattern tree injectively (distinct pattern nodes map to
distinct atoms). The match count is the number of distinct atom SETS
supporting an embedding, so a symmetric pattern like ``O-C-O`` counts each
acetal site once.

A :class:`KeyTable` is compiled on first use: its distinct pattern atoms
become numbered slots. Single-atom keys count atoms, single-bond keys count
bonds, and larger patterns (tree keys) count embeddings. There are two
matchers, and both read the slots an atom kind satisfies from one bounded
memo per compiled table (:attr:`_CompiledTable.kind_slots`). The Python
matcher scores one molecule from per-slot atom bitsets, its tree keys
through the embedder of :func:`count_matches`, which counts distinct atom
sets. It scores :func:`key_fingerprint
<chemtext.fingerprints.key_fingerprint>`, a batch under the fingerprint
package's numpy cutoff, and any batch of a table with a tree key counted
past one (:attr:`_CompiledTable.chunkable`). The numpy matcher
(:class:`chemtext.fingerprints.chunk.ChunkKeys`, built on first use) scores a
larger batch as one chunk from its graph table: atom and bond keys are
per-molecule sums over a slot matrix, and every tree key of every molecule
is embedded together, one pattern node at a time, only to find whether one
embedding exists. Key bits are stable across releases: both matchers must
set exactly the bits of the one-pattern-at-a-time reference kept in
``tests/fingerprint_oracles.py``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from importlib import resources
from typing import Iterable, Sequence

from chemtext.errors import ChemtextError
from chemtext.smiles.parse import _ELEMENT, Atom, Molecule

_HALOGENS = frozenset({"F", "Cl", "Br", "I"})
# "*", a class or an element, then an optional attribute list; the "]" group
# is None when the list is unterminated
_PATTERN_ATOM = re.compile(rf"(\*|X|Q|{_ELEMENT.pattern})(?:\[([^\]]*)(\])?)?")
_ATTR_RE = re.compile(r"(chg|rb|H|deg)(>=|<=|=)([+-]?[0-9]+)")
# int() and \d would also read "1_0", " 1" and non-ASCII digits
_KEY_LINE = re.compile(r"([0-9]+)\t([0-9]+)\t([^\t]*)")
# the longest pattern parse_pattern reads: the parser, the compiler and the
# embedder recurse once per pattern atom, and a pattern of n characters has
# at most (n + 1) // 2 atoms, far below the interpreter's recursion limit
# (the shipped table's longest pattern has 35 characters)
_MAX_PATTERN_CHARS = 256


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
    """Compile a pattern string; raises KeyTableError on grammar errors and
    on a pattern longer than ``_MAX_PATTERN_CHARS`` (256)."""
    if len(text) > _MAX_PATTERN_CHARS:
        raise KeyTableError(
            f"pattern of {len(text)} characters is over the limit of {_MAX_PATTERN_CHARS}"
        )
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
    match = _PATTERN_ATOM.match(text, pos)
    if match is None:
        if pos >= len(text):
            raise KeyTableError(f"expected atom at end of pattern {text!r}")
        raise KeyTableError(f"bad atom class at position {pos} in {text!r}")
    symbol, attrs, close = match.groups()
    if attrs is not None and close is None:
        raise KeyTableError(f"unterminated attribute list in {text!r}")
    aromatic: bool | None = None
    constraints: list[tuple[str, str, int]] = []
    for raw in (attrs.split(",") if attrs is not None else ()):
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
    element = None if symbol in ("*", "X", "Q") else symbol
    class_ = symbol if symbol in ("X", "Q") else None
    return PatternAtom(element, class_, aromatic, tuple(constraints)), match.end()


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
        parts = _KEY_LINE.fullmatch(line)
        if not parts:
            raise KeyTableError(
                f"line {lineno}: expected id<TAB>threshold<TAB>pattern, id and threshold in 0-9"
            )
        key_id, threshold, source = int(parts[1]), int(parts[2]), parts[3]
        if key_id < 1:
            raise KeyTableError(f"line {lineno}: id must be >= 1")
        if key_id in seen_ids:
            raise KeyTableError(f"line {lineno}: duplicate id {key_id}")
        if threshold < 1:
            raise KeyTableError(f"line {lineno}: threshold must be >= 1")
        seen_ids.add(key_id)
        try:
            pattern = parse_pattern(source)
        except KeyTableError as exc:
            raise KeyTableError(f"line {lineno}: {exc}") from exc
        table.append(
            KeyDefinition(id=key_id, count_threshold=threshold, pattern=pattern, source=source)
        )
    if not table:
        raise KeyTableError("key table must be non-empty")
    return KeyTable(table)


@cache
def default_key_table() -> KeyTable:
    """The shipped 166-entry table (cached)."""
    text = (
        resources.files("chemtext.fingerprints")
        .joinpath("data/structure-keys-v1.keys")
        .read_text(encoding="utf-8")
    )
    return load_key_table(text.splitlines())


# -- matching -----------------------------------------------------------------

# an atom kind: (symbol, aromatic, charge, hydrogens, degree, ring bonds)
_FIELD_INDEX = {"chg": 2, "H": 3, "deg": 4, "rb": 5}


def atom_kind(atom: Atom, degree: int, ring_bonds: int) -> tuple:
    """Every field of an atom that a pattern atom can test."""
    return (atom.symbol, atom.aromatic, atom.charge, atom.hydrogens, degree, ring_bonds)


class _CompiledTable:
    """A key table whose distinct pattern atoms are numbered as slots.

    A compiled pattern is its tree in preorder, one ``(parent step, bond
    symbol, slot)`` step per node; the root's parent is -1. Matching a
    molecule first computes, per slot, the bitset of atoms that satisfy it,
    so an atom test is one shift; :attr:`kind_slots` tests every slot once
    per atom kind. Keys are split by pattern size: single-atom keys count
    atoms, single-bond keys count bonds, and only larger trees use the
    embedder.
    """

    def __init__(self, table: Sequence[KeyDefinition]) -> None:
        self._slot_of: dict[PatternAtom, int] = {}
        self.steps: list[tuple[tuple[int, str, int], ...]] = []
        for key in table:
            steps: list[tuple[int, str, int]] = []
            self._linearize(key.pattern, -1, "", steps)
            self.steps.append(tuple(steps))
        self.n_slots = len(self._slot_of)
        # per slot: (element, class, aromatic, ((feature index, low, high), ...))
        self._tests: list[tuple] = []
        for patom in self._slot_of:
            bounds: dict[int, tuple[float, float]] = {}
            for field, op, value in patom.constraints:
                low, high = bounds.get(_FIELD_INDEX[field], (-math.inf, math.inf))
                if op in ("=", ">="):
                    low = max(low, value)
                if op in ("=", "<="):
                    high = min(high, value)
                bounds[_FIELD_INDEX[field]] = (low, high)
            tests = tuple((i, lo, hi) for i, (lo, hi) in bounds.items())
            self._tests.append((patom.element, patom.class_, patom.aromatic, tests))
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
        # numpy finds whether a tree key embeds; only Python counts atom sets
        self.chunkable = all(threshold == 1 for _, threshold, _ in self.tree_keys)
        # the slots an atom kind (see atom_kind) satisfies, in one bounded
        # memo that both matchers read
        self.kind_slots = lru_cache(maxsize=4096)(self._matching_slots)

    def _linearize(self, node: PatternNode, parent: int, bond: str, out: list) -> None:
        slot = self._slot_of.setdefault(node.atom, len(self._slot_of))
        step = len(out)
        out.append((parent, bond, slot))
        for child_bond, child in node.children:
            self._linearize(child, step, child_bond, out)

    def _matching_slots(self, kind: tuple) -> tuple[int, ...]:
        symbol, aromatic = kind[0], kind[1]
        return tuple(
            slot
            for slot, (element, class_, want_aromatic, bounds) in enumerate(self._tests)
            if element in (None, symbol)
            and not (class_ == "X" and symbol not in _HALOGENS)
            and not (class_ == "Q" and symbol in ("C", "H"))
            and want_aromatic in (None, aromatic)
            and all(low <= kind[i] <= high for i, low, high in bounds)
        )

    def slot_atoms(self, mol: Molecule) -> list[int]:
        """Per slot, the bitset of atom indices that satisfy it."""
        by_kind: dict[tuple, int] = {}
        kinds = map(atom_kind, mol.atoms, map(len, mol.adjacency), mol.ring_bond_counts)
        for i, kind in enumerate(kinds):
            by_kind[kind] = by_kind.get(kind, 0) | (1 << i)
        out = [0] * self.n_slots
        for kind, atoms in by_kind.items():
            for slot in self.kind_slots(kind):
                out[slot] |= atoms
        return out

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

    @cached_property
    def chunk(self):
        """The numpy form of this table, which scores a fingerprint graph
        table (:mod:`chemtext.fingerprints.chunk`) at once; only a
        :attr:`chunkable` table has one."""
        if not self.chunkable:
            raise ValueError("the numpy key join cannot count tree-key embeddings")
        from chemtext.fingerprints.chunk import ChunkKeys

        return ChunkKeys(self)


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
    compiled = _CompiledTable([KeyDefinition(1, 1, pattern, source="")])
    kinds = [bond.symbol for bond in mol.bonds]
    return _count_embeddings(mol, kinds, compiled.slot_atoms(mol), compiled.steps[0], limit)


def matches(mol: Molecule, pattern: PatternNode) -> bool:
    return count_matches(mol, pattern, limit=1) >= 1
