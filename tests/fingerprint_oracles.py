"""The fingerprint implementations of the first release, kept as reference
oracles.

The Morgan, path and key fingerprints below are the original straightforward
implementations (pure-Python FNV-1a per string, both path renderings per walk
step, one generic embedding per key). The package's kernels must give the
same bits; tests/test_fingerprint_kernels.py checks that they do.
"""

from __future__ import annotations

from typing import Sequence

from chemtext.fingerprints import BitFingerprint, FingerprintError, fnv1a64
from chemtext.fingerprints.keys import (
    KeyDefinition,
    KeyTableError,
    PatternAtom,
    PatternNode,
    default_key_table,
)
from chemtext.smiles.parse import Molecule
from chemtext.smiles.valence import validate

_HALOGENS = frozenset({"F", "Cl", "Br", "I"})
_MAX_PATHS_WALKED = 500_000


def _require_valid(mol: Molecule) -> None:
    result = validate(mol)
    if not result.valid:
        raise FingerprintError("; ".join(result.reasons))


def _atom_seed(mol: Molecule, i: int) -> str:
    a = mol.atoms[i]
    return (
        f"{a.symbol}|{int(a.aromatic)}|{a.charge}|{a.isotope or 0}"
        f"|{mol.degree(i)}|{a.hydrogens or 0}"
    )


def morgan_oracle(mol: Molecule, radius: int = 2, nbits: int = 2048) -> BitFingerprint:
    """Circular fingerprint.

    Layer 0 hashes the atom invariant string
    ``symbol|aromatic|charge|isotope|degree|hcount``; layer r hashes
    ``E|<own layer r-1 hash>|<sorted (bond code, neighbor layer r-1 hash)
    pairs>``. Every (atom, layer) hash sets bit ``hash % nbits``.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    _require_valid(mol)
    n = len(mol.atoms)
    current = [fnv1a64(f"A|{_atom_seed(mol, i)}".encode()) for i in range(n)]
    bits = {h % nbits for h in current}
    for _ in range(radius):
        nxt: list[int] = []
        for i in range(n):
            parts = sorted(
                (_bond_code_text(mol, bi), current[j]) for j, bi in mol.adjacency[i]
            )
            payload = f"E|{current[i]:016x}|" + "|".join(
                f"{code}:{h:016x}" for code, h in parts
            )
            nxt.append(fnv1a64(payload.encode()))
        current = nxt
        bits.update(h % nbits for h in current)
    return BitFingerprint(scheme="morgan", nbits=nbits, bits=frozenset(bits))


def _bond_code_text(mol: Molecule, bond_index: int) -> str:
    bond = mol.bonds[bond_index]
    return ":" if bond.aromatic else str(bond.order)


def path_oracle(mol: Molecule, max_len: int = 7, nbits: int = 2048) -> BitFingerprint:
    """Linear-path fingerprint.

    Enumerates simple paths of 1..max_len bonds. Each path is encoded as
    alternating atom and bond codes (aromatic atoms lowercase); the
    lexicographically smaller of the forward and reverse renderings is
    hashed. Longer ``max_len`` yields a superset of bits.
    """
    if max_len < 1:
        raise ValueError("max_len must be positive")
    _require_valid(mol)
    atom_code = [
        a.symbol.lower() if a.aromatic else a.symbol for a in mol.atoms
    ]
    bond_text = {bi: _path_bond_text(mol, bi) for bi in range(len(mol.bonds))}
    encodings: set[str] = set()
    walked = 0

    def walk(path_atoms: list[int], path_bonds: list[int]) -> None:
        nonlocal walked
        if path_bonds:
            walked += 1
            if walked > _MAX_PATHS_WALKED:
                raise FingerprintError("path enumeration budget exceeded")
            forward = _render_path(path_atoms, path_bonds, atom_code, bond_text)
            backward = _render_path(path_atoms[::-1], path_bonds[::-1], atom_code, bond_text)
            encodings.add(min(forward, backward))
        if len(path_bonds) == max_len:
            return
        tail = path_atoms[-1]
        on_path = set(path_atoms)
        for nxt, bi in mol.adjacency[tail]:
            if nxt in on_path:
                continue
            path_atoms.append(nxt)
            path_bonds.append(bi)
            walk(path_atoms, path_bonds)
            path_atoms.pop()
            path_bonds.pop()

    for start in range(len(mol.atoms)):
        walk([start], [])
    bits = frozenset(fnv1a64(e.encode()) % nbits for e in encodings)
    return BitFingerprint(scheme="path", nbits=nbits, bits=bits)


def _path_bond_text(mol: Molecule, bond_index: int) -> str:
    bond = mol.bonds[bond_index]
    if bond.aromatic:
        return ":"
    return {1: "-", 2: "=", 3: "#"}[bond.order]


def _render_path(atoms: list[int], bonds: list[int], atom_code, bond_text) -> str:
    parts = [atom_code[atoms[0]]]
    for atom, bond in zip(atoms[1:], bonds):
        parts.append(bond_text[bond])
        parts.append(atom_code[atom])
    return "".join(parts)


def key_oracle(
    mol: Molecule, key_table: Sequence[KeyDefinition] | None = None
) -> BitFingerprint:
    """Substructure-key fingerprint: bit ``id - 1`` is set iff the pattern
    matches at least its count threshold. With ``key_table`` omitted the
    shipped 166-entry table is used."""
    if key_table is None:
        key_table = default_key_table()
    table = list(key_table)
    if not table:
        raise KeyTableError("key table must be non-empty")
    _require_valid(mol)
    nbits = max(key.id for key in table)
    bits: set[int] = set()
    for key in table:
        if count_matches_oracle(mol, key.pattern, limit=key.count_threshold) >= key.count_threshold:
            bits.add(key.id - 1)
    return BitFingerprint(scheme="keys", nbits=nbits, bits=frozenset(bits))



# -- matching -----------------------------------------------------------------


def ring_bond_count(mol: Molecule, i: int) -> int:
    """Bonds of atom ``i`` that lie on a cycle."""
    return sum(1 for _, bi in mol.adjacency[i] if bi in mol.ring_bond_indices)


def _pattern_elements(node: PatternNode, out: list[str]) -> None:
    if node.atom.element is not None:
        out.append(node.atom.element)
    for _, child in node.children:
        _pattern_elements(child, out)


def _atom_matches(mol: Molecule, i: int, patom: PatternAtom) -> bool:
    atom = mol.atoms[i]
    if patom.element is not None and atom.symbol != patom.element:
        return False
    if patom.class_ == "X" and atom.symbol not in _HALOGENS:
        return False
    if patom.class_ == "Q" and atom.symbol in ("C", "H"):
        return False
    if patom.aromatic is not None and atom.aromatic != patom.aromatic:
        return False
    for field, op, value in patom.constraints:
        if field == "chg":
            have = atom.charge
        elif field == "rb":
            have = ring_bond_count(mol, i)
        elif field == "H":
            have = atom.hydrogens or 0
        else:  # deg
            have = mol.degree(i)
        if op == "=" and have != value:
            return False
        if op == ">=" and have < value:
            return False
        if op == "<=" and have > value:
            return False
    return True


def _bond_matches(mol: Molecule, bond_index: int, spec: str) -> bool:
    bond = mol.bonds[bond_index]
    if spec == "~":
        return True
    if spec == ":":
        return bond.aromatic
    if bond.aromatic:
        return False
    return bond.order == {"-": 1, "=": 2, "#": 3}[spec]


def count_matches_oracle(mol: Molecule, pattern: PatternNode, limit: int | None = None) -> int:
    """Number of distinct atom sets supporting an embedding of ``pattern``.

    ``limit`` allows early exit once that many distinct sets are found
    (thresholds only need "at least k").
    """
    needed: list[str] = []
    _pattern_elements(pattern, needed)
    if needed:
        present = {a.symbol for a in mol.atoms}
        if any(symbol not in present for symbol in needed):
            return 0
    found: set[frozenset[int]] = set()

    def stop() -> bool:
        return limit is not None and len(found) >= limit

    def embed(obligations: tuple, used: set[int]) -> bool:
        """Each obligation is (node, mapped atom, next child index). Returns
        True once ``limit`` distinct embeddings were recorded."""
        if not obligations:
            found.add(frozenset(used))
            return stop()
        node, atom_index, child_pos = obligations[-1]
        if child_pos == len(node.children):
            return embed(obligations[:-1], used)
        bond_spec, child = node.children[child_pos]
        advanced = obligations[:-1] + ((node, atom_index, child_pos + 1),)
        for neighbor, bond_index in mol.adjacency[atom_index]:
            if neighbor in used:
                continue
            if not _bond_matches(mol, bond_index, bond_spec):
                continue
            if not _atom_matches(mol, neighbor, child.atom):
                continue
            used.add(neighbor)
            done = embed(advanced + ((child, neighbor, 0),), used)
            used.discard(neighbor)
            if done:
                return True
        return False

    for root in range(len(mol.atoms)):
        if not _atom_matches(mol, root, pattern.atom):
            continue
        if embed(((pattern, root, 0),), {root}):
            break
    return len(found)


def matches_oracle(mol: Molecule, pattern: PatternNode) -> bool:
    return count_matches_oracle(mol, pattern, limit=1) >= 1
