"""Molecular bit fingerprints and Tanimoto similarity.

Three schemes back the corpus-level fingerprint-similarity metrics;
:func:`fingerprint` applies one by name with the parameters of a
:class:`FingerprintConfig`:

- ``morgan``: circular environments up to a radius, one bit per hashed
  environment (folded modulo ``nbits``)
- ``path``: linear simple paths of 1..max_len bonds, hashed on the
  lexicographically smaller of the forward/reverse element+bond encodings
- ``keys``: a fixed table of substructure questions, one bit per key
  (see :mod:`chemtext.fingerprints.keys`)

No bit-for-bit parity with any external toolkit is claimed; the schemes are
pinned by the hashing and encoding rules in this module so fingerprints are
stable across platforms and releases. The hash is 64-bit FNV-1a over the
UTF-8 serialization spelled out in each function.

Three rules hold across releases:

- Bits are stable. A faster kernel must set exactly the bits of the
  reference implementations kept in ``tests/fingerprint_oracles.py``.
- Bits depend on the molecule, not on how it was written. Molecules with
  equal canonical SMILES have equal fingerprints in every scheme, and hit
  the path budget together; text2mol evaluation fingerprints only the
  reference of an exact-match pair because of this.
- The path budget is an operation count, not a time. Every one-bond
  extension of a walk counts, and every path is walked from both of its
  ends, so a molecule uses twice its number of simple paths of 1..max_len
  bonds. More than ``_MAX_PATHS_WALKED`` raises :class:`FingerprintError`
  on every machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from chemtext.errors import ChemtextError
from chemtext.fingerprints.keys import (
    KeyDefinition,
    KeyTable,
    KeyTableError,
    default_key_table,
    load_key_table,
    parse_pattern,
)
from chemtext.smiles.parse import Molecule

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

# Simple-path enumeration is exponential in principle; valence bounds keep
# real molecules tame, but unknown bracket elements have unchecked degree.
_MAX_PATHS_WALKED = 500_000

# scheme names :func:`fingerprint` accepts
SCHEMES = ("morgan", "path", "keys")


class FingerprintError(ChemtextError):
    """Fingerprint requested for an invalid molecule."""


class SchemeMismatchError(ChemtextError):
    """Tanimoto between fingerprints of different scheme or width."""


@dataclass(frozen=True)
class FingerprintConfig:
    """Parameters of the three schemes, as :func:`fingerprint` applies them."""

    radius: int = 2
    nbits: int = 2048
    path_max_len: int = 7
    key_table: tuple[KeyDefinition, ...] | None = None


@dataclass(frozen=True)
class BitFingerprint:
    """Fixed-width bit vector tagged with its scheme.

    Two fingerprints are comparable only if both ``scheme`` and ``nbits``
    match. ``bits`` holds the set bit indices, all < ``nbits``.
    """

    scheme: str
    nbits: int
    bits: frozenset[int]

    def __post_init__(self) -> None:
        if self.nbits <= 0:
            raise ValueError("nbits must be positive")
        if any(b < 0 or b >= self.nbits for b in self.bits):
            raise ValueError("bit index out of range")


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a, the fixed fingerprint hash."""
    value = _FNV_OFFSET
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & _MASK64
    return value


def _require_valid(mol: Molecule) -> None:
    if not mol.validity.valid:
        raise FingerprintError("; ".join(mol.validity.reasons))


def _atom_seed(mol: Molecule, i: int) -> str:
    a = mol.atoms[i]
    return (
        f"{a.symbol}|{int(a.aromatic)}|{a.charge}|{a.isotope or 0}"
        f"|{mol.degree(i)}|{a.hydrogens}"
    )


def morgan_fingerprint(mol: Molecule, radius: int = 2, nbits: int = 2048) -> BitFingerprint:
    """Circular fingerprint.

    Layer 0 hashes the atom invariant string
    ``symbol|aromatic|charge|isotope|degree|hcount``; layer r hashes
    ``E|<own layer r-1 hash>|<sorted (bond code, neighbor layer r-1 hash)
    pairs>``. Every (atom, layer) hash sets bit ``hash % nbits``.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if nbits <= 0:
        raise ValueError("nbits must be positive")
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


def path_fingerprint(mol: Molecule, max_len: int = 7, nbits: int = 2048) -> BitFingerprint:
    """Linear-path fingerprint.

    Enumerates simple paths of 1..max_len bonds. Each path is encoded as
    alternating atom and bond codes (aromatic atoms lowercase); the
    lexicographically smaller of the forward and reverse renderings is
    hashed. Longer ``max_len`` yields a superset of bits.

    The walk starts at every atom, so each path is reached once from each
    end; both renderings are grown one step at a time and a path is recorded
    from the end with the lower atom index. Every step of the walk, in both
    directions, counts toward the path budget.
    """
    if max_len < 1:
        raise ValueError("max_len must be positive")
    if nbits <= 0:
        raise ValueError("nbits must be positive")
    _require_valid(mol)
    atom_code = [
        a.symbol.lower() if a.aromatic else a.symbol for a in mol.atoms
    ]
    bond_text = [bond.symbol for bond in mol.bonds]
    steps = [
        tuple((j, bond_text[bi], atom_code[j]) for j, bi in neighbors)
        for neighbors in mol.adjacency
    ]
    on_path = [False] * len(mol.atoms)
    encodings: set[str] = set()
    add = encodings.add
    walked = 0

    def walk(start: int, tail: int, forward: str, backward: str, depth: int) -> None:
        # forward/backward render the path start..tail from either end;
        # depth is its bond count
        nonlocal walked
        on_path[tail] = True
        depth += 1
        for nxt, bond, atom in steps[tail]:
            if on_path[nxt]:
                continue
            walked += 1
            if walked > _MAX_PATHS_WALKED:
                raise FingerprintError("path enumeration budget exceeded")
            f = forward + bond + atom
            r = atom + bond + backward
            if start < nxt:
                add(f if f < r else r)
            if depth < max_len:
                walk(start, nxt, f, r, depth)
        on_path[tail] = False

    for start, code in enumerate(atom_code):
        walk(start, start, code, code, 0)
    return BitFingerprint(scheme="path", nbits=nbits, bits=_hashed_bits(encodings, nbits))


def _hashed_bits(texts: Iterable[str], nbits: int) -> frozenset[int]:
    """``{fnv1a64(t.encode()) % nbits for t in texts}`` in one numpy pass.

    The strings, longest first, are packed into a zero-padded byte matrix
    and hashed a column at a time over the rows still that long; uint64
    arithmetic wraps exactly like FNV-1a's mod 2**64.
    """
    import numpy as np

    data = sorted((t.encode() for t in texts), key=len, reverse=True)
    if not data:
        return frozenset()
    hashes = np.full(len(data), _FNV_OFFSET, dtype=np.uint64)
    width = len(data[0])
    matrix = np.array(data, dtype=f"S{max(width, 1)}").view(np.uint8).reshape(len(data), -1)
    prime = np.uint64(_FNV_PRIME)
    live = len(data)
    for col in range(width):
        while len(data[live - 1]) <= col:
            live -= 1
        rows = hashes[:live]
        rows ^= matrix[:live, col]
        rows *= prime
    return frozenset(h % nbits for h in hashes.tolist())


def key_fingerprint(
    mol: Molecule, key_table: Sequence[KeyDefinition] | None = None
) -> BitFingerprint:
    """Substructure-key fingerprint: bit ``id - 1`` is set iff the pattern
    matches at least its count threshold. With ``key_table`` omitted the
    shipped 166-entry table is used. A :class:`KeyTable` (what
    :func:`load_key_table` returns) is compiled once; any other sequence is
    compiled on every call."""
    if key_table is None:
        key_table = default_key_table()
    table = key_table if isinstance(key_table, KeyTable) else KeyTable(key_table)
    if not table:
        raise KeyTableError("key table must be non-empty")
    _require_valid(mol)
    compiled = table.compiled
    return BitFingerprint(scheme="keys", nbits=compiled.nbits, bits=compiled.bits(mol))


def fingerprint(
    mol: Molecule, scheme: str, config: FingerprintConfig = FingerprintConfig()
) -> BitFingerprint:
    """The ``morgan``, ``path`` or ``keys`` fingerprint of ``mol`` with the
    parameters of ``config`` (``keys`` uses only its key table)."""
    if scheme == "morgan":
        return morgan_fingerprint(mol, config.radius, config.nbits)
    if scheme == "path":
        return path_fingerprint(mol, config.path_max_len, config.nbits)
    if scheme == "keys":
        return key_fingerprint(mol, config.key_table)
    raise ValueError(f"unknown fingerprint scheme {scheme!r}")


def tanimoto(a: BitFingerprint, b: BitFingerprint) -> float:
    """|A intersect B| / |A union B|; 0.0 when both sets are empty (the 0/0
    case is pinned to zero, matching common toolkit behavior)."""
    if a.scheme != b.scheme or a.nbits != b.nbits:
        raise SchemeMismatchError(
            f"cannot compare {a.scheme}/{a.nbits} with {b.scheme}/{b.nbits}"
        )
    union = len(a.bits | b.bits)
    if union == 0:
        return 0.0
    return len(a.bits & b.bits) / union


__all__ = [
    "BitFingerprint",
    "FingerprintConfig",
    "FingerprintError",
    "KeyDefinition",
    "KeyTable",
    "KeyTableError",
    "SCHEMES",
    "SchemeMismatchError",
    "default_key_table",
    "fingerprint",
    "fnv1a64",
    "key_fingerprint",
    "load_key_table",
    "morgan_fingerprint",
    "parse_pattern",
    "path_fingerprint",
    "tanimoto",
]
