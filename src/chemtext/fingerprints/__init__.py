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

Morgan and path fingerprints are computed in batches:
:func:`morgan_fingerprints` and :func:`path_fingerprints` hash the strings
of all their molecules in one call per Morgan layer and one for all path
encodings, and :func:`morgan_fingerprint` and :func:`path_fingerprint` are
batches of one.

Four rules hold across releases:

- Bits are stable. A faster kernel must set exactly the bits of the
  reference implementations kept in ``tests/fingerprint_oracles.py``.
- A batch sets exactly the bits of one molecule at a time: each
  molecule's fingerprint is the one it gets alone, whatever else is in
  the batch.
- Bits depend on the molecule, not on how it was written. Molecules with
  equal canonical SMILES have equal fingerprints in every scheme, and hit
  the path budget together; text2mol evaluation fingerprints only the
  reference of an exact-match pair because of this.
- The path budget is an operation count, not a time, counted per
  molecule. Every one-bond extension of a walk counts, and every path is
  walked from both of its ends, so a molecule uses twice its number of
  simple paths of 1..max_len bonds. A molecule over ``_MAX_PATHS_WALKED``
  gets ``None`` from :func:`path_fingerprints`, without raising for the
  rest of its batch, and :class:`FingerprintError` from
  :func:`path_fingerprint`, on every machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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

# Below this many rows, hashing each in Python beats one numpy pass; the two
# cross near 30 rows on both Morgan payloads (~57 bytes) and path encodings
# (~11 bytes) of <=30-atom molecules.
_NUMPY_MIN_ROWS = 32

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


def _fnv1a64_many(data: list[bytes]) -> list[int]:
    """``[fnv1a64(d) for d in data]``, in one numpy pass when that is faster.

    Fewer than ``_NUMPY_MIN_ROWS`` rows are hashed one at a time in Python.
    Otherwise the rows, longest first, are packed into a zero-padded byte
    matrix and hashed a column at a time over the rows still that long;
    uint64 arithmetic wraps exactly like FNV-1a's mod 2**64.
    """
    if not data or len(data) < _NUMPY_MIN_ROWS:
        return [fnv1a64(d) for d in data]
    import numpy as np

    order = sorted(range(len(data)), key=lambda k: len(data[k]), reverse=True)
    rows = [data[k] for k in order]
    width = len(rows[0])
    matrix = np.array(rows, dtype=f"S{max(width, 1)}").view(np.uint8).reshape(len(rows), -1)
    hashes = np.full(len(rows), _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    live = len(rows)
    for col in range(width):
        while len(rows[live - 1]) <= col:
            live -= 1
        head = hashes[:live]
        head ^= matrix[:live, col]
        head *= prime
    out = np.empty_like(hashes)
    out[order] = hashes
    return out.tolist()


def _require_valid(mol: Molecule) -> None:
    if not mol.validity.valid:
        raise FingerprintError("; ".join(mol.validity.reasons))


def morgan_fingerprint(mol: Molecule, radius: int = 2, nbits: int = 2048) -> BitFingerprint:
    """:func:`morgan_fingerprints` of one molecule."""
    return morgan_fingerprints([mol], radius, nbits)[0]


def morgan_fingerprints(
    mols: Sequence[Molecule], radius: int = 2, nbits: int = 2048
) -> list[BitFingerprint]:
    """Circular fingerprints, one per molecule.

    Layer 0 hashes the atom invariant string
    ``A|symbol|aromatic|charge|isotope|degree|hcount``; layer r hashes
    ``E|<own layer r-1 hash>|<sorted (bond code, neighbor layer r-1 hash)
    pairs>``, each pair written ``code:hash`` with the hash as 16 hex digits
    and the bond code ``:`` (aromatic) or the order. Every (atom, layer)
    hash sets bit ``hash % nbits``. Each layer of all the molecules is
    hashed in one call.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if nbits <= 0:
        raise ValueError("nbits must be positive")
    seeds: list[bytes] = []
    # per atom of the batch: (bond code + ":", batch index of the neighbor)
    neighbors: list[list[tuple[str, int]]] = []
    bounds = [0]
    for mol in mols:
        _require_valid(mol)
        base = bounds[-1]
        codes = [":" if bond.aromatic else str(bond.order) for bond in mol.bonds]
        for a, entries in zip(mol.atoms, mol.adjacency):
            seeds.append(
                f"A|{a.symbol}|{int(a.aromatic)}|{a.charge}|{a.isotope or 0}"
                f"|{len(entries)}|{a.hydrogens}".encode()
            )
            neighbors.append([(codes[bi] + ":", base + j) for j, bi in entries])
        bounds.append(base + len(mol.atoms))
    layers = [_fnv1a64_many(seeds)]
    for _ in range(radius):
        hexes = [f"{h:016x}" for h in layers[-1]]
        payloads = []
        for own, entries in zip(hexes, neighbors):
            # the hex is fixed-width, so sorting "code:hex" sorts (code, hash)
            parts = sorted([code + hexes[j] for code, j in entries])
            payloads.append(f"E|{own}|{'|'.join(parts)}".encode())
        layers.append(_fnv1a64_many(payloads))
    return [
        BitFingerprint(
            scheme="morgan",
            nbits=nbits,
            bits=frozenset(h % nbits for layer in layers for h in layer[lo:hi]),
        )
        for lo, hi in zip(bounds, bounds[1:])
    ]


def path_fingerprint(mol: Molecule, max_len: int = 7, nbits: int = 2048) -> BitFingerprint:
    """:func:`path_fingerprints` of one molecule; a molecule over the path
    budget raises :class:`FingerprintError`."""
    (fp,) = path_fingerprints([mol], max_len, nbits)
    if fp is None:
        raise FingerprintError("path enumeration budget exceeded")
    return fp


def path_fingerprints(
    mols: Sequence[Molecule], max_len: int = 7, nbits: int = 2048
) -> list[BitFingerprint | None]:
    """Linear-path fingerprints, one per molecule, or ``None`` for a
    molecule over the path budget.

    Enumerates simple paths of 1..max_len bonds. Each path is encoded as
    alternating atom and bond codes (aromatic atoms lowercase); the
    lexicographically smaller of the forward and reverse renderings is
    hashed. Longer ``max_len`` yields a superset of bits. The distinct
    encodings of all the molecules are hashed in one call.
    """
    if max_len < 1:
        raise ValueError("max_len must be positive")
    if nbits <= 0:
        raise ValueError("nbits must be positive")
    for mol in mols:
        _require_valid(mol)
    found = [_path_encodings(mol, max_len) for mol in mols]
    distinct = list(set().union(*(e for e in found if e is not None)))
    bit_of = dict(zip(distinct, (h % nbits for h in _fnv1a64_many([e.encode() for e in distinct]))))
    return [
        None if e is None
        else BitFingerprint(scheme="path", nbits=nbits, bits=frozenset(map(bit_of.__getitem__, e)))
        for e in found
    ]


def _path_encodings(mol: Molecule, max_len: int) -> set[str] | None:
    """The path encodings of ``mol``, or ``None`` over the path budget.

    The walk starts at every atom, so each path is reached once from each
    end; both renderings are grown one step at a time and a path is recorded
    from the end with the lower atom index. Every step of the walk, in both
    directions, counts toward the budget.
    """
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

    try:
        for start, code in enumerate(atom_code):
            walk(start, start, code, code, 0)
    except FingerprintError:
        return None
    return encodings


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
    "morgan_fingerprints",
    "parse_pattern",
    "path_fingerprint",
    "path_fingerprints",
    "tanimoto",
]
