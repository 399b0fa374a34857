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

Every scheme has a batch kernel (:func:`morgan_fingerprints`,
:func:`path_fingerprints`, :func:`key_fingerprints`), and
:func:`morgan_fingerprint` and :func:`path_fingerprint` are batches of one.
Each kernel scores a batch one of two ways, and one measured cutoff,
``_NUMPY_MIN_ATOMS`` atoms in the batch, decides for all three schemes:

- Below it, each molecule is scored alone in Python by this module's
  function for the scheme (:func:`_morgan_bits`, :func:`_path_bits`, the
  compiled key table's ``bits``), hashing with :func:`fnv1a64`, and numpy
  is never imported.
- From it on, the batch's graph table feeds the scheme's numpy function in
  :mod:`chemtext.fingerprints.chunk`, which only such a batch imports. A
  :class:`MoleculeBatch` handed to several kernels builds its table once.

A small batch also walks its paths in numpy when one of its molecules might
pass the path budget (see :func:`_walk_bound`): only the numpy walk counts
steps. The recursive walk receives only molecules whose bound is within the
budget, so it counts nothing. :func:`key_fingerprint` always
scores its one molecule in Python, and so does every batch of a key table
with a tree key counted past one: numpy finds whether a tree key embeds,
and only the Python embedder counts atom sets.

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
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Sequence

from chemtext.errors import ChemtextError
from chemtext.fingerprints.keys import (
    KeyDefinition,
    KeyTable,
    KeyTableError,
    default_key_table,
    load_key_table,
    parse_pattern,
)
from chemtext.smiles.parse import Atom, Molecule

if TYPE_CHECKING:
    from chemtext.fingerprints.chunk import GraphTable

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

# Simple-path enumeration is exponential in principle; valence bounds keep
# real molecules tame, but unknown bracket elements have unchecked degree.
_MAX_PATHS_WALKED = 500_000

# Below this many atoms in a batch, each scheme scores each molecule alone in
# Python; from it on, the batch's graph table goes through the numpy chunk
# kernels, whose cost per path length, Morgan layer or key-tree level is fixed.
# On batches of 1-3 <=30-atom molecules, the three schemes together (one table
# built) take 1.25x the Python time at 16-23 atoms, 0.95x at 24-31 and 0.84x
# at 32-39.
_NUMPY_MIN_ATOMS = 24

# The largest Morgan radius accepted. Each layer hashes every atom again, so
# the radius bounds the work; 64 is far above any radius in use (default 2).
MORGAN_MAX_RADIUS = 64

# scheme names :func:`fingerprint` accepts
SCHEMES = ("morgan", "path", "keys")


class FingerprintError(ChemtextError):
    """Fingerprint requested for an invalid molecule."""


class SchemeMismatchError(ChemtextError):
    """Tanimoto between fingerprints of different scheme or width."""


@dataclass(frozen=True)
class FingerprintConfig:
    """Parameters of the three schemes, as :func:`fingerprint` applies them.
    A ``key_table`` is stored as a :class:`KeyTable`, so it compiles once."""

    radius: int = 2
    nbits: int = 2048
    path_max_len: int = 7
    key_table: tuple[KeyDefinition, ...] | None = None

    def __post_init__(self) -> None:
        if self.key_table is not None and not isinstance(self.key_table, KeyTable):
            object.__setattr__(self, "key_table", KeyTable(self.key_table))  # frozen


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
        if self.bits and (min(self.bits) < 0 or max(self.bits) >= self.nbits):
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


class MoleculeBatch(tuple):
    """Molecules fingerprinted together, each checked valid once.

    The batch kernels take any sequence of molecules. A batch passed to
    several of them builds its graph table
    (:class:`chemtext.fingerprints.chunk.GraphTable`) once, on the first
    call that scores in numpy, and the others read it.
    """

    def __new__(cls, mols: Sequence[Molecule] = ()) -> MoleculeBatch:
        batch = super().__new__(cls, mols)
        for mol in batch:
            _require_valid(mol)
        return batch

    @cached_property
    def in_numpy(self) -> bool:
        """Whether the batch has the ``_NUMPY_MIN_ATOMS`` atoms from which
        every scheme scores it in numpy."""
        return sum(len(mol.atoms) for mol in self) >= _NUMPY_MIN_ATOMS

    @cached_property
    def table(self) -> GraphTable:
        from chemtext.fingerprints.chunk import GraphTable

        return GraphTable(self)


def _as_batch(mols: Sequence[Molecule]) -> MoleculeBatch:
    return mols if isinstance(mols, MoleculeBatch) else MoleculeBatch(mols)


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
    hash sets bit ``hash % nbits``. A batch of ``_NUMPY_MIN_ATOMS`` atoms
    or more continues the FNV-1a state of every atom of a layer at once in
    numpy; a smaller one hashes each atom's layer string alone.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if radius > MORGAN_MAX_RADIUS:
        raise ValueError(f"radius must be at most {MORGAN_MAX_RADIUS}, got {radius}")
    if nbits <= 0:
        raise ValueError("nbits must be positive")
    batch = _as_batch(mols)
    if batch.in_numpy:
        from chemtext.fingerprints.chunk import morgan_bits

        found = morgan_bits(batch.table, radius, nbits)
    else:
        found = [_morgan_bits(mol, radius, nbits) for mol in batch]
    return [BitFingerprint(scheme="morgan", nbits=nbits, bits=bits) for bits in found]


@lru_cache(maxsize=4096)
def _morgan_seed(atom: Atom, degree: int) -> int:
    """The layer-0 hash of ``atom`` with ``degree`` bonds, kept across
    molecules and batches in a bounded memo."""
    return fnv1a64(
        f"A|{atom.symbol}|{int(atom.aromatic)}|{atom.charge}|{atom.isotope or 0}"
        f"|{degree}|{atom.hydrogens}".encode()
    )


def _morgan_bits(mol: Molecule, radius: int, nbits: int) -> frozenset[int]:
    """The Morgan bits of ``mol``, from its layer strings."""
    codes = [":" if bond.aromatic else str(bond.order) for bond in mol.bonds]
    # per atom: (bond code + ":", neighbor)
    neighbors = [[(codes[bi] + ":", j) for j, bi in entries] for entries in mol.adjacency]
    hashes = [_morgan_seed(a, len(entries)) for a, entries in zip(mol.atoms, mol.adjacency)]
    bits = {h % nbits for h in hashes}
    for _ in range(radius):
        hexes = [f"{h:016x}" for h in hashes]
        payloads = []
        for own, entries in zip(hexes, neighbors):
            # the hex is fixed-width, so sorting "code:hex" sorts (code, hash)
            parts = sorted([code + hexes[j] for code, j in entries])
            payloads.append(f"E|{own}|{'|'.join(parts)}".encode())
        hashes = list(map(fnv1a64, payloads))
        bits.update(h % nbits for h in hashes)
    return frozenset(bits)


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
    hashed. Longer ``max_len`` yields a superset of bits. A batch of
    ``_NUMPY_MIN_ATOMS`` atoms or more walks the paths of all its molecules
    together, one bond at a time; so does a batch holding a molecule whose
    walk might pass the budget (see :func:`_walk_bound`). Any other batch
    walks each molecule alone, recursively.
    """
    if max_len < 1:
        raise ValueError("max_len must be positive")
    if nbits <= 0:
        raise ValueError("nbits must be positive")
    batch = _as_batch(mols)
    if not batch.in_numpy and all(_walk_bound(m, max_len) <= _MAX_PATHS_WALKED for m in batch):
        found = [_path_bits(mol, max_len, nbits) for mol in batch]
    else:
        from chemtext.fingerprints.chunk import path_bits

        found = path_bits(batch.table, max_len, nbits)
    return [
        None if bits is None else BitFingerprint(scheme="path", nbits=nbits, bits=bits)
        for bits in found
    ]


def _walk_bound(mol: Molecule, max_len: int) -> int:
    """An upper bound on the walk steps of ``mol``'s paths: from each of its
    n atoms, at most ``d * (d-1)**k`` walks of k+1 bonds, with d its highest
    degree, up to ``min(max_len, n - 1)`` bonds. The sum stops growing once
    it passes the budget.

    A molecule whose bound passes the budget walks in numpy, the one walk
    that counts its steps against the budget."""
    n = len(mol.atoms)
    max_len = min(max_len, n - 1)  # a simple path has fewer bonds than atoms
    d = max(map(len, mol.adjacency), default=0)
    total, term = 0, n * d
    for _ in range(max_len):
        total += term
        if total > _MAX_PATHS_WALKED:
            break
        term *= d - 1
    return total


def _path_bits(mol: Molecule, max_len: int, nbits: int) -> frozenset[int]:
    """The path bits of ``mol``.

    The walk starts at every atom, so each path is reached once from each
    end. It records paths by the numpy walk's rule
    (:func:`chemtext.fingerprints.chunk.path_bits`): a walk carries its
    forward and reverse renderings and the FNV-1a state of the forward one,
    a step continues that state over its ``bond + atom`` bytes, and an end
    whose forward rendering is not the larger records ``state % nbits``.
    It counts nothing: :func:`path_fingerprints` hands it only molecules
    whose :func:`_walk_bound`, never below their step count, is within the
    budget.
    """
    codes = [a.symbol.lower() if a.aromatic else a.symbol for a in mol.atoms]
    bond_text = [bond.symbol for bond in mol.bonds]
    # per atom, each step: (neighbor, bond + atom, atom + bond, bond + atom bytes)
    steps: list[list[tuple[int, str, str, bytes]]] = []
    for neighbors in mol.adjacency:
        steps.append([])
        for j, bi in neighbors:
            bond, atom = bond_text[bi], codes[j]
            steps[-1].append((j, bond + atom, atom + bond, (bond + atom).encode()))
    on_path = [False] * len(codes)
    bits: set[int] = set()
    add = bits.add

    def walk(tail: int, forward: str, backward: str, state: int, depth: int) -> None:
        # forward/backward render the path so far from either end, state is
        # the FNV-1a state of forward, depth its bond count
        on_path[tail] = True
        depth += 1
        for nxt, forward_step, reverse_step, data in steps[tail]:
            if on_path[nxt]:
                continue
            f = forward + forward_step
            r = reverse_step + backward
            h = state
            for byte in data:
                h = ((h ^ byte) * _FNV_PRIME) & _MASK64
            if f <= r:
                add(h % nbits)
            if depth < max_len:
                walk(nxt, f, r, h, depth)
        on_path[tail] = False

    for start, code in enumerate(codes):
        walk(start, code, code, fnv1a64(code.encode()), 0)
    return frozenset(bits)


def key_fingerprint(
    mol: Molecule, key_table: Sequence[KeyDefinition] | None = None
) -> BitFingerprint:
    """Substructure-key fingerprint: bit ``id - 1`` is set iff the pattern
    matches at least its count threshold. With ``key_table`` omitted the
    shipped 166-entry table is used. A :class:`KeyTable` (what
    :func:`load_key_table` returns) is compiled once; any other sequence is
    compiled on every call."""
    compiled = _compiled_keys(key_table)
    _require_valid(mol)
    return BitFingerprint(scheme="keys", nbits=compiled.nbits, bits=compiled.bits(mol))


def key_fingerprints(
    mols: Sequence[Molecule], key_table: Sequence[KeyDefinition] | None = None
) -> list[BitFingerprint]:
    """:func:`key_fingerprint` of each molecule, with the table compiled
    once. A batch of ``_NUMPY_MIN_ATOMS`` atoms or more is scored in numpy
    from its graph table unless a tree key is counted past one (see
    :mod:`chemtext.fingerprints.keys`); any other one molecule at a time."""
    compiled = _compiled_keys(key_table)
    batch = _as_batch(mols)
    found = (
        compiled.chunk.bits(batch.table)
        if batch.in_numpy and compiled.chunkable
        else [compiled.bits(mol) for mol in batch]
    )
    return [BitFingerprint(scheme="keys", nbits=compiled.nbits, bits=bits) for bits in found]


def _compiled_keys(key_table: Sequence[KeyDefinition] | None):
    if key_table is None:
        key_table = default_key_table()
    table = key_table if isinstance(key_table, KeyTable) else KeyTable(key_table)
    if not table:
        raise KeyTableError("key table must be non-empty")
    return table.compiled


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
    "MORGAN_MAX_RADIUS",
    "MoleculeBatch",
    "SCHEMES",
    "SchemeMismatchError",
    "default_key_table",
    "fingerprint",
    "fnv1a64",
    "key_fingerprint",
    "key_fingerprints",
    "load_key_table",
    "morgan_fingerprint",
    "morgan_fingerprints",
    "parse_pattern",
    "path_fingerprint",
    "path_fingerprints",
    "tanimoto",
]
