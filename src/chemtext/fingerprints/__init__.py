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

Morgan and path fingerprints are computed in batches, and
:func:`morgan_fingerprint` and :func:`path_fingerprint` are batches of one.
:func:`morgan_fingerprints` hashes the strings of all its molecules in one
call per layer. :func:`path_fingerprints` walks the paths of a batch of
``_NUMPY_MIN_ATOMS`` atoms or more together in numpy, one bond at a time
across every molecule, carrying each walk's FNV-1a state; a smaller batch
walks each molecule alone and hashes the distinct encodings in one call.
One numpy FNV-1a column pass hashes the Morgan layers, the encodings and the
numpy walk's steps.

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
from itertools import chain
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

# Below this many atoms in a batch, walking each molecule alone in Python
# beats the numpy walk, whose cost per path length is fixed; on <=30-atom
# molecules the two cross near 18 atoms for one molecule, 22 for two and 26
# for three.
_NUMPY_MIN_ATOMS = 24

# The numpy path walk expands about this many steps at once (one atom's
# neighbors are never split), so it holds about one such block per path
# length, whatever the molecule.
_WALK_BLOCK_STEPS = 1 << 14

# bytes.translate table taking each UTF-8 byte b to b + 1 (UTF-8 never uses
# 0xFE or 0xFF): numpy ``S`` arrays drop trailing NULs, and shifted strings
# hold none and compare in the same order
_NO_NUL = bytes(range(1, 256)) + b"\xff"

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
        if self.bits and (min(self.bits) < 0 or max(self.bits) >= self.nbits):
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

    Fewer than ``_NUMPY_MIN_ROWS`` rows are hashed one at a time in Python;
    more go through :func:`_fnv1a64_columns` as a zero-padded byte matrix.
    """
    if not data or len(data) < _NUMPY_MIN_ROWS:
        return [fnv1a64(d) for d in data]
    import numpy as np

    lengths = np.array(list(map(len, data)))
    # numpy drops trailing NULs from each row, but the padding is NUL too
    matrix = np.array(data, dtype=f"S{max(int(lengths.max()), 1)}")
    hashes = np.full(len(data), _FNV_OFFSET, dtype=np.uint64)
    return _fnv1a64_columns(hashes, _byte_matrix(matrix), lengths).tolist()


def _byte_matrix(strings):
    """The bytes of a numpy ``S`` array as a uint8 matrix, one row each."""
    return strings.view("u1").reshape(len(strings), strings.dtype.itemsize)


def _fnv1a64_columns(hashes, matrix, lengths):
    """Continue the FNV-1a states ``hashes`` in place over the first
    ``lengths[i]`` bytes of row ``i`` of the uint8 ``matrix``, and return
    them; the one FNV-1a loop over numpy arrays.

    Every row takes the columns up to the shortest row's length, then the
    longer rows take the columns up to the next length, and so on, so there
    is one gather per distinct length and no sort. uint64 arithmetic wraps
    exactly like FNV-1a's mod 2**64.
    """
    import numpy as np

    prime = np.uint64(_FNV_PRIME)
    out = hashes
    rows = None  # indices into out of the rows still hashed; None for all
    done = 0  # columns hashed so far
    while len(hashes):
        shortest = int(lengths.min())
        for col in range(done, shortest):
            hashes ^= matrix[:, col]
            hashes *= prime
        if rows is not None:
            out[rows] = hashes
        if shortest == matrix.shape[1]:
            break
        done = shortest
        longer = np.flatnonzero(lengths > shortest)
        rows = longer if rows is None else rows[longer]
        hashes, matrix, lengths = hashes[longer], matrix.take(longer, axis=0), lengths[longer]
    return out


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
    hashed. Longer ``max_len`` yields a superset of bits. A batch of
    ``_NUMPY_MIN_ATOMS`` atoms or more walks the paths of all its molecules
    together, one bond at a time; a smaller one walks each molecule alone.
    """
    if max_len < 1:
        raise ValueError("max_len must be positive")
    if nbits <= 0:
        raise ValueError("nbits must be positive")
    for mol in mols:
        _require_valid(mol)
    if sum(len(mol.atoms) for mol in mols) < _NUMPY_MIN_ATOMS:
        found = _path_bits_one_at_a_time(mols, max_len, nbits)
    elif len(mols) > 1 and len(mols) * nbits > 1 << 64:
        # a (molecule, bit) key of this batch would not fit in 64 bits
        found = [bits for mol in mols for bits in _walk_paths([mol], max_len, nbits)]
    else:
        found = _walk_paths(mols, max_len, nbits)
    return [
        None if bits is None else BitFingerprint(scheme="path", nbits=nbits, bits=bits)
        for bits in found
    ]


def _path_bits_one_at_a_time(
    mols: Sequence[Molecule], max_len: int, nbits: int
) -> list[frozenset[int] | None]:
    """:func:`_walk_paths` by a recursive walk of each molecule; the distinct
    encodings of all the molecules are hashed in one call."""
    found = [_path_encodings(mol, max_len) for mol in mols]
    distinct = list(set().union(*(e for e in found if e is not None)))
    bit_of = dict(zip(distinct, (h % nbits for h in _fnv1a64_many([e.encode() for e in distinct]))))
    return [None if e is None else frozenset(map(bit_of.__getitem__, e)) for e in found]


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


def _walk_paths(
    mols: Sequence[Molecule], max_len: int, nbits: int
) -> list[frozenset[int] | None]:
    """The path bits of each molecule, or ``None`` over the path budget.

    One row is one walk: its atoms in order (start first), its forward and
    reverse renderings, and the FNV-1a state of the forward one. A step
    appends ``bond + atom`` to the forward rendering and prepends
    ``atom + bond`` to the reverse one. Every path is walked once from each
    end, and an end whose forward rendering is not the larger records its
    hash (a palindrome, the same hash from both ends). Rows are expanded a
    block at a time, deepest block first, so the walk holds about one block
    of ``_WALK_BLOCK_STEPS`` steps per path length, whatever the molecule.
    """
    import numpy as np

    codes: list[str] = []
    symbols: list[str] = []
    flat: list[int] = []  # per adjacency entry: neighbor, bond (molecule-local)
    degrees: list[int] = []
    sizes: list[tuple[int, int]] = []  # per molecule: atoms, bonds
    for mol in mols:
        codes += [a.symbol.lower() if a.aromatic else a.symbol for a in mol.atoms]
        symbols += [bond.symbol for bond in mol.bonds]
        degrees += map(len, mol.adjacency)
        flat += chain.from_iterable(chain.from_iterable(mol.adjacency))
        sizes.append((len(mol.atoms), len(mol.bonds)))
    if not symbols:
        return [frozenset() for _ in mols]
    n_mols, n_atoms = len(mols), len(codes)
    atom_counts, bond_counts = np.array(sizes).T
    atom_mol = np.repeat(np.arange(n_mols), atom_counts)
    entries = np.array(flat, dtype=np.intp).reshape(-1, 2)
    neighbor = entries[:, 0] + np.repeat(np.cumsum(atom_counts) - atom_counts, 2 * bond_counts)
    bond = entries[:, 1] + np.repeat(np.cumsum(bond_counts) - bond_counts, 2 * bond_counts)
    # each atom's neighbors and adjacency entries, padded to the widest atom
    # with the atom itself, which every walk from it has visited
    degree = np.array(degrees, dtype=np.intp)
    width = int(degree.max())
    owner = np.repeat(np.arange(n_atoms), degree)
    slot = np.arange(len(owner)) - np.repeat(np.cumsum(degree) - degree, degree)
    neighbors = np.repeat(np.arange(n_atoms, dtype=np.int32)[:, None], width, axis=1)
    neighbors[owner, slot] = neighbor
    steps = np.zeros((n_atoms, width), dtype=np.intp)
    steps[owner, slot] = np.arange(len(owner))
    # renderings hold UTF-8 shifted off NUL; hashes read the real bytes
    code_text = np.array([c.encode().translate(_NO_NUL) for c in codes])
    symbol_text = np.array([s.encode().translate(_NO_NUL) for s in symbols], dtype="S1")
    forward_steps = np.char.add(symbol_text[bond], code_text[neighbor])
    reverse_steps = np.char.add(code_text[neighbor], symbol_text[bond])
    step_bytes = _byte_matrix(forward_steps) - 1
    step_lengths = np.char.str_len(forward_steps)
    distinct = list(set(codes))
    hash_of = dict(zip(distinct, _fnv1a64_many([c.encode() for c in distinct])))
    start_hashes = np.array([hash_of[c] for c in codes], dtype=np.uint64)

    found: list = []  # (molecule, hash) arrays of recorded paths
    held, room = 0, _WALK_BLOCK_STEPS  # hashes held; how many before deduplicating
    walked = np.zeros(n_mols, dtype=np.int64)
    some_dead, dead = False, np.zeros(n_mols, dtype=bool)
    block = max(_WALK_BLOCK_STEPS // width, 1)
    # a path's atoms fill columns 0..bonds of its row
    starts = np.zeros((n_atoms, max_len + 1), dtype=np.int32)
    starts[:, 0] = np.arange(n_atoms)
    stack = [(0, starts, atom_mol, code_text, code_text, start_hashes)]
    while stack:
        bonds, path, row_mol, fwd, rev, hashes = stack.pop()
        if len(path) > block:
            rest = (path[block:], row_mol[block:], fwd[block:], rev[block:], hashes[block:])
            stack.append((bonds, *rest))
            path, row_mol, fwd, rev, hashes = (
                path[:block], row_mol[:block], fwd[:block], rev[:block], hashes[:block]
            )
        tails = path[:, bonds]
        nxt = neighbors.take(tails, axis=0)
        fresh = nxt != path[:, :1]
        for col in range(1, bonds + 1):
            fresh &= nxt != path[:, col:col + 1]
        if some_dead:
            fresh &= ~dead[row_mol][:, None]
        flat_at = np.flatnonzero(fresh)
        rows = flat_at // width
        edges = steps.take(tails, axis=0).take(flat_at)
        row_mol = row_mol[rows]
        walked += np.bincount(row_mol, minlength=n_mols)
        if walked.max() > _MAX_PATHS_WALKED:
            some_dead, dead = True, walked > _MAX_PATHS_WALKED
            alive = np.flatnonzero(~dead[row_mol])
            rows, edges, flat_at = rows[alive], edges[alive], flat_at[alive]
            row_mol = row_mol[alive]
        fwd = np.char.add(fwd[rows], forward_steps[edges])
        rev = np.char.add(reverse_steps[edges], rev[rows])
        hashes = _fnv1a64_columns(
            hashes[rows], step_bytes.take(edges, axis=0), step_lengths[edges]
        )
        record = fwd <= rev
        found.append((row_mol[record], hashes[record]))
        held += len(found[-1][0])
        if held > room:
            found = [_distinct_paths(found, nbits)]
            held = len(found[0][0])
            room = max(room, 2 * held)
        if bonds + 1 < max_len and len(rows):
            grown = path.take(rows, axis=0)
            grown[:, bonds + 1] = nxt.take(flat_at)
            stack.append((bonds + 1, grown, row_mol, fwd, rev, hashes))

    owner, bits = _distinct_paths(found, nbits)
    bits = bits.tolist()
    bounds = np.searchsorted(owner, np.arange(n_mols + 1)).tolist()
    return [
        None if gone else frozenset(bits[lo:hi])
        for gone, lo, hi in zip(dead.tolist(), bounds, bounds[1:])
    ]


def _distinct_paths(found, nbits):
    """The distinct (molecule, bit) pairs of ``found``, a list of (molecule,
    hash) array pairs, as two arrays sorted by molecule, then bit."""
    import numpy as np

    owner = np.concatenate([m for m, _ in found])
    hashes = np.concatenate([h for _, h in found])
    if nbits >= 1 << 64:  # one molecule (see path_fingerprints): bit = hash
        keys = hashes
    else:
        span = np.uint64(nbits)
        keys = owner.astype(np.uint64) * span + hashes % span
    keys.sort()
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))] if len(keys) else keys
    if nbits >= 1 << 64:
        return np.zeros(len(keys), dtype=np.intp), keys
    return (keys // span).astype(np.intp), keys % span


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
