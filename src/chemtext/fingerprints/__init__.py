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
One measured cutoff, ``_NUMPY_MIN_ATOMS`` atoms in the batch, decides for
all three schemes. Below it each molecule is scored alone in Python with
:func:`fnv1a64` and without numpy (the path walk is recursive and hashes as
it walks, Morgan hashes each atom's layer string, keys embed one pattern at
a time). From it on, the batch's graph table
(:class:`chemtext.fingerprints.chunk.GraphTable`: interned atoms, degrees,
ring-bond counts, bond ends and kinds, and a padded neighbor table, built in
one Python pass) feeds three numpy chunk kernels: the path walk goes one
bond at a time across every molecule, carrying each walk's FNV-1a state;
Morgan continues the FNV-1a state of every atom of a layer at once over its
payload bytes; the keys count slots per molecule and embed every tree key
of every molecule one pattern node at a time. The graph table and the key
and Morgan chunk kernels live in :mod:`chemtext.fingerprints.chunk`, which
is imported only for such a batch. A :class:`MoleculeBatch` handed to
several kernels builds its table once. A small batch also walks in numpy
when one of its molecules might pass the path budget, since the recursive
walk takes several times longer to reach it. One numpy FNV-1a
column pass hashes the Morgan layers and the numpy walk's steps.

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
from functools import cached_property
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
from chemtext.smiles.parse import Molecule

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
    if nbits <= 0:
        raise ValueError("nbits must be positive")
    batch = _as_batch(mols)
    if batch.in_numpy:
        from chemtext.fingerprints.chunk import morgan_bits

        found = morgan_bits(batch.table, radius, nbits)
    else:
        found = _morgan_bits_one_at_a_time(batch, radius, nbits)
    return [BitFingerprint(scheme="morgan", nbits=nbits, bits=bits) for bits in found]


def _morgan_bits_one_at_a_time(
    mols: Sequence[Molecule], radius: int, nbits: int
) -> list[frozenset[int]]:
    """The Morgan bits of each molecule, from its layer strings."""
    seeds: list[bytes] = []
    # per atom of the batch: (bond code + ":", batch index of the neighbor)
    neighbors: list[list[tuple[str, int]]] = []
    bounds = [0]
    for mol in mols:
        base = bounds[-1]
        codes = [":" if bond.aromatic else str(bond.order) for bond in mol.bonds]
        for a, entries in zip(mol.atoms, mol.adjacency):
            seeds.append(
                f"A|{a.symbol}|{int(a.aromatic)}|{a.charge}|{a.isotope or 0}"
                f"|{len(entries)}|{a.hydrogens}".encode()
            )
            neighbors.append([(codes[bi] + ":", base + j) for j, bi in entries])
        bounds.append(base + len(mol.atoms))
    layers = [list(map(fnv1a64, seeds))]
    for _ in range(radius):
        hexes = [f"{h:016x}" for h in layers[-1]]
        payloads = []
        for own, entries in zip(hexes, neighbors):
            # the hex is fixed-width, so sorting "code:hex" sorts (code, hash)
            parts = sorted([code + hexes[j] for code, j in entries])
            payloads.append(f"E|{own}|{'|'.join(parts)}".encode())
        layers.append(list(map(fnv1a64, payloads)))
    return [
        frozenset(h % nbits for layer in layers for h in layer[lo:hi])
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
    elif len(batch) > 1 and len(batch) * nbits > 1 << 64:
        # a (molecule, bit) key of this batch would not fit in 64 bits
        alone = (MoleculeBatch([mol]).table for mol in batch)
        found = [bits for table in alone for bits in _walk_paths(table, max_len, nbits)]
    else:
        found = _walk_paths(batch.table, max_len, nbits)
    return [
        None if bits is None else BitFingerprint(scheme="path", nbits=nbits, bits=bits)
        for bits in found
    ]


def _walk_bound(mol: Molecule, max_len: int) -> int:
    """An upper bound on the walk steps of ``mol``'s paths: from each of its
    n atoms, at most ``d * (d-1)**k`` walks of k+1 bonds, with d its highest
    degree. The sum stops growing once it passes the budget.

    A molecule whose bound passes the budget walks in numpy, which reaches
    the budget several times sooner than the recursive walk (the 10-atom
    clique: ~0.1 s against ~0.6 s)."""
    n = len(mol.atoms)
    d = max(map(len, mol.adjacency), default=0)
    if d <= 2:
        return n * d * (max_len if d == 2 else 1)
    total, term = 0, n * d
    for _ in range(max_len):
        total += term
        if total > _MAX_PATHS_WALKED:
            break
        term *= d - 1
    return total


def _path_bits(mol: Molecule, max_len: int, nbits: int) -> frozenset[int] | None:
    """The path bits of ``mol``, or ``None`` over the path budget.

    The walk starts at every atom, so each path is reached once from each
    end. It records paths by :func:`_walk_paths`' rule: a walk carries its
    forward and reverse renderings and the FNV-1a state of the forward one,
    a step continues that state over its ``bond + atom`` bytes, and an end
    whose forward rendering is not the larger records ``state % nbits``.
    Every step of the walk, in both directions, counts toward the budget.
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
    walked = 0

    def walk(tail: int, forward: str, backward: str, state: int, depth: int) -> None:
        # forward/backward render the path so far from either end, state is
        # the FNV-1a state of forward, depth its bond count
        nonlocal walked
        on_path[tail] = True
        depth += 1
        for nxt, forward_step, reverse_step, data in steps[tail]:
            if on_path[nxt]:
                continue
            walked += 1
            if walked > _MAX_PATHS_WALKED:
                raise FingerprintError("path enumeration budget exceeded")
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

    try:
        for start, code in enumerate(codes):
            walk(start, code, code, fnv1a64(code.encode()), 0)
    except FingerprintError:
        return None
    return frozenset(bits)


def _walk_paths(table: GraphTable, max_len: int, nbits: int) -> list[frozenset[int] | None]:
    """The path bits of each molecule of ``table``, or ``None`` over the
    path budget.

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

    n_mols, n_atoms = len(table.mols), table.n_atoms
    if not len(table.bond_kind):
        return [frozenset() for _ in range(n_mols)]
    # a simple path has fewer bonds than its molecule has atoms, so the rows
    # need be no wider than the largest molecule, whatever max_len is
    max_len = min(max_len, max(len(mol.atoms) for mol in table.mols) - 1)
    neighbors, steps, width = table.neighbors, table.entries, table.width
    neighbor, bond = table.entry_neighbor, table.entry_bond
    # renderings hold UTF-8 shifted off NUL; hashes read the real bytes
    codes = [a.symbol.lower() if a.aromatic else a.symbol for a in table.atoms]
    code_text = np.array([c.encode().translate(_NO_NUL) for c in codes])[table.atom_id]
    kind_text = np.array([s.encode().translate(_NO_NUL) for s in "-=#:"], dtype="S1")
    symbol_text = kind_text[table.bond_kind]
    forward_steps = np.char.add(symbol_text[bond], code_text[neighbor])
    reverse_steps = np.char.add(code_text[neighbor], symbol_text[bond])
    step_bytes = _byte_matrix(forward_steps) - 1
    step_lengths = np.char.str_len(forward_steps)
    start_hashes = np.array([fnv1a64(c.encode()) for c in codes], dtype=np.uint64)
    start_hashes = start_hashes[table.atom_id]

    found: list = []  # (molecule, hash) arrays of recorded paths
    held, room = 0, _WALK_BLOCK_STEPS  # hashes held; how many before deduplicating
    walked = np.zeros(n_mols, dtype=np.int64)
    some_dead, dead = False, np.zeros(n_mols, dtype=bool)
    block = max(_WALK_BLOCK_STEPS // width, 1)
    # a path's atoms fill columns 0..bonds of its row
    starts = np.zeros((n_atoms, max_len + 1), dtype=np.int32)
    starts[:, 0] = np.arange(n_atoms)
    stack = [(0, starts, table.atom_mol, code_text, code_text, start_hashes)]
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
    compiled = _compiled_keys(key_table)
    _require_valid(mol)
    return BitFingerprint(scheme="keys", nbits=compiled.nbits, bits=compiled.bits(mol))


def key_fingerprints(
    mols: Sequence[Molecule], key_table: Sequence[KeyDefinition] | None = None
) -> list[BitFingerprint]:
    """:func:`key_fingerprint` of each molecule, with the table compiled
    once. A batch of ``_NUMPY_MIN_ATOMS`` atoms or more is scored from its
    graph table in numpy, every key of every molecule together (see
    :mod:`chemtext.fingerprints.keys`); a smaller one one molecule at a
    time."""
    compiled = _compiled_keys(key_table)
    batch = _as_batch(mols)
    found = (
        compiled.chunk.bits(batch.table)
        if batch.in_numpy
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
