"""The numpy chunk kernels: one graph table per batch of molecules, read by
the key, path and Morgan fingerprints.

:mod:`chemtext.fingerprints` imports this module only for a batch of
``_NUMPY_MIN_ATOMS`` atoms or more, so commands that never fingerprint such
a batch neither compile it nor import numpy. Every kernel must set exactly
the bits of its one-molecule-at-a-time form and of the references kept in
``tests/fingerprint_oracles.py``.

- :class:`GraphTable` holds the batch's atoms and bonds as arrays, built in
  one Python pass.
- :func:`path_bits` walks every path of every molecule one bond at a time,
  carrying each walk's renderings and FNV-1a state, and stops a molecule's
  walk at the path budget without touching the rest of the batch.
- :func:`morgan_bits` continues the FNV-1a state of every atom of a layer
  at once over that layer's payload bytes.
- :class:`ChunkKeys`, the numpy form of a compiled key table, counts atom
  and bond keys as per-molecule sums over one slot matrix and finds, in one
  level-synchronous join, whether each tree key embeds in each molecule
  (counting atom sets is left to the Python embedder).

The path walk and the tree-key join expand a block of about
``_BLOCK_STEPS`` rows at a time, deepest block first, so each holds about
one block per path length or pattern node, whatever the molecule. One
FNV-1a column pass, :func:`_fnv1a64_columns`, hashes the path steps and the
Morgan layers.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from operator import attrgetter, truth
from typing import Sequence

import numpy as np

from chemtext import fingerprints
from chemtext.fingerprints import _FNV_PRIME, _morgan_seed, fnv1a64
from chemtext.fingerprints.keys import atom_kind
from chemtext.smiles.parse import Atom, Molecule

_ORDER = attrgetter("order")
_AROMATIC = attrgetter("aromatic")

# bond kinds of the key kernel: a bond symbol's index, and "~" any bond
_BOND_KINDS = "-=#:~"
_ANY_BOND = _BOND_KINDS.index("~")

# The path walk and the tree-key join expand about this many steps or
# candidate atoms at once (one atom's neighbors are never split).
_BLOCK_STEPS = 1 << 14


class GraphTable:
    """The atoms and bonds of a batch as numpy arrays, from one Python pass.

    Atoms are numbered across the batch, molecule by molecule, and so are
    bonds; an adjacency entry is one (atom, neighbor, bond) of
    :attr:`Molecule.adjacency`, in atom order. The arrays:

    - ``atoms``: the distinct :class:`Atom` objects; ``atom_id`` per atom
      indexes it, so per-atom facts are worked out once per distinct atom
    - ``atom_mol``, ``degree``; ``atom_start`` and ``bond_start`` (one more
      than the molecules) bound each molecule's atoms and bonds
    - ``bond_kind``: per bond, its symbol's index in ``"-=#:"``;
      ``bond_ends``: per bond, its two atoms
    - ``entry_owner``, ``entry_neighbor``, ``entry_bond``, and per atom
      ``entry_start``, its first entry
    - ``neighbors`` and ``entries``: per atom, its neighbors and its
      adjacency entries, padded to the widest atom with the atom itself
      (which every walk or embedding through it has already used) and
      entry 0
    """

    def __init__(self, mols: Sequence[Molecule]) -> None:
        atoms: list[Atom] = []
        orders: list[int] = []
        aromatic: list[bool] = []
        flat: list[int] = []  # per adjacency entry: neighbor, bond (molecule-local)
        degrees: list[int] = []
        sizes: list[tuple[int, int]] = []  # per molecule: atoms, bonds
        for mol in mols:
            atoms += mol.atoms
            orders += map(_ORDER, mol.bonds)
            aromatic += map(truth, map(_AROMATIC, mol.bonds))
            degrees += map(len, mol.adjacency)
            flat += chain.from_iterable(chain.from_iterable(mol.adjacency))
            sizes.append((len(mol.atoms), len(mol.bonds)))
        self.mols = tuple(mols)  # not a batch that holds this table
        # the parser shares atom objects (see chemtext.smiles.parse), so
        # interning by identity leaves few distinct atoms and hashes none
        _, first, atom_id = np.unique(
            np.fromiter(map(id, atoms), dtype=np.uint64, count=len(atoms)),
            return_index=True, return_inverse=True,
        )
        self.atoms = [atoms[i] for i in first.tolist()]
        self.atom_id = atom_id.reshape(-1)
        self.n_atoms = n_atoms = len(atoms)
        self.bond_kind = np.where(aromatic, 3, np.array(orders, dtype=np.intp) - 1)
        atom_counts, bond_counts = np.array(sizes, dtype=np.intp).reshape(-1, 2).T
        self.atom_start = np.concatenate(([0], np.cumsum(atom_counts)))
        self.bond_start = np.concatenate(([0], np.cumsum(bond_counts)))
        self.atom_mol = np.repeat(np.arange(len(sizes)), atom_counts)
        self.degree = degree = np.array(degrees, dtype=np.intp)
        local = np.array(flat, dtype=np.intp).reshape(-1, 2)
        self.entry_owner = owner = np.repeat(np.arange(n_atoms), degree)
        self.entry_neighbor = local[:, 0] + np.repeat(self.atom_start[:-1], 2 * bond_counts)
        self.entry_bond = local[:, 1] + np.repeat(self.bond_start[:-1], 2 * bond_counts)
        lower = owner < self.entry_neighbor  # each bond once, from its lower end
        self.bond_ends = np.empty((len(orders), 2), dtype=np.intp)
        self.bond_ends[self.entry_bond[lower]] = np.stack(
            (owner[lower], self.entry_neighbor[lower]), axis=1
        )
        self.width = width = int(degree.max()) if n_atoms else 0
        self.entry_start = np.cumsum(degree) - degree
        slot = np.arange(len(owner)) - self.entry_start[owner]
        self.neighbors = np.repeat(np.arange(n_atoms, dtype=np.int32)[:, None], width, axis=1)
        self.neighbors[owner, slot] = self.entry_neighbor
        self.entries = np.zeros((n_atoms, width), dtype=np.intp)
        self.entries[owner, slot] = np.arange(len(owner))

    @cached_property
    def ring_bonds(self):
        """Per atom, its bonds that lie on a cycle (key fingerprints read it)."""
        counts = chain.from_iterable(mol.ring_bond_counts for mol in self.mols)
        return np.fromiter(counts, dtype=np.intp, count=self.n_atoms)


def _fnv1a64_columns(hashes, matrix, lengths):
    """Continue the FNV-1a states ``hashes`` in place over the first
    ``lengths[i]`` bytes of row ``i`` of the uint8 ``matrix``, and return
    them; the one FNV-1a loop over numpy arrays.

    Every row takes the columns up to the shortest row's length, then the
    longer rows take the columns up to the next length, and so on, so there
    is one gather per distinct length and no sort. uint64 arithmetic wraps
    exactly like FNV-1a's mod 2**64.
    """
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


# -- paths ----------------------------------------------------------------------------


def path_bits(table: GraphTable, max_len: int, nbits: int) -> list[frozenset[int] | None]:
    """The path bits of each molecule of ``table``, or ``None`` over the
    path budget (``chemtext.fingerprints._MAX_PATHS_WALKED``).

    One row is one walk: its atoms in order (start first), its forward and
    reverse renderings, and the FNV-1a state of the forward one. A step
    appends ``bond + atom`` to the forward rendering and prepends
    ``atom + bond`` to the reverse one. Every path is walked once from each
    end, and an end whose forward rendering is not the larger records its
    hash (a palindrome, the same hash from both ends).
    """
    n_mols, n_atoms = len(table.mols), table.n_atoms
    if n_mols > 1 and n_mols * nbits > 1 << 64:
        # a (molecule, bit) key of this batch would not fit in 64 bits
        alone = (GraphTable([mol]) for mol in table.mols)
        return [bits for one in alone for bits in path_bits(one, max_len, nbits)]
    if not len(table.bond_kind):
        return [frozenset() for _ in range(n_mols)]
    budget = fingerprints._MAX_PATHS_WALKED
    # a simple path has fewer bonds than its molecule has atoms, so the rows
    # need be no wider than the largest molecule, whatever max_len is
    max_len = min(max_len, max(len(mol.atoms) for mol in table.mols) - 1)
    neighbors, steps, width = table.neighbors, table.entries, table.width
    neighbor, bond = table.entry_neighbor, table.entry_bond
    # atom codes are ASCII letters (the Molecule constructor checks them),
    # so no rendering holds the NULs that numpy S arrays drop
    codes = [a.symbol.lower() if a.aromatic else a.symbol for a in table.atoms]
    code_text = np.array([c.encode() for c in codes])[table.atom_id]
    symbol_text = np.array([b"-", b"=", b"#", b":"])[table.bond_kind]
    forward_steps = np.char.add(symbol_text[bond], code_text[neighbor])
    reverse_steps = np.char.add(code_text[neighbor], symbol_text[bond])
    step_bytes = forward_steps.view("u1").reshape(len(bond), forward_steps.itemsize)
    step_lengths = np.char.str_len(forward_steps)
    start_hashes = np.array([fnv1a64(c.encode()) for c in codes], dtype=np.uint64)
    start_hashes = start_hashes[table.atom_id]

    found: list = []  # (molecule, hash) arrays of recorded paths
    held, room = 0, _BLOCK_STEPS  # hashes held; how many before deduplicating
    walked = np.zeros(n_mols, dtype=np.int64)
    some_dead, dead = False, np.zeros(n_mols, dtype=bool)
    block = max(_BLOCK_STEPS // width, 1)
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
        if walked.max() > budget:
            some_dead, dead = True, walked > budget
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
    owner = np.concatenate([m for m, _ in found])
    hashes = np.concatenate([h for _, h in found])
    if nbits >= 1 << 64:  # one molecule (see path_bits): bit = hash
        keys = hashes
    else:
        span = np.uint64(nbits)
        keys = owner.astype(np.uint64) * span + hashes % span
    keys.sort()
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))] if len(keys) else keys
    if nbits >= 1 << 64:
        return np.zeros(len(keys), dtype=np.intp), keys
    return (keys // span).astype(np.intp), keys % span


# -- Morgan ---------------------------------------------------------------------------


def morgan_bits(table: GraphTable, radius: int, nbits: int) -> list[frozenset[int]]:
    """The Morgan bits of each molecule of ``table``, one layer of all its
    atoms at a time.

    A layer's payload ``E|own|code:hex|...`` is laid out as a byte matrix,
    one row per atom: the own hash's 16 hex digits and ``|``, then each
    neighbor's ``code:hex|`` in (code byte, hash) order, which is the order
    of the sorted ``code:hex`` strings; a row's length leaves off the last
    ``|``. Every row continues the FNV-1a state of ``E|``.
    """
    owner, neighbor = table.entry_owner, table.entry_neighbor
    hashes = _morgan_seeds(table)
    layers = [hashes]
    if radius:
        code = np.frombuffer(b"123:", dtype=np.uint8)[table.bond_kind[table.entry_bond]]
        base = 17 + 19 * (np.arange(len(owner)) - table.entry_start[owner])
        digits = base[:, None] + np.arange(2, 18)
        template = np.full((table.n_atoms, 17 + 19 * table.width), ord("|"), dtype=np.uint8)
        template[owner, base + 1] = ord(":")
        lengths = 16 + 19 * table.degree + (table.degree == 0)
        prefix = fnv1a64(b"E|")
    for _ in range(radius):
        hexes = _hex_digits(hashes)
        # entries stay grouped by owner; within one, (code byte, hash) order
        order = np.lexsort((hashes[neighbor], code, owner))
        matrix = template.copy()
        matrix[:, :16] = hexes
        matrix[owner, base] = code[order]
        matrix[owner[:, None], digits] = hexes[neighbor[order]]
        hashes = _fnv1a64_columns(
            np.full(table.n_atoms, prefix, dtype=np.uint64), matrix, lengths
        )
        layers.append(hashes)
    bits = np.stack(layers, axis=1)  # per atom, its hash in each layer
    if nbits < 1 << 64:
        bits %= np.uint64(nbits)
    bits = bits.ravel().tolist()
    bounds = (table.atom_start * (radius + 1)).tolist()
    return [frozenset(bits[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _morgan_seeds(table: GraphTable):
    """Layer 0 of ``table``: the hash of each atom's invariant string,
    worked out once per distinct (atom, degree) of the batch."""
    span = table.width + 1
    distinct, inverse = np.unique(table.atom_id * span + table.degree, return_inverse=True)
    hashes = [_morgan_seed(table.atoms[key // span], key % span) for key in distinct.tolist()]
    return np.array(hashes, dtype=np.uint64)[inverse.reshape(-1)]


_HEX = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


def _hex_digits(hashes):
    """The 16 lowercase hex digits of each uint64 in ``hashes``, as a uint8
    matrix with one row per hash."""
    shifts = np.arange(60, -4, -4, dtype=np.uint64)
    return _HEX[(hashes[:, None] >> shifts) & np.uint64(15)]


# -- keys -------------------------------------------------------------------------------


class ChunkKeys:
    """A compiled key table (``keys._CompiledTable``) as numpy arrays.

    Each distinct (atom, degree, ring-bond count) of a batch maps to a
    boolean row of the slots its atom kind satisfies. Atom keys and bond
    keys are then per-molecule sums over the batch's slot matrix, and tree
    keys, each of threshold one, one level-synchronous join over every tree
    key and molecule.
    """

    def __init__(self, compiled) -> None:
        self.compiled = compiled
        self.n_slots = compiled.n_slots
        # the bit of each key, atom keys first, then bond keys, then tree
        # keys: a key id can be any size, so bits stay Python ints
        self.key_bits = [
            key[0] for keys in (compiled.atom_keys, compiled.bond_keys, compiled.tree_keys)
            for key in keys
        ]
        # no count reaches this, so a larger threshold is capped to it
        most = np.iinfo(np.intp).max
        # per atom key: threshold, slot
        self.atom_keys = np.array(
            [(min(t, most), s) for _, t, s in compiled.atom_keys], dtype=np.intp
        ).reshape(-1, 2).T
        # per bond key: threshold, slot, bond kind, child slot
        self.bond_keys = np.array(
            [(min(t, most), s, _BOND_KINDS.index(k), c) for _, t, s, k, c in compiled.bond_keys],
            dtype=np.intp,
        ).reshape(-1, 4).T
        # per tree key: node count; per tree key and node: parent node, bond
        # kind, slot; and the slots each tree key uses
        tree = compiled.tree_keys
        self.tree_sizes = np.array([len(steps) for _, _, steps in tree], dtype=np.intp)
        depth = max((len(steps) for _, _, steps in tree), default=1)
        self.nodes = np.zeros((3, len(tree), depth), dtype=np.intp)
        self.uses = np.zeros((len(tree), self.n_slots), dtype=bool)
        for k, (_, _, steps) in enumerate(tree):
            for s, (parent, symbol, slot) in enumerate(steps):
                self.nodes[:, k, s] = (max(parent, 0), _BOND_KINDS.index(symbol or "~"), slot)
                self.uses[k, slot] = True

    def bits(self, table: GraphTable) -> list[frozenset[int]]:
        """The key bits of each molecule of ``table``, every key at once:
        one (molecule, key) column of hits per key, in ``key_bits`` order."""
        slots = self._slot_matrix(table)
        slot_counts = _segment_sums(slots, table.atom_start)
        a_threshold, a_slot = self.atom_keys
        b_threshold, first, kind, second = self.bond_keys
        a_slots, b_slots = slots[table.bond_ends[:, 0]], slots[table.bond_ends[:, 1]]
        # one bond is one atom set, so a single-bond key counts bonds
        found = a_slots[:, first] & b_slots[:, second]
        found |= b_slots[:, first] & a_slots[:, second]
        found &= (kind == _ANY_BOND) | (table.bond_kind[:, None] == kind)
        hits = np.concatenate(
            (
                slot_counts[:, a_slot] >= a_threshold,
                _segment_sums(found, table.bond_start) >= b_threshold,
                self._tree_key_hits(table, slots, slot_counts),
            ),
            axis=1,
        )
        mols, columns = np.nonzero(hits)
        bits = [self.key_bits[c] for c in columns.tolist()]
        bounds = np.searchsorted(mols, np.arange(len(table.mols) + 1)).tolist()
        return [frozenset(bits[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]

    def _slot_matrix(self, table: GraphTable):
        """Per atom of ``table``, the boolean row of slots it satisfies, set
        in one assignment from the compiled table's memo."""
        span = table.width + 1
        codes = (table.atom_id * span + table.degree) * span + table.ring_bonds
        distinct, inverse = np.unique(codes, return_inverse=True)
        atom_degree, ring_bonds = np.divmod(distinct, span)
        atom_id, degree = np.divmod(atom_degree, span)
        atoms = map(table.atoms.__getitem__, atom_id.tolist())
        kinds = map(atom_kind, atoms, degree.tolist(), ring_bonds.tolist())
        matched = list(map(self.compiled.kind_slots, kinds))  # per distinct code
        rows = np.repeat(np.arange(len(matched)), list(map(len, matched)))
        matrix = np.zeros((len(matched), self.n_slots), dtype=bool)
        matrix[rows, np.fromiter(chain.from_iterable(matched), dtype=np.intp)] = True
        return matrix[inverse.reshape(-1)]

    def _tree_key_hits(self, table: GraphTable, slots, slot_counts):
        """Per molecule and tree key, whether the key embeds.

        A row is one partial embedding: its key and the atoms of its
        pattern nodes so far, in preorder (unassigned nodes hold -1). A
        level gives each row's next node every unused neighbor of its
        parent's atom that satisfies the node's slot over an allowed bond.
        A (key, molecule) pair is done at its first complete row, and its
        other rows are dropped. Rows are extended a block at a time, deepest
        block first, so the join holds about one block of ``_BLOCK_STEPS``
        candidates per pattern node.
        """
        size, (parent, kind, slot) = self.tree_sizes, self.nodes
        n_keys, depth = parent.shape
        n_mols, width = len(table.mols), table.width
        # a pair can match only if each slot of its key matches an atom
        possible = ~(self.uses[:, None, :] & (slot_counts == 0)[None]).any(axis=2)
        root_atom, root_key = np.nonzero(slots[:, slot[:, 0]] & possible.T[table.atom_mol])
        rows = np.full((len(root_atom), depth), -1, dtype=np.int32)
        rows[:, 0] = root_atom
        stack = [(1, root_key, rows)]
        entry_kinds = table.bond_kind[table.entry_bond][table.entries]
        flat_slots = slots.ravel()
        block = max(_BLOCK_STEPS // max(width, 1), 1)
        done = np.zeros(n_keys * n_mols, dtype=bool)  # pair = key * n_mols + molecule
        while stack:
            step, key, rows = stack.pop()
            if len(rows) > block:
                stack.append((step, key[block:], rows[block:]))
                key, rows = key[:block], rows[:block]
            if done.any():
                open_ = ~done[key * n_mols + table.atom_mol[rows[:, 0]]]
                key, rows = key[open_], rows[open_]
            if not len(rows) or not width:
                continue
            at = rows[np.arange(len(rows)), parent[key, step]]
            nxt = table.neighbors.take(at, axis=0)
            want = kind[key, step][:, None]
            fits = (want == _ANY_BOND) | (entry_kinds.take(at, axis=0) == want)
            fits &= flat_slots.take(nxt * self.n_slots + slot[key, step][:, None])
            for col in range(step):
                fits &= nxt != rows[:, col:col + 1]
            flat_at = np.flatnonzero(fits)
            grown = rows.take(flat_at // width, axis=0)
            grown[:, step] = nxt.take(flat_at)
            key = key[flat_at // width]
            complete = size[key] == step + 1
            done[key[complete] * n_mols + table.atom_mol[grown[complete, 0]]] = True
            if not complete.all():
                stack.append((step + 1, key[~complete], grown[~complete]))
        return done.reshape(n_keys, n_mols).T


def _segment_sums(values, starts):
    """Per segment ``starts[i]:starts[i+1]`` of the rows of ``values``, the
    column sums."""
    sums = np.zeros((len(values) + 1, values.shape[1]), dtype=np.intp)
    np.cumsum(values, axis=0, out=sums[1:])
    return sums[starts[1:]] - sums[starts[:-1]]
