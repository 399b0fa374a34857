"""Deterministic SMILES canonicalization.

Atom ranks come from refining an ordered partition of the atoms. Cells are
contiguous ranges of the partition, and an atom's rank is the start of its
cell. The first cells group atoms by local invariants (element, aromatic
flag, charge, isotope, degree, hydrogen count, ring membership). A round keys
each member of a cell by the sorted multiset of (bond code, neighbour rank)
pairs, where a bond's code is its order, or 4 if it is aromatic, and splits
the cell into sub-cells in key order; the first sub-cell
keeps the cell's start, so only atoms of the later sub-cells change rank.
The first round keys every cell; later rounds key only the cells holding a
neighbour of an atom whose rank just changed, since no other cell can split.
Rounds run in lockstep: every key of a round is read from the ranks the round
began with, and only then are the splits applied, because the order of the
sub-cells depends on it. Refinement stops when no cell splits.

Remaining ties are broken by individualizing one atom of the lowest-ranked
tied class: it keeps its cell's start alone, the rest of the cell moves one
place up, and refinement continues from the cells next to the atoms that
moved. The smallest string over all such choices wins, which keeps the
result invariant under any renumbering of the input atoms. A node skips a
tied atom that a known automorphism fixing its path maps onto an atom it
tried (McKay & Piperno, "Practical graph isomorphism, II", 2014). Two leaves
writing one string prove an automorphism; the root adds swaps of degree-one
atoms written alike on one neighbour, each twin with the one before.

A string is written in two walks of its component: a preorder depth-first
walk over neighbours in rank order numbers the atoms and records the bond
each was reached by, and the emission walk reads each atom's bonds in that
numbering. A bond to an earlier atom closes a ring; one to a later atom is a
branch or the chain if it reached that atom, and opens a ring otherwise.

Stereo annotations (``@``/``@@`` and ``/``/``\\``) never participate in
ranking. ``/`` and ``\\`` are written for the direction each bond is
emitted in, so both writings of a double bond's configuration agree.
``@``/``@@`` are copied as written and not re-derived for the output
neighbour order, so tetrahedral parity is not invariant under reordering:
``C[C@H](N)O`` and its own rewrite ``C[C@@H](O)N`` give two strings, while
the enantiomers ``C[C@H](N)O`` and ``N[C@H](C)O`` give one.

Connected components (found from the bonds, so ``C1.C1`` is one) are
canonicalized independently and emitted in lexicographic order. The search
and its candidate budget are per component, so identical fragments do not
multiply each other's candidates. Each atom's (bond code, neighbour) pairs
are computed once per call. Its text (bare or bracketed) is not worked out
here: the :class:`Molecule` constructor records it as
:attr:`Molecule.atom_texts`, which other readers share.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Sequence

from chemtext.errors import ChemtextError
from chemtext.smiles.parse import Bond, Molecule, parse_smiles

# Safety valve for pathologically symmetric graphs: the tie-break search
# writes one candidate string per leaf of a component it does not prune.
_MAX_CANDIDATES = 200_000


class CanonError(ChemtextError):
    """Molecule cannot be canonicalized (failed validation or the
    symmetry-search budget)."""


def canonicalize(mol: Molecule) -> str:
    """Canonical SMILES of a valid molecule.

    Raises:
        CanonError: if the molecule fails validation (``mol.validity``).
    """
    if not mol.validity.valid:
        raise CanonError("; ".join(mol.validity.reasons))
    return _canonical_string(mol)


def canonical_smiles(smiles: str) -> str:
    """Parse and canonicalize in one step."""
    return canonicalize(parse_smiles(smiles))


def random_smiles(mol: Molecule, rng: random.Random) -> str:
    """Rewrite the molecule starting from a random atom with random neighbor
    and fragment order; useful for augmentation and for exercising
    canonicalization. The rewrite parses to the same graph, but ``@`` and
    ``@@`` are copied as written while the neighbour order changes, so a
    rewrite of a chiral molecule can be its other enantiomer (with
    ``random.Random(1)``, 4 of 20 rewrites of ``C[C@H](N)O`` invert the
    centre). ROADMAP item 6, "Chirality parity on output", holds the fix."""
    ranks = list(range(len(mol.atoms)))
    rng.shuffle(ranks)
    strings = [_write_component(mol, comp, ranks)[0] for comp in mol.components]
    rng.shuffle(strings)
    return ".".join(strings)


# -- ranking ----------------------------------------------------------------
#
# A partition is ``(ranks, order, ends)``: ``order`` lists the atoms cell by
# cell, the cell starting at position ``s`` is ``order[s:ends[s]]``, and
# ``ranks[i]`` is the start of atom ``i``'s cell. ``ends`` is read only at
# cell starts. ``codes[i]`` holds atom ``i``'s (bond code, neighbour) pairs.

_Partition = tuple[list[int], list[int], list[int]]


def _bond_code(bond: Bond) -> int:
    return 4 if bond.aromatic else bond.order


def _neighbour_codes(mol: Molecule) -> list[list[tuple[int, int]]]:
    bonds = mol.bonds
    return [[(_bond_code(bonds[bi]), j) for j, bi in entries] for entries in mol.adjacency]


def _initial_partition(mol: Molecule) -> _Partition:
    ring_bonds = mol.ring_bond_counts
    keys = [
        (
            atom.symbol,
            atom.aromatic,
            atom.charge,
            atom.isotope or 0,
            mol.degree(i),
            atom.hydrogens,
            ring_bonds[i] > 0,
        )
        for i, atom in enumerate(mol.atoms)
    ]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ranks = [0] * len(order)
    ends = [len(order)] * len(order)
    start = 0
    for pos, i in enumerate(order):
        if keys[i] != keys[order[start]]:
            ends[start] = pos
            start = pos
        ranks[i] = start
    return ranks, order, ends


def _refine(
    codes: Sequence[Sequence[tuple[int, int]]], partition: _Partition, moved: Sequence[int]
) -> None:
    """Refine ``partition`` in place until no cell splits, starting from the
    atoms in ``moved``, whose ranks have just changed.

    A round keys each member of the cells holding a neighbour of a moved
    atom (no other cell can split) by its sorted (bond code, neighbour rank)
    pairs, all from the ranks the round began with, and only then splits
    those cells: sub-cells in key order, the first keeping the cell's start.
    The atoms of the later sub-cells are the next round's moved atoms.
    """
    ranks, order, ends = partition
    while moved:
        splits = []
        for start in {ranks[j] for i in moved for _, j in codes[i]}:
            end = ends[start]
            if end - start < 2:
                continue
            groups: dict[tuple, list[int]] = {}
            for i in order[start:end]:
                key = tuple(sorted([(code, ranks[j]) for code, j in codes[i]]))
                if key in groups:
                    groups[key].append(i)
                else:
                    groups[key] = [i]
            if len(groups) > 1:
                splits.append((start, groups))
        moved = []
        for start, groups in splits:
            pos = start
            for key in sorted(groups):
                members = groups[key]
                end = pos + len(members)
                order[pos:end] = members
                ends[pos] = end
                if pos != start:
                    for i in members:
                        ranks[i] = pos
                    moved += members
                pos = end


def _individualize(
    codes: Sequence[Sequence[tuple[int, int]]], partition: _Partition, atom: int
) -> _Partition:
    """A refined copy of ``partition`` in which ``atom`` keeps its cell's
    start alone and the rest of its cell moves one place up."""
    ranks, order, ends = (part.copy() for part in partition)
    start = ranks[atom]
    end = ends[start]
    rest = [i for i in order[start:end] if i != atom]
    order[start] = atom
    order[start + 1 : end] = rest
    ends[start] = start + 1
    ends[start + 1] = end
    for i in rest:
        ranks[i] = start + 1
    partition = ranks, order, ends
    _refine(codes, partition, rest)
    return partition


def _lowest_tied_class(ranks: list[int], atoms: Sequence[int]) -> list[int]:
    members: dict[int, list[int]] = {}
    for i in atoms:
        members.setdefault(ranks[i], []).append(i)
    for rank in sorted(members):
        if len(members[rank]) > 1:
            return members[rank]
    return []


def _canonical_string(mol: Molecule) -> str:
    codes = _neighbour_codes(mol)
    partition = _initial_partition(mol)
    _refine(codes, partition, range(len(mol.atoms)))
    return ".".join(
        sorted(_canonical_component(mol, comp, partition, codes) for comp in mol.components)
    )


def _canonical_component(
    mol: Molecule,
    atoms: tuple[int, ...],
    partition: _Partition,
    codes: Sequence[Sequence[tuple[int, int]]],
) -> str:
    """Smallest string of one component over the tie-break search on its
    atoms; branches refine the whole molecule, but only ``atoms`` are read.
    Open nodes are (partition, tied atoms, atoms tried), deepest last; a
    node's path is the last atom tried at each node above it."""
    best, best_order = "", []
    written = 0
    automorphisms: list[dict[int, int]] = []  # each maps the atoms it moves
    stack: list[tuple[_Partition, list[int], list[int]]] = []
    while True:
        tied = _lowest_tied_class(partition[0], atoms)
        if tied:
            if not stack:
                # degree-one twins on one neighbour swap, each with the previous
                previous: dict[tuple[int, str, str], int] = {}
                for i in atoms:
                    if len(mol.adjacency[i]) == 1:
                        ((j, bi),) = mol.adjacency[i]
                        key = (j, mol.atom_texts[i], _bond_text(mol, bi, j, i))
                        if key in previous:
                            automorphisms.append({i: previous[key], previous[key]: i})
                        previous[key] = i
            stack.append((partition, tied, [tied[0]]))
            partition = _individualize(codes, partition, tied[0])
            continue
        written += 1
        if written > _MAX_CANDIDATES:
            raise CanonError("symmetry search budget exceeded")
        candidate, order = _write_component(mol, atoms, partition[0])
        if written == 1 or candidate < best:
            best, best_order = candidate, order
        elif candidate == best:  # the atoms written at each position correspond
            automorphisms.append({a: b for a, b in zip(best_order, order) if a != b})
        # back up to a node with a tied atom outside its tried atoms' orbit
        while stack:
            node, tied, tried = stack[-1]
            path = [entry[2][-1] for entry in stack[:-1]]
            orbit, todo = set(tried), list(tried)
            for i in todo:  # grows into the orbit under automorphisms fixing the path
                for g in automorphisms:
                    j = g.get(i, i)
                    if j not in orbit and g.keys().isdisjoint(path):
                        orbit.add(j)
                        todo.append(j)
            atom = next((i for i in tied if i not in orbit), None)
            if atom is not None:
                tried.append(atom)
                partition = _individualize(codes, node, atom)
                break
            stack.pop()
        else:
            return best


# -- emission ----------------------------------------------------------------


_CLOSE_BRANCH = (-1, ")")


def _write_component(
    mol: Molecule, atoms: Sequence[int], ranks: Sequence[int]
) -> tuple[str, list[int]]:
    """SMILES of component ``atoms`` in ``ranks`` order, and the atoms in
    the order it writes them, each as its :attr:`Molecule.atom_texts` entry."""
    adjacency, texts = mol.adjacency, mol.atom_texts

    def by_rank(entry: tuple[int, int]) -> int:
        return ranks[entry[0]]

    def by_disc(entry: tuple[int, int]) -> int:
        return disc[entry[0]]

    # Walk 1: preorder DFS over neighbours in rank order, recording each
    # atom's discovery number and the bond it was reached by. Each stack
    # entry iterates an open atom's (neighbour, bond) pairs.
    disc: dict[int, int] = {}
    via: dict[int, int] = {}
    stack = [iter([(min(atoms, key=ranks.__getitem__), -1)])]
    while stack:
        for v, bi in stack[-1]:
            if v not in disc:
                disc[v] = len(disc)
                via[v] = bi
                stack.append(iter(sorted(adjacency[v], key=by_rank)))
                break
        else:
            stack.pop()

    # Walk 2: emit in the same preorder, each atom's bonds in discovery
    # order. Past the bond an atom was reached by, a bond to an earlier atom
    # closes a ring (so closures come first), and one to a later atom is a
    # child if it reached that atom, else it opens a ring. Stack entries are
    # (atom, text written before it); _CLOSE_BRANCH writes ")" only. Ring
    # digits reuse the smallest free one.
    out: list[str] = []
    digit_of: dict[int, int] = {}  # per open ring bond
    free_digits: list[int] = []  # with digit_of's values, exactly 1..max used
    emit_stack = [(next(iter(disc)), "")]
    while emit_stack:
        u, prefix = emit_stack.pop()
        out.append(prefix)
        if u < 0:
            continue
        out.append(texts[u])
        children = []
        here, reached_by = disc[u], via[u]
        entries = adjacency[u]  # a leaf's one bond needs no sort
        for v, bi in sorted(entries, key=by_disc) if len(entries) > 1 else entries:
            if bi == reached_by:
                continue
            if via[v] == bi:
                children.append((v, bi))
                continue
            if disc[v] < here:
                digit = digit_of.pop(bi)
                heappush(free_digits, digit)
            else:
                digit = heappop(free_digits) if free_digits else len(digit_of) + 1
                if digit > 99:
                    raise CanonError("more than 99 simultaneously open ring closures")
                digit_of[bi] = digit
                out.append(_bond_text(mol, bi, u, v))
            out.append(str(digit) if digit < 10 else f"%{digit:02d}")
        if children:
            # the last child continues the chain; earlier ones are branches
            v, bi = children.pop()
            emit_stack.append((v, _bond_text(mol, bi, u, v)))
            for v, bi in reversed(children):
                emit_stack += (_CLOSE_BRANCH, (v, "(" + _bond_text(mol, bi, u, v)))
    return "".join(out), list(disc)


def _bond_text(mol: Molecule, bond_index: int, from_atom: int, to_atom: int) -> str:
    bond = mol.bonds[bond_index]
    if bond.aromatic:
        return ""
    if bond.order == 2:
        return "="
    if bond.order == 3:
        return "#"
    if bond.stereo is not None:
        up = bond.stereo == "up"
        if (from_atom, to_atom) != (bond.a, bond.b):
            up = not up
        return "/" if up else "\\"
    if mol.atoms[from_atom].aromatic and mol.atoms[to_atom].aromatic:
        return "-"
    return ""

