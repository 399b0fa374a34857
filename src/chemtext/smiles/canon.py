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
moved. Every member of that class is tried and the lexicographically
smallest emitted string wins, which keeps the result invariant under any
renumbering of the input atoms, including graphs the refinement alone
cannot separate.

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
multiply each other's candidates. Each atom's text (bare or bracketed, by the
molecule's recorded default hydrogens) and its (bond code, neighbour) pairs
are computed once per call.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Sequence

from chemtext.errors import ChemtextError
from chemtext.smiles.parse import Atom, Bond, Molecule, parse_smiles

# Elements writable without brackets, per aromaticity.
_BARE_PLAIN = frozenset({"B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I"})
_BARE_AROMATIC = frozenset({"B", "C", "N", "O", "P", "S"})

# Safety valve for pathologically symmetric graphs: the tie-break search
# emits one candidate string per complete ranking of a component.
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
    and fragment order. Round-trips through the parser to the same graph;
    useful for augmentation and for exercising canonicalization."""
    ranks = list(range(len(mol.atoms)))
    rng.shuffle(ranks)
    texts = _atom_texts(mol)
    strings = [_write_component(mol, comp, ranks, texts) for comp in mol.components]
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
    ring = mol.ring_atom_indices
    keys = [
        (
            atom.symbol,
            atom.aromatic,
            atom.charge,
            atom.isotope or 0,
            mol.degree(i),
            atom.hydrogens,
            i in ring,
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


def _branch_atoms(mol: Molecule, tied: list[int]) -> list[int]:
    """Drop tied atoms that are provably automorphic to an earlier one.

    Atoms of degree <= 1 sharing the same (only) neighbor, bond type and
    annotations are interchangeable by a graph automorphism, so splitting any
    one of them yields the same minimum; this collapses the factorial blowup
    on e.g. repeated methyl groups.
    """
    keep: list[int] = []
    seen: set[tuple] = set()
    for atom_index in tied:
        adjacency = mol.adjacency[atom_index]
        if len(adjacency) > 1:
            keep.append(atom_index)
            continue
        atom = mol.atoms[atom_index]
        if adjacency:
            neighbor, bond_index = adjacency[0]
            bond = mol.bonds[bond_index]
            stereo = bond.stereo
            if stereo is not None and (bond.a, bond.b) != (neighbor, atom_index):
                stereo = "down" if stereo == "up" else "up"
            attachment = (neighbor, _bond_code(bond), stereo)
        else:
            attachment = None
        key = (attachment, atom.chirality)
        if key in seen:
            continue
        seen.add(key)
        keep.append(atom_index)
    return keep


def _canonical_string(mol: Molecule) -> str:
    codes = _neighbour_codes(mol)
    partition = _initial_partition(mol)
    _refine(codes, partition, range(len(mol.atoms)))
    texts = _atom_texts(mol)
    return ".".join(
        sorted(
            _canonical_component(mol, comp, partition, codes, texts)
            for comp in mol.components
        )
    )


def _canonical_component(
    mol: Molecule,
    atoms: tuple[int, ...],
    partition: _Partition,
    codes: Sequence[Sequence[tuple[int, int]]],
    texts: Sequence[str],
) -> str:
    """Smallest string of one component over the tie-break search on its
    atoms; branches refine the whole molecule, but only ``atoms`` are read."""
    best: str | None = None
    emitted = 0
    stack = [partition]
    while stack:
        partition = stack.pop()
        ranks = partition[0]
        tied = _lowest_tied_class(ranks, atoms)
        if not tied:
            emitted += 1
            if emitted > _MAX_CANDIDATES:
                raise CanonError("symmetry search budget exceeded")
            candidate = _write_component(mol, atoms, ranks, texts)
            if best is None or candidate < best:
                best = candidate
            continue
        for atom in _branch_atoms(mol, tied):
            stack.append(_individualize(codes, partition, atom))
    assert best is not None
    return best


# -- emission ----------------------------------------------------------------


_CLOSE_BRANCH = (-1, ")")


def _write_component(
    mol: Molecule, atoms: Sequence[int], ranks: Sequence[int], texts: Sequence[str]
) -> str:
    """SMILES of component ``atoms`` in ``ranks`` order; ``texts`` from :func:`_atom_texts`."""
    adjacency = mol.adjacency

    def by_rank(entry: tuple[int, int]) -> int:
        return ranks[entry[0]]

    start = min(atoms, key=ranks.__getitem__)

    # Pass 1: preorder DFS in rank order; classify tree vs ring bonds. Each
    # stack entry holds an atom and the iterator over its sorted neighbours.
    disc: dict[int, int] = {start: 0}
    tree_children: dict[int, list[tuple[int, int]]] = {start: []}
    ring_open: dict[int, list[tuple[int, int]]] = {}
    ring_close: dict[int, list[tuple[int, int]]] = {}
    used_bonds: set[int] = set()
    stack = [(start, iter(sorted(adjacency[start], key=by_rank)))]
    while stack:
        u, nbrs = stack[-1]
        for v, bi in nbrs:
            if bi in used_bonds:
                continue
            used_bonds.add(bi)
            if v in disc:
                # ring bond: the earlier-discovered endpoint opens
                ring_open.setdefault(v, []).append((u, bi))
                ring_close.setdefault(u, []).append((v, bi))
            else:
                disc[v] = len(disc)
                tree_children[u].append((v, bi))
                tree_children[v] = []
                stack.append((v, iter(sorted(adjacency[v], key=by_rank))))
                break
        else:
            stack.pop()
    for entries in ring_open.values():
        entries.sort(key=lambda e: disc[e[0]])
    for entries in ring_close.values():
        entries.sort(key=lambda e: disc[e[0]])

    # Pass 2: emit in the same preorder with explicit branch parentheses.
    # Stack entries are (atom, text written before it); _CLOSE_BRANCH writes
    # ")" only. Ring digits reuse the smallest free one.
    out: list[str] = []
    digit_of: dict[int, int] = {}
    free_digits: list[int] = []
    next_digit = 1
    emit_stack = [(start, "")]
    while emit_stack:
        u, prefix = emit_stack.pop()
        out.append(prefix)
        if u < 0:
            continue
        out.append(texts[u])
        for v, bi in ring_close.get(u, ()):
            digit = digit_of.pop(bi)
            heappush(free_digits, digit)
            out.append(str(digit) if digit < 10 else f"%{digit:02d}")
        for v, bi in ring_open.get(u, ()):
            if free_digits:
                digit = heappop(free_digits)
            else:
                digit = next_digit
                next_digit += 1
                if digit > 99:
                    raise CanonError("more than 99 simultaneously open ring closures")
            digit_of[bi] = digit
            out.append(_bond_text(mol, bi, u, v))
            out.append(str(digit) if digit < 10 else f"%{digit:02d}")
        children = tree_children[u]
        if children:
            # the last child continues the chain; earlier ones are branches
            v, bi = children[-1]
            emit_stack.append((v, _bond_text(mol, bi, u, v)))
            for k in range(len(children) - 2, -1, -1):
                v, bi = children[k]
                emit_stack.append(_CLOSE_BRANCH)
                emit_stack.append((v, "(" + _bond_text(mol, bi, u, v)))
    return "".join(out)


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


def _atom_texts(mol: Molecule) -> list[str]:
    return [_atom_text(atom, h) for atom, h in zip(mol.atoms, mol.default_hydrogens)]


def _atom_text(atom: Atom, default_hydrogens: int) -> str:
    symbol = atom.symbol.lower() if atom.aromatic else atom.symbol
    bare_set = _BARE_AROMATIC if atom.aromatic else _BARE_PLAIN
    if (
        atom.symbol in bare_set
        and atom.charge == 0
        and atom.isotope is None
        and atom.chirality is None
        and atom.hydrogens == default_hydrogens
    ):
        return symbol
    isotope = "" if atom.isotope is None else atom.isotope
    hydrogens = atom.hydrogens
    h_text = "H" if hydrogens == 1 else f"H{hydrogens}" if hydrogens > 1 else ""
    charge = atom.charge
    charge_text = "" if charge == 0 else {1: "+", -1: "-"}.get(charge, f"{charge:+d}")
    return f"[{isotope}{symbol}{atom.chirality or ''}{h_text}{charge_text}]"
