"""The canonicalization search of the first release, kept as a reference
oracle.

This search splits tied classes across all atoms of the molecule at once and
writes every connected component at each leaf, so identical fragments
multiply its leaves; keep repeated symmetric fragments out of inputs given to
it. The package searches each connected component on its own and must give
the same strings; tests/test_smiles_canon.py checks that it does.

Its ranking is the first release's too, copied here so that the package's
refinement is checked against it rather than with it: every round re-keys
every atom by its rank and the sorted (bond code, neighbour rank) pairs, and
each tie-break branch splits one atom off and re-refines the whole molecule.
Only ``CanonError`` and the bare-atom element sets come from the package.

The writer below (``_write_component``, ``_bond_text``, ``_atom_text``) is the
first release's too: it recomputes each atom's implicit hydrogen count and
rebuilds a stack tuple at every step. The package's writer must emit the same
string for every component under any ranking.
"""

from __future__ import annotations

from typing import Sequence

from chemtext.smiles.canon import _BARE_AROMATIC, _BARE_PLAIN, CanonError
from chemtext.smiles.parse import Bond, Molecule
from chemtext.smiles.valence import implicit_hydrogen_count

_MAX_CANDIDATES = 200_000


def oracle_canonical_smiles(mol: Molecule) -> str:
    """Canonical SMILES of a valid molecule by the whole-molecule search."""
    if not mol.validity.valid:
        raise CanonError("; ".join(mol.validity.reasons))
    return _canonical_string(mol)


# -- ranking: the first release's whole-molecule refinement ------------------


def _bond_code(bond: Bond) -> int:
    return 4 if bond.aromatic else bond.order


def _dense_ranks(keys: Sequence) -> list[int]:
    index = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    return [index[key] for key in keys]


def _initial_ranks(mol: Molecule) -> list[int]:
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
    return _dense_ranks(keys)


def _refine(mol: Molecule, ranks: list[int]) -> list[int]:
    adjacency = mol.adjacency
    bonds = mol.bonds
    while True:
        keys = [
            (
                ranks[i],
                tuple(sorted((_bond_code(bonds[bi]), ranks[j]) for j, bi in adjacency[i])),
            )
            for i in range(len(ranks))
        ]
        new = _dense_ranks(keys)
        if new == ranks:
            return ranks
        ranks = new


def _split(ranks: list[int], atom: int) -> list[int]:
    keys = [(rank, 0 if i == atom else 1) for i, rank in enumerate(ranks)]
    return _dense_ranks(keys)


# -- search -------------------------------------------------------------------


def _lowest_tied_class(ranks: list[int]) -> list[int]:
    members: dict[int, list[int]] = {}
    for i, rank in enumerate(ranks):
        members.setdefault(rank, []).append(i)
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
    best: str | None = None
    emitted = 0
    stack = [_refine(mol, _initial_ranks(mol))]
    while stack:
        ranks = stack.pop()
        tied = _lowest_tied_class(ranks)
        if not tied:
            emitted += 1
            if emitted > _MAX_CANDIDATES:
                raise CanonError("symmetry search budget exceeded")
            strings = sorted(
                _write_component(mol, comp, ranks) for comp in _components(mol)
            )
            candidate = ".".join(strings)
            if best is None or candidate < best:
                best = candidate
            continue
        for atom in _branch_atoms(mol, tied):
            stack.append(_refine(mol, _split(ranks, atom)))
    assert best is not None
    return best


def _components(mol: Molecule) -> list[list[int]]:
    seen = [False] * len(mol.atoms)
    components: list[list[int]] = []
    for start in range(len(mol.atoms)):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for v, _ in mol.adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    frontier.append(v)
        components.append(comp)
    return components


def _write_component(mol: Molecule, atoms: Sequence[int], ranks: Sequence[int]) -> str:
    start = min(atoms, key=lambda i: ranks[i])

    # Pass 1: preorder DFS in rank order; classify tree vs ring bonds.
    disc: dict[int, int] = {start: 0}
    tree_children: dict[int, list[tuple[int, int]]] = {start: []}
    ring_open: dict[int, list[tuple[int, int]]] = {}
    ring_close: dict[int, list[tuple[int, int]]] = {}
    used_bonds: set[int] = set()
    stack: list[tuple[int, list[tuple[int, int]], int]] = []
    neighbors = sorted(mol.adjacency[start], key=lambda e: ranks[e[0]])
    stack.append((start, neighbors, 0))
    while stack:
        u, nbrs, ptr = stack[-1]
        if ptr >= len(nbrs):
            stack.pop()
            continue
        stack[-1] = (u, nbrs, ptr + 1)
        v, bi = nbrs[ptr]
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
            child_nbrs = sorted(mol.adjacency[v], key=lambda e: ranks[e[0]])
            stack.append((v, child_nbrs, 0))
    for u in ring_open:
        ring_open[u].sort(key=lambda e: disc[e[0]])
    for u in ring_close:
        ring_close[u].sort(key=lambda e: disc[e[0]])

    # Pass 2: emit in the same preorder with explicit branch parentheses.
    out: list[str] = []
    digit_of: dict[int, int] = {}
    free_digits: list[int] = []
    next_digit = 1

    def alloc_digit() -> int:
        nonlocal next_digit
        if free_digits:
            free_digits.sort()
            return free_digits.pop(0)
        digit = next_digit
        next_digit += 1
        if digit > 99:
            raise CanonError("more than 99 simultaneously open ring closures")
        return digit

    def digit_text(digit: int) -> str:
        return str(digit) if digit < 10 else f"%{digit:02d}"

    emit_stack: list = [("atom", start, None, None)]
    while emit_stack:
        item = emit_stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        _, u, via_bond, parent = item
        if via_bond is not None:
            out.append(_bond_text(mol, via_bond, parent, u))
        out.append(_atom_text(mol, u))
        for v, bi in ring_close.get(u, ()):
            digit = digit_of.pop(bi)
            free_digits.append(digit)
            out.append(digit_text(digit))
        for v, bi in ring_open.get(u, ()):
            digit = alloc_digit()
            digit_of[bi] = digit
            out.append(_bond_text(mol, bi, u, v) + digit_text(digit))
        children = tree_children[u]
        ops: list = []
        for idx, (v, bi) in enumerate(children):
            last = idx == len(children) - 1
            if not last:
                ops.append("(")
            ops.append(("atom", v, bi, u))
            if not last:
                ops.append(")")
        emit_stack.extend(reversed(ops))
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


def _atom_text(mol: Molecule, i: int) -> str:
    atom = mol.atoms[i]
    symbol = atom.symbol.lower() if atom.aromatic else atom.symbol
    bare_set = _BARE_AROMATIC if atom.aromatic else _BARE_PLAIN
    if (
        atom.symbol in bare_set
        and atom.charge == 0
        and atom.isotope is None
        and atom.chirality is None
    ):
        incident = [
            (mol.bonds[bi].order, mol.bonds[bi].aromatic) for _, bi in mol.adjacency[i]
        ]
        if atom.hydrogens == implicit_hydrogen_count(atom.symbol, atom.aromatic, incident):
            return symbol
    parts = ["["]
    if atom.isotope is not None:
        parts.append(str(atom.isotope))
    parts.append(symbol)
    if atom.chirality:
        parts.append(atom.chirality)
    hydrogens = atom.hydrogens or 0
    if hydrogens == 1:
        parts.append("H")
    elif hydrogens > 1:
        parts.append(f"H{hydrogens}")
    if atom.charge == 1:
        parts.append("+")
    elif atom.charge == -1:
        parts.append("-")
    elif atom.charge > 1:
        parts.append(f"+{atom.charge}")
    elif atom.charge < -1:
        parts.append(str(atom.charge))
    parts.append("]")
    return "".join(parts)
