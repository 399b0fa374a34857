"""The canonicalization search of the first release, kept as a reference
oracle.

This search splits tied classes across all atoms of the molecule at once and
writes every connected component at each leaf, so identical fragments
multiply its leaves; keep repeated symmetric fragments out of inputs given to
it. The package searches each connected component on its own and must give
the same strings; tests/test_smiles_canon.py checks that it does.
"""

from __future__ import annotations

from chemtext.smiles.canon import (
    CanonError,
    _bond_code,
    _initial_ranks,
    _refine,
    _split,
    _write_component,
)
from chemtext.smiles.parse import Molecule

_MAX_CANDIDATES = 200_000


def oracle_canonical_smiles(mol: Molecule) -> str:
    """Canonical SMILES of a valid molecule by the whole-molecule search."""
    if not mol.validity.valid:
        raise CanonError("; ".join(mol.validity.reasons))
    return _canonical_string(mol)


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
