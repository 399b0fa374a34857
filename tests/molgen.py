"""Test helpers: random valid molecule generation, a brute-force
graph-isomorphism check used as the round-trip oracle, a dense clique
that exceeds the path-enumeration budget, and the walk-step count that
budget is charged.

The generator builds graphs directly (tree growth with valence budgets, ring
edges, optional aromatic rings, charges, isotopes, annotations) so validity
holds by construction, then double-checks with validate().
"""

from __future__ import annotations

import random

from chemtext.smiles import Atom, Bond, Molecule, ParseError, validate

# (symbol, bonding budget, weight); budgets are conservative single valences
_ELEMENTS = [
    ("C", 4, 14.0),
    ("N", 3, 3.0),
    ("O", 2, 4.0),
    ("S", 2, 1.2),
    ("P", 3, 0.5),
    ("F", 1, 1.5),
    ("Cl", 1, 1.2),
    ("Br", 1, 0.7),
]

_AROMATIC_6 = [
    ["C"] * 6,
    ["C", "C", "C", "C", "C", "N"],
    ["C", "C", "N", "C", "C", "N"],
]
_AROMATIC_5 = [
    ["C", "C", "C", "C", "O"],
    ["C", "C", "C", "C", "S"],
    ["C", "C", "C", "C", "NH"],
]


def random_molecule(rng: random.Random, max_atoms: int = 20) -> Molecule:
    """A random valid molecule with at most ``max_atoms`` heavy atoms."""
    while True:
        mol = _try_random_molecule(rng, max_atoms)
        if mol is not None and len(mol.atoms) <= max_atoms and validate(mol).valid:
            return mol


def clique_smiles() -> str:
    """Ten distinct bracket elements (valence unchecked), every pair bonded:
    quick to canonicalize, far beyond the path-enumeration budget."""
    elements = ["Au", "Ag", "Pt", "Pd", "Rh", "Ru", "Ir", "Os", "Re", "W"]
    labels: dict[tuple[int, int], int] = {}
    parts = []
    for i, element in enumerate(elements):
        closures = ""
        for j in range(len(elements)):
            if abs(i - j) > 1:  # neighbors in the string are already bonded
                label = labels.setdefault((min(i, j), max(i, j)), 10 + len(labels))
                closures += f"%{label}"
        parts.append(f"[{element}]{closures}")
    return "".join(parts)


def directed_path_steps(mol: Molecule, max_len: int) -> int:
    """Walk steps of a full path enumeration: every simple path of
    1..max_len bonds, once from each end (what the path budget counts)."""
    def count(path):
        total = 0
        for nxt, _ in mol.adjacency[path[-1]]:
            if nxt not in path:
                total += 1
                if len(path) < max_len:
                    total += count(path + [nxt])
        return total

    return sum(count([start]) for start in range(len(mol.atoms)))


def _try_random_molecule(rng: random.Random, max_atoms: int) -> Molecule | None:
    atoms: list[dict] = []  # symbol, aromatic, charge, isotope, hydrogens, chirality
    bonds: list[Bond] = []
    budget: list[int] = []

    def add_atom(symbol: str, max_valence: int, aromatic: bool = False,
                 hydrogens: int | None = None) -> int:
        atoms.append(
            dict(symbol=symbol, aromatic=aromatic, charge=0, isotope=None,
                 hydrogens=hydrogens, chirality=None)
        )
        budget.append(max_valence)
        return len(atoms) - 1

    def add_bond(a: int, b: int, order: int, aromatic: bool = False) -> None:
        bonds.append(Bond(a=a, b=b, order=order, aromatic=aromatic))
        budget[a] -= order
        budget[b] -= order

    n_fragments = 2 if rng.random() < 0.15 else 1
    target = rng.randint(max(3, n_fragments * 2), max_atoms)

    for _ in range(n_fragments):
        if len(atoms) >= target:
            break
        if rng.random() < 0.35 and target - len(atoms) >= 5:
            _add_aromatic_ring(rng, atoms, bonds, budget, add_atom, add_bond)
        else:
            symbol, valence, _ = _pick_element(rng)
            add_atom(symbol, valence)

    # tree growth
    while len(atoms) < target:
        parents = [i for i in range(len(atoms)) if budget[i] >= 1]
        if not parents:
            break
        parent = rng.choice(parents)
        symbol, valence, _ = _pick_element(rng)
        order = 1
        if symbol in ("C", "N") and budget[parent] >= 2 and rng.random() < 0.2:
            order = 2
            if symbol == "C" and budget[parent] >= 3 and rng.random() < 0.15:
                order = 3
        child = add_atom(symbol, valence)
        add_bond(parent, child, order)

    # occasional extra ring closures between non-adjacent atoms
    bonded = {(min(b.a, b.b), max(b.a, b.b)) for b in bonds}
    for _ in range(rng.randint(0, 2)):
        candidates = [i for i in range(len(atoms)) if budget[i] >= 1 and not atoms[i]["aromatic"]]
        rng.shuffle(candidates)
        placed = False
        for i in candidates:
            for j in candidates:
                if j <= i or (i, j) in bonded:
                    continue
                if _same_component(bonds, len(atoms), i, j):
                    add_bond(i, j, 1)
                    bonded.add((i, j))
                    placed = True
                    break
            if placed:
                break

    if len(atoms) < 1:
        return None

    _decorate(rng, atoms, bonds, budget)
    try:
        return Molecule([Atom(**spec) for spec in atoms], bonds)
    except ParseError:
        return None


def _pick_element(rng: random.Random):
    total = sum(w for _, _, w in _ELEMENTS)
    x = rng.random() * total
    for symbol, valence, weight in _ELEMENTS:
        x -= weight
        if x <= 0:
            return symbol, valence, weight
    return _ELEMENTS[0]


def _add_aromatic_ring(rng, atoms, bonds, budget, add_atom, add_bond) -> None:
    if rng.random() < 0.6:
        members = rng.choice(_AROMATIC_6)
    else:
        members = rng.choice(_AROMATIC_5)
    first = len(atoms)
    for symbol in members:
        if symbol == "NH":
            idx = add_atom("N", 0, aromatic=True, hydrogens=1)
        elif symbol == "N":
            idx = add_atom("N", 0, aromatic=True, hydrogens=0)
        elif symbol in ("O", "S"):
            idx = add_atom(symbol, 0, aromatic=True, hydrogens=0)
        else:
            # aromatic carbon keeps one substituent slot
            idx = add_atom("C", 1, aromatic=True, hydrogens=None)
    ring = list(range(first, len(atoms)))
    for k, a in enumerate(ring):
        b = ring[(k + 1) % len(ring)]
        bonds.append(Bond(a=a, b=b, order=1, aromatic=True))


def _same_component(bonds, n, i, j) -> bool:
    adj: dict[int, list[int]] = {}
    for b in bonds:
        adj.setdefault(b.a, []).append(b.b)
        adj.setdefault(b.b, []).append(b.a)
    seen = {i}
    frontier = [i]
    while frontier:
        u = frontier.pop()
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return j in seen


def _decorate(rng, atoms, bonds, budget) -> None:
    degrees = [0] * len(atoms)
    order_sum = [0] * len(atoms)
    for b in bonds:
        degrees[b.a] += 1
        degrees[b.b] += 1
        order_sum[b.a] += b.order
        order_sum[b.b] += b.order
    for i, spec in enumerate(atoms):
        if spec["aromatic"]:
            continue
        symbol = spec["symbol"]
        single_leaf = degrees[i] == 1 and order_sum[i] == 1
        if single_leaf and symbol == "O" and rng.random() < 0.08:
            spec["charge"] = -1
            spec["hydrogens"] = 0
        elif single_leaf and symbol == "N" and rng.random() < 0.06:
            spec["charge"] = 1
            spec["hydrogens"] = 3
        if rng.random() < 0.04:
            spec["isotope"] = rng.choice([2, 13, 15, 18])
        if symbol == "C" and degrees[i] >= 3 and rng.random() < 0.12:
            spec["chirality"] = rng.choice(["@", "@@"])
    # stereo annotations on a few plain single bonds
    for k, b in enumerate(bonds):
        if b.order == 1 and not b.aromatic and rng.random() < 0.05:
            bonds[k] = Bond(a=b.a, b=b.b, order=1, aromatic=False,
                            stereo=rng.choice(["up", "down"]))


# -- brute-force isomorphism --------------------------------------------------


def _atom_key(mol: Molecule, i: int):
    a = mol.atoms[i]
    return (a.symbol, a.aromatic, a.charge, a.isotope or 0, a.hydrogens,
            a.chirality or "", mol.degree(i))


def _edge_map(mol: Molecule):
    edges = {}
    for b in mol.bonds:
        edges[(b.a, b.b)] = (b.order, b.aromatic, b.stereo)
        flipped = None if b.stereo is None else ("down" if b.stereo == "up" else "up")
        edges[(b.b, b.a)] = (b.order, b.aromatic, flipped)
    return edges


def isomorphic(m1: Molecule, m2: Molecule) -> bool:
    """Backtracking isomorphism over annotated graphs (intended for <= ~12
    atoms). Bond stereo is direction-normalized, so (a,b,up) == (b,a,down)."""
    if len(m1.atoms) != len(m2.atoms) or len(m1.bonds) != len(m2.bonds):
        return False
    keys1 = sorted(_atom_key(m1, i) for i in range(len(m1.atoms)))
    keys2 = sorted(_atom_key(m2, i) for i in range(len(m2.atoms)))
    if keys1 != keys2:
        return False
    edges1 = _edge_map(m1)
    edges2 = _edge_map(m2)
    n = len(m1.atoms)
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> bool:
        if i == n:
            return True
        for j in range(n):
            if j in used or _atom_key(m1, i) != _atom_key(m2, j):
                continue
            ok = True
            for prev, mapped in mapping.items():
                e1 = edges1.get((i, prev))
                e2 = edges2.get((j, mapped))
                if e1 != e2:
                    ok = False
                    break
            if ok:
                mapping[i] = j
                used.add(j)
                if extend(i + 1):
                    return True
                del mapping[i]
                used.discard(j)
        return False

    return extend(0)
