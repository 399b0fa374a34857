"""Frozen input generator for the chemtext benchmark.

Everything here is self-contained: molecules are built as graphs with valence
budgets (the recipe of the repository's test helper ``tests/molgen.py``) and
written with this module's own SMILES writer. Nothing in ``chemtext`` is
called, so no library or test change can alter the inputs; the sha256 of the
default seed's files is pinned in ``digests.json``.

Inputs are stratified rather than drawn independently: molecule sizes cycle
through their whole range and each prediction category gets an exact share,
shuffled by the seed. Two seeds then differ in structure, not in how much
work they ask for, which keeps the run-to-run spread of the timings small.

Each generated case records the values a correct report must contain
(accuracy, validity and tallies), so the benchmark can check the program's
output for any seed.
"""

from __future__ import annotations

import gc
import json
import os
import random
import time
from dataclasses import dataclass, field

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
_AROMATIC_6 = [["C"] * 6, ["C", "C", "C", "C", "C", "N"], ["C", "C", "N", "C", "C", "N"]]
_AROMATIC_5 = [["C", "C", "C", "C", "O"], ["C", "C", "C", "C", "S"], ["C", "C", "C", "C", "NH"]]

_NON_SMILES = [
    "not a molecule",
    "the product is a white solid",
    "no reaction observed",
    "unknown compound",
    "see supporting information",
]


@dataclass
class Atom:
    symbol: str
    aromatic: bool = False
    charge: int = 0
    isotope: int | None = None
    hydrogens: int | None = None  # None: bare atom, hydrogens implied by valence


@dataclass
class Mol:
    atoms: list[Atom] = field(default_factory=list)
    bonds: list[tuple[int, int, int, bool]] = field(default_factory=list)  # a, b, order, aromatic

    def neighbors(self, i: int) -> list[tuple[int, int]]:
        out = []
        for bi, (a, b, _, _) in enumerate(self.bonds):
            if a == i:
                out.append((b, bi))
            elif b == i:
                out.append((a, bi))
        return out

    def signature(self) -> tuple:
        """Isomorphism invariant: equal for any two writings of one graph, so
        distinct signatures guarantee distinct canonical SMILES."""
        atoms = sorted(
            (a.symbol, a.aromatic, a.charge, a.isotope or 0, -1 if a.hydrogens is None else a.hydrogens)
            for a in self.atoms
        )
        bonds = sorted((order, aromatic) for _, _, order, aromatic in self.bonds)
        return (tuple(atoms), tuple(bonds))


# -- molecules -------------------------------------------------------------------


def _pick_element(rng: random.Random) -> tuple[str, int]:
    x = rng.random() * sum(w for _, _, w in _ELEMENTS)
    for symbol, budget, weight in _ELEMENTS:
        x -= weight
        if x <= 0:
            return symbol, budget
    return _ELEMENTS[0][0], _ELEMENTS[0][1]


def _component_of(mol: Mol, start: int, skip_bond: int = -1) -> set[int]:
    seen = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for v, bi in mol.neighbors(u):
            if bi != skip_bond and v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


def _try_molecule(rng: random.Random, target: int, fragments: int) -> Mol:
    mol = Mol()
    budget: list[int] = []

    def add_atom(atom: Atom, slots: int) -> int:
        mol.atoms.append(atom)
        budget.append(slots)
        return len(mol.atoms) - 1

    def add_bond(a: int, b: int, order: int, aromatic: bool = False) -> None:
        mol.bonds.append((a, b, order, aromatic))
        if not aromatic:
            budget[a] -= order
            budget[b] -= order

    for _ in range(fragments):
        if rng.random() < 0.35 and target - len(mol.atoms) >= 5:
            members = rng.choice(_AROMATIC_6) if rng.random() < 0.6 else rng.choice(_AROMATIC_5)
            first = len(mol.atoms)
            for symbol in members:
                if symbol == "NH":
                    add_atom(Atom("N", aromatic=True, hydrogens=1), 0)
                elif symbol == "C":
                    add_atom(Atom("C", aromatic=True), 1)  # one substituent slot
                else:
                    add_atom(Atom(symbol, aromatic=True), 0)
            ring = list(range(first, len(mol.atoms)))
            for k, a in enumerate(ring):
                add_bond(a, ring[(k + 1) % len(ring)], 1, aromatic=True)
        else:
            symbol, slots = _pick_element(rng)
            add_atom(Atom(symbol), slots)

    while len(mol.atoms) < target:
        parents = [i for i in range(len(mol.atoms)) if budget[i] >= 1]
        if not parents:
            break
        parent = rng.choice(parents)
        symbol, slots = _pick_element(rng)
        order = 1
        if symbol in ("C", "N") and budget[parent] >= 2 and rng.random() < 0.2:
            order = 2
            if symbol == "C" and budget[parent] >= 3 and rng.random() < 0.15:
                order = 3
        child = add_atom(Atom(symbol), slots)
        add_bond(parent, child, order)

    bonded = {(min(a, b), max(a, b)) for a, b, _, _ in mol.bonds}
    for _ in range(rng.randint(0, 2)):
        candidates = [i for i in range(len(mol.atoms)) if budget[i] >= 1 and not mol.atoms[i].aromatic]
        rng.shuffle(candidates)
        placed = False
        for i in candidates:
            for j in candidates:
                if j <= i or (i, j) in bonded or j not in _component_of(mol, i):
                    continue
                add_bond(i, j, 1)
                bonded.add((i, j))
                placed = True
                break
            if placed:
                break

    degree = [len(mol.neighbors(i)) for i in range(len(mol.atoms))]
    for i, atom in enumerate(mol.atoms):
        if atom.aromatic:
            continue
        single_leaf = degree[i] == 1 and any(
            order == 1 for a, b, order, _ in mol.bonds if i in (a, b)
        )
        if single_leaf and atom.symbol == "O" and rng.random() < 0.08:
            atom.charge, atom.hydrogens = -1, 0
        elif single_leaf and atom.symbol == "N" and rng.random() < 0.06:
            atom.charge, atom.hydrogens = 1, 3
        if rng.random() < 0.04:
            atom.isotope = rng.choice([2, 13, 15, 18])
            if atom.hydrogens is None:
                atom.hydrogens = budget[i]  # what the implicit count would be
    return mol


def random_molecule(rng: random.Random, n_atoms: int, fragments: int | None = None) -> Mol:
    """A molecule valid under conservative valences with ``n_atoms`` heavy
    atoms (fewer only if 50 tries all stop growing early)."""
    if fragments is None:
        fragments = 2 if rng.random() < 0.15 and n_atoms >= 4 else 1
    best = None
    for _ in range(50):
        mol = _try_molecule(rng, n_atoms, fragments)
        if len(mol.atoms) == n_atoms:
            return mol
        if best is None or len(mol.atoms) > len(best.atoms):
            best = mol
    return best


def split_precursors(mol: Mol, rng: random.Random) -> Mol | None:
    """Cut one acyclic single bond between two bare atoms, giving the
    two-fragment precursor set of a one-step synthesis of ``mol``."""
    cuts = []
    for bi, (a, b, order, aromatic) in enumerate(mol.bonds):
        if order != 1 or aromatic:
            continue
        if mol.atoms[a].hydrogens is not None or mol.atoms[b].hydrogens is not None:
            continue
        if b not in _component_of(mol, a, skip_bond=bi):
            cuts.append(bi)
    if not cuts:
        return None
    cut = rng.choice(cuts)
    return Mol(atoms=mol.atoms, bonds=[bond for bi, bond in enumerate(mol.bonds) if bi != cut])


# -- SMILES writer ----------------------------------------------------------------


def _atom_text(atom: Atom) -> str:
    symbol = atom.symbol.lower() if atom.aromatic else atom.symbol
    if atom.hydrogens is None and atom.charge == 0 and atom.isotope is None:
        return symbol
    parts = ["[", str(atom.isotope) if atom.isotope else "", symbol]
    if atom.hydrogens:
        parts.append("H" if atom.hydrogens == 1 else f"H{atom.hydrogens}")
    if atom.charge:
        parts.append("+" if atom.charge == 1 else "-" if atom.charge == -1 else f"{atom.charge:+d}")
    parts.append("]")
    return "".join(parts)


def _bond_text(mol: Mol, bi: int) -> str:
    a, b, order, aromatic = mol.bonds[bi]
    if aromatic:
        return ""
    if order == 2:
        return "="
    if order == 3:
        return "#"
    return "-" if mol.atoms[a].aromatic and mol.atoms[b].aromatic else ""


def write_smiles(mol: Mol, rng: random.Random | None = None) -> str:
    """SMILES for ``mol``: atoms in index order, or from a random start with
    random neighbor and fragment order when ``rng`` is given."""
    n = len(mol.atoms)
    rank = list(range(n))
    if rng is not None:
        rng.shuffle(rank)
    adjacency = [sorted(mol.neighbors(i), key=lambda e: rank[e[0]]) for i in range(n)]
    seen: set[int] = set()
    parts = []
    for start in sorted(range(n), key=lambda i: rank[i]):
        if start in seen:
            continue
        parts.append(_write_component(mol, start, adjacency, seen))
    if rng is not None:
        rng.shuffle(parts)
    return ".".join(parts)


def _write_component(mol: Mol, start: int, adjacency, seen: set[int]) -> str:
    children: dict[int, list[tuple[int, int]]] = {}
    ring_open: dict[int, list[int]] = {}
    ring_close: dict[int, list[int]] = {}
    used: set[int] = set()

    def walk(u: int) -> None:
        seen.add(u)
        children[u] = []
        for v, bi in adjacency[u]:
            if bi in used:
                continue
            used.add(bi)
            if v in seen:  # back edge to an ancestor: a ring closure
                ring_open.setdefault(v, []).append(bi)
                ring_close.setdefault(u, []).append(bi)
            else:
                children[u].append((v, bi))
                walk(v)

    walk(start)
    out: list[str] = []
    digit_of: dict[int, int] = {}
    free: list[int] = []
    next_digit = [1]

    def digit_text(d: int) -> str:
        return str(d) if d < 10 else f"%{d:02d}"

    def emit(u: int) -> None:
        out.append(_atom_text(mol.atoms[u]))
        for bi in ring_close.get(u, ()):
            d = digit_of.pop(bi)
            free.append(d)
            out.append(digit_text(d))
        for bi in ring_open.get(u, ()):
            if free:
                free.sort()
                d = free.pop(0)
            else:
                d = next_digit[0]
                next_digit[0] += 1
            digit_of[bi] = d
            out.append(_bond_text(mol, bi) + digit_text(d))
        kids = children[u]
        for k, (v, bi) in enumerate(kids):
            branch = k < len(kids) - 1
            if branch:
                out.append("(")
            out.append(_bond_text(mol, bi))
            emit(v)
            if branch:
                out.append(")")

    emit(start)
    return "".join(out)


# -- helpers ----------------------------------------------------------------------


def _stratified(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """``n`` values cycling through ``lo..hi``, in seeded order."""
    values = [lo + i % (hi - lo + 1) for i in range(n)]
    rng.shuffle(values)
    return values


def _categories(rng: random.Random, n: int, shares: list[tuple[str, float]]) -> list[str]:
    """Exactly ``round(share * n)`` of each category (the last takes the
    rest), in seeded order."""
    out: list[str] = []
    for name, share in shares[:-1]:
        out.extend([name] * round(share * n))
    out.extend([shares[-1][0]] * (n - len(out)))
    rng.shuffle(out)
    return out


def _other_molecule(rng: random.Random, n_atoms: int, avoid: set) -> Mol:
    while True:
        mol = random_molecule(rng, n_atoms)
        if mol.signature() not in avoid:
            return mol


def _pair_line(i: int, task: str, prediction: str, reference: str) -> str:
    return json.dumps({"id": str(i), "task": task, "prediction": prediction, "reference": reference})


def _write_lines(path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        for line in lines:
            fp.write(line + "\n")


# -- SMILES workloads ----------------------------------------------------------------


def text2mol_pairs(rng: random.Random, n: int, max_atoms: int) -> tuple[list[str], dict]:
    """The acceptance-criterion-8 mix: 40% rewritten-correct predictions, 30%
    another valid molecule, 15% broken SMILES, 15% non-SMILES text."""
    sizes = _stratified(rng, n, 3, max_atoms)
    other_sizes = _stratified(rng, n, 3, max_atoms)
    kinds = _categories(rng, n, [("rewrite", 0.4), ("other", 0.3), ("broken", 0.15), ("text", 0.15)])
    lines = []
    for i in range(n):
        mol = random_molecule(rng, sizes[i])
        reference = write_smiles(mol)
        kind = kinds[i]
        if kind == "rewrite":
            prediction = write_smiles(mol, rng)
        elif kind == "other":
            prediction = write_smiles(_other_molecule(rng, other_sizes[i], {mol.signature()}), rng)
        elif kind == "broken":
            prediction = "C(" + reference
        else:
            prediction = rng.choice(_NON_SMILES)
        lines.append(_pair_line(i, "text2mol", prediction, reference))
    n_valid = kinds.count("rewrite") + kinds.count("other")
    expect = {
        "n_total": n,
        "n_valid_pred": n_valid,
        "n_skipped": n - n_valid,
        "metrics": {"accuracy": kinds.count("rewrite") / n, "validity": n_valid / n},
    }
    return lines, expect


def forward_pairs(rng: random.Random, n: int, max_atoms: int) -> tuple[list[str], dict]:
    """Products against predictions: 50% rewritten-correct, 25% another
    molecule, 15% broken SMILES, 10% non-SMILES text."""
    sizes = _stratified(rng, n, 2, max_atoms)
    kinds = _categories(rng, n, [("rewrite", 0.5), ("other", 0.25), ("broken", 0.15), ("text", 0.1)])
    lines = []
    for i in range(n):
        mol = random_molecule(rng, sizes[i])
        reference = write_smiles(mol, rng)
        kind = kinds[i]
        if kind == "rewrite":
            prediction = write_smiles(mol, rng)
        elif kind == "other":
            prediction = write_smiles(_other_molecule(rng, sizes[i], {mol.signature()}), rng)
        elif kind == "broken":
            prediction = "C(" + reference
        else:
            prediction = rng.choice(_NON_SMILES)
        lines.append(_pair_line(i, "forward", prediction, reference))
    n_valid = n - kinds.count("broken") - kinds.count("text")
    expect = {
        "n_total": n,
        "n_valid_pred": n_valid,
        "n_skipped": 0,
        "metrics": {"accuracy": kinds.count("rewrite") / n},
    }
    return lines, expect


def retro_case(rng: random.Random, n: int, max_atoms: int) -> tuple[list[str], list[str], dict]:
    """A ``lookup:`` oracle of ``n`` two-fragment reactions and ``n`` retro
    predictions: 60% rewritten true precursors (a roundtrip hit), 15% the
    precursors of another product, 15% precursors the oracle does not know,
    10% broken SMILES. Precursor and product signatures are unique in the
    table, so each category's outcome is certain."""
    sizes = _stratified(rng, n, 3, max_atoms)
    products: list[Mol] = []
    precursors: list[Mol] = []
    seen_products: set = set()
    seen_precursors: set = set()
    for i in range(n):
        while True:
            mol = random_molecule(rng, sizes[i], fragments=1)
            parts = split_precursors(mol, rng)
            if parts is None:
                continue
            if mol.signature() in seen_products or parts.signature() in seen_precursors:
                continue
            break
        seen_products.add(mol.signature())
        seen_precursors.add(parts.signature())
        products.append(mol)
        precursors.append(parts)
    oracle = [
        json.dumps({"precursors": write_smiles(parts), "product": write_smiles(mol)})
        for mol, parts in zip(products, precursors)
    ]
    kinds = _categories(rng, n, [("hit", 0.6), ("wrong", 0.15), ("unknown", 0.15), ("broken", 0.1)])
    lines = []
    for i in range(n):
        reference = write_smiles(products[i], rng)
        kind = kinds[i]
        if kind == "hit":
            prediction = write_smiles(precursors[i], rng)
        elif kind == "wrong":
            prediction = write_smiles(precursors[(i + 1 + rng.randrange(n - 1)) % n], rng)
        elif kind == "unknown":
            while True:
                mol = random_molecule(rng, sizes[i], fragments=1)
                parts = split_precursors(mol, rng)
                if parts is not None and parts.signature() not in seen_precursors:
                    break
            prediction = write_smiles(parts, rng)
        else:
            prediction = "C(" + write_smiles(precursors[i], rng)
        lines.append(_pair_line(i, "retro", prediction, reference))
    failures = kinds.count("unknown") + kinds.count("broken")
    expect = {
        "n_total": n,
        "n_valid_pred": n - kinds.count("broken"),
        "n_skipped": 0,
        "skip_reasons": {"oracle_failure": failures},
        "metrics": {"roundtrip_accuracy": kinds.count("hit") / n},
    }
    return lines, oracle, expect


def canonicalize_lines(rng: random.Random, n_molecules: int, max_atoms: int) -> tuple[list[str], list[tuple]]:
    """Two random writings of each molecule, shuffled; returns the lines and
    each line's signature (equal canonical output needs equal signature)."""
    sizes = _stratified(rng, n_molecules, 1, max_atoms)
    rows = []
    for i in range(n_molecules):
        mol = random_molecule(rng, sizes[i])
        rows.append((write_smiles(mol, rng), mol.signature(), i))
        rows.append((write_smiles(mol, rng), mol.signature(), i))
    rng.shuffle(rows)
    return [r[0] for r in rows], [(r[1], r[2]) for r in rows]


# -- text workloads -----------------------------------------------------------------

_CAPTION_WORDS = (
    "the molecule is a an of and with in to which has been derived from that "
    "acid ester amide amine alcohol ketone aldehyde ether phenol thiol nitrile "
    "group groups ring rings chain chains substituent substituents position "
    "carbon nitrogen oxygen sulfur chlorine bromine fluorine hydrogen atom atoms "
    "aromatic aliphatic cyclic acyclic saturated unsaturated conjugated branched "
    "member members compound compounds derivative derivatives class "
    "functionally related conjugate base cation anion tautomer isomer "
    "role metabolite inhibitor agonist antagonist antibacterial drug agent "
    "plant human mouse bacterial fungal natural product "
    "substituted replaced attached bonded linked fused contains containing "
    "hydroxy methyl ethyl propyl butyl phenyl benzyl oxo amino nitro chloro "
    "obtained formally condensation oxidation reduction hydrolysis "
    "it is has as by at on for or being carrying bearing"
).split()

_VARIANTS = {
    "group": "grouped", "ring": "ringed", "chain": "chained", "substituted": "substituting",
    "replaced": "replacing", "attached": "attaching", "bonded": "bonding", "linked": "linking",
    "fused": "fusing", "contains": "contained", "derived": "deriving", "related": "relating",
    "obtained": "obtaining", "member": "members", "compound": "compounds", "derivative": "derivatives",
    "atom": "atoms", "inhibitor": "inhibitors", "agent": "agents", "carrying": "carried",
    "bearing": "bears", "conjugated": "conjugating", "branched": "branching",
    "oxidation": "oxidations", "reduction": "reductions", "acid": "acids", "ester": "esters",
}

_ACTIONS = ["ADD", "STIR", "FILTER", "WASH", "DRY", "CONCENTRATE", "PURIFY", "HEAT", "COOL",
            "EXTRACT", "QUENCH", "YIELD", "SETTEMPERATURE", "WAIT", "PARTITION"]
_ACTION_ARGS = ["water", "ethyl acetate", "dichloromethane", "methanol", "brine", "sodium sulfate",
                "5 min", "1 h", "overnight", "0 C", "room temperature", "reflux", "silica gel",
                "the residue", "the filtrate", "the organic layer", "hydrochloric acid", "THF"]


def _caption(rng: random.Random, n_words: int) -> list[str]:
    words = []
    while len(words) < n_words:
        sentence = rng.randint(6, 18)
        for k in range(min(sentence, n_words - len(words))):
            word = rng.choice(_CAPTION_WORDS)
            words.append(word.capitalize() if k == 0 else word)
        words[-1] = words[-1] + "."
    return words


def _perturb(rng: random.Random, words: list[str], vocab: list[str]) -> list[str]:
    out = []
    for word in words:
        roll = rng.random()
        if roll < 0.05:
            continue
        if roll < 0.17:
            bare = word.rstrip(".").lower()
            out.append(_VARIANTS.get(bare, word))
        elif roll < 0.27:
            out.append(rng.choice(vocab))
        else:
            out.append(word)
        if rng.random() < 0.05:
            out.append(rng.choice(vocab))
    for _ in range(len(out) // 30):
        k = rng.randrange(len(out) - 1)
        out[k], out[k + 1] = out[k + 1], out[k]
    return out


def mol2text_pairs(rng: random.Random, n: int) -> tuple[list[str], dict]:
    lengths = _stratified(rng, n, 20, 90)
    lines = []
    for i in range(n):
        reference = _caption(rng, lengths[i])
        prediction = _perturb(rng, reference, _CAPTION_WORDS)
        lines.append(_pair_line(i, "mol2text", " ".join(prediction), " ".join(reference)))
    return lines, {"n_total": n, "n_valid_pred": 0, "n_skipped": 0}


def _actions(rng: random.Random, n_words: int) -> list[str]:
    words: list[str] = []
    while len(words) < n_words:
        words.append(rng.choice(_ACTIONS))
        for _ in range(rng.randint(0, 2)):
            words.extend(rng.choice(_ACTION_ARGS).split())
        words.append(";")
    return words


def para2actions_pairs(rng: random.Random, n: int) -> tuple[list[str], dict]:
    """30% of predictions equal the reference up to whitespace; the rest
    differ in at least one token."""
    lengths = _stratified(rng, n, 20, 90)
    kinds = _categories(rng, n, [("exact", 0.3), ("edited", 0.7)])
    lines = []
    for i in range(n):
        reference = _actions(rng, lengths[i])
        if kinds[i] == "exact":
            prediction = "  ".join(reference) + " "
        else:
            words = _perturb(rng, reference, _ACTIONS)
            k = rng.randrange(len(words))
            words[k] = "UNUSED" if words[k] != "UNUSED" else "UNKNOWN"
            prediction = " ".join(words)
        lines.append(_pair_line(i, "para2actions", prediction, " ".join(reference)))
    expect = {
        "n_total": n,
        "n_valid_pred": 0,
        "n_skipped": 0,
        "metrics": {"accuracy": kinds.count("exact") / n},
    }
    return lines, expect


def task_streams(rng: random.Random, sizes: dict[str, int]) -> dict[str, list[str]]:
    """One JSONL record stream per task kind for ``build-dataset``."""
    streams: dict[str, list[str]] = {}
    for task, n in sizes.items():
        lines = []
        for _ in range(n):
            mol = random_molecule(rng, rng.randint(3, 20))
            smiles = write_smiles(mol, rng)
            text = " ".join(_caption(rng, rng.randint(12, 40)))
            if task in ("forward", "retro"):
                other = write_smiles(random_molecule(rng, rng.randint(2, 10)), rng)
                source, target = (f"{smiles}.{other}", smiles) if task == "forward" else (smiles, f"{smiles}.{other}")
            elif task == "para2actions":
                source, target = text, " ".join(_actions(rng, rng.randint(10, 40)))
            elif task == "text2mol":
                source, target = text, smiles
            else:
                source, target = smiles, text
            lines.append(json.dumps({"task": task, "source": source, "target": target}))
        streams[task] = lines
    return streams


# -- speed probe ----------------------------------------------------------------------


def speed_probe() -> float:
    """Wall time of a fixed slice of this module's work: ten 12-atom molecules
    generated and written. The benchmark samples the machine's speed with it;
    the cyclic garbage collector is paused so the caller's heap does not
    count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        rng = random.Random(12345)
        start = time.perf_counter()
        for _ in range(10):
            write_smiles(random_molecule(rng, 12, fragments=1), rng)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


# -- workloads ------------------------------------------------------------------------


@dataclass
class Inputs:
    """Files written for one workload plus what a correct run must print."""

    files: dict[str, str]  # name -> path
    expect: dict = field(default_factory=dict)


WORKLOAD_SIZES = {
    "text2mol_30": {"pairs": 1000, "max_atoms": 30},
    "reactions_10": {"forward": 2000, "retro": 1000, "canon_molecules": 1000, "max_atoms": 10},
    "captions": {
        "mol2text": 1400,
        "para2actions": 600,
        "streams": {"forward": 1600, "retro": 700, "para2actions": 1200, "text2mol": 900, "mol2text": 1000},
        "per_task": 1000,
    },
}


def generate(workload: str, seed: int, out_dir) -> Inputs:
    """Write the workload's input files for ``seed`` into ``out_dir``."""
    sizes = WORKLOAD_SIZES[workload]
    rng = random.Random(f"chemtext-perfbench/{workload}/{seed}")
    files: dict[str, str] = {}
    expect: dict = {}

    def put(name: str, lines: list[str]) -> None:
        path = os.path.join(out_dir, name)
        _write_lines(path, lines)
        files[name] = path

    if workload == "text2mol_30":
        lines, expect["text2mol"] = text2mol_pairs(rng, sizes["pairs"], sizes["max_atoms"])
        put("text2mol.jsonl", lines)
        put("text2mol_one.jsonl", lines[:1])
    elif workload == "reactions_10":
        lines, expect["forward"] = forward_pairs(rng, sizes["forward"], sizes["max_atoms"])
        put("forward.jsonl", lines)
        lines, oracle, expect["retro"] = retro_case(rng, sizes["retro"], sizes["max_atoms"])
        put("retro.jsonl", lines)
        put("retro_one.jsonl", lines[:1])
        put("oracle.jsonl", oracle)
        lines, expect["canonicalize"] = canonicalize_lines(rng, sizes["canon_molecules"], sizes["max_atoms"])
        put("canonicalize.txt", lines)
    elif workload == "captions":
        lines, expect["mol2text"] = mol2text_pairs(rng, sizes["mol2text"])
        put("mol2text.jsonl", lines)
        put("mol2text_one.jsonl", lines[:1])
        lines, expect["para2actions"] = para2actions_pairs(rng, sizes["para2actions"])
        put("para2actions.jsonl", lines)
        streams = task_streams(rng, sizes["streams"])
        for task, lines in streams.items():
            put(f"stream_{task}.jsonl", lines)
        expect["build-dataset"] = {"per_task": sizes["per_task"], "streams": streams}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Inputs(files=files, expect=expect)
