"""SMILES parser: token sequence to molecular graph.

The parser resolves branches and ring closures into an explicit atom/bond
graph. ``Molecule(atoms, bonds)``, the one constructor, checks the bonds,
gives atoms without a hydrogen count their valence-table default and records
each atom's adjacency, bond-order total and default hydrogen count, which
validation, canonicalization and fingerprints read. Atoms are frozen, so the
parser takes organic-subset atoms from a prebuilt table and the constructor
takes each atom with its default filled in from a bounded memo instead of
building new ones. Aromaticity is taken syntactically from lowercase
notation; no ring perception or kekulization.

Bracket atoms support the standard field order
``[isotope? symbol chirality? Hcount? charge? :map?]``; atom maps are accepted
and ignored. Ring-closure labels are reusable once closed, and closures may
span ``.`` separators (so ``C1.C1`` parses to ethane written as two dot
fragments). :attr:`Molecule.components` finds the connected components from
the bonds, never from the dots, so that ethane is one component.

Bond stereo markers ``/`` and ``\\`` and the chirality tags ``@``/``@@`` are
preserved as annotations. A bond's ``stereo`` field is oriented: ``up`` means
the bond was written ``/`` when traversing from ``a`` to ``b``; the same bond
read in the other direction is ``down``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Sequence

from chemtext.errors import ChemtextError
from chemtext.smiles.tokenize import (
    AROMATIC_ORGANIC,
    ORGANIC_ONE_LETTER,
    ORGANIC_TWO_LETTER,
    Token,
    TokenKind,
    ring_label,
    tokenize,
)

if TYPE_CHECKING:
    from chemtext.smiles.valence import ValidityResult

# Lowercase symbols allowed as aromatic atoms inside brackets.
AROMATIC_BRACKET = frozenset({"b", "c", "n", "o", "p", "s", "se", "as"})

BOND_ORDER = {"-": 1, "=": 2, "#": 3}


class ParseError(ChemtextError):
    """Structurally invalid SMILES (unbalanced branches, bad rings, ...)."""


@dataclass(frozen=True)
class Atom:
    """One atom of the graph.

    ``hydrogens`` is the total hydrogen count: the explicit count for
    bracket atoms, or ``None`` for "the valence-table default", which the
    :class:`Molecule` constructor fills in. Inside a molecule it is always
    an int.
    """

    symbol: str
    aromatic: bool = False
    charge: int = 0
    isotope: int | None = None
    hydrogens: int | None = None
    chirality: str | None = None


@dataclass(frozen=True)
class Bond:
    """Bond between atom indices ``a`` and ``b``.

    ``order`` is 1, 2 or 3; aromatic bonds carry ``order == 1`` plus the
    ``aromatic`` flag. ``stereo`` is ``None``, ``"up"`` or ``"down"``,
    oriented from ``a`` to ``b``, and only a plain single bond carries one.
    """

    a: int
    b: int
    order: int = 1
    aromatic: bool = False
    stereo: str | None = None

    @property
    def symbol(self) -> str:
        """``:`` if aromatic, otherwise ``-``, ``=`` or ``#`` by order; path
        fingerprints and substructure keys read bonds by this symbol."""
        return ":" if self.aromatic else "-=#"[self.order - 1]


@dataclass(frozen=True)
class Molecule:
    """Immutable molecular graph, checked and resolved when built.

    Atoms and bonds may be any iterables and are stored as tuples. A bond
    that breaks a :class:`Bond` rule, joins an atom to itself or to a missing
    atom, repeats a pair, or is aromatic between atoms not both aromatic
    raises :class:`ParseError`, as does an atom whose charge is not an int
    or whose isotope or hydrogen count is neither ``None`` nor a
    non-negative int. An atom with ``hydrogens=None`` gets its
    valence-table default. Equality, hashing and ``repr`` read only
    ``atoms`` and ``bonds``; the other fields are facts recorded on the way.
    """

    atoms: tuple[Atom, ...]
    bonds: tuple[Bond, ...]
    # per atom: tuple of (neighbor index, bond index) pairs
    adjacency: tuple[tuple[tuple[int, int], ...], ...] = field(
        init=False, repr=False, compare=False
    )
    # per atom: the sum of its bonds' orders (an aromatic bond counts 1)
    bond_order_totals: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # per atom: the hydrogen count the valence table gives it when written bare
    default_hydrogens: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        from chemtext.smiles.valence import hydrogens_for_total  # valence imports this module

        atoms = tuple(self.atoms)
        bonds = tuple(self.bonds)
        n = len(atoms)
        seen_pairs: set[tuple[int, int]] = set()
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        totals = [0] * n
        for bi, bond in enumerate(bonds):
            a, b, order = bond.a, bond.b, bond.order
            if not (0 <= a < n and 0 <= b < n):
                raise ParseError(f"bond endpoint out of range: {bond}")
            if a == b:
                raise ParseError(f"bond endpoints must be distinct: {bond}")
            pair = (a, b) if a < b else (b, a)
            if pair in seen_pairs:
                raise ParseError(f"duplicate bond between atoms {pair}")
            seen_pairs.add(pair)
            if order not in (1, 2, 3):
                raise ParseError(f"bond order must be 1, 2 or 3: {bond}")
            if bond.aromatic:
                if order != 1:
                    raise ParseError(f"aromatic bond must have order 1: {bond}")
                if not (atoms[a].aromatic and atoms[b].aromatic):
                    raise ParseError(f"aromatic bond between non-aromatic atoms {pair}")
            if bond.stereo is not None:
                if bond.stereo not in ("up", "down"):
                    raise ParseError(f"bond stereo must be None, 'up' or 'down': {bond}")
                if order != 1 or bond.aromatic:
                    raise ParseError("stereo marker on a non-single bond")
            adj[a].append((b, bi))
            adj[b].append((a, bi))
            totals[a] += order
            totals[b] += order
        adjacency = tuple(map(tuple, adj))
        defaults: list[int] = []
        resolved: list[Atom] = []
        for atom, total, entries in zip(atoms, totals, adjacency):
            isotope, hydrogens = atom.isotope, atom.hydrogens
            if type(atom.charge) is not int:
                raise ParseError(f"atom charge must be an int: {atom}")
            if isotope is not None and (type(isotope) is not int or isotope < 0):
                raise ParseError(f"atom isotope must be None or a non-negative int: {atom}")
            if hydrogens is not None and (type(hydrogens) is not int or hydrogens < 0):
                raise ParseError(f"atom hydrogen count must be None or a non-negative int: {atom}")
            h = hydrogens_for_total(atom.symbol, atom.aromatic, total, len(entries))
            defaults.append(h)
            if hydrogens is None:
                atom = _resolved_atom(
                    atom.symbol, atom.aromatic, atom.charge, isotope, atom.chirality, h
                )
            resolved.append(atom)
        set_field = object.__setattr__  # the dataclass is frozen
        set_field(self, "atoms", tuple(resolved))
        set_field(self, "bonds", bonds)
        set_field(self, "adjacency", adjacency)
        set_field(self, "bond_order_totals", tuple(totals))
        set_field(self, "default_hydrogens", tuple(defaults))

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as ascending atom-index tuples, ordered by
        their smallest atom index. A ring bond that spans a dot joins its
        two sides into one component."""
        adjacency = self.adjacency
        seen = [False] * len(self.atoms)
        components: list[tuple[int, ...]] = []
        for start in range(len(self.atoms)):
            if seen[start]:
                continue
            comp = [start]
            seen[start] = True
            frontier = [start]
            while frontier:
                u = frontier.pop()
                for v, _ in adjacency[u]:
                    if not seen[v]:
                        seen[v] = True
                        comp.append(v)
                        frontier.append(v)
            components.append(tuple(sorted(comp)))
        return tuple(components)

    @cached_property
    def validity(self) -> ValidityResult:
        """:func:`~chemtext.smiles.valence.validate` of this molecule,
        computed once; canonicalization and fingerprints read it."""
        from chemtext.smiles import valence  # valence imports this module

        return valence.validate(self)

    @cached_property
    def ring_bond_indices(self) -> frozenset[int]:
        """Indices of bonds that lie on a cycle (non-bridge edges)."""
        return _non_bridge_edges(self.adjacency, len(self.bonds))

    @cached_property
    def ring_atom_indices(self) -> frozenset[int]:
        atoms: set[int] = set()
        for bi in self.ring_bond_indices:
            atoms.add(self.bonds[bi].a)
            atoms.add(self.bonds[bi].b)
        return frozenset(atoms)


@lru_cache(maxsize=1024, typed=True)
def _resolved_atom(
    symbol: str, aromatic: bool, charge: int, isotope: int | None, chirality: str | None, h: int
) -> Atom:
    """The atom with these fields and ``h`` hydrogens, built once per
    distinct fields. The memo keys on each field's value and type, so an atom
    keeps the repr it was given: ``aromatic=1`` is not answered with ``True``."""
    return Atom(symbol, aromatic, charge, isotope, h, chirality)


def _non_bridge_edges(adj: Sequence[Sequence[tuple[int, int]]], n_bonds: int) -> frozenset[int]:
    """Bridge detection via iterative DFS low-links over
    :attr:`Molecule.adjacency`; returns ring bonds."""
    n_atoms = len(adj)
    disc = [-1] * n_atoms
    low = [0] * n_atoms
    bridges: set[int] = set()
    timer = 0
    for root in range(n_atoms):
        if disc[root] >= 0:
            continue
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]
        while stack:
            node, via_bond, ptr = stack[-1]
            if ptr == 0:
                disc[node] = low[node] = timer
                timer += 1
            if ptr < len(adj[node]):
                stack[-1] = (node, via_bond, ptr + 1)
                nxt, bi = adj[node][ptr]
                if bi == via_bond:
                    continue
                if disc[nxt] >= 0:
                    low[node] = min(low[node], disc[nxt])
                else:
                    stack.append((nxt, bi, 0))
            else:
                stack.pop()
                if stack:
                    parent_node = stack[-1][0]
                    low[parent_node] = min(low[parent_node], low[node])
                    if low[node] > disc[parent_node]:
                        bridges.add(via_bond)
    return frozenset(set(range(n_bonds)) - bridges)


# Organic-subset atoms by token text; hydrogens stay None until the
# Molecule constructor resolves them.
_ORGANIC_ATOMS = {
    **{text: Atom(text) for text in (*ORGANIC_ONE_LETTER, *ORGANIC_TWO_LETTER)},
    **{text: Atom(text.upper(), aromatic=True) for text in AROMATIC_ORGANIC},
}


@dataclass
class _PendingBond:
    order: int | None = None
    aromatic: bool | None = None  # True only for an explicit ':'
    stereo: str | None = None


class _Parser:
    def __init__(self, tokens: Sequence[Token]) -> None:
        self.tokens = tokens
        self.atoms: list[Atom] = []
        self.bonds: list[Bond] = []
        self.prev: int | None = None
        self.pending: _PendingBond | None = None
        self.branch_stack: list[int] = []
        # label -> (atom index, pending bond at the opening site)
        self.open_rings: dict[int, tuple[int, _PendingBond | None]] = {}

    def parse(self) -> Molecule:
        if not self.tokens:
            raise ParseError("empty SMILES")
        for token in self.tokens:
            kind = token.kind
            if kind in (TokenKind.ATOM_ORGANIC, TokenKind.ATOM_BRACKET):
                self._on_atom(token)
            elif kind is TokenKind.BOND:
                self._on_bond(token)
            elif kind is TokenKind.RING_CLOSURE:
                self._on_ring(token)
            elif kind is TokenKind.BRANCH_OPEN:
                self._on_branch_open(token)
            elif kind is TokenKind.BRANCH_CLOSE:
                self._on_branch_close(token)
            else:
                self._on_dot(token)
        if self.pending is not None:
            raise ParseError("bond symbol with no following atom at end of input")
        if self.open_rings:
            labels = ", ".join(str(k) for k in sorted(self.open_rings))
            raise ParseError(f"unclosed ring label(s): {labels}")
        if self.branch_stack:
            raise ParseError("unclosed branch at end of input")
        if self.prev is None:
            raise ParseError("dangling dot at end of input")
        return Molecule(self.atoms, self.bonds)

    # -- token handlers -------------------------------------------------

    def _on_atom(self, token: Token) -> None:
        if token.kind is TokenKind.ATOM_ORGANIC:
            atom = _ORGANIC_ATOMS[token.text]
        else:
            atom = _parse_bracket(token)
        index = len(self.atoms)
        self.atoms.append(atom)
        if self.prev is not None:
            self._append_bond(self.prev, index, self.pending)
        self.pending = None
        self.prev = index

    def _on_bond(self, token: Token) -> None:
        if self.pending is not None:
            raise ParseError(f"two bond symbols in a row at position {token.position}")
        if self.prev is None:
            raise ParseError(f"bond symbol with no preceding atom at position {token.position}")
        ch = token.text
        if ch == ":":
            self.pending = _PendingBond(1, aromatic=True)
        elif ch in "/\\":
            self.pending = _PendingBond(1, stereo="up" if ch == "/" else "down")
        else:
            self.pending = _PendingBond(BOND_ORDER[ch])

    def _on_ring(self, token: Token) -> None:
        if self.prev is None:
            raise ParseError(f"ring closure with no preceding atom at position {token.position}")
        label = ring_label(token)
        if label in self.open_rings:
            other, opening = self.open_rings.pop(label)
            if other == self.prev:
                raise ParseError(f"ring label {label} closes onto its own atom")
            self._close_ring(other, self.prev, opening, self.pending, label)
        else:
            self.open_rings[label] = (self.prev, self.pending)
        self.pending = None

    def _close_ring(
        self,
        a: int,
        b: int,
        opening: _PendingBond | None,
        closing: _PendingBond | None,
        label: int,
    ) -> None:
        order_a = opening.order if opening else None
        order_b = closing.order if closing else None
        arom_a = opening.aromatic if opening else None
        arom_b = closing.aromatic if closing else None
        if order_a is not None and order_b is not None:
            same_arom = bool(arom_a) == bool(arom_b)
            if order_a != order_b or not same_arom:
                raise ParseError(f"conflicting bond symbols on ring label {label}")
        order = order_a if order_a is not None else order_b
        explicit_aromatic = bool(arom_a) or bool(arom_b)
        # Stereo is oriented from a to b. A marker written at the closing
        # site describes the b->a direction and is flipped.
        stereo_a = opening.stereo if opening else None
        stereo_b = closing.stereo if closing else None
        if stereo_b is not None:
            stereo_b = "down" if stereo_b == "up" else "up"
        if stereo_a is not None and stereo_b is not None and stereo_a != stereo_b:
            raise ParseError(f"conflicting stereo markers on ring label {label}")
        stereo = stereo_a if stereo_a is not None else stereo_b
        self._append_bond(a, b, _PendingBond(order, explicit_aromatic, stereo))

    def _append_bond(self, a: int, b: int, pending: _PendingBond | None) -> None:
        if pending is None or pending.order is None:
            # no bond symbol: single, aromatic between two aromatic atoms
            self.bonds.append(Bond(a, b, 1, self.atoms[a].aromatic and self.atoms[b].aromatic))
            return
        # the Molecule constructor checks the bonds (duplicates, aromatic ends, stereo)
        self.bonds.append(Bond(a, b, pending.order, bool(pending.aromatic), pending.stereo))

    def _on_branch_open(self, token: Token) -> None:
        if self.prev is None:
            raise ParseError(f"branch with no root atom at position {token.position}")
        if self.pending is not None:
            raise ParseError(f"bond symbol before branch at position {token.position}")
        self.branch_stack.append(self.prev)

    def _on_branch_close(self, token: Token) -> None:
        if not self.branch_stack:
            raise ParseError(f"unbalanced ')' at position {token.position}")
        if self.pending is not None:
            raise ParseError(f"dangling bond inside branch at position {token.position}")
        root = self.branch_stack.pop()
        if self.prev == root:
            raise ParseError(f"empty branch at position {token.position}")
        self.prev = root

    def _on_dot(self, token: Token) -> None:
        if self.branch_stack:
            raise ParseError(f"dot inside branch at position {token.position}")
        if self.pending is not None:
            raise ParseError(f"bond symbol before dot at position {token.position}")
        if self.prev is None:
            raise ParseError(f"dangling dot at position {token.position}")
        self.prev = None


def _parse_bracket(token: Token) -> Atom:
    inner = token.text[1:-1]
    pos = token.position
    i = 0
    n = len(inner)

    def fail(msg: str) -> ParseError:
        return ParseError(f"{msg} in bracket atom {token.text!r} at position {pos}")

    isotope: int | None = None
    start = i
    while i < n and inner[i].isdigit():
        i += 1
    if i > start:
        isotope = int(inner[start:i])

    aromatic = False
    if len(inner[i : i + 2]) == 2 and inner[i : i + 2] in ("se", "as"):
        symbol = inner[i : i + 2].capitalize()
        aromatic = True
        i += 2
    elif i < n and inner[i].islower():
        if inner[i] not in AROMATIC_BRACKET:
            raise fail(f"unknown aromatic symbol {inner[i]!r}")
        symbol = inner[i].upper()
        aromatic = True
        i += 1
    elif i < n and inner[i].isupper():
        symbol = inner[i]
        i += 1
        if i < n and inner[i].islower():
            symbol += inner[i]
            i += 1
    else:
        raise fail("expected element symbol")

    chirality: str | None = None
    if i < n and inner[i] == "@":
        i += 1
        if i < n and inner[i] == "@":
            chirality = "@@"
            i += 1
        else:
            chirality = "@"

    hydrogens = 0
    if i < n and inner[i] == "H":
        i += 1
        start = i
        while i < n and inner[i].isdigit():
            i += 1
        hydrogens = int(inner[start:i]) if i > start else 1

    charge = 0
    if i < n and inner[i] in "+-":
        sign = 1 if inner[i] == "+" else -1
        ch = inner[i]
        run = 0
        while i < n and inner[i] == ch:
            run += 1
            i += 1
        start = i
        while i < n and inner[i].isdigit():
            i += 1
        if i > start:
            if run > 1:
                raise fail("charge combines repeated signs with digits")
            charge = sign * int(inner[start:i])
        else:
            charge = sign * run

    if i < n and inner[i] == ":":
        # atom map label: accepted and ignored
        i += 1
        start = i
        while i < n and inner[i].isdigit():
            i += 1
        if i == start:
            raise fail("expected digits after ':'")

    if i != n:
        raise fail(f"unexpected {inner[i:]!r}")
    return Atom(
        symbol=symbol,
        aromatic=aromatic,
        charge=charge,
        isotope=isotope,
        hydrogens=hydrogens,
        chirality=chirality,
    )


def parse(tokens: Sequence[Token]) -> Molecule:
    """Parse a token sequence (from :func:`chemtext.smiles.tokenize.tokenize`)
    into a :class:`Molecule`.

    Raises:
        ParseError: on unbalanced branches, reused-unclosed or conflicting
            ring labels, bond symbols with no following atom, or dangling
            dots.
    """
    return _Parser(tokens).parse()


def parse_smiles(smiles: str) -> Molecule:
    """Tokenize and parse in one step."""
    return parse(tokenize(smiles))
