"""Valence bookkeeping: implicit hydrogens and validity checking.

Validity here means "tokenizes, parses, and passes the default valence
table". The table covers the organic subset plus common bracket elements;
bracket atoms with unknown elements are accepted with unchecked valence.

Aromatic accounting is purely syntactic and documented here once:

- an aromatic bond contributes 1 to an atom's bond-order total;
- neutral aromatic carbon receives one extra valence unit for the ring pi
  system (charged aromatic carbons donate a lone pair or empty orbital
  instead, like the cyclopentadienyl anion or tropylium cation);
- aromatic nitrogen/phosphorus receive that unit only when bare and
  two-connected (pyridine-like); with an explicit hydrogen or a substituent
  they are pyrrole-like donors and receive none;
- aromatic boron, oxygen, sulfur, selenium and arsenic never receive it.

This reproduces the expected hydrogen counts for benzene, naphthalene,
pyridine, pyrrole, furan, thiophene and friends without ring perception.

Charge shifts the allowed valences in the electron-pair sense: nitrogen-side
elements gain ``charge`` (so N+ allows 4, O- allows 1), boron gains
``-charge`` (so B- allows 4), and carbon loses ``|charge|``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from chemtext.errors import ChemtextError
from chemtext.smiles.parse import Molecule, ParseError, parse_smiles
from chemtext.smiles.tokenize import LexError

DEFAULT_VALENCES: dict[str, tuple[int, ...]] = {
    "H": (1,),
    "B": (3,),
    "C": (4,),
    "N": (3,),
    "O": (2,),
    "F": (1,),
    "Si": (4,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "Cl": (1,),
    "Se": (2, 4, 6),
    "Br": (1,),
    "As": (3, 5),
    "I": (1,),
}


class ValenceError(ChemtextError):
    """Internal valence bookkeeping failure (not a user-data error)."""


@dataclass(frozen=True)
class ValidityResult:
    """Outcome of a validity check; ``valid`` iff ``reasons`` is empty."""

    valid: bool
    reasons: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.valid != (len(self.reasons) == 0):
            raise ValenceError("valid flag inconsistent with reasons")


def _pi_increment(
    symbol: str, aromatic: bool, degree: int, hydrogens: int, charge: int = 0
) -> int:
    if not aromatic:
        return 0
    # charged aromatic carbons contribute a lone pair or empty orbital to
    # the ring (cyclopentadienyl anion, tropylium cation), not a pi bond
    if symbol == "C" and charge == 0:
        return 1
    if symbol in ("N", "P") and degree == 2 and hydrogens == 0:
        return 1
    return 0


def implicit_hydrogen_count(
    symbol: str, aromatic: bool, incident: Sequence[tuple[int, bool]]
) -> int:
    """Implicit hydrogen count for a bare (non-bracket) atom.

    ``incident`` lists ``(order, aromatic)`` per incident bond; see
    :func:`hydrogens_for_total`.
    """
    return hydrogens_for_total(symbol, aromatic, sum(o for o, _ in incident), len(incident))


def hydrogens_for_total(symbol: str, aromatic: bool, total: int, degree: int) -> int:
    """Implicit hydrogen count for a bare atom with ``degree`` bonds whose
    orders sum to ``total``. The count fills up to the smallest allowed
    valence that accommodates the total; over-bonded atoms get zero (and fail
    validation later)."""
    allowed = DEFAULT_VALENCES.get(symbol)
    if allowed is None:
        return 0
    total += _pi_increment(symbol, aromatic, degree, hydrogens=0)
    for valence in allowed:
        if total <= valence:
            return valence - total
    return 0


def allowed_valences(symbol: str, charge: int) -> tuple[int, ...] | None:
    """Charge-adjusted allowed valences, or None for unchecked elements."""
    base = DEFAULT_VALENCES.get(symbol)
    if base is None:
        return None
    if charge == 0:
        return base
    if symbol == "B":
        shift = -charge
    elif symbol == "C":
        shift = -abs(charge)
    else:
        shift = charge
    return tuple(max(0, v + shift) for v in base)


def validate(mol: Molecule) -> ValidityResult:
    """Check every atom's bond-order total plus hydrogens against the
    valence table. Violations are reported, never raised."""
    reasons: list[str] = []
    for i, (atom, bond_total, entries) in enumerate(
        zip(mol.atoms, mol.bond_order_totals, mol.adjacency)
    ):
        allowed = allowed_valences(atom.symbol, atom.charge)
        if allowed is None:
            continue
        total = bond_total + atom.hydrogens + _pi_increment(
            atom.symbol, atom.aromatic, len(entries), atom.hydrogens, atom.charge
        )
        limit = max(allowed)
        if total > limit:
            charge_note = f"{atom.charge:+d}" if atom.charge else ""
            reasons.append(
                f"valence violation at atom {i} ({atom.symbol}{charge_note}): "
                f"total {total} exceeds {limit}"
            )
    return ValidityResult(valid=not reasons, reasons=tuple(reasons))


def validate_smiles(smiles: str) -> ValidityResult:
    """Full-string validity: tokenize + parse + valence check.

    Any string that fails to tokenize or parse is reported invalid with the
    error message as the reason.
    """
    try:
        mol = parse_smiles(smiles)
    except (LexError, ParseError) as exc:
        return ValidityResult(valid=False, reasons=(str(exc),))
    return mol.validity
