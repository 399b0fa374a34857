"""Valence bookkeeping: implicit hydrogens and the validity rule.

Validity here means "tokenizes, parses, and passes the default valence
table". The table covers the organic subset plus common bracket elements;
bracket atoms with unknown elements are accepted with unchecked valence.
This module holds the table and the per-atom rules and imports nothing
from the package at run time. The
:class:`~chemtext.smiles.parse.Molecule` constructor applies the rules once
per distinct atom, through one memo, and records the outcome as
``Molecule.validity``, which :func:`validate` returns.

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
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from chemtext.smiles.parse import Molecule

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


@dataclass(frozen=True)
class ValidityResult:
    """Outcome of a validity check: its reasons, valid without any."""

    reasons: tuple[str, ...] = ()

    @property
    def valid(self) -> bool:
        return not self.reasons


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


def valence_violation(
    symbol: str, aromatic: bool, charge: int, hydrogens: int, bond_total: int, degree: int
) -> str | None:
    """Whether an atom's bond-order total plus hydrogens exceeds the largest
    allowed valence: the reason's text after "at atom i", or ``None``."""
    allowed = allowed_valences(symbol, charge)
    if allowed is None:
        return None
    total = bond_total + hydrogens + _pi_increment(symbol, aromatic, degree, hydrogens, charge)
    limit = max(allowed)
    if total <= limit:
        return None
    charge_note = f"{charge:+d}" if charge else ""
    return f"({symbol}{charge_note}): total {total} exceeds {limit}"


def validate(mol: Molecule) -> ValidityResult:
    """The valence check of ``mol``, which its constructor recorded as
    ``mol.validity``: one reason per atom over its allowed valence.
    Violations are reported, never raised."""
    return mol.validity
