"""Element tables shared by the molecular graph substrate and the string codecs.

The supported set is the standard organic subset plus boron and explicit
hydrogen. Two distinct notions of valence are kept apart:

* MAX_VALENCE is the hard cap used for graph validation and for bond-order
  clipping during robust string derivation.
* DEFAULT_VALENCES are the standard SMILES fill targets used to derive
  implicit hydrogen counts for bare (non-bracket) atoms: the lowest standard
  valence >= the atom's bond-order sum. Sulfur and phosphorus have several.
"""

from __future__ import annotations

SUPPORTED_ELEMENTS: tuple[str, ...] = ("B", "C", "N", "O", "S", "P", "F", "Cl", "Br", "I", "H")

MAX_VALENCE: dict[str, int] = {
    "B": 3,
    "C": 4,
    "N": 3,
    "O": 2,
    "S": 6,
    "P": 5,
    "F": 1,
    "Cl": 1,
    "Br": 1,
    "I": 1,
    "H": 1,
}

DEFAULT_VALENCES: dict[str, tuple[int, ...]] = {
    "B": (3,),
    "C": (4,),
    "N": (3,),
    "O": (2,),
    "S": (2, 4, 6),
    "P": (3, 5),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
    "H": (1,),
}

# Atoms writable without brackets in SMILES (H always needs brackets).
ORGANIC_SUBSET: frozenset[str] = frozenset({"B", "C", "N", "O", "S", "P", "F", "Cl", "Br", "I"})

# Lowercase aromatic input symbols accepted by the parser, mapped to elements.
AROMATIC_SYMBOLS: dict[str, str] = {"b": "B", "c": "C", "n": "N", "o": "O", "p": "P", "s": "S"}


def implicit_fill(element: str, bond_sum: int) -> int:
    """Implicit hydrogens a bare atom of `element` carries at `bond_sum` bonds.

    Returns the gap to the lowest standard valence that accommodates the
    bonds, or 0 if the bonds already exceed every standard valence (the
    valence validator decides whether that is legal). Element H never gains
    implicit hydrogens.
    """
    if element == "H":
        return 0
    for v in DEFAULT_VALENCES[element]:
        if bond_sum <= v:
            return v - bond_sum
    return 0
