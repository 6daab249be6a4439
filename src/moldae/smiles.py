"""SMILES reader for the supported organic subset.

Covers bare and bracket atoms (charge, explicit hydrogen count), bond symbols
- = #, branches, ring closures 1-9 and %nn, and lowercase aromatic input.
Aromatic rings are kekulized at parse time; the writer side (see canon.py)
always emits kekulized output. No stereochemistry, isotopes, or
multi-fragment input.
"""

from __future__ import annotations

from collections.abc import Iterator

from .elements import AROMATIC_SYMBOLS
from .graph import Atom, GraphError, MolecularGraph, validate


class SmilesParseError(ValueError):
    """Syntax or semantic error in a SMILES string, with a 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class KekulizationError(SmilesParseError):
    """No consistent alternating bond assignment exists for the aromatic input."""


# Bond order markers used during parsing; AROMATIC marks a bare bond between
# two aromatic atoms, to be resolved by kekulization.
_AROMATIC = 0

_TWO_LETTER = ("Cl", "Br")
_BARE_UPPER = frozenset("BCNOPSFI")


class _ParsedAtom:
    __slots__ = ("element", "charge", "hcount", "aromatic", "pos")

    def __init__(self, element: str, charge: int, hcount: int | None, aromatic: bool, pos: int):
        self.element = element
        self.charge = charge
        self.hcount = hcount
        self.aromatic = aromatic
        self.pos = pos


def _parse_bracket(text: str, start: int) -> tuple[_ParsedAtom, int]:
    """Parse a bracket atom beginning at text[start] == '['; return (atom, end)."""
    end = text.find("]", start)
    if end < 0:
        raise SmilesParseError("unclosed bracket atom", start)
    body = text[start + 1 : end]
    i = 0
    if not body:
        raise SmilesParseError("empty bracket atom", start)
    if body[0].isdigit():
        raise SmilesParseError("isotopes are not supported", start + 1)

    element = None
    aromatic = False
    for sym in _TWO_LETTER:
        if body.startswith(sym):
            element, i = sym, 2
            break
    if element is None:
        ch = body[0]
        if ch in "BCNOPSFIH":
            element, i = ch, 1
        elif ch in AROMATIC_SYMBOLS:
            element, i = AROMATIC_SYMBOLS[ch], 1
            aromatic = True
        else:
            raise SmilesParseError(f"unsupported element {ch!r}", start + 1)

    hcount = 0
    if i < len(body) and body[i] == "H" and element != "H":
        i += 1
        digits = ""
        while i < len(body) and body[i].isdigit():
            digits += body[i]
            i += 1
        hcount = int(digits) if digits else 1

    charge = 0
    if i < len(body) and body[i] in "+-":
        sign = 1 if body[i] == "+" else -1
        symbol = body[i]
        i += 1
        if i < len(body) and body[i].isdigit():
            digits = ""
            while i < len(body) and body[i].isdigit():
                digits += body[i]
                i += 1
            charge = sign * int(digits)
        else:
            charge = sign
            while i < len(body) and body[i] == symbol:
                charge += sign
                i += 1

    if i != len(body):
        raise SmilesParseError(f"unsupported bracket content {body[i:]!r}", start + 1 + i)
    return _ParsedAtom(element, charge, hcount, aromatic, start), end + 1


def parse_smiles(text: str) -> MolecularGraph:
    """Parse a SMILES string into a validated MolecularGraph.

    Raises SmilesParseError (with position) on syntax errors, unsupported
    elements, disconnected input, unclosed rings/branches; KekulizationError
    when lowercase aromatic input admits no alternating assignment; and
    propagates ValenceError/GraphError from validation.
    """
    if not text:
        raise SmilesParseError("empty SMILES string", 0)

    atoms: list[_ParsedAtom] = []
    bonds: dict[tuple[int, int], int] = {}
    anchor: int | None = None
    pending: int | None = None  # bond order from an explicit -, =, #
    pending_pos = 0
    branch_stack: list[int] = []
    rings: dict[int, tuple[int, int | None, int]] = {}  # num -> (atom, order, pos)

    def add_bond(a: int, b: int, order: int, pos: int) -> None:
        if a == b:
            raise SmilesParseError("ring bond to the same atom", pos)
        key = (min(a, b), max(a, b))
        if key in bonds:
            raise SmilesParseError("duplicate bond between one atom pair", pos)
        bonds[key] = order

    def attach(idx: int, pos: int) -> None:
        nonlocal anchor, pending
        if anchor is not None:
            if pending is not None:
                order = pending
            elif atoms[anchor].aromatic and atoms[idx].aromatic:
                order = _AROMATIC
            else:
                order = 1
            add_bond(anchor, idx, order, pos)
        pending = None
        anchor = idx

    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "[":
            atom, i = _parse_bracket(text, i)
            atoms.append(atom)
            attach(len(atoms) - 1, atom.pos)
        elif text[i : i + 2] in _TWO_LETTER:
            atoms.append(_ParsedAtom(text[i : i + 2], 0, None, False, i))
            attach(len(atoms) - 1, i)
            i += 2
        elif ch in _BARE_UPPER:
            atoms.append(_ParsedAtom(ch, 0, None, False, i))
            attach(len(atoms) - 1, i)
            i += 1
        elif ch in AROMATIC_SYMBOLS:
            atoms.append(_ParsedAtom(AROMATIC_SYMBOLS[ch], 0, None, True, i))
            attach(len(atoms) - 1, i)
            i += 1
        elif ch in "-=#":
            if pending is not None:
                raise SmilesParseError("two bond symbols in a row", i)
            if anchor is None:
                raise SmilesParseError("bond symbol before any atom", i)
            pending = {"-": 1, "=": 2, "#": 3}[ch]
            pending_pos = i
            i += 1
        elif ch == "(":
            if anchor is None:
                raise SmilesParseError("branch opened before any atom", i)
            if pending is not None:
                raise SmilesParseError("bond symbol before branch open", i)
            branch_stack.append(anchor)
            i += 1
        elif ch == ")":
            if not branch_stack:
                raise SmilesParseError("unmatched ')'", i)
            if pending is not None:
                raise SmilesParseError("dangling bond symbol before ')'", pending_pos)
            anchor = branch_stack.pop()
            i += 1
        elif ch.isdigit() or ch == "%":
            if ch == "%":
                if i + 2 >= n or not (text[i + 1].isdigit() and text[i + 2].isdigit()):
                    raise SmilesParseError("'%' needs two digits", i)
                num = int(text[i + 1 : i + 3])
                width = 3
            else:
                num = int(ch)
                width = 1
            if anchor is None:
                raise SmilesParseError("ring closure before any atom", i)
            if num in rings:
                other, other_order, other_pos = rings.pop(num)
                if other_order is not None and pending is not None and other_order != pending:
                    raise SmilesParseError("ring closure bond symbols disagree", i)
                order = pending if pending is not None else other_order
                if order is None:
                    if atoms[other].aromatic and atoms[anchor].aromatic:
                        order = _AROMATIC
                    else:
                        order = 1
                add_bond(other, anchor, order, i)
                pending = None
            else:
                rings[num] = (anchor, pending, i)
                pending = None
            i += width
        elif ch == ".":
            raise SmilesParseError("disconnected fragments ('.') are not supported", i)
        elif ch.isspace():
            raise SmilesParseError("whitespace inside SMILES", i)
        else:
            raise SmilesParseError(f"unexpected character {ch!r}", i)

    if pending is not None:
        raise SmilesParseError("dangling bond symbol at end of input", pending_pos)
    if branch_stack:
        raise SmilesParseError("unclosed branch", n - 1)
    if rings:
        num, (_, _, pos) = next(iter(rings.items()))
        raise SmilesParseError(f"unclosed ring bond {num}", pos)
    if not atoms:
        raise SmilesParseError("no atoms in SMILES string", 0)

    _kekulize(atoms, bonds)

    from .elements import MAX_VALENCE

    bond_sum = [0] * len(atoms)
    for (a, b), order in bonds.items():
        bond_sum[a] += order
        bond_sum[b] += order
    for idx, atom in enumerate(atoms):
        used = bond_sum[idx] + (atom.hcount or 0)
        if used > MAX_VALENCE[atom.element]:
            raise SmilesParseError(
                f"valence violation: {atom.element} carries {used}, "
                f"max is {MAX_VALENCE[atom.element]}", atom.pos)

    graph = MolecularGraph(
        tuple(Atom(a.element, a.charge, a.hcount) for a in atoms),
        tuple((a, b, order) for (a, b), order in sorted(bonds.items())),
    )
    try:
        return validate(graph)
    except GraphError as exc:
        raise SmilesParseError(str(exc), 0) from exc


def _kekulize(atoms: list[_ParsedAtom], bonds: dict[tuple[int, int], int]) -> None:
    """Resolve aromatic-candidate bonds into alternating single/double orders.

    Every aromatic atom that needs a double bond (sp2 carbon/boron, bare
    2-connected nitrogen/phosphorus) must receive exactly one, along
    aromatic-candidate bonds only; pyrrole-type [nH]/3-connected n, o and s
    donate lone pairs and stay single-bonded. Bonds left unmatched become
    single. Raises KekulizationError when no perfect assignment exists.
    """
    aromatic_bonds = [pair for pair, order in bonds.items() if order == _AROMATIC]
    if not aromatic_bonds and not any(a.aromatic for a in atoms):
        return

    adj: dict[int, list[int]] = {}
    degree: dict[int, int] = {}
    has_explicit_pi: set[int] = set()
    for (a, b), order in bonds.items():
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
        if order == _AROMATIC:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        elif order >= 2:
            has_explicit_pi.add(a)
            has_explicit_pi.add(b)

    def needs_double(idx: int) -> bool:
        atom = atoms[idx]
        if not atom.aromatic or idx in has_explicit_pi:
            return False
        if atom.element in ("C", "B"):
            return True
        if atom.element in ("N", "P"):
            if atom.hcount is not None and atom.hcount >= 1:
                return False
            return degree.get(idx, 0) < 3
        return False  # O, S donate a lone pair

    needy = sorted(i for i, a in enumerate(atoms) if a.aromatic and needs_double(i))
    partners = {u: [v for v in sorted(adj.get(u, [])) if needs_double(v)] for u in needy}
    match: dict[int, int] = {}
    # Components of the partner graph share no atom, so each one's first
    # matching is the one a search over all of them would keep, and an
    # unmatchable component fails without retrying the others' choices.
    seen: set[int] = set()
    for start in needy:
        if start in seen:
            continue
        seen.add(start)
        component = [start]
        for u in component:
            for v in partners[u]:
                if v not in seen:
                    seen.add(v)
                    component.append(v)
        if not _first_matching(sorted(component), partners, match):
            raise KekulizationError("aromatic ring cannot be kekulized", atoms[needy[0]].pos)

    for a, b in aromatic_bonds:
        if match.get(a) == b:
            bonds[(a, b)] = 2
        else:
            bonds[(a, b)] = 1


def _first_matching(needy: list[int], partners: dict[int, list[int]], match: dict[int, int]) -> bool:
    """Extend `match` with the first perfect matching of `needy`; False if there is none.

    Depth-first search, needy atoms and their partners in index order, on an
    explicit stack: one frame (needy position, partners not yet tried) per
    atom matched so far.
    """
    frames: list[tuple[int, Iterator[int]]] = []
    pos = 0
    while True:
        while pos < len(needy) and needy[pos] in match:
            pos += 1
        if pos == len(needy):
            return True
        untried = iter(partners[needy[pos]])
        while (v := next(untried, -1)) < 0 or v in match:
            if v < 0:  # no partner left: undo the latest match and try its next partner
                if not frames:
                    return False
                pos, untried = frames.pop()
                del match[match.pop(needy[pos])]
        match[needy[pos]] = v
        match[v] = needy[pos]
        frames.append((pos, untried))
        pos += 1
