"""Robust molecular string grammar: tokenizer, total decoder, and encoder.

The token alphabet is closed: atom tokens [E], [=E], [#E] over the supported
element set, and structural tokens [BranchK] / [RingK] (K in 1..3) with the
same bond-order prefixes. `decode` maps ANY sequence over this alphabet to a
valence-valid molecular graph: requested bond orders are clipped to the
remaining capacity of both endpoints, and branches/rings without enough
context degrade to no-ops while still consuming their numeric operands.

Numeric operands use the fixed 16-token index alphabet; a BranchK/RingK token
reads the next K tokens as base-16 digits, and value+1 gives the branch
length in tokens or the ring reach-back in atoms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elements import MAX_VALENCE, SUPPORTED_ELEMENTS
from .graph import Atom, MolecularGraph, validate

_ORDER_PREFIX = {"": 1, "=": 2, "#": 3}
_PREFIX_OF_ORDER = {1: "", 2: "=", 3: "#"}


class SelfiesError(ValueError):
    """Tokenization failure: unbalanced brackets or a symbol outside the alphabet."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class EncodeError(ValueError):
    """Graph not expressible in the token alphabet (charge, pinned hydrogens...)."""


@dataclass(frozen=True)
class SelfiesToken:
    """One bracketed symbol; kind is 'atom', 'branch', or 'ring'.

    order is the bond-order prefix (1 for none, 2 for '=', 3 for '#');
    element is set for atom tokens, size (K) for branch/ring tokens.
    """

    text: str
    kind: str
    order: int
    element: str | None = None
    size: int | None = None


def _build_alphabet() -> tuple[SelfiesToken, ...]:
    tokens: list[SelfiesToken] = []
    for prefix, order in _ORDER_PREFIX.items():
        for element in SUPPORTED_ELEMENTS:
            tokens.append(SelfiesToken(f"[{prefix}{element}]", "atom", order, element=element))
    for prefix, order in _ORDER_PREFIX.items():
        for k in (1, 2, 3):
            tokens.append(SelfiesToken(f"[{prefix}Branch{k}]", "branch", order, size=k))
    for prefix, order in _ORDER_PREFIX.items():
        for k in (1, 2, 3):
            tokens.append(SelfiesToken(f"[{prefix}Ring{k}]", "ring", order, size=k))
    return tuple(tokens)


ALPHABET: tuple[SelfiesToken, ...] = _build_alphabet()
TOKENS_BY_TEXT: dict[str, SelfiesToken] = {t.text: t for t in ALPHABET}

# Fixed base-16 digit alphabet for branch/ring operands; anything else reads as 0.
INDEX_ALPHABET: tuple[str, ...] = (
    "[C]", "[Ring1]", "[Ring2]",
    "[Branch1]", "[=Branch1]", "[#Branch1]",
    "[Branch2]", "[=Branch2]", "[#Branch2]",
    "[O]", "[N]", "[=N]", "[=C]", "[#C]", "[S]", "[P]",
)
_INDEX_OF = {text: i for i, text in enumerate(INDEX_ALPHABET)}


def token(text: str) -> SelfiesToken:
    tok = TOKENS_BY_TEXT.get(text)
    if tok is None:
        raise SelfiesError(f"symbol {text!r} is not in the alphabet", 0)
    return tok


def split_selfies(text: str) -> tuple[SelfiesToken, ...]:
    """Segment a SELFIES string losslessly into alphabet tokens."""
    tokens: list[SelfiesToken] = []
    i = 0
    while i < len(text):
        if text[i] != "[":
            raise SelfiesError(f"expected '[', found {text[i]!r}", i)
        end = text.find("]", i)
        if end < 0:
            raise SelfiesError("unbalanced brackets", i)
        chunk = text[i : end + 1]
        tok = TOKENS_BY_TEXT.get(chunk)
        if tok is None:
            raise SelfiesError(f"symbol {chunk!r} is not in the alphabet", i)
        tokens.append(tok)
        i = end + 1
    return tuple(tokens)


def join_tokens(tokens) -> str:
    return "".join(t.text for t in tokens)


def _operand_value(tokens, start: int, k: int) -> int | None:
    """Read K operand tokens as base-16 digits; None if the input runs out."""
    if start + k > len(tokens):
        return None
    value = 0
    for j in range(k):
        value = value * 16 + _INDEX_OF.get(tokens[start + j].text, 0)
    return value


class _Builder:
    __slots__ = ("atoms", "bonds", "bond_sum")

    def __init__(self):
        self.atoms: list[Atom] = []
        self.bonds: dict[tuple[int, int], int] = {}
        self.bond_sum: list[int] = []

    def free(self, idx: int) -> int:
        return MAX_VALENCE[self.atoms[idx].element] - self.bond_sum[idx]

    def add_atom(self, element: str) -> int:
        self.atoms.append(Atom(element))
        self.bond_sum.append(0)
        return len(self.atoms) - 1

    def add_bond(self, a: int, b: int, order: int) -> None:
        self.bonds[(min(a, b), max(a, b))] = order
        self.bond_sum[a] += order
        self.bond_sum[b] += order


def decode(tokens) -> MolecularGraph:
    """Derive a valence-valid MolecularGraph from ANY alphabet token sequence.

    Total by construction: never raises for alphabet tokens. An empty or
    fully-skipped sequence yields the empty graph.
    """
    mol = _Builder()
    _derive(tokens, 0, len(tokens), mol, None, None)
    graph = MolecularGraph(
        tuple(mol.atoms),
        tuple((a, b, o) for (a, b), o in sorted(mol.bonds.items())),
    )
    return validate(graph)


def _derive(tokens, start: int, end: int, mol: _Builder, host: int | None, budget: int | None) -> int:
    """Derive tokens[start:end]; bonds may only touch `budget` valence of `host`.

    Returns the total bond order drawn from the host while it was still the
    chain head (a branch's caller reduces its own budget by this amount).
    """
    current = host
    consumed = 0
    i = start
    while i < end:
        tok = tokens[i]
        i += 1
        if tok.kind == "atom":
            if current is None:
                current = mol.add_atom(tok.element)
                continue
            free_src = mol.free(current)
            if current == host and budget is not None:
                free_src = min(free_src, budget - consumed)
            if free_src <= 0:
                continue  # saturated chain head: atom is skipped
            order = min(tok.order, free_src, MAX_VALENCE[tok.element])
            new = mol.add_atom(tok.element)
            mol.add_bond(current, new, order)
            if current == host:
                consumed += order
            current = new
        elif tok.kind == "branch":
            value = _operand_value(tokens, i, tok.size)
            if value is None:
                return consumed  # operands cut short: derivation ends
            i += tok.size
            free_src = mol.free(current) if current is not None else 0
            if current == host and budget is not None:
                free_src = min(free_src, budget - consumed)
            if current is None or free_src <= 1:
                continue  # branch skipped, operands already consumed
            body_end = min(i + value + 1, end)
            init = min(tok.order, free_src - 1)
            consumed_by_branch = _derive(tokens, i, body_end, mol, current, init)
            if current == host:
                consumed += consumed_by_branch
            i = body_end
        else:  # ring
            value = _operand_value(tokens, i, tok.size)
            if value is None:
                return consumed
            i += tok.size
            if current is None:
                continue
            target = max(0, current - (value + 1))
            if target == current:
                continue
            key = (min(current, target), max(current, target))
            if key in mol.bonds:
                continue
            free_src = mol.free(current)
            if current == host and budget is not None:
                free_src = min(free_src, budget - consumed)
            free_dst = mol.free(target)
            if free_src <= 0 or free_dst <= 0:
                continue
            order = min(tok.order, free_src, free_dst)
            mol.add_bond(current, target, order)
            if current == host:
                consumed += order
    return consumed


def _atom_token(order: int, element: str) -> SelfiesToken:
    return TOKENS_BY_TEXT[f"[{_PREFIX_OF_ORDER[order]}{element}]"]


def _operand_tokens(value: int) -> tuple[int, list[SelfiesToken]]:
    """Smallest K in 1..3 whose base-16 digits hold `value`, plus digit tokens."""
    for k in (1, 2, 3):
        if value < 16**k:
            digits = []
            for j in range(k):
                digits.append(TOKENS_BY_TEXT[INDEX_ALPHABET[(value >> 4 * (k - 1 - j)) & 15]])
            return k, digits
    raise EncodeError(f"operand value {value} exceeds three base-16 digits")


def encode(graph: MolecularGraph) -> tuple[SelfiesToken, ...]:
    """Encode a valid graph into tokens; decode(encode(g)) is isomorphic to g.

    Raises EncodeError for graphs the alphabet cannot express: charged atoms,
    or pinned hydrogen counts that differ from the bare-atom default.
    """
    from .elements import implicit_fill

    for idx, atom in enumerate(graph.atoms):
        if atom.charge != 0:
            raise EncodeError(f"atom {idx}: charge {atom.charge:+d} is outside the token alphabet")
        if atom.hcount is not None:
            default = 0 if atom.element == "H" else implicit_fill(atom.element, graph.bond_sum(idx))
            if atom.hcount != default:
                raise EncodeError(
                    f"atom {idx}: pinned hydrogen count {atom.hcount} is outside the token alphabet"
                )
    if not graph.atoms:
        return ()

    adj = graph.neighbors()
    order_of = {}
    for a, b, o in graph.bonds:
        order_of[(a, b)] = o
        order_of[(b, a)] = o

    visited: set[int] = set()
    used: set[tuple[int, int]] = set()
    placement: dict[int, int] = {}

    def walk(node: int, bond_order: int) -> list[SelfiesToken]:
        visited.add(node)
        placement[node] = len(placement)
        out = [_atom_token(bond_order, graph.atoms[node].element)]
        # Ring closures back to already-placed atoms come right after the atom
        # token, while the decoder's chain head is still this atom.
        for nbr in sorted(n for n, _ in adj[node]):
            key = (min(node, nbr), max(node, nbr))
            if key in used or nbr not in visited:
                continue
            used.add(key)
            k, operands = _operand_tokens(placement[node] - placement[nbr] - 1)
            order = order_of[(node, nbr)]
            out.append(TOKENS_BY_TEXT[f"[{_PREFIX_OF_ORDER[order]}Ring{k}]"])
            out.extend(operands)
        # Remaining unused edges are walked as subtrees; an edge consumed as a
        # ring closure inside an earlier sibling's subtree is skipped here.
        bodies: list[tuple[int, list[SelfiesToken]]] = []
        for nbr in sorted(n for n, _ in adj[node]):
            key = (min(node, nbr), max(node, nbr))
            if key in used:
                continue
            assert nbr not in visited, "unused edge to a visited atom"
            used.add(key)
            order = order_of[(node, nbr)]
            bodies.append((order, walk(nbr, order)))
        for i, (order, body) in enumerate(bodies):
            if i < len(bodies) - 1:
                k, operands = _operand_tokens(len(body) - 1)
                out.append(TOKENS_BY_TEXT[f"[{_PREFIX_OF_ORDER[order]}Branch{k}]"])
                out.extend(operands)
            out.extend(body)
        return out

    tokens = walk(0, 1)
    return tuple(tokens)


def random_token_string(rng: np.random.Generator, length: int) -> tuple[SelfiesToken, ...]:
    """Uniform i.i.d. tokens from the full alphabet; reproducible per rng state."""
    if length < 0:
        raise ValueError("length must be >= 0")
    idx = rng.integers(0, len(ALPHABET), size=length)
    return tuple(ALPHABET[int(j)] for j in idx)
