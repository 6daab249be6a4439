"""Molecular graph type, validation, and permutation helpers.

A MolecularGraph is an immutable connected multigraph-free graph: atoms with
element / formal charge / optional pinned hydrogen count, and bonds with
integer order 1..3. Implicit hydrogens are derived on demand, never stored
(see `elements.implicit_fill`); bracket-style atoms pin their count instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .elements import MAX_VALENCE, SUPPORTED_ELEMENTS, implicit_fill


class GraphError(ValueError):
    """Raised when a molecular graph violates a structural invariant."""


class ValenceError(GraphError):
    """Raised when an atom exceeds the maximum valence of its element."""


@dataclass(frozen=True)
class Atom:
    """One heavy (or explicit-H) atom.

    hcount None means "derive implicit hydrogens by the standard fill rules";
    an integer pins the hydrogen count exactly (bracket-atom semantics).
    """

    element: str
    charge: int = 0
    hcount: int | None = None


@dataclass(frozen=True)
class MolecularGraph:
    atoms: tuple[Atom, ...]
    bonds: tuple[tuple[int, int, int], ...]

    def __len__(self) -> int:
        return len(self.atoms)

    def bond_sum(self, idx: int) -> int:
        return sum(o for a, b, o in self.bonds if a == idx or b == idx)

    def total_hydrogens(self, idx: int) -> int:
        atom = self.atoms[idx]
        if atom.hcount is not None:
            return atom.hcount
        return implicit_fill(atom.element, self.bond_sum(idx))

    def neighbors(self) -> list[list[tuple[int, int]]]:
        """Adjacency as neighbor (atom index, bond order) lists."""
        adj: list[list[tuple[int, int]]] = [[] for _ in self.atoms]
        for a, b, order in self.bonds:
            adj[a].append((b, order))
            adj[b].append((a, order))
        return adj


def validate(graph: MolecularGraph) -> MolecularGraph:
    """Check every MolecularGraph invariant; return the graph unchanged.

    The empty graph (no atoms) is allowed: it is the codec's "nothing was
    derived" result. Raises GraphError / ValenceError otherwise.
    """
    n = len(graph.atoms)
    for atom in graph.atoms:
        if atom.element not in SUPPORTED_ELEMENTS:
            raise GraphError(f"unsupported element {atom.element!r}")
        if atom.hcount is not None and atom.hcount < 0:
            raise GraphError("negative hydrogen count")
    seen_pairs: set[tuple[int, int]] = set()
    for a, b, order in graph.bonds:
        if not (0 <= a < n and 0 <= b < n):
            raise GraphError(f"bond endpoint out of range: ({a}, {b})")
        if a == b:
            raise GraphError(f"bond from atom {a} to itself")
        if order not in (1, 2, 3):
            raise GraphError(f"bond order {order} outside 1..3")
        pair = (min(a, b), max(a, b))
        if pair in seen_pairs:
            raise GraphError(f"duplicate bond between atoms {pair[0]} and {pair[1]}")
        seen_pairs.add(pair)
    if n > 1:
        adj = graph.neighbors()
        seen = {0}
        stack = [0]
        while stack:
            cur = stack.pop()
            for nbr, _ in adj[cur]:
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        if len(seen) != n:
            raise GraphError("graph is disconnected")
    for idx, atom in enumerate(graph.atoms):
        used = graph.bond_sum(idx) + (atom.hcount or 0)
        if used > MAX_VALENCE[atom.element]:
            raise ValenceError(
                f"atom {idx} ({atom.element}) carries valence {used}, "
                f"max is {MAX_VALENCE[atom.element]}"
            )
    return graph


def permute(graph: MolecularGraph, perm: list[int]) -> MolecularGraph:
    """Relabel atoms so new index perm[i] hosts old atom i.

    perm must be a permutation of range(len(graph)). Used by the
    canonical-form fuzz tests; isomorphic by construction.
    """
    if sorted(perm) != list(range(len(graph.atoms))):
        raise GraphError("not a permutation")
    atoms: list[Atom | None] = [None] * len(graph.atoms)
    for old, new in enumerate(perm):
        atoms[new] = graph.atoms[old]
    bonds = tuple((perm[a], perm[b], o) for a, b, o in graph.bonds)
    return MolecularGraph(tuple(atoms), bonds)  # type: ignore[arg-type]


def heavy_atom_count(graph: MolecularGraph) -> int:
    return sum(1 for a in graph.atoms if a.element != "H")
