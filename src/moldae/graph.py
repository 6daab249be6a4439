"""Molecular graph type, validation, and the depth-first spanning tree.

A MolecularGraph is an immutable connected multigraph-free graph: atoms with
element / formal charge / optional pinned hydrogen count, and bonds with
integer order 1..3. Implicit hydrogens are derived on demand, never stored
(see `elements.implicit_fill`); bracket-style atoms pin their count instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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

    @cached_property
    def _bond_sums(self) -> list[int]:
        sums = [0] * len(self.atoms)
        for a, b, o in self.bonds:
            sums[a] += o
            sums[b] += o
        return sums

    def bond_sum(self, idx: int) -> int:
        return self._bond_sums[idx]

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


class SpanningTree(NamedTuple):
    """A depth-first spanning tree; every bond is a tree edge or a ring bond.

    order lists the atoms in visit order and pos[atom] is the atom's index in
    it. children[atom] and rings[atom] hold (atom, bond order) pairs in rank
    order: the atom's tree children, and the partners of its ring bonds (the
    bonds outside the tree), whether visited before it or after.
    """

    order: list[int]
    pos: list[int]
    children: list[list[tuple[int, int]]]
    rings: list[list[tuple[int, int]]]


def depth_first(graph: MolecularGraph, rank: list[int]) -> SpanningTree:
    """Walk a non-empty graph depth first from its lowest-ranked atom.

    Each atom tries its neighbours in rank order and descends into the first
    one not yet visited. The walk keeps an explicit stack, so its depth is not
    bounded by the interpreter's recursion limit. Atoms it cannot reach keep
    pos -1.
    """
    n = len(graph.atoms)
    adj = [sorted(nbrs, key=lambda edge: rank[edge[0]]) for nbrs in graph.neighbors()]
    root = min(range(n), key=rank.__getitem__)
    parent = [-1] * n
    pos = [-1] * n
    pos[root] = 0
    order = [root]
    stack = [(root, iter(adj[root]))]
    while stack:
        node, untried = stack[-1]
        for nbr, _ in untried:
            if pos[nbr] < 0:
                parent[nbr] = node
                pos[nbr] = len(order)
                order.append(nbr)
                stack.append((nbr, iter(adj[nbr])))
                break
        else:
            stack.pop()
    # An undirected depth-first walk leaves no cross edges: a bond that is not
    # a tree edge joins an atom to one of its ancestors.
    children = [[edge for edge in adj[v] if parent[edge[0]] == v] for v in range(n)]
    rings = [[edge for edge in adj[v] if parent[edge[0]] != v and parent[v] != edge[0]]
             for v in range(n)]
    return SpanningTree(order, pos, children, rings)


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
    # Connectivity by union-find with path halving: each bond joining two
    # components leaves one component fewer.
    root = list(range(n))
    components = n
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
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        while root[b] != b:
            root[b] = root[root[b]]
            b = root[b]
        if a != b:
            root[a] = b
            components -= 1
    if components > 1:
        raise GraphError("graph is disconnected")
    for idx, atom in enumerate(graph.atoms):
        used = graph.bond_sum(idx) + (atom.hcount or 0)
        if used > MAX_VALENCE[atom.element]:
            raise ValenceError(
                f"atom {idx} ({atom.element}) carries valence {used}, "
                f"max is {MAX_VALENCE[atom.element]}"
            )
    return graph
