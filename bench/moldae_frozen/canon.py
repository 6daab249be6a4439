"""Canonical form and SMILES writing.

Canonicalization runs Morgan-style iterative neighborhood refinement over
atom invariants (element, charge, total hydrogens, degree, incident bond
orders) and breaks remaining ties by exhaustively individualizing the
smallest ambiguous class, taking the lexicographically smallest serialized
string over all completions. Output is always kekulized; isomorphic graphs
(same elements, charges, total hydrogens, bond orders) map to byte-equal
strings.
"""

from __future__ import annotations

from .elements import ORGANIC_SUBSET, SUPPORTED_ELEMENTS, implicit_fill
from .graph import GraphError, MolecularGraph

# A canonical SMILES is plain text; the alias marks intent at API boundaries.
CanonicalSmiles = str

_ELEMENT_RANK = {sym: i for i, sym in enumerate(SUPPORTED_ELEMENTS)}
_BOND_CHAR = {1: "", 2: "=", 3: "#"}


def _atom_text(graph: MolecularGraph, idx: int) -> str:
    atom = graph.atoms[idx]
    total_h = graph.total_hydrogens(idx)
    bare_ok = (
        atom.element in ORGANIC_SUBSET
        and atom.charge == 0
        and total_h == implicit_fill(atom.element, graph.bond_sum(idx))
    )
    if bare_ok:
        return atom.element
    parts = [atom.element]
    if total_h == 1:
        parts.append("H")
    elif total_h > 1:
        parts.append(f"H{total_h}")
    if atom.charge == 1:
        parts.append("+")
    elif atom.charge == -1:
        parts.append("-")
    elif atom.charge > 1:
        parts.append(f"+{atom.charge}")
    elif atom.charge < -1:
        parts.append(f"-{-atom.charge}")
    return "[" + "".join(parts) + "]"


def _serialize(graph: MolecularGraph, rank: list[int]) -> str:
    """Emit SMILES with traversal fully determined by the atom ranking."""
    adj = graph.neighbors()
    order_of = {}
    for a, b, o in graph.bonds:
        order_of[(a, b)] = o
        order_of[(b, a)] = o
    nbrs_by_rank = [sorted((n for n, _ in neighbor), key=lambda i: rank[i]) for neighbor in adj]

    root = min(range(len(graph.atoms)), key=lambda i: rank[i])

    # Pass 1: depth-first discovery of the spanning tree and ring (back) edges.
    visited: set[int] = set()
    used: set[tuple[int, int]] = set()
    tree: dict[int, list[int]] = {i: [] for i in range(len(graph.atoms))}
    ring_bonds: dict[int, list[int]] = {i: [] for i in range(len(graph.atoms))}
    visit_pos: dict[int, int] = {}

    def explore(node: int) -> None:
        visited.add(node)
        visit_pos[node] = len(visit_pos)
        for nbr in nbrs_by_rank[node]:
            key = (min(node, nbr), max(node, nbr))
            if key in used:
                continue
            used.add(key)
            if nbr in visited:
                ring_bonds[node].append(nbr)
                ring_bonds[nbr].append(node)
            else:
                tree[node].append(nbr)
                explore(nbr)

    explore(root)

    # Pass 2: emission; ring-closure digits open at the earlier-visited endpoint.
    closure_num: dict[tuple[int, int], int] = {}
    free_nums = list(range(1, 100))
    out: list[str] = []

    def emit(node: int) -> None:
        out.append(_atom_text(graph, node))
        for other in sorted(ring_bonds[node], key=lambda i: visit_pos[i]):
            key = (min(node, other), max(node, other))
            if key not in closure_num:
                num = free_nums.pop(0)
                closure_num[key] = num
            else:
                num = closure_num[key]
                free_nums.insert(0, num)
                free_nums.sort()
            out.append(_BOND_CHAR[order_of[(node, other)]] + (str(num) if num <= 9 else f"%{num:02d}"))
        children = tree[node]
        for i, child in enumerate(children):
            bond = _BOND_CHAR[order_of[(node, child)]]
            if i < len(children) - 1:
                out.append("(" + bond)
                emit(child)
                out.append(")")
            else:
                out.append(bond)
                emit(child)

    emit(root)
    return "".join(out)


def write_smiles(graph: MolecularGraph) -> str:
    """Serialize a graph in input atom order; re-parsing yields an isomorphic graph."""
    if not graph.atoms:
        raise GraphError("cannot write an empty graph")
    return _serialize(graph, list(range(len(graph.atoms))))


def _initial_ranks(graph: MolecularGraph, adj: list[list[tuple[int, int]]]) -> list[int]:
    keys = []
    for i, atom in enumerate(graph.atoms):
        keys.append(
            (
                _ELEMENT_RANK[atom.element],
                atom.charge,
                graph.total_hydrogens(i),
                len(adj[i]),
                tuple(sorted(o for _, o in adj[i])),
            )
        )
    return _dense(keys)


def _dense(keys: list) -> list[int]:
    order = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def _refine(rank: list[int], adj: list[list[tuple[int, int]]]) -> list[int]:
    while True:
        keys = [
            (rank[i], tuple(sorted((o, rank[j]) for j, o in adj[i])))
            for i in range(len(rank))
        ]
        new = _dense(keys)
        if new == rank:
            return rank
        rank = new


def canonicalize(graph: MolecularGraph) -> CanonicalSmiles:
    """Canonical SMILES text, invariant under any input atom relabeling."""
    if not graph.atoms:
        raise GraphError("cannot canonicalize an empty graph")
    adj = graph.neighbors()
    best: list[str | None] = [None]

    def descend(rank: list[int]) -> None:
        rank = _refine(rank, adj)
        counts: dict[int, int] = {}
        for r in rank:
            counts[r] = counts.get(r, 0) + 1
        ambiguous = sorted(r for r, c in counts.items() if c > 1)
        if not ambiguous:
            s = _serialize(graph, rank)
            if best[0] is None or s < best[0]:
                best[0] = s
            return
        target = ambiguous[0]
        members = [i for i, r in enumerate(rank) if r == target]
        for m in members:
            child = [2 * r + 1 for r in rank]
            child[m] -= 1  # individualize: strictly smaller than its class
            descend(_dense(child))

    descend(_initial_ranks(graph, adj))
    assert best[0] is not None
    return best[0]
