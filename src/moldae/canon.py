"""Canonical form and SMILES writing.

Canonicalization runs Morgan-style iterative neighborhood refinement over
atom invariants (element, charge, total hydrogens, degree, incident bond
orders) and breaks remaining ties by individualizing each member of the
smallest ambiguous class in turn, refining again, and taking the
lexicographically smallest serialized string over the leaves of that search
tree. Output is always kekulized; isomorphic graphs (same elements, charges,
total hydrogens, bond orders) map to byte-equal strings.

The tree is pruned with automorphisms, as in McKay & Piperno, "Practical
graph isomorphism II" (arXiv:1301.1493). Two leaves that serialize alike
yield the atom map between their rankings; once checked to be an
automorphism, it is kept as a generator. At a node, a class member is
skipped when the generators that fix the node's individualized atoms put it
in the orbit of a member already explored. Such an automorphism carries the
node's partition onto itself and the explored subtree onto the skipped one,
and serialization depends only on the ranked graph, so the skipped leaves
repeat strings already seen: the smallest string, and so every canonical
form, is the one the full search gives.
"""

from __future__ import annotations

from .elements import ORGANIC_SUBSET, SUPPORTED_ELEMENTS, implicit_fill
from .graph import GraphError, MolecularGraph, depth_first

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
    tree = depth_first(graph, rank)
    # Ring-closure digits open at the earlier-visited endpoint, lowest free first.
    closure_num: dict[tuple[int, int], int] = {}
    free_nums = list(range(1, 100))
    out: list[str] = []
    stack = [("", tree.order[0])]  # (text before the atom: bond, branch parentheses)
    while stack:
        prefix, node = stack.pop()
        out.append(prefix)
        out.append(_atom_text(graph, node))
        for other, order in sorted(tree.rings[node], key=lambda edge: tree.pos[edge[0]]):
            key = (min(node, other), max(node, other))
            if key not in closure_num:
                num = free_nums.pop(0)
                closure_num[key] = num
            else:
                num = closure_num[key]
                free_nums.insert(0, num)
                free_nums.sort()
            out.append(_BOND_CHAR[order] + (str(num) if num <= 9 else f"%{num:02d}"))
        # Every child but the last is a parenthesized branch; the next sibling
        # closes the branch before it.
        last = len(tree.children[node]) - 1
        for i in range(last, -1, -1):
            child, order = tree.children[node][i]
            stack.append(((")" if i else "") + ("(" if i < last else "") + _BOND_CHAR[order], child))
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


def _automorphism(first: list[int], second: list[int], initial: list[int],
                  bonds: set[tuple[int, int, int]]) -> list[int] | None:
    """The atom map sending first's rank-k atom to second's, if it is an automorphism.

    Two discrete rankings that serialize alike usually differ by an
    automorphism, but equal text alone does not prove it, so the map must keep
    every atom's initial invariants and map the bond set, orders included,
    onto itself.
    """
    atom_of = [0] * len(second)
    for i, r in enumerate(second):
        atom_of[r] = i
    gamma = [atom_of[r] for r in first]
    if any(initial[gamma[i]] != initial[i] for i in range(len(gamma))):
        return None
    mapped = {(min(gamma[a], gamma[b]), max(gamma[a], gamma[b]), o) for a, b, o in bonds}
    return gamma if mapped == bonds else None


def _orbit_roots(generators: list[list[int]], n: int) -> list[int]:
    """Union-find root of each atom under the group the generators span."""
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for gamma in generators:
        for i, j in enumerate(gamma):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    return [find(i) for i in range(n)]


def canonicalize(graph: MolecularGraph) -> CanonicalSmiles:
    """Canonical SMILES text, invariant under any input atom relabeling."""
    if not graph.atoms:
        raise GraphError("cannot canonicalize an empty graph")
    n = len(graph.atoms)
    adj = graph.neighbors()
    initial = _initial_ranks(graph, adj)
    bonds = {(min(a, b), max(a, b), o) for a, b, o in graph.bonds}
    leaves: dict[str, list[int]] = {}  # leaf string -> ranking of the first leaf that gave it
    generators: list[list[int]] = []  # automorphisms found at equal leaves
    best: list[str | None] = [None]

    def descend(rank: list[int], path: list[int]) -> None:
        rank = _refine(rank, adj)
        counts: dict[int, int] = {}
        for r in rank:
            counts[r] = counts.get(r, 0) + 1
        ambiguous = sorted(r for r, c in counts.items() if c > 1)
        if not ambiguous:
            s = _serialize(graph, rank)
            first = leaves.setdefault(s, rank)
            if first is not rank:
                gamma = _automorphism(first, rank, initial, bonds)
                if gamma is not None:
                    generators.append(gamma)
            if best[0] is None or s < best[0]:
                best[0] = s
            return
        target = ambiguous[0]
        members = [i for i, r in enumerate(rank) if r == target]
        explored: list[int] = []
        roots: list[int] | None = None
        seen_generators = 0
        for m in members:
            if explored and len(generators) != seen_generators:
                # Orbits of the automorphisms that fix this node's path
                # pointwise: such a map carries the partition here onto
                # itself, so it carries one member's subtree onto another's
                # and their leaves serialize to the same strings.
                seen_generators = len(generators)
                roots = _orbit_roots([g for g in generators if all(g[v] == v for v in path)], n)
            if roots is not None and any(roots[m] == roots[e] for e in explored):
                continue
            explored.append(m)
            child = [2 * r + 1 for r in rank]
            child[m] -= 1  # individualize: strictly smaller than its class
            descend(_dense(child), path + [m])

    descend(initial, [])
    assert best[0] is not None
    return best[0]
