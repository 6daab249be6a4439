"""Molecular graph invariants, validation, and the brute-force isomorphism oracle."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import permute
from moldae import selfies as sf
from moldae.canon import (_BOND_CHAR, _atom_text, _dense, _initial_ranks, _refine, _serialize, canonicalize,
                          write_smiles)
from moldae.corpus import sample_corpus
from moldae.graph import Atom, GraphError, MolecularGraph, ValenceError, depth_first, validate
from moldae.smiles import parse_smiles


def brute_force_isomorphic(g1: MolecularGraph, g2: MolecularGraph) -> bool:
    """Exhaustive atom-mapping search; only usable for small graphs (<= 8 atoms)."""
    if len(g1) != len(g2):
        return False

    def key(g, i):
        return (g.atoms[i].element, g.atoms[i].charge, g.total_hydrogens(i))

    bonds2 = {(min(a, b), max(a, b)): o for a, b, o in g2.bonds}
    for perm in itertools.permutations(range(len(g2))):
        if any(key(g1, i) != key(g2, perm[i]) for i in range(len(g1))):
            continue
        mapped = {(min(perm[a], perm[b]), max(perm[a], perm[b])): o for a, b, o in g1.bonds}
        if mapped == bonds2:
            return True
    return False


def test_validate_accepts_simple_chain():
    g = MolecularGraph((Atom("C"), Atom("O")), ((0, 1, 1),))
    assert validate(g) is g
    assert g.total_hydrogens(0) == 3
    assert g.total_hydrogens(1) == 1


def test_validate_rejects_out_of_range_bond():
    with pytest.raises(GraphError):
        validate(MolecularGraph((Atom("C"),), ((0, 1, 1),)))


def test_validate_rejects_self_bond():
    with pytest.raises(GraphError):
        validate(MolecularGraph((Atom("C"), Atom("C")), ((0, 0, 1),)))


def test_validate_rejects_duplicate_bond():
    with pytest.raises(GraphError):
        validate(MolecularGraph((Atom("C"), Atom("C")), ((0, 1, 1), (1, 0, 2))))


def test_validate_rejects_disconnected():
    with pytest.raises(GraphError):
        validate(MolecularGraph((Atom("C"), Atom("C")), ()))


def test_validate_connectivity_agrees_with_depth_first_walk():
    """The union-find in `validate` calls a graph disconnected exactly when the walk misses an atom."""
    rng = np.random.default_rng(31)
    seen = {True: 0, False: 0}
    for _ in range(400):
        n = int(rng.integers(1, 16))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        keep = rng.random(len(pairs)) < rng.uniform(0.05, 0.5)
        bonds = tuple((a, b, 1) if rng.random() < 0.5 else (b, a, 1)
                      for (a, b), k in zip(pairs, keep) if k)
        graph = MolecularGraph(tuple(Atom("S", hcount=0) for _ in range(n)),
                               tuple(bonds[i] for i in rng.permutation(len(bonds))))
        disconnected = -1 in depth_first(graph, list(rng.permutation(n))).pos
        try:
            validate(graph)
            raised = False
        except ValenceError:  # checked after connectivity
            raised = False
        except GraphError as exc:
            assert str(exc) == "graph is disconnected"
            raised = True
        assert raised == disconnected, graph
        seen[disconnected] += 1
    assert min(seen.values()) > 50, seen


def test_validate_rejects_valence_overflow():
    # C with 5 single bonds
    atoms = tuple(Atom("C") for _ in range(6))
    bonds = tuple((0, i, 1) for i in range(1, 6))
    with pytest.raises(ValenceError):
        validate(MolecularGraph(atoms, bonds))


def test_validate_rejects_pinned_h_over_valence():
    with pytest.raises(ValenceError):
        validate(MolecularGraph((Atom("N", 1, 4),), ()))


def test_implicit_hydrogens_multivalent_sulfur():
    # S with 4 bonds fills to the standard valence 4 (no H), not 6.
    g = parse_smiles("CS(C)(C)C")
    s_idx = next(i for i, a in enumerate(g.atoms) if a.element == "S")
    assert g.bond_sum(s_idx) == 4
    assert g.total_hydrogens(s_idx) == 0
    # S with one bond fills to 2.
    g2 = parse_smiles("CS")
    s2 = next(i for i, a in enumerate(g2.atoms) if a.element == "S")
    assert g2.total_hydrogens(s2) == 1


def test_permute_roundtrip():
    g = parse_smiles("CC(=O)O")
    perm = [2, 0, 3, 1]
    p = permute(g, perm)
    assert canonicalize(p) == canonicalize(g)
    with pytest.raises(GraphError):
        permute(g, [0, 0, 1, 2])


def test_cyclohexane_100_permutations_one_canonical_string(rng):
    g = parse_smiles("C1CCCCC1")
    texts = {canonicalize(permute(g, list(rng.permutation(6)))) for _ in range(100)}
    assert len(texts) == 1


def test_canonical_stable_under_1000_permutations(rng):
    for smiles in ("CC(=O)NC1CCCCC1", "c1ccc2ccccc2c1", "OS(=O)(=O)CC(F)Br"):
        g = parse_smiles(smiles)
        texts = {canonicalize(permute(g, list(rng.permutation(len(g))))) for _ in range(1000)}
        assert len(texts) == 1, smiles


def test_non_isomorphic_molecules_distinct_canonical():
    assert canonicalize(parse_smiles("CC=O")) != canonicalize(parse_smiles("CCO"))


def test_canonical_equality_matches_brute_force_on_random_pairs(rng):
    """Dual-route check: canonical text equality agrees with exhaustive matching."""
    from moldae.corpus import sample_corpus

    molecules = [parse_smiles(s) for s in sample_corpus(60, seed=31, min_atoms=3, max_tokens=10)]
    small = [g for g in molecules if len(g) <= 7][:25]
    assert len(small) >= 10
    pairs = 0
    for i in range(len(small)):
        for j in range(i, min(i + 4, len(small))):
            same_canon = canonicalize(small[i]) == canonicalize(small[j])
            same_brute = brute_force_isomorphic(small[i], small[j])
            assert same_canon == same_brute, (i, j)
            pairs += 1
    assert pairs >= 20
    # and canonical equality must hold for permuted copies
    for g in small[:10]:
        p = permute(g, list(rng.permutation(len(g))))
        assert brute_force_isomorphic(g, p)
        assert canonicalize(p) == canonicalize(g)


def exhaustive_canonicalize(graph: MolecularGraph) -> str:
    """Reference: the smallest string over every leaf of the unpruned search tree."""
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
        for m in [i for i, r in enumerate(rank) if r == ambiguous[0]]:
            child = [2 * r + 1 for r in rank]
            child[m] -= 1
            descend(_dense(child))

    descend(_initial_ranks(graph, adj))
    assert best[0] is not None
    return best[0]


# R3C-X with R all tert-butyl or all CF3: the deep, symmetric search trees.
_R_GROUPS = ("C(C)(C)C", "C(F)(F)F")
_X_GROUPS = ("", "O", "N", "Cl", "Br", "S", "C", "CC", "OC", "C#N", "C=O", "F", "I",
             "CO", "CCl", "CBr", "SC", "CF", "OCC")
R3CX_SHAPES = tuple(
    f"C({r})({r})({r}){x}" if x else f"C({r})({r}){r}" for r in _R_GROUPS for x in _X_GROUPS
)


def _regular_carbon_graph(rng, n: int, degree: int) -> MolecularGraph:
    """A random connected degree-regular carbon graph with single bonds.

    Refinement cannot split its atoms, and in most such graphs atoms that
    refinement leaves equal are not automorphic, so unequal leaves appear
    below equal-looking siblings: pruning with a map that is not an
    automorphism loses the smallest leaf here.
    """
    while True:
        stubs = [v for v in range(n) for _ in range(degree)]
        rng.shuffle(stubs)
        pairs = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2]) if a != b}
        if len(pairs) < n * degree // 2:
            continue
        graph = MolecularGraph(tuple(Atom("C") for _ in range(n)), tuple((a, b, 1) for a, b in sorted(pairs)))
        try:
            return validate(graph)
        except GraphError:
            continue


def test_pruned_search_equals_exhaustive_search():
    rng = np.random.default_rng(7)
    graphs = [parse_smiles(s) for s in sample_corpus(500, seed=17)]
    graphs += [parse_smiles(s) for s in R3CX_SHAPES]
    graphs += [_regular_carbon_graph(rng, int(n), int(d))
               for n, d in zip(rng.choice([8, 10, 12, 14], 24), rng.choice([3, 4], 24))]
    for graph in graphs:
        expected = exhaustive_canonicalize(graph)
        assert canonicalize(graph) == expected, expected
        for _ in range(3):
            relabeled = permute(graph, list(rng.permutation(len(graph))))
            assert canonicalize(relabeled) == expected, expected


def recursive_serialize(graph: MolecularGraph, rank: list[int]) -> str:
    """Reference: the SMILES writer as two recursive passes, discovery then emission."""
    adj = graph.neighbors()
    order_of = {}
    for a, b, o in graph.bonds:
        order_of[(a, b)] = o
        order_of[(b, a)] = o
    nbrs_by_rank = [sorted((n for n, _ in neighbor), key=lambda i: rank[i]) for neighbor in adj]
    root = min(range(len(graph.atoms)), key=lambda i: rank[i])
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


def recursive_encode(graph: MolecularGraph) -> str:
    """Reference: the token encoder as one recursive walk that returns each subtree's tokens.

    Only for graphs the alphabet can express (`sf.encode` checks charges and
    pinned hydrogens first).
    """
    adj = graph.neighbors()
    order_of = {}
    for a, b, o in graph.bonds:
        order_of[(a, b)] = o
        order_of[(b, a)] = o
    visited: set[int] = set()
    used: set[tuple[int, int]] = set()
    placement: dict[int, int] = {}

    def walk(node: int, bond_order: int) -> list[str]:
        visited.add(node)
        placement[node] = len(placement)
        out = [f"[{sf._PREFIX_OF_ORDER[bond_order]}{graph.atoms[node].element}]"]
        for nbr in sorted(n for n, _ in adj[node]):
            key = (min(node, nbr), max(node, nbr))
            if key in used or nbr not in visited:
                continue
            used.add(key)
            k, operands = sf._operand_tokens(placement[node] - placement[nbr] - 1)
            out.append(f"[{sf._PREFIX_OF_ORDER[order_of[(node, nbr)]]}Ring{k}]")
            out.extend(t.text for t in operands)
        bodies: list[tuple[int, list[str]]] = []
        for nbr in sorted(n for n, _ in adj[node]):
            key = (min(node, nbr), max(node, nbr))
            if key in used:
                continue
            assert nbr not in visited, "unused edge to a visited atom"
            used.add(key)
            bodies.append((order_of[(node, nbr)], walk(nbr, order_of[(node, nbr)])))
        for i, (order, body) in enumerate(bodies):
            if i < len(bodies) - 1:
                k, operands = sf._operand_tokens(len(body) - 1)
                out.append(f"[{sf._PREFIX_OF_ORDER[order]}Branch{k}]")
                out.extend(t.text for t in operands)
            out.extend(body)
        return out

    return "".join(walk(0, 1))


def test_writers_equal_recursive_writers():
    rng = np.random.default_rng(11)
    graphs = [parse_smiles(s) for s in sample_corpus(500, seed=17)]
    graphs += [parse_smiles(s) for s in R3CX_SHAPES]
    graphs += [_regular_carbon_graph(rng, int(n), int(d))
               for n, d in zip(rng.choice([8, 10, 12, 14], 24), rng.choice([3, 4], 24))]
    encoded = 0
    for graph in graphs:
        for relabeled in [graph] + [permute(graph, list(rng.permutation(len(graph)))) for _ in range(3)]:
            identity = list(range(len(relabeled)))
            assert write_smiles(relabeled) == recursive_serialize(relabeled, identity)
            shuffled = list(rng.permutation(len(relabeled)))
            assert _serialize(relabeled, shuffled) == recursive_serialize(relabeled, shuffled)
            try:
                tokens = sf.encode(relabeled)
            except sf.EncodeError:
                continue
            assert sf.join_tokens(tokens) == recursive_encode(relabeled)
            encoded += 1
    assert encoded > 3 * len(graphs)


# Each took seconds to minutes with the exhaustive search (over 290 s for the
# last), so each runs in a child process that the test can time out.
_BLOWUP_MOLECULES = {
    "tetra-tert-butylmethane": "CC(C)(C)C(C(C)(C)C)(C(C)(C)C)C(C)(C)C",
    "tetrakis(trifluoromethyl)methane": "FC(F)(F)C(C(F)(F)F)(C(F)(F)F)C(F)(F)F",
    "hexakis(trifluoromethyl)ethane": "FC(F)(F)C(C(F)(F)F)(C(F)(F)F)C(C(F)(F)F)(C(F)(F)F)C(F)(F)F",
}

_TIME_CANONICALIZE = """
import json, sys, time
import numpy as np
from moldae.canon import canonicalize
from moldae.graph import MolecularGraph
from moldae.smiles import parse_smiles
graph = parse_smiles(sys.argv[1])
perm = list(np.random.default_rng(3).permutation(len(graph)))  # new index of each old atom
atoms = [None] * len(graph)
for old, new in enumerate(perm):
    atoms[new] = graph.atoms[old]
copy = MolecularGraph(tuple(atoms), tuple((perm[a], perm[b], o) for a, b, o in graph.bonds))
out = []
for g in (graph, copy):
    start = time.perf_counter()
    text = canonicalize(g)
    out.append([text, time.perf_counter() - start])
print(json.dumps(out))
"""


@pytest.mark.parametrize("name", sorted(_BLOWUP_MOLECULES))
def test_symmetric_molecule_canonicalizes_within_a_second(name):
    import moldae

    env = dict(os.environ, PYTHONPATH=str(Path(moldae.__file__).parents[1]))
    try:
        proc = subprocess.run([sys.executable, "-c", _TIME_CANONICALIZE, _BLOWUP_MOLECULES[name]],
                              env=env, capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail(f"{name}: canonicalize ran past 60 s")
    assert proc.returncode == 0, proc.stderr
    (text, seconds), (copy_text, copy_seconds) = json.loads(proc.stdout)
    assert text == copy_text
    assert seconds < 1.0 and copy_seconds < 1.0, (seconds, copy_seconds)


# Deeper than the interpreter's recursion limit: the writers and the Kekulé
# search raised RecursionError here while they recursed once per atom.
_DEEP_MOLECULES = {
    "3000-atom chain": "C" * 3000,
    "3000-atom aromatic ring": "c1" + "c" * 2998 + "c1",
}

_TIME_ROUND_TRIP = """
import json, sys, time
from moldae.canon import write_smiles
from moldae.selfies import decode, encode
from moldae.smiles import parse_smiles
out = []
start = time.perf_counter()
graph = parse_smiles(sys.argv[1])
out.append(time.perf_counter() - start)
for step in (lambda: write_smiles(graph), lambda: write_smiles(decode(encode(graph)))):
    start = time.perf_counter()
    out.append([step(), time.perf_counter() - start])
print(json.dumps(out))
"""


@pytest.mark.parametrize("name", sorted(_DEEP_MOLECULES))
def test_deep_molecule_round_trips_within_a_second(name):
    import moldae

    env = dict(os.environ, PYTHONPATH=str(Path(moldae.__file__).parents[1]))
    try:
        proc = subprocess.run([sys.executable, "-c", _TIME_ROUND_TRIP, _DEEP_MOLECULES[name]],
                              env=env, capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail(f"{name}: the round trip ran past 60 s")
    assert proc.returncode == 0, proc.stderr
    parse_seconds, (written, write_seconds), (round_trip, round_trip_seconds) = json.loads(proc.stdout)
    assert round_trip == written
    assert max(parse_seconds, write_seconds, round_trip_seconds) < 1.0, \
        (parse_seconds, write_seconds, round_trip_seconds)
