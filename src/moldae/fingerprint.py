"""Hashed circular fingerprints.

Each atom contributes one environment per radius 0..r: the radius-0
environment is the atom invariant (element, charge, total hydrogens, degree,
incident bond orders); larger radii fold in the sorted (bond order, neighbor
environment) pairs of the previous iteration. Environments are hashed with a
stable 64-bit FNV-1a of their ASCII `repr` (no process-salted `hash`) and
folded into the bit width by modulo.

`fingerprints` hashes many molecules at once. It takes them in groups of at
most HASH_CHUNK_ENVS atoms, and hashes each radius layer of a group in one
numpy pass per byte position over the environments still that long
(`_fnv1a64`). The uint64 wraparound is FNV-1a's arithmetic modulo 2**64, so
every bit equals the scalar byte loop's. The chunk bounds the working set,
whatever the number of molecules.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .graph import MolecularGraph

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
# Environments per hashing pass, and atoms per group of molecules in
# `fingerprints`. It bounds the working set (at radius 2, about 1 MB per group);
# the hashes do not depend on it.
HASH_CHUNK_ENVS = 1024
# Similarity products sum at most `width` ones in float32, exact up to 2**24.
MAX_WIDTH = 1 << 24


class FingerprintError(ValueError):
    pass


def _fnv1a64(texts: list[str]) -> np.ndarray:
    """64-bit FNV-1a of each ASCII text, as a uint64 vector in input order.

    Each chunk of texts is sorted longest first and packed into a byte
    matrix, so the texts still running at byte j are a prefix of its rows.
    """
    out = np.empty(len(texts), dtype=np.uint64)
    for lo in range(0, len(texts), HASH_CHUNK_ENVS):
        chunk = texts[lo : lo + HASH_CHUNK_ENVS]
        lengths = np.fromiter(map(len, chunk), dtype=np.intp, count=len(chunk))
        order = np.argsort(-lengths, kind="stable")
        longest = int(lengths[order[0]])
        packed = np.frombuffer("".join(chunk[i].ljust(longest, "\0") for i in order.tolist())
                               .encode("ascii"), dtype=np.uint8).reshape(len(chunk), longest)
        columns = np.ascontiguousarray(packed.T)
        # running[j]: how many texts are longer than j bytes.
        running = np.searchsorted(-lengths[order], -np.arange(longest), side="left").tolist()
        h = np.full(len(chunk), _FNV_OFFSET, dtype=np.uint64)
        for column, k in zip(columns, running):
            h[:k] ^= column[:k]
            h[:k] *= _FNV_PRIME
        out[lo + order] = h
    return out


def _group_bits(group: list[MolecularGraph], radius: int, width: int) -> np.ndarray:
    """(len(group), width) bits, hashing each radius layer of the whole group at once."""
    env_text: list[str] = []
    adj: list[list[tuple[int, int]]] = []  # (atom index within the group, bond order)
    rows: list[int] = []
    for row, graph in enumerate(group):
        base = len(adj)
        nbrs = graph.neighbors()
        for i, atom in enumerate(graph.atoms):
            env_text.append(repr((atom.element, atom.charge, graph.total_hydrogens(i),
                                  len(nbrs[i]), tuple(sorted(o for _, o in nbrs[i])))))
            adj.append([(base + j, o) for j, o in nbrs[i]])
        rows.extend([row] * len(graph.atoms))
    bits = np.zeros((len(group), width), dtype=bool)
    env = _fnv1a64(env_text)
    bits[rows, (env % np.uint64(width)).astype(np.intp)] = True
    for _ in range(radius):
        prev = env.tolist()
        env = _fnv1a64([repr((prev[i], tuple(sorted((o, prev[j]) for j, o in edges))))
                        for i, edges in enumerate(adj)])
        bits[rows, (env % np.uint64(width)).astype(np.intp)] = True
    return bits


def fingerprints(graphs: Iterable[MolecularGraph], radius: int = 2, width: int = 1024) -> np.ndarray:
    """(n, width) bool circular fingerprints, one row per graph, in input order.

    A row does not depend on the other graphs. `graphs` is read once, in
    groups of at most HASH_CHUNK_ENVS atoms (a larger molecule makes a group
    alone), so a generator keeps only one group alive.
    """
    if radius < 0:
        raise FingerprintError("radius must be >= 0")
    if width < 64 or width & (width - 1):
        raise FingerprintError("width must be a power of two >= 64")
    if width > MAX_WIDTH:
        raise FingerprintError(f"width must be at most {MAX_WIDTH}")
    blocks = [np.zeros((0, width), dtype=bool)]
    group: list[MolecularGraph] = []
    atoms = 0
    for graph in graphs:
        if group and atoms + len(graph) > HASH_CHUNK_ENVS:
            blocks.append(_group_bits(group, radius, width))
            group, atoms = [], 0
        group.append(graph)
        atoms += len(graph)
    if group:
        blocks.append(_group_bits(group, radius, width))
    return np.concatenate(blocks)
