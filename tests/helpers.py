"""Test inputs and oracles that the package itself has no use for.

`random_token_string` feeds the grammar-totality fuzzing (acceptance
criterion 1 draws its 10,000 strings from it, so it must stay byte-for-byte
as it is); `permute` relabels atoms for the canonical-form and fingerprint
invariance tests; `scalar_fingerprint` and `tanimoto` are the one-molecule,
one-pair definitions that the batched fingerprint kernel and the internal
diversity metric are checked against.
"""

import numpy as np

from moldae.graph import Atom, GraphError, MolecularGraph
from moldae.selfies import ALPHABET, SelfiesToken

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def random_token_string(rng: np.random.Generator, length: int) -> tuple[SelfiesToken, ...]:
    """Uniform i.i.d. tokens from the full alphabet; reproducible per rng state."""
    if length < 0:
        raise ValueError("length must be >= 0")
    idx = rng.integers(0, len(ALPHABET), size=length)
    return tuple(ALPHABET[int(j)] for j in idx)


def permute(graph: MolecularGraph, perm: list[int]) -> MolecularGraph:
    """Relabel atoms so new index perm[i] hosts old atom i; isomorphic by construction."""
    if sorted(perm) != list(range(len(graph.atoms))):
        raise GraphError("not a permutation")
    atoms: list[Atom | None] = [None] * len(graph.atoms)
    for old, new in enumerate(perm):
        atoms[new] = graph.atoms[old]
    bonds = tuple((perm[a], perm[b], o) for a, b, o in graph.bonds)
    return MolecularGraph(tuple(atoms), bonds)  # type: ignore[arg-type]


def scalar_fnv1a(data: bytes) -> int:
    """The byte-at-a-time FNV-1a 64 that `fingerprint._fnv1a64` vectorizes."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def scalar_fingerprint(graph: MolecularGraph, radius: int = 2, width: int = 1024) -> np.ndarray:
    """One molecule at a time, one environment at a time: the fingerprint's definition."""

    def hash_tuple(parts: tuple) -> int:
        return scalar_fnv1a(repr(parts).encode("ascii"))

    adj = graph.neighbors()
    env = [hash_tuple((atom.element, atom.charge, graph.total_hydrogens(i), len(adj[i]),
                       tuple(sorted(o for _, o in adj[i]))))
           for i, atom in enumerate(graph.atoms)]
    bits = np.zeros(width, dtype=bool)
    for h in env:
        bits[h % width] = True
    for _ in range(radius):
        env = [hash_tuple((env[i], tuple(sorted((o, env[j]) for j, o in adj[i]))))
               for i in range(len(graph.atoms))]
        for h in env:
            bits[h % width] = True
    return bits


def tanimoto(a: np.ndarray, b: np.ndarray) -> float:
    """|a AND b| / |a OR b| of two bool rows; two all-zero rows count as identical (1.0)."""
    union = int(np.logical_or(a, b).sum())
    if union == 0:
        return 1.0
    return int(np.logical_and(a, b).sum()) / union
