"""Hashed circular fingerprints and Tanimoto similarity.

Each atom contributes one environment per radius 0..r: the radius-0
environment is the atom invariant (element, charge, total hydrogens, degree,
incident bond orders); larger radii fold in the sorted (bond order, neighbor
environment) pairs of the previous iteration. Environments are hashed with a
stable 64-bit FNV-1a (no process-salted `hash`) and folded into the bit width
by modulo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import MolecularGraph

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def _hash_tuple(parts: tuple) -> int:
    return _fnv1a(repr(parts).encode("ascii"))


class FingerprintError(ValueError):
    pass


@dataclass(frozen=True)
class Fingerprint:
    bits: np.ndarray  # bool vector of length width
    radius: int

    @property
    def width(self) -> int:
        return int(self.bits.shape[0])

    def popcount(self) -> int:
        return int(self.bits.sum())


def fingerprint(graph: MolecularGraph, radius: int = 2, width: int = 1024) -> Fingerprint:
    """Circular fingerprint of the graph; invariant under atom relabeling."""
    if radius < 0:
        raise FingerprintError("radius must be >= 0")
    if width < 64 or width & (width - 1):
        raise FingerprintError("width must be a power of two >= 64")
    adj = graph.neighbors()
    env = [
        _hash_tuple(
            (
                atom.element,
                atom.charge,
                graph.total_hydrogens(i),
                len(adj[i]),
                tuple(sorted(o for _, o in adj[i])),
            )
        )
        for i, atom in enumerate(graph.atoms)
    ]
    bits = np.zeros(width, dtype=bool)
    for h in env:
        bits[h % width] = True
    for _ in range(radius):
        env = [
            _hash_tuple((env[i], tuple(sorted((o, env[j]) for j, o in adj[i]))))
            for i in range(len(graph.atoms))
        ]
        for h in env:
            bits[h % width] = True
    return Fingerprint(bits, radius)


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    """|a AND b| / |a OR b|; two all-zero vectors count as identical (1.0)."""
    if a.width != b.width:
        raise FingerprintError(f"fingerprint widths differ: {a.width} vs {b.width}")
    union = int(np.logical_or(a.bits, b.bits).sum())
    if union == 0:
        return 1.0
    inter = int(np.logical_and(a.bits, b.bits).sum())
    return inter / union
