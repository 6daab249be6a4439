"""Seeded random molecule corpus via the robust grammar.

Random token strings with organic-chemistry-flavored weights are decoded
(total decoder, so every draw yields a valid graph), deduplicated by
canonical form, and returned as canonical SMILES. Used for toy training
corpora, demo pipelines, and the property-prediction surrogate datasets.
"""

from __future__ import annotations

import numpy as np

from .canon import canonicalize
from .selfies import ALPHABET, decode

# Drug-like element frequencies: carbon dominates heavy-atom counts.
_ELEMENT_WEIGHT = {
    "C": 40.0, "N": 5.0, "O": 5.0, "S": 1.2, "F": 1.2, "Cl": 1.2,
    "Br": 0.5, "P": 0.4, "B": 0.2, "I": 0.2, "H": 0.1,
}
_ORDER_WEIGHT = {1: 1.0, 2: 0.25, 3: 0.04}
_STRUCT_WEIGHT = {("branch", 1): 3.0, ("branch", 2): 0.15, ("branch", 3): 0.02,
                  ("ring", 1): 2.5, ("ring", 2): 0.15, ("ring", 3): 0.02}
MAX_STALE = 50_000  # draws in a row without a new molecule before sample_corpus gives up
MIN_TOKENS = 4  # the shortest token string a draw decodes


def _token_weights() -> np.ndarray:
    weights = []
    for tok in ALPHABET:
        if tok.kind == "atom":
            w = _ELEMENT_WEIGHT[tok.element] * _ORDER_WEIGHT[tok.order]
        else:
            w = _STRUCT_WEIGHT[(tok.kind, tok.size)] * _ORDER_WEIGHT[tok.order]
        weights.append(w)
    w = np.asarray(weights, dtype=np.float64)
    return w / w.sum()


def sample_corpus(n: int, seed: int = 0, min_atoms: int = 3, max_tokens: int = 40) -> list[str]:
    """n distinct random molecules as canonical SMILES, deterministic per seed.

    Raises once more than MAX_STALE draws in a row add no new molecule (the
    distinct-molecule space under tight min_atoms/max_tokens limits is finite).
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 97)))
    probs = _token_weights()
    seen: set[str] = set()
    out: list[str] = []
    stale = 0
    while len(out) < n:
        if stale > MAX_STALE:
            raise ValueError(
                f"no new distinct molecule in {stale} draws (have {len(out)} of {n}); "
                "loosen min_atoms/max_tokens"
            )
        length = int(rng.integers(MIN_TOKENS, max_tokens + 1))
        idx = rng.choice(len(ALPHABET), size=length, p=probs)
        graph = decode([ALPHABET[int(i)] for i in idx])
        if len(graph) < min_atoms:
            stale += 1
            continue
        smiles = canonicalize(graph)
        if smiles in seen:
            stale += 1
            continue
        seen.add(smiles)
        out.append(smiles)
        stale = 0
    return out
