"""Generation metrics: validity, unique@k, novelty, internal diversity.

Conventions follow the common molecular-generation benchmark practice:
unique@k windows the first k valid molecules in emission order; novelty and
internal diversity are computed over the distinct valid canonical molecules,
with self-pairs included in the diversity double sum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import selfies
from .canon import canonicalize
from .fingerprint import fingerprint
from .model import ModelConfig, sample_batch
from .tokenizer import Vocabulary, decode_ids


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class GeneratedSet:
    """Raw emissions plus their decode results, in generation order."""

    raw: tuple[str, ...]  # SELFIES text as emitted (may be empty)
    canonical: tuple[str | None, ...]  # canonical SMILES, or None for empty output
    seed: int = 0
    checkpoint_id: str = ""

    def __post_init__(self):
        if len(self.raw) != len(self.canonical):
            raise MetricsError("raw and canonical lists must align")

    def __len__(self) -> int:
        return len(self.raw)

    def valid(self) -> list[str]:
        return [c for c in self.canonical if c is not None]


@dataclass(frozen=True)
class GenerationReport:
    validity: float
    unique_at_k: float
    k: int
    novelty: float
    intdiv1: float
    intdiv2: float
    counts: dict[str, int] = field(default_factory=dict)
    fingerprint_radius: int = 2
    fingerprint_width: int = 1024
    seed: int = 0
    checkpoint_id: str = ""

    def to_json(self) -> str:
        payload = {
            "validity": self.validity,
            "unique_at_k": self.unique_at_k,
            "k": self.k,
            "novelty": self.novelty,
            "intdiv1": self.intdiv1,
            "intdiv2": self.intdiv2,
            "counts": self.counts,
            "fingerprint": {"radius": self.fingerprint_radius, "width": self.fingerprint_width},
            "provenance": {"seed": self.seed, "checkpoint_id": self.checkpoint_id},
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_table(self) -> str:
        rows = [
            ("validity", self.validity),
            (f"unique@{self.k}", self.unique_at_k),
            ("novelty", self.novelty),
            ("intdiv1", self.intdiv1),
            ("intdiv2", self.intdiv2),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value:.4f}" for name, value in rows)


def draw_source_length(length_hist: np.ndarray, rng: np.random.Generator) -> int:
    """Sample a source length (>= 1) proportional to the training histogram."""
    hist = np.asarray(length_hist, dtype=np.float64).copy()
    if len(hist) > 0:
        hist[0] = 0.0  # never condition on the empty molecule
    total = hist.sum()
    if total <= 0:
        raise MetricsError("length histogram is empty")
    return int(np.searchsorted(np.cumsum(hist / total), rng.random(), side="right"))


def generate_set(params, config: ModelConfig, vocab: Vocabulary, n: int, seed: int,
                 temperature: float = 1.0, max_len: int | None = None,
                 checkpoint_id: str = "", batch_size: int = 128,
                 length_hist: np.ndarray | None = None) -> GeneratedSet:
    """Draw n molecules via the model sampler and decode each one.

    Every sample gets its own child seed, so results are independent of the
    batch partitioning. When a training length histogram is given, each
    sample conditions on a fully-masked source of a drawn length; otherwise
    the source is the bare (<bos>, <eos>) pair. Empty generations are
    recorded with canonical None.
    """
    if n < 1:
        raise MetricsError("n must be >= 1")
    children = np.random.SeedSequence(seed).spawn(n)
    raw: list[str] = []
    canon: list[str | None] = []
    for lo in range(0, n, batch_size):
        rngs = [np.random.default_rng(s) for s in children[lo : lo + batch_size]]
        if length_hist is not None:
            lengths = [draw_source_length(length_hist, rng) for rng in rngs]
        else:
            lengths = None
        for ids in sample_batch(params, config, rngs, max_len=max_len,
                                temperature=temperature, source_lengths=lengths):
            tokens = decode_ids(ids, vocab)
            raw.append(selfies.join_tokens(tokens))
            graph = selfies.decode(tokens)
            canon.append(canonicalize(graph) if len(graph) else None)
    return GeneratedSet(tuple(raw), tuple(canon), seed=seed, checkpoint_id=checkpoint_id)


def validity(generated: GeneratedSet) -> float:
    """Fraction of emissions that decoded to a non-empty molecule."""
    if not len(generated):
        raise MetricsError("empty generated set")
    return len(generated.valid()) / len(generated)


def unique_at(generated: GeneratedSet, k: int) -> float:
    """Distinct canonical molecules among the first min(k, #valid) valid ones."""
    if k < 1:
        raise MetricsError("k must be >= 1")
    valid = generated.valid()
    if not valid:
        raise MetricsError("no valid molecules")
    window = valid[:k]
    return len(set(window)) / len(window)


def novelty(generated: GeneratedSet, training_canon: set[str]) -> float:
    """Fraction of distinct valid generations absent from the training set."""
    distinct = set(generated.valid())
    if not distinct:
        raise MetricsError("no valid molecules")
    return len(distinct - training_canon) / len(distinct)


def _pairwise_tanimoto_mean(smiles: list[str], p: int, radius: int, width: int) -> float:
    fps = np.stack([fingerprint_from_smiles(s, radius, width) for s in smiles]).astype(np.float64)
    pop = fps.sum(axis=1)
    total = 0.0
    block = 256
    for lo in range(0, len(smiles), block):
        chunk = fps[lo : lo + block]
        inter = chunk @ fps.T
        union = pop[lo : lo + block, None] + pop[None, :] - inter
        sim = np.where(union > 0, inter / np.where(union > 0, union, 1.0), 1.0)
        total += float((sim**p).sum())
    return total / (len(smiles) ** 2)


def fingerprint_from_smiles(smiles_text: str, radius: int, width: int) -> np.ndarray:
    from .smiles import parse_smiles

    return fingerprint(parse_smiles(smiles_text), radius, width).bits


def internal_diversity(generated: GeneratedSet, p: int = 1, radius: int = 2, width: int = 1024) -> float:
    """1 - (mean of pairwise Tanimoto^p over distinct valid molecules)^(1/p)."""
    if p not in (1, 2):
        raise MetricsError("p must be 1 or 2")
    distinct = sorted(set(generated.valid()))
    if not distinct:
        raise MetricsError("no valid molecules")
    mean_pow = _pairwise_tanimoto_mean(distinct, p, radius, width)
    return 1.0 - mean_pow ** (1.0 / p)


def build_report(generated: GeneratedSet, training_canon: set[str], k: int | None = None,
                 radius: int = 2, width: int = 1024) -> GenerationReport:
    k = len(generated) if k is None else k
    valid = generated.valid()
    distinct = set(valid)
    return GenerationReport(
        validity=validity(generated),
        unique_at_k=unique_at(generated, k),
        k=k,
        novelty=novelty(generated, training_canon),
        intdiv1=internal_diversity(generated, 1, radius, width),
        intdiv2=internal_diversity(generated, 2, radius, width),
        counts={
            "n": len(generated),
            "valid": len(valid),
            "distinct_valid": len(distinct),
            "novel": len(distinct - training_canon),
        },
        fingerprint_radius=radius,
        fingerprint_width=width,
        seed=generated.seed,
        checkpoint_id=generated.checkpoint_id,
    )
