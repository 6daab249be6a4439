"""Generation metrics: validity, unique@k, novelty, internal diversity.

Conventions follow the common molecular-generation benchmark practice:
unique@k windows the first k valid molecules in emission order; novelty and
internal diversity are computed over the distinct valid canonical molecules,
with self-pairs included in the diversity double sum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import selfies
from .canon import canonicalize
from .fingerprint import fingerprints
from .graph import GraphError
from .model import ModelConfig, _draw, sample_batch
from .smiles import SmilesParseError, parse_smiles
from .tokenizer import EOS, Vocabulary, decode_ids


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class GeneratedSet:
    """Raw emissions plus their decode results, in generation order.

    `generate_set` also counts what the sampler did: `tokens` ids sampled
    after <bos> (<eos> included) and `truncated` samples cut off at max_len
    with no <eos>.
    """

    raw: tuple[str, ...]  # SELFIES text as emitted (may be empty)
    canonical: tuple[str | None, ...]  # canonical SMILES, or None for empty output
    seed: int = 0
    checkpoint_id: str = ""
    tokens: int = 0
    truncated: int = 0

    def __post_init__(self):
        if len(self.raw) != len(self.canonical):
            raise MetricsError("raw and canonical lists must align")

    def __len__(self) -> int:
        return len(self.raw)

    def valid(self) -> list[str]:
        return [c for c in self.canonical if c is not None]

    @property
    def empty(self) -> int:
        """Emissions with no grammar token."""
        return self.raw.count("")


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
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"

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
    return int(_draw((hist / total)[None], [rng])[0])


GENERATE_BATCH = 128  # samples per sample_batch call


def _canonical(grammar) -> str | None:
    """Canonical SMILES of the molecule a SELFIES token sequence decodes to; None for the empty one."""
    graph = selfies.decode(grammar)
    return canonicalize(graph) if len(graph) else None


def generate_set(params, config: ModelConfig, vocab: Vocabulary, n: int, seed: int,
                 length_hist: np.ndarray, temperature: float = 1.0, max_len: int | None = None,
                 checkpoint_id: str = "") -> GeneratedSet:
    """Draw n molecules via the model sampler, GENERATE_BATCH at a time, and decode each one.

    Every sample gets its own child seed, so results are independent of the
    batch partitioning. Each sample conditions on a fully-masked source of a
    length drawn from the training length histogram. Empty generations are
    recorded with canonical None.
    """
    if n < 1:
        raise MetricsError("n must be >= 1")
    children = np.random.SeedSequence(seed).spawn(n)
    raw: list[str] = []
    canon: list[str | None] = []
    tokens = truncated = 0
    for lo in range(0, n, GENERATE_BATCH):
        rngs = [np.random.default_rng(s) for s in children[lo : lo + GENERATE_BATCH]]
        lengths = [draw_source_length(length_hist, rng) for rng in rngs]
        for ids in sample_batch(params, config, rngs, lengths, max_len=max_len, temperature=temperature):
            tokens += len(ids) - 1
            truncated += int(ids[-1] != EOS)
            grammar = decode_ids(ids, vocab)
            raw.append(selfies.join_tokens(grammar))
            canon.append(_canonical(grammar))
    return GeneratedSet(tuple(raw), tuple(canon), seed=seed, checkpoint_id=checkpoint_id,
                        tokens=tokens, truncated=truncated)


def load_generated(path: str | Path) -> GeneratedSet:
    """A SELFIES file (one emission per line), decoded as `generate_set` decodes.

    A line that is not SELFIES (a bad bracket or an unknown token) counts as
    invalid, like the empty molecule: its canonical form is None.
    """
    raw: list[str] = []
    canon: list[str | None] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        text = line.strip()
        raw.append(text)
        try:
            canon.append(_canonical(selfies.split_selfies(text)))
        except selfies.SelfiesError:
            canon.append(None)
    return GeneratedSet(tuple(raw), tuple(canon))


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


def _diversities(generated: GeneratedSet, radius: int, width: int) -> tuple[float, float]:
    """Internal diversity intdiv1 and intdiv2, from one fingerprint and similarity pass."""
    distinct = sorted(set(generated.valid()))
    if not distinct:
        raise MetricsError("no valid molecules")
    # Intersections count at most width (<= 2**24) ones, so float32 sums them exactly.
    fps = fingerprints((parse_smiles(s) for s in distinct), radius, width).astype(np.float32)
    pop = fps.sum(axis=1, dtype=np.float64)
    sum1 = sum2 = 0.0
    block = 256
    for lo in range(0, len(distinct), block):
        chunk = fps[lo : lo + block]
        inter = (chunk @ fps.T).astype(np.float64)
        union = pop[lo : lo + block, None] + pop[None, :] - inter
        sim = np.where(union > 0, inter / np.where(union > 0, union, 1.0), 1.0)
        sum1 += float(sim.sum())
        sum2 += float((sim**2).sum())
    return 1.0 - sum1 / len(distinct) ** 2, 1.0 - (sum2 / len(distinct) ** 2) ** 0.5


def load_training_canon(path: str | Path) -> set[str]:
    """Canonical forms of a SMILES file (one per line, blank lines skipped)."""
    canon: set[str] = set()
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        text = line.strip()
        if not text:
            continue
        try:
            canon.add(canonicalize(parse_smiles(text)))
        except (SmilesParseError, GraphError) as exc:
            raise MetricsError(f"{path}:{lineno}: training molecule {text!r}: {exc}") from exc
    return canon


def build_report(generated: GeneratedSet, training_canon: set[str], k: int | None = None,
                 radius: int = 2, width: int = 1024) -> GenerationReport:
    k = len(generated) if k is None else k
    valid = generated.valid()
    distinct = set(valid)
    return GenerationReport(
        validity(generated),
        unique_at(generated, k),
        k,
        novelty(generated, training_canon),
        *_diversities(generated, radius, width),
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
