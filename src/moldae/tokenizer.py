"""Vocabulary, id-sequence framing, and masking corruption.

Ids 0..4 are reserved for <pad>, <bos>, <eos>, <mask>, <unk>; corpus tokens
follow in first-appearance order. Sequences are framed <bos> ... <eos>;
corruption masks content positions independently (Bernoulli) and never
touches the specials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PAD, BOS, EOS, MASK, UNK = 0, 1, 2, 3, 4
SPECIALS: tuple[str, ...] = ("<pad>", "<bos>", "<eos>", "<mask>", "<unk>")


class VocabularyError(ValueError):
    pass


@dataclass(frozen=True)
class Vocabulary:
    """Dense bidirectional token-text <-> id map with fixed special ids."""

    texts: tuple[str, ...]
    ids: dict[str, int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.texts)

    def id_of(self, text: str) -> int:
        return self.ids.get(text, UNK)

    def text_of(self, idx: int) -> str:
        if not 0 <= idx < len(self.texts):
            raise VocabularyError(f"id {idx} out of range 0..{len(self.texts) - 1}")
        return self.texts[idx]


def build_vocab(corpus) -> Vocabulary:
    """Vocabulary over an iterable of token sequences (SelfiesTokens streams).

    Deterministic: specials first, then distinct token texts in first
    appearance order. Raises on an empty corpus.
    """
    texts = list(SPECIALS)
    seen = set(SPECIALS)
    empty = True
    for tokens in corpus:
        empty = False
        for tok in tokens:
            if tok.text not in seen:
                seen.add(tok.text)
                texts.append(tok.text)
    if empty:
        raise VocabularyError("empty corpus")
    return Vocabulary(tuple(texts), {t: i for i, t in enumerate(texts)})


def vocab_text(vocab: Vocabulary) -> str:
    """One token text per line, in id order: the vocabulary file's contents."""
    return "\n".join(vocab.texts) + "\n"


def parse_vocab(text: str, source: str | Path) -> Vocabulary:
    """The vocabulary `vocab_text` wrote; `source` names it in errors."""
    texts = text.splitlines()
    if tuple(texts[:5]) != SPECIALS:
        raise VocabularyError(f"{source}: first five lines must be the special tokens")
    if len(set(texts)) != len(texts):
        raise VocabularyError(f"{source}: duplicate token text")
    return Vocabulary(tuple(texts), {t: i for i, t in enumerate(texts)})


def save_vocab(vocab: Vocabulary, path: str | Path) -> None:
    Path(path).write_text(vocab_text(vocab), encoding="utf-8")


def load_vocab(path: str | Path) -> Vocabulary:
    return parse_vocab(Path(path).read_text(encoding="utf-8"), path)


def encode_ids(tokens, vocab: Vocabulary) -> np.ndarray:
    """<bos> t1..tn <eos> as an int64 vector; unknown texts map to <unk>."""
    ids = [BOS]
    ids.extend(vocab.id_of(t.text) for t in tokens)
    ids.append(EOS)
    return np.asarray(ids, dtype=np.int64)


def decode_ids(ids, vocab: Vocabulary) -> tuple:
    """Strip framing and return the grammar tokens; stops at the first <eos>.

    Inverse of encode_ids for in-vocab input. <unk>/<mask>/<pad> content ids
    are dropped (they carry no grammar token). Raises on out-of-range ids.
    """
    from .selfies import TOKENS_BY_TEXT

    out = []
    for idx in ids:
        idx = int(idx)
        text = vocab.text_of(idx)  # range check
        if idx == EOS:
            break
        if idx in (PAD, BOS, MASK, UNK):
            continue
        out.append(TOKENS_BY_TEXT[text])
    return tuple(out)


@dataclass(frozen=True)
class CorruptedPair:
    """Masked encoder input, intact target, and the masked index set."""

    x_corrupt: np.ndarray
    y: np.ndarray
    mask_positions: tuple[int, ...]


def corrupt(ids: np.ndarray, mask_rate: float, rng: np.random.Generator) -> CorruptedPair:
    """Mask each content position independently with probability mask_rate."""
    if not 0.0 <= mask_rate <= 1.0:
        raise ValueError("mask_rate must be in [0, 1]")
    y = np.asarray(ids, dtype=np.int64)
    x = y.copy()
    content = np.arange(1, len(y) - 1)
    hits = content[rng.random(len(content)) < mask_rate] if len(content) else content
    x[hits] = MASK
    return CorruptedPair(x, y, tuple(int(i) for i in hits))
