"""Desk-scale encoder-decoder sequence model with a denoising objective.

Pre-layer-norm transformer blocks, learned positional embeddings shared by
encoder and decoder, tied input/output token embeddings, GELU feed-forward.
The encoder attends bidirectionally over the corrupted sequence; the decoder
runs causal self-attention plus cross-attention and is trained to reproduce
the intact sequence token by token (teacher forcing, loss over all target
positions). Everything is numpy + the in-repo autodiff; float32 for training,
float64 for gradient-check work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .tokenizer import BOS, EOS, MASK, PAD, UNK

NEG_INF = -1e9


def _linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Dense projection of (B, L, d) by (d, k) via one flat GEMM."""
    batch, length, d = x.shape
    flat = ad.matmul(ad.reshape(x, (batch * length, d)), w)
    if b is not None:
        flat = ad.add(flat, b)
    return ad.reshape(flat, (batch, length, w.shape[1]))


class ModelConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 128
    n_heads: int = 4
    encoder_layers: int = 2
    decoder_layers: int = 2
    ff_width: int = 512
    max_len: int = 128
    dropout: float = 0.0

    def validate(self) -> "ModelConfig":
        if self.vocab_size < 6:
            raise ModelConfigError("vocab_size must cover the 5 specials plus content")
        if self.d_model <= 0 or self.n_heads <= 0 or self.ff_width <= 0:
            raise ModelConfigError("dimensions must be positive")
        if self.d_model % self.n_heads:
            raise ModelConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.encoder_layers < 1 or self.decoder_layers < 1:
            raise ModelConfigError("need at least one layer on each side")
        if self.max_len < 3:
            raise ModelConfigError("max_len must be >= 3")
        if not 0.0 <= self.dropout < 1.0:
            raise ModelConfigError("dropout must be in [0, 1)")
        return self


def init_model(config: ModelConfig, rng: np.random.Generator, dtype=np.float32) -> dict[str, Tensor]:
    """Fresh parameters: N(0, 0.02) weights, zero biases, unit layer-norm gains.

    Creation order is fixed, so a given seed always yields the same tensors.
    """
    config.validate()
    params: dict[str, Tensor] = {}

    def normal(name: str, *shape: int) -> None:
        params[name] = Tensor(rng.normal(0.0, 0.02, shape).astype(dtype), requires_grad=True)

    def zeros(name: str, *shape: int) -> None:
        params[name] = Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)

    def ones(name: str, *shape: int) -> None:
        params[name] = Tensor(np.ones(shape, dtype=dtype), requires_grad=True)

    d, ff = config.d_model, config.ff_width
    normal("tok_emb", config.vocab_size, d)
    normal("pos_emb", config.max_len, d)

    def block(prefix: str, cross: bool) -> None:
        for part in (["self"] + (["cross"] if cross else [])):
            for w in ("wq", "wk", "wv", "wo"):
                normal(f"{prefix}.{part}.{w}", d, d)
            for b in ("bq", "bk", "bv", "bo"):
                zeros(f"{prefix}.{part}.{b}", d)
        n_ln = 3 if cross else 2
        for i in range(1, n_ln + 1):
            ones(f"{prefix}.ln{i}.g", d)
            zeros(f"{prefix}.ln{i}.b", d)
        normal(f"{prefix}.ff.w1", d, ff)
        zeros(f"{prefix}.ff.b1", ff)
        normal(f"{prefix}.ff.w2", ff, d)
        zeros(f"{prefix}.ff.b2", d)

    for i in range(config.encoder_layers):
        block(f"enc.{i}", cross=False)
    ones("enc.ln_f.g", d)
    zeros("enc.ln_f.b", d)
    for i in range(config.decoder_layers):
        block(f"dec.{i}", cross=True)
    ones("dec.ln_f.g", d)
    zeros("dec.ln_f.b", d)
    return params


def parameter_count(config: ModelConfig) -> int:
    d, ff, v, m = config.d_model, config.ff_width, config.vocab_size, config.max_len
    attn = 4 * d * d + 4 * d
    ln = 2 * d
    ffp = d * ff + ff + ff * d + d
    enc_layer = attn + 2 * ln + ffp
    dec_layer = 2 * attn + 3 * ln + ffp
    return v * d + m * d + config.encoder_layers * enc_layer + config.decoder_layers * dec_layer + 2 * ln


def _check_ids(ids: np.ndarray, config: ModelConfig) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim == 1:
        ids = ids[None, :]
    if ids.shape[1] > config.max_len:
        raise ValueError(f"sequence length {ids.shape[1]} exceeds max_len {config.max_len}")
    if ids.size and (ids.min() < 0 or ids.max() >= config.vocab_size):
        raise ValueError("token id out of vocabulary range")
    return ids


def _dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    if rate <= 0.0 or rng is None:
        return x
    keep = (rng.random(x.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)
    return ad.mul(x, keep)


def _attention(params, prefix: str, q_in: Tensor, kv_in: Tensor, config: ModelConfig,
               bias: np.ndarray | None) -> Tensor:
    """Multi-head attention; `bias` is an additive mask broadcast to scores."""
    h = config.n_heads
    dh = config.d_model // h
    bq, lq = q_in.shape[0], q_in.shape[1]
    lk = kv_in.shape[1]

    def heads(x: Tensor, w: str, b: str, length: int) -> Tensor:
        proj = _linear(x, params[f"{prefix}.{w}"], params[f"{prefix}.{b}"])
        return ad.transpose(ad.reshape(proj, (bq, length, h, dh)), (0, 2, 1, 3))

    q = heads(q_in, "wq", "bq", lq)
    k = heads(kv_in, "wk", "bk", lk)
    v = heads(kv_in, "wv", "bv", lk)
    scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), float(1.0 / np.sqrt(dh)))
    if bias is not None:
        scores = ad.add(scores, bias.astype(scores.data.dtype))
    probs = ad.softmax(scores, axis=-1)
    ctx = ad.matmul(probs, v)
    merged = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (bq, lq, config.d_model))
    return _linear(merged, params[f"{prefix}.wo"], params[f"{prefix}.bo"])


def _ff(params, prefix: str, x: Tensor) -> Tensor:
    hidden = ad.gelu(_linear(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"]))
    return _linear(hidden, params[f"{prefix}.w2"], params[f"{prefix}.b2"])


def _ln(params, prefix: str, x: Tensor) -> Tensor:
    return ad.layer_norm(x, params[f"{prefix}.g"], params[f"{prefix}.b"])


def _embed_tokens(params, ids: np.ndarray) -> Tensor:
    tok = ad.gather_rows(params["tok_emb"], ids)
    pos = ad.gather_rows(params["pos_emb"], np.arange(ids.shape[1]))
    return ad.add(tok, pos)


def _pad_bias(pad_mask: np.ndarray) -> np.ndarray:
    # pad_mask: (B, L) with 1 at real tokens; bias masks padded KEYS everywhere.
    return (1.0 - pad_mask[:, None, None, :]) * NEG_INF


def _causal_bias(length: int) -> np.ndarray:
    return np.triu(np.full((length, length), NEG_INF), k=1)[None, None, :, :]


def encoder_forward(params, config: ModelConfig, ids: np.ndarray, pad_mask: np.ndarray,
                    drop_rng: np.random.Generator | None = None) -> Tensor:
    """Bidirectional encoder states (B, L, d_model); padded keys excluded."""
    bias = _pad_bias(pad_mask)
    x = _dropout(_embed_tokens(params, ids), config.dropout, drop_rng)
    for i in range(config.encoder_layers):
        p = f"enc.{i}"
        normed = _ln(params, f"{p}.ln1", x)
        attn = _attention(params, f"{p}.self", normed, normed, config, bias)
        x = ad.add(x, _dropout(attn, config.dropout, drop_rng))
        x = ad.add(x, _dropout(_ff(params, f"{p}.ff", _ln(params, f"{p}.ln2", x)), config.dropout, drop_rng))
    return _ln(params, "enc.ln_f", x)


def decoder_forward(params, config: ModelConfig, ids: np.ndarray, enc_states: Tensor,
                    enc_pad_mask: np.ndarray, drop_rng: np.random.Generator | None = None) -> Tensor:
    """Causal decoder logits (B, L, vocab) over the tied embedding matrix."""
    causal = _causal_bias(ids.shape[1])
    cross_bias = _pad_bias(enc_pad_mask)
    x = _dropout(_embed_tokens(params, ids), config.dropout, drop_rng)
    for i in range(config.decoder_layers):
        p = f"dec.{i}"
        normed = _ln(params, f"{p}.ln1", x)
        x = ad.add(x, _dropout(
            _attention(params, f"{p}.self", normed, normed, config, causal),
            config.dropout, drop_rng))
        x = ad.add(x, _dropout(
            _attention(params, f"{p}.cross", _ln(params, f"{p}.ln2", x), enc_states, config, cross_bias),
            config.dropout, drop_rng))
        x = ad.add(x, _dropout(_ff(params, f"{p}.ff", _ln(params, f"{p}.ln3", x)), config.dropout, drop_rng))
    x = _ln(params, "dec.ln_f", x)
    return _linear(x, ad.transpose(params["tok_emb"], (1, 0)))


def encode_seq(params, config: ModelConfig, ids: np.ndarray, pad_mask: np.ndarray | None = None) -> np.ndarray:
    """Encoder states for one sequence: (L, d_model), no tape."""
    ids = _check_ids(ids, config)
    if pad_mask is None:
        pad_mask = (ids != PAD).astype(np.float64)
    else:
        pad_mask = np.asarray(pad_mask, dtype=np.float64)
        if pad_mask.ndim == 1:
            pad_mask = pad_mask[None, :]
    with ad.no_grad():
        states = encoder_forward(params, config, ids, pad_mask)
    return states.data[0]


def decode_step(params, config: ModelConfig, enc_states: np.ndarray, enc_pad_mask: np.ndarray,
                prefix: np.ndarray) -> np.ndarray:
    """Next-token logits (vocab,) after the given <bos>-rooted prefix."""
    prefix = np.asarray(prefix, dtype=np.int64)
    if prefix.ndim != 1 or len(prefix) == 0:
        raise ValueError("prefix must be a non-empty 1-D id sequence")
    if prefix[0] != BOS:
        raise ValueError("prefix must begin with <bos>")
    enc = np.asarray(enc_states)
    if enc.ndim == 2:
        enc = enc[None]
    mask = np.asarray(enc_pad_mask, dtype=np.float64)
    if mask.ndim == 1:
        mask = mask[None]
    with ad.no_grad():
        logits = decoder_forward(params, config, _check_ids(prefix, config), Tensor(enc), mask)
    return logits.data[0, -1]


def batch_denoise_loss(params, config: ModelConfig, x_corrupt: np.ndarray, y: np.ndarray,
                       pad_mask: np.ndarray, drop_rng: np.random.Generator | None = None
                       ) -> tuple[Tensor, float]:
    """Mean NLL over all non-pad target tokens, plus masked-position accuracy.

    x_corrupt/y: (B, L) with shared padding; the decoder input is y shifted
    right behind <bos> (i.e. y[:, :-1]), targets are y[:, 1:].
    """
    enc_states = encoder_forward(params, config, x_corrupt, pad_mask, drop_rng)
    dec_in = y[:, :-1]
    targets = y[:, 1:]
    target_weight = pad_mask[:, 1:]
    logits = decoder_forward(params, config, dec_in, enc_states, pad_mask, drop_rng)
    loss = ad.cross_entropy(logits, targets, target_weight)

    masked = (x_corrupt[:, 1:] == MASK) & (target_weight > 0)
    if masked.any():
        pred = logits.data.argmax(axis=-1)
        masked_acc = float((pred[masked] == targets[masked]).mean())
    else:
        masked_acc = float("nan")
    return loss, masked_acc


def denoise_loss(params, config: ModelConfig, pair) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and gradients for a single CorruptedPair (teacher forcing)."""
    x = _check_ids(pair.x_corrupt, config)
    y = _check_ids(pair.y, config)
    pad_mask = np.ones_like(y, dtype=np.float64)
    for p in params.values():
        p.zero_grad()
    loss, _ = batch_denoise_loss(params, config, x, y, pad_mask)
    loss.backward()
    grads = {name: p.grad.copy() for name, p in params.items()}
    return float(loss.data), grads


def embed(params, config: ModelConfig, ids: np.ndarray) -> np.ndarray:
    """Mean of encoder states over content (non-special) positions."""
    ids = _check_ids(ids, config)[0]
    content = ~np.isin(ids, (PAD, BOS, EOS, MASK, UNK))
    if not content.any():
        raise ValueError("sequence has no content tokens to embed")
    states = encode_seq(params, config, ids)
    return states[content].mean(axis=0)


def _source_ids(source_length: int | None, config: ModelConfig) -> np.ndarray:
    """Encoder input for unconditional sampling.

    A denoiser trained with length-preserving masking copies the source
    length, so an informative unconditional source is a fully-masked sequence
    of the desired length; None falls back to the bare (<bos>, <eos>) pair.
    """
    if source_length is None:
        return np.array([BOS, EOS], dtype=np.int64)
    if source_length < 0 or source_length + 2 > config.max_len:
        raise ValueError(f"source_length {source_length} outside 0..{config.max_len - 2}")
    return np.array([BOS] + [MASK] * source_length + [EOS], dtype=np.int64)


def sample(params, config: ModelConfig, rng: np.random.Generator, max_len: int | None = None,
           temperature: float = 1.0, source_length: int | None = None) -> np.ndarray:
    """Unconditional autoregressive sample, seeded by <bos>.

    The encoder sees a fully-masked sequence of `source_length` tokens (or the
    empty pair when None); generation stops at <eos> or max_len total ids.
    temperature scales logits before sampling.
    """
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    max_len = config.max_len if max_len is None else min(max_len, config.max_len)
    enc_ids = _source_ids(source_length, config)[None, :]
    enc_mask = np.ones_like(enc_ids, dtype=np.float64)
    with ad.no_grad():
        enc_states = encoder_forward(params, config, enc_ids, enc_mask)
    prefix = [BOS]
    while len(prefix) < max_len:
        logits = decode_step(params, config, enc_states.data, enc_mask, np.asarray(prefix))
        nxt = _sample_from_logits(logits, temperature, rng)
        prefix.append(nxt)
        if nxt == EOS:
            break
    return np.asarray(prefix, dtype=np.int64)


def _sample_from_logits(logits: np.ndarray, temperature: float, rng: np.random.Generator) -> int:
    z = logits.astype(np.float64) / temperature
    z -= z.max()
    p = np.exp(z)
    p /= p.sum()
    return int(np.searchsorted(np.cumsum(p), rng.random(), side="right"))


def sample_batch(params, config: ModelConfig, rngs: list[np.random.Generator],
                 max_len: int | None = None, temperature: float = 1.0,
                 source_lengths: list[int | None] | None = None) -> list[np.ndarray]:
    """Batched equivalent of per-sequence `sample`; one rng per sequence.

    Draws one uniform per sequence per step from that sequence's own rng, so
    the result is identical to calling `sample` once per rng (with the
    matching source_length).
    """
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    max_len = config.max_len if max_len is None else min(max_len, config.max_len)
    n = len(rngs)
    if source_lengths is None:
        source_lengths = [None] * n
    sources = [_source_ids(k, config) for k in source_lengths]
    width = max(len(s) for s in sources)
    enc_ids = np.full((n, width), PAD, dtype=np.int64)
    enc_mask = np.zeros((n, width), dtype=np.float64)
    for i, s in enumerate(sources):
        enc_ids[i, : len(s)] = s
        enc_mask[i, : len(s)] = 1.0
    with ad.no_grad():
        enc_states = encoder_forward(params, config, enc_ids, enc_mask)
        rows = [[BOS] for _ in range(n)]
        alive = list(range(n))
        while alive and len(rows[alive[0]]) < max_len:
            prefix = np.asarray([rows[i] for i in alive], dtype=np.int64)
            sub = Tensor(enc_states.data[alive])
            logits = decoder_forward(params, config, prefix, sub, enc_mask[alive])
            step_logits = logits.data[:, -1]
            next_alive = []
            for row, i in enumerate(alive):
                nxt = _sample_from_logits(step_logits[row], temperature, rngs[i])
                rows[i].append(nxt)
                if nxt != EOS:
                    next_alive.append(i)
            alive = next_alive
    return [np.asarray(r, dtype=np.int64) for r in rows]
