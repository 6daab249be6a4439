"""Desk-scale encoder-decoder sequence model with a denoising objective.

Pre-layer-norm transformer blocks, learned positional embeddings shared by
encoder and decoder, tied input/output token embeddings, GELU feed-forward.
The encoder attends bidirectionally over the corrupted sequence; the decoder
runs causal self-attention plus cross-attention and is trained to reproduce
the intact sequence token by token (teacher forcing, loss over all target
positions). Sampling runs the same decoder incrementally, one token per
step, with per-layer keys/values kept in a DecoderCache; the encoder and the
cross-attention keys/values run once per distinct source, and each step draws
the next token of every live row in one array pass. `embed` encodes many
molecules per encoder call, grouped by length so that no padding is added;
under `no_grad` every encoder op is batch-invariant (`ad.linear` runs one GEMM
per sequence), so an embedding has the same bytes whether the molecule is
embedded alone or with any others. Everything is numpy +
the in-repo autodiff; float32 for training, float64 for gradient-check work.
Every projection is one fused `ad.linear` node and every attention (head
split, scores, mask, softmax, context, head merge) one `ad.attention` node, so
an attention block puts five nodes on the tape: the q/k/v projections, the
attention and the output projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .tokenizer import BOS, EOS, MASK, PAD, SPECIALS

NEG_INF = -1e9
# Token positions per encoder call in `embed`. It bounds the encoder's working
# set (at the desk config its largest arrays, the feed-forward hidden states and
# the attention scores, take at most 2 MB each); rows being batch-invariant, it
# changes no output.
EMBED_CHUNK_POSITIONS = 1024


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


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in creation order.

    The one spec of the parameter set: `init_model` draws in this order, and a
    checkpoint must hold exactly these tensors (`training.load_model`).
    """
    d, ff = config.d_model, config.ff_width
    shapes = {"tok_emb": (config.vocab_size, d), "pos_emb": (config.max_len, d)}

    def block(prefix: str, cross: bool) -> None:
        for part in (["self"] + (["cross"] if cross else [])):
            for w in ("wq", "wk", "wv", "wo"):
                shapes[f"{prefix}.{part}.{w}"] = (d, d)
            for b in ("bq", "bk", "bv", "bo"):
                shapes[f"{prefix}.{part}.{b}"] = (d,)
        for i in range(1, (3 if cross else 2) + 1):
            shapes[f"{prefix}.ln{i}.g"] = (d,)
            shapes[f"{prefix}.ln{i}.b"] = (d,)
        shapes[f"{prefix}.ff.w1"] = (d, ff)
        shapes[f"{prefix}.ff.b1"] = (ff,)
        shapes[f"{prefix}.ff.w2"] = (ff, d)
        shapes[f"{prefix}.ff.b2"] = (d,)

    for i in range(config.encoder_layers):
        block(f"enc.{i}", cross=False)
    shapes["enc.ln_f.g"] = (d,)
    shapes["enc.ln_f.b"] = (d,)
    for i in range(config.decoder_layers):
        block(f"dec.{i}", cross=True)
    shapes["dec.ln_f.g"] = (d,)
    shapes["dec.ln_f.b"] = (d,)
    return shapes


def init_model(config: ModelConfig, rng: np.random.Generator, dtype=np.float32) -> dict[str, Tensor]:
    """Fresh parameters: unit layer-norm gains (`.g`), zero biases (`.b*`), N(0, 0.02) the rest.

    The draws follow `param_shapes`' fixed order, so a given seed always yields
    the same tensors.
    """
    config.validate()
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(config).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "g":
            data = np.ones(shape, dtype=dtype)
        elif leaf.startswith("b"):
            data = np.zeros(shape, dtype=dtype)
        else:
            data = rng.normal(0.0, 0.02, shape).astype(dtype)
        params[name] = Tensor(data, requires_grad=True)
    return params


def _content(ids: np.ndarray) -> np.ndarray:
    """Mask of an id vector's content positions: ids 0-4 are the five specials."""
    return ids >= len(SPECIALS)


def check_embed_ids(ids, config: ModelConfig) -> np.ndarray:
    """One molecule's id vector as int64, or the ValueError `embed` would reject it with."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ValueError(f"expected one id vector per molecule, got shape {ids.shape}")
    if len(ids) > config.max_len:
        raise ValueError(f"sequence length {len(ids)} exceeds max_len {config.max_len}")
    if ids.size and (ids.min() < 0 or ids.max() >= config.vocab_size):
        raise ValueError("token id out of vocabulary range")
    if not _content(ids).any():
        raise ValueError("sequence has no content tokens to embed")
    return ids


def _dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    if rate <= 0.0 or rng is None:
        return x
    keep = (rng.random(x.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)
    return ad.mul(x, keep)


def _dense(params, prefix: str, x: Tensor, name: str) -> Tensor:
    """x through the `{prefix}.w{name}` weight and `{prefix}.b{name}` bias."""
    return ad.linear(x, params[f"{prefix}.w{name}"], params[f"{prefix}.b{name}"])


def _attention(params, prefix: str, q_in: Tensor, k: Tensor, v: Tensor, config: ModelConfig,
               bias: np.ndarray) -> Tensor:
    """Multi-head attention of q_in over projected keys/values (B, Lk, d), fresh or cached.

    `bias` is an additive mask broadcast to the scores (B, h, Lq, Lk).
    """
    ctx = ad.attention(_dense(params, prefix, q_in, "q"), k, v, bias, config.n_heads)
    return _dense(params, prefix, ctx, "o")


def _ff(params, prefix: str, x: Tensor) -> Tensor:
    return _dense(params, prefix, ad.gelu(_dense(params, prefix, x, "1")), "2")


def _ln(params, prefix: str, x: Tensor) -> Tensor:
    return ad.layer_norm(x, params[f"{prefix}.g"], params[f"{prefix}.b"])


def _embed_tokens(params, ids: np.ndarray, offset: int = 0) -> Tensor:
    tok = ad.gather_rows(params["tok_emb"], ids)
    pos = ad.gather_rows(params["pos_emb"], np.arange(offset, offset + ids.shape[1]))
    return ad.add(tok, pos)


def _pad_bias(pad_mask: np.ndarray) -> np.ndarray:
    # pad_mask: (B, L) with 1 at real tokens; bias masks padded KEYS everywhere.
    return (1.0 - pad_mask[:, None, None, :]) * NEG_INF


def _causal_bias(length: int, offset: int = 0) -> np.ndarray:
    """Queries at positions offset..offset+length see keys at positions up to their own."""
    return np.triu(np.full((length, offset + length), NEG_INF), k=offset + 1)[None, None, :, :]


class DecoderCache:
    """Incremental-decoding state that `decoder_forward` reads and extends.

    Per decoder layer it holds the self-attention keys/values (B, L, d) of the
    `offset` positions decoded so far, in buffers preallocated to the model's
    max_len, and the cross-attention keys/values of the encoder states
    (projected once, on the first call), plus the encoder pad bias.
    `rows`, when given, maps each batch row to its row of the encoder states,
    so rows that share a source share one encoding: the cross keys/values and
    the pad bias are projected from the distinct states and gathered to the
    batch rows once, when first computed. Keys/values read back from the
    cache and gathered ones are detached, so a cache serves inference under
    `no_grad`; training calls `decoder_forward` without one, so gradients
    reach every projection.
    """

    def __init__(self, rows: np.ndarray | None = None):
        self.rows = rows
        self.offset = 0
        self.self_kv: list[tuple[np.ndarray, np.ndarray]] = []
        self.cross_kv: list[tuple[Tensor, Tensor]] = []
        self.cross_bias: np.ndarray | None = None

    def extend(self, layer: int, k: Tensor, v: Tensor, max_len: int) -> tuple[Tensor, Tensor]:
        """Write `layer`'s new self-attention keys/values at `offset`; return those of every position."""
        if layer == len(self.self_kv):
            self.self_kv.append(tuple(np.empty((k.shape[0], max_len, k.shape[2]), k.dtype) for _ in range(2)))
        end = self.offset + k.shape[1]
        for buf, new in zip(self.self_kv[layer], (k, v)):
            buf[:, self.offset:end] = new.data
        return tuple(Tensor(buf[:, :end]) for buf in self.self_kv[layer])

    def add_cross(self, k: Tensor, v: Tensor, pad_mask: np.ndarray) -> None:
        """Keep the next layer's cross-attention keys/values (and, once, the pad bias) at the batch rows."""
        if self.rows is not None:
            k, v, pad_mask = Tensor(k.data[self.rows]), Tensor(v.data[self.rows]), pad_mask[self.rows]
        self.cross_kv.append((k, v))
        if self.cross_bias is None:
            self.cross_bias = _pad_bias(pad_mask)

    def keep(self, rows: np.ndarray) -> None:
        """Keep only batch rows `rows`, in that order, e.g. to drop finished samples."""
        n = len(rows)
        for kv in self.self_kv:
            for buf in kv:
                buf[:n, :self.offset] = buf[rows, :self.offset]
        self.self_kv = [(k[:n], v[:n]) for k, v in self.self_kv]
        self.cross_kv = [(Tensor(k.data[rows]), Tensor(v.data[rows])) for k, v in self.cross_kv]
        self.cross_bias = self.cross_bias[rows]


def encoder_forward(params, config: ModelConfig, ids: np.ndarray, pad_mask: np.ndarray,
                    drop_rng: np.random.Generator | None = None) -> Tensor:
    """Bidirectional encoder states (B, L, d_model); padded keys excluded."""
    bias = _pad_bias(pad_mask)
    x = _dropout(_embed_tokens(params, ids), config.dropout, drop_rng)
    for i in range(config.encoder_layers):
        p = f"enc.{i}"
        normed = _ln(params, f"{p}.ln1", x)
        attn = _attention(params, f"{p}.self", normed, _dense(params, f"{p}.self", normed, "k"),
                          _dense(params, f"{p}.self", normed, "v"), config, bias)
        x = ad.add(x, _dropout(attn, config.dropout, drop_rng))
        x = ad.add(x, _dropout(_ff(params, f"{p}.ff", _ln(params, f"{p}.ln2", x)), config.dropout, drop_rng))
    return _ln(params, "enc.ln_f", x)


def decoder_forward(params, config: ModelConfig, ids: np.ndarray, enc_states: Tensor,
                    enc_pad_mask: np.ndarray, drop_rng: np.random.Generator | None = None,
                    cache: DecoderCache | None = None) -> Tensor:
    """Causal decoder logits (B, L, vocab) over the tied embedding matrix.

    `ids` holds the new tokens, at positions cache.offset onward (0 for a
    fresh cache, which is made when `cache` is None: the whole prefix in one
    call, as in training). Every self-attention layer writes its keys/values
    into a caller's cache (one made here dies with the call, so it keeps
    none), and the cross-attention keys/values and pad bias of
    `enc_states`/`enc_pad_mask` are computed on the cache's first call and
    reused (not re-read) after; a cache with a row map gathers them from the
    distinct sources in `enc_states` to its batch rows.
    """
    keep_kv = cache is not None
    cache = DecoderCache() if cache is None else cache
    causal = _causal_bias(ids.shape[1], cache.offset)
    x = _dropout(_embed_tokens(params, ids, cache.offset), config.dropout, drop_rng)
    for i in range(config.decoder_layers):
        p = f"dec.{i}"
        s, c = f"{p}.self", f"{p}.cross"
        normed = _ln(params, f"{p}.ln1", x)
        k, v = _dense(params, s, normed, "k"), _dense(params, s, normed, "v")
        if keep_kv:
            k, v = cache.extend(i, k, v, config.max_len)
        if i == len(cache.cross_kv):
            cache.add_cross(_dense(params, c, enc_states, "k"), _dense(params, c, enc_states, "v"),
                            enc_pad_mask)
        x = ad.add(x, _dropout(_attention(params, s, normed, k, v, config, causal), config.dropout, drop_rng))
        x = ad.add(x, _dropout(
            _attention(params, c, _ln(params, f"{p}.ln2", x), *cache.cross_kv[i], config, cache.cross_bias),
            config.dropout, drop_rng))
        x = ad.add(x, _dropout(_ff(params, f"{p}.ff", _ln(params, f"{p}.ln3", x)), config.dropout, drop_rng))
    cache.offset += ids.shape[1]
    x = _ln(params, "dec.ln_f", x)
    return ad.linear(x, ad.transpose(params["tok_emb"], (1, 0)))


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


def embed(params, config: ModelConfig, ids_list) -> np.ndarray:
    """Embeddings (n, d_model) of n molecules' id vectors: each the mean of its content states.

    Every row is checked first (`check_embed_ids`), so one bad row raises
    before any encoding. Rows of equal length are then encoded together,
    without padding, in chunks of at most EMBED_CHUNK_POSITIONS token
    positions. Under `no_grad` each encoder op is batch-invariant, so a row's
    embedding has the same bits in any batch, alone included.
    """
    rows = [check_embed_ids(ids, config) for ids in ids_list]
    out = np.empty((len(rows), config.d_model), dtype=params["tok_emb"].data.dtype)
    lengths = np.array([len(ids) for ids in rows], dtype=np.int64)
    with ad.no_grad():
        for length in np.unique(lengths):
            group = np.flatnonzero(lengths == length)
            step = max(1, EMBED_CHUNK_POSITIONS // int(length))
            for start in range(0, len(group), step):
                chunk = group[start:start + step]
                ids = np.stack([rows[i] for i in chunk])
                states = encoder_forward(params, config, ids, (ids != PAD).astype(np.float64)).data
                for state, i in zip(states, chunk):
                    out[i] = state[_content(rows[i])].mean(axis=0)
    return out


def _source_ids(source_length: int, config: ModelConfig) -> np.ndarray:
    """Encoder input for unconditional sampling.

    A denoiser trained with length-preserving masking copies the source
    length, so an informative unconditional source is a fully-masked sequence
    of the desired length.
    """
    if source_length < 0 or source_length + 2 > config.max_len:
        raise ValueError(f"source_length {source_length} outside 0..{config.max_len - 2}")
    return np.array([BOS] + [MASK] * source_length + [EOS], dtype=np.int64)


def _sample_rows(logits: np.ndarray, temperature: float, rngs: list[np.random.Generator]) -> np.ndarray:
    """One id per row of `logits` (R, V): a float64 softmax at `temperature`, then `_draw`.

    The row maximum comes off before the division, so a tiny temperature sends
    every other logit to -inf (probability 0), never to inf - inf = nan.
    """
    z = logits.astype(np.float64)
    z -= z.max(axis=-1, keepdims=True)
    with np.errstate(over="ignore"):  # a gap over T overflowing to -inf is probability 0
        z /= temperature
    p = np.exp(z)
    p /= p.sum(axis=-1, keepdims=True)
    return _draw(p, rngs)


def _draw(p: np.ndarray, rngs: list[np.random.Generator]) -> np.ndarray:
    """Index i of each row r of p (R, V) with probability p[r, i], by inverse CDF.

    Row r takes one uniform from `rngs[r]`. The float cumulative sum can end
    below 1, so a uniform at or above a row's last value falls back to the
    row's last index with positive mass, never V.
    """
    u = np.array([rng.random() for rng in rngs])
    idx = (np.cumsum(p, axis=-1) <= u[:, None]).sum(axis=-1)
    over = idx == p.shape[-1]
    if over.any():
        idx[over] = p.shape[-1] - 1 - (p[over, ::-1] > 0).argmax(axis=-1)
    return idx


def sample_batch(params, config: ModelConfig, rngs: list[np.random.Generator], source_lengths: list[int],
                 max_len: int | None = None, temperature: float = 1.0) -> list[np.ndarray]:
    """Unconditional autoregressive samples, seeded by <bos>; one rng per sequence.

    Sequence i's encoder sees a fully-masked source of `source_lengths[i]`
    tokens; generation stops at <eos> or max_len total ids, and temperature
    scales logits before sampling. Each step draws one uniform per sequence
    from that sequence's own rng, so a sequence comes out the same in any
    batch, alone included.

    Rows with equal sources have equal encoder states, so the encoder runs
    once per distinct source (at the batch's padded width), and the decoder's
    cross-attention keys/values are projected from those states and gathered
    to the batch rows once. Decode steps run at full batch width, and each
    step samples every live row in one array pass.
    """
    if not (math.isfinite(temperature) and temperature > 0):
        raise ValueError(f"temperature must be finite and > 0, got {temperature}")
    max_len = config.max_len if max_len is None else min(max_len, config.max_len)
    if max_len < 2:
        raise ValueError(f"max_len must be >= 2 (<bos> and one sampled token), got {max_len}")
    n = len(rngs)
    sources = [_source_ids(k, config) for k in source_lengths]
    width = max(len(s) for s in sources)
    enc_ids = np.full((n, width), PAD, dtype=np.int64)
    for i, s in enumerate(sources):
        enc_ids[i, : len(s)] = s
    distinct, inverse = np.unique(enc_ids, axis=0, return_inverse=True)
    distinct_mask = (distinct != PAD).astype(np.float64)
    ids = np.full((n, max_len), BOS, dtype=np.int64)
    lengths = np.full(n, max_len)
    with ad.no_grad():
        enc_states = encoder_forward(params, config, distinct, distinct_mask)
        cache = DecoderCache(rows=inverse.reshape(-1))  # numpy 2.0.0 returns the inverse as (n, 1)
        alive = np.arange(n)
        for t in range(1, max_len):
            logits = decoder_forward(params, config, ids[alive, t - 1 : t], enc_states, distinct_mask,
                                     cache=cache)
            ids[alive, t] = nxt = _sample_rows(logits.data[:, -1], temperature, [rngs[i] for i in alive])
            done = nxt == EOS
            if done.any():
                lengths[alive[done]] = t + 1
                alive = alive[~done]
                if not alive.size:
                    break
                cache.keep(np.flatnonzero(~done))
    return [ids[i, :k].copy() for i, k in enumerate(lengths)]
