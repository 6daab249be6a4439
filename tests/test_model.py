"""Model contracts: shapes, masking, causality, losses, sampling, gradients."""

import math
from collections import Counter

import numpy as np
import pytest

from moldae import autodiff as ad
from moldae import model
from moldae.autodiff import Tensor
from moldae.model import (
    DecoderCache, ModelConfig, ModelConfigError, _sample_rows, batch_denoise_loss,
    embed, encoder_forward, decoder_forward, init_model, sample_batch,
)
from moldae.tokenizer import BOS, EOS, MASK, PAD, CorruptedPair

TOY = ModelConfig(vocab_size=11, d_model=8, n_heads=2, encoder_layers=1,
                  decoder_layers=1, ff_width=12, max_len=12)


def toy_params(seed=0, dtype=np.float64):
    return init_model(TOY, np.random.default_rng(seed), dtype=dtype)


def encode(params, config, ids):
    """Encoder states (L, d_model) of one unpadded sequence, no tape."""
    with ad.no_grad():
        return encoder_forward(params, config, np.asarray(ids)[None], np.ones((1, len(ids)))).data[0]


def greedy(params, enc, mask, max_len=TOY.max_len):
    """Argmax decoding from <bos> until <eos> or max_len ids, one full decoder pass per step."""
    prefix = [BOS]
    with ad.no_grad():
        while len(prefix) < max_len:
            logits = decoder_forward(params, TOY, np.array([prefix]), Tensor(enc[None]), mask[None]).data
            prefix.append(int(logits[0, -1].argmax()))
            if prefix[-1] == EOS:
                break
    return prefix


def sample_one(params, rng, source_length=0, **kwargs):
    return sample_batch(params, TOY, [rng], [source_length], **kwargs)[0]


def test_init_deterministic():
    a = toy_params(3)
    b = toy_params(3)
    assert all(np.array_equal(a[k].data, b[k].data) for k in a)
    c = toy_params(4)
    assert any(not np.array_equal(a[k].data, c[k].data) for k in a)


def test_config_validation():
    with pytest.raises(ModelConfigError):
        ModelConfig(vocab_size=50, d_model=8, n_heads=3).validate()
    with pytest.raises(ModelConfigError):
        ModelConfig(vocab_size=50, max_len=2).validate()
    with pytest.raises(ModelConfigError):
        ModelConfig(vocab_size=3).validate()


def test_parameter_count_matches_hand_formula():
    config = ModelConfig(vocab_size=50, d_model=32, n_heads=4, encoder_layers=2,
                         decoder_layers=2, ff_width=64, max_len=16)
    params = init_model(config, np.random.default_rng(0))
    actual = sum(int(np.prod(p.data.shape)) for p in params.values())
    # Independent closed form: embeddings + per-layer attention/FF/LN + final LNs.
    d, ff, v, m = 32, 64, 50, 16
    attention = 4 * d * d + 4 * d          # wq wk wv wo + biases
    layer_norm = 2 * d                     # gain + bias
    feed_forward = d * ff + ff + ff * d + d
    encoder = 2 * (attention + 2 * layer_norm + feed_forward)
    decoder = 2 * (2 * attention + 3 * layer_norm + feed_forward)
    expected = v * d + m * d + encoder + decoder + 2 * layer_norm
    assert actual == expected


def test_encoder_output_shape_and_finite():
    params = toy_params()
    for length in (1, 5, 12):
        ids = np.arange(length) % TOY.vocab_size
        states = encode(params, TOY, ids)
        assert states.shape == (length, TOY.d_model)
        assert np.isfinite(states).all()


def test_encoder_rejects_bad_input():
    params = toy_params()
    good = np.array([BOS, 5, EOS])
    with pytest.raises(ValueError, match="sequence length 13 exceeds max_len 12"):
        embed(params, TOY, [good, np.arange(13)])
    with pytest.raises(ValueError, match="token id out of vocabulary range"):
        embed(params, TOY, [np.array([0, 99]), good])
    with pytest.raises(ValueError, match="one id vector per molecule"):
        embed(params, TOY, [good[None]])


def test_pad_positions_do_not_leak():
    params = toy_params()
    ids_a = np.array([[BOS, 5, 6, EOS, 0, 0]])
    ids_b = np.array([[BOS, 5, 6, EOS, 7, 9]])  # different pad-region content
    mask = np.array([[1.0, 1.0, 1.0, 1.0, 0.0, 0.0]])
    with ad.no_grad():
        out_a = encoder_forward(params, TOY, ids_a, mask).data
        out_b = encoder_forward(params, TOY, ids_b, mask).data
    assert np.array_equal(out_a[0, :4], out_b[0, :4])


def test_single_token_forward_matches_hand_computation():
    """1-layer/1-head d_model=2 encoder on one token, scalar math throughout."""
    config = ModelConfig(vocab_size=6, d_model=2, n_heads=1, encoder_layers=1,
                         decoder_layers=1, ff_width=2, max_len=4)
    params = init_model(config, np.random.default_rng(0), dtype=np.float64)

    def put(name, values):
        params[name].data[...] = np.asarray(values, dtype=np.float64)

    put("tok_emb", [[0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [3.0, 1.0]])
    put("pos_emb", [[0, 0]] * 4)
    put("enc.0.ln1.g", [1.0, 1.0]); put("enc.0.ln1.b", [0.0, 0.0])
    put("enc.0.self.wq", [[1, 0], [0, 1]]); put("enc.0.self.bq", [0, 0])
    put("enc.0.self.wk", [[1, 0], [0, 1]]); put("enc.0.self.bk", [0, 0])
    put("enc.0.self.wv", [[0.5, 0], [0, 0.5]]); put("enc.0.self.bv", [0.1, -0.1])
    put("enc.0.self.wo", [[1, 0], [0, 1]]); put("enc.0.self.bo", [0, 0])
    put("enc.0.ln2.g", [1.0, 1.0]); put("enc.0.ln2.b", [0.0, 0.0])
    put("enc.0.ff.w1", [[1.0, 0.5], [-0.5, 1.0]]); put("enc.0.ff.b1", [0.0, 0.25])
    put("enc.0.ff.w2", [[1.0, 0.0], [0.5, 1.0]]); put("enc.0.ff.b2", [0.0, 0.0])
    put("enc.ln_f.g", [2.0, 1.0]); put("enc.ln_f.b", [0.5, -0.5])

    def ln2d(a, b):
        mu = (a + b) / 2.0
        var = ((a - mu) ** 2 + (b - mu) ** 2) / 2.0
        inv = 1.0 / math.sqrt(var + 1e-5)
        return (a - mu) * inv, (b - mu) * inv

    def gelu1(z):
        c = math.sqrt(2.0 / math.pi)
        return 0.5 * z * (1.0 + math.tanh(c * (z + 0.044715 * z ** 3)))

    # embedding: x = (3, 1)
    x = (3.0, 1.0)
    # attention over a single position is the value projection of ln(x)
    h = ln2d(*x)
    v = (0.5 * h[0] + 0.1, 0.5 * h[1] - 0.1)
    x = (x[0] + v[0], x[1] + v[1])
    # feed-forward: ln, affine, gelu, affine, residual
    h = ln2d(*x)
    z = (h[0] * 1.0 + h[1] * -0.5, h[0] * 0.5 + h[1] * 1.0 + 0.25)
    g = (gelu1(z[0]), gelu1(z[1]))
    f = (g[0] * 1.0 + g[1] * 0.5, g[1] * 1.0)
    x = (x[0] + f[0], x[1] + f[1])
    # final layer norm with affine (2, 1) / (0.5, -0.5)
    h = ln2d(*x)
    expected = (2.0 * h[0] + 0.5, 1.0 * h[1] - 0.5)

    states = encode(params, config, np.array([5]))
    assert states.shape == (1, 2)
    assert abs(states[0, 0] - expected[0]) < 1e-12
    assert abs(states[0, 1] - expected[1]) < 1e-12


def test_decoder_causality():
    """Extending the prefix never changes logits at earlier positions."""
    params = toy_params()
    src = np.array([[BOS, 5, 6, EOS]])
    src_mask = np.ones((1, 4))
    with ad.no_grad():
        enc = encoder_forward(params, TOY, src, src_mask)
        full = decoder_forward(params, TOY, np.array([[BOS, 5, 7, 8, 6]]), enc, src_mask).data
        for t in (1, 2, 3, 4):
            trunc = decoder_forward(params, TOY, np.array([[BOS, 5, 7, 8, 6]])[:, :t], enc, src_mask).data
            assert np.allclose(trunc[0, -1], full[0, t - 1], atol=1e-12)


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_cached_decoding_matches_full_prefix(dtype, tol):
    """Token-by-token logits through a DecoderCache equal a full-prefix pass.

    Padded batch with mixed source lengths; the first call feeds three
    tokens, later calls one or two; rows are dropped mid-sequence.
    """
    params = toy_params(4, dtype=dtype)
    for name, p in params.items():
        if ".ln" not in name:
            p.data *= 10  # sharper attention than the N(0, 0.02) init
    rng = np.random.default_rng(5)
    lengths = [3, 7, 5, 2]
    src = np.full((4, 9), PAD)
    src_mask = np.zeros((4, 9))
    for i, k in enumerate(lengths):
        src[i, : k + 2] = [BOS] + list(rng.integers(5, TOY.vocab_size, size=k)) + [EOS]
        src_mask[i, : k + 2] = 1.0
    tokens = np.column_stack([np.full(4, BOS), rng.integers(5, TOY.vocab_size, size=(4, 9))])
    alive = np.arange(4)
    drops = {4: [1], 7: [0, 3]}  # step offset -> rows that finish there
    cache = DecoderCache()
    with ad.no_grad():
        enc = encoder_forward(params, TOY, src, src_mask)
        for lo, hi in [(0, 3), (3, 4), (4, 6), (6, 7), (7, 8), (8, 10)]:
            for row in drops.get(lo, []):
                cache.keep(list(np.flatnonzero(alive != row)))
                alive = alive[alive != row]
            step = decoder_forward(params, TOY, tokens[alive, lo:hi], enc, src_mask, cache=cache).data
            full = decoder_forward(params, TOY, tokens[alive, :hi], Tensor(enc.data[alive]),
                                   src_mask[alive]).data
            assert step.dtype == dtype and step.shape == (len(alive), hi - lo, TOY.vocab_size)
            assert np.abs(step - full[:, lo:]).max() <= tol
            assert np.abs(full).max() > 1.0  # the comparison is not between near-zero logits
    assert cache.offset == 10 and list(alive) == [2]


def test_greedy_chain_matches_teacher_forced_argmax():
    params = toy_params(7)
    ids = np.array([BOS, 5, 6, 7, EOS])
    enc = encode(params, TOY, ids)
    mask = np.ones(len(ids))
    prefix = greedy(params, enc, mask, max_len=7)
    with ad.no_grad():
        all_logits = decoder_forward(params, TOY, np.array([prefix[:-1]]), Tensor(enc[None]),
                                     mask[None]).data[0]
    teacher = [int(v.argmax()) for v in all_logits]
    assert teacher == prefix[1:]


def test_loss_floor_uniform_softmax(denoise_loss):
    params = toy_params(1, dtype=np.float64)
    params["tok_emb"].data[...] = 0.0  # tied output projection zeroed
    y = np.array([BOS, 5, 6, 7, EOS])
    pair = CorruptedPair(y.copy(), y, ())
    loss, _ = denoise_loss(params, TOY, pair)
    assert abs(loss - math.log(TOY.vocab_size)) < 1e-6


def test_denoise_loss_gradients_match_finite_differences(denoise_loss):
    params = toy_params(2, dtype=np.float64)
    y = np.array([BOS, 5, 6, 7, 8, EOS])
    x = y.copy()
    x[2] = MASK
    pair = CorruptedPair(x, y, (2,))
    loss0, grads = denoise_loss(params, TOY, pair)
    rng = np.random.default_rng(0)
    eps = 1e-5
    for name, p in params.items():
        flat = p.data.reshape(-1)
        gflat = grads[name].reshape(-1)
        for j in rng.choice(flat.size, size=min(4, flat.size), replace=False):
            orig = flat[j]
            flat[j] = orig + eps
            up, _ = denoise_loss(params, TOY, pair)
            flat[j] = orig - eps
            dn, _ = denoise_loss(params, TOY, pair)
            flat[j] = orig
            fd = (up - dn) / (2 * eps)
            denom = max(abs(fd), abs(gflat[j]), 1e-6)
            assert abs(gflat[j] - fd) / denom < 1e-4, (name, j)


def test_attention_block_is_five_tape_nodes():
    """One batch_denoise_loss on TOY puts 5 nodes per attention block on the tape.

    q/k/v projections, attention and output projection: every projection is
    one `linear` node and every attention one `attention` node. TOY has three
    attention blocks (encoder self, decoder self and cross). A float32 graph
    stays float32 in every value and gradient. The tape is walked before
    backward(), which frees it; the gradients are checked where they end,
    on the parameters.
    """
    params = toy_params(dtype=np.float32)
    y = np.array([[BOS, 5, 6, 7, EOS]])
    loss, _ = batch_denoise_loss(params, TOY, y.copy(), y, np.ones(y.shape))
    ops, seen, stack = Counter(), set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            assert node.data.dtype == np.float32
            if node._backward is not None:
                ops[node._backward.__qualname__.split(".")[0]] += 1
            stack.extend(node._parents)
    loss.backward()
    assert all(p.grad.dtype == np.float32 for p in params.values())
    # linear: 3 blocks x (q, k, v, output) + 2 feed-forward layers x 2 + the tied output projection.
    assert ops == {"attention": 3, "linear": 17, "layer_norm": 7, "gelu": 2, "add": 7,
                   "gather_rows": 4, "transpose": 1, "cross_entropy": 1}


def test_overfit_single_example():
    """200 full-batch steps on one pair drive the loss toward zero."""
    from moldae.training import Adam, TrainSettings

    params = toy_params(5, dtype=np.float64)
    y = np.array([[BOS, 5, 6, 7, EOS]])
    x = y.copy()
    x[0, 2] = MASK
    mask = np.ones_like(y, dtype=np.float64)
    optimizer = Adam(params, TrainSettings(peak_lr=1e-2))
    losses = []
    for _ in range(200):
        for p in params.values():
            p.zero_grad()
        loss, _ = batch_denoise_loss(params, TOY, x, y, mask)
        loss.backward()
        optimizer.step(params, 1e-2)
        losses.append(float(loss.data))
    assert losses[-1] < 0.05
    assert losses[-1] < 0.05 * losses[0]


def test_embed_is_mean_of_content_states():
    params = toy_params()
    ids = np.array([BOS, 5, 6, 7, EOS])
    (vec,) = embed(params, TOY, [ids])
    states = encode(params, TOY, ids)
    assert np.allclose(vec, states[1:4].mean(axis=0), atol=1e-12)
    assert vec.shape == (TOY.d_model,)
    (single,) = embed(params, TOY, [np.array([BOS, 5, EOS])])
    assert np.allclose(single, encode(params, TOY, np.array([BOS, 5, EOS]))[1], atol=1e-12)
    with pytest.raises(ValueError, match="no content tokens"):
        embed(params, TOY, [np.array([BOS, EOS])])
    assert np.array_equal(embed(params, TOY, [ids, np.array([BOS, 5, EOS]), ids]), np.stack([vec, single, vec]))
    assert embed(params, TOY, []).shape == (0, TOY.d_model)


def test_sample_deterministic_and_temperature_limit():
    params = toy_params(9)
    a = sample_one(params, np.random.default_rng(11), temperature=1.0)
    b = sample_one(params, np.random.default_rng(11), temperature=1.0)
    assert np.array_equal(a, b)
    assert a[0] == BOS
    with pytest.raises(ValueError):
        sample_one(params, np.random.default_rng(0), temperature=0.0)
    # temperature -> 0 approaches greedy argmax decoding
    cold = sample_one(params, np.random.default_rng(3), temperature=1e-9)
    ids = np.array([BOS, EOS])
    assert np.array_equal(cold, np.array(greedy(params, encode(params, TOY, ids), np.ones(2))))


@pytest.mark.parametrize("temperature", [1e-300, 5e-324])
def test_tiny_temperature_is_greedy_decoding(temperature):
    """At a tiny T every logit below the row's maximum scales to -inf, so each
    draw is the argmax. At 5e-324, the least positive float, a logit divided by
    T overflows, so the maximum must come off before the division (inf - inf
    is nan)."""
    params = toy_params(9)
    for source_length in (0, 3):
        source = np.array([BOS] + [MASK] * source_length + [EOS])
        expected = greedy(params, encode(params, TOY, source), np.ones(len(source)))
        samples = sample_batch(params, TOY, [np.random.default_rng(s) for s in range(4)],
                               temperature=temperature, source_lengths=[source_length] * 4)
        assert [s.tolist() for s in samples] == [expected] * 4


class FixedUniform:
    """Stub rng whose every uniform is `u`."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def sample_reference(logits, temperature, rng):
    """One row's draw by the per-row loop `_sample_rows` replaced: its bit-for-bit oracle."""
    z = logits.astype(np.float64) / temperature
    z -= z.max()
    p = np.exp(z)
    p /= p.sum()
    i = int(np.searchsorted(np.cumsum(p), rng.random(), side="right"))
    return i if i < len(p) else int(np.flatnonzero(p)[-1])


def test_sample_rows_top_uniform_stays_in_vocabulary():
    """A uniform at or above the float cumsum's last value picks the last index with mass."""
    rng = np.random.default_rng(0)
    top = [FixedUniform(np.nextafter(1.0, 0.0))] * 200
    logits = rng.normal(size=(200, TOY.vocab_size)) * 3
    assert (_sample_rows(logits, 1.0, top) == TOY.vocab_size - 1).all()
    logits[:, -3:] = -2000.0  # exp underflows to zero mass
    assert (_sample_rows(logits, 1.0, top) == TOY.vocab_size - 4).all()
    # Every draw below the cumsum's last value is plain inverse-CDF sampling.
    p = np.exp(logits - logits.max(axis=-1, keepdims=True))
    cdf = np.cumsum(p / p.sum(axis=-1, keepdims=True), axis=-1)
    u = rng.random(200) * cdf[:, -1]
    expected = [np.searchsorted(c, x, side="right") for c, x in zip(cdf, u)]
    assert _sample_rows(logits, 1.0, [FixedUniform(x) for x in u]).tolist() == expected


@pytest.mark.parametrize("vocab", [7, 11, 40, 1000])
def test_sample_rows_equals_per_row_reference(vocab):
    """The one-pass draw over all rows equals the per-row loop bit for bit, uniform for uniform."""
    rng = np.random.default_rng(vocab)
    for temperature in (1e-3, 0.3, 1.0, 2.5):
        logits = (rng.normal(size=(64, vocab)) * rng.uniform(0.1, 20, size=(64, 1))).astype(np.float32)
        for row in range(0, 64, 5):
            logits[row, -rng.integers(1, vocab):] = -1e4  # a zero-mass tail
        seeds = rng.integers(0, 2**32, size=64)
        rows = [np.random.default_rng(s) for s in seeds]
        rows[::7] = [FixedUniform(np.nextafter(1.0, 0.0))] * len(rows[::7])
        twins = [np.random.default_rng(s) for s in seeds]
        twins[::7] = rows[::7]
        expected = [sample_reference(row, temperature, r) for row, r in zip(logits, twins)]
        assert _sample_rows(logits, temperature, rows).tolist() == expected, temperature


def test_sample_respects_max_len():
    params = toy_params(21)
    for _ in range(5):
        ids = sample_one(params, np.random.default_rng(_), max_len=6)
        assert len(ids) <= 6
        assert ids[0] == BOS
        if len(ids) < 6:
            assert ids[-1] == EOS


def test_sample_batch_rejects_max_len_below_2():
    params = toy_params(21)
    for max_len in (1, 0, -3):
        with pytest.raises(ValueError, match="max_len must be >= 2"):
            sample_batch(params, TOY, [np.random.default_rng(0)], [0], max_len=max_len)
    (ids,) = sample_batch(params, TOY, [np.random.default_rng(0)], [0], max_len=2)
    assert len(ids) == 2 and ids[0] == BOS


def test_sample_batch_equals_sequential():
    params = toy_params(13)
    seeds = np.random.SeedSequence(77).spawn(6)
    sequential = [sample_one(params, np.random.default_rng(s), temperature=1.0) for s in seeds]
    batched = sample_batch(params, TOY, [np.random.default_rng(s) for s in seeds], [0] * 6, temperature=1.0)
    assert len(batched) == 6
    for a, b in zip(sequential, batched):
        assert np.array_equal(a, b)


def test_sample_batch_equals_sequential_with_sources():
    params = toy_params(13)
    seeds = np.random.SeedSequence(78).spawn(5)
    lengths = [1, 4, 2, 7, 3]
    sequential = [
        sample_one(params, np.random.default_rng(s), temperature=0.8, source_length=k)
        for s, k in zip(seeds, lengths)
    ]
    batched = sample_batch(params, TOY, [np.random.default_rng(s) for s in seeds],
                           temperature=0.8, source_lengths=lengths)
    for a, b in zip(sequential, batched):
        assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        sample_one(params, np.random.default_rng(0), source_length=TOY.max_len)


@pytest.mark.parametrize("lengths", [[3, 3, 5, 3, 0, 5, 0], [0] * 5])
def test_sample_batch_with_shared_sources_equals_sequential(lengths):
    params = toy_params(13, dtype=np.float32)
    for p in params.values():
        p.data *= 10  # weights at N(0, 0.2): every seed's sample depends on its source length
    seeds = np.random.SeedSequence(79).spawn(len(lengths))
    for s in seeds:
        by_source = {tuple(sample_one(params, np.random.default_rng(s), source_length=k)) for k in (3, 5, 0)}
        assert len(by_source) == 3
    sequential = [sample_one(params, np.random.default_rng(s), source_length=k)
                  for s, k in zip(seeds, lengths)]
    batched = sample_batch(params, TOY, [np.random.default_rng(s) for s in seeds], source_lengths=lengths)
    for a, b in zip(sequential, batched):
        assert np.array_equal(a, b)


def test_sample_batch_encodes_each_distinct_source_once(monkeypatch):
    params = toy_params(13)
    rows = []
    encoder = model.encoder_forward
    monkeypatch.setattr(model, "encoder_forward",
                        lambda p, c, ids, mask: rows.append(len(ids)) or encoder(p, c, ids, mask))
    lengths = [3, 3, 5, 3, 0, 5, 0]
    sample_batch(params, TOY, [np.random.default_rng(s) for s in range(7)], source_lengths=lengths)
    sample_batch(params, TOY, [np.random.default_rng(s) for s in range(4)], [0] * 4)
    assert rows == [3, 1]
