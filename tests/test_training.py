"""Training loop: convergence, checkpoint resume determinism, guards."""

import struct
from pathlib import Path

import numpy as np
import pytest

from moldae.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from moldae.model import ModelConfig
from moldae.selfies import split_selfies
from moldae.tokenizer import build_vocab
from moldae.training import (
    TrainLog, TrainSettings, TrainingDivergedError, StepRecord,
    load_meta, load_model, load_params, load_token_corpus, resume_tensors, tagged_rng, train,
)

TINY = dict(d_model=16, n_heads=2, encoder_layers=1, decoder_layers=1, ff_width=32, max_len=24)


@pytest.fixture(scope="module")
def tiny_corpus_file(tmp_path_factory):
    from moldae.corpus import sample_corpus
    from moldae.smiles import parse_smiles
    from moldae import selfies as sf

    molecules = sample_corpus(300, seed=5, max_tokens=16)
    lines = [sf.join_tokens(sf.encode(parse_smiles(s))) for s in molecules]
    path = tmp_path_factory.mktemp("corpus") / "tiny.selfies"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="module")
def tiny_vocab(tiny_corpus_file):
    lines = tiny_corpus_file.read_text().splitlines()
    return build_vocab([split_selfies(l) for l in lines])


def test_loss_decreases(tiny_corpus_file, tiny_vocab):
    config = ModelConfig(vocab_size=len(tiny_vocab), **TINY)
    _, log = train(tiny_corpus_file, tiny_vocab, config,
                   TrainSettings(steps=200, batch_size=16, seed=0, peak_lr=3e-3))
    first = np.mean([r.loss for r in log.steps[:5]])
    last = np.mean([r.loss for r in log.steps[-5:]])
    assert last < 0.5 * first


def test_train_log_csv(tmp_path):
    log = TrainLog([StepRecord(0, 1.25, 0.5, 0.1), StepRecord(1, 1.0, 0.625, 0.2)])
    path = tmp_path / "log.csv"
    log.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,loss,masked_acc,seconds"
    assert lines[1].startswith("0,1.250000,0.500000,")


def test_over_length_sequences_skipped(tmp_path, tiny_vocab):
    lines = ["[C]" * 5, "[C]" * 50, "[C]" * 3]
    path = tmp_path / "corpus.selfies"
    path.write_text("\n".join(lines) + "\n")
    sequences, skipped = load_token_corpus(path, tiny_vocab, max_len=24)
    assert len(sequences) == 2 and skipped == 1
    # and the train loop reports it
    config = ModelConfig(vocab_size=len(tiny_vocab), **TINY)
    _, log = train(path, tiny_vocab, config, TrainSettings(steps=2, batch_size=2, seed=0))
    assert log.skipped_too_long == 1


def test_divergence_aborts(tmp_path, tiny_corpus_file, tiny_vocab):
    """A non-finite loss stops training with diagnostics instead of looping on."""
    config = ModelConfig(vocab_size=len(tiny_vocab), **TINY)
    settings = TrainSettings(steps=4, batch_size=16, seed=0, checkpoint_interval=2)
    out = tmp_path / "run"
    train(tiny_corpus_file, tiny_vocab, config, settings, out_dir=out)
    ckpt = out / "checkpoint_000002.bin"
    config2, tensors = load_checkpoint(ckpt)
    tensors["tok_emb"][0, 0] = np.nan
    poisoned = tmp_path / "poisoned.bin"
    save_checkpoint(poisoned, config2, tensors)
    with pytest.raises(TrainingDivergedError) as err:
        train(tiny_corpus_file, tiny_vocab, config, settings, resume_from=poisoned)
    assert "step 2" in str(err.value)


def test_checkpoint_container_roundtrip(tmp_path):
    config = ModelConfig(vocab_size=10, **TINY)
    tensors = {
        "a.weight": np.arange(12, dtype=np.float32).reshape(3, 4),
        "b": np.float32(3.5) * np.ones((), dtype=np.float32),
        "c": np.asarray([1 / 3, np.pi, 1e-300], dtype=np.float64),
        "d": np.frombuffer("<pad>\nü\n".encode(), dtype=np.uint8),
    }
    path = tmp_path / "model.bin"
    save_checkpoint(path, config, tensors)
    config2, loaded = load_checkpoint(path)
    assert config2 == config
    assert set(loaded) == set(tensors)
    for name, arr in tensors.items():
        assert loaded[name].dtype == arr.dtype and loaded[name].shape == arr.shape, name
        assert loaded[name].tobytes() == arr.tobytes(), name
    with pytest.raises(CheckpointError, match="cannot store dtype int64"):
        save_checkpoint(tmp_path / "int.bin", config, {"i": np.arange(3)})
    with pytest.raises(CheckpointError):
        path2 = tmp_path / "bad.bin"
        path2.write_bytes(b"not a checkpoint")
        load_checkpoint(path2)
    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(CheckpointError):
        load_checkpoint(truncated)


def test_checkpoint_dims_whose_product_overflows_int64_are_truncated(tmp_path):
    """Dims (2**31, 2**31, 4) multiply to 2**64, which wraps to 0 in int64: the
    tensor needs more bytes than the file has, so the load fails as truncated."""
    path = tmp_path / "huge.bin"
    save_checkpoint(path, ModelConfig(vocab_size=10, **TINY), {"x": np.zeros((3, 5, 4), np.float32)})
    data = path.read_bytes()
    dims = struct.pack("<BB3I", 0, 3, 3, 5, 4)
    assert data.count(dims) == 1
    path.write_bytes(data.replace(dims, struct.pack("<BB3I", 0, 3, 2**31, 2**31, 4)))
    with pytest.raises(CheckpointError, match="truncated checkpoint"):
        load_checkpoint(path)


def test_format_1_checkpoint_still_loads():
    """The bench fixture is a format-1 file: float32 tensors without dtype bytes."""
    fixture = Path(__file__).resolve().parents[1] / "bench" / "fixture" / "model.bin"
    assert fixture.read_bytes()[8:12] == (1).to_bytes(4, "little")
    config, params = load_params(fixture)
    assert params["tok_emb"].data.shape == (config.vocab_size, config.d_model)
    assert all(p.data.dtype == np.float32 for p in params.values())
    meta = load_meta(fixture)
    assert set(meta) == {"meta.length_hist"} and meta["meta.length_hist"].sum() > 0


def test_failed_write_keeps_previous_checkpoint(tmp_path):
    class DiskFull:
        def __array__(self, dtype=None, copy=None):
            raise OSError("no space left on device")

    config = ModelConfig(vocab_size=10, **TINY)
    path = tmp_path / "checkpoint_final.bin"
    save_checkpoint(path, config, {"a": np.ones(3, dtype=np.float32)})
    before = path.read_bytes()
    # "a" is written, then converting "b" fails partway through the file.
    with pytest.raises(OSError, match="no space left"):
        save_checkpoint(path, config, {"a": np.zeros(1000, dtype=np.float32), "b": DiskFull()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint_final.bin"]


def _assert_resume_reproduces_uninterrupted_run(tmp_path, corpus, vocab, settings):
    config = ModelConfig(vocab_size=len(vocab), **TINY)
    full_dir = tmp_path / "full"
    _, full_log = train(corpus, vocab, config, settings, out_dir=full_dir)

    resumed_dir = tmp_path / "resumed"
    _, resumed_log = train(corpus, vocab, config, settings,
                           out_dir=resumed_dir, resume_from=full_dir / "checkpoint_000015.bin")
    tail = {r.step: (r.loss, r.masked_acc) for r in full_log.steps if r.step >= 15}
    assert [r.step for r in resumed_log.steps] == sorted(tail)
    for r in resumed_log.steps:
        assert tail[r.step] == (r.loss, r.masked_acc), r.step
    # final checkpoints byte-identical
    assert (full_dir / "checkpoint_final.bin").read_bytes() == \
        (resumed_dir / "checkpoint_final.bin").read_bytes()


def test_resume_reproduces_uninterrupted_run(tmp_path, tiny_corpus_file, tiny_vocab):
    settings = TrainSettings(steps=30, batch_size=16, seed=3, checkpoint_interval=15)
    _assert_resume_reproduces_uninterrupted_run(tmp_path, tiny_corpus_file, tiny_vocab, settings)


def test_float64_resume_reproduces_uninterrupted_run(tmp_path, tiny_corpus_file, tiny_vocab):
    """float64 checkpoints store float64 values, so the resumed run does not round to float32."""
    settings = TrainSettings(steps=30, batch_size=16, seed=3, checkpoint_interval=15, dtype="float64")
    _assert_resume_reproduces_uninterrupted_run(tmp_path, tiny_corpus_file, tiny_vocab, settings)
    _, tensors = load_checkpoint(tmp_path / "full" / "checkpoint_final.bin")
    assert tensors["tok_emb"].dtype == tensors["adam.m.tok_emb"].dtype == np.float64


def test_resume_names_every_differing_setting(tmp_path, tiny_corpus_file, tiny_vocab):
    config = ModelConfig(vocab_size=len(tiny_vocab), **TINY)
    settings = TrainSettings(steps=4, batch_size=16, seed=0)
    train(tiny_corpus_file, tiny_vocab, config, settings, out_dir=tmp_path)
    ckpt = tmp_path / "checkpoint_final.bin"
    assert resume_tensors(ckpt, config, tiny_vocab, settings)["meta.step"][0] == 4
    other = TrainSettings(steps=8, batch_size=16, seed=0, mask_rate=0.2)
    with pytest.raises(CheckpointError, match=r"mask_rate 0\.15 -> 0\.2, steps 4 -> 8$"):
        resume_tensors(ckpt, config, tiny_vocab, other)
    shuffled = build_vocab([split_selfies(l) for l in reversed(tiny_corpus_file.read_text().splitlines())])
    assert len(shuffled) == len(tiny_vocab) and shuffled != tiny_vocab
    with pytest.raises(CheckpointError, match="vocabulary differs"):
        resume_tensors(ckpt, config, shuffled, settings)


@pytest.mark.parametrize("name, data", [("meta.settings", b"{not json"), ("meta.settings", b"[1]"),
                                        ("meta.settings", b"\xff"), ("meta.vocab", b"\xff\xfe")])
def test_unreadable_meta_is_a_checkpoint_error(name, data, tmp_path, tiny_corpus_file, tiny_vocab):
    config = ModelConfig(vocab_size=len(tiny_vocab), **TINY)
    settings = TrainSettings(steps=2, batch_size=16, seed=0)
    train(tiny_corpus_file, tiny_vocab, config, settings, out_dir=tmp_path)
    _, tensors = load_checkpoint(tmp_path / "checkpoint_final.bin")
    tensors[name] = np.frombuffer(data, dtype=np.uint8)
    bad = tmp_path / "bad.bin"
    save_checkpoint(bad, config, tensors)
    with pytest.raises(CheckpointError, match=f"bad.bin: unreadable {name}"):
        if name == "meta.vocab":
            load_model(bad)
        else:
            resume_tensors(bad, config, tiny_vocab, settings)


def test_mask_rate_zero_is_pure_copy_task(tiny_corpus_file, tiny_vocab):
    """Copy objective collapses faster than denoising at the same budget."""
    config = ModelConfig(vocab_size=len(tiny_vocab), **TINY)
    _, log_copy = train(tiny_corpus_file, tiny_vocab, config,
                        TrainSettings(steps=60, batch_size=16, seed=0, mask_rate=0.0, peak_lr=1e-3))
    _, log_mask = train(tiny_corpus_file, tiny_vocab, config,
                        TrainSettings(steps=60, batch_size=16, seed=0, mask_rate=0.15, peak_lr=1e-3))
    copy_tail = np.mean([r.loss for r in log_copy.steps[-10:]])
    mask_tail = np.mean([r.loss for r in log_mask.steps[-10:]])
    assert copy_tail < mask_tail


def test_dropout_training_is_seeded_and_changes_the_path(tiny_corpus_file, tiny_vocab):
    config_drop = ModelConfig(vocab_size=len(tiny_vocab), dropout=0.2, **TINY)
    settings = TrainSettings(steps=10, batch_size=8, seed=1)
    _, log_a = train(tiny_corpus_file, tiny_vocab, config_drop, settings)
    _, log_b = train(tiny_corpus_file, tiny_vocab, config_drop, settings)
    assert [r.loss for r in log_a.steps] == [r.loss for r in log_b.steps]
    config_plain = ModelConfig(vocab_size=len(tiny_vocab), **TINY)
    _, log_c = train(tiny_corpus_file, tiny_vocab, config_plain, settings)
    assert [r.loss for r in log_a.steps] != [r.loss for r in log_c.steps]


def test_tagged_rng_streams_are_stable():
    a = tagged_rng(1, "mask", 5).random(4)
    b = tagged_rng(1, "mask", 5).random(4)
    c = tagged_rng(1, "mask", 6).random(4)
    d = tagged_rng(1, "shuffle", 5).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_a_step_frees_the_previous_steps_graph(tmp_path):
    """With equal batches, two steps peak no higher than one: step 1's graph is
    gone before step 2's forward pass (tracemalloc sees numpy's buffers)."""
    import tracemalloc

    tokens = ["[C]", "[N]", "[O]", "[=C]", "[F]", "[Branch1]", "[Ring1]"]
    rng = np.random.default_rng(0)
    lines = ["".join(rng.choice(tokens, size=20)) for _ in range(16)]
    path = tmp_path / "equal.selfies"
    path.write_text("\n".join(lines) + "\n")
    vocab = build_vocab([split_selfies(line) for line in lines])
    config = ModelConfig(vocab_size=len(vocab), d_model=32, n_heads=2, encoder_layers=1,
                         decoder_layers=1, ff_width=64, max_len=24)
    peaks = []
    for steps in (1, 2):
        tracemalloc.start()
        try:
            train(path, vocab, config, TrainSettings(steps=steps, batch_size=8, seed=0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0], peaks
