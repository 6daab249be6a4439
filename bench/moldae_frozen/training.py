"""Denoising pre-training loop: Adam, linear warmup, checkpoints, TrainLog.

All randomness is keyed statelessly by (seed, purpose, step-or-epoch), so a
run resumed from a checkpoint reproduces the uninterrupted run exactly; the
checkpoint stores parameters, Adam moments, and the step counter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .checkpoint import load_checkpoint, save_checkpoint
from .model import ModelConfig, batch_denoise_loss, init_model
from .selfies import split_selfies
from .tokenizer import PAD, Vocabulary, corrupt, encode_ids

_TAGS = {"init": 0, "shuffle": 1, "mask": 2, "sample": 3, "dropout": 4}


class TrainingDivergedError(RuntimeError):
    pass


def tagged_rng(seed: int, tag: str, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, _TAGS[tag], index)))


@dataclass(frozen=True)
class TrainSettings:
    steps: int = 1000
    batch_size: int = 32
    peak_lr: float = 3e-4
    warmup_frac: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    mask_rate: float = 0.15
    checkpoint_interval: int = 0  # 0: only at the end
    seed: int = 0
    dtype: str = "float32"


@dataclass
class StepRecord:
    step: int
    loss: float
    masked_acc: float
    seconds: float


@dataclass
class TrainLog:
    steps: list[StepRecord] = field(default_factory=list)
    epochs: list[tuple[int, float, float]] = field(default_factory=list)  # (epoch, loss, acc)
    skipped_too_long: int = 0

    def add(self, record: StepRecord) -> None:
        if self.steps and record.step <= self.steps[-1].step:
            raise ValueError("step indices must be strictly increasing")
        if not np.isfinite(record.loss):
            raise ValueError("loss must be finite")
        self.steps.append(record)

    def write_csv(self, path: str | Path) -> None:
        lines = ["step,loss,masked_acc,seconds"]
        for r in self.steps:
            lines.append(f"{r.step},{r.loss:.6f},{r.masked_acc:.6f},{r.seconds:.3f}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_token_corpus(path: str | Path, vocab: Vocabulary, max_len: int) -> tuple[list[np.ndarray], int]:
    """Read one-SELFIES-per-line, encode to ids, skip over-length sequences."""
    sequences: list[np.ndarray] = []
    skipped = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            ids = encode_ids(split_selfies(line), vocab)
            if len(ids) > max_len:
                skipped += 1
                continue
            sequences.append(ids)
    return sequences, skipped


class Adam:
    def __init__(self, params: dict[str, Tensor], settings: TrainSettings):
        self.settings = settings
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = 0

    def step(self, params: dict[str, Tensor], lr: float) -> None:
        s = self.settings
        self.t += 1
        c1 = 1.0 - s.beta1**self.t
        c2 = 1.0 - s.beta2**self.t
        for name, p in params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= s.beta1
            m += (1.0 - s.beta1) * g
            v *= s.beta2
            v += (1.0 - s.beta2) * g * g
            p.data -= (lr / c1) * m / (np.sqrt(v / c2) + s.eps)


def _learning_rate(step: int, settings: TrainSettings) -> float:
    warmup = max(1, round(settings.warmup_frac * settings.steps))
    if step < warmup:
        return settings.peak_lr * (step + 1) / warmup
    return settings.peak_lr


def _pad_batch(seqs: list[np.ndarray], rate: float, rng: np.random.Generator):
    width = max(len(s) for s in seqs)
    x = np.full((len(seqs), width), PAD, dtype=np.int64)
    y = np.full((len(seqs), width), PAD, dtype=np.int64)
    mask = np.zeros((len(seqs), width), dtype=np.float64)
    for i, seq in enumerate(seqs):
        pair = corrupt(seq, rate, rng)
        x[i, : len(seq)] = pair.x_corrupt
        y[i, : len(seq)] = pair.y
        mask[i, : len(seq)] = 1.0
    return x, y, mask


def train(
    corpus_path: str | Path,
    vocab: Vocabulary,
    config: ModelConfig,
    settings: TrainSettings,
    out_dir: str | Path | None = None,
    resume_from: str | Path | None = None,
) -> tuple[dict[str, Tensor], TrainLog]:
    """Run (or resume) denoising training; returns parameters and the log."""
    config.validate()
    dtype = np.float64 if settings.dtype == "float64" else np.float32
    sequences, skipped = load_token_corpus(corpus_path, vocab, config.max_len)
    if not sequences:
        raise ValueError(f"{corpus_path}: no usable sequences (skipped {skipped} over-length)")

    log = TrainLog(skipped_too_long=skipped)
    start_step = 0
    if resume_from is not None:
        config_loaded, tensors = load_checkpoint(resume_from)
        if config_loaded != config:
            raise ValueError("checkpoint config differs from requested config")
        params = {
            k: Tensor(v.astype(dtype), requires_grad=True)
            for k, v in tensors.items()
            if not k.startswith(("adam.m.", "adam.v.", "meta."))
        }
        optimizer = Adam(params, settings)
        for name in params:
            optimizer.m[name] = tensors[f"adam.m.{name}"].astype(dtype)
            optimizer.v[name] = tensors[f"adam.v.{name}"].astype(dtype)
        start_step = int(tensors["meta.step"].reshape(-1)[0])
        optimizer.t = start_step
    else:
        params = init_model(config, tagged_rng(settings.seed, "init"), dtype=dtype)
        optimizer = Adam(params, settings)

    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    # Content-length histogram: drives source-length sampling for generation.
    length_hist = np.zeros(config.max_len - 1, dtype=np.float32)
    for seq in sequences:
        length_hist[len(seq) - 2] += 1.0

    def write_ckpt(name: str, step: int) -> None:
        if out is None:
            return
        tensors = {k: p.data for k, p in params.items()}
        tensors.update({f"adam.m.{k}": v for k, v in optimizer.m.items()})
        tensors.update({f"adam.v.{k}": v for k, v in optimizer.v.items()})
        tensors["meta.step"] = np.asarray([step], dtype=np.float32)
        tensors["meta.length_hist"] = length_hist
        save_checkpoint(out / name, config, tensors)

    lengths = np.asarray([len(s) for s in sequences])

    def epoch_order(epoch: int) -> np.ndarray:
        """Shuffle, then sort within macro-blocks by length to limit padding."""
        order = tagged_rng(settings.seed, "shuffle", epoch).permutation(len(sequences))
        block = settings.batch_size * 8
        chunks = [
            order[lo : lo + block][np.argsort(lengths[order[lo : lo + block]], kind="stable")]
            for lo in range(0, len(order), block)
        ]
        return np.concatenate(chunks)

    batches_per_epoch = (len(sequences) + settings.batch_size - 1) // settings.batch_size
    epoch_losses: list[float] = []
    epoch_accs: list[float] = []
    order = None
    current_epoch = -1
    started = time.perf_counter()
    drop_rng = None

    def close_epoch() -> None:
        nonlocal epoch_losses, epoch_accs
        if not epoch_losses:
            return
        acc = float(np.nanmean(epoch_accs)) if np.isfinite(epoch_accs).any() else float("nan")
        log.epochs.append((current_epoch, float(np.mean(epoch_losses)), acc))
        epoch_losses, epoch_accs = [], []

    for step in range(start_step, settings.steps):
        epoch = step // batches_per_epoch
        if epoch != current_epoch:
            close_epoch()
            current_epoch = epoch
            order = epoch_order(epoch)
        pos = step % batches_per_epoch
        batch_idx = order[pos * settings.batch_size : (pos + 1) * settings.batch_size]
        batch = [sequences[i] for i in batch_idx]

        mask_rng = tagged_rng(settings.seed, "mask", step)
        x, y, pad_mask = _pad_batch(batch, settings.mask_rate, mask_rng)
        if config.dropout > 0:
            drop_rng = tagged_rng(settings.seed, "dropout", step)
        for p in params.values():
            p.zero_grad()
        loss, masked_acc = batch_denoise_loss(params, config, x, y, pad_mask, drop_rng)
        loss_value = float(loss.data)
        if not np.isfinite(loss_value):
            raise TrainingDivergedError(
                f"non-finite loss {loss_value} at step {step} "
                f"(lr={_learning_rate(step, settings):.2e}, batch of {len(batch)})"
            )
        loss.backward()
        optimizer.step(params, _learning_rate(step, settings))

        log.add(StepRecord(step, loss_value, masked_acc, time.perf_counter() - started))
        epoch_losses.append(loss_value)
        epoch_accs.append(masked_acc)

        if settings.checkpoint_interval and (step + 1) % settings.checkpoint_interval == 0:
            write_ckpt(f"checkpoint_{step + 1:06d}.bin", step + 1)

    close_epoch()
    write_ckpt("checkpoint_final.bin", settings.steps)
    if out is not None:
        log.write_csv(out / "trainlog.csv")
    return params, log


def load_params(path: str | Path, dtype=np.float32) -> tuple[ModelConfig, dict[str, Tensor]]:
    """Model parameters (without optimizer state) from a checkpoint file."""
    config, tensors = load_checkpoint(path)
    params = {
        k: Tensor(v.astype(dtype), requires_grad=True)
        for k, v in tensors.items()
        if not k.startswith(("adam.m.", "adam.v.", "meta."))
    }
    return config, params


def load_meta(path: str | Path) -> dict[str, np.ndarray]:
    """The checkpoint's meta.* tensors (step counter, length histogram)."""
    _, tensors = load_checkpoint(path)
    return {k: v for k, v in tensors.items() if k.startswith("meta.")}
