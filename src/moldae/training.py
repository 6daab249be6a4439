"""Denoising pre-training loop: Adam, linear warmup, checkpoints, TrainLog.

All randomness is keyed statelessly by (seed, purpose, step-or-epoch), so a
run resumed from a checkpoint reproduces the uninterrupted run exactly; the
checkpoint stores parameters and Adam moments in the run's dtype, the step
counter, and the vocabulary and TrainSettings (which a resume must match).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint, write_text
from .model import ModelConfig, batch_denoise_loss, init_model, param_shapes
from .selfies import split_selfies
from .tokenizer import PAD, Vocabulary, corrupt, encode_ids, parse_vocab, vocab_text

_TAGS = {"init": 0, "shuffle": 1, "mask": 2, "dropout": 4}
_ADAM = ("adam.m.", "adam.v.")  # prefixes of the optimizer moments of each parameter


class TrainingDivergedError(RuntimeError):
    pass


class TrainSettingsError(ValueError):
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

    def validate(self) -> "TrainSettings":
        checks = (
            ("steps", self.steps >= 0, ">= 0"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("peak_lr", math.isfinite(self.peak_lr) and self.peak_lr > 0, "finite and > 0"),
            ("warmup_frac", 0 <= self.warmup_frac <= 1, "in [0, 1]"),
            ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
            ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"),
            ("eps", math.isfinite(self.eps) and self.eps > 0, "finite and > 0"),
            ("mask_rate", 0 <= self.mask_rate <= 1, "in [0, 1]"),
            ("checkpoint_interval", self.checkpoint_interval >= 0, ">= 0"),
            ("seed", self.seed >= 0, ">= 0"),
            ("dtype", self.dtype in ("float32", "float64"), "float32 or float64"),
        )
        for key, ok, rule in checks:
            if not ok:
                raise TrainSettingsError(f"config key {key}: {getattr(self, key)!r} is not {rule}")
        return self


@dataclass
class StepRecord:
    step: int
    loss: float
    masked_acc: float
    seconds: float


@dataclass
class TrainLog:
    steps: list[StepRecord] = field(default_factory=list)
    skipped_too_long: int = 0

    def write_csv(self, path: str | Path) -> None:
        lines = ["step,loss,masked_acc,seconds"]
        for r in self.steps:
            lines.append(f"{r.step},{r.loss:.6f},{r.masked_acc:.6f},{r.seconds:.3f}")
        write_text(path, "\n".join(lines) + "\n")


def load_token_corpus(path: str | Path, vocab: Vocabulary, max_len: int) -> tuple[list[np.ndarray], int]:
    """Read one-SELFIES-per-line, encode to ids, skip over-length sequences.

    Raises ValueError when no line is short enough to train on.
    """
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
    if not sequences:
        raise ValueError(f"{path}: no usable sequences (skipped {skipped} over-length)")
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
    """Run (or resume) denoising training; returns parameters and the log.

    The corpus and the `resume_from` checkpoint are checked before `out_dir`
    is made, so a run that fails there writes nothing.
    """
    config.validate()
    settings.validate()
    dtype = np.float64 if settings.dtype == "float64" else np.float32
    sequences, skipped = load_token_corpus(corpus_path, vocab, config.max_len)

    log = TrainLog(skipped_too_long=skipped)
    start_step = 0
    if resume_from is not None:
        tensors = resume_tensors(resume_from, config, vocab, settings)
        params = _model_params(tensors, config, dtype)
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
        # The run's vocabulary file and settings, as bytes, so the checkpoint stands alone.
        tensors["meta.vocab"] = np.frombuffer(vocab_text(vocab).encode(), np.uint8)
        tensors["meta.settings"] = np.frombuffer(json.dumps(asdict(settings), sort_keys=True).encode(), np.uint8)
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
    order = None
    current_epoch = -1
    started = time.perf_counter()
    drop_rng = None

    for step in range(start_step, settings.steps):
        epoch = step // batches_per_epoch
        if epoch != current_epoch:
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
        del loss  # the graph's root: not alive during the next step's forward pass

        log.steps.append(StepRecord(step, loss_value, masked_acc, time.perf_counter() - started))

        if settings.checkpoint_interval and (step + 1) % settings.checkpoint_interval == 0:
            write_ckpt(f"checkpoint_{step + 1:06d}.bin", step + 1)

    write_ckpt("checkpoint_final.bin", settings.steps)
    if out is not None:
        log.write_csv(out / "trainlog.csv")
    return params, log


def resume_tensors(path: str | Path, config: ModelConfig, vocab: Vocabulary,
                   settings: TrainSettings) -> dict[str, np.ndarray]:
    """Checkpoint `path`'s tensors, checked to continue this very run with its optimizer state:
    any difference in model config, vocabulary or settings breaks resume-equals-uninterrupted."""
    config_loaded, tensors = load_checkpoint(path)
    if config_loaded != config:
        raise CheckpointError(f"{path}: checkpoint model config differs from the requested one")
    _check_tensors(path, config, tensors, ("", *_ADAM), ", which a resume needs")
    missing = next((k for k in ("meta.step", "meta.vocab", "meta.settings") if k not in tensors), None)
    if missing is not None:
        raise CheckpointError(f"{path}: missing tensor {missing}, which a resume needs")
    if tensors["meta.vocab"].tobytes() != vocab_text(vocab).encode():
        raise CheckpointError(f"{path}: checkpoint vocabulary differs from the corpus's (other token ids)")
    try:
        saved, current = json.loads(tensors["meta.settings"].tobytes()), asdict(settings)
        differ = [f"{k} {saved.get(k)!r} -> {current.get(k)!r}"
                  for k in sorted(saved.keys() | current.keys()) if saved.get(k) != current.get(k)]
    except (ValueError, AttributeError) as exc:  # not UTF-8, not JSON, or not an object
        raise CheckpointError(f"{path}: unreadable meta.settings ({exc})") from exc
    if differ:
        raise CheckpointError(f"{path}: checkpoint was trained with other settings: {', '.join(differ)}")
    return tensors


def load_model(path: str | Path) -> tuple[ModelConfig, dict[str, Tensor], Vocabulary, np.ndarray]:
    """Config, float32 parameters, vocabulary and length histogram of a checkpoint, read once.

    The histogram must be a finite, non-negative float (max_len - 1,) vector with mass
    beyond length 0: generate draws every source length from it.
    """
    config, tensors = load_checkpoint(path)
    if "meta.vocab" not in tensors:
        raise CheckpointError(f"{path}: no vocabulary in checkpoint (format 1, or not written by train)")
    try:
        vocab = parse_vocab(tensors["meta.vocab"].tobytes().decode("utf-8"), path)
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{path}: unreadable meta.vocab ({exc})") from exc
    if len(vocab) != config.vocab_size:
        raise CheckpointError(f"{path}: vocabulary has {len(vocab)} tokens, the model {config.vocab_size}")
    _check_tensors(path, config, tensors)
    hist = tensors.get("meta.length_hist")
    if hist is None:
        raise CheckpointError(f"{path}: missing tensor meta.length_hist")
    if not (hist.dtype.kind == "f" and hist.shape == (config.max_len - 1,)
            and np.isfinite(hist).all() and (hist >= 0).all() and hist[1:].any()):
        raise CheckpointError(f"{path}: tensor meta.length_hist is {hist.dtype} {hist.shape}, the config "
                              f"needs a finite, non-negative float ({config.max_len - 1},) histogram "
                              "with mass beyond length 0")
    return config, _model_params(tensors, config, np.float32), vocab, hist


def load_params(path: str | Path) -> tuple[ModelConfig, dict[str, Tensor]]:
    """Config and float32 model parameters (without optimizer state) from a checkpoint file."""
    config, tensors = load_checkpoint(path)
    _check_tensors(path, config, tensors)
    return config, _model_params(tensors, config, np.float32)


def _check_tensors(path: str | Path, config: ModelConfig, tensors: dict[str, np.ndarray],
                   prefixes: tuple[str, ...] = ("",), why: str = "") -> None:
    """Each of `param_shapes(config)`, under each prefix, must be a float tensor of its
    shape, and no tensor outside meta.* may be anything else: the checkpoint holds
    exactly this model, checked before any of its data is used."""
    shapes = param_shapes(config)
    for name, shape in ((prefix + name, shape) for prefix in prefixes for name, shape in shapes.items()):
        if name not in tensors:
            raise CheckpointError(f"{path}: missing tensor {name}{why}")
        arr = tensors[name]
        if arr.dtype.kind != "f" or arr.shape != shape:
            raise CheckpointError(f"{path}: tensor {name} is {arr.dtype} {arr.shape}, the config needs "
                                  f"float {shape}")
    known = {prefix + name for prefix in ("", *_ADAM) for name in shapes}
    extra = next((k for k in tensors if k not in known and not k.startswith("meta.")), None)
    if extra is not None:
        raise CheckpointError(f"{path}: tensor {extra} is not a parameter of the config")


def _model_params(tensors: dict[str, np.ndarray], config: ModelConfig, dtype) -> dict[str, Tensor]:
    """The parameters of a checked checkpoint, in `param_shapes` order."""
    return {k: Tensor(tensors[k].astype(dtype), requires_grad=True) for k in param_shapes(config)}


def load_meta(path: str | Path) -> dict[str, np.ndarray]:
    """The checkpoint's meta.* tensors (step counter, length histogram, vocabulary, settings)."""
    _, tensors = load_checkpoint(path)
    return {k: v for k, v in tensors.items() if k.startswith("meta.")}
