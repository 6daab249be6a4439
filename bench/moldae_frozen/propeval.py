"""Embedding-based property prediction: datasets, splits, probe, metrics.

Datasets are CSV files with a SMILES column and one or more label columns
named by a small key=value manifest (task type, smiles column, label
columns). Frozen model embeddings feed a standardized linear probe (logistic
for classification, ridge for regression) trained by full-batch gradient
descent; the regularization strength is picked on the validation fold.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import selfies
from .model import ModelConfig, embed
from .smiles import SmilesParseError, parse_smiles
from .tokenizer import Vocabulary, encode_ids
from .graph import GraphError

LAMBDA_GRID = (1e-3, 1e-2, 0.1, 1.0, 10.0)


class DatasetError(ValueError):
    pass


@dataclass(frozen=True)
class TaskManifest:
    task: str  # "classification" | "regression"
    smiles_column: str
    label_columns: tuple[str, ...]
    name: str = ""

    @classmethod
    def load(cls, path: str | Path) -> "TaskManifest":
        fields: dict[str, str] = {}
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DatasetError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            fields[key.strip()] = value.strip()
        try:
            task = fields["task"]
            labels = tuple(c.strip() for c in fields["labels"].split(",") if c.strip())
        except KeyError as exc:
            raise DatasetError(f"{path}: missing manifest key {exc}") from exc
        if task not in ("classification", "regression"):
            raise DatasetError(f"{path}: unknown task type {task!r}")
        if not labels:
            raise DatasetError(f"{path}: no label columns")
        return cls(task, fields.get("smiles", "smiles"), labels, fields.get("name", ""))


@dataclass(frozen=True)
class PropertyDataset:
    name: str
    task: str
    smiles: tuple[str, ...]
    labels: np.ndarray  # (n, n_labels), NaN marks missing
    dropped_invalid: int = 0

    def __len__(self) -> int:
        return len(self.smiles)


def load_dataset(path: str | Path, manifest: TaskManifest) -> PropertyDataset:
    """Read the CSV, dropping rows whose SMILES does not parse (count kept)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DatasetError(f"{path}: empty file")
        missing = [c for c in (manifest.smiles_column, *manifest.label_columns) if c not in reader.fieldnames]
        if missing:
            raise DatasetError(f"{path}: missing columns {missing}")
        smiles: list[str] = []
        rows: list[list[float]] = []
        dropped = 0
        for record in reader:
            text = (record[manifest.smiles_column] or "").strip()
            try:
                parse_smiles(text)
            except (SmilesParseError, GraphError):
                dropped += 1
                continue
            values = []
            for col in manifest.label_columns:
                cell = (record[col] or "").strip()
                values.append(float(cell) if cell else math.nan)
            if all(math.isnan(v) for v in values):
                dropped += 1
                continue
            smiles.append(text)
            rows.append(values)
    if not rows:
        raise DatasetError(f"{path}: no usable rows")
    labels = np.asarray(rows, dtype=np.float64)
    if manifest.task == "classification":
        present = labels[~np.isnan(labels)]
        if not np.isin(present, (0.0, 1.0)).all():
            raise DatasetError(f"{path}: classification labels must be 0/1")
    return PropertyDataset(manifest.name or Path(path).stem, manifest.task, tuple(smiles), labels, dropped)


@dataclass(frozen=True)
class SplitAssignment:
    folds: tuple[str, ...]  # per-record "train" | "valid" | "test"
    seed: int
    ratios: tuple[float, float, float]

    def indices(self, fold: str) -> np.ndarray:
        return np.asarray([i for i, f in enumerate(self.folds) if f == fold])


def split(dataset: PropertyDataset, ratios=(0.8, 0.1, 0.1), seed: int = 0) -> SplitAssignment:
    """Seeded shuffle, then contiguous train/valid/test assignment."""
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise DatasetError("need three positive ratios")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DatasetError(f"ratios must sum to 1, got {sum(ratios)}")
    n = len(dataset)
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(round(ratios[0] * n))
    n_valid = int(round(ratios[1] * n))
    if n_train == 0 or n_valid == 0 or n_train + n_valid >= n:
        raise DatasetError(f"a fold would be empty for n={n} and ratios {ratios}")
    folds = [""] * n
    for pos, idx in enumerate(order):
        if pos < n_train:
            folds[idx] = "train"
        elif pos < n_train + n_valid:
            folds[idx] = "valid"
        else:
            folds[idx] = "test"
    return SplitAssignment(tuple(folds), seed, ratios)


def featurize(dataset: PropertyDataset, params, config: ModelConfig, vocab: Vocabulary
              ) -> tuple[np.ndarray, np.ndarray, int]:
    """Embed every record; returns (features, row indices kept, dropped count)."""
    rows: list[np.ndarray] = []
    kept: list[int] = []
    dropped = 0
    for i, text in enumerate(dataset.smiles):
        try:
            tokens = selfies.encode(parse_smiles(text))
            ids = encode_ids(tokens, vocab)
            if len(ids) > config.max_len:
                raise ValueError("over-length")
            rows.append(embed(params, config, ids))
        except (selfies.EncodeError, SmilesParseError, GraphError, ValueError):
            dropped += 1
            continue
        kept.append(i)
    if not rows:
        raise DatasetError("no record could be featurized")
    return np.stack(rows), np.asarray(kept), dropped


@dataclass(frozen=True)
class Probe:
    """Linear model over standardized embedding features."""

    weights: np.ndarray  # (d, n_outputs)
    bias: np.ndarray  # (n_outputs,)
    mean: np.ndarray  # train-fold feature means
    std: np.ndarray  # train-fold feature stds
    task: str
    lam: float

    def scores(self, features: np.ndarray) -> np.ndarray:
        z = (features - self.mean) / self.std
        raw = z @ self.weights + self.bias
        if self.task == "classification":
            return 1.0 / (1.0 + np.exp(-raw))
        return raw


def _lipschitz(x: np.ndarray, lam: float, task: str) -> float:
    # Largest eigenvalue of X^T X / n via power iteration, plus the ridge term.
    v = np.full(x.shape[1], 1.0 / math.sqrt(x.shape[1]))
    for _ in range(50):
        v = x.T @ (x @ v) / len(x)
        norm = float(np.linalg.norm(v))
        if norm == 0:
            return lam + 1e-12
        v /= norm
    top = float(v @ (x.T @ (x @ v))) / len(x)
    scale = 0.25 if task == "classification" else 1.0
    return scale * top + lam


def train_probe(features: np.ndarray, labels: np.ndarray, task: str, lam: float,
                max_iters: int = 20000, tol: float = 1e-6) -> Probe:
    """Fit the probe by full-batch gradient descent to grad-norm < tol.

    labels: (n,) or (n, k); NaN entries and their gradient are excluded
    per-output. Classification needs both classes in every used output.
    """
    if features.ndim != 2 or len(features) != len(labels):
        raise DatasetError("features and labels must align")
    labels = labels.reshape(len(labels), -1).astype(np.float64)
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    x = (features - mean) / std
    present = ~np.isnan(labels)
    if task == "classification":
        for j in range(labels.shape[1]):
            col = labels[present[:, j], j]
            if len(np.unique(col)) < 2:
                raise DatasetError(f"output {j}: training fold has a single class")
    y = np.where(present, labels, 0.0)
    n_out = labels.shape[1]
    w = np.zeros((x.shape[1], n_out))
    b = np.zeros(n_out)
    counts = present.sum(axis=0).astype(np.float64)
    # Per-block steps (diagonal preconditioning): the ridge term only stiffens
    # the weight block, the bias is unregularized.
    lr_w = 1.0 / _lipschitz(x, lam, task)
    lr_b = 1.0 / (0.25 if task == "classification" else 1.0)

    for _ in range(max_iters):
        raw = x @ w + b
        if task == "classification":
            pred = 1.0 / (1.0 + np.exp(-raw))
        else:
            pred = raw
        err = np.where(present, pred - y, 0.0)
        gw = x.T @ err / counts + lam * w
        gb = err.sum(axis=0) / counts
        gnorm = math.sqrt(float((gw**2).sum() + (gb**2).sum()))
        if gnorm < tol:
            break
        w -= lr_w * gw
        b -= lr_b * gb
    return Probe(w, b, mean, std, task, lam)


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """P(random positive outranks random negative), ties counting one half.

    Mann-Whitney via midranks. Raises if either class is absent.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    neg = labels == 0
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise DatasetError("roc_auc needs both classes present")
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores), dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0  # midrank, 1-based
        i = j + 1
    rank_sum = float(ranks[pos].sum())
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def mean_roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Unweighted mean AUC over label columns with both classes present.

    Missing labels (NaN) are excluded per column; columns that end up
    single-class are skipped.
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(len(scores), -1)
    labels = np.asarray(labels, dtype=np.float64).reshape(len(labels), -1)
    aucs = []
    for j in range(labels.shape[1]):
        mask = ~np.isnan(labels[:, j])
        col = labels[mask, j]
        if len(np.unique(col)) < 2:
            continue
        aucs.append(roc_auc(scores[mask, j], col))
    if not aucs:
        raise DatasetError("no label column has both classes present")
    return float(np.mean(aucs))


def rmse(predictions: np.ndarray, labels: np.ndarray) -> float:
    predictions = np.asarray(predictions, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    if len(predictions) != len(labels) or len(labels) == 0:
        raise DatasetError("predictions and labels must have equal non-zero length")
    return float(np.sqrt(np.mean((predictions - labels) ** 2)))


@dataclass(frozen=True)
class PropertyResult:
    dataset: str
    task: str
    metric_name: str
    metric: float
    lam: float
    split_seed: int
    checkpoint_id: str
    dropped_rows: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "dataset": self.dataset,
                "task": self.task,
                "metric_name": self.metric_name,
                "metric": self.metric,
                "lambda": self.lam,
                "split_seed": self.split_seed,
                "checkpoint_id": self.checkpoint_id,
                "dropped_rows": self.dropped_rows,
            },
            sort_keys=True,
            indent=2,
        ) + "\n"


def evaluate_dataset(dataset: PropertyDataset, params, config: ModelConfig, vocab: Vocabulary,
                     seed: int = 0, ratios=(0.8, 0.1, 0.1), checkpoint_id: str = "",
                     lambda_grid=LAMBDA_GRID) -> PropertyResult:
    """Featurize, split, fit the probe per lambda, select on valid, score test."""
    features, kept, dropped = featurize(dataset, params, config, vocab)
    labels = dataset.labels[kept]
    smls = [dataset.smiles[i] for i in kept]
    reduced = PropertyDataset(dataset.name, dataset.task, tuple(smls), labels, dataset.dropped_invalid)
    assignment = split(reduced, ratios, seed)
    tr, va, te = (assignment.indices(f) for f in ("train", "valid", "test"))

    def metric(scores: np.ndarray, y: np.ndarray) -> float:
        if dataset.task == "classification":
            return mean_roc_auc(scores, y)
        return rmse(scores[:, 0], y[:, 0])

    best: tuple[float, float, Probe] | None = None
    for lam in lambda_grid:
        probe = train_probe(features[tr], labels[tr], dataset.task, lam)
        value = metric(probe.scores(features[va]), labels[va])
        # Higher is better for AUC, lower for RMSE.
        key = value if dataset.task == "classification" else -value
        if best is None or key > best[0]:
            best = (key, lam, probe)
    assert best is not None
    _, lam, probe = best
    test_metric = metric(probe.scores(features[te]), labels[te])
    return PropertyResult(
        dataset=dataset.name,
        task=dataset.task,
        metric_name="roc_auc" if dataset.task == "classification" else "rmse",
        metric=test_metric,
        lam=lam,
        split_seed=seed,
        checkpoint_id=checkpoint_id,
        dropped_rows=dropped + dataset.dropped_invalid,
    )
