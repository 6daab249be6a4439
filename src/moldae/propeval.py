"""Embedding-based property prediction: datasets, splits, probe, metrics.

Datasets are CSV files with a SMILES column and one or more label columns
named by a small key=value manifest (task type, smiles column, label
columns). Frozen model embeddings feed a standardized linear probe (logistic
for classification, ridge for regression) fitted exactly by Newton's method:
one step, the closed form, for ridge, and IRLS for logistic regression. The
regularization strength is picked on the validation fold.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import selfies
from .model import ModelConfig, check_embed_ids, embed
from .smiles import SmilesParseError, parse_smiles
from .tokenizer import Vocabulary, encode_ids
from .graph import GraphError, MolecularGraph

LAMBDA_GRID = (1e-3, 1e-2, 0.1, 1.0, 10.0)
SPLIT_RATIOS = (0.8, 0.1, 0.1)  # train, valid, test
NEWTON_STEPS = 50  # cap; ridge needs 1, logistic regression about 10


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
    graphs: tuple[MolecularGraph, ...] = ()  # the parsed rows, when the loader kept them

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
        graphs: list[MolecularGraph] = []
        rows: list[list[float]] = []
        dropped = 0
        for record in reader:
            text = (record[manifest.smiles_column] or "").strip()
            try:
                graph = parse_smiles(text)
            except (SmilesParseError, GraphError):
                dropped += 1
                continue
            values = []
            for col in manifest.label_columns:
                cell = (record[col] or "").strip()
                try:
                    values.append(float(cell) if cell else math.nan)
                except ValueError:
                    raise DatasetError(f"{path}:{reader.line_num}: label {col} {cell!r} "
                                       "is not a number") from None
            if all(math.isnan(v) for v in values):
                dropped += 1
                continue
            smiles.append(text)
            graphs.append(graph)
            rows.append(values)
    if not rows:
        raise DatasetError(f"{path}: no usable rows")
    labels = np.asarray(rows, dtype=np.float64)
    if manifest.task == "classification":
        present = labels[~np.isnan(labels)]
        if not np.isin(present, (0.0, 1.0)).all():
            raise DatasetError(f"{path}: classification labels must be 0/1")
    return PropertyDataset(manifest.name or Path(path).stem, manifest.task, tuple(smiles), labels, dropped,
                           tuple(graphs))


@dataclass(frozen=True)
class SplitAssignment:
    folds: tuple[str, ...]  # per-record "train" | "valid" | "test"

    def indices(self, fold: str) -> np.ndarray:
        return np.asarray([i for i, f in enumerate(self.folds) if f == fold])


def split(dataset: PropertyDataset, seed: int = 0) -> SplitAssignment:
    """Seeded shuffle, then contiguous train/valid/test assignment in SPLIT_RATIOS."""
    n = len(dataset)
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(round(SPLIT_RATIOS[0] * n))
    n_valid = int(round(SPLIT_RATIOS[1] * n))
    if n_train == 0 or n_valid == 0 or n_train + n_valid >= n:
        raise DatasetError(f"a fold would be empty for n={n} and ratios {SPLIT_RATIOS}")
    folds = [""] * n
    for pos, idx in enumerate(order):
        if pos < n_train:
            folds[idx] = "train"
        elif pos < n_train + n_valid:
            folds[idx] = "valid"
        else:
            folds[idx] = "test"
    return SplitAssignment(tuple(folds))


# What one bad molecule raises; the run goes on. RecursionError stays a reject
# as a guard: canonicalize's individualization search and the token decoder's
# branch nesting (at most 834 levels) still recurse.
REJECTS = (ValueError, RecursionError)


def embed_ids(graph: MolecularGraph, config: ModelConfig, vocab: Vocabulary) -> np.ndarray:
    """The encoder ids of one parsed molecule: grammar-encode, map to ids, check.

    A molecule that cannot be embedded raises one of REJECTS, whose message is
    the reason: a valence or alphabet error, or a sequence over max_len.
    """
    return check_embed_ids(encode_ids(selfies.encode(graph), vocab), config)


def featurize(dataset: PropertyDataset, params, config: ModelConfig, vocab: Vocabulary
              ) -> tuple[np.ndarray, np.ndarray, int]:
    """Embed every record; returns (features, row indices kept, dropped count).

    Rows the loader parsed are embedded from their graphs; otherwise each
    SMILES text is parsed here. A record that cannot be embedded (one of
    REJECTS) is dropped; the kept ones are encoded in one `embed` call, in
    length groups, and each row equals that molecule's lone embedding byte for
    byte.
    """
    ids: list[np.ndarray] = []
    kept: list[int] = []
    for i, text in enumerate(dataset.smiles):
        try:
            ids.append(embed_ids(dataset.graphs[i] if dataset.graphs else parse_smiles(text), config, vocab))
        except REJECTS:
            continue
        kept.append(i)
    if not kept:
        raise DatasetError("no record could be featurized")
    return embed(params, config, ids), np.asarray(kept), len(dataset) - len(kept)


@dataclass(frozen=True)
class Probe:
    """Linear model over standardized embedding features."""

    weights: np.ndarray  # (d, n_outputs)
    bias: np.ndarray  # (n_outputs,)
    mean: np.ndarray  # train-fold feature means
    std: np.ndarray  # train-fold feature stds
    task: str
    lam: float
    steps: int  # Newton steps taken
    grad_norm: float  # final gradient norm over all outputs

    def scores(self, features: np.ndarray) -> np.ndarray:
        z = (features - self.mean) / self.std
        raw = z @ self.weights + self.bias
        if self.task == "classification":
            return 1.0 / (1.0 + np.exp(-raw))
        return raw


def train_probe(features: np.ndarray, labels: np.ndarray, task: str, lam: float,
                tol: float = 1e-6) -> Probe:
    """Fit the probe by Newton's method to grad-norm < tol, else raise DatasetError.

    Per output: mean loss over the rows whose label is present (half squared
    error for ridge, negative log-likelihood for logistic) plus lam/2 |w|^2,
    bias unpenalized. Ridge takes one step (the closed form), logistic is IRLS
    with step halving wherever a full step would raise the objective.
    labels: (n,) or (n, k), NaN = missing. Classification needs both classes.
    """
    if features.ndim != 2 or len(features) != len(labels):
        raise DatasetError("features and labels must align")
    labels = labels.reshape(len(labels), -1).astype(np.float64)
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    present = ~np.isnan(labels)
    counts = present.sum(axis=0)
    unlabeled = np.flatnonzero(counts == 0)
    if unlabeled.size:
        raise DatasetError(f"output {unlabeled[0]}: no labels in the training fold")
    if task == "classification":
        for j in range(labels.shape[1]):
            col = labels[present[:, j], j]
            if len(np.unique(col)) < 2:
                raise DatasetError(f"output {j}: training fold has a single class")
    # Standardized features with a column of ones for the bias.
    a = np.hstack([(features - mean) / std, np.ones((len(features), 1))])
    penalty = np.append(np.full(features.shape[1], lam), 0.0)
    theta = np.zeros((a.shape[1], labels.shape[1]))

    def logistic_objective(th: np.ndarray, j: int) -> float:
        z = a[present[:, j]] @ th
        y = labels[present[:, j], j]
        return float((np.logaddexp(0.0, z) - y * z).mean() + 0.5 * (penalty * th * th).sum())

    for steps in range(NEWTON_STEPS + 1):
        pred = a @ theta
        if task == "classification":
            pred = 1.0 / (1.0 + np.exp(-pred))
        grad = a.T @ np.where(present, pred - labels, 0.0) / counts + penalty[:, None] * theta
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < tol:
            return Probe(theta[:-1], theta[-1], mean, std, task, lam, steps, grad_norm)
        if steps == NEWTON_STEPS:
            break
        # Curvature weight: 1 for ridge, p(1-p) for logistic; 0 where the label is missing.
        curv = present * (pred * (1.0 - pred) if task == "classification" else 1.0)
        for j in range(theta.shape[1]):
            hess = (a.T * curv[:, j]) @ a / counts[j] + np.diag(penalty)
            step = np.linalg.solve(hess, grad[:, j])
            if task == "classification":
                # On (nearly) separable folds a full step can overshoot, and plain IRLS
                # then runs off until p(1-p) underflows and the Hessian is singular.
                before = logistic_objective(theta[:, j], j)
                for _ in range(50):
                    if logistic_objective(theta[:, j] - step, j) <= before + 1e-12 * abs(before):
                        break
                    step *= 0.5
            theta[:, j] -= step
    norms = np.linalg.norm(grad, axis=0)
    worst = int(np.argmax(norms))
    raise DatasetError(f"output {worst}: probe did not converge in {NEWTON_STEPS} Newton steps "
                       f"at lambda={lam:g} (gradient norm {norms[worst]:.3g}, tol {tol:g})")


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


def mean_rmse(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Unweighted mean RMSE over label columns, each over its present labels.

    Missing labels (NaN) are excluded per column; columns with none present
    are skipped.
    """
    predictions = np.asarray(predictions, dtype=np.float64).reshape(len(predictions), -1)
    labels = np.asarray(labels, dtype=np.float64).reshape(len(labels), -1)
    values = []
    for j in range(labels.shape[1]):
        mask = ~np.isnan(labels[:, j])
        if mask.any():
            values.append(rmse(predictions[mask, j], labels[mask, j]))
    if not values:
        raise DatasetError("no label column has a label present")
    return float(np.mean(values))


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
    probe_steps: int  # Newton steps of the selected lambda's fit
    probe_grad_norm: float  # and its final gradient norm

    def to_json(self) -> str:
        payload = asdict(self)
        payload["lambda"] = payload.pop("lam")
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def evaluate_dataset(dataset: PropertyDataset, params, config: ModelConfig, vocab: Vocabulary,
                     seed: int = 0, checkpoint_id: str = "") -> PropertyResult:
    """Featurize, split (SPLIT_RATIOS), fit the probe per LAMBDA_GRID entry, select on valid, score test."""
    features, kept, dropped = featurize(dataset, params, config, vocab)
    labels = dataset.labels[kept]
    smls = [dataset.smiles[i] for i in kept]
    reduced = PropertyDataset(dataset.name, dataset.task, tuple(smls), labels, dataset.dropped_invalid)
    assignment = split(reduced, seed)
    tr, va, te = (assignment.indices(f) for f in ("train", "valid", "test"))

    metric = mean_roc_auc if dataset.task == "classification" else mean_rmse

    best: tuple[float, float, Probe] | None = None
    for lam in LAMBDA_GRID:
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
        probe_steps=probe.steps,
        probe_grad_norm=probe.grad_norm,
    )
