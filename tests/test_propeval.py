"""Property-prediction harness: metrics oracles, probe behavior, split hygiene."""

import importlib.util
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from moldae.propeval import (
    LAMBDA_GRID, DatasetError, PropertyDataset, TaskManifest, evaluate_dataset, featurize,
    load_dataset, mean_rmse, mean_roc_auc, rmse, roc_auc, split, train_probe,
)
from moldae.tokenizer import load_vocab
from moldae.training import load_params

ROOT = Path(__file__).resolve().parents[1]


def brute_force_auc(scores, labels):
    """Exhaustive Mann-Whitney enumeration over all positive/negative pairs."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def brute_force_rmse(pred, labels):
    return sum((p - l) ** 2 for p, l in zip(pred, labels)) ** 0.5 / len(pred) ** 0.5


def test_roc_auc_known_values():
    assert roc_auc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0
    assert roc_auc(np.array([0.5, 0.5, 0.5, 0.5]), np.array([1, 0, 1, 0])) == 0.5
    scores = np.array([0.1, 0.4, 0.35, 0.8])
    labels = np.array([0, 0, 1, 1])
    # pairs: (.35 vs .1)=1, (.35 vs .4)=0, (.8 vs .1)=1, (.8 vs .4)=1 -> 3/4
    assert roc_auc(scores, labels) == 0.75


def test_roc_auc_matches_exhaustive_enumeration_50_sets():
    rng = np.random.default_rng(88)
    for _ in range(50):
        n = int(rng.integers(4, 40))
        scores = rng.choice([0.1, 0.2, 0.3, 0.5, 0.9], size=n)  # forces ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert roc_auc(scores, labels) == pytest.approx(
            brute_force_auc(scores, labels), abs=1e-12)


def test_roc_auc_invariances():
    rng = np.random.default_rng(5)
    scores = rng.normal(size=30)
    labels = (rng.random(30) < 0.4).astype(int)
    labels[0], labels[1] = 0, 1
    base = roc_auc(scores, labels)
    assert roc_auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
    assert roc_auc(3 * scores + 7, labels) == pytest.approx(base, abs=1e-12)
    assert roc_auc(-scores, labels) == pytest.approx(1 - base, abs=1e-12)  # no ties here
    with pytest.raises(DatasetError):
        roc_auc(scores, np.ones(30))


def test_mean_roc_auc_multilabel_missing():
    scores = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.3], [0.2, np.nan]])
    labels = np.array([[1, 0], [1, 1], [0, np.nan], [0, np.nan]])
    # column 0: perfect (auc 1); column 1: one pos one neg, 0.1 < 0.2? labels (0, 1)
    col1 = roc_auc(np.array([0.1, 0.2]), np.array([0, 1]))
    assert mean_roc_auc(scores, labels) == pytest.approx((1.0 + col1) / 2)
    # single-class columns are skipped, not fatal
    labels2 = np.array([[1, 1], [1, 1], [0, np.nan], [0, np.nan]])
    assert mean_roc_auc(scores, labels2) == 1.0
    with pytest.raises(DatasetError):
        mean_roc_auc(scores, np.ones_like(labels))


def test_rmse_examples_and_oracle():
    assert rmse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(np.sqrt(12.5))
    rng = np.random.default_rng(2)
    for _ in range(10):
        a, b = rng.normal(size=17), rng.normal(size=17)
        assert rmse(a, b) == pytest.approx(brute_force_rmse(a, b), abs=1e-12)
        perm = rng.permutation(17)
        assert rmse(a[perm], b[perm]) == pytest.approx(rmse(a, b), abs=1e-12)
    with pytest.raises(DatasetError):
        rmse(np.array([1.0]), np.array([1.0, 2.0]))


def test_mean_rmse_per_column_over_present_labels():
    pred = np.array([[1.0, 0.0], [2.0, 5.0], [3.0, 1.0]])
    labels = np.array([[1.0, np.nan], [np.nan, 4.0], [5.0, np.nan]])
    assert mean_rmse(pred, labels) == pytest.approx((brute_force_rmse([1.0, 3.0], [1.0, 5.0]) + 1.0) / 2)
    labels[:, 1] = np.nan  # a column with no label present is skipped
    assert mean_rmse(pred, labels) == rmse([1.0, 3.0], [1.0, 5.0])
    with pytest.raises(DatasetError):
        mean_rmse(pred, np.full((3, 2), np.nan))
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=17), rng.normal(size=17)
    assert mean_rmse(a[:, None], b[:, None]) == rmse(a, b)  # one column: the same bits


def test_split_sizes_and_determinism():
    ds = PropertyDataset("t", "regression", tuple("X" * 1 for _ in range(10)),
                         np.zeros((10, 1)))
    a = split(ds, seed=4)
    assert sorted(a.folds).count("train") == 8
    assert sorted(a.folds).count("valid") == 1
    assert sorted(a.folds).count("test") == 1
    assert split(ds, seed=4).folds == a.folds
    with pytest.raises(DatasetError):
        split(PropertyDataset("t", "regression", ("C",) * 4, np.zeros((4, 1))), seed=0)


def test_split_differs_across_seeds():
    ds = PropertyDataset("t", "regression", ("C",) * 40, np.zeros((40, 1)))
    base = split(ds, seed=0).folds
    distinct = sum(split(ds, seed=s).folds != base for s in range(1, 101))
    assert distinct >= 99  # collisions possible in principle, vanishing in practice


def test_train_probe_separable_classification():
    rng = np.random.default_rng(0)
    x = np.vstack([rng.normal(loc=-2, size=(40, 2)), rng.normal(loc=2, size=(40, 2))])
    y = np.array([0] * 40 + [1] * 40, dtype=float)
    probe = train_probe(x, y, "classification", lam=1e-3)
    acc = ((probe.scores(x)[:, 0] > 0.5) == y).mean()
    assert acc == 1.0


def test_train_probe_ridge_recovers_weights():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(200, 4))
    w_true = np.array([1.5, -2.0, 0.5, 3.0])
    y = x @ w_true
    probe = train_probe(x, y, "regression", lam=1e-9, tol=1e-10)
    # undo standardization: effective slope in original units
    slope = probe.weights[:, 0] / probe.std
    assert np.allclose(slope, w_true, atol=1e-6)
    assert rmse(probe.scores(x)[:, 0], y) < 1e-6


def _objective_gradient(probe, x, y):
    """Gradient of the probe objective over the present labels, recomputed from the fit."""
    z = (x - probe.mean) / probe.std
    y = y.reshape(len(y), -1)
    present = ~np.isnan(y)
    err = np.where(present, probe.scores(x) - np.where(present, y, 0.0), 0.0)
    counts = present.sum(axis=0)
    return np.vstack([z.T @ err / counts + probe.lam * probe.weights, err.sum(axis=0) / counts])


def test_train_probe_ridge_matches_normal_equations_when_n_below_d():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(60, 80))
    y = x @ rng.normal(size=80) + rng.normal(size=60)
    lam = 1e-3
    probe = train_probe(x, y, "regression", lam=lam)
    # Independent solve of the normal equations with an unpenalized bias.
    a = np.hstack([(x - x.mean(axis=0)) / x.std(axis=0), np.ones((60, 1))])
    hess = a.T @ a / 60 + np.diag([lam] * 80 + [0.0])
    exact = np.linalg.solve(hess, a.T @ y / 60)
    assert np.allclose(probe.weights[:, 0], exact[:80], rtol=0, atol=1e-8)
    assert abs(probe.bias[0] - exact[80]) < 1e-8
    assert probe.steps == 1
    assert np.linalg.norm(_objective_gradient(probe, x, y)) < 1e-6
    assert probe.grad_norm < 1e-6


def test_train_probe_logistic_converges_on_separable_data():
    # Four latent factors plus noise: strongly correlated columns, as in embeddings.
    rng = np.random.default_rng(1)
    x = rng.normal(size=(60, 4)) @ rng.normal(size=(4, 80)) + 0.1 * rng.normal(size=(60, 80))
    y = (x @ rng.normal(size=80) > 0).astype(float)
    probe = train_probe(x, y, "classification", lam=1e-3)
    assert ((probe.scores(x)[:, 0] > 0.5) == y).all()
    assert np.linalg.norm(_objective_gradient(probe, x, y)) < 1e-6
    assert 1 < probe.steps <= 20 and probe.grad_norm < 1e-6


def _bench_inputs():
    """bench/inputs.py, which names the fixture model and its probe pool."""
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "bench" / "inputs.py")
    inputs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(inputs)
    return inputs


def test_batched_embed_of_probe_pool_equals_lone_embeddings(monkeypatch):
    """One `embed` call over the fixture's whole probe pool gives each molecule's lone bytes.

    Also in shuffled order, and with a chunk limit that splits every length
    group into encoder calls of a few rows.
    """
    from moldae import model
    from moldae.propeval import embed_ids
    from moldae.smiles import parse_smiles

    inputs = _bench_inputs()
    config, params = load_params(inputs.FIXTURE / inputs.MODEL_FILE)
    vocab = load_vocab(inputs.FIXTURE / inputs.VOCAB_FILE)
    ids = [embed_ids(parse_smiles(t), config, vocab) for t in inputs.read_pool(inputs.PROBE_POOL[0])]
    lone = np.stack([model.embed(params, config, [row])[0] for row in ids])
    assert lone.dtype == np.float32 and len(lone) == inputs.PROBE_POOL[1]
    assert np.array_equal(model.embed(params, config, ids), lone)
    order = np.random.default_rng(0).permutation(len(ids))
    assert np.array_equal(model.embed(params, config, [ids[i] for i in order]), lone[order])
    monkeypatch.setattr(model, "EMBED_CHUNK_POSITIONS", 64)
    assert np.array_equal(model.embed(params, config, ids), lone)


def test_logistic_probe_halves_overshooting_newton_steps():
    """A real fold on which full Newton steps overshoot at lambda=1e-3.

    Round 53 of the benchmark's embed-probe seed 41: fixture-model embeddings
    of 120 probe-pool molecules, "contains N" labels. Undamped IRLS raised the
    objective from its fifth step on, ran off until p(1-p) underflowed and
    died in `np.linalg.solve` on a singular Hessian.
    """
    inputs = _bench_inputs()
    config, params = load_params(inputs.FIXTURE / inputs.MODEL_FILE)
    vocab = load_vocab(inputs.FIXTURE / inputs.VOCAB_FILE)
    rnd = inputs.probe_round(41, 53)
    dataset = PropertyDataset("has_n", "classification", rnd.smiles, np.asarray(rnd.has_n).reshape(-1, 1))
    features, kept, _ = featurize(dataset, params, config, vocab)
    assert len(kept) == len(dataset)
    train = split(dataset, seed=rnd.split_seed).indices("train")
    probe = train_probe(features[train], dataset.labels[train], "classification", lam=1e-3)
    assert probe.grad_norm < 1e-6 and probe.steps < 20
    result = evaluate_dataset(dataset, params, config, vocab, seed=rnd.split_seed)
    assert 0.0 <= result.metric <= 1.0


def test_train_probe_unreachable_tolerance_raises():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(30, 3))
    with pytest.raises(DatasetError, match="lambda=0.1"):
        train_probe(x, x @ np.ones(3), "regression", lam=0.1, tol=0.0)
    with pytest.raises(DatasetError, match="output 0"):
        train_probe(x, (x[:, 0] > 0).astype(float), "classification", lam=0.1, tol=0.0)


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_train_probe_missing_labels_fit_each_output_on_its_rows(task):
    """Each output of a NaN-masked fit equals a one-output fit on that output's rows.

    The rows are two copies of one base set, and each output is present on
    exactly one copy of every base row, so both fits see the same
    standardization.
    """
    rng = np.random.default_rng(8)
    base = rng.normal(size=(40, 5))
    targets = base @ rng.normal(size=(5, 2)) + rng.normal(size=(40, 2))
    if task == "classification":
        targets = (targets > 0).astype(float)
    first = np.arange(40) < 25  # output 1 is present in the first copy only for these rows
    labels = np.full((80, 2), np.nan)
    labels[:40, 0] = targets[:, 0]
    labels[:40, 1] = np.where(first, targets[:, 1], np.nan)
    labels[40:, 1] = np.where(first, np.nan, targets[:, 1])
    joint = train_probe(np.vstack([base, base]), labels, task, lam=1e-2, tol=1e-10)
    for j in range(2):
        single = train_probe(base, targets[:, j], task, lam=1e-2, tol=1e-10)
        assert np.allclose(joint.weights[:, j], single.weights[:, 0], rtol=0, atol=1e-8)
        assert abs(joint.bias[j] - single.bias[0]) < 1e-8


def test_train_probe_large_lambda_shrinks_to_mean():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(100, 3))
    y = rng.normal(size=100) + 5.0
    probe = train_probe(x, y, "regression", lam=1e9)
    assert np.abs(probe.weights).max() < 1e-6
    assert np.allclose(probe.scores(x)[:, 0], y.mean(), atol=1e-3)


def test_train_probe_single_class_raises():
    x = np.random.default_rng(0).normal(size=(10, 2))
    with pytest.raises(DatasetError):
        train_probe(x, np.ones(10), "classification", lam=0.1)


def test_train_probe_output_without_labels_raises():
    x = np.random.default_rng(0).normal(size=(30, 3))
    labels = np.column_stack([x @ np.ones(3), np.full(30, np.nan), x[:, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DatasetError, match="output 1: no labels in the training fold"):
            train_probe(x, labels, "regression", lam=0.1)


def test_probe_standardization_uses_train_stats_only():
    """No leakage: probe statistics must equal the train-fold moments."""
    rng = np.random.default_rng(9)
    x_train = rng.normal(loc=3.0, size=(50, 4))
    y_train = rng.normal(size=50)
    probe = train_probe(x_train, y_train, "regression", lam=0.1)
    assert np.allclose(probe.mean, x_train.mean(axis=0))
    assert np.allclose(probe.std, x_train.std(axis=0))


def manifest_file(tmp_path, text):
    path = tmp_path / "task.manifest"
    path.write_text(text)
    return path


def test_manifest_parsing(tmp_path):
    m = TaskManifest.load(manifest_file(
        tmp_path, "task=regression\nsmiles=smiles\nlabels=logS\nname=sol\n"))
    assert m.task == "regression" and m.label_columns == ("logS",)
    with pytest.raises(DatasetError):
        TaskManifest.load(manifest_file(tmp_path, "task=ranking\nlabels=a\n"))
    with pytest.raises(DatasetError):
        TaskManifest.load(manifest_file(tmp_path, "task=regression\n"))


def test_load_dataset_drops_bad_smiles(tmp_path):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("smiles,y\nCCO,1.5\nnot_a_molecule,2.0\nCC,0.5\n")
    manifest = TaskManifest("regression", "smiles", ("y",))
    ds = load_dataset(csv_path, manifest)
    assert len(ds) == 2
    assert ds.dropped_invalid == 1
    csv_path.write_text("smiles,y\n")
    with pytest.raises(DatasetError):
        load_dataset(csv_path, manifest)
    csv_path.write_text("smiles,z\nCCO,1\n")
    with pytest.raises(DatasetError):
        load_dataset(csv_path, manifest)


def test_load_dataset_classification_labels_checked(tmp_path):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("smiles,y\nCCO,1\nCC,0.7\n")
    with pytest.raises(DatasetError):
        load_dataset(csv_path, TaskManifest("classification", "smiles", ("y",)))


@pytest.fixture(scope="module")
def toy_model():
    from moldae.model import ModelConfig, init_model
    from moldae.selfies import ALPHABET
    from moldae.tokenizer import build_vocab

    vocab = build_vocab([tuple(ALPHABET)])
    config = ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=2, encoder_layers=1,
                         decoder_layers=1, ff_width=16, max_len=64)
    params = init_model(config, np.random.default_rng(0))
    return params, config, vocab


def test_featurize_shape_and_duplicates(toy_model, corpus_small):
    params, config, vocab = toy_model
    smiles = list(corpus_small[:10]) + [corpus_small[0]]
    ds = PropertyDataset("t", "regression", tuple(smiles), np.zeros((11, 1)))
    features, kept, dropped = featurize(ds, params, config, vocab)
    assert features.shape == (11, config.d_model)
    assert dropped == 0
    assert np.array_equal(features[0], features[10])  # duplicate row, identical features


def test_featurize_matches_direct_embed(toy_model, corpus_small):
    from moldae import selfies as sf
    from moldae.model import embed
    from moldae.smiles import parse_smiles
    from moldae.tokenizer import encode_ids

    params, config, vocab = toy_model
    ds = PropertyDataset("t", "regression", tuple(corpus_small[:5]), np.zeros((5, 1)))
    features, _, _ = featurize(ds, params, config, vocab)
    for i, text in enumerate(ds.smiles):
        (direct,) = embed(params, config, [encode_ids(sf.encode(parse_smiles(text)), vocab)])
        assert np.array_equal(features[i], direct)


def test_featurize_drops_only_unembeddable_rows():
    """An over-max_len row and a row of unknown tokens only are dropped; kept rows equal lone embeddings."""
    from moldae import selfies as sf
    from moldae.model import ModelConfig, embed, init_model
    from moldae.propeval import embed_ids
    from moldae.smiles import parse_smiles
    from moldae.tokenizer import build_vocab

    smiles = ("CCO", "C" * 11, "CC(=O)O", "N", "OCCO", "CCC")
    vocab = build_vocab([sf.encode(parse_smiles(t)) for t in smiles if "N" not in t])
    config = ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=2, encoder_layers=1,
                         decoder_layers=1, ff_width=16, max_len=12)
    params = init_model(config, np.random.default_rng(1))
    with pytest.raises(ValueError, match="sequence length 13 exceeds max_len 12"):
        embed_ids(parse_smiles(smiles[1]), config, vocab)
    with pytest.raises(ValueError, match="no content tokens"):
        embed_ids(parse_smiles("N"), config, vocab)
    ds = PropertyDataset("t", "regression", smiles, np.zeros((len(smiles), 1)))
    features, kept, dropped = featurize(ds, params, config, vocab)
    assert kept.tolist() == [0, 2, 4, 5] and dropped == 2
    for row, i in zip(features, kept):
        assert np.array_equal(row, embed(params, config, [embed_ids(parse_smiles(smiles[i]), config, vocab)])[0])


def test_evaluate_dataset_multilabel_classification(toy_model, corpus_small):
    """Two binary labels with missing cells, scored as mean ROC-AUC."""
    from moldae.smiles import parse_smiles

    params, config, vocab = toy_model
    smiles = corpus_small[:80]
    labels = np.full((80, 2), np.nan)
    for i, s in enumerate(smiles):
        g = parse_smiles(s)
        labels[i, 0] = float(sum(a.element != "H" for a in g.atoms) > 8)
        if i % 3:  # second label sparsely observed
            labels[i, 1] = float(sum(a.element == "O" for a in g.atoms) > 0)
    ds = PropertyDataset("multilabel", "classification", tuple(smiles), labels)
    result = evaluate_dataset(ds, params, config, vocab, seed=2)
    assert result.metric_name == "roc_auc"
    assert 0.0 <= result.metric <= 1.0


def test_evaluate_dataset_end_to_end(toy_model, corpus_small, tmp_path):
    from moldae.smiles import parse_smiles

    params, config, vocab = toy_model
    smiles = corpus_small[:60]
    labels = np.array([[float(sum(a.element != "H" for a in parse_smiles(s).atoms))] for s in smiles])
    ds = PropertyDataset("toy", "regression", tuple(smiles), labels)
    result = evaluate_dataset(ds, params, config, vocab, seed=0)
    assert result.metric_name == "rmse"
    assert np.isfinite(result.metric)
    assert result.lam in (1e-3, 1e-2, 0.1, 1.0, 10.0)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_evaluate_dataset_scores_every_regression_column(toy_model, corpus_small):
    """Two label columns, each with missing labels in the valid and test folds.

    Lambda is selected on, and the test fold scored by, the mean over columns
    of each column's RMSE over its present labels; the result is strict JSON.
    """
    from moldae.smiles import parse_smiles

    params, config, vocab = toy_model
    smiles = corpus_small[:60]
    labels = np.array([[float(len(s)), float(sum(a.element == "C" for a in parse_smiles(s).atoms))]
                       for s in smiles])
    labels[1::3, 0] = np.nan
    labels[2::3, 1] = np.nan
    dataset = PropertyDataset("two", "regression", tuple(smiles), labels)
    result = evaluate_dataset(dataset, params, config, vocab, seed=0)

    features, kept, _ = featurize(dataset, params, config, vocab)
    y = labels[kept]
    folds = split(PropertyDataset("two", "regression", tuple(smiles[i] for i in kept), y), seed=0)
    tr, va, te = (folds.indices(f) for f in ("train", "valid", "test"))
    assert np.isnan(y[va]).any(axis=0).all() and np.isnan(y[te]).any(axis=0).all()  # the premise

    def brute_force_score(lam, rows):
        pred = train_probe(features[tr], y[tr], "regression", lam).scores(features[rows])
        per_column = []
        for j in range(y.shape[1]):
            present = [(p, l) for p, l in zip(pred[:, j], y[rows, j]) if not np.isnan(l)]
            per_column.append(brute_force_rmse(*zip(*present)))
        return sum(per_column) / len(per_column)

    valid = {lam: brute_force_score(lam, va) for lam in LAMBDA_GRID}
    assert result.lam == min(valid, key=valid.get)
    assert result.metric == pytest.approx(brute_force_score(result.lam, te), abs=1e-12)
    payload = json.loads(result.to_json(), parse_constant=_reject_constant)
    assert payload["metric"] == result.metric
