"""Acceptance suite: ten go/no-go criteria for the whole pipeline.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. The shared trained model (desk-default config on a 5,000-molecule
toy corpus) is built once per session; every stage is seeded, so the numbers
printed here reproduce bit-for-bit on a single-threaded BLAS.
"""

import ctypes
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from helpers import random_token_string, scalar_fingerprint, tanimoto
from moldae import selfies as sfm
from moldae.canon import canonicalize
from moldae.cli import main as cli_main
from moldae.corpus import sample_corpus
from moldae.genmetrics import GeneratedSet, build_report, generate_set
from moldae.graph import validate
from moldae.model import ModelConfig, batch_denoise_loss, init_model
from moldae.propeval import LAMBDA_GRID, PropertyDataset, rmse, roc_auc, split, train_probe
from moldae.smiles import parse_smiles
from moldae.tokenizer import BOS, EOS, MASK, CorruptedPair, build_vocab, encode_ids
from moldae.training import TrainSettings, load_model, tagged_rng, train

TRAIN_STEPS = 800
TRAIN_BUDGET_SECONDS = 30 * 60
GOLDEN = Path(__file__).with_name("golden_digests.json")


def report(criterion: int, detail: str) -> None:
    print(f"\n[PASS] criterion {criterion}: {detail}")


@dataclass
class ToyRun:
    corpus_smiles: list[str]
    vocab: object
    config: ModelConfig
    params: dict
    length_hist: np.ndarray
    initial_loss: float
    final_loss: float
    final_masked_acc: float
    train_seconds: float


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory) -> ToyRun:
    """Desk-default model trained on the 5,000-molecule toy corpus (seed-pinned)."""
    root = tmp_path_factory.mktemp("acceptance")
    molecules = sample_corpus(5000, seed=11)
    lines = [sfm.join_tokens(sfm.encode(parse_smiles(s))) for s in molecules]
    corpus_path = root / "toy.selfies"
    corpus_path.write_text("\n".join(lines) + "\n")
    vocab = build_vocab([sfm.split_selfies(l) for l in lines])
    config = ModelConfig(vocab_size=len(vocab))  # desk defaults: d=128, 4 heads, 2+2, ff=512
    started = time.perf_counter()
    _, log = train(corpus_path, vocab, config,
                   TrainSettings(steps=TRAIN_STEPS, batch_size=64, seed=0),
                   out_dir=root / "run")
    seconds = time.perf_counter() - started
    config, params, _, length_hist = load_model(root / "run" / "checkpoint_final.bin")
    return ToyRun(
        corpus_smiles=molecules,
        vocab=vocab,
        config=config,
        params=params,
        length_hist=length_hist,
        initial_loss=float(np.mean([r.loss for r in log.steps[:5]])),
        final_loss=float(np.mean([r.loss for r in log.steps[-20:]])),
        final_masked_acc=float(np.nanmean([r.masked_acc for r in log.steps[-20:]])),
        train_seconds=seconds,
    )


def test_criterion_1_grammar_totality():
    """10,000 random alphabet-valid strings all decode to valence-valid graphs."""
    rng = np.random.default_rng(314159)
    started = time.perf_counter()
    decoded = 0
    for _ in range(10_000):
        tokens = random_token_string(rng, int(rng.integers(1, 61)))
        validate(sfm.decode(tokens))
        decoded += 1
    elapsed = time.perf_counter() - started
    assert decoded == 10_000
    assert elapsed < 60.0
    report(1, f"10,000/10,000 random token strings decoded valid in {elapsed:.1f}s (< 60s)")


def test_criterion_2_grammar_roundtrip(corpus_1k):
    failures = []
    for smiles in corpus_1k:
        graph = parse_smiles(smiles)
        if canonicalize(sfm.decode(sfm.encode(graph))) != canonicalize(graph):
            failures.append(smiles)
    assert len(corpus_1k) >= 1000
    assert not failures, failures[:5]
    report(2, f"decode(encode(m)) canonical-identical for {len(corpus_1k)}/{len(corpus_1k)} molecules")


def test_criterion_3_reference_oracle_agreement(corpus_1k):
    sf_ref = pytest.importorskip(
        "selfies",
        reason="BLOCKED: reference `selfies` package unavailable in this environment "
        "(pip mirror carries no distribution; see tests/test_selfies_oracle.py for the "
        "full comparison, which runs wherever moldae[oracle] is installable).",
    )
    from test_selfies_oracle import (
        our_decode_canonical, reference_decode_canonical, shared_random_alphabet,
    )

    disagreements = []
    for smiles in corpus_1k:
        text = sfm.join_tokens(sfm.encode(parse_smiles(smiles)))
        if our_decode_canonical(text) != reference_decode_canonical(text):
            disagreements.append(text)
    alphabet = shared_random_alphabet()
    rng = np.random.default_rng(20240601)
    for _ in range(1000):
        length = int(rng.integers(1, 61))
        text = "".join(alphabet[int(i)] for i in rng.integers(0, len(alphabet), size=length))
        if our_decode_canonical(text) != reference_decode_canonical(text):
            disagreements.append(text)
    assert not disagreements, f"{len(disagreements)} disagreements: {disagreements[:5]}"
    report(3, f"reference agreement on {len(corpus_1k)} encoded + 1000 random strings "
              f"(selfies {sf_ref.__version__})")


GRAD_CONFIG = ModelConfig(vocab_size=12, d_model=8, n_heads=2, encoder_layers=1,
                          decoder_layers=1, ff_width=12, max_len=10)


def test_criterion_4_gradient_correctness(denoise_loss):
    """Every parameter coordinate vs central finite differences (f64, step 1e-5).

    Relative error < 1e-4 with a 1e-6 denominator floor: the difference
    quotient itself carries ~1e-10 absolute noise at step 1e-5, so a pure
    relative bound is unmeasurable for coordinates whose true gradient sits
    below that noise floor; every coordinate with |grad| >= 1e-6 must meet
    the pure relative bound.
    """
    params = init_model(GRAD_CONFIG, np.random.default_rng(0), dtype=np.float64)
    y = np.array([BOS, 5, 6, 7, 8, 9, EOS])
    x = y.copy()
    x[2], x[4] = MASK, MASK
    pair = CorruptedPair(x, y, (2, 4))
    _, grads = denoise_loss(params, GRAD_CONFIG, pair)

    def loss_at() -> float:
        loss, _ = batch_denoise_loss(params, GRAD_CONFIG, x[None], y[None],
                                     np.ones((1, len(y))))
        return float(loss.data)

    eps = 1e-5
    checked = 0
    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        gflat = grads[name].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up = loss_at()
            flat[j] = orig - eps
            dn = loss_at()
            flat[j] = orig
            fd = (up - dn) / (2 * eps)
            rel = abs(gflat[j] - fd) / max(abs(fd), abs(gflat[j]), 1e-6)
            worst = max(worst, rel)
            assert rel < 1e-4, (name, j, gflat[j], fd)
            checked += 1
    report(4, f"{checked} parameter coordinates within 1e-4 of finite differences "
              f"(worst {worst:.2e})")


def test_criterion_5_loss_floor(denoise_loss):
    params = init_model(GRAD_CONFIG, np.random.default_rng(1), dtype=np.float64)
    params["tok_emb"].data[...] = 0.0  # tied output projection zeroed
    y = np.array([BOS, 5, 6, 7, EOS])
    loss, _ = denoise_loss(params, GRAD_CONFIG, CorruptedPair(y.copy(), y, ()))
    gap = abs(loss - math.log(GRAD_CONFIG.vocab_size))
    assert gap < 1e-6
    report(5, f"zeroed-projection loss = ln(vocab) within {gap:.1e}")


def test_criterion_6_training_efficacy(toy_run):
    assert toy_run.train_seconds < TRAIN_BUDGET_SECONDS
    assert toy_run.final_loss < 0.5 * toy_run.initial_loss
    assert toy_run.final_masked_acc > 0.50
    report(6, f"loss {toy_run.initial_loss:.3f} -> {toy_run.final_loss:.3f} "
              f"({toy_run.final_loss / toy_run.initial_loss:.1%}), masked top-1 "
              f"{toy_run.final_masked_acc:.3f} in {toy_run.train_seconds / 60:.1f} min")


@pytest.fixture(scope="module")
def toy_generated(toy_run) -> GeneratedSet:
    """Criterion 7's 1,000 length-conditioned samples from the toy run."""
    return generate_set(toy_run.params, toy_run.config, toy_run.vocab, 1000, seed=99,
                        checkpoint_id="toy_run", length_hist=toy_run.length_hist)


def test_criterion_7_generation_protocol(toy_run, toy_generated):
    generated = toy_generated
    empty = sum(1 for c in generated.canonical if c is None)
    assert empty / len(generated) < 0.01, f"{empty} empty generations"
    # Every non-empty emission decodes to a valid molecule (grammar totality).
    # One of structural tokens only derives the empty graph, canonical None.
    for raw, canon in zip(generated.raw, generated.canonical):
        if raw:
            graph = validate(sfm.decode(sfm.split_selfies(raw)))
            assert canon == (canonicalize(graph) if len(graph) else None), raw
    training_canon = set(toy_run.corpus_smiles)
    rep = build_report(generated, training_canon, k=1000)
    assert 0.0 <= rep.intdiv1 <= 1.0 and 0.0 <= rep.intdiv2 <= 1.0

    # brute-force double-loop oracle on a 20-molecule subsample
    subsample = sorted(set(generated.valid()))[:20]
    sub = GeneratedSet(("",) * len(subsample), tuple(subsample))
    fps = [scalar_fingerprint(parse_smiles(s)) for s in subsample]
    sub_report = build_report(sub, set())
    for p, value in ((1, sub_report.intdiv1), (2, sub_report.intdiv2)):
        total = 0.0
        for fa in fps:
            for fb in fps:
                total += tanimoto(fa, fb) ** p
        expected = 1.0 - (total / len(fps) ** 2) ** (1.0 / p)
        assert abs(value - expected) <= 1e-12
    report(7, f"validity {rep.validity:.3f} (empty {empty}/1000), unique@1K {rep.unique_at_k:.3f}, "
              f"novelty {rep.novelty:.3f}, IntDiv1 {rep.intdiv1:.3f}, IntDiv2 {rep.intdiv2:.3f}; "
              f"20-subsample IntDiv matches brute force to 1e-12")


def test_criterion_8_metric_oracles():
    # roc_auc vs exhaustive pairwise enumeration, 50 random score/label sets
    rng = np.random.default_rng(88)
    for _ in range(50):
        n = int(rng.integers(4, 40))
        scores = rng.choice([0.1, 0.2, 0.3, 0.5, 0.9], size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        brute = float(np.mean([(1.0 if p > q else 0.5 if p == q else 0.0)
                               for p in pos for q in neg]))
        assert roc_auc(scores, labels) == pytest.approx(brute, abs=1e-12)
    # rmse vs brute force
    for _ in range(20):
        a, b = rng.normal(size=23), rng.normal(size=23)
        brute = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)) / 23)
        assert abs(rmse(a, b) - brute) <= 1e-12
    # IntDiv closed forms
    single = GeneratedSet(("",), (canonicalize(parse_smiles("CCO")),))
    assert build_report(single, set()).intdiv1 == 0.0
    a_, b_ = canonicalize(parse_smiles("C")), canonicalize(parse_smiles("O"))
    assert tanimoto(scalar_fingerprint(parse_smiles(a_)), scalar_fingerprint(parse_smiles(b_))) == 0.0
    pair_set = GeneratedSet(("", ""), (a_, b_))
    assert build_report(pair_set, set()).intdiv1 == pytest.approx(0.5, abs=1e-15)
    report(8, "roc_auc exact vs 50 exhaustive enumerations; rmse brute-force to 1e-12; "
              "IntDiv closed forms exact")


def test_criterion_9_embedding_sanity(toy_run):
    """Trained embeddings beat random-init embeddings on a structure probe.

    Surrogate label: degree of unsaturation (rings + double bonds + 2x triple
    bonds) — a computable structure property. Heavy-atom count is not usable
    here: mean-pooled positional embeddings make sequence length linearly
    decodable even at random init, so both probes saturate on it.
    """
    random_params = init_model(toy_run.config, tagged_rng(123, "init"))
    probe_smiles = sample_corpus(500, seed=77)
    graphs = [parse_smiles(s) for s in probe_smiles]
    label = np.array(
        [(len(g.bonds) - len(g) + 1)
         + sum(1 for _, _, o in g.bonds if o == 2)
         + 2 * sum(1 for _, _, o in g.bonds if o == 3) for g in graphs], dtype=float)

    def features(params):
        from moldae.model import embed

        return embed(params, toy_run.config, [encode_ids(sfm.encode(g), toy_run.vocab) for g in graphs])

    feats = {"trained": features(toy_run.params), "random": features(random_params)}

    def probe_rmse(f, seed):
        ds = PropertyDataset("dou", "regression", tuple(probe_smiles), label.reshape(-1, 1))
        assignment = split(ds, seed=seed)
        tr, va, te = (assignment.indices(x) for x in ("train", "valid", "test"))
        best = None
        for lam in LAMBDA_GRID:
            probe = train_probe(f[tr], label[tr].reshape(-1, 1), "regression", lam)
            v = rmse(probe.scores(f[va])[:, 0], label[va])
            if best is None or v < best[0]:
                best = (v, probe)
        return rmse(best[1].scores(f[te])[:, 0], label[te])

    results = []
    for seed in (0, 1, 2):
        trained_rmse = probe_rmse(feats["trained"], seed)
        random_rmse = probe_rmse(feats["random"], seed)
        assert trained_rmse < random_rmse, (seed, trained_rmse, random_rmse)
        results.append(f"seed {seed}: {trained_rmse:.3f} < {random_rmse:.3f}")
    report(9, "trained embeddings beat random init on degree-of-unsaturation RMSE "
              f"({'; '.join(results)})")


def run_pipeline(root: Path) -> dict[str, bytes]:
    """make-corpus -> convert -> train 100 steps -> generate 100 -> eval-gen, then embed,
    eval-prop and convert on a mixed file with rejects; each output's bytes by name."""
    corpus = root / "c.smiles"
    assert cli_main(["make-corpus", "--n", "150", "--seed", "21", "--output", str(corpus)]) == 0
    selfies_path = root / "c.selfies"
    assert cli_main(["convert", "--input", str(corpus), "--output", str(selfies_path)]) == 0
    run = root / "run"
    assert cli_main(["train", "--corpus", str(selfies_path), "--out-dir", str(run),
                     "--set", "d_model=32", "--set", "n_heads=2",
                     "--set", "encoder_layers=1", "--set", "decoder_layers=1",
                     "--set", "ff_width=64", "--set", "max_len=48",
                     "--set", "steps=100", "--set", "batch_size=16",
                     "--set", "seed=13"]) == 0
    ckpt = str(run / "checkpoint_final.bin")
    gen = root / "gen"
    assert cli_main(["generate", "--checkpoint", ckpt, "--out-dir", str(gen),
                     "--n", "100", "--seed", "31"]) == 0
    ev = root / "ev"
    assert cli_main(["eval-gen", "--generated", str(gen / "generated.selfies"),
                     "--training-canon", str(corpus), "--out-dir", str(ev)]) == 0
    molecules = corpus.read_text().splitlines()
    # Rejects: a syntax error, a charge outside the alphabet, an unclosed ring, and
    # (embed only) a chain over max_len.
    mixed = root / "mixed.smiles"
    mixed.write_text("\n".join(molecules[:20] + ["not_a_molecule", "", "C[O-]", "C1CC", "C" * 60]) + "\n")
    assert cli_main(["convert", "--input", str(mixed), "--output", str(root / "mixed.selfies")]) == 1
    assert cli_main(["embed", "--checkpoint", ckpt, "--input", str(mixed),
                     "--output", str(root / "embed.csv")]) == 1
    dataset = root / "data.csv"
    dataset.write_text("smiles,y\n" + "".join(f"{s},{len(s)}\n" for s in molecules[:80]))
    manifest = root / "task.manifest"
    manifest.write_text("task=regression\nsmiles=smiles\nlabels=y\nname=toy\n")
    assert cli_main(["eval-prop", "--checkpoint", ckpt, "--dataset", str(dataset),
                     "--manifest", str(manifest), "--out-dir", str(root / "prop"), "--seed", "2"]) == 0
    # The other config echoes hold this run's tmp paths, so they cannot be pinned.
    files = {
        "c.smiles": corpus,
        "c.smiles.config.txt": root / "c.smiles.config.txt",
        "c.selfies": selfies_path,
        "checkpoint": run / "checkpoint_final.bin",
        "generated.selfies": gen / "generated.selfies",
        "generated.smiles": gen / "generated.smiles",
        "generation_report.json": ev / "generation_report.json",
        "property_result.json": root / "prop" / "property_result.json",
    }
    for suffix in ("", ".rejects", ".rejects.json"):
        files[f"embed.csv{suffix}"] = root / f"embed.csv{suffix}"
        files[f"convert.selfies{suffix}"] = root / f"mixed.selfies{suffix}"
    return {name: path.read_bytes() for name, path in files.items()}


@pytest.fixture(scope="module")
def pipeline_outputs(tmp_path_factory) -> list[dict[str, bytes]]:
    """The outputs of two runs of `run_pipeline`."""
    return [run_pipeline(tmp_path_factory.mktemp(tag)) for tag in ("first", "second")]


def test_criterion_10_pipeline_determinism(pipeline_outputs):
    """train 100 steps -> generate 100 -> eval, twice, byte-identical outputs."""
    first, second = pipeline_outputs
    for key in first:
        assert first[key] == second[key], f"{key} differs between runs"
    payload = json.loads(first["generation_report.json"])
    report(10, "two seeded pipeline runs byte-identical across checkpoint, generations, "
               f"report, embeddings, property result and rejects (validity {payload['validity']:.3f})")


def openblas_core() -> str:
    """The kernel set OpenBLAS picked at run time (e.g. SkylakeX), or 'unknown'."""
    for path in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        corename.argtypes = []
        return corename().decode()
    return "unknown"


def blas_platform() -> str:
    """What float32 GEMM bits depend on: numpy version, BLAS build and its runtime core."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        return f"numpy {np.__version__}; blas unknown"
    return f"numpy {np.__version__}; {blas.get('name')} {blas.get('version')}; core {openblas_core()}"


def output_digests(toy_generated: GeneratedSet, pipeline_outputs) -> dict[str, dict[str, str]]:
    """sha256 of criterion 7's samples and of each output of criterion 10's first run."""
    samples = {
        "generated.selfies": "".join(f"{r}\n" for r in toy_generated.raw),
        "generated.smiles": "".join(f"{c or ''}\n" for c in toy_generated.canonical),
    }
    return {
        "criterion_7": {k: hashlib.sha256(v.encode()).hexdigest() for k, v in samples.items()},
        "criterion_10": {k: hashlib.sha256(v).hexdigest() for k, v in pipeline_outputs[0].items()},
    }


def test_outputs_match_golden_digests(toy_generated, pipeline_outputs):
    """Criteria 7 and 10 give the committed bytes on every platform the golden file knows.

    float32 GEMM bits differ between BLAS builds and kernel sets, so entries
    are keyed by `blas_platform()`; anywhere else the test is skipped with
    that key as its reason. A change that alters outputs on purpose updates
    tests/golden_digests.json and says why.
    """
    platform = blas_platform()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")).get(platform)
    if golden is None:
        pytest.skip(f"no golden digests for this platform: {platform}")
    assert output_digests(toy_generated, pipeline_outputs) == golden
    report(10, f"criteria 7 and 10 outputs equal the golden digests ({platform})")
