"""End-to-end CLI pipelines: smoke runs, exit codes, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from moldae.cli import main

TRAIN_CONFIG = """
# toy run
d_model=16
n_heads=2
encoder_layers=1
decoder_layers=1
ff_width=32
max_len=32
steps=30
batch_size=8
seed=7
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus_smiles = root / "corpus.smiles"
    rc = main(["make-corpus", "--n", "120", "--seed", "3", "--output", str(corpus_smiles)])
    assert rc == 0
    config = root / "train.config"
    config.write_text(TRAIN_CONFIG)
    return root, corpus_smiles, config


def test_make_corpus_output(workspace):
    root, corpus_smiles, _ = workspace
    lines = corpus_smiles.read_text().splitlines()
    assert len(lines) == 120
    assert len(set(lines)) == 120
    assert (root / "corpus.smiles.config.txt").exists()


def test_convert_roundtrip(workspace):
    root, corpus_smiles, _ = workspace
    selfies_path = root / "corpus.selfies"
    assert main(["convert", "--input", str(corpus_smiles), "--output", str(selfies_path)]) == 0
    assert (root / "corpus.selfies.rejects").read_text() == ""
    lines = selfies_path.read_text().splitlines()
    assert len(lines) == 120 and all(l.startswith("[") for l in lines)
    back = root / "back.smiles"
    assert main(["convert", "--input", str(selfies_path), "--output", str(back),
                 "--direction", "selfies-to-smiles"]) == 0
    from moldae.canon import canonicalize
    from moldae.smiles import parse_smiles

    for a, b in zip(corpus_smiles.read_text().splitlines(), back.read_text().splitlines()):
        assert canonicalize(parse_smiles(a)) == canonicalize(parse_smiles(b))


def test_convert_empty_file(tmp_path):
    src = tmp_path / "empty.smiles"
    src.write_text("")
    out = tmp_path / "out.selfies"
    assert main(["convert", "--input", str(src), "--output", str(out)]) == 0
    assert out.read_text() == ""


def test_convert_rejects_and_lenient(tmp_path):
    src = tmp_path / "in.smiles"
    src.write_text("CCO\nnot_a_molecule\nC[O-]\n")
    out = tmp_path / "out.selfies"
    assert main(["convert", "--input", str(src), "--output", str(out)]) == 1
    rejects = (Path(str(out) + ".rejects")).read_text().splitlines()
    assert len(rejects) == 2  # syntax error + charged atom outside the alphabet
    assert rejects[0].startswith("2\t")
    lines = out.read_text().split("\n")
    assert lines[0].startswith("[") and lines[1] == "" and lines[2] == ""
    assert main(["convert", "--input", str(src), "--output", str(out), "--lenient"]) == 0


def test_convert_missing_input_is_io_error(tmp_path):
    assert main(["convert", "--input", str(tmp_path / "nope"), "--output", str(tmp_path / "o")]) == 2


@pytest.fixture(scope="module")
def trained(workspace):
    root, corpus_smiles, config = workspace
    selfies_path = root / "corpus.selfies"
    if not selfies_path.exists():
        assert main(["convert", "--input", str(corpus_smiles), "--output", str(selfies_path)]) == 0
    out_dir = root / "run"
    rc = main(["train", "--corpus", str(selfies_path), "--out-dir", str(out_dir),
               "--config", str(config)])
    assert rc == 0
    return root, out_dir, selfies_path


RESOLVED = """batch_size=8
beta1=0.9
beta2=0.999
checkpoint_interval=0
d_model=16
decoder_layers=1
dropout=0.0
dtype=float32
encoder_layers=1
eps=1e-08
ff_width=32
mask_rate=0.15
max_len=32
n_heads=2
peak_lr=0.0003
seed=7
steps=30
warmup_frac=0.05
"""


def test_train_outputs(trained):
    from moldae.selfies import split_selfies
    from moldae.tokenizer import build_vocab
    from moldae.training import load_model

    _, out_dir, selfies_path = trained
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "checkpoint_final.bin", "config_resolved.txt", "trainlog.csv"]
    log_lines = (out_dir / "trainlog.csv").read_text().splitlines()
    assert log_lines[0] == "step,loss,masked_acc,seconds"
    assert len(log_lines) == 31
    # Every ModelConfig and TrainSettings field, typed as its default, plus the corpus.
    resolved = (out_dir / "config_resolved.txt").read_text().splitlines()
    assert [l for l in resolved if not l.startswith(("corpus=", "vocab_size="))] == RESOLVED.splitlines()
    _, _, vocab, _ = load_model(out_dir / "checkpoint_final.bin")
    assert vocab == build_vocab([split_selfies(l) for l in selfies_path.read_text().splitlines()])
    assert f"vocab_size={len(vocab)}" in resolved


def test_train_unknown_config_key_is_config_error(workspace, tmp_path):
    root, _, _ = workspace
    selfies_path = root / "corpus.selfies"
    rc = main(["train", "--corpus", str(selfies_path), "--out-dir", str(tmp_path / "x"),
               "--set", "d_modell=16"])
    assert rc == 3


def test_generate_and_eval_gen(trained):
    root, out_dir, selfies_path = trained
    gen_dir = root / "gen"
    rc = main(["generate", "--checkpoint", str(out_dir / "checkpoint_final.bin"),
               "--out-dir", str(gen_dir),
               "--n", "40", "--seed", "5"])
    assert rc == 0
    raw = (gen_dir / "generated.selfies").read_text().splitlines()
    smi = (gen_dir / "generated.smiles").read_text().splitlines()
    assert len(raw) == 40 and len(smi) == 40
    stats = json.loads((gen_dir / "generation_stats.json").read_text())
    assert stats["n"] == 40 and stats["empty"] == raw.count("")
    assert 0 <= stats["truncated"] <= 40
    assert stats["sampled_tokens"] >= 40 - stats["truncated"]  # every finished row sampled <eos>
    assert stats["seconds"] > 0
    assert stats["tokens_per_s"] == pytest.approx(stats["sampled_tokens"] / stats["seconds"], rel=1e-3)

    eval_dir = root / "eval"
    rc = main(["eval-gen", "--generated", str(gen_dir / "generated.selfies"),
               "--training-canon", str(root / "corpus.smiles"), "--out-dir", str(eval_dir)])
    assert rc == 0
    report = json.loads((eval_dir / "generation_report.json").read_text())
    assert report["counts"]["n"] == 40
    assert 0.0 <= report["validity"] <= 1.0
    assert 0.0 <= report["intdiv1"] <= 1.0


def test_eval_gen_counts_each_kind_of_line(tmp_path):
    """A molecule, a line that is not SELFIES, a blank line, an unknown token, a
    lone branch token (the empty molecule) and a novel molecule: two are valid."""
    generated = _write(tmp_path, "gen.selfies", "[C][C][O]\nC(\n\n[Xx]\n[Branch1]\n[C][=C]\n")
    training = _write(tmp_path, "train.smiles", "CCO\n")
    rc = main(["eval-gen", "--generated", generated, "--training-canon", training,
               "--out-dir", str(tmp_path / "ev")])
    assert rc == 0
    report = json.loads((tmp_path / "ev" / "generation_report.json").read_text())
    assert report["counts"] == {"n": 6, "valid": 2, "distinct_valid": 2, "novel": 1}


def test_embed_matrix(trained, tmp_path):
    root, out_dir, _ = trained
    src = tmp_path / "mols.smiles"
    src.write_text("CCO\nCC\nbadsmiles\n")
    out = tmp_path / "emb.csv"
    rc = main(["embed", "--checkpoint", str(out_dir / "checkpoint_final.bin"), "--input", str(src),
               "--output", str(out), "--lenient"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert len(lines[0].split(",")) == 16
    assert lines[2] == ""
    assert Path(str(out) + ".rejects").read_text().startswith("3\t")
    # strict mode fails on rejects
    rc = main(["embed", "--checkpoint", str(out_dir / "checkpoint_final.bin"), "--input", str(src),
               "--output", str(out)])
    assert rc == 1


def test_eval_prop_pipeline(trained, tmp_path):
    from moldae.smiles import parse_smiles

    root, out_dir, _ = trained
    molecules = (root / "corpus.smiles").read_text().splitlines()[:60]
    csv_path = tmp_path / "data.csv"
    rows = ["smiles,y"]
    rows += [f"{s},{float(sum(a.element != 'H' for a in parse_smiles(s).atoms))}" for s in molecules]
    csv_path.write_text("\n".join(rows) + "\n")
    manifest = tmp_path / "task.manifest"
    manifest.write_text("task=regression\nsmiles=smiles\nlabels=y\nname=toy\n")
    prop_dir = root / "prop"
    rc = main(["eval-prop", "--checkpoint", str(out_dir / "checkpoint_final.bin"),
               "--dataset", str(csv_path),
               "--manifest", str(manifest), "--out-dir", str(prop_dir), "--seed", "1"])
    assert rc == 0
    result = json.loads((prop_dir / "property_result.json").read_text())
    assert result["metric_name"] == "rmse"
    assert result["split_seed"] == 1
    assert result["probe_steps"] == 1  # ridge: the closed form in one Newton step
    assert 0.0 <= result["probe_grad_norm"] < 1e-6


def test_full_pipeline_byte_identical(tmp_path):
    """Two identical seeded runs produce byte-identical primary outputs."""
    outputs = []
    for tag in ("a", "b"):
        root = tmp_path / tag
        corpus = root / "c.smiles"
        assert main(["make-corpus", "--n", "60", "--seed", "9", "--output", str(corpus)]) == 0
        selfies_path = root / "c.selfies"
        assert main(["convert", "--input", str(corpus), "--output", str(selfies_path)]) == 0
        run = root / "run"
        assert main(["train", "--corpus", str(selfies_path), "--out-dir", str(run),
                     "--set", "d_model=16", "--set", "n_heads=2", "--set", "encoder_layers=1",
                     "--set", "decoder_layers=1", "--set", "ff_width=32", "--set", "max_len=32",
                     "--set", "steps=12", "--set", "batch_size=8", "--set", "seed=4"]) == 0
        gen = root / "gen"
        assert main(["generate", "--checkpoint", str(run / "checkpoint_final.bin"), "--out-dir", str(gen),
                     "--n", "25", "--seed", "2"]) == 0
        ev = root / "ev"
        assert main(["eval-gen", "--generated", str(gen / "generated.selfies"),
                     "--training-canon", str(corpus), "--out-dir", str(ev)]) == 0
        config_lines = [l for l in (run / "config_resolved.txt").read_text().splitlines()
                        if not l.startswith("corpus=")]  # path differs across tmp dirs
        outputs.append({
            "corpus": corpus.read_bytes(),
            "selfies": selfies_path.read_bytes(),
            "ckpt": (run / "checkpoint_final.bin").read_bytes(),
            "gen_selfies": (gen / "generated.selfies").read_bytes(),
            "gen_smiles": (gen / "generated.smiles").read_bytes(),
            "report": (ev / "generation_report.json").read_bytes(),
            "config": "\n".join(config_lines),
        })
    for key in outputs[0]:
        assert outputs[0][key] == outputs[1][key], key


CHAIN = "C" * 3000  # deeper than the interpreter's recursion limit, far over any model's max_len


def _truncated(run, tmp, size):
    path = tmp / f"truncated{size}.bin"
    path.write_bytes((run / "checkpoint_final.bin").read_bytes()[:size])
    return str(path)


V1_CHECKPOINT = Path(__file__).resolve().parents[1] / "bench" / "fixture" / "model.bin"  # no vocabulary


def _short_vocab(run, tmp):
    """The run's checkpoint with only the first 30 lines of its vocabulary."""
    from moldae.checkpoint import load_checkpoint, save_checkpoint

    config, tensors = load_checkpoint(run / "checkpoint_final.bin")
    texts = tensors["meta.vocab"].tobytes().decode().splitlines()[:30]
    tensors["meta.vocab"] = np.frombuffer(("\n".join(texts) + "\n").encode(), dtype=np.uint8)
    path = tmp / "vocab30.bin"
    save_checkpoint(path, config, tensors)
    return str(path)


def _without_adam(run, tmp):
    from moldae.checkpoint import load_checkpoint, save_checkpoint

    config, tensors = load_checkpoint(run / "checkpoint_final.bin")
    path = tmp / "no_adam.bin"
    save_checkpoint(path, config, {k: v for k, v in tensors.items() if not k.startswith("adam.")})
    return str(path)


def _edited(run, tmp, name, drop=None, put=None, **fields):
    """The run's checkpoint without tensor `drop`, with tensors `put` and config `fields` stored."""
    from dataclasses import replace

    from moldae.checkpoint import load_checkpoint, save_checkpoint

    config, tensors = load_checkpoint(run / "checkpoint_final.bin")
    tensors.pop(drop, None)
    tensors.update(put or {})
    path = tmp / f"{name}.bin"
    save_checkpoint(path, replace(config, **fields), tensors)
    return str(path)


def _non_utf8_name(run, tmp):
    """The run's checkpoint with one tensor name's first byte made 0xff."""
    data = (run / "checkpoint_final.bin").read_bytes()
    path = tmp / "badname.bin"
    path.write_bytes(data.replace(b"enc.0.ff.b1", b"\xffnc.0.ff.b1", 1))
    return str(path)


def _write(tmp, name, text):
    (tmp / name).write_text(text)
    return str(tmp / name)


def _generate(ckpt, out_dir):
    return ["generate", "--checkpoint", ckpt, "--out-dir", out_dir, "--n", "4"]


def _embed(ckpt, root, output):
    return ["embed", "--checkpoint", ckpt, "--input", str(root / "corpus.smiles"), "--output", output]


def _eval_prop(ckpt, root, tmp, rows=None):
    if rows is None:
        rows = [f"{s},{len(s)}" for s in (root / "corpus.smiles").read_text().splitlines()[:40]]
    dataset = _write(tmp, "data.csv", "smiles,y\n" + "\n".join(rows) + "\n")
    manifest = _write(tmp, "task.manifest", "task=regression\nsmiles=smiles\nlabels=y\n")
    return ["eval-prop", "--checkpoint", ckpt, "--dataset", dataset,
            "--manifest", manifest, "--out-dir", str(tmp / "prop")]


def _resume(root, tmp, ckpt, *extra, corpus=None):
    return ["train", "--corpus", corpus or str(root / "corpus.selfies"), "--out-dir", str(tmp / "t"),
            "--config", str(root / "train.config"), *extra, "--resume", ckpt]


def _reordered_corpus(root, tmp):
    lines = (root / "corpus.selfies").read_text().splitlines()
    return _write(tmp, "reordered.selfies", "\n".join(reversed(lines)) + "\n")


def _train_set(root, tmp, setting):
    return ["train", "--corpus", str(root / "corpus.selfies"), "--out-dir", str(tmp / "t"),
            "--config", str(root / "train.config"), "--set", setting]


def _make_corpus(tmp, n):
    return ["make-corpus", "--n", n, "--output", str(tmp / "corpus" / "c.smiles")]


def _below_file(tmp, name):
    (tmp / "plain").write_text("")
    return str(tmp / "plain" / name)


# (argv builder over (run dir, workspace root, tmp dir), exit code, text stderr must hold)
FAILURES = {
    "generate-truncated-checkpoint": (lambda run, root, tmp: _generate(
        _truncated(run, tmp, 1000), str(tmp / "gen")), 2, "truncated checkpoint"),
    "generate-truncated-config-block": (lambda run, root, tmp: _generate(
        _truncated(run, tmp, 40), str(tmp / "gen")), 2, "truncated40.bin"),
    "embed-truncated-checkpoint": (lambda run, root, tmp: _embed(
        _truncated(run, tmp, 1000), root, str(tmp / "e.csv")), 2, "truncated checkpoint"),
    "eval-prop-truncated-checkpoint": (lambda run, root, tmp: _eval_prop(
        _truncated(run, tmp, 1000), root, tmp), 2, "truncated checkpoint"),
    "eval-prop-non-numeric-label": (lambda run, root, tmp: _eval_prop(
        str(run / "checkpoint_final.bin"), root, tmp, rows=["CCO,1.5", "CC,heavy"]), 3, "data.csv:3:"),
    "eval-prop-nothing-to-probe": (lambda run, root, tmp: _eval_prop(
        str(run / "checkpoint_final.bin"), root, tmp, rows=[f"{'C' * 40},1.0"]), 1,
        "no record could be featurized"),
    "generate-out-dir-below-file": (lambda run, root, tmp: _generate(
        str(run / "checkpoint_final.bin"), _below_file(tmp, "gen")), 2, "plain"),
    "embed-output-below-file": (lambda run, root, tmp: _embed(
        str(run / "checkpoint_final.bin"), root, _below_file(tmp, "sub/e.csv")), 2, "plain"),
    "generate-v1-checkpoint-without-vocab": (lambda run, root, tmp: _generate(
        str(V1_CHECKPOINT), str(tmp / "gen")), 2, "model.bin: no vocabulary in checkpoint"),
    "generate-missing-parameter-tensor": (lambda run, root, tmp: _generate(
        _edited(run, tmp, "no_w1", drop="dec.0.ff.w1"), str(tmp / "gen")), 2,
        "no_w1.bin: missing tensor dec.0.ff.w1"),
    "embed-missing-decoder-tensor": (lambda run, root, tmp: _embed(
        _edited(run, tmp, "no_w1", drop="dec.0.ff.w1"), root, str(tmp / "e.csv")), 2,
        "no_w1.bin: missing tensor dec.0.ff.w1"),
    "embed-wrong-shape-bias": (lambda run, root, tmp: _embed(
        _edited(run, tmp, "short_b1", put={"enc.0.ff.b1": np.zeros(1, np.float32)}), root,
        str(tmp / "e.csv")), 2, "short_b1.bin: tensor enc.0.ff.b1 is float32 (1,), the config needs float (32,)"),
    "generate-string-config-field": (lambda run, root, tmp: _generate(
        _edited(run, tmp, "str_heads", n_heads="2"), str(tmp / "gen")), 2,
        "str_heads.bin: config field n_heads: '2' is not int"),
    "generate-indivisible-d-model": (lambda run, root, tmp: _generate(
        _edited(run, tmp, "d15", d_model=15), str(tmp / "gen")), 2,
        "d15.bin: config block: d_model 15 not divisible by n_heads 2"),
    "embed-non-utf8-tensor-name": (lambda run, root, tmp: _embed(
        _non_utf8_name(run, tmp), root, str(tmp / "e.csv")), 2, "badname.bin: tensor name at byte"),
    "train-resume-wrong-shape-adam-moment": (lambda run, root, tmp: _resume(
        root, tmp, _edited(run, tmp, "adam_b1", put={"adam.m.enc.0.ff.b1": np.zeros(1, np.float32)})), 2,
        "adam_b1.bin: tensor adam.m.enc.0.ff.b1 is float32 (1,)"),
    "generate-vocab-size-mismatch": (lambda run, root, tmp: _generate(
        _short_vocab(run, tmp), str(tmp / "gen")), 2, "vocab30.bin: vocabulary has 30 tokens"),
    "train-only-line-over-length": (lambda run, root, tmp: [
        "train", "--corpus", _write(tmp, "long.selfies", "[C]" * 40 + "\n"),
        "--out-dir", str(tmp / "t"), "--set", "max_len=16"], 1, "long.selfies"),
    "train-empty-corpus": (lambda run, root, tmp: [
        "train", "--corpus", _write(tmp, "empty.selfies", ""), "--out-dir", str(tmp / "t")], 2,
        "empty.selfies: empty corpus"),
    "train-unknown-dtype": (lambda run, root, tmp: [
        "train", "--corpus", str(root / "corpus.selfies"), "--out-dir", str(tmp / "t"),
        "--set", "dtype=float16"], 3, "config key dtype: 'float16'"),
    "train-negative-steps": (lambda run, root, tmp: _train_set(root, tmp, "steps=-1"), 3,
                             "config key steps: -1 is not >= 0"),
    "train-zero-batch-size": (lambda run, root, tmp: _train_set(root, tmp, "batch_size=0"), 3,
                              "config key batch_size: 0 is not >= 1"),
    "train-nan-peak-lr": (lambda run, root, tmp: _train_set(root, tmp, "peak_lr=nan"), 3,
                          "config key peak_lr: nan is not finite and > 0"),
    "train-negative-warmup-frac": (lambda run, root, tmp: _train_set(root, tmp, "warmup_frac=-1"), 3,
                                   "config key warmup_frac: -1.0 is not in [0, 1]"),
    "train-beta1-one": (lambda run, root, tmp: _train_set(root, tmp, "beta1=1"), 3,
                        "config key beta1: 1.0 is not in [0, 1)"),
    "train-negative-beta2": (lambda run, root, tmp: _train_set(root, tmp, "beta2=-0.5"), 3,
                             "config key beta2: -0.5 is not in [0, 1)"),
    "train-zero-eps": (lambda run, root, tmp: _train_set(root, tmp, "eps=0"), 3,
                       "config key eps: 0.0 is not finite and > 0"),
    "train-infinite-eps": (lambda run, root, tmp: _train_set(root, tmp, "eps=inf"), 3,
                           "config key eps: inf is not finite and > 0"),
    "train-negative-seed": (lambda run, root, tmp: _train_set(root, tmp, "seed=-1"), 3,
                            "config key seed: -1 is not >= 0"),
    "make-corpus-negative-seed": (lambda run, root, tmp: _make_corpus(tmp, "5") + ["--seed", "-1"], 3,
                                  "make-corpus --seed must be >= 0, got -1"),
    "generate-negative-seed": (lambda run, root, tmp: _generate(
        str(run / "checkpoint_final.bin"), str(tmp / "gen")) + ["--seed", "-1"], 3,
        "generate --seed must be >= 0, got -1"),
    "eval-prop-negative-seed": (lambda run, root, tmp: _eval_prop(
        str(run / "checkpoint_final.bin"), root, tmp) + ["--seed", "-2"], 3,
        "eval-prop --seed must be >= 0, got -2"),
    "train-mask-rate-above-one": (lambda run, root, tmp: _train_set(root, tmp, "mask_rate=2"), 3,
                                  "config key mask_rate: 2.0 is not in [0, 1]"),
    "train-negative-checkpoint-interval": (lambda run, root, tmp: _train_set(
        root, tmp, "checkpoint_interval=-1"), 3, "config key checkpoint_interval: -1 is not >= 0"),
    "generate-nan-temperature": (lambda run, root, tmp: _generate(
        str(run / "checkpoint_final.bin"), str(tmp / "gen")) + ["--temperature", "nan"],
        1, "temperature must be finite and > 0, got nan"),
    "make-corpus-zero-n": (lambda run, root, tmp: _make_corpus(tmp, "0"), 3,
                           "make-corpus --n must be >= 1, got 0"),
    "make-corpus-negative-n": (lambda run, root, tmp: _make_corpus(tmp, "-3"), 3,
                               "make-corpus --n must be >= 1, got -3"),
    "make-corpus-max-tokens-below-4": (lambda run, root, tmp: _make_corpus(tmp, "5") + ["--max-tokens", "3"],
                                       3, "make-corpus --max-tokens must be >= 4, got 3"),
    "generate-without-length-hist": (lambda run, root, tmp: _generate(
        _edited(run, tmp, "nohist", drop="meta.length_hist"), str(tmp / "gen")), 2,
        "nohist.bin: missing tensor meta.length_hist"),
    "generate-length-hist-too-long": (lambda run, root, tmp: _generate(_edited(
        run, tmp, "hist40", put={"meta.length_hist": np.eye(40, dtype=np.float32)[39]}), str(tmp / "gen")), 2,
        "hist40.bin: tensor meta.length_hist is float32 (40,)"),
    "generate-length-hist-all-zero": (lambda run, root, tmp: _generate(_edited(
        run, tmp, "hist0", put={"meta.length_hist": np.zeros(31, np.float32)}), str(tmp / "gen")), 2,
        "hist0.bin: tensor meta.length_hist"),
    "generate-length-hist-nan": (lambda run, root, tmp: _generate(_edited(
        run, tmp, "histnan", put={"meta.length_hist": np.where(np.arange(31) == 5, np.nan, 1).astype(np.float32)}),
        str(tmp / "gen")), 2, "histnan.bin: tensor meta.length_hist"),
    "generate-length-hist-negative": (lambda run, root, tmp: _generate(_edited(
        run, tmp, "histneg", put={"meta.length_hist": np.where(np.arange(31) == 3, -1, 1).astype(np.float32)}),
        str(tmp / "gen")), 2, "histneg.bin: tensor meta.length_hist"),
    "train-resume-without-adam-state": (lambda run, root, tmp: _resume(
        root, tmp, _without_adam(run, tmp)), 2, "no_adam.bin: missing tensor adam.m."),
    "train-resume-bad-magic": (lambda run, root, tmp: _resume(
        root, tmp, _write(tmp, "bad.bin", "garbage")), 2, "bad.bin: not a checkpoint file (bad magic)"),
    "train-resume-other-model-config": (lambda run, root, tmp: _resume(
        root, tmp, str(run / "checkpoint_final.bin"), "--set", "ff_width=48"), 2,
        "checkpoint_final.bin: checkpoint model config differs"),
    "train-resume-other-seed": (lambda run, root, tmp: _resume(
        root, tmp, str(run / "checkpoint_final.bin"), "--set", "seed=8"), 2,
        "checkpoint was trained with other settings: seed 7 -> 8"),
    "train-resume-reordered-corpus": (lambda run, root, tmp: _resume(
        root, tmp, str(run / "checkpoint_final.bin"), corpus=_reordered_corpus(root, tmp)), 2,
        "checkpoint vocabulary differs from the corpus's"),
    "generate-missing-required-flags": (lambda run, root, tmp: [
        "generate", "--n", "4"], 3, "the following arguments are required: --checkpoint"),
    "convert-bad-direction": (lambda run, root, tmp: [
        "convert", "--input", "a", "--output", "b", "--direction", "sideways"], 3,
        "invalid choice: 'sideways'"),
    "train-unreadable-config": (lambda run, root, tmp: [
        "train", "--corpus", str(root / "corpus.selfies"), "--out-dir", str(tmp / "t"),
        "--config", str(tmp / "missing.config")], 2, "missing.config"),
    "generate-max-len-below-2": (lambda run, root, tmp: _generate(
        str(run / "checkpoint_final.bin"), str(tmp / "gen")) + ["--max-len", "1"],
        1, "max_len must be >= 2"),
    "eval-gen-bad-training-molecule": (lambda run, root, tmp: [
        "eval-gen", "--generated", _write(tmp, "gen.selfies", "[C][C][O]\n"),
        "--training-canon", _write(tmp, "train.smiles", "CCO\nC1CC\n"),
        "--out-dir", str(tmp / "ev")], 1, "train.smiles:2:"),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_failures_exit_with_documented_code(case, trained, tmp_path, capsys):
    root, run, _ = trained
    build, code, message = FAILURES[case]
    rc = main(build(run, root, tmp_path))
    err = capsys.readouterr().err
    assert rc == code, err
    assert "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("bad", [["--max-len", "1"], ["--temperature", "0"], ["--temperature", "nan"]])
def test_failed_generate_leaves_no_out_dir(bad, trained, tmp_path, capsys):
    root, run, _ = trained
    out_dir = tmp_path / "gen"
    assert main(_generate(str(run / "checkpoint_final.bin"), str(out_dir)) + bad) == 1
    assert "error: " in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("case", ["make-corpus-zero-n", "make-corpus-negative-n", "make-corpus-max-tokens-below-4",
                                  "make-corpus-negative-seed"])
def test_failed_make_corpus_writes_nothing(case, tmp_path):
    build, code, _ = FAILURES[case]
    assert main(build(None, None, tmp_path)) == code == 3
    assert not (tmp_path / "corpus").exists()


def test_failed_train_leaves_no_out_dir(trained, tmp_path, capsys):
    root, run, _ = trained
    build, code, _ = FAILURES["train-only-line-over-length"]
    assert main(build(run, root, tmp_path)) == code == 1
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("case", ["train-resume-bad-magic", "train-resume-other-model-config",
                                  "train-resume-without-adam-state", "train-resume-other-seed",
                                  "train-resume-reordered-corpus"])
def test_failed_resume_writes_nothing(case, trained, tmp_path, capsys):
    """The --resume checkpoint is checked before --out-dir or config_resolved.txt exist."""
    root, run, _ = trained
    build, code, _ = FAILURES[case]
    assert main(build(run, root, tmp_path)) == code == 2
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


def test_eval_prop_parses_each_row_once(trained, tmp_path, monkeypatch):
    import dataclasses

    from moldae import propeval
    from moldae.training import load_model

    root, run, _ = trained
    ckpt = str(run / "checkpoint_final.bin")
    rows = [f"{s},{len(s)}" for s in (root / "corpus.smiles").read_text().splitlines()[:60]]
    rows += ["not_a_molecule,1.0", "CCO,"]  # dropped: unparsable, and no label
    calls = []
    parse = propeval.parse_smiles
    monkeypatch.setattr(propeval, "parse_smiles", lambda text: calls.append(text) or parse(text))
    assert main(_eval_prop(ckpt, root, tmp_path, rows=rows)) == 0
    assert len(calls) == len(rows) == 62
    # Embedding from the loader's graphs gives the result parsing each text would.
    manifest = propeval.TaskManifest.load(tmp_path / "task.manifest")
    unparsed = dataclasses.replace(propeval.load_dataset(tmp_path / "data.csv", manifest), graphs=())
    config, params, vocab, _ = load_model(ckpt)
    result = propeval.evaluate_dataset(unparsed, params, config, vocab,
                                       checkpoint_id=Path(ckpt).name)
    assert result.to_json() == (tmp_path / "prop" / "property_result.json").read_text()


def test_train_reads_corpus_once(trained, tmp_path, monkeypatch):
    from moldae import training

    root, _, _ = trained
    calls = []
    load = training.load_token_corpus
    monkeypatch.setattr(training, "load_token_corpus", lambda *a: calls.append(a) or load(*a))
    assert main(["train", "--corpus", str(root / "corpus.selfies"), "--out-dir", str(tmp_path / "t"),
                 "--config", str(root / "train.config"), "--set", "steps=2"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["generate", "embed", "eval-prop"])
def test_model_commands_read_checkpoint_once(command, trained, tmp_path, monkeypatch):
    from moldae import training

    root, run, _ = trained
    calls = []
    load = training.load_checkpoint
    monkeypatch.setattr(training, "load_checkpoint", lambda path: calls.append(path) or load(path))
    ckpt = str(run / "checkpoint_final.bin")
    argv = {"generate": _generate(ckpt, str(tmp_path / "gen")),
            "embed": _embed(ckpt, root, str(tmp_path / "e.csv")) + ["--lenient"],
            "eval-prop": _eval_prop(ckpt, root, tmp_path)}[command]
    assert main(argv) == 0
    assert calls == [ckpt]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["generate", "--help"]) == 0
    assert "usage: moldae" in capsys.readouterr().out


def test_deep_chain_converts_and_embed_rejects_it_as_over_max_len(trained, tmp_path):
    root, run, _ = trained
    src = _write(tmp_path, "in.smiles", f"CCO\n{CHAIN}\n")
    out = tmp_path / "out.selfies"
    assert main(["convert", "--input", src, "--output", str(out)]) == 0
    assert out.read_text().split("\n")[:2] == ["[C][C][O]", "[C]" * 3000]
    back = tmp_path / "back.smiles"
    assert main(["convert", "--direction", "selfies-to-smiles",
                 "--input", str(out), "--output", str(back)]) == 0
    assert back.read_text().split("\n")[:2] == ["CCO", CHAIN]
    emb = tmp_path / "emb.csv"
    argv = ["embed", "--checkpoint", str(run / "checkpoint_final.bin"), "--input", src, "--output", str(emb)]
    assert main(argv) == 1
    assert (tmp_path / "emb.csv.rejects").read_text().startswith("2\t")
    assert "exceeds max_len" in (tmp_path / "emb.csv.rejects").read_text()
    assert json.loads((tmp_path / "emb.csv.rejects.json").read_text())["by_type"] == {"ValueError": 1}
    assert emb.read_text().split("\n")[1] == ""
    assert main(argv + ["--lenient"]) == 0


def test_reject_reasons_counted_by_type(trained, tmp_path):
    """<output>.rejects.json counts a bad SMILES and two lines over max_len by type."""
    root, run, _ = trained
    src = _write(tmp_path, "mixed.smiles", f"CCO\nC1CC\n\n{'C' * 40}\n{CHAIN}\nCCN\n")
    out = tmp_path / "out.selfies"
    assert main(["convert", "--input", src, "--output", str(out)]) == 1
    assert json.loads((tmp_path / "out.selfies.rejects.json").read_text()) == {
        "lines": 6, "rejected": 1, "by_type": {"SmilesParseError": 1}}
    emb = tmp_path / "emb.csv"
    assert main(["embed", "--checkpoint", str(run / "checkpoint_final.bin"),
                 "--input", src, "--output", str(emb)]) == 1
    counts = json.loads((tmp_path / "emb.csv.rejects.json").read_text())
    assert counts == {"lines": 6, "rejected": 3,
                      "by_type": {"SmilesParseError": 1, "ValueError": 2}}
    reasons = (tmp_path / "emb.csv.rejects").read_text().splitlines()
    assert [r.split("\t")[0] for r in reasons] == ["2", "4", "5"]
    assert "exceeds max_len" in reasons[1]
    clean = _write(tmp_path, "clean.smiles", "CCO\n")
    assert main(["convert", "--input", clean, "--output", str(out)]) == 0
    assert json.loads((tmp_path / "out.selfies.rejects.json").read_text()) == {
        "lines": 1, "rejected": 0, "by_type": {}}


def test_embed_rejects_only_unembeddable_lines(trained, tmp_path):
    """An over-max_len line and a line of unknown tokens only are rejected, with today's reasons;
    every other line equals its embedding alone, byte for byte."""
    root, run, _ = trained
    ckpt = str(run / "checkpoint_final.bin")
    lines = ["CCO", "C" * 40, "[H][H]", "CC(=O)O", "", "CCN", "CCO"]
    out = tmp_path / "emb.csv"
    assert main(["embed", "--checkpoint", ckpt, "--input", _write(tmp_path, "in.smiles", "\n".join(lines) + "\n"),
                 "--output", str(out)]) == 1
    assert (tmp_path / "emb.csv.rejects").read_text() == (
        "2\tsequence length 42 exceeds max_len 32\n3\tsequence has no content tokens to embed\n")
    assert json.loads((tmp_path / "emb.csv.rejects.json").read_text()) == {
        "lines": 7, "rejected": 2, "by_type": {"ValueError": 2}}
    rows = out.read_text().split("\n")
    assert rows[1:3] == ["", ""] and rows[4] == "" and rows[7:] == [""]
    for i in (0, 3, 5, 6):
        alone = tmp_path / f"alone{i}.csv"
        assert main(["embed", "--checkpoint", ckpt, "--input", _write(tmp_path, f"in{i}.smiles", lines[i] + "\n"),
                     "--output", str(alone)]) == 0
        assert alone.read_text() == rows[i] + "\n" and rows[i].count(",") == 15


def test_per_line_output_does_not_depend_on_the_chunk(trained, tmp_path, monkeypatch):
    """embed and convert write the same bytes when every chunk boundary cuts through
    blank, rejected and embedded lines."""
    import moldae.cli as cli

    root, run, _ = trained
    ckpt = str(run / "checkpoint_final.bin")
    lines = ["CCO", "C" * 40, "", "CC(=O)O", "[H][H]", "C1CC", "c1ccccc1", "", "CCO", "OCCN"]
    src = _write(tmp_path, "in.smiles", "\n".join(lines) + "\n")
    outputs = {}
    for chunk in (cli.PER_LINE_CHUNK, 3, 1):
        monkeypatch.setattr(cli, "PER_LINE_CHUNK", chunk)
        for command in ("embed", "convert"):
            out = tmp_path / f"{command}{chunk}.txt"
            argv = [command, "--input", src, "--output", str(out)]
            argv += ["--checkpoint", ckpt] if command == "embed" else []
            assert main(argv) == 1
            outputs.setdefault(command, set()).add(tuple(
                Path(f"{out}{suffix}").read_bytes() for suffix in ("", ".rejects", ".rejects.json")))
    assert len(outputs["embed"]) == len(outputs["convert"]) == 1
    (embedded, rejects, _), = outputs["embed"]
    rows = embedded.decode().split("\n")
    assert [i for i, row in enumerate(rows) if row] == [0, 3, 6, 8, 9]
    assert rows[0] == rows[8] and rejects.decode().count("\n") == 3


def test_atomic_write_keeps_previous_file_on_error(tmp_path):
    from moldae.checkpoint import atomic_write, write_text

    path = tmp_path / "out.csv"
    write_text(path, "previous\n")
    with pytest.raises(UnicodeEncodeError):  # a lone surrogate fails to encode partway through
        write_text(path, "x" * 100_000 + "\ud800")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("partial\n")
            raise RuntimeError("interrupted")
    assert path.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_eval_prop_drops_too_deep_molecule(trained, tmp_path):
    root, run, _ = trained
    ckpt = str(run / "checkpoint_final.bin")
    rows = [f"{s},{len(s)}" for s in (root / "corpus.smiles").read_text().splitlines()[:40]]
    results = []
    for tag, extra in (("plain", []), ("chain", [f"{CHAIN},3000"])):
        tmp = tmp_path / tag
        tmp.mkdir()
        assert main(_eval_prop(ckpt, root, tmp, rows=rows[:20] + extra + rows[20:])) == 0
        results.append(json.loads((tmp / "prop" / "property_result.json").read_text()))
    plain, chain = results
    assert chain["dropped_rows"] == plain["dropped_rows"] + 1
    assert {k: v for k, v in chain.items() if k != "dropped_rows"} == \
        {k: v for k, v in plain.items() if k != "dropped_rows"}


def test_process_exit_code_without_traceback(trained, tmp_path):
    """The real process boundary: `python -m moldae` exits 2 with a one-line error."""
    import moldae

    _, run, _ = trained
    env = dict(os.environ, PYTHONPATH=str(Path(moldae.__file__).parents[1]))
    argv = _generate(str(run / "checkpoint_final.bin"), _below_file(tmp_path, "gen"))
    proc = subprocess.run([sys.executable, "-m", "moldae", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
