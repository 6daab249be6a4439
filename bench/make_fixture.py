"""Rebuild the benchmark's committed data and `digests.json`. Seeded throughout.

    python3 bench/make_fixture.py

Writes under `fixture/`:

- `model.bin`, `vocab.txt`: one desk-default model (d=128, 4 heads, 2+2
  layers, ff=512) trained with the acceptance recipe: the 5,000-molecule
  corpus with seed 11, 800 steps, batch 64, seed 0. The file keeps the
  parameters and the training length histogram, not the Adam moments.
- `corpus.smiles`: that training corpus, the pool the `train` workload draws
  from and the training set `chem` measures novelty against.
- `probe.smiles`: `sample_corpus(2000, seed=77)`, the `embed-probe` pool.

Then records the files' sha256, the seed-0 canary input digests and the
sha256 of the frozen copy `moldae_frozen/` (see reference.py) in
`digests.json`. Training takes about three minutes on one core; the
`generate` and `embed-probe` workloads only load the result, so a change to
training arithmetic cannot shift their sample lengths or probe iterations.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import reference  # noqa: E402
from moldae import selfies  # noqa: E402
from moldae.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from moldae.corpus import sample_corpus  # noqa: E402
from moldae.model import ModelConfig  # noqa: E402
from moldae.smiles import parse_smiles  # noqa: E402
from moldae.tokenizer import build_vocab, save_vocab  # noqa: E402
from moldae.training import TrainSettings, train  # noqa: E402

SETTINGS = TrainSettings(steps=800, batch_size=64, seed=0)
WORKLOADS = ("train", "generate", "embed-probe", "chem")


def write_pool(pool: tuple[str, int, int]) -> list[str]:
    name, n, seed = pool
    molecules = sample_corpus(n, seed=seed)
    (inputs.FIXTURE / name).write_text("\n".join(molecules) + "\n", encoding="utf-8")
    return molecules


def main() -> int:
    inputs.FIXTURE.mkdir(exist_ok=True)
    molecules = write_pool(inputs.CORPUS_POOL)
    write_pool(inputs.PROBE_POOL)

    lines = [selfies.join_tokens(selfies.encode(parse_smiles(s))) for s in molecules]
    vocab = build_vocab([selfies.split_selfies(line) for line in lines])
    config = ModelConfig(vocab_size=len(vocab))
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        corpus_path = Path(tmp) / "corpus.selfies"
        corpus_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        _, log = train(corpus_path, vocab, config, SETTINGS, out_dir=Path(tmp) / "run")
        config, tensors = load_checkpoint(Path(tmp) / "run" / "checkpoint_final.bin")
    kept = {k: v for k, v in tensors.items()
            if not k.startswith(("adam.m.", "adam.v.")) and k != "meta.step"}
    save_checkpoint(inputs.FIXTURE / inputs.MODEL_FILE, config, kept)
    save_vocab(vocab, inputs.FIXTURE / inputs.VOCAB_FILE)
    print(f"trained {len(log.steps)} steps, final loss {log.steps[-1].loss:.4f}")

    digests = {
        "fixture": {name: inputs.sha256_bytes((inputs.FIXTURE / name).read_bytes())
                    for name in inputs.FIXTURE_FILES},
        "canary": {w: inputs.draw_digest(w, 0) for w in WORKLOADS},
        "reference": reference.frozen_digests(),
    }
    inputs.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {inputs.FIXTURE} and {inputs.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
