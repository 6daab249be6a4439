"""Reference ops: the machine's current speed, measured with a frozen copy of moldae.

The benchmark shares a few cores of a host with other tenants, and the same
moldae work runs 20-50 % slower in some stretches of seconds to minutes than
in others, in wall and in CPU time alike (memory and cache contention from
the neighbours; the guest sees no steal time). A 30-second run can fall
wholly inside such a stretch, so no estimator over one run's rounds removes
it. `run.py` therefore times a small, fixed reference op before the first
round and after every round of the timed phase, and reports each round's time
in reference seconds: its wall time times the op's nominal time over the
mean of the op's times just before and just after it. A slow stretch slows the round
and the reference op alike and cancels out of the ratio.

A reference op does the same kind of work as its workload's rounds, so that
both respond alike to contention, but with `moldae_frozen`, a byte-for-byte
copy of src/moldae taken when the benchmark was written and pinned by
`digests.json`: a change to the program never changes the yardstick. Each op
is identical on every call and reads only committed data.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
from moldae_frozen import canon, genmetrics, model, propeval, selfies, smiles, tokenizer, training
from moldae_frozen.model import ModelConfig

FROZEN = Path(__file__).resolve().parent / "moldae_frozen"

# About the median time of each reference op on the 2-core Xeon the bounds
# were set on, so that reference seconds read as seconds there. Only a scale:
# changing one rescales that workload's rates and breaks comparisons.
NOMINAL_S = {"train": 0.21, "generate": 0.18, "embed-probe": 0.17, "chem": 0.17}

EMBED_N = 40


def frozen_digests() -> dict[str, str]:
    return {p.name: inputs.sha256_bytes(p.read_bytes()) for p in sorted(FROZEN.glob("*.py"))}


def check_frozen() -> None:
    recorded = json.loads(inputs.DIGESTS.read_text(encoding="utf-8")).get("reference", {})
    if frozen_digests() != recorded:
        raise inputs.DigestMismatch("moldae_frozen/ does not match the digests in digests.json")


def _fixture():
    path = inputs.FIXTURE / inputs.MODEL_FILE
    config, params = training.load_params(path)
    return config, params, training.load_meta(path), tokenizer.load_vocab(inputs.FIXTURE / inputs.VOCAB_FILE)


def _train_op() -> Callable[[], object]:
    """One training step (forward, backward, Adam) on a median-length batch of the fixture corpus.

    The learning rate is 0, so the parameters, and so the work, stay the same.
    """
    vocab = tokenizer.load_vocab(inputs.FIXTURE / inputs.VOCAB_FILE)
    config = ModelConfig(vocab_size=len(vocab))
    settings = training.TrainSettings(batch_size=64, seed=0)
    pool = inputs.read_pool(inputs.CORPUS_POOL[0])[:inputs.TRAIN_CORPUS_N]
    sequences = sorted((tokenizer.encode_ids(selfies.encode(smiles.parse_smiles(s)), vocab) for s in pool), key=len)
    batch = sequences[len(sequences) // 2 - 32:][:64]
    x, y, pad_mask = training._pad_batch(batch, settings.mask_rate, training.tagged_rng(0, "mask"))
    params = model.init_model(config, training.tagged_rng(0, "init"))
    optimizer = training.Adam(params, settings)

    def op():
        for p in params.values():
            p.zero_grad()
        loss, _ = model.batch_denoise_loss(params, config, x, y, pad_mask, None)
        loss.backward()
        optimizer.step(params, 0.0)
    return op


def _generate_op() -> Callable[[], object]:
    config, params, meta, vocab = _fixture()
    hist = meta["meta.length_hist"]
    return lambda: genmetrics.generate_set(params, config, vocab, 16, 0, max_len=48, length_hist=hist)


def _embed_op() -> Callable[[], object]:
    """evaluate_dataset, degree-of-unsaturation regression, on fixed pool molecules, one lambda."""
    config, params, _, vocab = _fixture()
    pool = inputs.read_pool(inputs.PROBE_POOL[0])[:EMBED_N]
    dou = [inputs.degree_of_unsaturation(smiles.parse_smiles(s)) for s in pool]
    dataset = propeval.PropertyDataset("reference", "regression", pool, np.asarray(dou).reshape(-1, 1))
    return lambda: propeval.evaluate_dataset(dataset, params, config, vocab, lambda_grid=(0.1,))


def _chem_op() -> Callable[[], object]:
    pool = inputs.read_pool(inputs.CORPUS_POOL[0])[:80]
    training_canon = set(pool)

    def op():
        grammar, canonical = [], []
        for text in pool:  # the convert round trip of workloads.round_trip
            grammar.append(selfies.join_tokens(selfies.encode(smiles.parse_smiles(text))))
            back = selfies.decode(selfies.split_selfies(grammar[-1]))
            canonical.append(canon.canonicalize(back))
            canon.write_smiles(back)
        return genmetrics.build_report(genmetrics.GeneratedSet(tuple(grammar), tuple(canonical)),
                                       training_canon)
    return op


OPS = {"train": _train_op, "generate": _generate_op, "embed-probe": _embed_op, "chem": _chem_op}


def reference_op(workload: str) -> Callable[[], float]:
    """A timer for `workload`'s reference op, warmed up; call it for one op's seconds."""
    check_frozen()
    op = OPS[workload]()

    def timed() -> float:
        start = time.perf_counter()
        op()
        return time.perf_counter() - start

    for _ in range(2):
        timed()
    return timed


def reference_seconds(workload: str, round_seconds: list[float], reference: list[float]) -> list[float]:
    """Each round's time in reference seconds.

    `reference[i]` is the op's time just before round i and `reference[i + 1]`
    just after it; round i is scaled by their mean. (Medians over wider windows
    of rounds tracked contention less closely in trials on the 2-core Xeon.)
    """
    if len(reference) != len(round_seconds) + 1:
        raise ValueError("need one reference time before each round and one after the last")
    nominal = NOMINAL_S[workload]
    return [seconds * nominal * 2 / (reference[i] + reference[i + 1])
            for i, seconds in enumerate(round_seconds)]
