"""The four benchmark workloads: train, generate, embed-probe, chem.

Each workload calls the stage entry points the CLI wraps, never the CLI
itself. `setup` loads and checks the fixture, draws the seed's inputs and
warms up; `run_round(r)` does round r's work, timing only the calls into
moldae; `check(r, result)` verifies a round's outputs after the timed phase.
Round r's inputs depend only on the seed and r, so the first rounds of two
runs with one seed do identical work and their output digests must match.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
# Measured calls go through module attributes, so that the traced run's
# wrappers see them; checks run after tracing has been removed.
from moldae import canon, corpus, genmetrics, propeval, selfies, smiles, tokenizer, training
from moldae.genmetrics import GeneratedSet
from moldae.graph import validate
from moldae.model import ModelConfig
from moldae.propeval import PropertyDataset
from moldae.training import TrainSettings

clock = time.perf_counter


@dataclass
class RoundResult:
    seconds: float = 0.0  # time spent inside moldae calls
    op_seconds: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0  # ops that raised; checks add their failures later
    mols: int = 0
    tokens: int = 0
    outputs: object = None
    digest: str = ""


def _digest(*parts: str | bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8") if isinstance(part, str) else part)
        h.update(b"\0")
    return h.hexdigest()


def _load_fixture():
    """Load the model the way `moldae generate` does: params, meta, vocab."""
    inputs.check_fixture()
    model = inputs.FIXTURE / inputs.MODEL_FILE
    config, params = training.load_params(model)
    meta = training.load_meta(model)
    vocab = tokenizer.load_vocab(inputs.FIXTURE / inputs.VOCAB_FILE)
    return config, params, meta, vocab


class Train:
    """Denoising training at desk defaults from a seeded init, one epoch per round.

    Each round trains on its own seeded corpus draw. The only workload where
    tape construction, backward, Adam and masking run; sampling and the
    molecule substrate do not.
    """

    name = "train"
    min_rounds = 3
    steps = inputs.TRAIN_CORPUS_N // 64

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.corpus_path = scratch / f"train-{seed}.selfies"

    def _write_corpus(self, r: int) -> int:
        """Write round r's corpus; return its non-pad target positions (every token plus <eos>)."""
        lines = inputs.train_corpus_lines(self.seed, r)
        self.corpus_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return sum(line.count("[") + 1 for line in lines)

    def setup(self) -> None:
        inputs.check_fixture()
        inputs.check_canary(self.name)
        self.vocab = tokenizer.load_vocab(inputs.FIXTURE / inputs.VOCAB_FILE)
        self.config = ModelConfig(vocab_size=len(self.vocab))  # d=128, 4 heads, 2+2, ff=512
        self._write_corpus(inputs.WARMUP_ROUND)
        warmup = TrainSettings(steps=2, batch_size=64, seed=inputs.train_seed(self.seed, inputs.WARMUP_ROUND))
        training.train(self.corpus_path, self.vocab, self.config, warmup)

    def run_round(self, r: int) -> RoundResult:
        tokens = self._write_corpus(r)
        settings = TrainSettings(steps=self.steps, batch_size=64, seed=inputs.train_seed(self.seed, r))
        res = RoundResult(attempted=self.steps)
        start = clock()
        try:
            params, log = training.train(self.corpus_path, self.vocab, self.config, settings)
        except Exception:  # noqa: BLE001 - a raising step is a failed op, reported below
            res.seconds = clock() - start
            res.failed = self.steps
            return res
        res.seconds = clock() - start
        marks = [0.0] + [s.seconds for s in log.steps]
        res.op_seconds = [b - a for a, b in zip(marks, marks[1:])]
        res.mols = inputs.TRAIN_CORPUS_N
        res.tokens = tokens
        losses = [s.loss for s in log.steps]
        res.outputs = {"losses": losses, "skipped": log.skipped_too_long}
        res.digest = _digest(repr(losses), *(name.encode() + params[name].data.tobytes()
                                             for name in sorted(params)))
        return res

    def check(self, r: int, res: RoundResult) -> int:
        if res.outputs is None:
            return 0
        losses = res.outputs["losses"]
        ok = (res.outputs["skipped"] == 0 and len(losses) == self.steps
              and all(math.isfinite(x) for x in losses) and losses[-1] < losses[0])
        return 0 if ok else self.steps

    def guards(self, rounds: list[RoundResult]) -> dict[str, float]:
        first = rounds[0].outputs
        return {"train.loss_last": first["losses"][-1] if first else math.nan}


class Generate:
    """128-sample generate_set calls from the fixture, length-histogram conditioned.

    Each sample is decoded and canonicalized inside generate_set. The decoder
    runs under no_grad and recomputes the whole prefix at every step.
    """

    name = "generate"
    min_rounds = 4
    batch = 128

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed

    def setup(self) -> None:
        self.config, self.params, meta, self.vocab = _load_fixture()
        inputs.check_canary(self.name)
        self.hist = meta["meta.length_hist"]
        # Capped so that a runaway warm-up sample cannot make set-up time depend on the seed.
        genmetrics.generate_set(self.params, self.config, self.vocab, 8,
                                inputs.generate_seed(self.seed, inputs.WARMUP_ROUND),
                                max_len=16, length_hist=self.hist)

    def run_round(self, r: int) -> RoundResult:
        res = RoundResult(attempted=1)
        start = clock()
        try:
            gen = genmetrics.generate_set(self.params, self.config, self.vocab, self.batch,
                               inputs.generate_seed(self.seed, r), length_hist=self.hist)
        except Exception:  # noqa: BLE001
            res.seconds = clock() - start
            res.failed = 1
            return res
        res.seconds = clock() - start
        res.op_seconds = [res.seconds]
        res.mols = len(gen)
        res.tokens = sum(raw.count("[") for raw in gen.raw)
        res.outputs = gen
        res.digest = _digest("\n".join(c or "" for c in gen.canonical))
        return res

    def check(self, r: int, res: RoundResult) -> int:
        gen = res.outputs
        if gen is None:
            return 0
        if len(gen) != self.batch:
            return 1
        # A non-empty emission may hold only structural tokens that derive
        # nothing; the empty graph is valid and its canonical form is None.
        for raw, canonical in zip(gen.raw, gen.canonical):
            if not raw:
                continue
            try:
                graph = validate(selfies.decode(selfies.split_selfies(raw)))
            except ValueError:
                return 1
            if canonical != (canon.canonicalize(graph) if len(graph) else None):
                return 1
        return 0

    def guards(self, rounds: list[RoundResult]) -> dict[str, float]:
        sets = [r.outputs for r in rounds if r.outputs is not None]
        n = sum(len(g) for g in sets)
        return {"generate.valid_frac": sum(len(g.valid()) for g in sets) / n if n else math.nan}


class EmbedProbe:
    """evaluate_dataset on the fixture: DoU regression and contains-N classification.

    A round runs both tasks over the same molecules, so rounds are alike.
    Encoder only, one molecule per embed call, then the lambda-grid
    gradient-descent probe. The decoder does not run.
    """

    name = "embed-probe"
    min_rounds = 1
    tasks = (("regression", "dou"), ("classification", "has_n"))

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.rounds: dict[int, inputs.ProbeRound] = {}

    def setup(self) -> None:
        self.config, self.params, _, self.vocab = _load_fixture()
        inputs.check_canary(self.name)
        warm = inputs.probe_round(self.seed, inputs.WARMUP_ROUND)
        propeval.featurize(PropertyDataset("warm-up", "regression", warm.smiles[:8],
                                           np.asarray(warm.dou[:8]).reshape(-1, 1)),
                           self.params, self.config, self.vocab)

    @staticmethod
    def _dataset(pr: inputs.ProbeRound, task: str, labels: str) -> PropertyDataset:
        return PropertyDataset(labels, task, pr.smiles, np.asarray(getattr(pr, labels)).reshape(-1, 1))

    def run_round(self, r: int) -> RoundResult:
        pr = self.rounds[r] = inputs.probe_round(self.seed, r)
        res = RoundResult(outputs=[])
        for task, labels in self.tasks:
            dataset = self._dataset(pr, task, labels)
            res.attempted += 1
            start = clock()
            try:
                result = propeval.evaluate_dataset(dataset, self.params, self.config, self.vocab,
                                                   seed=pr.split_seed)
            except Exception:  # noqa: BLE001
                result = None
                res.failed += 1
            took = clock() - start
            res.seconds += took
            res.op_seconds.append(took)
            res.outputs.append(result)
            if result is not None:
                res.mols += len(dataset) - result.dropped_rows
                res.tokens += pr.tokens
        res.digest = _digest(*(result.to_json() for result in res.outputs if result is not None))
        return res

    def check(self, r: int, res: RoundResult) -> int:
        failed = 0
        for (task, _), result in zip(self.tasks, res.outputs):
            if result is None:
                continue
            ok = result.dropped_rows == 0 and math.isfinite(result.metric)
            failed += not (ok and (task == "regression" or 0.0 <= result.metric <= 1.0))
        if r < self.min_rounds:
            features, _, dropped = propeval.featurize(self._dataset(self.rounds[r], "regression", "dou"),
                                                      self.params, self.config, self.vocab)
            if dropped or not np.isfinite(features).all():
                failed += 1
            res.digest = _digest(res.digest, features.tobytes())
        return failed

    def guards(self, rounds: list[RoundResult]) -> dict[str, float]:
        rmse, auc = rounds[0].outputs if rounds[0].outputs else (None, None)
        return {"probe.rmse": rmse.metric if rmse else math.nan,
                "probe.auc": auc.metric if auc else math.nan}


@dataclass(frozen=True)
class RoundTrip:
    text: str  # input SMILES
    grammar: str  # SELFIES text
    canonical: str
    written: str  # write_smiles of the decoded graph, the convert output
    tokens: int
    before: tuple[int, int]  # atoms, bonds as parsed
    after: tuple[int, int]  # atoms, bonds after decode


def round_trip(text: str) -> RoundTrip:
    """parse -> encode -> join -> split -> decode -> canonicalize -> write."""
    graph = smiles.parse_smiles(text)
    tokens = selfies.encode(graph)
    grammar = selfies.join_tokens(tokens)
    back = selfies.decode(selfies.split_selfies(grammar))
    canonical = canon.canonicalize(back)
    written = canon.write_smiles(back)
    return RoundTrip(text, grammar, canonical, written, len(tokens),
                     (len(graph), len(graph.bonds)), (len(back), len(back.bonds)))


class Chem:
    """No model: sample_corpus, a convert round trip per molecule, build_report.

    A round mixes the random slice sample_corpus returns, CHEM_SYMMETRIC_N
    molecules from the symmetric family and CHEM_LARGE_N long chains (see
    inputs.py for what the slices leave out and why).
    """

    name = "chem"
    min_rounds = 3

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed

    def setup(self) -> None:
        inputs.check_fixture()
        inputs.check_canary(self.name)
        self.training_canon = set(inputs.read_pool(inputs.CORPUS_POOL[0]))
        warm = [round_trip(s) for s in inputs.read_pool(inputs.CORPUS_POOL[0])[:16]]
        genmetrics.build_report(GeneratedSet(tuple(t.grammar for t in warm),
                                             tuple(t.canonical for t in warm)), self.training_canon)

    def run_round(self, r: int) -> RoundResult:
        cr = inputs.chem_round(self.seed, r)
        res = RoundResult(attempted=1)  # the corpus draw; the report counts once more below
        start = clock()
        try:
            random_slice = corpus.sample_corpus(inputs.CHEM_RANDOM_N, seed=cr.corpus_seed)
        except Exception:  # noqa: BLE001
            random_slice = []
            res.failed += 1
        res.seconds += clock() - start
        trips: list[tuple[str, RoundTrip | None]] = []
        for slice_name, texts in (("random", random_slice), ("symmetric", cr.symmetric),
                                  ("large", cr.large)):
            for text in texts:
                res.attempted += 1
                start = clock()
                try:
                    trip = round_trip(text)
                except Exception:  # noqa: BLE001 - RecursionError included
                    trip = None
                    res.failed += 1
                took = clock() - start
                res.seconds += took
                res.op_seconds.append(took)
                trips.append((slice_name, trip))
        done = [t for _, t in trips if t is not None]
        res.attempted += 1  # the report
        start = clock()
        try:
            report = genmetrics.build_report(GeneratedSet(tuple(t.grammar for t in done),
                                                          tuple(t.canonical for t in done)),
                                             self.training_canon)
        except Exception:  # noqa: BLE001
            report = None
            res.failed += 1
        res.seconds += clock() - start
        res.mols = len(done)
        res.tokens = sum(t.tokens for t in done)
        res.outputs = (trips, report)
        res.digest = _digest("\n".join(f"{t.grammar}\t{t.canonical}\t{t.written}" for t in done),
                             report.to_json() if report else "")
        return res

    def check(self, r: int, res: RoundResult) -> int:
        trips, report = res.outputs
        failed = 0
        for slice_name, trip in trips:
            if trip is None:
                continue
            if trip.before != trip.after or (slice_name == "random" and trip.canonical != trip.text):
                failed += 1
        if report is not None:
            values = (report.validity, report.unique_at_k, report.novelty, report.intdiv1, report.intdiv2)
            if not all(0.0 <= v <= 1.0 for v in values):
                failed += 1
        return failed

    def guards(self, rounds: list[RoundResult]) -> dict[str, float]:
        return {}


WORKLOADS = {w.name: w for w in (Train, Generate, EmbedProbe, Chem)}
