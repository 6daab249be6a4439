"""Seeded inputs for the benchmark workloads, and the digests that pin them.

Every input is a function of the workload seed and, for inputs drawn per
round, of the round index. Two kinds of data feed the draws:

- committed pools under `fixture/` (two `sample_corpus` outputs and the
  fixture model), whose sha256 digests are checked against `digests.json`
  at every set-up, whatever the seed;
- a canary draw for seed 0, whose digest is checked at every set-up as well,
  so a change to the draw code or to numpy's generator streams cannot change
  the inputs unnoticed.

The digest of the inputs a run actually used is recorded in its result.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Bound at import, before a traced run wraps moldae: input generation is the
# benchmark's own work and stays out of the trace.
from moldae.propeval import PropertyDataset, split
from moldae.selfies import encode, join_tokens
from moldae.smiles import parse_smiles

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "fixture"
DIGESTS = HERE / "digests.json"

MODEL_FILE = "model.bin"
VOCAB_FILE = "vocab.txt"
# Pools: (file, sample_corpus n, sample_corpus seed). The corpus pool is the
# fixture model's own training corpus (the acceptance recipe's).
CORPUS_POOL = ("corpus.smiles", 5000, 11)
PROBE_POOL = ("probe.smiles", 2000, 77)
FIXTURE_FILES = (MODEL_FILE, VOCAB_FILE, CORPUS_POOL[0], PROBE_POOL[0])

TRAIN_CORPUS_N = 512  # 8 batches of 64: one train() call is one epoch
PROBE_N = 120  # molecules per round, used by both probe tasks
CHEM_RANDOM_N = 200  # random-slice molecules per chem round
CHEM_SYMMETRIC_N = 2
CHEM_LARGE_N = 2
LARGE_ATOMS = (100, 400)

_TAGS = {"train": 1, "generate": 2, "embed-probe": 3, "chem": 4}
WARMUP_ROUND = 2**20  # round index of the set-up warm-up, never a timed round

# Symmetric slice: R3C-X with R all tert-butyl or all trifluoromethyl. The
# exhaustive tie-break search in canon.canonicalize takes 100-250 ms on each
# of these (2-core container, one BLAS thread), so they sit in the tail of
# the chem op latency. Deliberately absent: X = R itself (tetra-tert-butyl-
# methane takes 5 s, tetrakis(trifluoromethyl)methane 6 s), X = C(CF3)3
# (hexakis(trifluoromethyl)ethane, > 290 s), and any chain long enough to hit
# the recursion limit (a 3,000-atom chain raises RecursionError). Those are
# hangs and crashes, not timings; they belong in timed regression tests.
_R_GROUPS = ("C(C)(C)C", "C(F)(F)F")
_X_GROUPS = ("", "O", "N", "Cl", "Br", "S", "C", "CC", "OC", "C#N", "C=O", "F", "I",
             "CO", "CCl", "CBr", "SC", "CF", "OCC")
SYMMETRIC_FAMILY = tuple(
    f"C({r})({r})({r}){x}" if x else f"C({r})({r}){r}" for r in _R_GROUPS for x in _X_GROUPS
)


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_json(obj) -> str:
    return sha256_bytes(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8"))


def _rng(seed: int, workload: str, *index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, _TAGS[workload], *index)))


def _seed_int(seed: int, workload: str, *index: int) -> int:
    return int(np.random.SeedSequence((seed, _TAGS[workload], *index)).generate_state(1)[0])


def read_pool(name: str) -> tuple[str, ...]:
    return tuple((FIXTURE / name).read_text(encoding="utf-8").split())


class DigestMismatch(RuntimeError):
    pass


def check_fixture() -> dict[str, str]:
    """sha256 of every fixture file, checked against digests.json."""
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    found = {name: sha256_bytes((FIXTURE / name).read_bytes()) for name in FIXTURE_FILES}
    for name, digest in found.items():
        if recorded["fixture"].get(name) != digest:
            raise DigestMismatch(f"fixture/{name}: sha256 {digest} does not match digests.json")
    return found


def check_canary(workload: str) -> str:
    """Digest of the seed-0 draw of the first rounds, checked against digests.json."""
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    digest = draw_digest(workload, 0)
    if recorded["canary"].get(workload) != digest:
        raise DigestMismatch(f"{workload}: seed-0 input digest {digest} does not match digests.json")
    return digest


# --- train ---------------------------------------------------------------

def train_corpus(seed: int, round_index: int) -> list[str]:
    """Round `round_index`'s corpus: TRAIN_CORPUS_N fixture-corpus molecules.

    A fresh draw per round, so that a run averages over the corpus's length mix.
    """
    pool = read_pool(CORPUS_POOL[0])
    idx = _rng(seed, "train", round_index).choice(len(pool), TRAIN_CORPUS_N, replace=False)
    return [pool[int(i)] for i in idx]


def train_corpus_lines(seed: int, round_index: int) -> list[str]:
    """That corpus as the SELFIES lines `training.train` reads, made outside any trace."""
    return [join_tokens(encode(parse_smiles(s))) for s in train_corpus(seed, round_index)]


def train_seed(seed: int, round_index: int) -> int:
    """TrainSettings.seed of one round: fresh init, shuffle and masks per round."""
    return _seed_int(seed, "train", round_index)


# --- generate ------------------------------------------------------------

def generate_seed(seed: int, round_index: int) -> int:
    return _seed_int(seed, "generate", round_index)


# --- embed-probe ---------------------------------------------------------

@dataclass(frozen=True)
class ProbeRound:
    smiles: tuple[str, ...]
    dou: tuple[float, ...]  # degree of unsaturation, the regression label
    has_n: tuple[float, ...]  # 1.0 if the molecule contains nitrogen, the class label
    split_seed: int
    tokens: int  # grammar tokens of the molecules, the content tokens embed sees


def degree_of_unsaturation(graph) -> float:
    """Rings + double bonds + 2 x triple bonds (acceptance criterion 9's label)."""
    return float((len(graph.bonds) - len(graph) + 1)
                 + sum(1 for _, _, o in graph.bonds if o == 2)
                 + 2 * sum(1 for _, _, o in graph.bonds if o == 3))


def probe_round(seed: int, round_index: int) -> ProbeRound:
    """PROBE_N pool molecules, redrawn until every fold of the split that
    evaluate_dataset will make holds both classes (else it raises DatasetError)."""
    pool = read_pool(PROBE_POOL[0])
    for attempt in range(100):
        idx = _rng(seed, "embed-probe", round_index, attempt).choice(len(pool), PROBE_N, replace=False)
        smiles = tuple(pool[int(i)] for i in idx)
        graphs = [parse_smiles(s) for s in smiles]
        has_n = tuple(float(any(a.element == "N" for a in g.atoms)) for g in graphs)
        folds = split(PropertyDataset("has_n", "classification", smiles,
                                      np.asarray(has_n).reshape(-1, 1)), seed=round_index)
        if all(len({has_n[i] for i in folds.indices(f)}) == 2 for f in ("train", "valid", "test")):
            return ProbeRound(smiles, tuple(degree_of_unsaturation(g) for g in graphs), has_n,
                              round_index, sum(len(encode(g)) for g in graphs))
    raise RuntimeError(f"no two-class split for embed-probe seed {seed} round {round_index}")


# --- chem ----------------------------------------------------------------

@dataclass(frozen=True)
class ChemRound:
    corpus_seed: int  # sample_corpus seed of the random slice
    symmetric: tuple[str, ...]
    large: tuple[str, ...]


def _chain(rng: np.random.Generator, atoms: int) -> str:
    """Acyclic chain of `atoms` heavy atoms: C with some O/N, methyl branches."""
    parts = []
    prev_hetero = True  # no heteroatom at the chain start
    for i in range(atoms):
        interior = 0 < i < atoms - 1
        element = "C"
        if interior and not prev_hetero:
            element = ("C", "C", "C", "C", "O", "N")[int(rng.integers(6))]
        parts.append(element)
        prev_hetero = element != "C"
        if element != "O" and interior and rng.random() < 0.1:
            parts.append("(C)")
    return "".join(parts)


def chem_round(seed: int, round_index: int) -> ChemRound:
    rng = _rng(seed, "chem", round_index)
    sym = rng.choice(len(SYMMETRIC_FAMILY), CHEM_SYMMETRIC_N, replace=False)
    sizes = rng.integers(LARGE_ATOMS[0], LARGE_ATOMS[1] + 1, size=CHEM_LARGE_N)
    return ChemRound(
        corpus_seed=_seed_int(seed, "chem", round_index, 1),
        symmetric=tuple(SYMMETRIC_FAMILY[int(i)] for i in sym),
        large=tuple(_chain(rng, int(n)) for n in sizes),
    )


# --- digests -------------------------------------------------------------

def draw(workload: str, seed: int, rounds: int):
    """The seed's inputs for the first `rounds` rounds, as plain data."""
    if workload == "train":
        return {"corpora": [train_corpus(seed, r) for r in range(rounds)],
                "seeds": [train_seed(seed, r) for r in range(rounds)]}
    if workload == "generate":
        return {"seeds": [generate_seed(seed, r) for r in range(rounds)]}
    if workload == "embed-probe":
        return [probe_round(seed, r).__dict__ for r in range(rounds)]
    if workload == "chem":
        return [chem_round(seed, r).__dict__ for r in range(rounds)]
    raise KeyError(workload)


CANARY_ROUNDS = 2


def draw_digest(workload: str, seed: int, rounds: int = CANARY_ROUNDS) -> str:
    return sha256_json(draw(workload, seed, rounds))
