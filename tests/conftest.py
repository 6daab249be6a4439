"""Shared fixtures. Thread pinning happens before numpy is imported anywhere."""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from moldae.corpus import sample_corpus
from moldae.model import batch_denoise_loss


@pytest.fixture(scope="session")
def corpus_1k():
    """1200 distinct random molecules (canonical SMILES)."""
    return sample_corpus(1200, seed=101)


@pytest.fixture(scope="session")
def corpus_small():
    return sample_corpus(120, seed=202)


# Classic hand-written molecules inside the supported subset.
HANDWRITTEN = [
    "C",
    "CC",
    "CCO",
    "C=O",
    "C#N",
    "CC(=O)O",
    "CC(C)C",
    "C1CCCCC1",
    "c1ccccc1",
    "Cc1ccccc1",
    "Oc1ccccc1",
    "c1ccncc1",
    "c1cc[nH]c1",
    "c1ccoc1",
    "c1ccsc1",
    "c1ccc2ccccc2c1",
    "ClC(Cl)(Cl)Cl",
    "FC(F)F",
    "BrCCBr",
    "ICI",
    "N#CC#N",
    "O=C=O",
    "OS(=O)(=O)O",
    "OP(=O)(O)O",
    "CSC",
    "CS(=O)C",
    "CN1CCCC1",
    "C1CC2CCC1CC2",
    "CC(C)(C)C",
    "[H]C([H])([H])[H]",
    "CCN(CC)CC",
    "C1=CC2=CC=CC=C2C=C1",
    "B(O)(O)O",
]


@pytest.fixture(scope="session")
def handwritten():
    return list(HANDWRITTEN)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(4242)


def _denoise_loss(params, config, pair):
    """Loss and gradients of one CorruptedPair (teacher forcing) through batch_denoise_loss."""
    x, y = np.asarray(pair.x_corrupt)[None], np.asarray(pair.y)[None]
    for p in params.values():
        p.zero_grad()
    loss, _ = batch_denoise_loss(params, config, x, y, np.ones(y.shape))
    loss.backward()
    return float(loss.data), {name: p.grad.copy() for name, p in params.items()}


@pytest.fixture(scope="session")
def denoise_loss():
    return _denoise_loss
