"""Seeded corpus generator."""

import pytest

from moldae.corpus import sample_corpus
from moldae.smiles import parse_smiles
from moldae.canon import canonicalize


def test_deterministic_and_distinct():
    a = sample_corpus(50, seed=4)
    b = sample_corpus(50, seed=4)
    assert a == b
    assert len(set(a)) == 50
    assert sample_corpus(50, seed=5) != a


def test_molecules_are_canonical_and_sized():
    for smiles in sample_corpus(40, seed=6, min_atoms=4):
        graph = parse_smiles(smiles)
        assert len(graph) >= 4
        assert canonicalize(graph) == smiles


def test_exhaustion_guard_raises(monkeypatch):
    from moldae import corpus

    monkeypatch.setattr(corpus, "MAX_STALE", 300)
    with pytest.raises(ValueError):
        sample_corpus(10**6, seed=0, min_atoms=4, max_tokens=4)


def test_carbon_dominates():
    molecules = sample_corpus(150, seed=7)
    carbons = heavy = 0
    for smiles in molecules:
        g = parse_smiles(smiles)
        heavy += sum(a.element != "H" for a in g.atoms)
        carbons += sum(1 for a in g.atoms if a.element == "C")
    assert carbons / heavy > 0.6
