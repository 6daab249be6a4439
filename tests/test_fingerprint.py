"""Circular fingerprints: the batched kernel against its one-molecule definition."""

import numpy as np
import pytest

import moldae.fingerprint as fingerprint_module
from helpers import permute, scalar_fingerprint, scalar_fnv1a
from moldae.corpus import sample_corpus
from moldae.fingerprint import FingerprintError, _fnv1a64, fingerprints
from moldae.graph import Atom, MolecularGraph, validate
from moldae.smiles import parse_smiles


def _long_chain(rng, n: int) -> MolecularGraph:
    """An n-atom backbone of C, N, O and S with F, Cl, O, C and =O side groups."""
    atoms = [Atom(str(rng.choice(["C", "C", "C", "N", "O", "S"]))) for _ in range(n)]
    bonds = [(i, i + 1, 1) for i in range(n - 1)]
    for i in range(n):
        if atoms[i].element == "C" and rng.random() < 0.4:
            side = str(rng.choice(["F", "Cl", "O", "C", "=O"]))
            atoms.append(Atom(side.lstrip("=")))
            bonds.append((i, len(atoms) - 1, 2 if side == "=O" else 1))
    return validate(MolecularGraph(tuple(atoms), tuple(bonds)))


_RING_SYSTEMS = [
    "c1ccc2cc3ccccc3cc2c1",
    "c1cc2ccc3ccc4ccc5ccc6ccc1c1c2c3c4c5c61",
    "C1CC2CCC1CC2",
    "C12C3C4C1C5C2C3C45",
    "C1" + "C" * 60 + "C1",
    "c1ccc(cc1)-c1ccncc1-c1ccoc1",
    "O=C1NC(=O)c2ccccc21",
    "c1cc2cccc3c2c(c1)CC3",
]


def test_radius_zero_single_atom_one_bit():
    (row,) = fingerprints([parse_smiles("C")], radius=0)
    assert row.sum() == 1
    assert row.shape == (1024,)


def test_validation():
    g = parse_smiles("C")
    with pytest.raises(FingerprintError):
        fingerprints([g], radius=-1)
    with pytest.raises(FingerprintError):
        fingerprints([g], width=100)  # not a power of two
    with pytest.raises(FingerprintError):
        fingerprints([g], width=32)  # below minimum


def test_isomorphic_graphs_identical_bits(corpus_small, rng):
    for smiles in corpus_small[:30]:
        g = parse_smiles(smiles)
        p = permute(g, list(rng.permutation(len(g))))
        assert np.array_equal(*fingerprints([g, p])), smiles


def test_cco_popcount_matches_manual_environment_enumeration():
    """CCO has 9 distinct circular environments at radius 2.

    By hand: radius 0 gives three distinct atom invariants (terminal CH3,
    middle CH2, terminal OH). Every radius-1 environment differs from every
    radius-0 one (they fold in neighbor lists) and the three centers remain
    distinguishable (neighbors {C}, {C, O}, {C}); likewise at radius 2, where
    each environment covers the whole molecule but the center still differs.
    3 + 3 + 3 = 9 distinct environments, and with 1024 bits they land on 9
    distinct bits.
    """
    assert fingerprints([parse_smiles("CCO")], radius=2, width=1024).sum() == 9


def test_distinct_molecules_distinct_bits():
    assert not np.array_equal(*fingerprints([parse_smiles("CCO"), parse_smiles("CCN")]))


def test_fnv1a64_known_answers():
    expected = [0xCBF29CE484222325, 0xAF63DC4C8601EC8C, 0x85944171F73967E8]
    assert _fnv1a64(["", "a", "foobar"]).tolist() == expected
    assert [scalar_fnv1a(b) for b in (b"", b"a", b"foobar")] == expected


def _assert_batch_equals_oracle(graphs, rng, radius=2, width=1024):
    """fingerprints(graphs) row for row against the oracle, as given and under 2 relabelings."""
    for relabel in range(3):
        if relabel:
            graphs = [permute(g, list(rng.permutation(len(g)))) for g in graphs]
        got = fingerprints(graphs, radius, width)
        assert got.shape == (len(graphs), width)
        for row, graph in zip(got, graphs):
            assert np.array_equal(row, scalar_fingerprint(graph, radius, width))


def test_fingerprints_equal_scalar_oracle_on_corpus():
    graphs = [parse_smiles(s) for s in sample_corpus(500)]
    _assert_batch_equals_oracle(graphs, np.random.default_rng(5))


def test_fingerprints_equal_scalar_oracle_on_long_chains_and_rings():
    rng = np.random.default_rng(6)
    chains = [_long_chain(rng, int(n)) for n in rng.integers(300, 401, size=4)]
    rings = [parse_smiles(s) for s in _RING_SYSTEMS]
    _assert_batch_equals_oracle(chains + rings, np.random.default_rng(7))
    _assert_batch_equals_oracle(rings, np.random.default_rng(8), radius=3, width=64)


def test_fingerprints_bits_do_not_depend_on_the_chunk(monkeypatch):
    graphs = [parse_smiles(s) for s in _RING_SYSTEMS + ["C", "CCO", "ClC(Cl)(Cl)Cl"]]
    graphs.append(_long_chain(np.random.default_rng(9), 40))
    whole = fingerprints(graphs)
    monkeypatch.setattr(fingerprint_module, "HASH_CHUNK_ENVS", 7)  # splits layers and groups
    assert np.array_equal(fingerprints(graphs), whole)
    assert np.array_equal(fingerprints(iter(graphs)), whole)
    for row, graph in zip(whole, graphs):
        assert np.array_equal(row, scalar_fingerprint(graph))


def test_fingerprints_of_nothing_and_of_the_empty_molecule():
    assert fingerprints([], width=64).shape == (0, 64)
    assert not fingerprints([MolecularGraph((), ())], width=64).any()


def test_width_upper_bound():
    with pytest.raises(FingerprintError):
        fingerprints([parse_smiles("C")], width=1 << 25)
