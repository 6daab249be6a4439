"""Generation metrics against closed forms and brute-force oracles."""

import json

import numpy as np
import pytest

from helpers import scalar_fingerprint, tanimoto
from moldae.canon import canonicalize
from moldae.fingerprint import fingerprints
from moldae.genmetrics import (
    GeneratedSet, MetricsError, build_report, draw_source_length, generate_set, novelty, unique_at,
    validity,
)
from moldae.smiles import parse_smiles


def gen(*canon, raw=None):
    return GeneratedSet(tuple(raw or [""] * len(canon)), tuple(canon))


def intdiv(generated: GeneratedSet, p: int) -> float:
    """IntDiv_p (p = 1 or 2) as `build_report` reports it."""
    return getattr(build_report(generated, set()), f"intdiv{p}")


def test_validity_counts_empty_as_invalid():
    s = gen("C", "CC", None, "CCC")
    assert validity(s) == 0.75
    assert validity(gen("C")) == 1.0
    with pytest.raises(MetricsError):
        validity(GeneratedSet((), ()))


def test_unique_at_window():
    s = gen("A", "A", "B")
    assert unique_at(s, 3) == pytest.approx(2 / 3)
    assert unique_at(s, 2) == pytest.approx(1 / 2)
    assert unique_at(gen("A", "B", "C"), 3) == 1.0
    # window skips invalid entries: first k VALID molecules
    s = gen("A", None, "B", "A")
    assert unique_at(s, 2) == 1.0
    with pytest.raises(MetricsError):
        unique_at(gen(None), 5)


def test_unique_at_is_order_sensitive_only_within_window():
    s1 = gen("A", "B", "C", "A")
    s2 = gen("A", "A", "B", "C")
    assert unique_at(s1, 4) == unique_at(s2, 4) == pytest.approx(3 / 4)
    assert unique_at(s1, 2) == 1.0
    assert unique_at(s2, 2) == pytest.approx(1 / 2)


def test_novelty_counting():
    training = {"A", "B"}
    assert novelty(gen("C", "D"), training) == 1.0
    assert novelty(gen("A", "B"), training) == 0.0
    assert novelty(gen("A", "C"), training) == 0.5
    # duplicates collapse before counting
    assert novelty(gen("C", "C", "A"), training) == 0.5


def test_internal_diversity_closed_forms():
    mol = canonicalize(parse_smiles("CCO"))
    assert intdiv(gen(mol), 1) == 0.0
    assert intdiv(gen(mol), 2) == 0.0
    # two molecules with disjoint fingerprints: mean T = (1+1+0+0)/4 = 0.5
    a = canonicalize(parse_smiles("C"))
    b = canonicalize(parse_smiles("O"))
    fa = scalar_fingerprint(parse_smiles(a))
    fb = scalar_fingerprint(parse_smiles(b))
    assert tanimoto(fa, fb) == 0.0, "test premise: disjoint fingerprints"
    assert intdiv(gen(a, b), 1) == pytest.approx(0.5, abs=1e-12)
    assert intdiv(gen(a, b), 2) == pytest.approx(1 - np.sqrt(0.5), abs=1e-12)


def test_internal_diversity_matches_brute_force(corpus_small):
    molecules = [canonicalize(parse_smiles(s)) for s in corpus_small[:20]]
    s = gen(*molecules)
    fps = [scalar_fingerprint(parse_smiles(m)) for m in sorted(set(molecules))]
    for p in (1, 2):
        total = 0.0
        for fa in fps:
            for fb in fps:
                total += tanimoto(fa, fb) ** p
        expected = 1.0 - (total / len(fps) ** 2) ** (1.0 / p)
        assert intdiv(s, p) == pytest.approx(expected, abs=1e-12)
        assert 0.0 <= intdiv(s, p) <= 1.0


def test_duplicates_do_not_change_distinct_metrics(corpus_small):
    molecules = [canonicalize(parse_smiles(s)) for s in corpus_small[:8]]
    base = gen(*molecules)
    dup = gen(*(molecules + [molecules[0]] * 3))
    training = set(molecules[:2])
    assert novelty(base, training) == novelty(dup, training)
    for p in (1, 2):
        assert intdiv(base, p) == intdiv(dup, p)


def test_report_json_and_table(corpus_small):
    molecules = [canonicalize(parse_smiles(s)) for s in corpus_small[:6]]
    report = build_report(gen(*molecules, None), training_canon=set(molecules[:3]))
    payload = json.loads(report.to_json())
    assert payload["counts"]["n"] == 7
    assert payload["counts"]["valid"] == 6
    assert payload["validity"] == pytest.approx(6 / 7)
    assert payload["novelty"] == pytest.approx(0.5)
    assert 0 <= payload["intdiv1"] <= 1 and 0 <= payload["intdiv2"] <= 1
    assert "unique@7" in report.to_table()


def test_build_report_fingerprints_each_distinct_molecule_once(corpus_small, monkeypatch):
    import moldae.genmetrics as genmetrics

    molecules = [canonicalize(parse_smiles(s)) for s in corpus_small[:6]]
    calls = []

    def counting(graphs, radius, width):
        calls.append(list(graphs))
        return fingerprints(calls[-1], radius, width)

    monkeypatch.setattr(genmetrics, "fingerprints", counting)
    report = build_report(gen(*molecules, molecules[0], None), training_canon=set())
    assert len(calls) == 1
    assert sorted(canonicalize(g) for g in calls[0]) == sorted(set(molecules))
    assert len(calls[0]) == 6
    for p, value in ((1, report.intdiv1), (2, report.intdiv2)):
        assert value == intdiv(gen(*molecules), p)


def test_float32_similarity_products_equal_float64_bitwise(corpus_1k):
    """intdiv1/intdiv2 over more rows than one 256-row block, against the float64 products."""
    distinct = sorted(set(corpus_1k[:300]))
    fps = fingerprints([parse_smiles(s) for s in distinct]).astype(np.float64)
    pop = fps.sum(axis=1)
    totals = [0.0, 0.0]
    for lo in range(0, len(distinct), 256):
        inter = fps[lo : lo + 256] @ fps.T
        union = pop[lo : lo + 256, None] + pop[None, :] - inter
        sim = np.where(union > 0, inter / np.where(union > 0, union, 1.0), 1.0)
        for j, p in enumerate((1, 2)):
            totals[j] += float((sim**p).sum())
    expected = [1.0 - (t / len(distinct) ** 2) ** (1.0 / p) for t, p in zip(totals, (1, 2))]
    report = build_report(gen(*distinct), training_canon=set())
    assert [report.intdiv1, report.intdiv2] == expected


def test_generated_set_alignment_checked():
    with pytest.raises(MetricsError):
        GeneratedSet(("a",), ("A", "B"))


class TopUniform:
    """Stub rng whose every uniform is the largest double below 1."""

    def random(self):
        return np.nextafter(1.0, 0.0)


def test_draw_source_length_top_uniform_stays_in_histogram():
    rng = np.random.default_rng(0)
    for _ in range(200):
        hist = rng.integers(0, 50, size=30) * (rng.random(30) < 0.7)
        hist[1] += 1
        k = draw_source_length(hist, TopUniform())
        assert k == np.flatnonzero(hist[1:])[-1] + 1


def toy_generator():
    from moldae.model import ModelConfig, init_model
    from moldae.selfies import split_selfies
    from moldae.tokenizer import build_vocab

    vocab = build_vocab([split_selfies("[C][N][O][=C][Branch1][Ring1]")])
    config = ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=2, encoder_layers=1,
                         decoder_layers=1, ff_width=16, max_len=16)
    return init_model(config, np.random.default_rng(0)), config, vocab


def test_generate_set_counts_truncated_empty_and_tokens():
    from moldae.model import sample_batch
    from moldae.tokenizer import EOS, decode_ids

    params, config, vocab = toy_generator()
    hist = np.ones(config.max_len - 1)
    got = generate_set(params, config, vocab, 40, seed=3, max_len=6, length_hist=hist)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(3).spawn(40)]
    rows = sample_batch(params, config, rngs, [draw_source_length(hist, rng) for rng in rngs], max_len=6)
    assert got.truncated == sum(r[-1] != EOS for r in rows)
    assert 0 < got.truncated < 40
    assert all(len(r) == 6 for r in rows if r[-1] != EOS)
    assert got.tokens == sum(len(r) - 1 for r in rows)
    assert got.empty == sum(not decode_ids(r, vocab) for r in rows)


def test_generate_set_deterministic_and_batch_invariant(monkeypatch):
    import moldae.genmetrics as genmetrics

    params, config, vocab = toy_generator()

    def generate(seed, batch):
        monkeypatch.setattr(genmetrics, "GENERATE_BATCH", batch)
        return generate_set(params, config, vocab, 7, seed=seed, length_hist=np.ones(config.max_len - 1))

    a, b, c = generate(5, 3), generate(5, 7), generate(5, 1)
    assert a.raw == b.raw == c.raw
    assert a.canonical == b.canonical
    d = generate(6, 3)
    assert d.raw != a.raw
    # totality: a missing canonical form can only mean the tokens derived nothing
    from moldae import selfies as sf

    for raw, canon in zip(a.raw, a.canonical):
        if canon is None:
            assert len(sf.decode(sf.split_selfies(raw))) == 0
        else:
            assert canonicalize(parse_smiles(canon)) == canon
