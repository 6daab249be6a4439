"""Grammar codec: tokenization, total decoding, encode round-trips, fuzzing."""

import sys
import traceback

import numpy as np
import pytest

from helpers import permute, random_token_string
from moldae import selfies as sf
from moldae.canon import canonicalize, write_smiles
from moldae.graph import validate
from moldae.smiles import parse_smiles


def decode_text(text: str):
    return sf.decode(sf.split_selfies(text))


def test_alphabet_closed_and_parsed():
    assert len(sf.ALPHABET) == 33 + 18
    for tok in sf.ALPHABET:
        assert sf.TOKENS_BY_TEXT[tok.text] is tok
        assert tok.kind in ("atom", "branch", "ring")


def test_split_simple():
    tokens = sf.split_selfies("[C][=O]")
    assert [t.text for t in tokens] == ["[C]", "[=O]"]
    assert sf.split_selfies("") == ()


def test_split_kinds():
    kinds = [t.kind for t in sf.split_selfies("[C][Branch1][C][F]")]
    assert kinds == ["atom", "branch", "atom", "atom"]


def test_split_lossless(corpus_small):
    for smiles in corpus_small:
        text = sf.join_tokens(sf.encode(parse_smiles(smiles)))
        assert sf.join_tokens(sf.split_selfies(text)) == text


def test_split_errors_report_position():
    with pytest.raises(sf.SelfiesError) as err:
        sf.split_selfies("[C][Qx]")
    assert err.value.position == 3
    with pytest.raises(sf.SelfiesError):
        sf.split_selfies("[C][=O")
    with pytest.raises(sf.SelfiesError):
        sf.split_selfies("C")


def test_decode_methane():
    g = decode_text("[C]")
    assert len(g) == 1 and g.total_hydrogens(0) == 4


def test_decode_formaldehyde():
    g = decode_text("[C][=O]")
    assert g.bonds == ((0, 1, 2),)


def test_decode_clips_to_fluorine_valence():
    g = decode_text("[F][=C]")
    assert g.bonds == ((0, 1, 1),)


def test_decode_cyclohexane():
    assert canonicalize(decode_text("[C][C][C][C][C][C][Ring1][=Branch1]")) == \
        canonicalize(parse_smiles("C1CCCCC1"))


def test_decode_benzene():
    assert canonicalize(decode_text("[C][=C][C][=C][C][=C][Ring1][=Branch1]")) == \
        canonicalize(parse_smiles("c1ccccc1"))


def test_decode_branch():
    # acetone: branch carrying the double-bonded oxygen
    g = decode_text("[C][C][=Branch1][C][=O][C]")
    assert canonicalize(g) == canonicalize(parse_smiles("CC(=O)C"))


def test_decode_empty_and_garbage_prefixes():
    assert len(decode_text("")) == 0
    # branch/ring tokens before any atom are consumed with their operands
    assert len(decode_text("[Branch1][C]")) == 0
    assert len(decode_text("[Ring1][C]")) == 0
    g = decode_text("[Ring1][C][C]")  # operand eats the first [C]
    assert len(g) == 1


def test_decode_saturated_chain_skips_atoms():
    # F-F exhausts both valences; trailing atoms are dropped
    g = decode_text("[F][F][F]")
    assert len(g) == 2
    assert g.bonds == ((0, 1, 1),)


def test_decode_operand_cut_short():
    # Branch2 wants two operand tokens but only one exists: derivation stops
    g = decode_text("[C][C][Branch2][C]")
    assert len(g) == 2


def test_decode_ring_reach_clipped_to_first_atom():
    # reach-back longer than the chain clips to atom 0
    g = decode_text("[C][C][C][Ring1][S]")  # [S] is digitidx 14 -> reach 15
    assert (0, 2, 1) in g.bonds


def test_decode_ring_to_adjacent_pair_skipped():
    # reach 1 targets the chain predecessor, which is already bonded: no-op
    g = decode_text("[C][C][C][Ring1][C]")
    assert g.bonds == ((0, 1, 1), (1, 2, 1))


def test_decode_duplicate_ring_skipped():
    # [Ring1] used as operand is digit 1 -> reach 2; the second closure duplicates
    g = decode_text("[C][C][C][Ring1][Ring1][Ring1][Ring1]")
    assert sorted(g.bonds) == [(0, 1, 1), (0, 2, 1), (1, 2, 1)]


def test_decode_branch_insufficient_valence_skipped():
    # fluorine chain head is saturated: branch skipped (operand [C] consumed),
    # then the body token [N] finds a saturated head and is dropped too
    g = decode_text("[C][F][Branch1][C][N]")
    assert len(g) == 2
    assert g.atoms[1].element == "F"


def _deepest_branches(length: int) -> list[str]:
    """`length` tokens of [C][BranchK]<digits> levels, each branch body nested as deep as it fits."""
    tokens: list[str] = []
    while length >= 4:
        k = next(k for k in (1, 2, 3) if length - 3 - k < 16**k)  # smallest operand for the body
        length -= 2 + k
        digits = [sf.INDEX_ALPHABET[(length - 1) >> 4 * j & 15] for j in reversed(range(k))]
        tokens += ["[C]", f"[Branch{k}]", *digits]
    return tokens + ["[C]"] * length


def test_decode_deepest_branch_nesting_within_the_recursion_limit():
    """_derive recurses once per nested branch. Three operand digits cap a body
    at 4,096 tokens, so a branch holds at most 833 nested levels and a string
    at most 834; that decodes under the default limit with 150 frames in use."""
    tokens = sf.split_selfies("".join(_deepest_branches(5 + 4096)))

    def below(frames: int):
        return below(frames - 1) if frames > 0 else sf.decode(tokens)

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        g = below(150 - len(traceback.extract_stack()))
    finally:
        sys.setrecursionlimit(limit)
    assert len(g) == 835  # one carbon per level and the innermost body's
    assert g.bonds == tuple((i, i + 1, 1) for i in range(834))


def test_decode_never_fails_random(rng):
    for _ in range(2000):
        tokens = random_token_string(rng, int(rng.integers(0, 61)))
        validate(sf.decode(tokens))


def test_random_token_string_deterministic():
    a = random_token_string(np.random.default_rng(9), 25)
    b = random_token_string(np.random.default_rng(9), 25)
    assert [t.text for t in a] == [t.text for t in b]
    assert random_token_string(np.random.default_rng(9), 0) == ()


def test_encode_methane_and_formaldehyde():
    assert sf.join_tokens(sf.encode(parse_smiles("C"))) == "[C]"
    tokens = sf.encode(parse_smiles("C=O"))
    assert canonicalize(sf.decode(tokens)) == canonicalize(parse_smiles("C=O"))


def test_encode_ethanol_token_text():
    assert sf.join_tokens(sf.encode(parse_smiles("CCO"))) == "[C][C][O]"


def test_encode_rejects_charge():
    with pytest.raises(sf.EncodeError):
        sf.encode(parse_smiles("[O-]C"))


def test_encode_rejects_nonstandard_pinned_hydrogens():
    with pytest.raises(sf.EncodeError):
        sf.encode(parse_smiles("[CH3]"))
    # pinned-but-default hydrogens are fine
    sf.encode(parse_smiles("[CH4]"))


def test_roundtrip_handwritten(handwritten):
    for text in handwritten:
        g = parse_smiles(text)
        assert canonicalize(sf.decode(sf.encode(g))) == canonicalize(g), text


def test_roundtrip_corpus(corpus_1k):
    failures = [s for s in corpus_1k
                if canonicalize(sf.decode(sf.encode(parse_smiles(s)))) != canonicalize(parse_smiles(s))]
    assert not failures, failures[:5]


def test_roundtrip_survives_relabeling(corpus_small, rng):
    for smiles in corpus_small[:40]:
        g = parse_smiles(smiles)
        p = permute(g, list(rng.permutation(len(g))))
        assert canonicalize(sf.decode(sf.encode(p))) == canonicalize(g)


def test_decoded_random_strings_are_writable(rng):
    # decoded garbage must serialize and re-parse like any other graph
    for _ in range(300):
        tokens = random_token_string(rng, int(rng.integers(1, 40)))
        g = sf.decode(tokens)
        if len(g):
            assert canonicalize(parse_smiles(write_smiles(g))) == canonicalize(g)
