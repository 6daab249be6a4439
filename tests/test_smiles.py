"""SMILES parser: grammar coverage, error positions, kekulization."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import moldae.smiles as smiles_module
from moldae.canon import canonicalize, write_smiles
from moldae.graph import Atom
from moldae.smiles import _AROMATIC, KekulizationError, SmilesParseError, parse_smiles


def test_single_atom():
    g = parse_smiles("C")
    assert len(g) == 1 and not g.bonds
    assert g.total_hydrogens(0) == 4


def test_double_bond():
    g = parse_smiles("C=O")
    assert len(g) == 2
    assert g.bonds == ((0, 1, 2),)


def test_triple_bond_and_branch():
    g = parse_smiles("CC(C)C#N")
    orders = sorted(o for _, _, o in g.bonds)
    assert orders == [1, 1, 1, 3]


def test_ring_closure_percent():
    assert canonicalize(parse_smiles("C%12CCCCC%12")) == canonicalize(parse_smiles("C1CCCCC1"))


def test_ring_bond_symbol_one_side():
    g = parse_smiles("C=1CCCCC=1")
    assert sorted(o for _, _, o in g.bonds) == [1, 1, 1, 1, 1, 2]
    assert canonicalize(g) == canonicalize(parse_smiles("C1CCCCC=1"))


def test_ring_bond_symbol_conflict():
    with pytest.raises(SmilesParseError):
        parse_smiles("C=1CCCCC#1")


def test_bracket_atoms():
    g = parse_smiles("[NH3+]")
    assert g.atoms[0] == Atom("N", 1, 3)
    g = parse_smiles("C[O-]")
    assert g.atoms[1].charge == -1
    assert g.total_hydrogens(1) == 0  # bracket pins the hydrogen count
    g = parse_smiles("[CH3]C")
    assert g.total_hydrogens(0) == 3


def test_explicit_hydrogen_atoms():
    g = parse_smiles("[H]C([H])([H])[H]")
    assert sum(1 for a in g.atoms if a.element == "H") == 4
    assert g.total_hydrogens(1) == 0  # no implicit H left on carbon


@pytest.mark.parametrize("text,fragment", [
    ("", "empty"),
    ("CC.CC", "disconnected"),
    ("C(", "unclosed branch"),
    ("C)C", "unmatched"),
    ("C1CC", "unclosed ring"),
    ("C=", "dangling bond"),
    ("C==C", "two bond symbols"),
    ("(CC)", "branch opened before"),
    ("C%1C", "two digits"),
    ("CQ", "unexpected character"),
    ("[Xe]C", "unsupported element"),
    ("[C@H](F)(Cl)Br", "unsupported bracket content"),
    ("[13C]", "isotopes"),
    ("C C", "whitespace"),
])
def test_syntax_errors(text, fragment):
    with pytest.raises(SmilesParseError) as err:
        parse_smiles(text)
    assert fragment in str(err.value)


def test_error_reports_position():
    with pytest.raises(SmilesParseError) as err:
        parse_smiles("CCC=")
    assert err.value.position == 3


def test_valence_violation_rejected():
    with pytest.raises(SmilesParseError) as err:
        parse_smiles("C(C)(C)(C)(C)C")
    assert "valence violation" in str(err.value) and err.value.position == 0
    with pytest.raises(SmilesParseError):
        parse_smiles("O(C)(C)C")
    with pytest.raises(SmilesParseError):
        parse_smiles("[NH4+]")  # bonds + pinned H exceed nitrogen's cap


def test_benzene_kekulized_alternating():
    g = parse_smiles("c1ccccc1")
    assert len(g) == 6
    orders = sorted(o for _, _, o in g.bonds)
    assert orders == [1, 1, 1, 2, 2, 2]
    # independent matching property: every carbon carries exactly one double bond
    for i in range(6):
        doubles = sum(1 for a, b, o in g.bonds if o == 2 and i in (a, b))
        assert doubles == 1
        assert g.total_hydrogens(i) == 1


def test_kekulize_pyridine_pyrrole_furan_thiophene():
    for text, n_doubles in [("c1ccncc1", 3), ("c1cc[nH]c1", 2), ("c1ccoc1", 2), ("c1ccsc1", 2)]:
        g = parse_smiles(text)
        assert sum(1 for _, _, o in g.bonds if o == 2) == n_doubles, text
        # heteroatom hydrogen bookkeeping survives kekulization
        assert canonicalize(parse_smiles(write_smiles(g))) == canonicalize(g)


def test_kekulize_fused_naphthalene():
    g = parse_smiles("c1ccc2ccccc2c1")
    assert len(g) == 10
    assert sum(1 for _, _, o in g.bonds if o == 2) == 5
    for i in range(10):
        assert sum(1 for a, b, o in g.bonds if o == 2 and i in (a, b)) == 1


def test_kekulize_biphenyl_single_link():
    g = parse_smiles("c1ccccc1c1ccccc1")
    # the inter-ring bond stays single; each ring keeps 3 doubles
    assert sum(1 for _, _, o in g.bonds if o == 2) == 6


def test_kekulize_failure_rejected():
    with pytest.raises(KekulizationError):
        parse_smiles("c1cccc1")  # odd all-carbon ring: no perfect matching
    with pytest.raises(KekulizationError):
        parse_smiles("c1ccccc1c")  # dangling aromatic carbon cannot pair up


def test_kekulize_ring_deeper_than_the_recursion_limit():
    g = parse_smiles("c1" + "c" * 2998 + "c1")
    assert len(g) == 3000
    doubles = [0] * 3000
    for a, b, o in g.bonds:
        if o == 2:
            doubles[a] += 1
            doubles[b] += 1
    assert doubles == [1] * 3000


def single_search_kekulize(atoms, bonds) -> None:
    """The Kekulé search as one depth-first search over every needy atom (the oracle).

    Exponential when one part of the molecule cannot be matched: it retries
    every other part's choices first.
    """
    aromatic_bonds = [pair for pair, order in bonds.items() if order == _AROMATIC]
    if not aromatic_bonds and not any(a.aromatic for a in atoms):
        return
    adj, degree, has_explicit_pi = {}, {}, set()
    for (a, b), order in bonds.items():
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
        if order == _AROMATIC:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        elif order >= 2:
            has_explicit_pi.update((a, b))

    def needs_double(idx):
        atom = atoms[idx]
        if not atom.aromatic or idx in has_explicit_pi:
            return False
        if atom.element in ("C", "B"):
            return True
        if atom.element in ("N", "P"):
            if atom.hcount is not None and atom.hcount >= 1:
                return False
            return degree.get(idx, 0) < 3
        return False

    needy = sorted(i for i, a in enumerate(atoms) if a.aromatic and needs_double(i))
    partners = {u: [v for v in sorted(adj.get(u, [])) if needs_double(v)] for u in needy}
    match, frames, pos = {}, [], 0
    while True:
        while pos < len(needy) and needy[pos] in match:
            pos += 1
        if pos == len(needy):
            break
        untried = iter(partners[needy[pos]])
        while (v := next(untried, -1)) < 0 or v in match:
            if v < 0:
                if not frames:
                    raise KekulizationError("aromatic ring cannot be kekulized", atoms[needy[0]].pos)
                pos, untried = frames.pop()
                del match[match.pop(needy[pos])]
        match[needy[pos]] = v
        match[v] = needy[pos]
        frames.append((pos, untried))
        pos += 1
    for a, b in aromatic_bonds:
        bonds[(a, b)] = 2 if match.get(a) == b else 1


_AROMATIC_FRAGMENTS = ["c1ccccc1", "c1cccc1", "c1ccc2ccccc2c1", "c1ccc2cc3ccccc3cc2c1",
                       "c1cc2ccc3cccc4ccc(c1)c2c34", "c1ccc2[nH]ccc2c1", "c1ccncc1", "c1ccoc1",
                       "c1cc(cc(c1)c1ccccc1)c1ccccc1", "c1ccccc1c", "c1ccc(C)cc1"]


def _random_aromatic(rng) -> str:
    """1-4 aromatic fragments, some atoms swapped for n, o, s or [nH], joined by bonds or links."""
    parts = []
    for _ in range(int(rng.integers(1, 5))):
        text = str(rng.choice(_AROMATIC_FRAGMENTS))
        parts.append("".join(
            str(rng.choice(["c", "n", "o", "s", "[nH]"], p=[0.7, 0.15, 0.05, 0.05, 0.05]))
            if ch == "c" and rng.random() < 0.3 else ch for ch in text))
    return "".join(part + str(rng.choice(["", "-", "C", "=C"])) for part in parts[:-1]) + parts[-1]


def _parse_outcome(text: str):
    try:
        graph = parse_smiles(text)
    except SmilesParseError as exc:
        return type(exc).__name__, str(exc), exc.position
    return graph


def test_kekulize_components_equal_single_search(monkeypatch):
    rng = np.random.default_rng(17)
    inputs = [_random_aromatic(rng) for _ in range(600)]
    inputs += ["c1ccc(cc1)-" * k + "c1cccc1" for k in range(1, 7)]
    inputs += ["c1ccc(cc1)-" * k + "c1ccccc1" for k in range(1, 7)]
    ours = [_parse_outcome(text) for text in inputs]
    monkeypatch.setattr(smiles_module, "_kekulize", single_search_kekulize)
    oracle = [_parse_outcome(text) for text in inputs]
    assert ours == oracle
    failed = sum(isinstance(o, tuple) and o[0] == "KekulizationError" for o in ours)
    assert 100 < failed < len(inputs) - 100, failed


_TIME_KEKULE_FAILURE = """
import json, sys, time
from moldae.smiles import KekulizationError, parse_smiles
start = time.perf_counter()
try:
    parse_smiles(sys.argv[1])
except KekulizationError as exc:
    print(json.dumps([str(exc), exc.position, time.perf_counter() - start]))
"""


def test_kekulize_failure_after_30_benzene_rings_within_a_second():
    """One odd ring after k benzene rings: the single search took about 4x longer per two rings."""
    import moldae

    env = dict(os.environ, PYTHONPATH=str(Path(moldae.__file__).parents[1]))
    text = "c1ccc(cc1)-" * 30 + "c1cccc1"
    try:
        proc = subprocess.run([sys.executable, "-c", _TIME_KEKULE_FAILURE, text],
                              env=env, capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("the Kekulé search ran past 60 s")
    assert proc.returncode == 0, proc.stderr
    message, position, seconds = json.loads(proc.stdout)
    assert position == 0 and message.startswith("aromatic ring cannot be kekulized")
    assert seconds < 1.0, seconds


def test_aromatic_vs_kekulized_input_agree():
    assert canonicalize(parse_smiles("c1ccccc1")) == canonicalize(parse_smiles("C1=CC=CC=C1"))
    assert canonicalize(parse_smiles("Cc1ccccc1")) == canonicalize(parse_smiles("CC1=CC=CC=C1"))


def test_write_smiles_simple_forms():
    assert write_smiles(parse_smiles("C")) == "C"
    assert write_smiles(parse_smiles("CO")) in ("CO", "OC")


def test_write_smiles_roundtrip_handwritten(handwritten):
    for text in handwritten:
        g = parse_smiles(text)
        back = parse_smiles(write_smiles(g))
        assert canonicalize(back) == canonicalize(g), text


def test_write_smiles_roundtrip_corpus(corpus_1k):
    for text in corpus_1k:
        g = parse_smiles(text)
        assert canonicalize(parse_smiles(write_smiles(g))) == canonicalize(g), text


def test_pinned_hydrogen_normalization():
    # [CH4] and C are the same molecule; canonical text must agree
    assert canonicalize(parse_smiles("[CH4]")) == canonicalize(parse_smiles("C"))
    # [CH3] (one H short) is a different species and keeps its bracket
    assert canonicalize(parse_smiles("[CH3]")) != canonicalize(parse_smiles("C"))
    assert "[CH3]" in canonicalize(parse_smiles("[CH3]"))


def test_charged_molecules_roundtrip():
    for text in ["[O-]C", "[NH2-]", "[O-]S(=O)(=O)[O-]"]:
        g = parse_smiles(text)
        assert canonicalize(parse_smiles(write_smiles(g))) == canonicalize(g)
