"""SMILES parser: grammar coverage, error positions, kekulization."""

import pytest

from moldae.canon import canonicalize, write_smiles
from moldae.graph import Atom
from moldae.smiles import KekulizationError, SmilesParseError, parse_smiles


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
