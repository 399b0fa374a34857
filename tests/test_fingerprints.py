import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chemtext.fingerprints as fingerprints
from chemtext.fingerprints import (
    MORGAN_MAX_RADIUS,
    SCHEMES,
    BitFingerprint,
    FingerprintConfig,
    FingerprintError,
    SchemeMismatchError,
    fingerprint,
    fnv1a64,
    key_fingerprint,
    morgan_fingerprint,
    morgan_fingerprints,
    path_fingerprint,
    path_fingerprints,
    tanimoto,
)
from chemtext.smiles import canonicalize, parse_smiles, random_smiles
from molgen import directed_path_steps, random_molecule


def test_fnv1a64_reference_values():
    # standard FNV-1a test vectors
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


def test_fingerprint_dispatches_by_scheme_name():
    mol = parse_smiles("CC(=O)Nc1ccccc1")
    config = FingerprintConfig(radius=1, nbits=512, path_max_len=4)
    assert fingerprint(mol, "morgan", config) == morgan_fingerprint(mol, 1, 512)
    assert fingerprint(mol, "path", config) == path_fingerprint(mol, 4, 512)
    assert fingerprint(mol, "keys", config) == key_fingerprint(mol)
    assert [fingerprint(mol, s).scheme for s in SCHEMES] == ["morgan", "path", "keys"]
    with pytest.raises(ValueError):
        fingerprint(mol, "maccs")


def test_batch_kernels_reject_a_negative_radius_and_a_non_positive_length():
    mols = [parse_smiles("CCO")]
    with pytest.raises(ValueError, match="radius must be non-negative"):
        morgan_fingerprints(mols, radius=-1)
    with pytest.raises(ValueError, match="max_len must be positive"):
        path_fingerprints(mols, max_len=0)


def test_morgan_radius_past_the_maximum_is_rejected():
    # one small batch scored in Python, one large enough for the numpy kernel
    for mols in ([parse_smiles("CCO")], [parse_smiles("C" * 30)]):
        assert len(morgan_fingerprints(mols, radius=MORGAN_MAX_RADIUS)) == 1
        with pytest.raises(ValueError) as info:
            morgan_fingerprints(mols, radius=MORGAN_MAX_RADIUS + 1)
        assert str(info.value) == f"radius must be at most 64, got {MORGAN_MAX_RADIUS + 1}"


@pytest.mark.parametrize("nbits", [0, -1])
def test_non_positive_width_rejected(nbits):
    mol = parse_smiles("CCO")
    with pytest.raises(ValueError, match="nbits"):
        morgan_fingerprint(mol, nbits=nbits)
    with pytest.raises(ValueError, match="nbits"):
        path_fingerprint(mol, nbits=nbits)


def test_methane_radius_zero_single_bit():
    fp = morgan_fingerprint(parse_smiles("C"), radius=0, nbits=2048)
    assert len(fp.bits) == 1
    assert fp.scheme == "morgan" and fp.nbits == 2048


def test_morgan_graph_identical_inputs():
    a = morgan_fingerprint(parse_smiles("CCO"), 2, 2048)
    b = morgan_fingerprint(parse_smiles("OCC"), 2, 2048)
    assert a == b


def test_ethane_two_environments():
    # both atoms share their r=0 and r=1 environments
    fp = morgan_fingerprint(parse_smiles("CC"), radius=1, nbits=2048)
    assert len(fp.bits) <= 2


def test_morgan_invalid_molecule():
    with pytest.raises(FingerprintError):
        morgan_fingerprint(parse_smiles("C(C)(C)(C)(C)C"), 2, 2048)


def test_single_path_single_bit():
    fp = path_fingerprint(parse_smiles("CC"), max_len=7, nbits=2048)
    assert len(fp.bits) == 1


def test_butane_path_enumeration():
    # C-C (one canonical form) and C-C-C (one canonical form)
    fp = path_fingerprint(parse_smiles("CCCC"), max_len=2, nbits=2048)
    assert len(fp.bits) <= 2


def test_path_monotone_in_max_len():
    rng = random.Random(3)
    for _ in range(50):
        mol = random_molecule(rng, 14)
        short = path_fingerprint(mol, max_len=3, nbits=1024)
        long = path_fingerprint(mol, max_len=6, nbits=1024)
        assert short.bits <= long.bits


def test_fingerprints_deterministic_across_isomorphic_inputs():
    from chemtext.fingerprints import key_fingerprint

    rng = random.Random(11)
    for _ in range(25):
        mol = random_molecule(rng, 12)
        canon = canonicalize(mol)
        remol = parse_smiles(canon)
        for fn in (
            lambda m: morgan_fingerprint(m, 2, 2048),
            lambda m: path_fingerprint(m, 5, 2048),
            key_fingerprint,
        ):
            assert fn(mol) == fn(remol)


# bracket atoms, charges, isotopes, explicit hydrogens, chirality and "/" "\\"
# bonds, on top of the ones molgen draws
_NAMED = [
    "[CH4]", "[NH4+].[O-]C(=O)C", "[13CH3][18OH]", "F/C=C/F", "F/C=C\\Cl",
    "C[C@@H](N)C(=O)[O-]", "[2H]C([2H])([2H])Cl", "c1cc[nH]c1",
    "[Fe+3].[Cl-].[Cl-].[Cl-]", "[U]1[U][U]1", "O=[N+]([O-])c1ccc(/C=C/Br)cc1",
]


def _molecules(max_atoms):
    drawn = st.integers(0, 2**32 - 1).map(
        lambda seed: random_molecule(random.Random(seed), max_atoms)
    )
    return st.one_of(drawn, st.sampled_from(_NAMED).map(parse_smiles))


@pytest.mark.parametrize("max_atoms", [10, 30], ids=["le10", "le30"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_equal_canonical_smiles_give_equal_fingerprints(max_atoms, data):
    # the rule eval_text2mol relies on to fingerprint only the reference of
    # an exact-match pair: every writing of a molecule gets the same bits
    # and the same path-budget outcome
    mol = data.draw(_molecules(max_atoms))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    canonical = canonicalize(mol)
    forms = [parse_smiles(canonical)] + [parse_smiles(random_smiles(mol, rng)) for _ in range(3)]
    assert [canonicalize(form) for form in forms] == [canonical] * len(forms)
    for scheme in SCHEMES:
        expected = fingerprint(mol, scheme)
        assert [fingerprint(form, scheme) for form in forms] == [expected] * len(forms)
    steps = directed_path_steps(mol, FingerprintConfig().path_max_len)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fingerprints, "_MAX_PATHS_WALKED", steps)
        for form in [mol, *forms]:
            fingerprint(form, "path")  # exactly within the budget
        if steps:
            mp.setattr(fingerprints, "_MAX_PATHS_WALKED", steps - 1)
            for form in [mol, *forms]:
                with pytest.raises(FingerprintError):
                    fingerprint(form, "path")


def test_tanimoto_direct_count():
    a = BitFingerprint("morgan", 2048, frozenset({1, 2, 3}))
    b = BitFingerprint("morgan", 2048, frozenset({2, 3, 4}))
    assert tanimoto(a, b) == 0.5


def test_tanimoto_self_is_one():
    x = BitFingerprint("path", 64, frozenset({0, 9, 63}))
    assert tanimoto(x, x) == 1.0


def test_tanimoto_disjoint_and_empty():
    a = BitFingerprint("keys", 166, frozenset({1}))
    b = BitFingerprint("keys", 166, frozenset({2}))
    assert tanimoto(a, b) == 0.0
    e = BitFingerprint("keys", 166, frozenset())
    assert tanimoto(e, e) == 0.0


def test_scheme_mismatch():
    a = BitFingerprint("morgan", 2048, frozenset({1}))
    b = BitFingerprint("path", 2048, frozenset({1}))
    with pytest.raises(SchemeMismatchError):
        tanimoto(a, b)
    c = BitFingerprint("morgan", 1024, frozenset({1}))
    with pytest.raises(SchemeMismatchError):
        tanimoto(a, c)


def test_tanimoto_symmetry_and_triangle():
    rng = random.Random(99)
    for _ in range(1000):
        fps = [
            BitFingerprint(
                "morgan", 64, frozenset(i for i in range(64) if rng.random() < 0.3)
            )
            for _ in range(3)
        ]
        a, b, c = fps
        assert tanimoto(a, b) == tanimoto(b, a)
        dab = 1 - tanimoto(a, b)
        dbc = 1 - tanimoto(b, c)
        dac = 1 - tanimoto(a, c)
        assert dac <= dab + dbc + 1e-12


def test_bit_index_bounds_enforced():
    with pytest.raises(ValueError):
        BitFingerprint("morgan", 8, frozenset({8}))
    with pytest.raises(ValueError):
        BitFingerprint("morgan", 0, frozenset())


@pytest.mark.parametrize("bits", [{-1}, {8}, {0, 7, 8}, {-1, 3}, {2**70}])
def test_bit_out_of_range_is_named(bits):
    with pytest.raises(ValueError, match="bit index out of range"):
        BitFingerprint("path", 8, frozenset(bits))


def test_bits_at_both_ends_of_the_range_are_kept():
    assert BitFingerprint("path", 8, frozenset({0, 7})).bits == {0, 7}
    assert BitFingerprint("path", 8, frozenset()).bits == frozenset()


def test_path_enumeration_budget():
    # unknown bracket elements have unchecked valence, so a dense graph can
    # be built; the walk must fail fast instead of hanging
    from chemtext.smiles import Atom, Bond, Molecule

    n = 10
    atoms = [Atom(symbol="Au", hydrogens=0) for _ in range(n)]
    bonds = [Bond(a=i, b=j) for i in range(n) for j in range(i + 1, n)]
    dense = Molecule(atoms, bonds)
    with pytest.raises(FingerprintError):
        path_fingerprint(dense, max_len=7, nbits=2048)
