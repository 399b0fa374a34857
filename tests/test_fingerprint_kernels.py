"""Differential tests: the fingerprint kernels against the reference
implementations in fingerprint_oracles.py, bit for bit."""

import random

import pytest

import chemtext.fingerprints as fingerprints
import fingerprint_oracles as oracles
from chemtext.fingerprints import (
    FingerprintError,
    KeyTable,
    default_key_table,
    fnv1a64,
    key_fingerprint,
    load_key_table,
    morgan_fingerprint,
    morgan_fingerprints,
    path_fingerprint,
    path_fingerprints,
)
from chemtext.fingerprints.keys import count_matches, parse_pattern
from chemtext.smiles import Atom, Bond, Molecule, parse_smiles
from molgen import clique_smiles, directed_path_steps, random_molecule

# a table exercising what the shipped one barely does: "~" bonds, classes,
# ranged constraints, thresholds above one, branches at the root and below
_CUSTOM_TABLE = """\
# custom keys
1\t1\t*
2\t3\t*[deg<=1]
3\t2\tQ[H>=1,deg<=2]
4\t1\tX~*
5\t2\tC~C
6\t1\tC(~O)(~O)~*
7\t1\t*[ar]:*[ar]:*[ar]:*[ar]
8\t2\tN(-C)-C
9\t1\tC[rb>=2,rb<=2](-*[rb=0])-*[rb=0]
10\t4\tC-C-C
11\t1\tO=C(-C(=O)-O)-N
12\t3\tQ~C~Q
14\t1\t*[chg>=1]~*[chg<=-1]
15\t2\tC[al,H=2]-C[al,H=2]
"""


def _corpus(seed, max_atoms, n):
    rng = random.Random(seed)
    return [random_molecule(rng, max_atoms) for _ in range(n)]


_SMALL = _corpus(101, 10, 300)
_LARGE = _corpus(102, 30, 150)


@pytest.mark.parametrize("corpus", [_SMALL, _LARGE], ids=["le10", "le30"])
def test_path_bits_match_oracle(corpus):
    for mol in corpus:
        assert path_fingerprint(mol) == oracles.path_oracle(mol)


@pytest.mark.parametrize("max_len,nbits", [(1, 2048), (3, 64), (5, 1), (9, 4096), (7, 997)])
def test_path_bits_match_oracle_off_defaults(max_len, nbits):
    for mol in _SMALL[:60] + _LARGE[:20]:
        assert path_fingerprint(mol, max_len, nbits) == oracles.path_oracle(mol, max_len, nbits)


@pytest.mark.parametrize("corpus", [_SMALL, _LARGE], ids=["le10", "le30"])
def test_key_bits_match_oracle(corpus):
    for mol in corpus:
        assert key_fingerprint(mol) == oracles.key_oracle(mol)


@pytest.mark.parametrize("corpus", [_SMALL, _LARGE], ids=["le10", "le30"])
def test_custom_key_table_bits_match_oracle(corpus):
    table = load_key_table(_CUSTOM_TABLE.splitlines())
    assert isinstance(table, KeyTable)
    for mol in corpus:
        assert key_fingerprint(mol, table) == oracles.key_oracle(mol, table)
        # a plain sequence of the same keys gives the same bits
        assert key_fingerprint(mol, list(table)) == oracles.key_oracle(mol, table)


def test_key_bits_match_oracle_on_named_molecules():
    smiles = [
        "c1ccccc1", "OC(=O)CC(O)(CC(=O)O)C(=O)O", "NC(=O)C(N)C(=O)O",
        "[NH4+].[O-]C(=O)C", "ClC(Cl)(Cl)Cl", "FC(F)(F)c1ccc(Br)cc1",
        "C1CC2CCC1CC2", "O=S(=O)(N)c1ccc(N)cc1", "C#CC#N", "[13CH3]O",
    ]
    table = load_key_table(_CUSTOM_TABLE.splitlines())
    for smi in smiles:
        mol = parse_smiles(smi)
        assert key_fingerprint(mol) == oracles.key_oracle(mol)
        assert key_fingerprint(mol, table) == oracles.key_oracle(mol, table)


def test_count_matches_agrees_with_oracle():
    patterns = [k.pattern for k in default_key_table()]
    patterns += [k.pattern for k in load_key_table(_CUSTOM_TABLE.splitlines())]
    patterns.append(parse_pattern("C~C(~C)~C"))
    for mol in _SMALL[:40] + _LARGE[:15]:
        for pattern in patterns:
            for limit in (None, 1, 2):
                assert count_matches(mol, pattern, limit) == oracles.count_matches_oracle(
                    mol, pattern, limit
                )


@pytest.mark.parametrize("corpus", [_SMALL, _LARGE], ids=["le10", "le30"])
def test_morgan_bits_match_oracle(corpus):
    for mol in corpus:
        for radius, nbits in ((2, 2048), (0, 64), (3, 1024)):
            assert morgan_fingerprint(mol, radius, nbits) == oracles.morgan_oracle(
                mol, radius, nbits
            )


def _dense(n):
    atoms = [Atom(symbol="Au", hydrogens=0) for _ in range(n)]
    bonds = [Bond(a=i, b=j) for i in range(n) for j in range(i + 1, n)]
    return Molecule(atoms, bonds)


@pytest.mark.parametrize("module", [fingerprints, oracles], ids=["kernel", "oracle"])
@pytest.mark.parametrize("max_len", [3, 5])
def test_budget_counts_every_step_in_both_directions(monkeypatch, module, max_len):
    # the kernel and the reference trip the budget on exactly the same inputs
    fingerprint = path_fingerprint if module is fingerprints else oracles.path_oracle
    for mol in (_dense(6), _LARGE[0], parse_smiles("c1ccc2ccccc2c1")):
        steps = directed_path_steps(mol, max_len)
        monkeypatch.setattr(module, "_MAX_PATHS_WALKED", steps)
        fingerprint(mol, max_len=max_len)
        monkeypatch.setattr(module, "_MAX_PATHS_WALKED", steps - 1)
        with pytest.raises(FingerprintError):
            fingerprint(mol, max_len=max_len)


# -- batch kernels ----------------------------------------------------------------

# hash every batch as the measured crossover picks, all in numpy, or all in Python
_HASH_METHODS = {"measured": None, "numpy": 0, "python": 10**9}


@pytest.fixture(params=list(_HASH_METHODS), ids=list(_HASH_METHODS))
def hash_method(request, monkeypatch):
    if _HASH_METHODS[request.param] is not None:
        monkeypatch.setattr(fingerprints, "_NUMPY_MIN_ROWS", _HASH_METHODS[request.param])
    return request.param


_ORACLE_BITS = {
    name: (corpus, [oracles.morgan_oracle(m) for m in corpus], [oracles.path_oracle(m) for m in corpus])
    for name, corpus in (("le10", _SMALL[:120]), ("le30", _LARGE[:60]))
}


@pytest.mark.parametrize("corpus", list(_ORACLE_BITS))
@pytest.mark.parametrize("batch", [1, 2, 5, 40])
def test_batch_kernels_match_oracle(hash_method, corpus, batch):
    # 1 and 2 molecules hash fewer rows than the crossover, 40 far more
    mols, morgan, path = _ORACLE_BITS[corpus]
    for lo in range(0, len(mols), batch):
        chunk = mols[lo:lo + batch]
        assert morgan_fingerprints(chunk) == morgan[lo:lo + batch]
        assert path_fingerprints(chunk) == path[lo:lo + batch]


@pytest.mark.parametrize("radius,max_len,nbits", [(0, 1, 64), (3, 3, 1024), (1, 9, 997)])
def test_batch_kernels_match_oracle_off_defaults(hash_method, radius, max_len, nbits):
    mols = _SMALL[:30] + _LARGE[:10]
    assert morgan_fingerprints(mols, radius, nbits) == [
        oracles.morgan_oracle(m, radius, nbits) for m in mols
    ]
    assert path_fingerprints(mols, max_len, nbits) == [
        oracles.path_oracle(m, max_len, nbits) for m in mols
    ]


def test_budget_molecule_is_marked_without_touching_its_batch(hash_method):
    clique = parse_smiles(clique_smiles())
    mols = _LARGE[:6] + [clique] + _LARGE[6:12]
    marked = path_fingerprints(mols)
    assert marked[6] is None
    assert marked[:6] + marked[7:] == [oracles.path_oracle(m) for m in mols if m is not clique]
    # Morgan has no budget: the clique gets its bits like any molecule
    assert morgan_fingerprints(mols) == [oracles.morgan_oracle(m) for m in mols]


def test_empty_batches():
    assert morgan_fingerprints([]) == []
    assert path_fingerprints([]) == []


def test_batch_rejects_an_invalid_molecule():
    with pytest.raises(FingerprintError):
        morgan_fingerprints([_LARGE[0], parse_smiles("C(C)(C)(C)(C)C")])
    with pytest.raises(FingerprintError):
        path_fingerprints([_LARGE[0], parse_smiles("C(C)(C)(C)(C)C")])


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [b""],
        [b"", b"", b"a"],
        [b"a\x00", b"a", b"\x00", b"\x00\x00", b"CC\x00\x00"],
        [bytes(range(0x80, 0x100)), b"\xff", "Fe\u00e9".encode()],
        [b"x" * 300] + [bytes([i % 7 + 40]) * (i % 5) for i in range(60)],
    ],
    ids=["empty_list", "empty_row", "empty_rows", "trailing_nul", "high_bytes", "one_long_row"],
)
def test_fnv1a64_many_equals_fnv1a64(hash_method, rows):
    assert fingerprints._fnv1a64_many(rows) == [fnv1a64(row) for row in rows]
