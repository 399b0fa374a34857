"""Differential tests: the fingerprint kernels against the reference
implementations in fingerprint_oracles.py, bit for bit."""

import random
import time
import tracemalloc
from dataclasses import replace
from functools import lru_cache
from math import comb

import numpy as np
import pytest

import chemtext.fingerprints as fingerprints
import fingerprint_oracles as oracles
from chemtext.fingerprints import (
    FingerprintError,
    KeyTable,
    MoleculeBatch,
    default_key_table,
    fnv1a64,
    key_fingerprint,
    key_fingerprints,
    load_key_table,
    morgan_fingerprint,
    morgan_fingerprints,
    path_fingerprint,
    path_fingerprints,
)
from chemtext.fingerprints import chunk as chunk_kernels
from chemtext.fingerprints.keys import count_matches, parse_pattern
from chemtext.smiles import Atom, Bond, Molecule, ParseError, parse_smiles
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


def _dense(n, missing=frozenset()):
    """``n`` gold atoms, every pair bonded except the ``missing`` pairs."""
    atoms = [Atom(symbol="Au", hydrogens=0) for _ in range(n)]
    bonds = [Bond(a=i, b=j) for i in range(n) for j in range(i + 1, n) if (i, j) not in missing]
    return Molecule(atoms, bonds)


# the kernel as the measured cutoff picks its walk, the kernel with each walk
# forced, and the reference
_BUDGET_WALKERS = {"kernel": None, "numpy_walk": 0, "recursive_walk": 10**9, "oracle": None}


@pytest.mark.parametrize("walker", list(_BUDGET_WALKERS))
@pytest.mark.parametrize("max_len", [3, 5])
def test_budget_counts_every_step_in_both_directions(monkeypatch, walker, max_len):
    # the kernel and the reference trip the budget on exactly the same inputs
    module = oracles if walker == "oracle" else fingerprints
    fingerprint = oracles.path_oracle if walker == "oracle" else path_fingerprint
    if _BUDGET_WALKERS[walker] is not None:
        monkeypatch.setattr(fingerprints, "_NUMPY_MIN_ATOMS", _BUDGET_WALKERS[walker])
    if walker == "recursive_walk":
        # the degree bound would send these dense molecules to the numpy walk
        monkeypatch.setattr(fingerprints, "_walk_bound", lambda mol, max_len: 0)
    for mol in (_dense(6), _LARGE[0], parse_smiles("c1ccc2ccccc2c1")):
        steps = directed_path_steps(mol, max_len)
        monkeypatch.setattr(module, "_MAX_PATHS_WALKED", steps)
        fingerprint(mol, max_len=max_len)
        monkeypatch.setattr(module, "_MAX_PATHS_WALKED", steps - 1)
        with pytest.raises(FingerprintError):
            fingerprint(mol, max_len=max_len)


# -- batch kernels ----------------------------------------------------------------

# score every batch as the measured cutoff picks, all from the numpy graph
# table, or each molecule alone in Python, hashing with plain fnv1a64
_CUTOFFS = {"measured": None, "numpy": 0, "python": 10**9}


@pytest.fixture(params=list(_CUTOFFS), ids=list(_CUTOFFS))
def cutoff(request, monkeypatch):
    if _CUTOFFS[request.param] is not None:
        monkeypatch.setattr(fingerprints, "_NUMPY_MIN_ATOMS", _CUTOFFS[request.param])
    return request.param


_ORACLE_BITS = {
    name: (corpus, [oracles.morgan_oracle(m) for m in corpus], [oracles.path_oracle(m) for m in corpus])
    for name, corpus in (("le10", _SMALL[:120]), ("le30", _LARGE[:60]))
}


@pytest.mark.parametrize("corpus", list(_ORACLE_BITS))
@pytest.mark.parametrize("batch", [1, 2, 5, 40])
def test_batch_kernels_match_oracle(cutoff, corpus, batch):
    # at the measured cutoff, 1 and 2 molecules score in Python, 40 in numpy
    mols, morgan, path = _ORACLE_BITS[corpus]
    for lo in range(0, len(mols), batch):
        chunk = mols[lo:lo + batch]
        assert morgan_fingerprints(chunk) == morgan[lo:lo + batch]
        assert path_fingerprints(chunk) == path[lo:lo + batch]


@pytest.mark.parametrize("radius,max_len,nbits", [(0, 1, 64), (3, 3, 1024), (1, 9, 997)])
def test_batch_kernels_match_oracle_off_defaults(cutoff, radius, max_len, nbits):
    mols = _SMALL[:30] + _LARGE[:10]
    assert morgan_fingerprints(mols, radius, nbits) == [
        oracles.morgan_oracle(m, radius, nbits) for m in mols
    ]
    assert path_fingerprints(mols, max_len, nbits) == [
        oracles.path_oracle(m, max_len, nbits) for m in mols
    ]


# walk each batch as the measured cutoff picks, all in numpy, or each
# molecule alone
_WALK_METHODS = {"measured": None, "numpy": 0, "recursive": 10**9}


@pytest.fixture(params=list(_WALK_METHODS), ids=list(_WALK_METHODS))
def walk_method(request, monkeypatch):
    if _WALK_METHODS[request.param] is not None:
        monkeypatch.setattr(fingerprints, "_NUMPY_MIN_ATOMS", _WALK_METHODS[request.param])
    return request.param


def test_budget_molecule_is_marked_without_touching_its_batch(cutoff):
    # one batch feeds all three kernels: only the clique's path bits are lost
    clique = parse_smiles(clique_smiles())
    mols = _LARGE[:6] + [clique] + _LARGE[6:12]
    batch = MoleculeBatch(mols)
    marked = path_fingerprints(batch)
    assert marked[6] is None
    assert marked[:6] + marked[7:] == [oracles.path_oracle(m) for m in mols if m is not clique]
    assert key_fingerprints(batch) == [oracles.key_oracle(m) for m in mols]
    assert morgan_fingerprints(batch) == [oracles.morgan_oracle(m) for m in mols]


def test_budget_molecule_is_marked_on_either_walk(walk_method):
    clique = parse_smiles(clique_smiles())
    mols = _LARGE[:6] + [clique] + _LARGE[6:12]
    marked = path_fingerprints(mols)
    assert marked[6] is None
    assert marked[:6] + marked[7:] == [oracles.path_oracle(m) for m in mols if m is not clique]
    # Morgan has no budget: the clique gets its bits like any molecule
    assert morgan_fingerprints(mols) == [oracles.morgan_oracle(m) for m in mols]


def _chain(symbols):
    """Atoms of the given symbols, each bonded to the next."""
    atoms = [Atom(symbol=sym) for sym in symbols]
    return Molecule(atoms, [Bond(i, i + 1) for i in range(len(atoms) - 1)])


def _odd_molecules():
    rng = random.Random(103)
    big = [random_molecule(rng, 90) for _ in range(40)]
    unusual = _chain(["Cl", "Xx", "Q", "Zz", "X", "Qq", "Zy", "Y", "Br"])
    return [
        # more than 64 atoms, in chains, rings and random graphs
        parse_smiles("C" * 70),
        parse_smiles("C1" + "C" * 68 + "1"),
        parse_smiles("c1ccc(cc1)" * 12 + "C"),
        *[m for m in big if len(m.atoms) > 64][:3],
        # two-letter, aromatic two-letter and charged or isotopic symbols
        parse_smiles("ClC(Br)C(Cl)CBr"),
        parse_smiles("c1cc[se]c1C[as]1cccc1"),
        parse_smiles("[13CH3][NH3+].[O-]C(=O)C"),
        # unknown one- and two-letter elements
        Molecule(unusual.atoms, unusual.bonds + (Bond(1, 5), Bond(2, 7))),
        _chain(["Q", "Qq", "Q"]),
        # palindromic paths
        parse_smiles("OCCO"),
        parse_smiles("CC(C)(C)C"),
        parse_smiles("c1ccccc1"),
        parse_smiles("C1CC2CCC1CC2"),
        _chain(["N", "Xx", "N"]),
        # no bonds, one atom
        parse_smiles("[Na+].[Cl-]"),
        parse_smiles("C"),
    ]


_ODD = _odd_molecules()


@pytest.mark.parametrize("symbol", ["Ä", "Ωx", "X\x00", "\x00", "é\x00", "😀", "", "Q\x00"])
def test_symbols_outside_the_element_shape_are_rejected(symbol):
    # the kernels render atom codes as ASCII bytes, which these would break
    with pytest.raises(ParseError, match="atom symbol"):
        _chain(["N", symbol, "N"])


@pytest.mark.parametrize("batch", [1, 2, 5, 40])
def test_path_walk_matches_oracle(walk_method, batch):
    for corpus, (mols, _, path) in _ORACLE_BITS.items():
        for lo in range(0, len(mols), batch):
            assert path_fingerprints(mols[lo:lo + batch]) == path[lo:lo + batch], corpus


@pytest.mark.parametrize("batch", [1, 2, 5, 40])
@pytest.mark.parametrize("max_len,nbits", [(7, 2048), (1, 2048), (9, 997), (3, 2**70)])
def test_path_walk_matches_oracle_on_odd_molecules(walk_method, batch, max_len, nbits):
    want = [oracles.path_oracle(m, max_len, nbits) for m in _ODD]
    for lo in range(0, len(_ODD), batch):
        assert path_fingerprints(_ODD[lo:lo + batch], max_len, nbits) == want[lo:lo + batch]


def test_path_walk_blocks_do_not_change_bits(monkeypatch):
    # blocks of a few steps split every level and deduplicate held bits often
    monkeypatch.setattr(fingerprints, "_NUMPY_MIN_ATOMS", 0)
    monkeypatch.setattr(chunk_kernels, "_BLOCK_STEPS", 5)
    mols = _ODD + _LARGE[:10]
    assert path_fingerprints(mols) == [oracles.path_oracle(m) for m in mols]
    assert path_fingerprints(mols, 9, 997) == [oracles.path_oracle(m, 9, 997) for m in mols]


@pytest.mark.parametrize("case", ["dense", "clique", "under_budget"])
def test_numpy_walk_memory_is_bounded(monkeypatch, case):
    # blocks keep the walk's peak memory flat whatever the molecule; the
    # 9-clique missing two bonds walks 421,484 steps, under the 500,000-step
    # budget
    monkeypatch.setattr(fingerprints, "_NUMPY_MIN_ATOMS", 0)
    mol = {
        "dense": _dense(14),
        "clique": parse_smiles(clique_smiles()),
        "under_budget": _dense(9, {(0, 1), (2, 3)}),
    }[case]
    tracemalloc.start()
    try:
        (fp,) = path_fingerprints([mol])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (fp is None) == (case != "under_budget")
    assert peak <= 64 * 2**20


def test_numpy_walk_width_follows_the_molecule_not_max_len():
    # a simple path has fewer bonds than its molecule has atoms, so a huge
    # max_len walks rows no wider, and sets no other bits, than n - 1
    mol = next(m for m in _LARGE if len(m.atoms) >= fingerprints._NUMPY_MIN_ATOMS)
    want = path_fingerprints([mol], len(mol.atoms) - 1)
    tracemalloc.start()
    try:
        got = path_fingerprints([mol], 10**5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak <= 16 * 2**20


def test_empty_batches():
    assert morgan_fingerprints([]) == []
    assert path_fingerprints([]) == []
    assert key_fingerprints([]) == []
    assert key_fingerprints(MoleculeBatch()) == []


def test_batch_rejects_an_invalid_molecule():
    with pytest.raises(FingerprintError):
        morgan_fingerprints([_LARGE[0], parse_smiles("C(C)(C)(C)(C)C")])
    with pytest.raises(FingerprintError):
        path_fingerprints([_LARGE[0], parse_smiles("C(C)(C)(C)(C)C")])
    with pytest.raises(FingerprintError):
        key_fingerprints([_LARGE[0], parse_smiles("C(C)(C)(C)(C)C")])
    with pytest.raises(FingerprintError):
        MoleculeBatch([_LARGE[0], parse_smiles("C(C)(C)(C)(C)C")])


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
def test_fnv1a64_columns_continue_fnv1a64(rows):
    # each row continues the FNV-1a state of its own prefix, over a matrix as
    # wide as the longest row; the bytes past a shorter row's length are noise
    # the hash must not read
    rng = random.Random(len(rows))
    prefixes = [bytes(rng.randrange(256) for _ in range(rng.randrange(5))) for _ in rows]
    width = max(map(len, rows), default=0)
    matrix = np.array(
        [list(row) + [0xAB] * (width - len(row)) for row in rows], dtype=np.uint8
    ).reshape(len(rows), width)
    states = np.array([fnv1a64(prefix) for prefix in prefixes], dtype=np.uint64)
    lengths = np.array(list(map(len, rows)), dtype=np.int64)
    hashed = chunk_kernels._fnv1a64_columns(states, matrix, lengths)
    assert hashed.tolist() == [fnv1a64(prefix + row) for prefix, row in zip(prefixes, rows)]


def test_small_over_budget_molecule_walks_in_numpy():
    # the 10-atom clique is under the numpy cutoff, but its degree bound sends
    # it to the numpy walk, which reaches the budget in a fraction of the
    # recursive walk's time and holds about one block per path length
    clique = parse_smiles(clique_smiles())
    assert len(clique.atoms) < fingerprints._NUMPY_MIN_ATOMS
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert path_fingerprints([clique]) == [None]
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
    assert elapsed < 1.0
    with pytest.raises(FingerprintError, match="budget"):
        path_fingerprint(clique)


def test_ordinary_molecules_stay_on_the_recursive_walk():
    for mol in _SMALL + _LARGE:
        assert fingerprints._walk_bound(mol, 7) <= fingerprints._MAX_PATHS_WALKED
        assert fingerprints._walk_bound(mol, 7) >= directed_path_steps(mol, 7)
    # the bound is capped just past the budget, so a huge max_len stays cheap
    assert fingerprints._walk_bound(_dense(5), 10**9) <= 2 * fingerprints._MAX_PATHS_WALKED
    assert fingerprints._walk_bound(parse_smiles("C" * 20), 10**9) == 2 * 20 * 19


# -- key and Morgan chunk kernels --------------------------------------------------

def _generated_key_table(seed, n_keys=40):
    """Random keys of 1-5 nodes over the whole pattern grammar: element,
    ``*``, ``X`` and ``Q`` atoms, ``ar``/``al``, ``chg``/``rb``/``H``/``deg``
    bounds, every bond symbol with ``~`` the likeliest, branches at any node
    and thresholds above one."""
    rng = random.Random(seed)

    def atom():
        attrs = []
        if rng.random() < 0.3:
            attrs.append(rng.choice(["ar", "al"]))
        for field, low, high in (("chg", -1, 1), ("rb", 0, 3), ("H", 0, 3), ("deg", 0, 4)):
            if rng.random() < 0.15:
                attrs.append(f"{field}{rng.choice(['=', '>=', '<='])}{rng.randint(low, high)}")
        symbol = rng.choice(["C", "C", "N", "O", "S", "Cl", "*", "*", "X", "Q"])
        return symbol + (f"[{','.join(attrs)}]" if attrs else "")

    def tree(nodes):
        sizes = []
        nodes -= 1
        while nodes:
            sizes.append(rng.randint(1, nodes))
            nodes -= sizes[-1]
        children = [rng.choice("-=#:~~~") + tree(size) for size in sizes]
        return atom() + "".join(f"({c})" for c in children[:-1]) + "".join(children[-1:])

    return load_key_table(
        f"{i}\t{rng.choice([1, 1, 2, 3, 5])}\t{tree(rng.randint(1, 5))}"
        for i in range(1, n_keys + 1)
    )


def _tree_keys_once(table):
    """``table`` with each tree key's threshold set to one, so a large batch
    goes through the numpy join; atom and bond keys keep theirs."""
    trees = {bit + 1 for bit, _, _ in table.compiled.tree_keys}
    return KeyTable(replace(k, count_threshold=1) if k.id in trees else k for k in table)


# the counted tables check that a tree key counted past one is scored in
# Python at every batch size; their threshold-one forms check the numpy join
_KEY_TABLES = {
    "shipped": default_key_table(),
    "custom": load_key_table(_CUSTOM_TABLE.splitlines()),
    "generated_a": _generated_key_table(201),
    "generated_b": _generated_key_table(202),
}
_KEY_TABLES.update({f"{name}_once": _tree_keys_once(_KEY_TABLES[name]) for name in list(_KEY_TABLES)[1:]})

# built with Molecule: aromatic=1 beside aromatic=True, and a charged,
# hydrogen-bearing ring of unknown elements
_MADE = [
    Molecule(
        [Atom("C", aromatic=1), Atom("C", aromatic=True), Atom("N", aromatic=1), Atom("O")],
        [Bond(0, 1, aromatic=True), Bond(1, 2, aromatic=True), Bond(0, 2, aromatic=True),
         Bond(2, 3)],
    ),
    Molecule(
        [Atom("Xx", charge=1, hydrogens=2), Atom("Q", charge=-1), Atom("X", hydrogens=1),
         Atom("Cl")],
        [Bond(0, 1, order=2), Bond(1, 2), Bond(2, 0), Bond(2, 3)],
    ),
]

_KEY_CORPORA = {"le10": _SMALL[:120], "le30": _LARGE[:60], "odd": _ODD + _MADE}


@lru_cache(maxsize=None)
def _key_oracle_bits(table, corpus):
    return [oracles.key_oracle(m, _KEY_TABLES[table]) for m in _KEY_CORPORA[corpus]]


@lru_cache(maxsize=None)
def _morgan_oracle_bits(corpus, radius, nbits):
    return [oracles.morgan_oracle(m, radius, nbits) for m in _KEY_CORPORA[corpus]]


@pytest.mark.parametrize("table", list(_KEY_TABLES))
@pytest.mark.parametrize("corpus", list(_KEY_CORPORA))
@pytest.mark.parametrize("batch", [1, 2, 5, 32, 40])
def test_key_chunk_kernel_matches_oracle(cutoff, table, corpus, batch):
    # a batch of one is each molecule alone; the others mix molecules
    mols, want = _KEY_CORPORA[corpus], _key_oracle_bits(table, corpus)
    for lo in range(0, len(mols), batch):
        assert key_fingerprints(mols[lo:lo + batch], _KEY_TABLES[table]) == want[lo:lo + batch]


@pytest.mark.parametrize("corpus", list(_KEY_CORPORA))
@pytest.mark.parametrize("batch", [1, 2, 5, 32, 40])
@pytest.mark.parametrize("radius,nbits", [(2, 2048), (0, 64), (3, 997), (1, 2**70)])
def test_morgan_chunk_kernel_matches_oracle(cutoff, corpus, batch, radius, nbits):
    mols, want = _KEY_CORPORA[corpus], _morgan_oracle_bits(corpus, radius, nbits)
    for lo in range(0, len(mols), batch):
        assert morgan_fingerprints(mols[lo:lo + batch], radius, nbits) == want[lo:lo + batch]


def test_one_batch_feeds_all_three_kernels(cutoff):
    mols = _LARGE[:20] + _MADE
    batch = MoleculeBatch(mols)
    table = _KEY_TABLES["generated_a"]
    assert key_fingerprints(batch, table) == [oracles.key_oracle(m, table) for m in mols]
    assert path_fingerprints(batch) == [oracles.path_oracle(m) for m in mols]
    assert morgan_fingerprints(batch) == [oracles.morgan_oracle(m) for m in mols]
    # the graph table is built at most once, by the first numpy kernel
    assert ("table" in vars(batch)) == (cutoff != "python")


def test_counted_tree_keys_never_reach_the_numpy_join():
    # the custom table counts N(-C)-C, C-C-C and Q~C~Q past one
    table = load_key_table(_CUSTOM_TABLE.splitlines())
    assert not table.compiled.chunkable
    mols = _LARGE[:20]
    assert MoleculeBatch(mols).in_numpy
    assert key_fingerprints(mols, table) == [oracles.key_oracle(m, table) for m in mols]
    assert "chunk" not in vars(table.compiled)
    with pytest.raises(ValueError, match="count"):
        table.compiled.chunk


def test_tree_key_join_blocks_do_not_change_bits(monkeypatch):
    # blocks of a few candidates split every level and count sets often
    monkeypatch.setattr(fingerprints, "_NUMPY_MIN_ATOMS", 0)
    monkeypatch.setattr(chunk_kernels, "_BLOCK_STEPS", 5)
    mols = _LARGE[:30] + _MADE
    for name in ("shipped", "custom_once", "generated_a_once", "generated_b_once"):
        table = _KEY_TABLES[name]
        assert key_fingerprints(mols, table) == [oracles.key_oracle(m, table) for m in mols], name
        assert "chunk" in vars(table.compiled)


def _path_key_table(thresholds):
    return load_key_table(f"{i}\t{t}\t*~*~*~*~*" for i, t in enumerate(thresholds, 1))


@pytest.mark.parametrize("n", [9, 20])
def test_tree_key_join_memory_is_bounded(monkeypatch, n):
    # any 5 atoms of an n-clique hold a 5-node path, so the key counts
    # comb(n, 5) atom sets among n!/(n-5)! embeddings; a threshold one over
    # that makes the embedder walk all of them (a counted table is scored in
    # Python at any cutoff)
    monkeypatch.setattr(fingerprints, "_NUMPY_MIN_ATOMS", 0)
    sets = comb(n, 5)
    table = _path_key_table([1, 2, sets // 2, sets, sets + 1])
    clique = _dense(n)
    tracemalloc.start()
    try:
        (fp,) = key_fingerprints([clique], table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20
    assert fp.bits == {0, 1, 2, 3}
    # the reference enumerates every embedding one at a time, so it is asked
    # only what it answers quickly
    quick = table if n == 9 else _path_key_table([1, 2, 100])
    assert key_fingerprints([clique], quick) == [oracles.key_oracle(clique, quick)]
    # with an isolated N as its last pattern node, the numpy join explores
    # every embedding of the first four nodes and completes none
    lone = Molecule(clique.atoms + (Atom("N", hydrogens=3),), clique.bonds)
    table = load_key_table(["1\t1\t*~*~*~*~N", "2\t1\t*~*~*~*~*"])
    tracemalloc.start()
    try:
        (fp,) = key_fingerprints([lone], table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "chunk" in vars(table.compiled)
    assert peak <= 64 * 2**20
    assert fp.bits == {1}


def test_morgan_seed_memo_is_bounded(cutoff):
    # more distinct (atom, degree) pairs than the memo keeps, in one batch
    # and then a few at a time
    seed = fingerprints._morgan_seed
    atoms = [Atom("C", isotope=i, hydrogens=0) for i in range(seed.cache_info().maxsize + 500)]
    crowd = Molecule(atoms, [Bond(i, i + 1) for i in range(0, len(atoms) - 1, 2)])
    assert morgan_fingerprints([crowd], 1) == [oracles.morgan_oracle(crowd, 1)]
    assert seed.cache_info().currsize == seed.cache_info().maxsize
    for lo in range(0, 40, 3):
        chunk = _LARGE[lo:lo + 3] + _MADE
        assert morgan_fingerprints(chunk) == [oracles.morgan_oracle(m) for m in chunk]
    assert seed.cache_info().currsize <= seed.cache_info().maxsize


def test_slot_row_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(fingerprints, "_NUMPY_MIN_ATOMS", 0)
    monkeypatch.setattr(chunk_kernels, "_SLOT_MEMO_CAP", 8)
    table = _tree_keys_once(load_key_table(_CUSTOM_TABLE.splitlines()))
    mols = _LARGE[:40] + _MADE
    for lo in range(0, len(mols), 3):
        chunk = mols[lo:lo + 3]
        assert key_fingerprints(chunk, table) == [oracles.key_oracle(m, table) for m in chunk]
        assert 0 < len(table.compiled.chunk.slot_rows) <= 8


@pytest.mark.parametrize("big_id", [10**7, 10**21])
def test_large_key_ids_keep_memory_per_key(cutoff, big_id):
    # hits are kept per key, not per bit: an id far past the number of keys
    # costs no wider rows, and one past int64 still scores, as do atom and
    # bond thresholds past int64 (never met); the tree keys have threshold
    # one, so the numpy join scores them
    table = load_key_table([
        "1\t1\tC",
        f"{big_id}\t1\tO",
        f"{big_id - 1}\t1\tC~O",
        f"{big_id + 1}\t1\tC~C~O",
        f"2\t{10**21}\tC",
        f"3\t{10**21}\tC~C",
        "4\t1\tC~C~C",
    ])
    mols = _LARGE[:3]
    assert sum(len(m.atoms) for m in mols) >= 24
    tracemalloc.start()
    try:
        got = key_fingerprints(mols, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == [oracles.key_oracle(m, table) for m in mols]
    assert any(big_id - 1 in fp.bits for fp in got)
    assert ("chunk" in vars(table.compiled)) == (cutoff != "python")
    assert peak <= 16 * 2**20
