import bisect
import hashlib
import json
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from exactrnn.problems import (
    ImmModInstance,
    ImmZInstance,
    SortedDetConnInstance,
    conn_oracle,
    decode_conn_unary,
    encode_conn_unary,
    gen_conn,
    gen_imm_mod,
    gen_imm_z,
    generate_dataset,
    imm_mod_oracle,
    imm_product,
    imm_z_oracle,
    is_prime,
    IDENTITY3,
    random_sorted_instance,
    reachable,
    record_to_line,
    reduce_to_sorted,
    rng_for,
    split_seed,
)

from oracles import (
    gen_conn_two_scans, gen_imm_mod_per_entry, gen_imm_z_choices, imm_running_products,
)


# --- connectivity oracle and encoding --------------------------------------------


def test_conn_oracle_trivial_cases():
    assert conn_oracle(SortedDetConnInstance(n=3, s=2, t=2, edges=()))
    assert not conn_oracle(SortedDetConnInstance(n=3, s=1, t=3, edges=((2, 3),)))


def test_conn_oracle_chain():
    inst = SortedDetConnInstance(n=5, s=1, t=5, edges=((1, 3), (3, 5)))
    assert conn_oracle(inst)
    assert reachable(inst.edges, 1, 5)


def test_conn_oracle_matches_bfs():
    rng = random.Random(0)
    for _ in range(300):
        inst = random_sorted_instance(rng, max_n=40)
        assert conn_oracle(inst) == reachable(inst.edges, inst.s, inst.t)


def test_encode_minimal_instance():
    inst = SortedDetConnInstance(n=1, s=1, t=1, edges=())
    assert encode_conn_unary(inst) == ["$", "0", "|", "0", "#"]


def test_encode_token_count():
    inst = SortedDetConnInstance(n=6, s=2, t=6, edges=((1, 4), (3, 5)))
    tokens = encode_conn_unary(inst)
    marks = inst.s + inst.t + sum(i + j for i, j in inst.edges)
    separators = 1 + 2 * len(inst.edges)
    assert len(tokens) == 2 + marks + separators  # plus BOS and end marker


def test_encode_decode_round_trip():
    rng = random.Random(1)
    for _ in range(1000):
        inst = random_sorted_instance(rng, max_n=30, max_edges=6)
        decoded = decode_conn_unary(encode_conn_unary(inst))
        assert (decoded.s, decoded.t, decoded.edges) == (inst.s, inst.t, inst.edges)


def test_decode_rejects_malformed():
    with pytest.raises(ValueError):
        decode_conn_unary(["0", "|", "0", "#"])
    with pytest.raises(ValueError):
        decode_conn_unary(["$", "0", "|", "0", "|", "0", "#"])


@pytest.mark.parametrize(
    "bad", ["00", "0|", "", "x", 0, None, ["0"]],
    ids=["two-marks", "mark-and-separator", "empty", "unknown", "int", "none", "list"],
)
def test_decode_rejects_tokens_other_than_marks_and_separators(bad):
    """A token that joins into valid text ("00") is still rejected, by name."""
    with pytest.raises(ValueError, match="unexpected token " + re.escape(repr(bad))):
        decode_conn_unary(["$", "0", "|", bad, "|", "0", "|", "0", "#"])


def test_instance_validation():
    with pytest.raises(ValueError):
        SortedDetConnInstance(n=3, s=1, t=3, edges=((2, 3), (2, 3)))
    with pytest.raises(ValueError):
        SortedDetConnInstance(n=3, s=1, t=3, edges=((3, 2),))
    with pytest.raises(ValueError):
        SortedDetConnInstance(n=3, s=4, t=3, edges=())


# --- reduction ----------------------------------------------------------------------


def test_reduce_sorted_chain_preserved():
    edges = ((1, 2), (2, 3))
    inst = reduce_to_sorted(3, edges, 1, 3)
    assert conn_oracle(inst)
    sources = [i for i, _ in inst.edges]
    assert sources == sorted(sources)
    assert len(set(sources)) == len(sources)


def test_reduce_back_edge_graph():
    # 1 -> 3, 3 -> 2, 2 -> 4: unsorted but deterministic; 4 reachable from 1
    edges = ((1, 3), (3, 2), (2, 4))
    inst = reduce_to_sorted(4, edges, 1, 4)
    assert conn_oracle(inst)
    assert reachable(inst.edges, inst.s, inst.t)


def test_reduce_preserves_reachability_randomized():
    from exactrnn.verify import random_det_graph

    rng = random.Random(2)
    for _ in range(100):
        n, edges, s, t = random_det_graph(rng)
        inst = reduce_to_sorted(n, edges, s, t)
        assert conn_oracle(inst) == reachable(edges, s, t)


def test_reduce_rejects_bad_inputs():
    with pytest.raises(ValueError):
        reduce_to_sorted(3, ((1, 2), (1, 3)), 1, 3)  # nondeterministic
    with pytest.raises(ValueError):
        reduce_to_sorted(3, ((1, 2), (2, 3), (3, 1)), 1, 3)  # target has out-edge


def test_reduce_empty_graph():
    inst = reduce_to_sorted(3, (), 2, 2)
    assert conn_oracle(inst)
    inst = reduce_to_sorted(3, (), 1, 2)
    assert not conn_oracle(inst)


def test_reduce_output_size():
    # node count scales as n * (edge count + 1) plus the fresh final node
    n = 6
    edges = ((1, 2), (2, 3), (3, 5), (4, 6))
    inst = reduce_to_sorted(n, edges, 1, 5)
    m = len(edges)
    assert inst.n == n * (m + 1) + 1
    assert len(inst.edges) == m * (m + 1) + 1


# --- generators -----------------------------------------------------------------------


def test_gen_conn_labels_consistent():
    rng = random.Random(3)
    for label in (True, False):
        for _ in range(50):
            inst = gen_conn((2, 30), 0.5, label, rng)
            assert conn_oracle(inst) == label


def test_gen_conn_extreme_probability_is_single_chain():
    rng = random.Random(4)
    inst = gen_conn((10, 10), 0.999, True, rng)
    assert conn_oracle(inst)


def test_gen_conn_rejects_bad_probability():
    rng = random.Random(5)
    with pytest.raises(ValueError):
        gen_conn((2, 5), 1.0, True, rng)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    size=st.integers(1, 300).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo, 300))),
    p=st.sampled_from([0.1, 0.5, 0.9]),
    label=st.booleans(),
)
@example(seed=0, size=(1, 1), p=0.5, label=False)  # two vertices, no edge
@example(seed=0, size=(1, 1), p=0.5, label=True)
@example(seed=1, size=(1, 2), p=0.1, label=False)
@example(seed=1, size=(1, 2), p=0.9, label=True)
def test_gen_conn_matches_two_scans(seed, size, p, label):
    fast, ref = random.Random(seed), random.Random(seed)
    assert gen_conn(size, p, label, fast) == gen_conn_two_scans(size, p, label, ref)
    assert fast.getstate() == ref.getstate()


def test_gen_imm_mod_oracle():
    rng = random.Random(6)
    inst = gen_imm_mod((50, 50), 5, 4, rng)
    targets = imm_mod_oracle(inst)
    # independent re-computation with plain modular loops
    p = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    expect = []
    for mat in inst.matrices:
        m2 = [[mat[3 * r + c] for c in range(3)] for r in range(3)]
        p = [
            [sum(p[r][k] * m2[k][c] for k in range(3)) % 5 for c in range(3)]
            for r in range(3)
        ]
        expect.append(p[4 // 3][4 % 3])
    assert targets == expect


def test_gen_imm_mod_identity_instance():
    inst = ImmModInstance(T=3, m=7, q_k=0, matrices=(IDENTITY3,) * 3)
    assert imm_mod_oracle(inst) == [1, 1, 1]


def test_gen_imm_mod_single_matrix():
    rng = random.Random(7)
    inst = gen_imm_mod((1, 1), 5, 7, rng)
    assert imm_mod_oracle(inst) == [inst.matrices[0][7] % 5]


def test_gen_imm_mod_requires_prime():
    rng = random.Random(8)
    with pytest.raises(ValueError):
        gen_imm_mod((1, 5), 6, 0, rng)
    assert is_prime(2) and is_prime(13) and not is_prime(9)


def test_gen_imm_mod_invertible_matrices():
    from exactrnn.problems import mat3_det_mod

    rng = random.Random(9)
    inst = gen_imm_mod((20, 20), 3, 0, rng)
    assert all(mat3_det_mod(m, 3) != 0 for m in inst.matrices)


def _random_of(a: int, b: int) -> float:
    """``random()`` of the two 32-bit words a, b (CPython's genrand_res53)."""
    return ((a >> 5) * 2**26 + (b >> 6)) / 2**53


def test_mersenne_twister_word_facts():
    # gen_imm_mod reads choice((-1, 0, 1)) draws from whole 32-bit words,
    # gen_imm_z the random() calls of choices from pairs of them
    n = 5
    a, b = random.Random(12), random.Random(12)
    block = a.getrandbits(32 * n)
    words = [b.getrandbits(32) for _ in range(n)]
    assert block == sum(w << (32 * i) for i, w in enumerate(words)), (
        "getrandbits(32 * n) is no longer n successive 32-bit words, first"
        " word least significant; gen_imm_mod's block draws are invalid"
    )
    a, b = random.Random(13), random.Random(13)
    pairs = [(a.getrandbits(2), b.getrandbits(32) >> 30) for _ in range(64)]
    assert all(x == y for x, y in pairs), (
        "getrandbits(2) is no longer the top two bits of one 32-bit word;"
        " gen_imm_mod's block draws are invalid"
    )
    a, b = random.Random(14), random.Random(14)
    pairs = [(a.random(), b.getrandbits(32), b.getrandbits(32)) for _ in range(64)]
    assert all(x == _random_of(w0, w1) for x, w0, w1 in pairs), (
        "random() no longer reads two successive 32-bit words;"
        " gen_imm_z's block draws are invalid"
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    m=st.sampled_from([2, 3, 5, 7]),
    q_k=st.integers(0, 8),
    size=st.integers(1, 600).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo, 600))),
)
@example(seed=0, m=5, q_k=0, size=(1, 1))
@example(seed=1, m=2, q_k=8, size=(600, 600))  # 5400 entries: past one block of words
def test_gen_imm_mod_consumes_the_per_entry_stream(seed, m, q_k, size):
    from exactrnn.problems import _WORDS_PER_DRAW

    assert 9 * 600 > _WORDS_PER_DRAW
    fast, ref = random.Random(seed), random.Random(seed)
    assert gen_imm_mod(size, m, q_k, fast) == gen_imm_mod_per_entry(size, m, q_k, ref)
    assert fast.getstate() == ref.getstate()


class _CountingRandom(random.Random):
    """A ``random.Random`` that records the size of each ``getrandbits``."""

    def __init__(self, seed):
        super().__init__(seed)
        self.bits = []

    def getrandbits(self, k):
        self.bits.append(k)
        return super().getrandbits(k)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), k=st.integers(1, 5000))
@example(seed=0, k=1)
@example(seed=1, k=2048)  # one full block of 4096 words
@example(seed=2, k=2049)
@example(seed=3, k=9 * 600)
def test_imm_z_entries_are_the_choices_stream(seed, k):
    from exactrnn.problems import _WORDS_PER_DRAW, _imm_z_entries

    assert 2 * 5000 > _WORDS_PER_DRAW  # k entries take 2k words
    fast, ref = _CountingRandom(seed), random.Random(seed)
    entries = list(_imm_z_entries(fast, k))
    assert entries == ref.choices((-1, 0, 1), weights=(45, 10, 45), k=k)
    assert fast.getstate() == ref.getstate()
    assert max(fast.bits) <= 32 * _WORDS_PER_DRAW  # the buffers stay bounded


class _Words:
    """A stand-in rng whose ``getrandbits`` returns the given 32-bit words,
    first word least significant."""

    def __init__(self, words):
        self.words = words

    def getrandbits(self, bits):
        assert bits == 32 * len(self.words)
        return sum(w << (32 * i) for i, w in enumerate(self.words))


def _flip(cum: float) -> int:
    """The least 53-bit N with N / 2**53 * 100.0 >= cum, found by stepping
    through the N near cum / 100 * 2**53."""
    n = int(cum / 100 * 2**53) - 64
    while n / 2**53 * 100.0 < cum:
        n += 1
    return n


@pytest.mark.parametrize("cum, top", [(45, 115), (55, 140)])
def test_imm_z_entries_decide_undecided_top_bytes_exactly(cum, top):
    from exactrnn.problems import _imm_z_entries

    flip = _flip(cum)
    assert flip >> 45 == top and (flip - 1) >> 45 == top
    rng = random.Random(cum)
    ns = [flip + d for d in range(-4, 5)]
    ns += [top << 45, (top + 1 << 45) - 1]  # the ends of the top byte
    ns += [(top << 45) + rng.randrange(2**45) for _ in range(32)]
    words = []
    for n in ns:
        # N's 53 bits with random low bits below them in each word
        words += [(n >> 26) << 5 | rng.randrange(32), (n & (2**26 - 1)) << 6 | rng.randrange(64)]
    got = list(_imm_z_entries(_Words(words), len(ns)))
    want = [
        (-1, 0, 1)[bisect.bisect_right((45, 55, 100), _random_of(a, b) * 100.0, 0, 2)]
        for a, b in zip(words[::2], words[1::2])
    ]
    assert got == want
    below, above = (-1, 0) if cum == 45 else (0, 1)
    assert (got[3], got[4]) == (below, above)  # flip - 1 and flip


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    want=st.sampled_from([None, 0, 1]),
    size=st.integers(1, 300).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo, 300))),
)
@example(seed=0, want=0, size=(1, 1))
@example(seed=1, want=1, size=(250, 300))  # every try past one block of words
def test_gen_imm_z_consumes_the_choices_stream(seed, want, size):
    fast, ref = random.Random(seed), random.Random(seed)
    assert gen_imm_z(size, fast, want_label=want) == gen_imm_z_choices(size, ref, want_label=want)
    assert fast.getstate() == ref.getstate()


def test_imm_z_labels():
    assert imm_z_oracle(ImmZInstance(T=1, matrices=(IDENTITY3,))) == 0
    zero_first_row = (0, 0, 0, 1, 1, 0, 0, 0, 1)
    assert imm_z_oracle(ImmZInstance(T=1, matrices=(zero_first_row,))) == 1


def test_imm_z_random_against_bigint():
    rng = random.Random(10)
    for _ in range(300):
        inst = gen_imm_z((1, 30), rng)
        p = imm_product([x for mat in inst.matrices for x in mat])
        assert imm_z_oracle(inst) == (1 if p[0] == 0 else 0)


def test_imm_product_is_the_last_running_product():
    rng = random.Random(12)
    for T in (1, 2, 7, 40):
        stream = [rng.choice((-2, -1, 0, 1, 2)) for _ in range(9 * T)]
        (*_, last) = imm_running_products([stream[k : k + 9] for k in range(0, 9 * T, 9)])
        assert imm_product(stream) == tuple(x for row in last for x in row)
    assert imm_product([]) == IDENTITY3


def test_imm_z_clip_agrees_when_small():
    rng = random.Random(11)
    for _ in range(100):
        inst = gen_imm_z((1, 6), rng)
        clipped = ImmZInstance(T=inst.T, matrices=inst.matrices, clip=2**63 - 1)
        assert imm_z_oracle(inst) == imm_z_oracle(clipped)


_IMM_ENTRIES = st.one_of(st.integers(-1, 1), st.integers(-9, 9), st.integers(-10**6, 10**6))
_IMM_MATRICES = st.lists(st.tuples(*[_IMM_ENTRIES] * 9), max_size=30)


@settings(max_examples=100, deadline=None)
@given(mats=_IMM_MATRICES, m=st.sampled_from([2, 3, 5, 7]), q_k=st.integers(0, 8))
def test_imm_mod_oracle_matches_full_product(mats, m, q_k):
    inst = ImmModInstance(T=len(mats), m=m, q_k=q_k, matrices=tuple(mats))
    want = [p[q_k // 3][q_k % 3] for p in imm_running_products(mats, mod=m)]
    assert imm_mod_oracle(inst) == want


@settings(max_examples=100, deadline=None)
@given(mats=_IMM_MATRICES, clip=st.sampled_from([None, 1, 2, 3]))
def test_imm_z_oracle_matches_full_product(mats, clip):
    inst = ImmZInstance(T=len(mats), matrices=tuple(mats), clip=clip)
    prods = imm_running_products(mats, clip=clip)
    entry = prods[-1][0][0] if prods else 1
    assert imm_z_oracle(inst) == (1 if entry == 0 else 0)


def test_imm_z_small_clip_bites():
    # row 0 runs (1, 1, 0) -> (2, 1, 0), which clip 1 caps to (1, 1, 0);
    # the last factor reads row[0] - row[1], so only clip 1 makes (0,0) zero
    a = (1, 1, 0, 0, 1, 0, 0, 0, 1)
    b = (1, 1, 0, 1, 0, 0, 0, 0, 1)
    c = (1, 0, 0, -1, 0, 0, 0, 0, 0)
    mats = (a, b, c)
    assert imm_z_oracle(ImmZInstance(T=3, matrices=mats)) == 0
    assert imm_z_oracle(ImmZInstance(T=3, matrices=mats, clip=1)) == 1
    assert imm_z_oracle(ImmZInstance(T=3, matrices=mats, clip=2)) == 0
    assert imm_running_products(mats, clip=1)[-1][0][0] == 0


@pytest.mark.parametrize("clip", [0, -1, -(2**63)])
def test_imm_z_rejects_clip_below_one(clip):
    with pytest.raises(ValueError, match="clip"):
        ImmZInstance(T=1, matrices=((0,) * 9,), clip=clip)
    with pytest.raises(ValueError, match="clip"):
        gen_imm_z((1, 3), random.Random(0), clip=clip)


@pytest.mark.parametrize("want", [2, -1, "1", 0.5])
def test_gen_imm_z_rejects_bad_want_label(want):
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="want_label"):
        gen_imm_z((1, 3), rng, want_label=want)
    assert rng.getstate() == state  # rejected before any draw


def test_gen_imm_z_unreachable_label_raises():
    with pytest.raises(ValueError, match="no imm-z instance with label 1 in 0 draws"):
        gen_imm_z((1, 3), random.Random(0), want_label=1, max_tries=0)


def test_imm_z_balanced_labels():
    rng = random.Random(12)
    for want in (0, 1):
        inst = gen_imm_z((1, 5), rng, want_label=want)
        assert imm_z_oracle(inst) == want


# --- determinism ------------------------------------------------------------------------


def test_split_seed_is_stable():
    assert split_seed(7, "a", 1) == split_seed(7, "a", 1)
    assert split_seed(7, "a", 1) != split_seed(7, "a", 2)
    assert split_seed(7, "ab") != split_seed(7, "a", "b")  # "7/ab" vs "7/a/b"


def test_generate_dataset_deterministic():
    a = generate_dataset("conn", 20, (2, 20), seed=99)
    b = generate_dataset("conn", 20, (2, 20), seed=99)
    assert a == b
    c = generate_dataset("conn", 20, (2, 20), seed=100)
    assert a != c


def test_generate_dataset_records_match_oracles():
    lines = generate_dataset("imm-z", 30, (1, 10), seed=5)
    for line in lines:
        rec = json.loads(line)
        mats = tuple(
            tuple(rec["tokens"][9 * i : 9 * i + 9]) for i in range(rec["meta"]["T"])
        )
        assert imm_z_oracle(ImmZInstance(T=rec["meta"]["T"], matrices=mats)) == rec["label"]
    lines = generate_dataset("imm-mod", 20, (1, 10), seed=5, m=5, q_k=2)
    for line in lines:
        rec = json.loads(line)
        mats = tuple(
            tuple(rec["tokens"][9 * i : 9 * i + 9]) for i in range(rec["meta"]["T"])
        )
        inst = ImmModInstance(T=rec["meta"]["T"], m=5, q_k=2, matrices=mats)
        assert imm_mod_oracle(inst) == rec["targets"]
    lines = generate_dataset("conn", 20, (2, 15), seed=5)
    for line in lines:
        rec = json.loads(line)
        inst = decode_conn_unary(rec["tokens"])
        assert int(conn_oracle(inst)) == rec["label"]


@pytest.mark.parametrize(
    "task, kwargs, digest",
    [
        ("imm-z", {"balanced": True},
         "dcd491151c1e88e7fe2a70d584ae8ca4da7de0af9fac9e0c5f37c2b92fb0b222"),
        ("imm-z", {"clip": 3, "balanced": True},
         "50ee5947d4a5f74a877ccee4955befb00a7256c5c646a2abb297ead6b7ff4f91"),
        ("imm-mod", {"m": 7, "q_k": 5},
         "6bc8477863d4daa10082e044bac5f94a10da90872e4b48832cb153074383ef4f"),
        # default options: also pinned on the CLI's output by the CI workflow
        ("conn", {},
         "5190b28013d3dc45802b70363caf99b9be135f7a6030d35d7468b72cf7b23620"),
        ("conn", {"p": 0.3},
         "f5ec4037418e74e3788482aeb4d99f02b9eae7a0908fee0efe15dcbecb390954"),
        ("imm-mod", {},
         "28306266091e9b56ec9fc0797771893b0bc3f23056ac2c9b478f984fb89f338a"),
        ("imm-z", {},
         "163df29ddadb01d09d984ce07c82823775f453c4011ed14b598c0247d55b73b4"),
    ],
    ids=["imm-z-balanced", "imm-z-clip3-balanced", "imm-mod-m7-q5",
         "conn", "conn-p0.3", "imm-mod", "imm-z"],
)
def test_generate_dataset_bytes_pinned(task, kwargs, digest):
    lines = generate_dataset(task, 300, (1, 30), seed=113, **kwargs)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "size_range, kwargs, digest",
    [
        # default options: also pinned on the CLI's output by the CI workflow
        ((100, 400), {},
         "0de4738c7c18ce2b01e92b83a8385184003c1b0314cb05da62860ef854c9c00d"),
        ((100, 400), {"p": 0.9},
         "6ef5292bc3c316d7723a936c14b6f08e21eb22200b1977863b747da107c65a2c"),
        # two vertices: every negative record has no edges
        ((1, 1), {},
         "8e2b8084f4041f6368ab2614b560bddfb5d5ac64d84d2a68e8ebf30cf0a1e925"),
    ],
    ids=["conn-100-400", "conn-100-400-p0.9", "conn-1-1"],
)
def test_generate_dataset_conn_bytes_pinned(size_range, kwargs, digest):
    lines = generate_dataset("conn", 40, size_range, seed=113, **kwargs)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "kwargs, digest",
    [
        ({}, "5520ad1d1a7e688eb1417890bc169934e8ab715159876c1839eedd828a2f4d13"),
        ({"balanced": True},
         "2b5a0e60568d30c170041a0063f5108a5f7d2b14af9eacc412bda65d5450276f"),
    ],
    ids=["imm-z", "imm-z-balanced"],
)
def test_generate_dataset_large_imm_z_bytes_pinned(kwargs, digest):
    # every try draws 5400 to 7200 entries, far past one bounded block of words
    lines = generate_dataset("imm-z", 20, (600, 800), seed=113, **kwargs)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


_DATASET_OPTIONS = {
    "conn": st.fixed_dictionaries({}, optional={"p": st.sampled_from([0.1, 0.5, 0.9])}),
    "imm-mod": st.fixed_dictionaries({
        "m": st.sampled_from([2, 3, 5, 7]), "q_k": st.integers(0, 8),
    }),
    "imm-z": st.fixed_dictionaries({}, optional={
        "clip": st.sampled_from([1, 2, 3, 2**63 - 1]), "balanced": st.booleans(),
    }),
}


_DATASET_CASES = st.sampled_from(sorted(_DATASET_OPTIONS)).flatmap(
    lambda task: _DATASET_OPTIONS[task].map(lambda options: (task, options))
)


@settings(max_examples=60, deadline=None)
# size range (1, 1) draws two vertices: negative conn instances are edgeless
@example(case=("conn", {}), seed=0, lo=1, width=0)
@example(case=("imm-z", {"clip": 1}), seed=0, lo=1, width=0)
@example(case=("conn", {}), seed=2**64 - 1, lo=1, width=12)
@example(case=("imm-mod", {"m": 7, "q_k": 8}), seed=2**64 - 1, lo=1, width=12)
@given(
    case=_DATASET_CASES,
    seed=st.integers(0, 2**64 - 1),
    lo=st.integers(1, 12),
    width=st.integers(0, 12),
)
def test_dataset_lines_are_canonical_json(case, seed, lo, width):
    task, options = case
    for line in generate_dataset(task, 6, (lo, lo + width), seed, **options):
        rec = json.loads(line)
        assert line == json.dumps(rec, sort_keys=True, separators=(",", ":"))
        assert list(rec)[-1] == "tokens"
        if task == "conn":
            meta = rec["meta"]
            inst = SortedDetConnInstance(
                n=meta["n"], s=meta["s"], t=meta["t"],
                edges=tuple(tuple(e) for e in meta["edges"]),
            )
            assert rec["tokens"] == encode_conn_unary(inst)
            assert rec["label"] == int(conn_oracle(inst))


@pytest.mark.parametrize("label, inst", [
    (0, SortedDetConnInstance(n=2, s=1, t=2, edges=())),
    # a tuple's repr would end this edge list in a comma
    (1, SortedDetConnInstance(n=2, s=1, t=2, edges=((1, 2),))),
    (1, gen_conn((300, 300), 0.5, True, random.Random(7))),
], ids=["no-edge", "one-edge", "many-edges"])
def test_conn_line_is_canonical_json(label, inst):
    seed = 2**64 - 1
    line = record_to_line({"label": label, "seed": seed}, inst)
    rec = json.loads(line)
    assert line == json.dumps(rec, sort_keys=True, separators=(",", ":"))
    assert rec == {
        "label": label,
        "meta": {"edges": [list(e) for e in inst.edges], "n": inst.n, "s": inst.s,
                 "seed": seed, "t": inst.t},
        "task": "conn",
        "tokens": encode_conn_unary(inst),
    }


@pytest.mark.parametrize("task, options, message", [
    ("bogus", {}, "unknown task"),
    ("conn", {"m": 5}, "does not take m"),
    ("imm-mod", {"p": 0.5}, "does not take p"),
    ("imm-z", {"q_k": 1, "m": 5}, "does not take m, q_k"),
    ("conn", {"p": 1.5}, "p must be in"),
    ("conn", {"p": 0.0}, "p must be in"),
    ("imm-mod", {"m": 4}, "prime"),
    ("imm-mod", {"q_k": 9}, "q_k"),
    ("imm-z", {"clip": 0}, "clip must be >= 1"),
    ("imm-z", {"want_label": 2}, "want_label"),
])
def test_generate_dataset_checks_task_and_options_before_any_draw(
    monkeypatch, task, options, message
):
    from exactrnn import problems

    monkeypatch.setattr(problems, "rng_for", lambda *a: pytest.fail("drew"))
    for count in (0, 2):
        with pytest.raises(ValueError, match=message):
            generate_dataset(task, count, (1, 3), seed=0, **options)


def test_rng_for_isolated_streams():
    r1 = rng_for(3, "x", 0)
    r2 = rng_for(3, "x", 1)
    assert [r1.random() for _ in range(3)] != [r2.random() for _ in range(3)]
