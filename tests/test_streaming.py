"""The streamed forward passes against the finite-window router spec.

``stream_entries`` builds each block's steps once and never queries the
router; ``net.router.query_at(t, tokens)`` is the specification it must
match at every position, also for automata with non-dyadic entries. Also
checked here: the column steps an automaton net's completions cost per
block, either automaton forward on either family's net, forwards that neither query the router nor build step values (nor,
for the 3x3-product nets, a matrix or vector value per token; nor, for the
automaton nets, a rational matrix product), memory that does not grow
with the stream, 3x3-product streams given as tuples or one-pass iterators,
and clean ``ValueError``s on tokens the nets cannot read.
"""

import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from exactrnn import delta_gadgets, kernels, rwkv_gadgets
from exactrnn.automata import Wfa, wfa_prefix_values
from exactrnn.delta_gadgets import (
    IDENTITY_PAD_STEPS,
    SUPERBLOCK_MATRICES,
    SUPERBLOCK_TOKENS,
    HStep,
    apply_matrix_ops,
    build_dnet_imm,
    build_dnet_wfa,
    dnet_imm_forward,
    dnet_wfa_forward,
)
from exactrnn.kernels import run_hsteps
from exactrnn.linalg import RMatrix, RVector
from exactrnn.problems import imm_product
from exactrnn.rational import Rational
from exactrnn.rwkv_gadgets import (
    PAD,
    OverwriteSpec,
    RouterTable,
    WfaNet,
    build_rwkv_imm,
    build_rwkv_wfa,
    factor_apply_ops,
    rwkv_imm_forward,
    rwkv_wfa_forward,
    stream_entries,
)
from exactrnn.verify import random_wfa

IMM_FORWARDS = pytest.mark.parametrize("build, forward", [
    (build_dnet_imm, dnet_imm_forward),
    (build_rwkv_imm, rwkv_imm_forward),
], ids=["dnet", "rwkv"])

WFA_FORWARDS = pytest.mark.parametrize("build, forward", [
    (build_dnet_wfa, dnet_wfa_forward),
    (build_rwkv_wfa, rwkv_wfa_forward),
], ids=["dnet", "rwkv"])

FORWARDS = pytest.mark.parametrize("build, forward", [
    (build_dnet_wfa, dnet_wfa_forward),
    (build_rwkv_wfa, rwkv_wfa_forward),
    (build_dnet_imm, dnet_imm_forward),
    (build_rwkv_imm, rwkv_imm_forward),
], ids=["dnet-wfa", "rwkv-wfa", "dnet-imm", "rwkv-imm"])


def no_router_queries(monkeypatch):
    """Make any router query fail."""

    def query(self, key):
        raise AssertionError("router queried")

    monkeypatch.setattr(RouterTable, "query", query)


def assert_stream_equals_spec(build, tokens):
    """Every streamed entry equals the spec entry at its position; the
    stream never queries the router."""
    with pytest.MonkeyPatch.context() as patch:
        no_router_queries(patch)
        streamed = list(stream_entries(build(), tokens))
    spec_net = build()
    assert len(streamed) == len(tokens)
    for t, (factor, completion) in enumerate(streamed, start=1):
        entry = spec_net.router.query_at(t, tokens)
        assert factor == entry.factor, f"factor differs at position {t}"
        assert completion == entry.completion, f"completion differs at position {t}"


def wfa_word(n_states, blocks, cut, seed, block_len):
    """A word of ``blocks`` full blocks plus ``cut`` (mod block length)
    tokens, so it may end mid-block."""
    rng = random.Random(seed)
    wfa = random_wfa(rng, n_states, rng.randint(1, 3))
    length = blocks * block_len(n_states) + cut % block_len(n_states)
    return wfa, [rng.choice(wfa.alphabet) for _ in range(length)]


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4), st.integers(0, 10**6), st.integers())
@example(n_states=2, blocks=3, cut=1, seed=0)
def test_rwkv_wfa_stream_equals_router_spec(n_states, blocks, cut, seed):
    wfa, word = wfa_word(n_states, blocks, cut, seed, lambda n: 2 * n)
    assert_stream_equals_spec(lambda: build_rwkv_wfa(wfa), word)


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 2), st.integers(0, 3), st.integers(0, 10**6), st.integers())
@example(n_states=1, blocks=3, cut=5, seed=0)
@example(n_states=3, blocks=2, cut=0, seed=0)
@example(n_states=3, blocks=1, cut=41, seed=1)
def test_dnet_wfa_stream_equals_router_spec(n_states, blocks, cut, seed):
    wfa, word = wfa_word(n_states, blocks, cut, seed, lambda n: 8 * n * n + 5 * n + 1)
    assert_stream_equals_spec(lambda: build_dnet_wfa(wfa), word)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 60), st.integers())
@example(length=31, seed=0)
def test_rwkv_imm_stream_equals_router_spec(length, seed):
    rng = random.Random(seed)
    stream = [rng.choice((-1, 0, 1)) for _ in range(length)]
    assert_stream_equals_spec(build_rwkv_imm, stream)


@settings(max_examples=4, deadline=None)
@given(st.integers(0, 2), st.integers(0, SUPERBLOCK_TOKENS - 1), st.integers())
@example(superblocks=2, cut=9 * 40 + 4, seed=0)
def test_dnet_imm_stream_equals_router_spec(superblocks, cut, seed):
    rng = random.Random(seed)
    length = superblocks * SUPERBLOCK_TOKENS + cut
    stream = [rng.choice((-1, 0, 1)) for _ in range(length)]
    assert_stream_equals_spec(build_dnet_imm, stream)


def det3(m) -> int:
    return (m[0] * (m[4] * m[8] - m[5] * m[7]) - m[1] * (m[3] * m[8] - m[5] * m[6])
            + m[2] * (m[3] * m[7] - m[4] * m[6]))


@pytest.mark.parametrize("zero_product", [True, False], ids=["zero-product", "nonsingular"])
def test_dnet_imm_zero_factor_superblocks(zero_product):
    # nonsingular {-1, 0, 1} matrices, one full superblock and four more;
    # the zero matrix among the first makes that superblock's product zero
    rng = random.Random(19)
    matrices = []
    while len(matrices) < SUPERBLOCK_MATRICES + 4:
        m = tuple(rng.choice((-1, 0, 1)) for _ in range(9))
        if det3(m) != 0:
            matrices.append(m)
    if zero_product:
        matrices[5] = (0,) * 9
    stream = [x for m in matrices for x in m]
    assert dnet_imm_forward(build_dnet_imm(), stream) == list(imm_product(stream))
    assert_stream_equals_spec(build_dnet_imm, stream)
    # 54 structural zeros of the embedding (81 for a zero product) compile
    # to eight identity ops each, and the 8 pads are identity ops too
    program = build_dnet_imm().block_program(tuple(stream[:SUPERBLOCK_TOKENS]), 1)
    identities = sum(op == (0, 1, ()) for op in program)
    if zero_product:
        assert identities == 81 * 8 + IDENTITY_PAD_STEPS == 656
    else:
        assert identities >= 54 * 8 + IDENTITY_PAD_STEPS == 440


# Entries with dens 3, 5, 6 and 7 next to dyadic ones: the completions'
# common denominator is then not a power of two, and products of such
# entries must still be normalized to the spec's canonical values.
MIXED_DEN_ENTRIES = (
    Rational(1, 3), Rational(-2, 5), Rational(3, 7), Rational(5, 6),
    Rational(0), Rational(1), Rational(-1, 2), Rational(2),
)


def wfa_of(matrices, alpha, omega) -> Wfa:
    """An automaton over "a", "b", ... with the given matrices (as lists
    of rows) and weight vectors."""
    sigma = tuple("abcdefgh"[: len(matrices)])
    mats = {sym: RMatrix(rows) for sym, rows in zip(sigma, matrices)}
    return Wfa(len(alpha), sigma, mats, RVector(alpha), RVector(omega))


@st.composite
def mixed_den_wfas(draw):
    n = draw(st.integers(1, 2))
    entry = st.sampled_from(MIXED_DEN_ENTRIES)
    vector = st.lists(entry, min_size=n, max_size=n)
    matrices = st.lists(st.lists(vector, min_size=n, max_size=n), min_size=1, max_size=3)
    return wfa_of(draw(matrices), draw(vector), draw(vector))


_R = Rational
NON_DYADIC_WFA = wfa_of(
    [[[_R(1, 3), _R(-2, 5)], [_R(3, 7), _R(5, 6)]], [[_R(5, 6), 0], [_R(-2, 5), 1]]],
    [1, _R(-2, 5)],
    [_R(3, 7), _R(1, 3)],
)
# products of these are powers of two, while the common denominator
# doubles with every [[1/2]], so each held product and completion must
# cancel down to its canonical form
CANCELLING_WFA = wfa_of([[[2]], [[_R(1, 2)]]], [1], [_R(5, 6)])


@WFA_FORWARDS
@settings(max_examples=10, deadline=None)
@given(mixed_den_wfas(), st.integers(0, 2), st.integers(0, 10**6), st.integers())
# two full blocks (dnet: suffix columns) then a one-token block (dnet:
# replay); rwkv replays on every block
@example(wfa=NON_DYADIC_WFA, blocks=2, cut=1, seed=0)
@example(wfa=NON_DYADIC_WFA, blocks=1, cut=0, seed=1)
@example(wfa=CANCELLING_WFA, blocks=2, cut=5, seed=2)
def test_mixed_den_wfa_forward_and_stream_equal_spec(build, forward, wfa, blocks, cut, seed):
    rng = random.Random(seed)
    m = build(wfa).block_len
    word = [rng.choice(wfa.alphabet) for _ in range(blocks * m + cut % m)]
    assert forward(build(wfa), word) == wfa_prefix_values(wfa, word)
    assert_stream_equals_spec(lambda: build(wfa), word)


def test_first_block_streams_the_pad_program():
    net = build_dnet_imm()
    pad_steps = net.block_steps((PAD,) * SUPERBLOCK_TOKENS, 0)
    factors = [f for f, _ in stream_entries(build_dnet_imm(), [1] * 18)]
    assert factors == list(pad_steps[:18])
    assert all(f.is_identity for f in factors)
    # every pad position, here and after a compiled program, is one op
    pad_ops = net.block_program((PAD,) * SUPERBLOCK_TOKENS, 0)
    block = (1, 0, 0, 0, 1, 0, 0, 0, 1) * SUPERBLOCK_MATRICES
    program = net.block_program(block, 1)
    assert len({id(op) for op in pad_ops + program[-IDENTITY_PAD_STEPS:]}) == 1


# --- completion work ----------------------------------------------------------


def completion_column_steps(compile_ops, step, scratch, block_len, extra=0, n_states=2):
    """Column steps (ops run by the column kernel) spent streaming two full
    blocks and ``extra`` tokens of an ``n_states``-state automaton through
    ``WfaNet(wfa, compile_ops, step, scratch, block_len)``, counted by a
    step subclass whose column kernel records each range it runs."""
    ops = []

    class Counted(step):
        @staticmethod
        def run_cols(program, start, stop, nums, dens):
            ops.append(stop - start)
            return step.run_cols(program, start, stop, nums, dens)

    rng = random.Random(8)
    wfa = random_wfa(rng, n_states, 2)
    net = WfaNet(wfa, compile_ops, Counted, scratch, block_len)
    word = [rng.choice(wfa.alphabet) for _ in range(2 * block_len + extra)]
    assert len(list(stream_entries(net, word))) == len(word)
    return sum(ops)


def test_dnet_wfa_completions_build_suffix_columns_once_per_block():
    n, m = 2, 43
    steps = completion_column_steps(apply_matrix_ops, HStep, n + 1, m)
    # n (m-1) per block; replaying the remaining steps would take m (m-1)/2
    assert steps <= 2 * n * (m - 1)


def test_wfa_completions_choose_per_block_length():
    # a 3-state dnet word of 2m+1 tokens: suffix columns on the two full
    # blocks, n (m-1) = 261 each, but the one-token last block replays its
    # m-1 = 87 remaining steps instead of building 261 columns
    n = 3
    m = 8 * n * n + 5 * n + 1
    steps = completion_column_steps(apply_matrix_ops, HStep, n + 1, m, 1, n_states=n)
    assert steps == 2 * n * (m - 1) + m - 1 == 609


def test_rwkv_wfa_completions_replay_remaining_steps():
    n, m = 2, 4
    family = (factor_apply_ops, OverwriteSpec)
    steps = completion_column_steps(*family, n, m)
    # m = 2n: on a full block suffix columns cost n (m-1) = m (m-1)/2 too
    assert steps == 2 * m * (m - 1) // 2
    # a one-token block tells the two apart: m-1 to replay, n (m-1) to build
    steps = completion_column_steps(*family, n, m, 1)
    assert steps == 2 * m * (m - 1) // 2 + m - 1


@pytest.mark.parametrize("forward", [dnet_wfa_forward, rwkv_wfa_forward], ids=["dnet", "rwkv"])
@pytest.mark.parametrize("build", [build_dnet_wfa, build_rwkv_wfa], ids=["dnet-net", "rwkv-net"])
def test_either_wfa_forward_runs_either_familys_net(build, forward):
    # a forward runs the kernels that the net's step class names, so it
    # need not be the forward of the net's own family
    rng = random.Random(12)
    for n_states in (1, 2, 3):
        wfa = random_wfa(rng, n_states, 2)
        net = build(wfa)
        word = [rng.choice(wfa.alphabet) for _ in range(2 * net.block_len + 1)]
        assert forward(net, word) == wfa_prefix_values(wfa, word)


@pytest.mark.parametrize("build", [build_dnet_wfa, build_rwkv_wfa], ids=["dnet", "rwkv"])
def test_wfa_block_product_built_once(monkeypatch, build):
    # the completions' running product of a full block is the product the
    # next block's program is compiled from, so each token's matrix is
    # fetched once, not again at the next block boundary
    rng = random.Random(9)
    wfa = random_wfa(rng, 2, 2)
    net = build(wfa)
    word = [rng.choice(wfa.alphabet) for _ in range(3 * net.block_len + 1)]
    fetched = []
    matrix = type(wfa).matrix

    def counted(self, sym):
        fetched.append(sym)
        return matrix(self, sym)

    monkeypatch.setattr(type(wfa), "matrix", counted)
    assert len(list(stream_entries(net, word))) == len(word)
    assert fetched == word


@pytest.mark.parametrize("build", [build_dnet_wfa, build_rwkv_wfa], ids=["dnet", "rwkv"])
def test_held_block_product_serves_only_its_block(build):
    # a stream that ends on a full block leaves that block's product held;
    # the same net's router, asked about another word, must not use it
    rng = random.Random(10)
    wfa = random_wfa(rng, 2, 2)
    net = build(wfa)
    m = net.block_len
    word = [rng.choice(wfa.alphabet) for _ in range(2 * m)]
    other = [rng.choice(wfa.alphabet) for _ in range(2 * m)]
    assert other[:m] != word[m:]
    assert len(list(stream_entries(net, word))) == len(word)
    assert net.router.query_at(m + 1, other) == build(wfa).router.query_at(m + 1, other)


def forward_input(build, seed):
    """A fresh net and an input the size of a benchmark pass's: for an
    automaton net, two blocks of a random 2-state automaton plus a few
    tokens; for a 3x3-product net, a stream of 2808 tokens."""
    rng = random.Random(seed)
    if build in (build_dnet_wfa, build_rwkv_wfa):
        wfa = random_wfa(rng, 2, 2)
        net = build(wfa)
        return net, [rng.choice(wfa.alphabet) for _ in range(2 * net.block_len + 5)]
    return build(), [rng.choice((-1, 0, 1)) for _ in range(4 * SUPERBLOCK_TOKENS)]


@FORWARDS
def test_forwards_never_query_the_router(monkeypatch, build, forward):
    net, tokens = forward_input(build, 30)
    no_router_queries(monkeypatch)
    assert len(forward(net, tokens)) in (9, len(tokens))


@FORWARDS
def test_forwards_build_no_step_values(monkeypatch, build, forward):
    # a first forward builds the program skeleton shared by all nets of
    # its size; the counted forward, on a fresh net, must then build no
    # HStep or OverwriteSpec at all, per token or per block
    forward(*forward_input(build, 31))
    net, tokens = forward_input(build, 32)
    built = []
    for cls in (HStep, OverwriteSpec):
        post_init = cls.__post_init__

        def counted(self, post_init=post_init):
            built.append(type(self).__name__)
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    assert len(forward(net, tokens)) in (9, len(tokens))
    assert built == []


def count_value_objects(monkeypatch) -> list:
    """Record the class name of every ``RMatrix``/``RVector`` built from
    now on, through ``__init__`` or ``_raw``."""
    built = []
    for cls in (RMatrix, RVector):
        init, raw = cls.__init__, cls._raw.__func__

        def counted_init(self, *args, init=init):
            built.append(type(self).__name__)
            init(self, *args)

        def counted_raw(klass, *args, raw=raw):
            built.append(klass.__name__)
            return raw(klass, *args)

        monkeypatch.setattr(cls, "__init__", counted_init)
        monkeypatch.setattr(cls, "_raw", classmethod(counted_raw))
    return built


@WFA_FORWARDS
def test_wfa_forwards_multiply_no_rational_matrices(monkeypatch, build, forward):
    # the completions keep the block's product fraction-free, so neither
    # forward multiplies rational matrices or applies one to omega, and
    # the only matrix a forward builds per full block is its product,
    # held for the next block's compile
    rng = random.Random(34)
    wfa = random_wfa(rng, 2, 2)
    m = build(wfa).block_len
    words = {blocks: [rng.choice(wfa.alphabet) for _ in range(blocks * m + 3)]
             for blocks in (2, 4)}
    wants = {blocks: wfa_prefix_values(wfa, word) for blocks, word in words.items()}
    # a first forward builds the program skeleton shared by all nets of its size
    forward(build(wfa), words[2])
    calls = []
    for name in ("mat_mul", "mat_vec"):
        for module in (kernels, rwkv_gadgets, delta_gadgets):
            kernel = getattr(module, name, None)
            if kernel is not None:
                def counted(*args, name=name, kernel=kernel):
                    calls.append(name)
                    return kernel(*args)

                monkeypatch.setattr(module, name, counted)
    built = count_value_objects(monkeypatch)
    counts = {}
    for blocks, word in words.items():
        net = build(wfa)
        del built[:]
        got = forward(net, word)
        counts[blocks] = built.count("RMatrix")
        assert "RVector" not in built
        assert got == wants[blocks]
    assert calls == []
    assert counts[4] - counts[2] <= 2, counts


@IMM_FORWARDS
def test_imm_forwards_build_no_value_objects_per_token(monkeypatch, build, forward):
    # rwkv builds the same number of matrices and vectors however long the
    # stream; dnet the same fixed number per superblock (its product and
    # embedding), and none per token
    rng = random.Random(33)
    streams = {
        superblocks: [rng.choice((-1, 0, 1)) for _ in range(superblocks * SUPERBLOCK_TOKENS)]
        for superblocks in (1, 2, 4)
    }
    wants = {superblocks: list(imm_product(stream)) for superblocks, stream in streams.items()}
    # a first compile builds the program skeleton shared by all nets
    forward(build(), streams[2])
    built = count_value_objects(monkeypatch)
    counts = {}
    for superblocks, stream in streams.items():
        net = build()
        del built[:]
        assert forward(net, stream) == wants[superblocks]
        counts[superblocks] = len(built)
    per_superblock = counts[2] - counts[1]
    assert counts[4] - counts[1] == 3 * per_superblock
    if build is build_rwkv_imm:
        assert per_superblock == 0
    else:
        assert 0 < per_superblock <= 4


def test_dnet_imm_final_readout_finishes_the_row_once(monkeypatch):
    # a stream ending 9 tokens into a superblock: the readout runs the
    # remaining 693 steps once on the row, with no column steps, instead of
    # 693 column steps for each of nine completions
    runs = []

    def counted(ops, start, stop, nums, dens):
        runs.append((start, stop))
        return run_hsteps(ops, start, stop, nums, dens)

    def no_column_steps(u, step):
        raise AssertionError("column step in the readout")

    # the forward runs blocks through the step class's kernel, the
    # readout through the module's
    monkeypatch.setattr(HStep, "run_rows", staticmethod(counted))
    monkeypatch.setattr(delta_gadgets, "run_hsteps", counted)
    monkeypatch.setattr(delta_gadgets, "apply_h_col", no_column_steps)
    rng = random.Random(22)
    stream = [rng.choice((-1, 0, 1)) for _ in range(SUPERBLOCK_TOKENS + 9)]
    assert dnet_imm_forward(build_dnet_imm(), stream) == list(imm_product(stream))
    assert runs == [(0, SUPERBLOCK_TOKENS), (0, 9), (9, SUPERBLOCK_TOKENS)]
    assert sum(stop - start for start, stop in runs) - len(stream) <= 693


def test_dnet_imm_ragged_lengths_equal_oracle():
    # every matrix boundary from one matrix to two full superblocks
    rng = random.Random(23)
    stream = [rng.choice((-1, 0, 1)) for _ in range(2 * SUPERBLOCK_TOKENS)]
    for length in range(9, 2 * SUPERBLOCK_TOKENS + 1, 9):
        prefix = stream[:length]
        assert dnet_imm_forward(build_dnet_imm(), prefix) == list(imm_product(prefix)), length


@IMM_FORWARDS
@pytest.mark.parametrize("tokens", [(-1, 0, 1), (-1, 0, 1, True, False)], ids=["int", "int-bool"])
@pytest.mark.parametrize("length", [9, 18, SUPERBLOCK_TOKENS, 2 * SUPERBLOCK_TOKENS + 27])
def test_imm_forwards_read_tuples_and_one_pass_iterators_like_lists(build, forward, tokens, length):
    # a 9-token stream runs only the PAD program and the final readout
    rng = random.Random(34)
    stream = [rng.choice(tokens) for _ in range(length)]
    want = forward(build(), stream)
    assert want == list(imm_product(stream))
    assert forward(build(), tuple(stream)) == want
    assert forward(build(), (tok for tok in stream)) == want


# --- bounded memory -----------------------------------------------------------


def program_cache_size(net):
    return len(vars(net).get("_programs", ()))


@IMM_FORWARDS
def test_imm_forward_memory_bounded_in_stream_length(monkeypatch, build, forward):
    no_router_queries(monkeypatch)
    rng = random.Random(21)
    cache_sizes = []
    peaks = []
    for superblocks in (2, 20):
        stream = [rng.choice((-1, 0, 1)) for _ in range(SUPERBLOCK_TOKENS * superblocks)]
        net = build()
        tracemalloc.start()
        try:
            got = forward(net, stream)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert got == list(imm_product(stream))
        cache_sizes.append(program_cache_size(net))
    assert cache_sizes[1] <= cache_sizes[0]
    # ten times the stream, yet the forward's peak allocation does not grow
    # with it: a per-token cache or even a copy of the 14040-token list
    # (about 110 KB) would break this bound
    assert peaks[1] < 1.5 * peaks[0] + 32 * 1024


# --- bad tokens ---------------------------------------------------------------


@pytest.mark.parametrize("build, forward", [
    (build_dnet_wfa, dnet_wfa_forward),
    (build_rwkv_wfa, rwkv_wfa_forward),
], ids=["dnet", "rwkv"])
def test_wfa_forward_rejects_pad_symbol(build, forward):
    wfa = random_wfa(random.Random(5), 2, 2)
    sym = wfa.alphabet[0]
    with pytest.raises(ValueError, match="unknown symbol None"):
        forward(build(wfa), [sym, PAD, sym])


@pytest.mark.parametrize("build, forward", [
    (build_dnet_wfa, dnet_wfa_forward),
    (build_rwkv_wfa, rwkv_wfa_forward),
], ids=["dnet", "rwkv"])
def test_wfa_forward_rejects_unhashable_symbol(build, forward):
    wfa = random_wfa(random.Random(5), 2, 2)
    sym = wfa.alphabet[0]
    with pytest.raises(ValueError, match=r"unknown symbol \[1\]"):
        forward(build(wfa), [sym, [1], sym])


@pytest.mark.parametrize("bad", [None, "1", 1.0], ids=["none", "str", "float"])
@IMM_FORWARDS
def test_imm_forward_rejects_non_numeric_token(build, forward, bad):
    stream = [1, 0, 0, 0, 1, 0, 0, 0, 1] * 2
    stream[12] = bad
    with pytest.raises(ValueError, match="matrix token"):
        forward(build(), stream)
