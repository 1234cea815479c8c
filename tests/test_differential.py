"""Differential checks on the gadget networks' own per-token transitions.

The step of token tau of a block is ops tau:tau+1 of the block's program,
lowered by ``BlockNet.block_transition`` (the step class's row kernel run
on the basis rows) to its row-action matrix, and then to a ``LinStep``
with B = 0 and A that matrix's transpose. Per op, that step equals the
reference lowering of ``oracles.lowered_stream``, which goes from the
router spec's step values through the RWKV or DeltaNet head transitions.
Started from S_0 = alpha_row e_1^T, the sequential and the balanced-scan
evaluations of the recurrence must both carry the network's row, replayed
through the step actions, in their first column at every position, the
scan within the 2*ceil(log2 n) depth bound; a step dump must measure the
same through ``report depth --trace``. The convolutional evaluation, with
S_0 folded in as the B of a leading step with A = 0, must read every state
of a prefix of the trace through random queries (its cost grows as the
prefix squared).
"""

import math
import random

from hypothesis import example, given, settings, strategies as st

from exactrnn.cli import main
from exactrnn.delta_gadgets import SUPERBLOCK_TOKENS, apply_h_row, build_dnet_imm, build_dnet_wfa
from exactrnn.linalg import RMatrix, RVector, row_apply
from exactrnn.lrnn import LinStep, dump_steps, lrnn_run_conv, lrnn_run_scan, lrnn_run_sequential
from exactrnn.rwkv_gadgets import apply_overwrite_row, build_rwkv_imm, build_rwkv_wfa, stream_blocks
from exactrnn.verify import WFA_ENTRIES, random_wfa

from oracles import lowered, lowered_stream


def kernel_lowered(net, tokens) -> list:
    """Each token's step, as its one-op ``block_transition``, transposed,
    with B = 0."""
    return [
        LinStep(net.block_transition(prev, index, tau, tau + 1).transpose(), RMatrix.zeros(net.dim))
        for index, prev, block in stream_blocks(tokens, net.block_len)
        for tau in range(len(block))
    ]


def replayed_rows(net, tokens, apply_row) -> list:
    """The net's row after each token, from its step values."""
    row, rows = net.initial_row, []
    for index, prev, block in stream_blocks(tokens, net.block_len):
        for step in net.block_steps(prev, index, 0, len(block)):
            row = apply_row(row, step)
            rows.append(row)
    return rows


def check_conv(steps, s0, states, rng):
    """``lrnn_run_conv`` over S_0 as the B of a leading step with A = 0, then
    ``steps``, reads S_0 and then ``states`` through random queries."""
    d = s0.rows
    n = len(steps) + 1

    def draw():
        return [RVector([rng.choice(WFA_ENTRIES) for _ in range(d)]) for _ in range(n)]

    queries, inputs = draw(), draw()
    conv = lrnn_run_conv([LinStep(RMatrix.zeros(d), s0), *steps], queries, inputs)
    for t, state in enumerate([s0, *states[: n - 1]]):
        want = inputs[t] + row_apply(queries[t], state)
        assert conv[t] == want, f"conv output differs at position {t}"


def check_lowered_stream(net, tokens, apply_row, trace_dir, conv_steps):
    steps = kernel_lowered(net, tokens)
    e_1 = RVector.basis(0, net.dim)
    s0 = RMatrix.outer(net.initial_row, e_1)
    sequential = lrnn_run_sequential(steps, s0)
    scanned, stats = lrnn_run_scan(steps, s0)
    for t, row in enumerate(replayed_rows(net, tokens, apply_row), start=1):
        want = RMatrix.outer(row, e_1)
        assert sequential[t - 1] == want, f"sequential state differs at position {t}"
        assert scanned[t - 1] == want, f"scan state differs at position {t}"
    n = len(steps)
    if n:
        assert stats.depth <= 2 * math.ceil(math.log2(n))
    check_conv(steps[:conv_steps], s0, sequential, random.Random(n))

    trace = trace_dir / "steps.txt"
    out = trace_dir / "depth.csv"
    trace.write_text(dump_steps(steps))
    assert main(["report", "depth", "--trace", str(trace), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows == ["n,scan_depth,sequential_steps", f"{n},{stats.depth},{max(n - 1, 0)}"]


def wfa_case(n_states, cut, seed, block_len):
    """A random automaton and a word of at most three blocks."""
    rng = random.Random(seed)
    wfa = random_wfa(rng, n_states, rng.randint(1, 3))
    length = cut % (3 * block_len + 1)
    return wfa, [rng.choice(wfa.alphabet) for _ in range(length)]


def rwkv_wfa_trace(n_states, cut, seed):
    wfa, word = wfa_case(n_states, cut, seed, 2 * n_states)
    return build_rwkv_wfa(wfa), word


def dnet_wfa_trace(n_states, cut, seed):
    wfa, word = wfa_case(n_states, cut, seed, 8 * n_states * n_states + 5 * n_states + 1)
    return build_dnet_wfa(wfa), word


def rwkv_imm_trace(matrices, seed):
    rng = random.Random(seed)
    return build_rwkv_imm(), [rng.choice((-1, 0, 1)) for _ in range(9 * matrices)]


WFA_DRAWS = (st.integers(1, 2), st.integers(0, 10**6), st.integers())
IMM_DRAWS = (st.integers(1, 4), st.integers())


@settings(max_examples=20, deadline=None)
@given(*WFA_DRAWS)
@example(n_states=2, cut=12, seed=0)
def test_rwkv_wfa_lowered_steps_agree(tmp_path_factory, n_states, cut, seed):
    check_lowered_stream(*rwkv_wfa_trace(n_states, cut, seed), apply_overwrite_row,
                         tmp_path_factory.mktemp("rwkv-wfa"), conv_steps=None)


@settings(max_examples=8, deadline=None)
@given(*WFA_DRAWS)
@example(n_states=1, cut=42, seed=0)
@example(n_states=2, cut=3 * 43, seed=1)
def test_dnet_wfa_lowered_steps_agree(tmp_path_factory, n_states, cut, seed):
    check_lowered_stream(*dnet_wfa_trace(n_states, cut, seed), apply_h_row,
                         tmp_path_factory.mktemp("dnet-wfa"), conv_steps=48)


@settings(max_examples=6, deadline=None)
@given(*IMM_DRAWS)
@example(matrices=4, seed=0)
def test_rwkv_imm_lowered_steps_agree(tmp_path_factory, matrices, seed):
    # conv on one matrix and the start of the next: dimension 18 is costly
    check_lowered_stream(*rwkv_imm_trace(matrices, seed), apply_overwrite_row,
                         tmp_path_factory.mktemp("rwkv-imm"), conv_steps=12)


# --- the kernel lowering against the reference -------------------------------------


def assert_lowerings_agree(net, tokens):
    got = kernel_lowered(net, tokens)
    want = lowered_stream(net, tokens)
    assert len(got) == len(want) == len(tokens)
    for t, (g, w) in enumerate(zip(got, want), start=1):
        assert g == w, f"lowered step differs at position {t}"


@settings(max_examples=20, deadline=None)
@given(*WFA_DRAWS)
@example(n_states=2, cut=12, seed=0)
def test_rwkv_wfa_block_transition_equals_reference_lowering(n_states, cut, seed):
    assert_lowerings_agree(*rwkv_wfa_trace(n_states, cut, seed))


@settings(max_examples=8, deadline=None)
@given(*WFA_DRAWS)
@example(n_states=1, cut=42, seed=0)
@example(n_states=2, cut=3 * 43, seed=1)
def test_dnet_wfa_block_transition_equals_reference_lowering(n_states, cut, seed):
    assert_lowerings_agree(*dnet_wfa_trace(n_states, cut, seed))


@settings(max_examples=6, deadline=None)
@given(*IMM_DRAWS)
@example(matrices=4, seed=0)
def test_rwkv_imm_block_transition_equals_reference_lowering(matrices, seed):
    assert_lowerings_agree(*rwkv_imm_trace(matrices, seed))


def test_dnet_imm_block_transition_equals_reference_lowering():
    # every op of one compiled superblock program: a stream would reach
    # them only from its second superblock on, 1404 tokens in
    rng = random.Random(79)
    net = build_dnet_imm()
    prev = tuple(rng.choice((-1, 0, 1)) for _ in range(SUPERBLOCK_TOKENS))
    for tau, step in enumerate(net.block_steps(prev, 1)):
        got = LinStep(net.block_transition(prev, 1, tau, tau + 1).transpose(), RMatrix.zeros(net.dim))
        assert got == lowered(step), f"lowered op {tau} differs"
