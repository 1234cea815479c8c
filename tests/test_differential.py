"""Differential checks on the gadget networks' own per-token transitions.

Each streamed factor is lowered to a ``LinStep`` with B = 0 and A the
transpose of its row-action matrix (built from the head parameters:
``rwkv_transition`` for overwrites, ``deltanet_transition`` for symmetric
steps). Started from S_0 = alpha_row e_1^T, the sequential and the
balanced-scan evaluations of the recurrence must both carry the network's
replayed row in their first column at every position, the scan within the
2*ceil(log2 n) depth bound; a step dump must measure the same through
``report depth --trace``. The convolutional evaluation, with S_0 folded in
as the B of a leading step with A = 0, must read every state of a prefix of
the trace through random queries (its cost grows as the prefix squared).
"""

import math
import random

from hypothesis import example, given, settings, strategies as st

from exactrnn.cli import main
from exactrnn.delta_gadgets import HStep, apply_h_row, build_dnet_wfa
from exactrnn.linalg import RMatrix, RVector, row_apply
from exactrnn.lrnn import (
    DeltaNetStep,
    LinStep,
    deltanet_transition,
    dump_steps,
    lrnn_run_conv,
    lrnn_run_scan,
    lrnn_run_sequential,
    rwkv_transition,
)
from exactrnn.rwkv_gadgets import (
    apply_overwrite_row,
    build_rwkv_imm,
    build_rwkv_wfa,
    rwkv_params_for_overwrite,
    stream_entries,
)
from exactrnn.verify import WFA_ENTRIES, random_wfa


def lowered(factor) -> LinStep:
    """The recurrence step whose column action is the factor's row action."""
    if isinstance(factor, HStep):
        head = DeltaNetStep(beta=factor.beta, k=factor.k, v=RVector.zeros(factor.dim))
        row_matrix = deltanet_transition(head).A
    else:
        row_matrix = rwkv_transition(rwkv_params_for_overwrite(factor)).A
    return LinStep(row_matrix.transpose(), RMatrix.zeros(row_matrix.rows))


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
    factors = [factor for factor, _ in stream_entries(net, tokens)]
    steps = [lowered(f) for f in factors]
    e_1 = RVector.basis(0, len(net.initial_row))
    s0 = RMatrix.outer(net.initial_row, e_1)
    sequential = lrnn_run_sequential(steps, s0)
    scanned, stats = lrnn_run_scan(steps, s0)
    row = net.initial_row
    for t, factor in enumerate(factors, start=1):
        row = apply_row(row, factor)
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


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 2), st.integers(0, 10**6), st.integers())
@example(n_states=2, cut=12, seed=0)
def test_rwkv_wfa_lowered_steps_agree(tmp_path_factory, n_states, cut, seed):
    wfa, word = wfa_case(n_states, cut, seed, 2 * n_states)
    check_lowered_stream(build_rwkv_wfa(wfa), word, apply_overwrite_row,
                         tmp_path_factory.mktemp("rwkv-wfa"), conv_steps=None)


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 2), st.integers(0, 10**6), st.integers())
@example(n_states=1, cut=42, seed=0)
@example(n_states=2, cut=3 * 43, seed=1)
def test_dnet_wfa_lowered_steps_agree(tmp_path_factory, n_states, cut, seed):
    wfa, word = wfa_case(n_states, cut, seed, 8 * n_states * n_states + 5 * n_states + 1)
    check_lowered_stream(build_dnet_wfa(wfa), word, apply_h_row,
                         tmp_path_factory.mktemp("dnet-wfa"), conv_steps=48)


@settings(max_examples=6, deadline=None)
@given(st.integers(1, 4), st.integers())
@example(matrices=4, seed=0)
def test_rwkv_imm_lowered_steps_agree(tmp_path_factory, matrices, seed):
    rng = random.Random(seed)
    stream = [rng.choice((-1, 0, 1)) for _ in range(9 * matrices)]
    # conv on one matrix and the start of the next: dimension 18 is costly
    check_lowered_stream(build_rwkv_imm(), stream, apply_overwrite_row,
                         tmp_path_factory.mktemp("rwkv-imm"), conv_steps=12)
