import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from exactrnn.linalg import RMatrix, RVector, RelaxedPermutation, row_apply
from exactrnn.lrnn import (
    DeltaNetStep,
    LinStep,
    PdStep,
    RwkvStep,
    combine_steps,
    deltanet_transition,
    dump_steps,
    dwfa_to_pd,
    lrnn_run_conv,
    lrnn_run_scan,
    lrnn_run_sequential,
    parse_steps,
    pd_closed_form,
    pd_multiply,
    pd_row_apply,
    pd_transition,
    pd_tree_product,
    rwkv_transition,
)
from exactrnn.rational import Rational
from exactrnn.rwkv_gadgets import OverwriteSpec, overwrite_matrix

from oracles import ffn_sublayer, multihead_sublayer, recognize

VALS = [Rational(-1), Rational(-1, 2), Rational(0), Rational(1, 2), Rational(1), Rational(2)]


def rand_mat(rng, d):
    return RMatrix([[rng.choice(VALS) for _ in range(d)] for _ in range(d)])


def rand_vec(rng, d):
    return RVector([rng.choice(VALS) for _ in range(d)])


def rand_steps(rng, d, n):
    return [LinStep(rand_mat(rng, d), rand_mat(rng, d)) for _ in range(n)]


# --- sequential / convolutional / scan --------------------------------------


def test_sequential_identity_keeps_state():
    d = 3
    rng = random.Random(0)
    x = rand_mat(rng, d)
    steps = [LinStep(RMatrix.identity(d), RMatrix.zeros(d, d)) for _ in range(6)]
    states = lrnn_run_sequential(steps, s0=x)
    assert all(s == x for s in states)


def test_sequential_pure_additive():
    d = 2
    rng = random.Random(1)
    steps = [LinStep(RMatrix.zeros(d, d), rand_mat(rng, d)) for _ in range(5)]
    states = lrnn_run_sequential(steps)
    assert states == [s.B for s in steps]


def test_sequential_matches_conv():
    rng = random.Random(2)
    d, n = 3, 10
    steps = rand_steps(rng, d, n)
    queries = [rand_vec(rng, d) for _ in range(n)]
    inputs = [rand_vec(rng, d) for _ in range(n)]
    states = lrnn_run_sequential(steps)
    for read in ("current", "prev"):
        conv = lrnn_run_conv(steps, queries, inputs, read=read)
        for t in range(n):
            if read == "current":
                state = states[t]
            else:
                state = states[t - 1] if t else RMatrix.zeros(d, d)
            assert conv[t] == inputs[t] + row_apply(queries[t], state)


def test_conv_single_step_reads_additive_term():
    d = 2
    rng = random.Random(3)
    step = LinStep(rand_mat(rng, d), rand_mat(rng, d))
    q = rand_vec(rng, d)
    x = rand_vec(rng, d)
    (y,) = lrnn_run_conv([step], [q], [x])
    assert y == x + row_apply(q, step.B)


def test_conv_identity_transitions_prefix_sum():
    d = 2
    rng = random.Random(4)
    steps = [LinStep(RMatrix.identity(d), rand_mat(rng, d)) for _ in range(6)]
    q = RVector.basis(0, d)
    x = RVector.zeros(d)
    conv = lrnn_run_conv(steps, [q] * 6, [x] * 6)
    running = RMatrix.zeros(d, d)
    for t, step in enumerate(steps):
        running = running + step.B
        assert conv[t] == row_apply(q, running)


def test_scan_single_step_depth_zero():
    rng = random.Random(5)
    states, stats = lrnn_run_scan(rand_steps(rng, 2, 1))
    assert stats.depth == 0 and stats.combine_count == 0


def test_scan_matches_sequential_and_depth():
    rng = random.Random(6)
    steps = rand_steps(rng, 3, 8)
    states, stats = lrnn_run_scan(steps)
    assert states == lrnn_run_sequential(steps)
    assert stats.depth <= 4


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=33), st.integers(min_value=1, max_value=3), st.integers())
def test_scan_matches_sequential_property(n, d, seed):
    rng = random.Random(seed)
    steps = rand_steps(rng, d, n)
    states, stats = lrnn_run_scan(steps)
    assert states == lrnn_run_sequential(steps)
    if n > 1:
        assert stats.depth <= math.ceil(math.log2(n)) + 1


def test_scan_depth_bound_large():
    rng = random.Random(7)
    steps = rand_steps(rng, 1, 1000)
    _, stats = lrnn_run_scan(steps)
    assert stats.depth <= 2 * math.ceil(math.log2(1000))


def test_scan_respects_initial_state():
    rng = random.Random(8)
    steps = rand_steps(rng, 2, 9)
    s0 = rand_mat(rng, 2)
    states, _ = lrnn_run_scan(steps, s0=s0)
    assert states == lrnn_run_sequential(steps, s0=s0)


def test_combine_is_composition():
    rng = random.Random(9)
    a, b = rand_steps(rng, 3, 2)
    s0 = rand_mat(rng, 3)
    fused = combine_steps(a, b)
    direct = lrnn_run_sequential([a, b], s0=s0)[-1]
    assert fused.A @ s0 + fused.B == direct


# --- structured transitions ---------------------------------------------------


def test_rwkv_transition_zero_strength_is_diagonal():
    d = 3
    rng = random.Random(10)
    w = rand_vec(rng, d)
    step = RwkvStep(
        w=w, a=rand_vec(rng, d), kappa=rand_vec(rng, d), lam=Rational(0),
        v=RVector.zeros(d), k_tilde=RVector.zeros(d),
    )
    assert rwkv_transition(step).A == RMatrix.diag(list(w))


def test_rwkv_transition_clears_coordinate():
    d = 3
    e0 = RVector.basis(0, d)
    step = RwkvStep(
        w=RVector.ones(d), a=e0, kappa=e0, lam=Rational(1),
        v=RVector.zeros(d), k_tilde=RVector.zeros(d),
    )
    want = RMatrix.identity(d) - RMatrix.outer(e0, e0)
    assert rwkv_transition(step).A == want


def test_rwkv_transition_overwrite_parameters():
    # distinguished coefficient pattern: transition equals the overwrite matrix
    c = RVector([0, 5, 7])
    spec = OverwriteSpec(dst=0, c=c)
    e0 = RVector.basis(0, 3)
    step = RwkvStep(
        w=RVector.ones(3), a=e0, kappa=e0 - c, lam=Rational(1),
        v=RVector.zeros(3), k_tilde=RVector.zeros(3),
    )
    assert rwkv_transition(step).A == overwrite_matrix(spec)


def test_rwkv_additive_term():
    d = 2
    rng = random.Random(11)
    v, k = rand_vec(rng, d), rand_vec(rng, d)
    step = RwkvStep(
        w=RVector.ones(d), a=RVector.zeros(d), kappa=RVector.zeros(d),
        lam=Rational(0), v=v, k_tilde=k,
    )
    assert rwkv_transition(step).B == RMatrix.outer(v, k)


def test_deltanet_zero_beta_is_identity():
    d = 3
    rng = random.Random(12)
    step = DeltaNetStep(beta=Rational(0), k=rand_vec(rng, d), v=rand_vec(rng, d))
    assert deltanet_transition(step).A == RMatrix.identity(d)


def test_deltanet_reflection_is_involution():
    # beta = 2 with unit k from a 3-4-5 triple
    k = RVector([Rational(3, 5), Rational(4, 5)])
    step = DeltaNetStep(beta=Rational(2), k=k, v=RVector.zeros(2))
    a = deltanet_transition(step).A
    assert a @ a == RMatrix.identity(2)


def test_deltanet_one_hot_clears_coordinate():
    d = 3
    step = DeltaNetStep(beta=Rational(1), k=RVector.basis(1, d), v=RVector.zeros(d))
    a = deltanet_transition(step).A
    r = RVector([5, 7, -2])
    assert row_apply(r, a) == RVector([5, 0, -2])


def test_deltanet_additive_term_scaled():
    d = 2
    beta = Rational(1, 2)
    k = RVector([1, 2])
    v = RVector([3, -1])
    step = DeltaNetStep(beta=beta, k=k, v=v)
    assert deltanet_transition(step).B == RMatrix.outer(v, k).scaled(beta)


# --- permutation-diagonal algebra ---------------------------------------------


def rand_pd(rng, d):
    return PdStep(
        RelaxedPermutation(tuple(rng.randrange(d) for _ in range(d))),
        rand_vec(rng, d),
    )


def test_pd_identity_routing_multiplies_diagonals():
    rng = random.Random(13)
    d = 3
    steps = [
        PdStep(RelaxedPermutation.identity(d), rand_vec(rng, d)) for _ in range(5)
    ]
    closed = pd_closed_form(steps)
    want = RVector.ones(d)
    for s in steps:
        want = want.hadamard(s.d)
    assert closed.pi == RelaxedPermutation.identity(d)
    assert closed.d == want


def test_pd_single_step_closed_form():
    rng = random.Random(14)
    s = rand_pd(rng, 3)
    closed = pd_closed_form([s])
    assert closed.pi == s.pi and closed.d == s.d


def test_pd_closed_form_matches_dense():
    rng = random.Random(15)
    for _ in range(30):
        d = rng.randint(1, 3)
        n = rng.randint(1, 20)
        steps = [rand_pd(rng, d) for _ in range(n)]
        dense = RMatrix.identity(d)
        for s in steps:
            dense = dense @ s.to_matrix()
        assert pd_closed_form(steps).to_matrix() == dense
        tree, stats = pd_tree_product(steps)
        assert tree.to_matrix() == dense
        assert stats.combine_count == n - 1


def test_pd_multiply_is_matrix_product():
    rng = random.Random(16)
    for _ in range(50):
        d = rng.randint(1, 4)
        a, b = rand_pd(rng, d), rand_pd(rng, d)
        assert pd_multiply(a, b).to_matrix() == a.to_matrix() @ b.to_matrix()


def test_pd_row_apply_fast_path():
    rng = random.Random(17)
    for _ in range(30):
        d = rng.randint(1, 4)
        s = rand_pd(rng, d)
        r = rand_vec(rng, d)
        assert pd_row_apply(r, s) == row_apply(r, s.to_matrix())


def test_pd_transition_shapes():
    rng = random.Random(18)
    s = rand_pd(rng, 3)
    step = pd_transition(s)
    assert step.A == s.to_matrix()
    assert step.B == RMatrix.zeros(3, 3)


# --- recognition and sublayers --------------------------------------------------


def test_recognize_strict_threshold():
    readout = RVector.basis(0, 2)
    assert recognize(readout, RVector([1, 5]))
    assert not recognize(readout, RVector([0, 5]))  # ties reject
    assert not recognize(readout, RVector([-1, 5]))


def test_multihead_zero_weights_identity():
    rng = random.Random(19)
    xs = [rand_vec(rng, 3) for _ in range(4)]
    heads = [[rand_vec(rng, 2) for _ in range(4)]]
    out = multihead_sublayer(xs, heads, RMatrix.zeros(3, 2))
    assert out == xs


def test_multihead_concatenates_heads():
    xs = [RVector.zeros(2)]
    heads = [[RVector([1, 2])], [RVector([3, 4])]]
    out_proj = RMatrix([[1, 0, 0, 0], [0, 0, 0, 1]])
    out = multihead_sublayer(xs, heads, out_proj)
    assert out == [RVector([1, 4])]


def test_ffn_zero_weights_identity():
    rng = random.Random(20)
    xs = [rand_vec(rng, 3) for _ in range(3)]
    out = ffn_sublayer(xs, RMatrix.zeros(3, 4), RMatrix.zeros(4, 3))
    assert out == xs


def test_ffn_computes_relu_block():
    xs = [RVector([1, -2])]
    w_in = RMatrix([[1, 0], [0, 1]])
    w_out = RMatrix([[1, 1], [0, 0]])
    (y,) = ffn_sublayer(xs, w_out, w_in)
    # relu of (1, -2) is (1, 0); W adds 1 to the first coordinate
    assert y == RVector([2, -2])


# --- deterministic automaton compilation ----------------------------------------


def make_dwfa(matrices, alpha, omega, alphabet):
    from exactrnn.automata import Wfa

    n = len(alpha)
    return Wfa(n, alphabet, matrices, RVector(alpha), RVector(omega))


def test_dwfa_one_state_always_accepts():
    a = make_dwfa({"x": RMatrix([[1]])}, [1], [1], ("x",))
    rec = dwfa_to_pd(a)
    for length in range(6):
        assert rec.accepts(["x"] * length)


def test_dwfa_sign_tracking():
    # weight -1 per symbol: acceptance alternates with parity
    a = make_dwfa({"x": RMatrix([[-1]])}, [1], [1], ("x",))
    rec = dwfa_to_pd(a)
    from exactrnn.automata import wfa_eval

    for length in range(8):
        word = ["x"] * length
        assert rec.accepts(word) == (wfa_eval(a, word) > Rational(0))
        assert rec.value(word) == wfa_eval(a, word)


def test_dwfa_random_agreement():
    from exactrnn.automata import wfa_eval
    from exactrnn.verify import random_dwfa

    rng = random.Random(21)
    for _ in range(10):
        a = random_dwfa(rng, rng.randint(1, 4), 2)
        rec = dwfa_to_pd(a)
        for _ in range(60):
            word = [rng.choice(a.alphabet) for _ in range(rng.randint(0, 12))]
            assert rec.accepts(word) == (wfa_eval(a, word) > Rational(0))


@pytest.mark.parametrize("word", [["y"], ["x", "y", "x"], ["$"], [["x"]]],
                         ids=["unknown", "mid-word", "bos-marker", "unhashable"])
def test_pd_recognizer_value_rejects_unknown_symbol(word):
    rec = dwfa_to_pd(make_dwfa({"x": RMatrix([[-1]])}, [1], [1], ("x",)))
    with pytest.raises(ValueError, match="unknown symbol"):
        rec.value(word)


def test_dwfa_rejects_nondeterministic_input():
    a = make_dwfa(
        {"x": RMatrix([[1, 0], [1, 0]])}, [1, 0], [1, 1], ("x",)
    )
    with pytest.raises(ValueError):
        dwfa_to_pd(a)


# --- trace dump -----------------------------------------------------------------


def test_dump_parse_round_trip():
    rng = random.Random(22)
    steps = rand_steps(rng, 2, 4)
    again = parse_steps(dump_steps(steps))
    assert steps == again


def test_three_way_evaluation_agreement():
    # sequential, convolutional, and scan evaluations coincide exactly
    rng = random.Random(23)
    for _ in range(200):
        d = rng.randint(1, 4)
        n = rng.randint(1, 64)
        steps = rand_steps(rng, d, n)
        queries = [rand_vec(rng, d) for _ in range(n)]
        inputs = [rand_vec(rng, d) for _ in range(n)]
        seq = lrnn_run_sequential(steps)
        scan, _ = lrnn_run_scan(steps)
        assert scan == seq
        conv = lrnn_run_conv(steps, queries, inputs)
        want = [inputs[t] + row_apply(queries[t], seq[t]) for t in range(n)]
        assert conv == want


def test_gadget_network_through_sublayer_plumbing():
    # a tracking network's scalar output rides the residual stream and is
    # recognized exactly like the automaton's threshold decision
    from exactrnn.automata import wfa_eval
    from exactrnn.rwkv_gadgets import build_rwkv_wfa, rwkv_wfa_forward
    from exactrnn.verify import random_wfa

    rng = random.Random(24)
    a = random_wfa(rng, 2, 2)
    net = build_rwkv_wfa(a)
    word = [rng.choice(a.alphabet) for _ in range(10)]
    outputs = rwkv_wfa_forward(net, word)
    xs = [RVector.zeros(1) for _ in word]
    heads = [[RVector([v]) for v in outputs]]
    ys = multihead_sublayer(xs, heads, RMatrix.identity(1))
    assert recognize(RVector.basis(0, 1), ys[-1]) == (wfa_eval(a, word) > Rational(0))


def test_linstep_from_vector_embedding():
    a = RMatrix.identity(2)
    b = RVector([3, 5])
    step = LinStep.from_vector(a, b)
    assert step.B == RMatrix([[3, 0], [5, 0]])
