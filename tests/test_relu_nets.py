import dataclasses
import hashlib
import math
import operator
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from exactrnn import kernels, relu_nets
from exactrnn.automata import (
    CounterMachine,
    StackMachine,
    build_conn_counter_machine,
    cm_run,
    scripted_stack_machine,
    sm_run,
    _all_masks,
)
from exactrnn.linalg import RMatrix, RVector
from exactrnn.problems import (
    SortedDetConnInstance,
    conn_oracle,
    encode_conn_unary,
    gen_conn,
    random_sorted_instance,
    rng_for,
)
from exactrnn.rational import Rational, precision_of
from exactrnn.relu_nets import (
    Layer,
    MlpRnn,
    ReluMlp,
    cm_to_mlp_rnn,
    gadget_eq_zero,
    gadget_lut,
    gadget_select,
    gadget_threshold,
    run_mlp_rnn,
    sm_to_mlp_rnn,
)
from exactrnn.verify import STACK_OP_PAIRS


# --- gadget fragments ---------------------------------------------------------


def test_eq_zero_on_integers():
    g = gadget_eq_zero()
    for x in range(-5, 6):
        want = Rational(1 if x == 0 else 0)
        assert g(RVector([x]))[0] == want


def test_eq_zero_margin_is_documented_precondition():
    g = gadget_eq_zero()
    # |x| >= 1/3 still exact
    assert g(RVector([Rational(1, 3)]))[0] == Rational(0)
    assert g(RVector([Rational(-2, 5)]))[0] == Rational(0)


def test_threshold_on_integers():
    g = gadget_threshold(Rational(0))
    for x in range(-4, 5):
        assert g(RVector([x]))[0] == Rational(1 if x >= 0 else 0)
    g2 = gadget_threshold(Rational(2))
    assert g2(RVector([2]))[0] == Rational(1)
    assert g2(RVector([1]))[0] == Rational(0)


def test_lut_identity_table():
    table = {(i,): [1 if j == i else 0 for j in range(4)] for i in range(4)}
    g = gadget_lut([4], table)
    for i in range(4):
        hot = RVector([1 if j == i else 0 for j in range(4)])
        assert list(g(hot)) == [Rational(v) for v in table[(i,)]]


def test_lut_random_two_group_table():
    rng = random.Random(0)
    table = {
        (a, b): [Rational(rng.randint(-5, 5)) for _ in range(2)]
        for a in range(3)
        for b in range(4)
    }
    g = gadget_lut([3, 4], table)
    for a in range(3):
        for b in range(4):
            hot = RVector(
                [1 if i == a else 0 for i in range(3)]
                + [1 if i == b else 0 for i in range(4)]
            )
            assert list(g(hot)) == table[(a, b)]


def test_select_two_branches():
    g = gadget_select(2)
    out = g(RVector([1, 0, 5, -3]))
    assert out[0] == Rational(5)
    out = g(RVector([0, 1, 5, -3]))
    assert out[0] == Rational(-3)


def test_select_respects_bound():
    g = gadget_select(3, bound=4)
    rng = random.Random(1)
    for _ in range(30):
        pick = rng.randrange(3)
        vals = [Rational(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
        hot = [1 if i == pick else 0 for i in range(3)]
        out = g(RVector(hot + vals))
        assert out[0] == vals[pick]


# --- counter machine compilation -------------------------------------------------


def constant_machine(ops, alphabet=("x",)):
    k = len(ops)
    transition = {}
    updates = {}
    for sym in alphabet:
        for mask in _all_masks(k):
            transition[("q", sym, mask)] = "q"
            updates[("q", sym, mask)] = ops
    return CounterMachine(
        states=("q",),
        start="q",
        alphabet=alphabet,
        n_counters=k,
        transition=transition,
        updates=updates,
        accepting=frozenset(("q", m) for m in _all_masks(k)),
    )


def test_cm_rnn_constant_counters():
    rnn = cm_to_mlp_rnn(constant_machine(("+0", "+0")))
    res = run_mlp_rnn(rnn, ["x"] * 6)
    for h in res.states:
        assert rnn.decode(h) == ("q", (0, 0))


def test_cm_rnn_counts():
    rnn = cm_to_mlp_rnn(constant_machine(("+1", "-1")))
    res = run_mlp_rnn(rnn, ["x"] * 5)
    assert rnn.decode(res.states[-1]) == ("q", (5, -5))


def test_cm_rnn_decode_rejects_non_integer_counter():
    rnn = cm_to_mlp_rnn(constant_machine(("+1", "-1")))
    h = run_mlp_rnn(rnn, ["x"] * 3).states[-1]
    assert rnn.decode(h) == ("q", (3, -3))
    nq = 1  # one control state, then the two parts of each counter
    for j in range(nq, nq + 4):
        bad = RVector._raw(list(h.nums), list(h.dens))
        bad.nums[j], bad.dens[j] = 2 * bad.nums[j] + 1, 2
        with pytest.raises(AssertionError, match="not an integer"):
            rnn.decode(bad)


@pytest.mark.parametrize("compile_net", ["cm", "sm"])
def test_rnn_decode_rejects_fractional_one_hot(compile_net):
    if compile_net == "cm":
        rnn = cm_to_mlp_rnn(constant_machine(("+1",)))
    else:
        rnn = sm_to_mlp_rnn(scripted_stack_machine(1, (("push0",), ("pop",))))
    h = RVector._raw(list(rnn.h0.nums), list(rnn.h0.dens))
    rnn.decode(h)
    hot = h.nums.index(1)
    h.dens[hot] = 2  # 1/2 where the one-hot block needs 1
    with pytest.raises(AssertionError, match="one-hot"):
        rnn.decode(h)


def two_state_net(compile_net):
    """States p (start) and q swap on every symbol; one counter counts up,
    or one stack pushes 0."""
    keys = [(q, "x", (v,)) for q in ("p", "q") for v in (0, 1)]
    if compile_net == "cm":
        machine = CounterMachine(
            states=("p", "q"), start="p", alphabet=("x",), n_counters=1,
            transition={key: "pq"[key[0] == "p"] for key in keys},
            updates={key: ("+1",) for key in keys}, accepting=frozenset(),
        )
        return cm_to_mlp_rnn(machine)
    machine = StackMachine(
        states=("p", "q"), start="p", alphabet=("x",), n_stacks=1,
        transition={key: "pq"[key[0] == "p"] for key in keys},
        stack_ops={key: ("push0",) for key in keys}, accepting=frozenset(),
    )
    return sm_to_mlp_rnn(machine)


# (control state -> num/den) changes to the state block [1, 0] of state p
_NOT_ONE_HOT = {
    "two-hot": {1: (1, 1)},
    "half-in-the-cold-state": {1: (1, 2)},
    "hot-is-2": {0: (2, 1)},
    "hot-is-1/2-and-cold-is-1": {0: (1, 2), 1: (1, 1)},
    "none-hot": {0: (0, 1)},
    "negative-cold-state": {1: (-1, 1)},
}


@pytest.mark.parametrize("compile_net", ["cm", "sm"])
@pytest.mark.parametrize("change", _NOT_ONE_HOT.values(), ids=_NOT_ONE_HOT)
def test_rnn_decode_rejects_a_state_block_that_is_not_one_hot(compile_net, change):
    rnn = two_state_net(compile_net)
    states = run_mlp_rnn(rnn, "xx").states
    assert [rnn.decode(h)[0] for h in states] == ["p", "q", "p"]
    h = RVector._raw(list(rnn.h0.nums), list(rnn.h0.dens))
    for i, (num, den) in change.items():
        h.nums[i], h.dens[i] = num, den
    with pytest.raises(AssertionError, match="one-hot"):
        rnn.decode(h)


def test_cm_rnn_conn_instances():
    machine = build_conn_counter_machine()
    rnn = cm_to_mlp_rnn(machine)
    rng = random.Random(2)
    for _ in range(25):
        inst = random_sorted_instance(rng, max_n=40, max_edges=5)
        stream = encode_conn_unary(inst)
        accept, trace = cm_run(machine, stream)
        assert accept == conn_oracle(inst)
        res = run_mlp_rnn(rnn, stream, track_precision=False)
        assert res.accept == accept
        assert [rnn.decode(h) for h in res.states] == trace


def test_cm_rnn_reset_needs_bound():
    machine = constant_machine(("x0",))
    with pytest.raises(ValueError):
        cm_to_mlp_rnn(machine)


def reset_machine():
    """One counter: ``c`` counts up, ``r`` resets it."""
    transition = {}
    updates = {}
    for sym, ops in (("c", ("+1",)), ("r", ("x0",))):
        for mask in _all_masks(1):
            transition[("q", sym, mask)] = "q"
            updates[("q", sym, mask)] = ops
    return CounterMachine(
        states=("q",),
        start="q",
        alphabet=("c", "r"),
        n_counters=1,
        transition=transition,
        updates=updates,
        accepting=frozenset(("q", m) for m in _all_masks(1)),
    )


def test_cm_rnn_reset_with_bound():
    # alternate counting and resetting; exact while values stay under bound
    machine = reset_machine()
    rnn = cm_to_mlp_rnn(machine, reset_bound=1000)
    word = ["c"] * 7 + ["r"] + ["c"] * 3
    _, trace = cm_run(machine, word)
    res = run_mlp_rnn(rnn, word)
    assert [rnn.decode(h) for h in res.states] == trace
    assert rnn.decode(res.states[-1]) == ("q", (3,))


def test_cm_rnn_precision_logarithmic():
    machine = build_conn_counter_machine()
    rnn = cm_to_mlp_rnn(machine)
    points = []
    for n in (16, 64, 256, 1024):
        inst = SortedDetConnInstance(n=n, s=n, t=n, edges=())
        res = run_mlp_rnn(rnn, encode_conn_unary(inst), track_precision=True)
        points.append((n, res.precision.max_value_bits))
    xs = [math.log2(n) for n, _ in points]
    ys = [bits for _, bits in points]
    xm, ym = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - xm) * (y - ym) for x, y in zip(xs, ys)) / sum(
        (x - xm) ** 2 for x in xs
    )
    assert slope <= 1.5


def test_cm_rnn_unknown_token():
    rnn = cm_to_mlp_rnn(constant_machine(("+0",)))
    with pytest.raises(ValueError):
        run_mlp_rnn(rnn, ["?"])


# --- stack machine compilation -----------------------------------------------------


def test_sm_rnn_push_only_matches_formula_iteration():
    machine = scripted_stack_machine(1, (("push0",), ("push1",)))
    rnn = sm_to_mlp_rnn(machine)
    rng = random.Random(3)
    prog = [rng.choice((("push0",), ("push1",))) for _ in range(8)]
    res = run_mlp_rnn(rnn, prog)
    expect = Rational(1)
    for (op,) in prog:
        expect = Rational(1 if op == "push1" else 0) + Rational(1, 2) * expect
    _, stacks = rnn.decode(res.states[-1])
    assert stacks[0] == expect


def test_sm_rnn_push_pop_returns_empty():
    machine = scripted_stack_machine(1, (("push0",), ("pop",)))
    rnn = sm_to_mlp_rnn(machine)
    res = run_mlp_rnn(rnn, [("push0",), ("pop",)])
    _, stacks = rnn.decode(res.states[-1])
    assert stacks[0] == Rational(1)


def test_sm_rnn_random_programs_full_trace():
    machine = scripted_stack_machine(2, STACK_OP_PAIRS)
    rnn = sm_to_mlp_rnn(machine)
    rng = random.Random(4)
    for _ in range(8):
        prog = [rng.choice(STACK_OP_PAIRS) for _ in range(100)]
        _, trace = sm_run(machine, prog)
        res = run_mlp_rnn(rnn, prog, track_precision=False)
        assert [rnn.decode(h) for h in res.states] == trace


def test_sm_rnn_precision_linear():
    machine = scripted_stack_machine(2, STACK_OP_PAIRS)
    rnn = sm_to_mlp_rnn(machine)
    rng = random.Random(5)
    ops = ("push0", "push1", "pop", "noop")
    weights = (3, 3, 1, 1)
    bits = {}
    for n in (32, 256):
        prog = [
            (rng.choices(ops, weights=weights)[0], rng.choices(ops, weights=weights)[0])
            for _ in range(n)
        ]
        res = run_mlp_rnn(rnn, prog, track_precision=True)
        bits[n] = res.precision.max_value_bits
    assert bits[256] >= 4 * bits[32]


def test_padding_token_is_noop():
    pairs = list(STACK_OP_PAIRS) + ["pad"]
    transition = {}
    stack_ops = {}
    for sym in pairs:
        for heads in _all_masks(2):
            transition[("run", sym, heads)] = "run"
            stack_ops[("run", sym, heads)] = (
                ("noop", "noop") if sym == "pad" else sym
            )
    from exactrnn.automata import StackMachine

    machine = StackMachine(
        states=("run",),
        start="run",
        alphabet=tuple(pairs),
        n_stacks=2,
        transition=transition,
        stack_ops=stack_ops,
        accepting=frozenset(("run",)),
    )
    rnn = sm_to_mlp_rnn(machine)
    rng = random.Random(6)
    word = [rng.choice(STACK_OP_PAIRS) for _ in range(10)]
    padded = word + ["pad"] * len(word)
    res_word = run_mlp_rnn(rnn, word, track_precision=False)
    res_pad = run_mlp_rnn(rnn, padded, track_precision=False)
    assert res_pad.states[len(word)] == res_word.states[-1]
    for t in range(len(word), len(padded) + 1):
        assert res_pad.states[t] == res_word.states[-1]


def test_zero_acceptor_rejects():
    base = cm_to_mlp_rnn(constant_machine(("+0",)))
    zero_acceptor = ReluMlp(
        [Layer(RMatrix.zeros(1, base.state_dim), RVector.zeros(1), relu=False)]
    )
    rnn = MlpRnn(
        state_dim=base.state_dim,
        token_index=base.token_index,
        update=base.update,
        h0=base.h0,
        acceptor=zero_acceptor,
        decode=base.decode,
    )
    res = run_mlp_rnn(rnn, ["x"] * 3)
    assert not res.accept


# --- register programs against a layer-by-layer reference -----------------------


def reference_layers(mlp, x):
    """Layer-by-layer evaluation in Rational arithmetic; returns the output
    and every layer output in order."""
    values = []
    for layer in mlp.layers:
        w = layer.weights
        y = []
        for i in range(w.rows):
            acc = layer.bias[i]
            for j in range(w.cols):
                acc = acc + w[i, j] * x[j]
            y.append(Rational(0) if layer.relu and acc < Rational(0) else acc)
        values += y
        x = y
    return x, values


def reference_run(rnn, tokens):
    h = list(rnn.h0)
    values = list(h)
    states = [h]
    n_tokens = len(rnn.token_index)
    for tok in tokens:
        hot = [Rational(int(i == rnn.token_index[tok])) for i in range(n_tokens)]
        h, vals = reference_layers(rnn.update, h + hot)
        values += vals
        states.append(h)
    out, vals = reference_layers(rnn.acceptor, h)
    values += vals
    return out[0] > Rational(0), states, precision_of(values)


def program_values(mlp, x):
    """Output and observed values of ``mlp.eval_raw``, each observed value
    repeated once per layer output it stands for."""
    seen = []

    def observe(nums, dens, observed):
        for r, k in observed:
            seen.extend([Rational(nums[r], dens[r])] * k)

    nums, dens = mlp.eval_raw(x.nums, x.dens, observe)
    return [Rational(n, d) for n, d in zip(nums, dens)], seen


def _value_key(q):
    return (q.num, q.den)


_SMALL = st.builds(Rational, st.integers(-3, 3), st.sampled_from((1, 2, 3)))


@st.composite
def relu_mlps(draw):
    """1-4 layers with mixed ReLU flags; copy rows (ReLU copies of values of
    either sign among them) mixed with general sparse rows."""
    in_dim = dim = draw(st.integers(1, 4))
    layers = []
    for _ in range(draw(st.integers(1, 4))):
        rows, bias = [], []
        for _ in range(draw(st.integers(1, 5))):
            row = [Rational(0)] * dim
            if draw(st.booleans()):
                row[draw(st.integers(0, dim - 1))] = Rational(1)
                bias.append(Rational(0))
            else:
                for j, w in draw(st.lists(st.tuples(st.integers(0, dim - 1), _SMALL), max_size=3)):
                    row[j] = w
                bias.append(draw(_SMALL))
            rows.append(row)
        layers.append(Layer(RMatrix(rows), RVector(bias), relu=draw(st.booleans())))
        dim = len(rows)
    x = RVector(draw(st.lists(_SMALL, min_size=in_dim, max_size=in_dim)))
    return ReluMlp(layers), x


@settings(max_examples=300, deadline=None)
@given(relu_mlps())
def test_program_matches_layer_by_layer_reference(case):
    mlp, x = case
    want, want_values = reference_layers(mlp, x)
    got, got_values = program_values(mlp, x)
    assert got == want
    assert list(mlp(x)) == want
    assert sorted(got_values, key=_value_key) == sorted(want_values, key=_value_key)
    assert precision_of(got_values) == precision_of(want_values)


def _negative_state_rnn():
    """State (x, r): tokens d and i move x by -1 and +1, so x goes negative;
    a ReLU copy row reads x, and r = relu(x) of the previous step."""
    # L1 (ReLU) over [x, r, d, i]: x+ (a copy row of x), x-, d, i
    l1 = Layer(
        RMatrix([[1, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
        RVector.zeros(4),
        relu=True,
    )
    # L2 (no ReLU): x' = x+ - x- - d + i, r' = x+
    l2 = Layer(RMatrix([[1, -1, -1, 1], [1, 0, 0, 0]]), RVector.zeros(2), relu=False)
    acceptor = ReluMlp([Layer(RMatrix([[1, 1]]), RVector([Rational(-1, 2)]), relu=False)])
    return MlpRnn(
        state_dim=2,
        token_index={"d": 0, "i": 1},
        update=ReluMlp([l1, l2]),
        h0=RVector.zeros(2),
        acceptor=acceptor,
    )


@pytest.mark.parametrize("word", ["ddidd", "iddddiiiiii", "dddddi"])
def test_negative_state_through_relu_copy_matches_reference(word):
    rnn = _negative_state_rnn()
    assert rnn.state_nonneg == frozenset({1})
    accept, states, report = reference_run(rnn, word)
    assert any(h[0] < Rational(0) for h in states)
    res = run_mlp_rnn(rnn, word)
    assert res.accept == accept
    assert [list(h) for h in res.states] == states
    assert res.precision == report


_INTS = st.integers(-2, 2)


def _draw_rnn(draw, values, h0):
    """A net whose update layers take their weights and biases from
    ``values`` and mix copy rows with general rows, and whose last layer
    has no ReLU, from ``h0``, with an acceptor of bias -1/2; and a word."""
    state_dim = len(h0)
    symbols = "abc"[: draw(st.integers(1, 3))]
    dim = state_dim + len(symbols)
    layers = []
    depth = draw(st.integers(1, 3))
    for level in range(depth):
        last = level == depth - 1
        rows, bias = [], []
        for _ in range(state_dim if last else draw(st.integers(1, 5))):
            row = [0] * dim
            if draw(st.booleans()):
                row[draw(st.integers(0, dim - 1))] = 1
                bias.append(0)
            else:
                for j, w in draw(st.lists(st.tuples(st.integers(0, dim - 1), values), max_size=3)):
                    row[j] = w
                bias.append(draw(values))
            rows.append(row)
        layers.append(Layer(RMatrix(rows), RVector(bias), relu=not last and draw(st.booleans())))
        dim = len(rows)
    weights = draw(st.lists(_INTS, min_size=state_dim, max_size=state_dim))
    rnn = MlpRnn(
        state_dim=state_dim,
        token_index={sym: i for i, sym in enumerate(symbols)},
        update=ReluMlp(layers),
        h0=RVector(h0),
        acceptor=ReluMlp([Layer(RMatrix([weights]), RVector([Rational(-1, 2)]), relu=False)]),
    )
    return rnn, draw(st.text(symbols, max_size=10))


@st.composite
def int_rnns(draw):
    """An all-integer update (so it runs generated code) whose last layer
    has no ReLU, so states and h0 go negative, and whose ReLU layers mix
    copy rows (one weight 1, bias 0) with general rows: negative values
    pass through ReLU copies. The acceptor's bias is -1/2. Returns the net
    and a word."""
    state_dim = draw(st.integers(1, 3))
    h0 = draw(st.lists(st.integers(-3, 3), min_size=state_dim, max_size=state_dim))
    return _draw_rnn(draw, _INTS, h0)


_HALVES = st.builds(Rational, st.sampled_from((-3, -1, 1, 3)), st.just(2))


@st.composite
def rational_rnns(draw):
    """``int_rnns`` with ``_SMALL`` rational weights and biases and a
    rational ``h0`` whose first coordinate is a half-integer, so the update
    runs cell by cell (``MlpRnn.cells``) whatever the weights; states go
    negative, and ReLUs read one state coordinate, several, or none."""
    state_dim = draw(st.integers(1, 3))
    h0 = [draw(_HALVES)] + draw(st.lists(_SMALL, min_size=state_dim - 1, max_size=state_dim - 1))
    return _draw_rnn(draw, _SMALL, h0)


@settings(max_examples=200, deadline=None)
@given(int_rnns())
@example((_negative_state_rnn(), "ddidd"))
def test_integer_nets_count_bits_in_generated_code_like_reference(case):
    rnn, word = case
    assert rnn.token_steps is not None
    accept, states, report = reference_run(rnn, word)
    for track in (True, False):
        res = run_mlp_rnn(rnn, word, track_precision=track)
        assert res.accept == accept
        assert [list(h) for h in res.states] == states
        assert res.precision == (report if track else None)


def _two_cell_rnn():
    """State (x, y): tokens d and i move x by -1/2 and +1, across the
    breakpoint of relu(x) and relu(-x), while relu(x + y - 1/2) reads two
    state coordinates, so it stays a ReLU op in a leaf whose box leaves its
    sign open."""
    half = Rational(1, 2)
    # L1 (ReLU) over [x, y, d, i]: x+, x-, relu(x + y - 1/2), relu(y), d, i
    l1 = Layer(
        RMatrix([[1, 0, 0, 0], [-1, 0, 0, 0], [1, 1, 0, 0],
                 [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
        RVector([0, 0, -half, 0, 0, 0]),
        relu=True,
    )
    # L2 (no ReLU): x' = x+ - x- - d/2 + i, y' = relu(x + y - 1/2) - relu(y)/3 + d
    l2 = Layer(
        RMatrix([[1, -1, 0, 0, -half, 1], [0, 0, 1, Rational(-1, 3), 1, 0]]),
        RVector.zeros(2),
        relu=False,
    )
    acceptor = ReluMlp([Layer(RMatrix([[1, 1]]), RVector([-half]), relu=False)])
    return MlpRnn(
        state_dim=2,
        token_index={"d": 0, "i": 1},
        update=ReluMlp([l1, l2]),
        h0=RVector([-half, Rational(1, 3)]),
        acceptor=acceptor,
    )


@pytest.mark.parametrize("cap", [relu_nets._CELL_LEAVES, 1, 0])
@settings(max_examples=200, deadline=None)
@given(rational_rnns())
@example((_two_cell_rnn(), "ddidiiiddd"))
def test_rational_nets_run_cell_by_cell_like_reference(cap, case):
    """Tracked and untracked runs equal the reference with the leaf cap at
    its value, at 1 (the first leaf built, then unsplit leaves) and at 0
    (every token runs its unsplit leaf)."""
    rnn, word = case
    rnn = dataclasses.replace(rnn)  # no trees from another cap
    accept, states, report = reference_run(rnn, word)
    with mock.patch.object(relu_nets, "_CELL_LEAVES", cap):
        for track in (True, False):
            res = run_mlp_rnn(rnn, word, track_precision=track)
            assert res.accept == accept
            assert [list(h) for h in res.states] == states
            assert res.precision == (report if track else None)
    assert rnn.token_steps is None
    assert rnn.cells.leaves <= cap


@pytest.mark.parametrize("fam", ["cm", "sm"])
def test_machine_nets_match_reference_precision(fam):
    rng = random.Random(8)
    if fam == "cm":
        rnn = cm_to_mlp_rnn(build_conn_counter_machine())
        tokens = encode_conn_unary(random_sorted_instance(rng, max_n=6, max_edges=3))
    else:
        rnn = sm_to_mlp_rnn(scripted_stack_machine(2, STACK_OP_PAIRS))
        tokens = [rng.choice(STACK_OP_PAIRS) for _ in range(12)]
    accept, states, report = reference_run(rnn, tokens)
    res = run_mlp_rnn(rnn, tokens)
    assert res.accept == accept
    assert [list(h) for h in res.states] == states
    assert res.precision == report


def test_copy_rows_are_not_computed():
    """Rows computed per token by the compiled update programs (107 and 142
    layer rows, about half of them identity copies)."""
    cm = cm_to_mlp_rnn(build_conn_counter_machine())
    sm = sm_to_mlp_rnn(scripted_stack_machine(2, STACK_OP_PAIRS))
    assert sum(layer.weights.rows for layer in cm.update.layers) == 107
    assert sum(layer.weights.rows for layer in sm.update.layers) == 142
    assert len(cm.update.program(cm.update_nonneg).ops) <= 53
    assert len(sm.update.program(sm.update_nonneg).ops) <= 69


def _one_hot_ranges(rnn):
    """``token_ranges`` that know the token one-hot and nothing else."""
    d, n_tokens = rnn.state_dim, len(rnn.token_index)
    return tuple(
        ({d + j: int(j == i) for j in range(n_tokens)}, frozenset()) for i in range(n_tokens)
    )


def test_integer_program_runs_generated_code_only_on_integer_input(monkeypatch):
    """``run_mlp_rnn`` runs an all-integer update's generated code, the one
    function of each token whether tracked or not, when ``h0`` is integer,
    and ``eval_raw`` otherwise, with the reference's results either way."""
    calls = []
    compile_int_affine = kernels.compile_int_affine

    def counting(*args):
        run, hot = compile_int_affine(*args), tuple(args[5][r] for r in (2, 3))
        return lambda x: calls.append(hot) or run(x)

    monkeypatch.setattr(kernels, "compile_int_affine", counting)
    integer = _negative_state_rnn()  # state x, r; tokens d, i at registers 2, 3
    rational = dataclasses.replace(integer, h0=RVector([Rational(1, 2), Rational(0)]))
    for rnn, int_calls in ((integer, [(1, 0), (0, 1), (1, 0)] * 2), (rational, [])):
        accept, states, report = reference_run(rnn, "did")
        for track in (True, False):
            res = run_mlp_rnn(rnn, "did", track_precision=track)
            assert res.accept == accept
            assert [list(h) for h in res.states] == states
            assert res.precision == (report if track else None)
        assert calls == int_calls
        calls.clear()
    for gadget, integral in ((gadget_eq_zero(), True), (gadget_threshold(Rational(1, 2)), False)):
        prog = gadget.program()
        run = compile_int_affine(prog.ops, prog.in_dim, prog.out, (), ())
        assert (run is not None) == integral


def test_generated_code_is_built_once_per_program_and_never_for_signs(monkeypatch):
    """One compile per token of a net, on its first run, tracked or not;
    none when it is built, and none for a net with a rational update (sm),
    for the acceptors or for a rational ``h0``."""
    built = []
    compile_int_affine = kernels.compile_int_affine

    def counting(ops, in_dim, out, observed, binary, known):
        built.append((ops, known))
        return compile_int_affine(ops, in_dim, out, observed, binary, known)

    monkeypatch.setattr(kernels, "compile_int_affine", counting)
    rnn = cm_to_mlp_rnn(build_conn_counter_machine())
    stack = sm_to_mlp_rnn(scripted_stack_machine(2, STACK_OP_PAIRS))
    assert rnn.state_nonneg and stack.state_nonneg and built == []
    assert "token_ranges" not in vars(rnn)  # the range analysis waits for a run
    tokens = encode_conn_unary(random_sorted_instance(random.Random(3), 6))
    run_mlp_rnn(rnn, tokens, track_precision=False)
    for _ in range(2):
        run_mlp_rnn(rnn, tokens)
    update = rnn.update.program(rnn.update_nonneg)
    assert [ops for ops, _ in built] == [update.ops] * len(rnn.token_index)
    ranges = rnn.token_ranges
    assert [known for _, known in built] == [ranges[i][0] for i in rnn.token_index.values()]
    for (known, _), (one_hot, _) in zip(ranges, _one_hot_ranges(rnn)):
        assert one_hot.items() <= known.items()
    assert list(rnn.token_steps) == list(rnn.token_index)
    built.clear()
    rational = dataclasses.replace(rnn, h0=RVector([Rational(1, 2)] + list(rnn.h0)[1:]))
    for net, word in ((stack, [STACK_OP_PAIRS[0]] * 3), (rational, tokens[:3])):
        for track in (True, False):
            run_mlp_rnn(net, word, track_precision=track)
        assert net.token_steps is None
    assert built == []


# --- range analysis: registers proven constant or 0 or 1 per token ----------------


def unproven_token_ranges(rnn, tokens):
    """The registers that ``rnn.token_ranges`` claims for some token, as an
    int that its step folds or as a 0 or 1, that hold anything else at a
    step of ``tokens`` that reads the token, found by running every step
    through the update program's whole register file."""
    ranges = rnn.token_ranges
    if ranges is None:
        return set()
    prog = rnn.update.program(rnn.update_nonneg)
    run = kernels.compile_int_affine(
        prog.ops, prog.in_dim, range(prog.in_dim + len(prog.ops)), (), ()
    )
    n_tokens = len(rnn.token_index)
    checks = []
    for i, (known, binary) in enumerate(ranges):
        claimed = sorted(known) + sorted(binary)
        values = operator.itemgetter(*claimed, 0)  # a tuple even for one register
        want = tuple(known[r] for r in sorted(known))
        checks.append(([int(j == i) for j in range(n_tokens)], values, want, known, binary))
    h, bad = list(rnn.h0.nums), set()
    for tok in tokens:
        hot, values, want, known, binary = checks[rnn.token_index[tok]]
        regs, _, _ = run(h + hot)
        got = values(regs)
        if got[: len(want)] != want or not {0, 1}.issuperset(got[len(want) : -1]):
            bad.update(r for r, v in known.items() if regs[r] != v)
            bad.update(r for r in binary if regs[r] not in (0, 1))
        h = [regs[r] for r in prog.out]
    return bad


def relu_trace_conn_streams(seed):
    """The cm streams of one seed of the benchmark's ``relu-trace``
    workload: every conn size from 2 to 60 twice, labels alternating."""
    sizes = range(2, 61)
    streams = []
    for k in range(2 * len(sizes)):
        n = sizes[k * 23 % len(sizes)]
        inst = gen_conn((n, n), 0.5, k % 2 == 0, rng_for(seed, "relu-trace", "cm", k))
        streams.append(encode_conn_unary(inst))
    return streams


def _run_digest(runs):
    """SHA-256 over ``(rnn, tokens)`` runs of (accept, states,
    ``PrecisionReport``) of the tracked run, with the untracked run's
    accept and states checked against it."""
    digest = hashlib.sha256()
    for rnn, tokens in runs:
        res = run_mlp_rnn(rnn, tokens)
        bare = run_mlp_rnn(rnn, tokens, track_precision=False)
        states = [(tuple(h.nums), tuple(h.dens)) for h in res.states]
        assert bare.accept == res.accept and bare.precision is None
        assert [(tuple(h.nums), tuple(h.dens)) for h in bare.states] == states
        digest.update(repr((res.accept, states, res.precision)).encode())
    return digest.hexdigest()


def _pinned_conn_runs():
    rnn = cm_to_mlp_rnn(build_conn_counter_machine())
    return [(rnn, tokens) for tokens in relu_trace_conn_streams(1)]


def _pinned_reset_runs():
    rnn = cm_to_mlp_rnn(reset_machine(), reset_bound=1000)
    words = ["", "r", "c", "c" * 7 + "r" + "c" * 3, "rrcrc", "c" * 40 + "r" + "c" * 99 + "rr" + "c" * 3]
    return [(rnn, list(word)) for word in words]


def _pinned_stack_runs():
    rnn = sm_to_mlp_rnn(scripted_stack_machine(2, STACK_OP_PAIRS))
    runs = []
    for k in range(20):
        rng = rng_for(1, "relu-trace", "sm", k)
        runs.append((rnn, [rng.choice(STACK_OP_PAIRS) for _ in range(150)]))
    return runs


PINNED_RUNS = {
    "conn-streams": (
        _pinned_conn_runs,
        "352e47280f3b26e9b160db7194e7bd9ba64933632cf69a24c977f0ba44bbddd6",
    ),
    "reset-cm": (
        _pinned_reset_runs,
        "b0c6a2f1ce1b5a99c68c1fc939465280fd81efb7e00af99fc4105ac26ed4b9d7",
    ),
    "stack-programs": (
        _pinned_stack_runs,
        "f5618079070b5911a1a221a5d45382b01a0b1e4b3916ba57d2ec098a69dc2e0b",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_run_results_are_pinned(name):
    """Accept, every state and the value bits of the tracked run, for the
    benchmark's seed-1 cm streams, the reset net on fixed words and 20
    seeded 150-op stack programs."""
    runs, digest = PINNED_RUNS[name]
    assert _run_digest(runs()) == digest


def test_conn_net_registers_proven_binary_hold_0_or_1():
    """Per token, the conn net's step folds 26 or more of its 53 computed
    registers, and 55 of its 70 observed ones are folded or counted as 0
    or 1; every claim holds on the benchmark's seed-1 streams, and on the
    reset net's pinned words."""
    rnn = cm_to_mlp_rnn(build_conn_counter_machine())
    prog = rnn.update.program(rnn.update_nonneg)
    assert len(prog.ops) == 53
    observed = {r for r, _ in prog.observed}
    assert len(rnn.token_ranges) == len(rnn.token_index)
    for known, binary in rnn.token_ranges:
        assert binary <= observed - known.keys()
        assert sum(r >= prog.in_dim for r in known) >= 26
        assert len(observed & (known.keys() | binary)) >= 55
    for tokens in relu_trace_conn_streams(1):
        assert unproven_token_ranges(rnn, tokens) == set()
    runs = _pinned_reset_runs()
    assert runs[0][0].token_ranges != _one_hot_ranges(runs[0][0])
    for reset, word in runs:
        assert unproven_token_ranges(reset, word) == set()


@settings(max_examples=200, deadline=None)
@given(int_rnns())
@example((_negative_state_rnn(), "ddidd"))
def test_integer_net_registers_proven_binary_hold_0_or_1(case):
    """Every register a token's step folds holds the folded int, and every
    one it counts as 0 or 1 holds 0 or 1, at each step of a random word."""
    rnn, word = case
    assert rnn.token_ranges is not None
    assert unproven_token_ranges(rnn, word) == set()


def test_registers_that_leave_0_and_1_are_not_claimed():
    rnn = _negative_state_rnn()  # x and r start at 0; x goes negative, r past 1
    prog = rnn.update.program(rnn.update_nonneg)
    for known, binary in rnn.token_ranges:
        assert not (known.keys() | binary) & {0, 1, *prog.out}
    assert unproven_token_ranges(rnn, "ddiiii") == set()


def test_range_analysis_proves_nothing_past_its_caps_or_off_integers(monkeypatch):
    """Past either cap each token's step folds only its one-hot, with the
    reference's results; off integers there is no analysis to run."""
    conn = cm_to_mlp_rnn(build_conn_counter_machine())
    one_hots = _one_hot_ranges(conn)
    for (known, binary), (one_hot, _) in zip(conn.token_ranges, one_hots):
        assert known.items() > one_hot.items() and binary
    rational = RVector([Rational(1, 2)] + list(conn.h0)[1:])
    assert dataclasses.replace(conn, h0=rational).token_ranges is None
    assert sm_to_mlp_rnn(scripted_stack_machine(2, STACK_OP_PAIRS)).token_ranges is None
    tokens = encode_conn_unary(random_sorted_instance(random.Random(4), 6))
    accept, states, report = reference_run(conn, tokens)
    for cap in ("_RANGE_LEAVES", "_RANGE_STATES"):
        with monkeypatch.context() as patch:
            patch.setattr(relu_nets, cap, 2)
            capped = dataclasses.replace(conn)
            assert capped.token_ranges == one_hots
            for track in (True, False):
                res = run_mlp_rnn(capped, tokens, track_precision=track)
                assert res.accept == accept
                assert [list(h) for h in res.states] == states
                assert res.precision == (report if track else None)


# --- cells: rational updates as one affine leaf per box of the state space -----


def _leaves(node):
    """The leaves of a tree of ``MlpRnn.cells``."""
    if type(node) is list:
        return _leaves(node[3]) + _leaves(node[4])
    return [] if node is None else [node]


def test_cells_are_built_lazily_and_never_for_integer_nets():
    """Building a net builds no tree, and an integer net never builds one;
    the stack net's leaves, built as its states reach them, run 4 to 14 of
    the update's 69 ops."""
    conn = cm_to_mlp_rnn(build_conn_counter_machine())
    stack = sm_to_mlp_rnn(scripted_stack_machine(2, STACK_OP_PAIRS))
    assert "cells" not in vars(conn) and "cells" not in vars(stack)
    tokens = encode_conn_unary(random_sorted_instance(random.Random(3), 6))
    for track in (True, False):
        run_mlp_rnn(conn, tokens, track_precision=track)
    assert "cells" not in vars(conn)
    run_mlp_rnn(stack, [STACK_OP_PAIRS[0]])
    assert stack.cells.leaves == 1
    for _, word in _pinned_stack_runs():
        run_mlp_rnn(stack, word)
    leaves = [leaf for tree in stack.cells.trees for leaf in _leaves(tree)]
    assert len(leaves) == stack.cells.leaves <= relu_nets._CELL_LEAVES
    assert len(stack.update.program(stack.update_nonneg).ops) == 69
    assert max(len(leaf.ops) for leaf in leaves) <= 14


def test_cell_leaves_stay_under_the_cap_on_a_long_stream(monkeypatch):
    """A 3000-op stack program builds at most ``_CELL_LEAVES`` leaves, and
    with the cap at 4 the results are unchanged and equal the reference on
    a prefix."""
    machine = scripted_stack_machine(2, STACK_OP_PAIRS)
    rng = rng_for(7, "cells")
    word = [rng.choice(STACK_OP_PAIRS) for _ in range(3000)]
    rnn = sm_to_mlp_rnn(machine)
    res = run_mlp_rnn(rnn, word)
    assert [rnn.decode(h) for h in res.states] == sm_run(machine, word)[1]
    assert rnn.cells.leaves <= relu_nets._CELL_LEAVES
    monkeypatch.setattr(relu_nets, "_CELL_LEAVES", 4)
    capped = dataclasses.replace(rnn)
    assert run_mlp_rnn(capped, word) == res
    assert capped.cells.leaves == 4
    prefix = word[:40]
    accept, states, report = reference_run(capped, prefix)
    res = run_mlp_rnn(capped, prefix)
    assert res.accept == accept
    assert [list(h) for h in res.states] == states
    assert res.precision == report


@pytest.mark.parametrize("g", [gadget_eq_zero(), gadget_select(2)], ids=["eq_zero", "select2"])
@pytest.mark.parametrize("delta", [-1, 1])
def test_wrong_input_length_is_rejected(g, delta):
    dim = g.in_dim
    with pytest.raises(ValueError, match="takes"):
        g(RVector([1] * (dim + delta)))
    with pytest.raises(ValueError, match="takes"):
        g.eval_raw([1] * dim, [1] * (dim + delta))


# --- compiled network fingerprints ------------------------------------------------


def layers_key(layers):
    return tuple(
        (
            layer.weights.rows,
            layer.weights.cols,
            tuple(layer.weights.nums),
            tuple(layer.weights.dens),
            tuple(layer.bias.nums),
            tuple(layer.bias.dens),
            layer.relu,
        )
        for layer in layers
    )


def network_digest(net):
    """SHA-256 of every layer entry, in row order, of a ``ReluMlp`` or of an
    ``MlpRnn``'s update and acceptor, plus the latter's h0 and token index."""
    if isinstance(net, ReluMlp):
        key = layers_key(net.layers)
    else:
        key = (
            layers_key(net.update.layers),
            layers_key(net.acceptor.layers),
            tuple(net.h0.nums),
            tuple(net.h0.dens),
            tuple(net.token_index.items()),
        )
    return hashlib.sha256(repr(key).encode()).hexdigest()


PINNED_NETWORKS = {
    "conn-cm": (
        lambda: cm_to_mlp_rnn(build_conn_counter_machine()),
        "7eb81613aacfa9479b349cf67fbc326525afe5db8f7903152688a1e3c3695fe3",
    ),
    "stack-sm": (
        lambda: sm_to_mlp_rnn(scripted_stack_machine(2, STACK_OP_PAIRS)),
        "87ded53e7cfc63260394c8c69a0dc7d823463c40ad2e73c7f66aafa794586140",
    ),
    "reset-cm": (
        lambda: cm_to_mlp_rnn(reset_machine(), reset_bound=1000),
        "8916c83c6c4b130d5536b42bb5446e1d6797c2ed7d682b4c6460911b36469eae",
    ),
    "eq-zero": (
        gadget_eq_zero,
        "32321f866f91d627e24fc1b4ba031ede62e8ffa7852269aa26198f0014831559",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_NETWORKS))
def test_compiled_networks_are_pinned(name):
    build, digest = PINNED_NETWORKS[name]
    assert network_digest(build()) == digest


def test_network_digest_sees_a_reordered_row():
    g = gadget_eq_zero()
    first = g.layers[0]
    w, b = first.weights, first.bias
    swapped = Layer(
        weights=RMatrix._raw(w.rows, w.cols, w.nums[1:] + w.nums[:1], w.dens[1:] + w.dens[:1]),
        bias=RVector._raw(b.nums[1:] + b.nums[:1], b.dens[1:] + b.dens[:1]),
        relu=first.relu,
    )
    assert network_digest(ReluMlp([swapped] + g.layers[1:])) != network_digest(g)
