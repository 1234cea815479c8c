import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from exactrnn import kernels
from exactrnn.automata import (
    CounterMachine,
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
    random_sorted_instance,
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


def test_integer_program_runs_generated_code_only_on_integer_input():
    g = gadget_eq_zero()  # integer weights and biases
    prog = g.program()
    assert prog.int_run is not None
    calls = []
    g._programs[frozenset()] = prog._replace(
        int_run=lambda x: calls.append(x) or prog.int_run(x)
    )
    assert g.eval_raw([1], [3]) == ([0], [1]) and calls == []
    assert g.eval_raw([-5], [2]) == ([0], [1]) and calls == []
    assert g.eval_raw([0], [1]) == ([1], [1]) and calls == [[0]]
    assert gadget_threshold(Rational(1, 2)).program().int_run is None


def test_generated_code_is_built_once_per_program_and_never_for_signs(monkeypatch):
    built = []
    compile_int_affine = kernels.compile_int_affine

    def counting(ops, in_dim):
        built.append(ops)
        return compile_int_affine(ops, in_dim)

    monkeypatch.setattr(kernels, "compile_int_affine", counting)
    rnn = cm_to_mlp_rnn(build_conn_counter_machine())
    assert rnn.state_nonneg and built == []
    inst = random_sorted_instance(random.Random(3), 6)
    for _ in range(2):
        run_mlp_rnn(rnn, encode_conn_unary(inst))
    update, acceptor = rnn.update.program(rnn.update_nonneg), rnn.acceptor.program(rnn.state_nonneg)
    assert built == [update.ops, acceptor.ops]
    assert update.int_run is not None and acceptor.int_run is None  # bias -1/2


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
