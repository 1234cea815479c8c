import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exactrnn.automata import Wfa, wfa_prefix_values
from exactrnn.delta_gadgets import (
    DnetImmNet,
    HStep,
    ModCounter,
    TokenBuffer,
    apply_h_col,
    apply_h_row,
    apply_matrix_ops,
    apply_matrix_program,
    build_dnet_imm,
    build_dnet_wfa,
    coordinate_scale,
    dnet_imm_forward,
    dnet_wfa_forward,
    h_matrix,
    scaled_add,
    unit_transvection,
    SUPERBLOCK_MATRICES,
    SUPERBLOCK_TOKENS,
    IDENTITY_PAD_STEPS,
)
from exactrnn.kernels import run_hsteps
from exactrnn.linalg import RMatrix, RVector, row_apply
from exactrnn.problems import IDENTITY3, mat3_mul
from exactrnn.rational import Rational
from exactrnn.rwkv_gadgets import stream_entries
from exactrnn.verify import random_wfa

from oracles import (
    frac_vec_mat,
    imm_matrices,
    mat_to_frac,
    matrix_program_steps,
    support_of,
    to_frac,
    vec_to_frac,
)

VALS = [Rational(-1), Rational(-1, 2), Rational(0), Rational(1, 2), Rational(1), Rational(3)]


def rand_vec(rng, d):
    return RVector([rng.choice(VALS) for _ in range(d)])


def apply_all(row, steps):
    for s in steps:
        row = apply_h_row(row, s)
    return row


# --- step algebra -----------------------------------------------------------


def test_h_zero_beta_identity():
    step = HStep(Rational(0), RVector([1, 2, 3]))
    assert h_matrix(step) == RMatrix.identity(3)
    assert step.is_identity


def test_h_scales_coordinate():
    s = Rational(5, 7)
    step = coordinate_scale(1, s, 3)
    r = RVector([2, 7, -1])
    assert apply_h_row(r, step) == RVector([2, 5, -1])
    assert h_matrix(step) == RMatrix.diag([1, s, 1])


def test_h_two_dim_reflection_values():
    step = HStep(Rational(2), RVector([1, 1]))
    assert h_matrix(step) == RMatrix([[-1, -2], [-2, -1]])


def test_h_row_action_matches_matrix():
    rng = random.Random(0)
    for _ in range(30):
        d = rng.randint(1, 5)
        step = HStep(rng.choice(VALS), rand_vec(rng, d))
        r = rand_vec(rng, d)
        assert apply_h_row(r, step) == row_apply(r, h_matrix(step))
        u = rand_vec(rng, d)
        assert apply_h_col(u, step) == h_matrix(step).apply_col(u)


def test_h_unit_reflection_involutions():
    # unit vectors from scaled Pythagorean triples keep beta = 2 exact
    for k in (RVector([Rational(3, 5), Rational(4, 5)]),
              RVector([Rational(5, 13), Rational(12, 13)]),
              RVector([1, 0])):
        m = h_matrix(HStep(Rational(2), k))
        assert m @ m == RMatrix.identity(2)


# --- transvections and scaled adds -------------------------------------------


def test_transvection_two_dim_product():
    steps = unit_transvection(0, 1, 2)
    prod = h_matrix(steps[0]) @ h_matrix(steps[1]) @ h_matrix(steps[2])
    assert prod == RMatrix([[1, 1], [0, 1]])


def test_transvection_row_action():
    rng = random.Random(1)
    steps = unit_transvection(2, 0, 4)
    r = rand_vec(rng, 4)
    out = apply_all(r, steps)
    want = list(r)
    want[0] = want[0] + want[2]
    assert out == RVector(want)


def test_transvection_embedded_matches_dense():
    rng = random.Random(2)
    d = 7
    steps = unit_transvection(5, 2, d)
    dense = RMatrix.identity(d)
    for s in steps:
        dense = dense @ h_matrix(s)
    for _ in range(10):
        r = rand_vec(rng, d)
        assert apply_all(r, steps) == row_apply(r, dense)


def test_transvection_rejects_equal_indices():
    with pytest.raises(ValueError):
        unit_transvection(1, 1, 3)


def test_scaled_add_zero_factor_is_identity():
    rng = random.Random(3)
    steps = scaled_add(0, 1, 4, Rational(0), 5)
    r = rand_vec(rng, 5)
    r.nums[4] = 0
    r.dens[4] = 1
    assert apply_all(r, steps) == r


def test_scaled_add_unit_factor_matches_transvection():
    rng = random.Random(4)
    steps = scaled_add(0, 2, 4, Rational(1), 5)
    r = rand_vec(rng, 5)
    r.nums[4] = 0
    r.dens[4] = 1
    out = apply_all(r, steps)
    want = list(r)
    want[2] = want[2] + want[0]
    assert out == RVector(want)


def test_scaled_add_random_factor():
    rng = random.Random(5)
    for _ in range(20):
        lam = rng.choice(VALS)
        steps = scaled_add(1, 3, 0, lam, 5)
        assert len(steps) == 8
        r = rand_vec(rng, 5)
        r.nums[0] = 0
        r.dens[0] = 1
        out = apply_all(r, steps)
        want = list(r)
        want[3] = want[3] + lam * want[1]
        assert out == RVector(want)
        assert out[0] == Rational(0)  # temp restored


def test_scaled_add_requires_distinct_indices():
    with pytest.raises(ValueError):
        scaled_add(1, 1, 2, Rational(1), 4)


# --- matrix application program ------------------------------------------------


def test_program_length_formula():
    for n in range(1, 10):
        prog = apply_matrix_program(RMatrix.identity(n))
        assert len(prog) == 8 * n * n + 5 * n + 1


def test_program_nine_is_694():
    assert len(apply_matrix_program(RMatrix.identity(9))) == 694


def test_program_identity_matrix():
    rng = random.Random(6)
    n = 2
    prog = apply_matrix_program(RMatrix.identity(n))
    x = rand_vec(rng, n)
    s = rand_vec(rng, n)
    row = x.concat(s).concat(RVector([Rational(9)]))
    out = apply_all(row, prog.steps)
    assert out == x.concat(x).concat(RVector.zeros(1))


def test_program_random_matrices():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(1, 3)
        p = RMatrix([[rng.choice(VALS) for _ in range(n)] for _ in range(n)])
        prog = apply_matrix_program(p)
        x = rand_vec(rng, n)
        s = rand_vec(rng, n)
        t = rng.choice(VALS)
        row = x.concat(s).concat(RVector([t]))
        out = apply_all(row, prog.steps)
        want = row_apply(x, p)
        assert out == want.concat(want).concat(RVector.zeros(1))


def test_program_phases():
    prog = apply_matrix_program(RMatrix.identity(3))
    n = 3
    assert prog.phase_bounds == (n + 1, n + 1 + 8 * n * n, n + 1 + 8 * n * n + n, len(prog))
    assert prog.phase_of(0) == 1
    assert prog.phase_of(len(prog) - 1) == 4


@pytest.mark.parametrize("t, phase", [(0, 1), (2, 2), (9, 2), (10, 3), (13, 4), (14, 1)])
def test_verify_counterexample_names_the_program_phase(monkeypatch, t, phase):
    # one state, so program steps 0-1 clear, 2-9 scale-add, 10 clears main
    # and 11-13 copy back; the counterexample reads the phase off the program
    from exactrnn import verify

    def off_by_one_at_t(net, word):
        out = dnet_wfa_forward(net, word)
        out[t] += Rational(1)
        return out

    monkeypatch.setattr(verify, "dnet_wfa_forward", off_by_one_at_t)
    result = verify.verify_dnet_wfa(trials=1, seed=0, states=1, alphabet=1, length=28)
    assert not result.passed
    assert f"(phase {phase}, program step {t % 14 + 1} of block {t // 14 + 1})" in (
        result.counterexample
    )


def rand_rational_matrix(rng, n):
    return RMatrix(
        [[Rational(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    )


def as_fractions(steps):
    return [(to_frac(s.beta), vec_to_frac(s.k)) for s in steps]


@pytest.mark.parametrize("n", [1, 2, 3, 9])
def test_program_steps_carry_their_support(n):
    p = rand_rational_matrix(random.Random(40 + n), n)
    for step in apply_matrix_program(p).steps:
        assert step.support == support_of(step.k)


@pytest.mark.parametrize("n", [1, 2, 3, 9])
def test_shared_skeleton_programs_equal_unshared_reference(n):
    rng = random.Random(50 + n)
    p1, p2 = rand_rational_matrix(rng, n), rand_rational_matrix(rng, n)
    first = apply_matrix_program(p1)
    want_first = matrix_program_steps(mat_to_frac(p1))
    assert as_fractions(first.steps) == want_first
    second = apply_matrix_program(p2)
    assert as_fractions(second.steps) == matrix_program_steps(mat_to_frac(p2))
    # programs share their matrix-independent steps; the second build must
    # not have changed the first
    assert as_fractions(first.steps) == want_first


def zero_heavy_matrix(rng, n, kind):
    """An n x n matrix with many zero entries: all zero, block-diagonal
    (the ``_embed3`` embedding at n = 9, 3-wide diagonal blocks otherwise),
    nonzero but for one zero entry, or dense over ``VALS``."""
    nonzero = [v for v in VALS if v != Rational(0)]
    if kind == "zero":
        return RMatrix.zeros(n, n)
    if kind == "block" and n == 9:
        return DnetImmNet._embed3(RMatrix([[rng.choice(VALS) for _ in range(3)]
                                           for _ in range(3)]))
    if kind == "block":
        return RMatrix([[rng.choice(VALS) if i // 3 == j // 3 else Rational(0)
                         for j in range(n)] for i in range(n)])
    if kind == "one-zero":
        p = RMatrix([[rng.choice(nonzero) for _ in range(n)] for _ in range(n)])
        k = rng.randrange(n * n)
        p.nums[k], p.dens[k] = 0, 1
        return p
    return RMatrix([[rng.choice(VALS) for _ in range(n)] for _ in range(n)])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 9]),
       st.sampled_from(["zero", "block", "one-zero", "dense"]), st.integers())
def test_zero_entries_compile_to_identity_ops(n, kind, seed):
    # run by the kernel on [x | s | t] with arbitrary scratch and temp, the
    # program gives [xP | xP | 0]; each zero entry's scaled add is eight
    # identity ops
    rng = random.Random(seed)
    p = zero_heavy_matrix(rng, n, kind)
    ops = apply_matrix_ops(p)
    assert len(ops) == 8 * n * n + 5 * n + 1
    row = rand_vec(rng, 2 * n + 1)
    nums, dens = list(row.nums), list(row.dens)
    run_hsteps(ops, 0, len(ops), nums, dens)
    x = vec_to_frac(row)[:n]
    xp = frac_vec_mat(x, mat_to_frac(p))
    assert [Fraction(a, b) for a, b in zip(nums, dens)] == xp + xp + [0]
    first_add = n + 1
    for j in range(n):
        for i in range(n):
            slot = first_add + 8 * (j * n + i)
            identity = ops[slot : slot + 8] == ((0, 1, ()),) * 8
            assert identity == (p[i, j] == Rational(0)), (i, j)


@pytest.mark.parametrize("step", [
    HStep(Rational(2), RVector([1, 0, 1])),
    HStep(Rational(0), RVector.zeros(3)),
], ids=["reflection", "identity"])
@pytest.mark.parametrize("action", [apply_h_row, apply_h_col], ids=["row", "col"])
def test_h_step_actions_reject_dimension_mismatch(action, step):
    for r in (RVector([1, 2]), RVector([1, 2, 3, 4])):
        with pytest.raises(ValueError, match="step dimension 3"):
            action(r, step)


# --- cyclic counter --------------------------------------------------------------


def test_counter_two_steps_compose_to_rotation():
    c = ModCounter(4)
    t = h_matrix(c.odd_step) @ h_matrix(c.even_step)
    p = RMatrix.identity(c.dim)
    for _ in range(4):
        p = p @ t
    assert p == RMatrix.identity(c.dim)
    assert t != RMatrix.identity(c.dim)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_counter_exact_period(m):
    c = ModCounter(m)
    assert c.exact_period
    states = c.run(4 * m + 3)
    keys = {c._key(s) for s in states[: 2 * m]}
    assert len(keys) == 2 * m
    for t, state in enumerate(states):
        assert c.decode(state) == t % (2 * m)


def test_counter_decodes_beyond_one_period():
    m = 3
    c = ModCounter(m)
    states = c.run(2 * m + 3)
    assert c.decode(states[-1]) == 3


@pytest.mark.parametrize("m", [5, 7, 14])
def test_counter_distinct_states_general_modulus(m):
    c = ModCounter(m)
    states = c.run(2 * m - 1)
    keys = {c._key(s) for s in states}
    assert len(keys) == 2 * m
    for t, state in enumerate(states):
        assert c.decode(state) == t


# --- token buffer -----------------------------------------------------------------


def test_buffer_write_then_read():
    buf = TokenBuffer(sigma_count=4, slots=3)
    for token in (0, 1, 2):
        buf.write(token)
    assert buf.last_tokens(3) == [2, 1, 0]
    assert list(buf.read_slot(0))[:4] == list(RVector([1, 0, 0, 0]))


def test_buffer_cyclic_overwrites():
    rng = random.Random(8)
    buf = TokenBuffer(sigma_count=5, slots=4)
    history = []
    for _ in range(17):
        tok = rng.randrange(5)
        history.append(tok)
        buf.write(tok)
        want = list(reversed(history[-min(len(history), 4):]))
        assert buf.last_tokens(min(len(history), 4)) == want


def test_buffer_update_matches_dense_formula():
    # one write step equals S (I - e e^T) + v e^T
    buf = TokenBuffer(sigma_count=2, slots=2)
    buf.write(1)
    before = RMatrix(buf.state.tolists())
    e = buf.slot_key(1)
    v = RVector.basis(0, buf.dim)
    dense = before @ (RMatrix.identity(buf.dim) - RMatrix.outer(e, e)) + RMatrix.outer(v, e)
    buf.write(0)
    assert buf.state == dense


# --- automaton tracking network ------------------------------------------------------


def test_dnet_wfa_identity_matrices():
    a = Wfa(
        2,
        ("x",),
        {"x": RMatrix.identity(2)},
        RVector([Rational(1, 2), 1]),
        RVector([3, Rational(-1, 2)]),
    )
    net = build_dnet_wfa(a)
    out = dnet_wfa_forward(net, ["x"] * 9)
    assert out == [a.alpha.dot(a.omega)] * 9


def test_dnet_wfa_scalar_running_product():
    a = Wfa(1, ("a", "b"), {"a": RMatrix([[Rational(1, 2)]]), "b": RMatrix([[-2]])},
            RVector([3]), RVector([1]))
    net = build_dnet_wfa(a)
    word = ["a", "b", "a", "a", "b"]
    got = dnet_wfa_forward(net, word)
    assert got == wfa_prefix_values(a, word)


def test_dnet_wfa_crosses_block_boundaries():
    rng = random.Random(9)
    for n in (1, 2):
        a = random_wfa(rng, n, 2)
        m = 8 * n * n + 5 * n + 1
        word = [rng.choice(a.alphabet) for _ in range(2 * m + 5)]
        net = build_dnet_wfa(a)
        assert dnet_wfa_forward(net, word) == wfa_prefix_values(a, word)


def test_dnet_wfa_short_word_padding_regime():
    rng = random.Random(10)
    a = random_wfa(rng, 2, 2)
    word = [rng.choice(a.alphabet) for _ in range(7)]  # far below m = 43
    net = build_dnet_wfa(a)
    assert dnet_wfa_forward(net, word) == wfa_prefix_values(a, word)


# --- iterated product network ---------------------------------------------------------


def imm_oracle(stream):
    p = IDENTITY3
    for base in range(0, len(stream), 9):
        p = mat3_mul(p, tuple(stream[base : base + 9]))
    return [Rational(e) for e in p]


def test_superblock_constants():
    assert SUPERBLOCK_MATRICES == 78
    assert SUPERBLOCK_TOKENS == 702
    assert IDENTITY_PAD_STEPS == 8
    net = build_dnet_imm()
    block = tuple([Rational(1), Rational(0), Rational(0),
                   Rational(0), Rational(1), Rational(0),
                   Rational(0), Rational(0), Rational(1)] * 78)
    steps = net.block_steps(block, 0)
    assert len(steps) == 702
    assert sum(1 for s in steps[-8:] if s.is_identity) == 8


def test_superblock_product_equals_9x9_product():
    # the 3x3 product embedded once equals the product of the embeddings,
    # with PAD chunks standing for identity matrices
    from exactrnn.delta_gadgets import DnetImmNet
    from exactrnn.rwkv_gadgets import PAD

    rng = random.Random(16)
    net = build_dnet_imm()
    for _ in range(5):
        tokens = []
        for _ in range(rng.randint(0, 12)):
            tokens += [PAD] * 9 if rng.random() < 0.3 else [rng.choice(VALS) for _ in range(9)]
        want = RMatrix.identity(9)
        for a in imm_matrices(tokens):
            want = want @ DnetImmNet._embed3(a)
        assert net.superblock_product(tokens) == want
    assert imm_matrices([PAD] * 9) == [RMatrix.identity(3)]


def test_dnet_imm_single_identity_matrix():
    stream = [1, 0, 0, 0, 1, 0, 0, 0, 1]
    assert dnet_imm_forward(build_dnet_imm(), stream) == [Rational(e) for e in IDENTITY3]


def test_dnet_imm_small_products():
    rng = random.Random(11)
    net = build_dnet_imm()
    for blocks in (1, 2, 7):
        stream = [rng.choice((-1, 0, 1)) for _ in range(9 * blocks)]
        assert dnet_imm_forward(net, stream) == imm_oracle(stream)


def test_dnet_imm_rejects_ragged_stream():
    with pytest.raises(ValueError):
        dnet_imm_forward(build_dnet_imm(), [1] * 8)


def pythagorean_unit(m, n):
    h = m * m + n * n
    return RVector([Rational(m * m - n * n, h), Rational(2 * m * n, h)])


@pytest.mark.parametrize("m,n", [(2, 1), (3, 2), (4, 1), (5, 2), (7, 4)])
def test_h_reflection_involution_pythagorean(m, n):
    k = pythagorean_unit(m, n)
    assert k.dot(k) == Rational(1)
    mat = h_matrix(HStep(Rational(2), k))
    assert mat @ mat == RMatrix.identity(2)


def test_program_requires_square():
    with pytest.raises(ValueError):
        apply_matrix_program(RMatrix([[1, 2, 3], [4, 5, 6]]))


def test_counter_decode_outside_period_raises():
    c = ModCounter(5)  # no exact rational period exists for m = 5
    assert not c.exact_period
    states = c.run(2 * 5)
    with pytest.raises(ValueError):
        c.decode(states[-1])


def test_dnet_wfa_empty_word():
    rng = random.Random(12)
    a = random_wfa(rng, 2, 2)
    assert dnet_wfa_forward(build_dnet_wfa(a), []) == []


def test_dnet_imm_rational_entries():
    rng = random.Random(13)
    vals = [Rational(-1), Rational(1, 2), Rational(0), Rational(3)]
    mats = [[rng.choice(vals) for _ in range(9)] for _ in range(4)]
    stream = [e for m in mats for e in m]
    got = dnet_imm_forward(build_dnet_imm(), stream)
    prod = RMatrix.identity(3)
    for m in mats:
        prod = prod @ RMatrix([m[0:3], m[3:6], m[6:9]])
    assert got == list(prod.entries())


def test_forward_state_equals_head_parameter_transitions():
    from exactrnn.lrnn import DeltaNetStep, deltanet_transition
    from exactrnn.linalg import row_apply

    rng = random.Random(14)
    a = random_wfa(rng, 1, 2)
    net = build_dnet_wfa(a)
    word = [rng.choice(a.alphabet) for _ in range(20)]
    fast = net.initial_row
    dense = net.initial_row
    for t in range(1, len(word) + 1):
        entry = net.router.query_at(t, word)
        fast = apply_h_row(fast, entry.factor)
        head = DeltaNetStep(
            beta=entry.factor.beta, k=entry.factor.k, v=RVector.zeros(net.dim)
        )
        dense = row_apply(dense, deltanet_transition(head).A)
        assert fast == dense


def test_dnet_imm_stream_state_equals_head_parameter_transitions():
    # one superblock (the PAD program) plus all but the last matrix of a
    # second one (the first superblock's program): the support-only row
    # action equals right-multiplying by the dense head transition
    from exactrnn.lrnn import DeltaNetStep, deltanet_transition

    rng = random.Random(18)
    tokens = [rng.choice((-1, 0, 1)) for _ in range(2 * SUPERBLOCK_TOKENS - 9)]
    net = build_dnet_imm()
    fast = dense = net.initial_row
    for t, (factor, _) in enumerate(stream_entries(net, tokens), start=1):
        fast = apply_h_row(fast, factor)
        head = DeltaNetStep(beta=factor.beta, k=factor.k, v=RVector.zeros(net.dim))
        dense = row_apply(dense, deltanet_transition(head).A)
        assert fast == dense, f"state differs at position {t}"


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=2), st.integers(min_value=0, max_value=40), st.integers())
def test_dnet_wfa_fuzz(n_states, length, seed):
    rng = random.Random(seed)
    a = random_wfa(rng, n_states, rng.randint(1, 2))
    word = [rng.choice(a.alphabet) for _ in range(length)]
    assert dnet_wfa_forward(build_dnet_wfa(a), word) == wfa_prefix_values(a, word)


def test_out_of_range_beta_reporting():
    from exactrnn.delta_gadgets import out_of_range_betas

    steps = unit_transvection(0, 1, 2)  # betas 2, 1/2, 1/3
    flagged = out_of_range_betas(steps)
    assert flagged == [(0, Rational(2))]
    assert out_of_range_betas(steps, low=Rational(0), high=Rational(3)) == []
