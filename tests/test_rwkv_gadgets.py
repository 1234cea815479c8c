import random

import pytest

from exactrnn.automata import Wfa, wfa_prefix_values
from exactrnn.linalg import RMatrix, RVector, row_apply
from exactrnn.lrnn import rwkv_transition
from exactrnn.problems import IDENTITY3, imm_product
from exactrnn.rational import Rational
from exactrnn.rwkv_gadgets import (
    OverwriteSpec,
    apply_overwrite_col,
    apply_overwrite_row,
    build_rwkv_imm,
    build_rwkv_wfa,
    factor_apply_matrix,
    overwrite_matrix,
    rwkv_imm_forward,
    rwkv_params_for_overwrite,
    rwkv_wfa_forward,
    window_key,
)
from exactrnn.verify import random_wfa

from oracles import support_of

VALS = [Rational(-1), Rational(-1, 2), Rational(0), Rational(1, 2), Rational(1)]


def rand_vec(rng, d, zero_at=None):
    v = RVector([rng.choice(VALS) for _ in range(d)])
    if zero_at is not None:
        v.nums[zero_at] = 0
        v.dens[zero_at] = 1
    return v


# --- overwrite primitive ------------------------------------------------------


def test_overwrite_with_zero_coefficients_clears():
    spec = OverwriteSpec(dst=1, c=RVector.zeros(3))
    r = RVector([4, 5, 6])
    assert apply_overwrite_row(r, spec) == RVector([4, 0, 6])


def test_overwrite_row_example():
    spec = OverwriteSpec(dst=1, c=RVector([5, 0, 7]))
    r = RVector([1, 2, 3])
    assert apply_overwrite_row(r, spec) == RVector([1, 26, 3])
    assert row_apply(r, overwrite_matrix(spec)) == RVector([1, 26, 3])


def test_overwrite_matrix_entrywise_form():
    d = 4
    rng = random.Random(0)
    dst = 2
    c = rand_vec(rng, d, zero_at=dst)
    e = RVector.basis(dst, d)
    want = RMatrix.identity(d) - RMatrix.outer(e, e) + RMatrix.outer(c, e)
    assert overwrite_matrix(OverwriteSpec(dst=dst, c=c)) == want


def test_overwrite_requires_zero_at_dst():
    with pytest.raises(ValueError):
        OverwriteSpec(dst=0, c=RVector([1, 2]))


def test_overwrite_column_action_matches_matrix():
    rng = random.Random(1)
    for _ in range(25):
        d = rng.randint(2, 5)
        dst = rng.randrange(d)
        spec = OverwriteSpec(dst=dst, c=rand_vec(rng, d, zero_at=dst))
        u = rand_vec(rng, d)
        assert apply_overwrite_col(u, spec) == overwrite_matrix(spec).apply_col(u)


@pytest.mark.parametrize("action", [apply_overwrite_row, apply_overwrite_col],
                         ids=["row", "col"])
def test_overwrite_actions_reject_dimension_mismatch(action):
    # on a shorter row a dot product over c's support would index past it,
    # and a dense one would drop the c[2] term without a word
    spec = OverwriteSpec(dst=1, c=RVector([5, 0, 7]))
    for r in (RVector([1, 2]), RVector([1, 2, 3, 4]), RVector([0, 2, 0, 4])):
        with pytest.raises(ValueError, match="step dimension 3"):
            action(r, spec)


# --- head parameters -----------------------------------------------------------


def test_params_zero_coefficients():
    spec = OverwriteSpec(dst=1, c=RVector.zeros(3))
    e1 = RVector.basis(1, 3)
    a = rwkv_transition(rwkv_params_for_overwrite(spec)).A
    assert a == RMatrix.identity(3) - RMatrix.outer(e1, e1)


def test_params_match_overwrite_matrix():
    rng = random.Random(2)
    for _ in range(20):
        d = 4
        dst = rng.randrange(d)
        spec = OverwriteSpec(dst=dst, c=rand_vec(rng, d, zero_at=dst))
        step = rwkv_params_for_overwrite(spec)
        assert rwkv_transition(step).A == overwrite_matrix(spec)


def test_params_rank_one_identity():
    # with the coefficient at dst zero, the transition is I - kappa e_dst^T
    rng = random.Random(3)
    d = 5
    dst = 3
    spec = OverwriteSpec(dst=dst, c=rand_vec(rng, d, zero_at=dst))
    step = rwkv_params_for_overwrite(spec)
    e = RVector.basis(dst, d)
    assert rwkv_transition(step).A == RMatrix.identity(d) - RMatrix.outer(step.kappa, e)


# --- block factorizations --------------------------------------------------------


def apply_specs(row, specs):
    for spec in specs:
        row = apply_overwrite_row(row, spec)
    return row


def test_factor_identity_copies_main():
    d = 3
    rng = random.Random(4)
    specs = factor_apply_matrix(RMatrix.identity(d))
    x = rand_vec(rng, d)
    s = rand_vec(rng, d)
    out = apply_specs(x.concat(s), specs)
    assert out == x.concat(x)


def test_factor_applies_matrix():
    rng = random.Random(5)
    for _ in range(20):
        n = 2
        p = RMatrix([[rng.choice(VALS) for _ in range(n)] for _ in range(n)])
        specs = factor_apply_matrix(p)
        assert len(specs) == 2 * n
        x = rand_vec(rng, n)
        s = rand_vec(rng, n)
        out = apply_specs(x.concat(s), specs)
        want = row_apply(x, p)
        assert out == want.concat(want)


def test_factor_step_count():
    for n in (1, 2, 3, 5):
        assert len(factor_apply_matrix(RMatrix.identity(n))) == 2 * n


def test_factor_phase_one_any_order():
    # phase-1 overwrites read only the main half, so any order agrees
    rng = random.Random(6)
    n = 3
    p = RMatrix([[rng.choice(VALS) for _ in range(n)] for _ in range(n)])
    specs = factor_apply_matrix(p)
    phase1 = specs[:n]
    row = rand_vec(rng, 2 * n)
    forward = apply_specs(row, phase1)
    shuffled = list(phase1)
    rng.shuffle(shuffled)
    assert apply_specs(row, shuffled) == forward


# --- automaton tracking network ---------------------------------------------------


def test_wfa_net_identity_matrices():
    a = Wfa(
        2,
        ("x",),
        {"x": RMatrix.identity(2)},
        RVector([Rational(1, 2), 1]),
        RVector([3, Rational(-1, 2)]),
    )
    net = build_rwkv_wfa(a)
    out = rwkv_wfa_forward(net, ["x"] * 11)
    assert out == [a.alpha.dot(a.omega)] * 11


def test_wfa_net_scalar_products():
    weights = {"a": Rational(1, 2), "b": Rational(-1)}
    a = Wfa(
        1,
        ("a", "b"),
        {s: RMatrix([[w]]) for s, w in weights.items()},
        RVector([2]),
        RVector([3]),
    )
    net = build_rwkv_wfa(a)
    word = ["a", "b", "b", "a", "b"]
    out = rwkv_wfa_forward(net, word)
    running = Rational(6)
    expect = []
    for sym in word:
        running = running * weights[sym]
        expect.append(running)
    assert out == expect


def test_wfa_net_matches_prefixes():
    rng = random.Random(7)
    for trial in range(15):
        n = rng.randint(1, 3)
        a = random_wfa(rng, n, rng.randint(1, 3))
        # both the padding-only regime and words crossing three boundaries
        length = rng.choice([rng.randint(0, 2 * n - 1), rng.randint(6 * n, 12 * n)])
        word = [rng.choice(a.alphabet) for _ in range(length)]
        net = build_rwkv_wfa(a)
        assert rwkv_wfa_forward(net, word) == wfa_prefix_values(a, word)


def test_wfa_net_rejects_unknown_symbol():
    rng = random.Random(8)
    a = random_wfa(rng, 2, 2)
    net = build_rwkv_wfa(a)
    with pytest.raises(ValueError):
        rwkv_wfa_forward(net, ["z"])


def test_block_factor_invariant():
    # the streamed factors of each block string apply the block product
    rng = random.Random(9)
    a = random_wfa(rng, 2, 2)
    net = build_rwkv_wfa(a)
    for _ in range(10):
        block = tuple(rng.choice(a.alphabet) for _ in range(net.m))
        prod = RMatrix.identity(net.n)
        for sym in block:
            prod = prod @ a.matrices[sym]
        specs = net.block_steps(block, 0)
        x = rand_vec(rng, net.n)
        s = rand_vec(rng, net.n)
        out = apply_specs(x.concat(s), specs)
        want = row_apply(x, prod)
        assert out == want.concat(want)


def test_router_is_function_of_window():
    # identical (residue, window) keys from different prefixes give equal
    # entries
    rng = random.Random(10)
    a = random_wfa(rng, 2, 2)
    net = build_rwkv_wfa(a)
    m2 = 2 * net.m
    word1 = [rng.choice(a.alphabet) for _ in range(3 * m2)]
    suffix = [rng.choice(a.alphabet) for _ in range(m2)]
    word2 = [rng.choice(a.alphabet) for _ in range(2 * m2)] + suffix
    word1 = word1[: 2 * m2] + suffix
    t = len(word1)
    key1 = window_key(t, word1, m2)
    key2 = window_key(len(word2), word2, m2)
    assert key1 == key2
    assert net.router.query(key1) == net.router.query(key2)


# --- iterated product network -------------------------------------------------------


def test_imm_identity_block():
    stream = [1, 0, 0, 0, 1, 0, 0, 0, 1]
    assert rwkv_imm_forward(build_rwkv_imm(), stream) == [Rational(e) for e in IDENTITY3]


def test_imm_permutation_then_negation():
    perm = (0, 1, 0, 0, 0, 1, 1, 0, 0)
    neg = tuple(-e for e in IDENTITY3)
    stream = list(perm) + list(neg)
    got = rwkv_imm_forward(build_rwkv_imm(), stream)
    assert got == [Rational(-e) for e in perm]


def test_imm_random_streams():
    rng = random.Random(11)
    for _ in range(10):
        blocks = rng.randint(1, 20)
        stream = [rng.choice((-1, 0, 1)) for _ in range(9 * blocks)]
        assert rwkv_imm_forward(build_rwkv_imm(), stream) == list(imm_product(stream))


def test_imm_rejects_ragged_stream():
    with pytest.raises(ValueError):
        rwkv_imm_forward(build_rwkv_imm(), [1] * 10)


def test_imm_coefficients_only_touch_active_half():
    # structural support invariant for every streamed overwrite
    rng = random.Random(12)
    net = build_rwkv_imm()
    stream = [rng.choice((-1, 0, 1)) for _ in range(9 * 6)]
    for t in range(1, len(stream) + 1):
        entry = net.router.query_at(t, [Rational(v) for v in stream])
        residue = ((t - 1) % 18) + 1
        parity = 0 if residue <= 9 else 1
        active = range(9 * parity, 9 * parity + 9)
        spec = entry.factor
        assert spec.dst not in active
        support = [i for i in range(18) if spec.c.nums[i] != 0]
        assert all(i in active for i in support)


def test_factor_and_imm_steps_carry_their_support():
    rng = random.Random(41)
    for n in (1, 2, 3):
        p = RMatrix([[rng.choice(VALS) for _ in range(n)] for _ in range(n)])
        for spec in factor_apply_matrix(p):
            assert spec.support == support_of(spec.c)
    net = build_rwkv_imm()
    for index in range(2):
        block = tuple(rng.choice((-1, 0, 1, Rational(2, 3))) for _ in range(9))
        for spec in net.block_steps(block, index):
            assert spec.support == support_of(spec.c)


def test_imm_rational_entries():
    # streams generalize beyond -1/0/1 to arbitrary rationals
    rng = random.Random(13)
    vals = [Rational(-1), Rational(-1, 2), Rational(0), Rational(1, 2), Rational(2)]
    mats = [[rng.choice(vals) for _ in range(9)] for _ in range(5)]
    stream = [e for m in mats for e in m]
    got = rwkv_imm_forward(build_rwkv_imm(), stream)
    prod = RMatrix.identity(3)
    for m in mats:
        prod = prod @ RMatrix([m[0:3], m[3:6], m[6:9]])
    assert got == list(prod.entries())


def test_wfa_forward_empty_word():
    rng = random.Random(14)
    a = random_wfa(rng, 2, 2)
    assert rwkv_wfa_forward(build_rwkv_wfa(a), []) == []


def test_factor_requires_square():
    with pytest.raises(ValueError):
        factor_apply_matrix(RMatrix([[1, 2, 3], [4, 5, 6]]))


def test_forward_state_equals_head_parameter_transitions():
    # the O(d) overwrite fast path equals right-multiplying by the full
    # transition matrix built from the router's head parameters
    rng = random.Random(15)
    a = random_wfa(rng, 2, 2)
    net = build_rwkv_wfa(a)
    word = [rng.choice(a.alphabet) for _ in range(9)]
    fast = net.initial_row
    dense = net.initial_row
    for t in range(1, len(word) + 1):
        entry = net.router.query_at(t, word)
        fast = apply_overwrite_row(fast, entry.factor)
        dense = row_apply(dense, rwkv_transition(rwkv_params_for_overwrite(entry.factor)).A)
        assert fast == dense


def test_router_entry_params_built_from_factor():
    # head parameters are derived from the factor, not stored in the entry
    from dataclasses import fields

    rng = random.Random(16)
    a = random_wfa(rng, 2, 2)
    word = [rng.choice(a.alphabet) for _ in range(7)]
    entry = build_rwkv_wfa(a).router.query_at(len(word), word)
    assert [f.name for f in fields(entry)] == ["factor", "completion"]
    params = rwkv_params_for_overwrite(entry.factor)
    assert rwkv_transition(params).A == overwrite_matrix(entry.factor)


from hypothesis import given, settings, strategies as st


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=30), st.integers())
def test_wfa_net_fuzz(n_states, length, seed):
    rng = random.Random(seed)
    a = random_wfa(rng, n_states, rng.randint(1, 3))
    word = [rng.choice(a.alphabet) for _ in range(length)]
    assert rwkv_wfa_forward(build_rwkv_wfa(a), word) == wfa_prefix_values(a, word)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers())
def test_imm_net_fuzz(blocks, seed):
    rng = random.Random(seed)
    stream = [rng.choice((-1, 0, 1)) for _ in range(9 * blocks)]
    assert rwkv_imm_forward(build_rwkv_imm(), stream) == list(imm_product(stream))
