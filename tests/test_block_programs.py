"""Block programs: the raw op tuples the gadget forwards run in place.

Each net compiles a block into ops, ``(dst, support)`` for an overwrite and
``(beta_num, beta_den, support)`` for a symmetric step, and the forwards
run them on a row held as two int lists (``kernels.run_overwrites``,
``kernels.run_hsteps``). Checked here for all four nets: running a block's
program in place equals folding the step actions over ``block_steps``, bit
for bit, and ``block_steps`` equals the steps built directly from the
block's matrix, so the router spec is unchanged. Also checked: imm streams
the forwards must reject and the token each error names, bool tokens and
mixed token types, entries (non-integer, about 10^4 bits) that reach the
kernels' non-unit-denominator branches, in a compiled superblock or in a
partial final one, and the rwkv-imm column table's bound.
"""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from exactrnn.delta_gadgets import (
    SUPERBLOCK_TOKENS,
    DnetImmNet,
    apply_h_row,
    apply_matrix_program,
    build_dnet_imm,
    build_dnet_wfa,
    HStep,
    dnet_imm_forward,
)
from exactrnn.kernels import nonzeros, run_hsteps, run_overwrites
from exactrnn.linalg import RMatrix, RVector
from exactrnn.rational import Rational
from exactrnn.rwkv_gadgets import (
    COLUMN_TABLE_SIZE,
    PAD,
    OverwriteSpec,
    _column_ops,
    apply_overwrite_row,
    build_rwkv_imm,
    build_rwkv_wfa,
    factor_apply_matrix,
    rwkv_imm_forward,
)
from exactrnn.verify import random_wfa

from oracles import frac_matmul, imm_matrices

TOKEN_KINDS = {
    "unit": (-1, 0, 1),
    "rational": (-1, 0, 1, Rational(2, 3), Rational(-5, 4), Rational(7, 9)),
}
ROW_VALUES = (0, 1, -2, Rational(1, 2), Rational(-3, 5), Rational(4, 7))


def draw_block(kind, seed, length):
    """``length`` tokens of one kind: {-1, 0, 1}, with non-integer
    Rationals mixed in, or the PAD block."""
    if kind == "pad":
        return (PAD,) * length
    rng = random.Random(seed)
    return tuple(rng.choice(TOKEN_KINDS[kind]) for _ in range(length))


def draw_row(seed, dim):
    rng = random.Random(~seed)
    return RVector([rng.choice(ROW_VALUES) for _ in range(dim)])


def assert_program_runs_like_steps(program, steps, row, run, apply_row, split):
    """The program run in place, in two kernel calls split at ``split``,
    equals folding ``apply_row`` over ``steps``."""
    assert len(program) == len(steps)
    nums, dens = list(row.nums), list(row.dens)
    split %= len(program) + 1
    assert run(program, 0, split, nums, dens) is None
    run(program, split, len(program), nums, dens)
    want = row
    for step in steps:
        want = apply_row(want, step)
    assert (nums, dens) == (want.nums, want.dens)


def rwkv_imm_reference_steps(prev_block, index):
    """The nine overwrites of block ``index`` from the previous block's
    matrix, written out densely: step 3i+j writes entry (i, j) of the
    active half times A_prev into the other half."""
    (a,) = imm_matrices(prev_block)
    src = 9 * (index % 2)
    steps = []
    for i in range(3):
        for j in range(3):
            c = RVector.zeros(18)
            for k in range(3):
                c.nums[src + 3 * i + k] = a.nums[3 * k + j]
                c.dens[src + 3 * i + k] = a.dens[3 * k + j]
            steps.append(OverwriteSpec(9 - src + 3 * i + j, c))
    return steps


def dnet_imm_reference_steps(net, prev_block):
    """The padded superblock program built from step values: the PAD
    superblock is all identity steps; a full one is the matrix program of
    its product followed by identity pads."""
    pad = HStep(Rational(0), RVector.zeros(net.dim))
    if prev_block[0] is PAD:
        return [pad] * SUPERBLOCK_TOKENS
    prod = RMatrix.identity(3)
    for a in imm_matrices(prev_block):
        prod = prod @ a
    prod = DnetImmNet._embed3(prod)
    steps = list(apply_matrix_program(prod).steps)
    return steps + [pad] * (SUPERBLOCK_TOKENS - len(steps))


def assert_supports_match(steps, vector):
    for step in steps:
        v = vector(step)
        assert step.support == nonzeros(v.nums, v.dens)


BLOCK_KINDS = st.sampled_from(("unit", "rational", "pad"))


@settings(max_examples=40, deadline=None)
@given(BLOCK_KINDS, st.integers(0, 3), st.integers(), st.integers(0, 9))
@example(kind="pad", index=1, seed=0, split=4)
def test_rwkv_imm_block_program(kind, index, seed, split):
    net = build_rwkv_imm()
    prev = draw_block(kind, seed, 9)
    steps = net.block_steps(prev, index)
    assert steps == rwkv_imm_reference_steps(prev, index)
    assert_supports_match(steps, lambda s: s.c)
    program = net.block_program(prev, index)
    assert [s.op for s in steps] == list(program)
    assert_program_runs_like_steps(
        program, steps, draw_row(seed, 18), run_overwrites, apply_overwrite_row, split
    )


@pytest.mark.parametrize("index", [0, 1])
def test_rwkv_imm_block_program_ten_thousand_bit_entries(index):
    # the column table's keys hold entries of about 10^4 bits, with dens
    rng = random.Random(70 + index)
    prev = tuple(
        Rational(rng.getrandbits(10**4) - rng.getrandbits(10**4 - 1), rng.choice((1, 3, 7)))
        if rng.random() < 0.7 else rng.choice((-1, 0, 1))
        for _ in range(9)
    )
    steps = rwkv_imm_reference_steps(prev, index)
    assert list(build_rwkv_imm().block_program(prev, index)) == [s.op for s in steps]


@settings(max_examples=12, deadline=None)
@given(BLOCK_KINDS, st.integers(0, 3), st.integers(), st.integers(0, SUPERBLOCK_TOKENS))
@example(kind="rational", index=0, seed=0, split=300)
def test_dnet_imm_block_program(kind, index, seed, split):
    net = build_dnet_imm()
    prev = draw_block(kind, seed, SUPERBLOCK_TOKENS)
    steps = net.block_steps(prev, index)
    assert list(steps) == dnet_imm_reference_steps(net, prev)
    assert_supports_match(steps, lambda s: s.k)
    program = net.block_program(prev, index)
    assert [s.op for s in steps] == list(program)
    assert_program_runs_like_steps(
        program, steps, draw_row(seed, net.dim), run_hsteps, apply_h_row, split
    )


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(("rwkv", "dnet")),
    st.integers(1, 3),
    st.booleans(),
    st.integers(0, 3),
    st.integers(),
    st.integers(0, 88),
)
@example(family="dnet", n_states=2, pad=False, index=1, seed=0, split=20)
def test_wfa_block_program(family, n_states, pad, index, seed, split):
    rng = random.Random(seed)
    wfa = random_wfa(rng, n_states, rng.randint(1, 3))
    if family == "rwkv":
        net = build_rwkv_wfa(wfa)
        program_of, run, apply_row = factor_apply_matrix, run_overwrites, apply_overwrite_row
    else:
        net = build_dnet_wfa(wfa)
        program_of = lambda p: apply_matrix_program(p).steps
        run, apply_row = run_hsteps, apply_h_row
    if pad:
        prev = (PAD,) * net.block_len
    else:
        prev = tuple(rng.choice(wfa.alphabet) for _ in range(net.block_len))
    prod = RMatrix.identity(net.n)
    for sym in prev:
        if sym is not PAD:
            prod = prod @ wfa.matrix(sym)
    steps = net.block_steps(prev, index)
    assert list(steps) == list(program_of(prod))
    program = net.block_program(prev, index)
    assert [s.op for s in steps] == list(program)
    assert_program_runs_like_steps(
        program, steps, draw_row(seed, net.dim), run, apply_row, split
    )


# --- adversarial imm inputs -------------------------------------------------------

IMM_FORWARDS = pytest.mark.parametrize("build, forward", [
    (build_dnet_imm, dnet_imm_forward),
    (build_rwkv_imm, rwkv_imm_forward),
], ids=["dnet", "rwkv"])


def frac_product(stream):
    p = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    for base in range(0, len(stream), 9):
        entries = [Fraction(t.num, t.den) if isinstance(t, Rational) else Fraction(t)
                   for t in stream[base : base + 9]]
        p = frac_matmul(p, [entries[0:3], entries[3:6], entries[6:9]])
    return [Rational(x.numerator, x.denominator) for row in p for x in row]


@IMM_FORWARDS
@pytest.mark.parametrize("length", [1, 8, 10])
def test_imm_forward_rejects_ragged_length(build, forward, length):
    with pytest.raises(ValueError, match="multiple of 9"):
        forward(build(), [1] * length)


@IMM_FORWARDS
def test_imm_forward_single_matrix_is_exact(build, forward):
    rng = random.Random(60)
    for _ in range(5):
        stream = [rng.choice(TOKEN_KINDS["rational"]) for _ in range(9)]
        assert forward(build(), stream) == frac_product(stream)


@IMM_FORWARDS
def test_imm_forward_non_integer_rationals_are_exact(build, forward):
    # 80 matrices: the first superblock's program runs with rational betas
    rng = random.Random(61)
    stream = [rng.choice(TOKEN_KINDS["rational"]) for _ in range(9 * 80)]
    assert forward(build(), stream) == frac_product(stream)


@IMM_FORWARDS
def test_imm_forward_ten_thousand_bit_entries_are_exact(build, forward):
    # one matrix of entries near 10^4 bits, among small ones, inside a
    # block whose program the stream runs
    rng = random.Random(62)
    stream = [rng.choice((-1, 0, 1)) for _ in range(9 * 80)]
    for k in range(9 * 40, 9 * 41):
        num = rng.getrandbits(10**4) - rng.getrandbits(10**4 - 1)
        stream[k] = Rational(num, rng.choice((1, 3, 7)))
    assert max(t.num.bit_length() for t in stream if isinstance(t, Rational)) > 9900
    assert forward(build(), stream) == frac_product(stream)


@IMM_FORWARDS
def test_imm_forward_bool_tokens_are_exact(build, forward):
    # bools pass the stream check as ints and reach the kernels as 0 and 1
    rng = random.Random(63)
    stream = [rng.choice((True, False)) for _ in range(SUPERBLOCK_TOKENS + 9 * 80)]
    assert forward(build(), stream) == frac_product(stream)


@IMM_FORWARDS
def test_imm_forward_mixed_int_rational_bool_tokens_are_exact(build, forward):
    # three token types in one stream take the per-token path of the entry
    # lists, in compiled blocks and in the final partial one
    rng = random.Random(66)
    kinds = (-1, 0, 1, True, False, Rational(2, 3), Rational(-5, 4), Rational(3))
    stream = [rng.choice(kinds) for _ in range(SUPERBLOCK_TOKENS + 9 * 5)]
    assert {type(t) for t in stream} == {int, bool, Rational}
    assert forward(build(), stream) == frac_product(stream)


def bad_token_message(tok):
    return "^" + re.escape(f"matrix token must be an int or a Rational, not {tok!r}") + "$"


@IMM_FORWARDS
def test_imm_forward_rejects_a_bad_last_token(build, forward):
    rng = random.Random(67)
    stream = [rng.choice((-1, 0, 1)) for _ in range(4 * SUPERBLOCK_TOKENS)]
    stream[-1] = "1"
    with pytest.raises(ValueError, match=bad_token_message("1")):
        forward(build(), stream)


@IMM_FORWARDS
def test_imm_forward_names_the_first_of_two_bad_tokens(build, forward):
    # the set of token types has no order; the message names whichever bad
    # token comes first in the stream
    rng = random.Random(68)
    stream = [rng.choice((-1, 0, 1, Rational(1, 2))) for _ in range(4 * SUPERBLOCK_TOKENS)]
    stream[40], stream[2000] = 2.5, "x"
    with pytest.raises(ValueError, match=bad_token_message(2.5)):
        forward(build(), stream)
    stream[40], stream[2000] = "x", 2.5
    with pytest.raises(ValueError, match=bad_token_message("x")):
        forward(build(), stream)


def test_rwkv_imm_column_table_stays_bounded():
    # entries of about 200 bits make almost every column new, so the stream
    # needs more columns than the table holds; the table is shared by every
    # net, so the test reads only what this forward adds to its counts
    rng = random.Random(69)
    stream = [rng.getrandbits(200) - rng.getrandbits(199) for _ in range(9 * 360)]
    before = _column_ops.cache_info()
    got = rwkv_imm_forward(build_rwkv_imm(), stream)
    after = _column_ops.cache_info()
    assert got == frac_product(stream)
    assert after.maxsize == COLUMN_TABLE_SIZE
    assert after.misses - before.misses > COLUMN_TABLE_SIZE
    assert after.currsize <= COLUMN_TABLE_SIZE


@IMM_FORWARDS
@pytest.mark.parametrize("where", [0, SUPERBLOCK_TOKENS - 1, SUPERBLOCK_TOKENS + 13])
def test_imm_forward_one_non_integer_rational_is_exact(build, forward, where):
    # one non-integer entry among ints: in a superblock whose program the
    # stream runs, or in the final partial one that only the readout applies
    rng = random.Random(64)
    stream = [rng.choice((-1, 0, 1)) for _ in range(SUPERBLOCK_TOKENS + 27)]
    stream[where] = Rational(-5, 4)
    assert forward(build(), stream) == frac_product(stream)


def test_dnet_imm_every_partial_final_superblock_with_a_rational_is_exact():
    # streams ending at every matrix boundary inside the second superblock,
    # whose first matrix holds a non-integer entry; the integer streams are
    # covered in test_streaming
    rng = random.Random(65)
    stream = [rng.choice((-1, 0, 1)) for _ in range(2 * SUPERBLOCK_TOKENS)]
    stream[SUPERBLOCK_TOKENS + 4] = Rational(7, 9)
    net = build_dnet_imm()
    want = frac_product(stream[:SUPERBLOCK_TOKENS])
    for length in range(SUPERBLOCK_TOKENS + 9, 2 * SUPERBLOCK_TOKENS, 9):
        want = frac_product(want + stream[length - 9 : length])
        assert dnet_imm_forward(net, stream[:length]) == want, length
