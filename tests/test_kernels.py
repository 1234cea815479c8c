"""The rational kernels: canonical outputs, the ReLU clamp, the 3x3
chain against a fold of the generic matrix product (and how much of a
mixed-den chain that fold runs), a fraction-free chain against the same
fold, the column kernels against the spec-level column actions of the
gadget steps, and generated integer programs against ``sparse_affine``
and their bit counts against ``precision_of``."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from exactrnn import kernels
from exactrnn.delta_gadgets import HStep, apply_h_col, h_matrix
from exactrnn.linalg import RVector
from exactrnn.rational import PrecisionReport, Rational, precision_of, value_bits
from exactrnn.rwkv_gadgets import OverwriteSpec, apply_overwrite_col, overwrite_matrix


def rand_rat_list(rng, n):
    nums = [rng.randint(-50, 50) for _ in range(n)]
    dens = [rng.randint(1, 20) for _ in range(n)]
    canon = [kernels.rnorm(a, b) for a, b in zip(nums, dens)]
    return [c[0] for c in canon], [c[1] for c in canon]


def test_norm_basic():
    assert kernels.rnorm(2, 4) == (1, 2)
    assert kernels.rnorm(0, 17) == (0, 1)
    assert kernels.rnorm(3, -6) == (-1, 2)


def test_sparse_affine_relu_clamps():
    # one ReLU op copying register 0 into register 1
    ops = ((((0, 1, 1),), 0, 1, True),)
    out = kernels.sparse_affine(ops, [-5], [1])
    assert out == ([-5, 0], [1, 1])


def test_outputs_always_canonical():
    rng = random.Random(4)
    from math import gcd

    for _ in range(50):
        n = rng.randint(1, 6)
        an, ad = rand_rat_list(rng, n)
        bn, bd = rand_rat_list(rng, n)
        num, den = kernels.vdot(an, ad, bn, bd)
        assert den > 0 and (num == 0 and den == 1 or gcd(abs(num), den) == 1)


def test_sparse_dot_equals_dense_dot():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 8)
        an, ad = rand_rat_list(rng, n)
        bn, bd = rand_rat_list(rng, n)
        for i in rng.sample(range(n), rng.randint(0, n)):
            bn[i], bd[i] = 0, 1
        support = kernels.nonzeros(bn, bd)
        assert [i for i, _, _ in support] == [i for i in range(n) if bn[i] != 0]
        assert kernels.sdot(support, an, ad) == kernels.vdot(an, ad, bn, bd)


# --- fraction-free products ---------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), st.integers(1, 6), st.integers())
def test_fraction_free_chain_equals_mat_mul_fold(n, count, seed):
    # dens up to 20: common denominators are mostly not powers of two
    rng = random.Random(seed)
    matrices = [rand_rat_list(rng, n * n) for _ in range(count)]
    want_n, want_d = matrices[0]
    for an, ad in matrices[1:]:
        want_n, want_d = kernels.mat_mul(want_n, want_d, n, n, an, ad, n)
    rows, den = None, 1
    for an, ad in matrices:
        ints, aden = kernels.common_den(an, ad)
        assert aden == lcm(*ad)
        assert [Fraction(x, aden) for x in ints] == list(map(Fraction, an, ad))
        if rows is None:
            rows = [ints[i * n : i * n + n] for i in range(n)]
        else:
            rows = kernels.int_mat_mul(rows, [ints[j::n] for j in range(n)])
        den *= aden
    got = [kernels.rnorm(x, den) for row in rows for x in row]
    assert got == list(zip(want_n, want_d))


def test_int_mat_mul_rows_by_columns():
    # [[1, 2], [3, 4]] @ [[5, 6], [7, 8]], the right factor given by columns
    assert kernels.int_mat_mul([[1, 2], [3, 4]], [[5, 7], [6, 8]]) == [[19, 22], [43, 50]]
    # one column: a matrix-vector product
    assert kernels.int_mat_mul([[1, 2], [3, 4]], [[1, -1]]) == [[-1], [-1]]
    assert kernels.int_mat_vec([[1, 2], [3, 4]], [1, -1]) == [-1, -1]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 4), st.integers(0, 5), st.integers())
def test_vec_rows_on_own_rows_equals_vec_mat(rows, cols, seed):
    # the same rows held as lists of their own (stride 0) and as one flat
    # row-major matrix give the same canonical combination
    rng = random.Random(seed)
    xn, xd = rand_rat_list(rng, rows)
    mn, md = rand_rat_list(rng, rows * cols)
    flat = kernels.vec_mat(xn, xd, mn, md, rows, cols)
    own_n = [mn[i * cols : i * cols + cols] for i in range(rows)]
    own_d = [md[i * cols : i * cols + cols] for i in range(rows)]
    assert kernels.vec_rows(xn, xd, own_n, own_d, cols) == flat
    want = [sum((Fraction(a, b) * Fraction(mn[i * cols + j], md[i * cols + j])
                 for i, (a, b) in enumerate(zip(xn, xd))), Fraction(0)) for j in range(cols)]
    assert flat == ([w.numerator for w in want], [w.denominator for w in want])


# --- mat3_chain ---------------------------------------------------------------

IDENTITY3 = ([1, 0, 0, 0, 1, 0, 0, 0, 1], [1] * 9)


def mat_mul_fold(nums, dens):
    outn, outd = IDENTITY3
    for k in range(0, len(nums), 9):
        outn, outd = kernels.mat_mul(outn, outd, 3, 3, nums[k : k + 9], dens[k : k + 9], 3)
    return outn, outd


def chains(entries):
    """Flat entry lists of 0..12 matrices, nine ``(num, den)`` draws each."""
    return st.lists(st.lists(entries, min_size=9, max_size=9), max_size=12).map(
        lambda mats: ([n for m in mats for n, _ in m], [d for m in mats for _, d in m])
    )


SMALL_INTS = st.integers(-2, 2).map(lambda n: (n, 1))
BIG_INTS = st.integers(-(10**30), 10**30).map(lambda n: (n, 1))
NON_INTEGERS = st.builds(kernels.rnorm, st.integers(-9, 9), st.integers(2, 9)).filter(
    lambda r: r[1] > 1
)


def test_mat3_chain_empty_is_identity():
    assert kernels.mat3_chain([], []) == IDENTITY3


@settings(max_examples=60, deadline=None)
@given(chains(st.one_of(SMALL_INTS, BIG_INTS)))
def test_mat3_chain_integer_chains_equal_mat_mul_fold(chain):
    nums, dens = chain
    assert kernels.mat3_chain(nums, dens) == mat_mul_fold(nums, dens)


FIVE_MATRICES = ([1, -1, 0, 0, 1, 1, -1, 0, 1] * 5, [1] * 45)


@settings(max_examples=60, deadline=None)
@given(chains(SMALL_INTS).filter(lambda c: c[0]), st.integers(0, 10**6), NON_INTEGERS)
# the integer chain runs up to the non-integer entry's matrix and the fold
# from there: that matrix first, in the middle and last
@example(FIVE_MATRICES, 4, (1, 2))
@example(FIVE_MATRICES, 9 * 2 + 4, (-3, 5))
@example(FIVE_MATRICES, 9 * 4 + 8, (1, 2))
def test_mat3_chain_one_non_integer_entry_equals_mat_mul_fold(chain, where, entry):
    nums, dens = list(chain[0]), list(chain[1])  # examples share their lists
    k = where % len(nums)
    nums[k], dens[k] = entry
    assert kernels.mat3_chain(nums, dens) == mat_mul_fold(nums, dens)


@settings(max_examples=15, deadline=None)
@given(st.integers(), st.integers(1, 4), st.booleans())
def test_mat3_chain_ten_thousand_bit_entries_equal_mat_mul_fold(seed, matrices, integer):
    # entries near 10^4 bits among small ones, drawn from a seeded stream,
    # since hypothesis draws integers this large too rarely
    rng = random.Random(seed)
    nums, dens = [], []
    for _ in range(9 * matrices):
        num = rng.choice((-1, 0, 1, rng.getrandbits(10**4) - rng.getrandbits(10**4 - 1)))
        den = 1 if integer else rng.choice((1, 3, rng.getrandbits(10**4) | 1))
        num, den = kernels.rnorm(num, den)
        nums.append(num)
        dens.append(den)
    assert kernels.mat3_chain(nums, dens) == mat_mul_fold(nums, dens)


@pytest.mark.parametrize("first", [0, 39, 77], ids=["first", "middle", "last"])
def test_mat3_chain_folds_only_from_the_first_non_integer_matrix(monkeypatch, first):
    # one mat_mul per matrix from the first non-integer one on, none before
    rng = random.Random(7)
    matrices = 78
    nums = [rng.choice((-1, 0, 1)) for _ in range(9 * matrices)]
    dens = [1] * len(nums)
    nums[9 * first + 4], dens[9 * first + 4] = 1, 2
    nums[-1], dens[-1] = -3, 5
    want = mat_mul_fold(nums, dens)
    calls = []
    mat_mul = kernels.mat_mul

    def counted(*args):
        calls.append(args)
        return mat_mul(*args)

    monkeypatch.setattr(kernels, "mat_mul", counted)
    assert kernels.mat3_chain(nums, dens) == want
    assert len(calls) == matrices - first


def test_mat3_chain_rejects_partial_matrices():
    with pytest.raises(ValueError, match="whole 3x3"):
        kernels.mat3_chain([1] * 10, [1] * 10)


# --- column kernels -----------------------------------------------------------


def draw_entries(rng, d, bits):
    """``d`` canonical (num, den) entries: zeros, small integers and
    fractions, and, when ``bits`` is set, values of about that many bits
    (drawn from a seeded stream, since hypothesis draws them too rarely)."""

    def big():
        return rng.getrandbits(bits) | 1 if bits else 7

    nums, dens = [], []
    for _ in range(d):
        num, den = kernels.rnorm(
            rng.choice((-2, -1, 0, 0, 1, 3, big(), -big())), rng.choice((1, 1, 2, 3, big()))
        )
        nums.append(num)
        dens.append(den)
    return nums, dens


COLUMN_CASES = (st.integers(), st.integers(2, 7), st.sampled_from((0, 10**4)))


@settings(max_examples=60, deadline=None)
@given(*COLUMN_CASES, st.integers(0, 4))
def test_run_overwrite_cols_equals_column_actions(seed, d, bits, split):
    rng = random.Random(seed)
    u = RVector._raw(*draw_entries(rng, d, bits))
    ops, want, dense = [], u, u
    for _ in range(4):
        dst = rng.randrange(d)
        cn, cd = draw_entries(rng, d, bits)
        cn[dst], cd[dst] = 0, 1
        spec = OverwriteSpec(dst, RVector._raw(cn, cd))
        ops.append(spec.op)
        want = apply_overwrite_col(want, spec)
        dense = overwrite_matrix(spec).apply_col(dense)
    nums, dens = list(u.nums), list(u.dens)
    assert kernels.run_overwrite_cols(ops, 0, split, nums, dens) is None
    kernels.run_overwrite_cols(ops, split, len(ops), nums, dens)
    assert RVector._raw(nums, dens) == want == dense


@settings(max_examples=60, deadline=None)
@given(*COLUMN_CASES)
def test_run_hsteps_on_one_op_equals_column_action(seed, d, bits):
    rng = random.Random(seed)
    u = RVector._raw(*draw_entries(rng, d, bits))
    (bn,), (bd,) = draw_entries(rng, 1, bits)
    step = HStep(Rational._make(bn, bd), RVector._raw(*draw_entries(rng, d, bits)))
    nums, dens = list(u.nums), list(u.dens)
    kernels.run_hsteps((step.op,), 0, 1, nums, dens)
    assert RVector._raw(nums, dens) == apply_h_col(u, step) == h_matrix(step).apply_col(u)


# --- generated integer programs ----------------------------------------------


@st.composite
def int_programs(draw):
    """An all-integer ``sparse_affine`` program and an integer input: terms
    read any earlier register, may be absent, and weights, biases and inputs
    may be negative, zero or large."""
    ints = st.integers(-3, 3) | st.integers()
    in_dim = draw(st.integers(1, 4))
    ops = []
    for k in range(in_dim, in_dim + draw(st.integers(0, 8))):
        terms = draw(st.lists(st.tuples(st.integers(0, k - 1), ints, st.just(1)), max_size=5))
        ops.append((tuple(terms), draw(ints), 1, draw(st.booleans())))
    x = draw(st.lists(ints, min_size=in_dim, max_size=in_dim))
    return tuple(ops), x


# (terms, bias num, bias den, relu) ops with no terms, and a ReLU chain
# that reads an earlier op
_NO_TERMS = (((), 0, 1, True), ((), -2, 1, True), ((), -2, 1, False))
_CHAIN = ((((0, 2, 1), (0, -3, 1)), 0, 1, True), (((1, -1, 1),), 0, 1, True))


@settings(max_examples=300, deadline=None)
@given(int_programs())
@example(((), [-4]))
@example((_NO_TERMS, [5]))
@example((_CHAIN, [7]))
def test_compiled_int_program_equals_sparse_affine(case):
    ops, x = case
    want_n, want_d = kernels.sparse_affine(ops, x, [1] * len(x))
    assert want_d == [1] * len(want_d)
    run = kernels.compile_int_affine(ops, len(x), range(len(x) + len(ops)), (), ())
    assert run(x) == (want_n, 0, 0)


@settings(max_examples=300, deadline=None)
@given(int_programs(), st.data())
@example(((), [-4]), None)
@example((_CHAIN, [7]), None)
def test_counted_int_program_equals_sparse_affine_and_precision_of(case, data):
    """With ``out`` and ``observed``, the generated code returns those
    registers and the ``precision_of`` the observed values, each repeated
    as often as its count."""
    ops, x = case
    regs = st.integers(0, len(x) + len(ops) - 1)
    if data is None:  # an explicit example: every register, counted once, twice, ...
        out = list(range(len(x) + len(ops)))
        observed = [(r, r + 1) for r in out]
    else:
        out = data.draw(st.lists(regs, max_size=6))
        observed = data.draw(st.lists(st.tuples(regs, st.integers(1, 4)), max_size=8))
    want_n, _ = kernels.sparse_affine(ops, x, [1] * len(x))
    got, max_bits, total_bits = kernels.compile_int_affine(ops, len(x), out, observed, ())(x)
    assert got == [want_n[r] for r in out]
    counted = [Rational(want_n[r]) for r, k in observed for _ in range(k)]
    assert PrecisionReport(max_bits, total_bits) == precision_of(counted)


def test_counted_int_program_sums_more_than_one_line_of_bits():
    n = 450  # more observed registers than terms on one generated line
    observed = [(r, r % 3 + 1) for r in range(n)]
    x = [(-1) ** r * 7 ** (r % 40) for r in range(n)]
    got, max_bits, total_bits = kernels.compile_int_affine((), n, (), observed, ())(x)
    counted = [Rational(x[r]) for r, k in observed for _ in range(k)]
    assert got == [] and PrecisionReport(max_bits, total_bits) == precision_of(counted)


def _counted(ops, x, out, observed, binary):
    got, max_bits, total_bits = kernels.compile_int_affine(ops, len(x), out, observed, binary)(x)
    return got, PrecisionReport(max_bits, total_bits)


@settings(max_examples=200, deadline=None)
@given(int_programs(), st.data())
def test_binary_registers_count_like_sparse_affine_and_precision_of(case, data):
    """Observed registers that hold 0 or 1 may be named ``binary``: the
    results are still those of ``sparse_affine`` and ``precision_of``."""
    ops, x = case
    want_n, _ = kernels.sparse_affine(ops, x, [1] * len(x))
    regs = st.integers(0, len(want_n) - 1)
    zero_one = [r for r, v in enumerate(want_n) if v in (0, 1)]
    if zero_one:  # draw the 0/1 registers often
        regs = regs | st.sampled_from(zero_one)
    out = data.draw(st.lists(regs, max_size=6))
    observed = data.draw(st.lists(st.tuples(regs, st.integers(1, 4)), max_size=8))
    candidates = sorted({r for r, _ in observed} & set(zero_one))
    binary = data.draw(st.sets(st.sampled_from(candidates))) if candidates else set()
    counted = [Rational(want_n[r]) for r, k in observed for _ in range(k)]
    assert _counted(ops, x, out, observed, binary) == ([want_n[r] for r in out], precision_of(counted))


# registers: x = [1, 0, 5], r3 = relu(r0 - r1) = 1, r4 = relu(r1 - r0) = 0,
# r5 = 2 r2 - 3 = 7
_BITS_OPS = ((((0, 1, 1), (1, -1, 1)), 0, 1, True), (((1, 1, 1), (0, -1, 1)), 0, 1, True),
             (((2, 2, 1),), -3, 1, False))


@pytest.mark.parametrize(
    "observed, binary",
    [(((0, 1), (1, 2), (3, 3), (4, 1)), {0, 1, 3, 4}), (((1, 2), (4, 1)), {1, 4}),
     (((0, 1), (2, 2), (5, 1), (3, 1)), set()), (((3, 1), (2, 1), (3, 2)), {3}),
     ((), set())],
    ids=["every-observed-binary", "all-binary-are-0", "none-binary", "binary-observed-twice",
         "nothing-observed"],
)
def test_binary_registers_with_every_none_or_nothing_observed(observed, binary):
    x = [1, 0, 5]
    want_n, _ = kernels.sparse_affine(_BITS_OPS, x, [1] * 3)
    assert want_n == [1, 0, 5, 1, 0, 7]
    counted = [Rational(want_n[r]) for r, k in observed for _ in range(k)]
    want = (want_n, precision_of(counted) if observed else PrecisionReport(0, 0))
    assert _counted(_BITS_OPS, x, range(6), observed, binary) == want


@pytest.mark.parametrize("count", [0, -2])
def test_binary_register_with_a_count_below_one_counts_as_without_binary(count):
    """A count below 1 keeps the register's ``bit_length`` in ``max``, as
    when no register is binary."""
    observed = ((3, count), (5, 1))
    x = [1, 0, 5]
    assert _counted(_BITS_OPS, x, (), observed, {3}) == _counted(_BITS_OPS, x, (), observed, ())


@settings(max_examples=200, deadline=None)
@given(int_programs(), st.data())
@example((_NO_TERMS, [5]), None)
def test_folded_bits_count_like_precision_of_the_values_folded_out(case, data):
    """Values the caller folded out of a program (here, registers dropped
    from ``observed``) enter the results through ``folded``: their largest
    and total value bits."""
    ops, x = case
    want_n, _ = kernels.sparse_affine(ops, x, [1] * len(x))
    regs = st.sampled_from(range(len(want_n)))
    if data is None:  # an explicit example: every register folded out
        observed, folded = [], [(r, 1) for r in range(len(want_n))]
    else:
        observed = data.draw(st.lists(st.tuples(regs, st.integers(1, 4)), max_size=6))
        folded = data.draw(st.lists(st.tuples(regs, st.integers(1, 4)), min_size=1, max_size=6))
    bits = [(value_bits(Rational(want_n[r])), k) for r, k in folded]
    run = kernels.compile_int_affine(
        ops, len(x), (), observed, (), (max(b for b, _ in bits), sum(b * k for b, k in bits))
    )
    counted = [Rational(want_n[r]) for r, k in observed + folded for _ in range(k)]
    got, max_bits, total_bits = run(x)
    assert got == [] and PrecisionReport(max_bits, total_bits) == precision_of(counted)


def test_compiled_int_program_runs_a_5000_term_row():
    n = 5000
    ops = ((tuple((c, c - 2500, 1) for c in range(n)), -7, 1, False),
           (((n, -1, 1), (0, 3 ** 20000, 1)), 1, 1, True))
    x = [(-1) ** c * c for c in range(n)]
    got, _, _ = kernels.compile_int_affine(ops, n, range(n + 2), (), ())(x)
    assert got == kernels.sparse_affine(ops, x, [1] * n)[0]
    assert got[n] == sum((c - 2500) * v for c, v in enumerate(x)) - 7


class _SourceInt(int):
    def __str__(self):
        return "__import__('os')"

    __repr__ = __str__


@pytest.mark.parametrize(
    "op",
    [
        (((0, Fraction(2), 1),), 0, 1, False),
        (((0, 2.0, 1),), 0, 1, False),
        (((0, True, 1),), 0, 1, False),
        (((0, _SourceInt(2), 1),), 0, 1, False),
        (((0, 2, 2),), 0, 1, False),
        (((0, 2, 1),), _SourceInt(0), 1, False),
        (((0, 2, 1),), 1, 2, False),
        (((_SourceInt(0), 2, 1),), 0, 1, False),
        (((1, 2, 1),), 0, 1, False),
        (((-1, 2, 1),), 0, 1, False),
    ],
    ids=["fraction", "float", "bool", "int-subclass", "weight-den", "bias-subclass",
         "bias-den", "index-subclass", "later-register", "negative-register"],
)
def test_compile_int_affine_rejects_non_integer_programs(monkeypatch, op):
    ran = []
    monkeypatch.setattr(kernels, "exec", lambda *args: ran.append(args), raising=False)
    assert kernels.compile_int_affine((op,), 1, (0,), (), ()) is None
    assert ran == []


@pytest.mark.parametrize(
    "out, observed",
    [((2,), ()), ((-1,), ()), ((_SourceInt(0),), ()), ((), ((2, 1),)),
     ((), ((_SourceInt(0), 1),)), ((), ((0, _SourceInt(1)),)), ((), ((0, 1.0),))],
    ids=["out-missing", "out-negative", "out-subclass", "observed-missing",
         "observed-subclass", "count-subclass", "count-float"],
)
def test_compile_int_affine_rejects_unknown_registers_and_counts(monkeypatch, out, observed):
    ran = []
    monkeypatch.setattr(kernels, "exec", lambda *args: ran.append(args), raising=False)
    op = (((0, 2, 1),), 0, 1, False)  # registers 0 and 1
    assert kernels.compile_int_affine((op,), 1, out, observed, ()) is None
    assert ran == []


@pytest.mark.parametrize(
    "folded",
    [(_SourceInt(2), 3), (2, _SourceInt(3)), (2.0, 3), (True, 3)],
    ids=["max-subclass", "total-subclass", "max-float", "max-bool"],
)
def test_compile_int_affine_rejects_folded_bits_it_cannot_count(monkeypatch, folded):
    ran = []
    monkeypatch.setattr(kernels, "exec", lambda *args: ran.append(args), raising=False)
    op = (((0, 2, 1),), 0, 1, False)  # registers 0 and 1
    assert kernels.compile_int_affine((op,), 1, (1,), ((0, 1),), (), folded) is None
    assert ran == []


@pytest.mark.parametrize(
    "binary",
    [(1,), (2,), (-1,), (_SourceInt(0),), (0, 1)],
    ids=["not-observed", "missing", "negative", "subclass", "one-not-observed"],
)
def test_compile_int_affine_rejects_binary_registers_it_cannot_count(monkeypatch, binary):
    ran = []
    monkeypatch.setattr(kernels, "exec", lambda *args: ran.append(args), raising=False)
    op = (((0, 2, 1),), 0, 1, False)  # registers 0 and 1; only 0 is observed
    assert kernels.compile_int_affine((op,), 1, (1,), ((0, 1),), binary) is None
    assert ran == []
