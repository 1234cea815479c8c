"""The rational kernels: canonical outputs, the ReLU clamp, the 3x3
chain against a fold of the generic matrix product (and how much of a
mixed-den chain that fold runs), a fraction-free chain against the same
fold, and the column kernels against the spec-level column actions of the
gadget steps."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from exactrnn import kernels
from exactrnn.delta_gadgets import HStep, apply_h_col, h_matrix
from exactrnn.linalg import RVector
from exactrnn.rational import Rational
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
