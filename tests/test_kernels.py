"""The rational kernels: canonical outputs and the ReLU clamp."""

import random

from exactrnn import kernels


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
