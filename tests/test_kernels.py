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
