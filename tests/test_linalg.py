import random
from itertools import product

import pytest

from exactrnn.linalg import (
    RMatrix,
    RVector,
    RelaxedPermutation,
    perm_apply_diag,
    perm_compose,
    row_apply,
)
from exactrnn.rational import Rational

from oracles import frac_matmul, frac_vec_mat, mat_to_frac, perm_from_matrix, to_frac, vec_to_frac


def rand_matrix(rng, rows, cols):
    return RMatrix(
        [[Rational(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(cols)]
         for _ in range(rows)]
    )


def test_identity_product():
    rng = random.Random(1)
    a = rand_matrix(rng, 3, 3)
    assert RMatrix.identity(3) @ a == a
    assert a @ RMatrix.identity(3) == a


def test_diagonal_row_action():
    v = RVector([1, 2, 3])
    d = RMatrix.diag([2, 0, 1])
    assert row_apply(v, d) == RVector([2, 0, 3])


def test_matmul_matches_triple_loop():
    rng = random.Random(2)
    for _ in range(25):
        a = rand_matrix(rng, 3, 3)
        b = rand_matrix(rng, 3, 3)
        got = mat_to_frac(a @ b)
        want = frac_matmul(mat_to_frac(a), mat_to_frac(b))
        assert got == want


def test_row_apply_matches_oracle_and_composes():
    rng = random.Random(3)
    for _ in range(25):
        r = RVector([Rational(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(3)])
        a = rand_matrix(rng, 3, 3)
        b = rand_matrix(rng, 3, 3)
        assert vec_to_frac(row_apply(r, a)) == frac_vec_mat(vec_to_frac(r), mat_to_frac(a))
        assert row_apply(r, a @ b) == row_apply(row_apply(r, a), b)


def test_row_apply_identity():
    r = RVector([5, -3, 2])
    assert row_apply(r, RMatrix.identity(3)) == r


def test_dim_mismatch_errors():
    with pytest.raises(ValueError):
        RMatrix.identity(2) @ RMatrix.identity(3)
    with pytest.raises(ValueError):
        row_apply(RVector([1, 2]), RMatrix.identity(3))


def test_dot_matches_oracle():
    rng = random.Random(4)
    for _ in range(50):
        u = RVector([Rational(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)])
        v = RVector([Rational(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)])
        want = sum((x * y for x, y in zip(vec_to_frac(u), vec_to_frac(v))))
        assert to_frac(u.dot(v)) == want


# --- relaxed permutations -------------------------------------------------


def test_perm_identity_compose():
    p = RelaxedPermutation((1, 0, 2))
    ident = RelaxedPermutation.identity(3)
    assert perm_compose(ident, p) == p
    assert perm_compose(p, ident) == p


def test_perm_collapsing_diag():
    collapse = RelaxedPermutation((0, 0))
    d = RVector([Rational(3), Rational(7)])
    assert perm_apply_diag(collapse, d) == RVector([3, 3])


def test_perm_chain_matches_matrix_product():
    rng = random.Random(5)
    d = 4
    for _ in range(20):
        perms = [
            RelaxedPermutation(tuple(rng.randrange(d) for _ in range(d)))
            for _ in range(5)
        ]
        composed = perms[0]
        dense = perms[0].to_matrix()
        for p in perms[1:]:
            composed = perm_compose(composed, p)
            dense = dense @ p.to_matrix()
        assert composed.to_matrix() == dense


def test_perm_compose_exhaustive_small_dims():
    for d in (1, 2, 3, 4):
        maps = [RelaxedPermutation(t) for t in product(range(d), repeat=d)]
        mats = {p.target: p.to_matrix() for p in maps}
        for p in maps:
            for q in maps:
                assert perm_compose(p, q).to_matrix() == mats[p.target] @ mats[q.target]


def test_perm_compose_associative():
    rng = random.Random(6)
    d = 5
    for _ in range(100):
        p, q, r = (
            RelaxedPermutation(tuple(rng.randrange(d) for _ in range(d)))
            for _ in range(3)
        )
        assert perm_compose(perm_compose(p, q), r) == perm_compose(p, perm_compose(q, r))


def test_perm_swap_identity():
    # diag(d) @ P == P @ diag(perm_apply_diag(p, d))
    rng = random.Random(7)
    d = 4
    for _ in range(30):
        p = RelaxedPermutation(tuple(rng.randrange(d) for _ in range(d)))
        diag = RVector([Rational(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(d)])
        lhs = RMatrix.diag(list(diag)) @ p.to_matrix()
        rhs = p.to_matrix() @ RMatrix.diag(list(perm_apply_diag(p, diag)))
        assert lhs == rhs


def test_perm_range_checked():
    with pytest.raises(ValueError):
        RelaxedPermutation((0, 3))


def test_perm_matrix_round_trip():
    p = RelaxedPermutation((2, 0, 0))
    assert perm_from_matrix(p.to_matrix()) == p
