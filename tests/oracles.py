"""Independent reference implementations used only by the tests.

Everything here is built on ``fractions.Fraction`` and plain loops so the
oracles share no code path with the package's rational kernels.
"""

from fractions import Fraction
from itertools import product

from exactrnn.problems import ImmModInstance, _check_imm_mod, _size_bounds, mat3_det_mod
from exactrnn.rational import Rational


def to_frac(q: Rational) -> Fraction:
    return Fraction(q.num, q.den)


def mat_to_frac(m) -> list:
    return [[to_frac(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]


def vec_to_frac(v) -> list:
    return [to_frac(x) for x in v]


def frac_matmul(a, b) -> list:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = Fraction(0)
            for k in range(inner):
                acc += a[i][k] * b[k][j]
            out[i][j] = acc
    return out


def frac_vec_mat(x, m) -> list:
    cols = len(m[0])
    return [sum((x[i] * m[i][j] for i in range(len(x))), Fraction(0)) for j in range(cols)]


def support_of(vec) -> tuple:
    """Nonzero entries of a vector as (index, num, den), read entry by entry."""
    return tuple((i, x.num, x.den) for i, x in enumerate(vec) if x != 0)


def frac_dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def wfa_path_sum(wfa, word) -> Fraction:
    """Score of a word as an explicit sum over all state paths."""
    n = wfa.n_states
    alpha = vec_to_frac(wfa.alpha)
    omega = vec_to_frac(wfa.omega)
    mats = {s: mat_to_frac(wfa.matrices[s]) for s in wfa.alphabet}
    total = Fraction(0)
    for path in product(range(n), repeat=len(word) + 1):
        weight = alpha[path[0]]
        for step, sym in enumerate(word):
            weight *= mats[sym][path[step]][path[step + 1]]
        total += weight * omega[path[-1]]
    return total


def imm_running_products(matrices, mod=None, clip=None) -> list:
    """Every running product of a list of row-major 3x3 matrices, as full
    3x3 nested lists, each reduced ``% mod`` or clamped to [-clip, clip]
    entry by entry after each multiplication."""
    p = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    out = []
    for mat in matrices:
        nxt = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                acc = 0
                for k in range(3):
                    acc += p[i][k] * mat[3 * k + j]
                if mod is not None:
                    acc %= mod
                elif clip is not None:
                    acc = max(-clip, min(clip, acc))
                nxt[i][j] = acc
        p = nxt
        out.append(p)
    return out


def gen_imm_mod_per_entry(T_range, m: int, q_k: int, rng) -> ImmModInstance:
    """Reference for ``problems.gen_imm_mod``: one ``rng.choice`` per entry
    in row-major order, rejection-sampled until invertible mod m."""
    _check_imm_mod(m, q_k)
    lo, hi = _size_bounds(T_range)
    T = rng.randint(lo, hi)
    choice = rng.choice
    e = (-1, 0, 1)
    mats = []
    while len(mats) < T:
        cand = (
            choice(e), choice(e), choice(e),
            choice(e), choice(e), choice(e),
            choice(e), choice(e), choice(e),
        )
        if mat3_det_mod(cand, m) != 0:
            mats.append(cand)
    return ImmModInstance(T=T, m=m, q_k=q_k, matrices=tuple(mats))


def matrix_program_steps(p) -> list:
    """Every step ``(beta, k)`` of the matrix-application program for the
    n x n Fraction matrix ``p`` (nested lists), in dimension 2n+1, written
    out from its four phases with nothing shared between programs: clear
    scratch and temp; for each column j and row i, add P[i, j] times main
    coordinate i into scratch coordinate j through the temp (eight steps,
    all of them the identity step (0, zero k) when P[i, j] is zero); clear
    main; copy scratch back over main."""
    n = len(p)
    d = 2 * n + 1
    tmp = 2 * n

    def vec(entries):
        k = [Fraction(0)] * d
        for i, x in entries.items():
            k[i] = Fraction(x)
        return k

    def scale(j, s):
        return (1 - Fraction(s), vec({j: 1}))

    def transvection(src, dst):
        return [
            (Fraction(2), vec({src: 1, dst: 1})),
            (Fraction(1, 2), vec({src: 1})),
            (Fraction(1, 3), vec({src: 1, dst: 2})),
        ]

    steps = [scale(n + j, 0) for j in range(n)] + [scale(tmp, 0)]
    for j in range(n):
        for i in range(n):
            if p[i][j] == 0:
                steps += [(Fraction(0), vec({}))] * 8
                continue
            steps += transvection(i, tmp)
            steps.append(scale(tmp, p[i][j]))
            steps += transvection(tmp, n + j)
            steps.append(scale(tmp, 0))
    steps += [scale(i, 0) for i in range(n)]
    for j in range(n):
        steps += transvection(n + j, j)
    return steps
