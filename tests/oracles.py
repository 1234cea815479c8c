"""Independent reference implementations used only by the tests.

Everything here is built on ``fractions.Fraction`` and plain loops so the
oracles share no code path with the package's rational kernels.
"""

from fractions import Fraction
from itertools import product

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
