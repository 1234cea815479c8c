"""Independent reference implementations used only by the tests.

The oracles are built on ``fractions.Fraction`` and plain loops so that
they share no code path with the package's rational kernels. The helpers
at the end (a gadget net's steps lowered through the head transitions, a
permutation read back from its matrix, sublayer plumbing, threshold
recognition and a sign analysis of ReLU nets) are test-only code on the
package's own types.
"""

from fractions import Fraction
from itertools import product
from typing import NamedTuple

from exactrnn.problems import (
    ImmModInstance, ImmZInstance, SortedDetConnInstance, _check_imm_mod, _check_p,
    _size_bounds, conn_oracle, imm_z_oracle, mat3_det_mod,
)
from exactrnn.delta_gadgets import HStep
from exactrnn.linalg import RMatrix, RelaxedPermutation, RVector
from exactrnn.lrnn import DeltaNetStep, LinStep, deltanet_transition, rwkv_transition
from exactrnn.rational import Rational
from exactrnn.rwkv_gadgets import PAD, rwkv_params_for_overwrite, stream_entries


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


def imm_matrices(tokens_oldest_first) -> list:
    """3x3 matrices of nine row-major tokens each; a PAD token stands for
    its entry of the identity matrix, so a PAD matrix is the identity."""
    matrices = []
    for base in range(0, len(tokens_oldest_first), 9):
        chunk = tokens_oldest_first[base : base + 9]
        entries = [int(k % 4 == 0) if tok is PAD else tok for k, tok in enumerate(chunk)]
        matrices.append(RMatrix([entries[0:3], entries[3:6], entries[6:9]]))
    return matrices


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


def gen_conn_two_scans(n_range, p: float, label: bool, rng) -> SortedDetConnInstance:
    """Reference for ``problems.gen_conn``: the buckets drawn in the same
    order, then one scan per bucket for its members, consecutive members
    zipped into edges, and the edges of both buckets sorted."""
    _check_p(p)
    lo, hi = _size_bounds(n_range)
    v = rng.randint(lo, hi) + 1  # vertices 1..v; query is 1 -> v
    bucket = [False] * (v + 1)
    bucket[1] = True
    bucket[v] = label
    for node in range(2, v):
        bucket[node] = rng.random() < p
    edges = []
    for flag in (True, False):
        members = [node for node in range(1, v + 1) if bucket[node] == flag]
        edges += [(a, b) for a, b in zip(members, members[1:])]
    inst = SortedDetConnInstance(n=v, s=1, t=v, edges=tuple(sorted(edges)))
    if conn_oracle(inst) != label:
        raise AssertionError("generator produced an instance with the wrong label")
    return inst


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


def gen_imm_z_choices(T_range, rng, clip=None, want_label=None, max_tries=10000):
    """Reference for ``problems.gen_imm_z``: per try, T and then one
    ``rng.choices`` call for all 9T entries, weights 45/10/45, until the
    label is ``want_label`` (any label when it is None)."""
    lo, hi = _size_bounds(T_range)
    for _ in range(max_tries):
        T = rng.randint(lo, hi)
        flat = rng.choices((-1, 0, 1), weights=(45, 10, 45), k=9 * T)
        mats = tuple(tuple(flat[i:i + 9]) for i in range(0, 9 * T, 9))
        inst = ImmZInstance(T=T, matrices=mats, clip=clip)
        if want_label is None or imm_z_oracle(inst) == want_label:
            return inst
    raise ValueError("no instance")


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


def lowered(factor) -> LinStep:
    """The recurrence step whose column action is the step value
    ``factor``'s row action: the row-action matrix of its head
    (``rwkv_transition`` of an overwrite's RWKV parameters,
    ``deltanet_transition`` of a symmetric step's DeltaNet head with v =
    0), transposed, with B = 0."""
    if isinstance(factor, HStep):
        head = DeltaNetStep(beta=factor.beta, k=factor.k, v=RVector.zeros(factor.dim))
        row_matrix = deltanet_transition(head).A
    else:
        row_matrix = rwkv_transition(rwkv_params_for_overwrite(factor)).A
    return LinStep(row_matrix.transpose(), RMatrix.zeros(row_matrix.rows))


def lowered_stream(net, tokens) -> list:
    """The per-token steps of a gadget net on ``tokens``, lowered from the
    router spec's step values (``stream_entries``) by ``lowered``."""
    return [lowered(factor) for factor, _ in stream_entries(net, tokens)]


def perm_from_matrix(m: RMatrix) -> RelaxedPermutation:
    """The relaxed permutation of a column-one-hot 0-1 matrix."""
    if m.rows != m.cols:
        raise ValueError("not square")
    target = []
    for j in range(m.cols):
        hits = [i for i in range(m.rows) if m[i, j] != Rational(0)]
        if len(hits) != 1 or m[hits[0], j] != Rational(1):
            raise ValueError("not a column-one-hot 0-1 matrix")
        target.append(hits[0])
    return RelaxedPermutation(tuple(target))


# Sublayer plumbing around a recurrence's outputs, and threshold recognition


def recognize(readout: RVector, y: RVector) -> bool:
    """A linear readout's strict positivity test; ties reject."""
    return readout.dot(y) > Rational(0)


def relu_vec(v: RVector) -> RVector:
    return RVector([max(x, Rational(0)) for x in v])


def multihead_sublayer(xs, head_outputs, out_proj: RMatrix) -> list:
    """Residual mix x_t + O . concat(per-head outputs at t)."""
    out = []
    for t, x in enumerate(xs):
        joined = head_outputs[0][t]
        for h in head_outputs[1:]:
            joined = joined.concat(h[t])
        out.append(x + out_proj.apply_col(joined))
    return out


def ffn_sublayer(xs, w_out: RMatrix, w_in: RMatrix) -> list:
    """Residual two-layer ReLU block x + W relu(U x), with no normalization
    so that rational exactness is preserved."""
    return [x + w_out.apply_col(relu_vec(w_in.apply_col(x))) for x in xs]


# A sign analysis of ReLU nets: the register program that ``relu_nets``
# compiled for an input-sign assumption, and the greatest fixpoint of the
# state coordinates it proves non-negative. Reference for
# ``MlpRnn.state_nonneg``, whose interval boxes refine the sign domain.


class SignProgram(NamedTuple):
    """A ``ReluMlp`` compiled for one input-sign assumption.

    ``ops`` are ``kernels.sparse_affine`` ops, one per row that does real
    work; the input fills registers ``0 .. in_dim - 1`` and op ``t`` writes
    register ``in_dim + t``. ``out`` names the register of each output
    coordinate, ``observed`` pairs every register that stands for some
    layer output with the number of layer outputs it stands for, and
    ``out_proven`` holds the output coordinates proven non-negative.
    """

    in_dim: int
    ops: tuple
    out: tuple
    observed: tuple
    out_proven: frozenset


def sign_compile(layers, nonneg) -> SignProgram:
    """Lower ``layers`` to a straight-line register program, assuming the
    input coordinates in ``nonneg`` are non-negative. A copy row (one
    weight 1, bias 0) reuses its source's register when its layer has no
    ReLU or its source is known to be non-negative. A register is known
    non-negative when it is in ``nonneg``, holds a ReLU output, or holds a
    no-ReLU row with a non-negative bias and positive weights on
    non-negative registers."""
    in_dim = layers[0].weights.cols
    where = list(range(in_dim))
    signs = [i in nonneg for i in range(in_dim)]
    counts = [0] * in_dim
    ops = []
    for layer in layers:
        w, bias, relu = layer.weights, layer.bias, layer.relu
        rows = []
        for i in range(w.rows):
            base = i * w.cols
            terms = [
                (where[j], w.nums[base + j], w.dens[base + j])
                for j in range(w.cols)
                if w.nums[base + j] != 0
            ]
            bn, bd = bias.nums[i], bias.dens[i]
            if (
                len(terms) == 1
                and terms[0][1:] == (1, 1)
                and bn == 0
                and (not relu or signs[terms[0][0]])
            ):
                reg = terms[0][0]
            else:
                reg = len(signs)
                ops.append((tuple(terms), bn, bd, relu))
                signs.append(
                    relu or (bn >= 0 and all(a > 0 and signs[c] for c, a, _ in terms))
                )
                counts.append(0)
            counts[reg] += 1
            rows.append(reg)
        where = rows
    return SignProgram(
        in_dim=in_dim,
        ops=tuple(ops),
        out=tuple(where),
        observed=tuple((r, k) for r, k in enumerate(counts) if k),
        out_proven=frozenset(i for i, r in enumerate(where) if signs[r]),
    )


def sign_state_nonneg(rnn) -> frozenset:
    """The greatest set S of state coordinates of the ``MlpRnn`` ``rnn``
    that are non-negative in ``h0`` and that ``sign_compile`` proves
    non-negative at the update's output when S and the token one-hot are
    non-negative at its input."""
    tokens = frozenset(range(rnn.state_dim, rnn.update.in_dim))
    s = frozenset(i for i in range(rnn.state_dim) if rnn.h0.nums[i] >= 0)
    while True:
        kept = s & sign_compile(rnn.update.layers, s | tokens).out_proven
        if kept == s:
            return s
        s = kept
