"""Symmetric rank-one step algebra and the networks built from it.

The only multiplicative primitive here is H(beta, k) = I - beta k k^T.
Products of these steps realize coordinate scaling (k one-hot), unit
transvections (three steps), scaled adds through a temp register (eight
steps), and finally an explicit program of 8n^2+5n+1 steps that applies an
arbitrary n x n matrix to a row vector using n scratch coordinates and one
temp coordinate, compiled to ops (``apply_matrix_ops``; its step values
are ``apply_matrix_program``). The scaled add of a zero entry compiles to
eight identity ops, which the step kernel skips, so a sparse matrix costs
only its nonzeros' adds. Streamed through the block-delay router of
``rwkv_gadgets`` (``BlockNet``), such programs drive the same
automaton-tracking network as the coordinate overwrites do
(``WfaNet``, ``wfa_forward``) and an iterated 3x3 product network
(``DnetImmNet``) that runs through the overwrites' forward
(``imm_forward``), with symmetric steps only. Two router primitives are
also constructed explicitly: a cyclic position counter driven by two
alternating steps, and an exact token buffer that overwrites one matrix
column per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .automata import Wfa
from .kernels import mat3_chain, nonzeros, radd, rmul, run_hsteps, sdot, vec_mat
from .linalg import RMatrix, RVector
from .rational import Rational
from .rwkv_gadgets import PAD, BlockMemo, BlockNet, WfaNet, imm_entries, imm_forward, wfa_forward

_ZERO = Rational(0)
_ONE = Rational(1)
_TWO = Rational(2)
_HALF = Rational(1, 2)
_THIRD = Rational(1, 3)

# The identity as a block-program op, (beta_num, beta_den, support); the
# kernel skips it with one test. Zero-factor scaled adds and the identity
# pads of DnetImmNet are this one op.
_IDENTITY_OP = (0, 1, ())
_IDENTITY_ADD = (_IDENTITY_OP,) * 8


@dataclass(frozen=True)
class HStep:
    """Multiplicative step I - beta k k^T; beta is unrestricted.

    ``support`` holds the nonzero entries of k as ``(index, num, den)``;
    the step actions read only those. It is derived from k at
    construction unless a builder that already knows it passes it in, and
    it takes no part in equality.
    """

    beta: Rational
    k: RVector
    support: tuple = field(default=None, compare=False, repr=False)

    # the family's kernel: a symmetric step's column action is its row action
    run_rows = run_cols = staticmethod(run_hsteps)

    def __post_init__(self):
        if self.support is None:
            object.__setattr__(self, "support", nonzeros(self.k.nums, self.k.dens))

    @property
    def dim(self) -> int:
        return len(self.k)

    @property
    def is_identity(self) -> bool:
        return self.beta == _ZERO or not self.support

    @property
    def op(self) -> tuple:
        """This step as a block-program op, ``(beta_num, beta_den,
        support)``."""
        return self.beta.num, self.beta.den, self.support

    @classmethod
    def from_op(cls, op, dim: int) -> "HStep":
        """The step of block-program op ``(beta_num, beta_den, support)``
        in dimension ``dim``."""
        bn, bd, support = op
        return cls(Rational._make(bn, bd), RVector.from_support(support, dim), support)


def out_of_range_betas(steps, low=_ZERO, high=_TWO) -> list:
    """Report (index, beta) for steps whose beta falls outside (low, high).

    Trained heads usually constrain beta to such an interval; the gadget
    programs here need values like 2, 1/2, and 1/3, so out-of-range betas
    are reported, never rejected.
    """
    return [
        (i, s.beta)
        for i, s in enumerate(steps)
        if not (low < s.beta < high)
    ]


def h_matrix(step: HStep) -> RMatrix:
    return RMatrix.identity(step.dim) - RMatrix.outer(step.k, step.k).scaled(step.beta)


def apply_h_row(r: RVector, step: HStep) -> RVector:
    """Row action r (I - beta k k^T) = r - beta (r . k) k^T, reading and
    writing only the support of k. ``ValueError`` if the lengths differ."""
    if len(r.nums) != len(step.k.nums):
        raise ValueError(f"vector length {len(r.nums)} != step dimension {step.dim}")
    beta = step.beta
    if beta.num == 0:
        return r
    support = step.support
    sn, sd = sdot(support, r.nums, r.dens)
    if sn == 0:
        return r
    fn, fd = rmul(beta.num, beta.den, sn, sd)
    nums = list(r.nums)
    dens = list(r.dens)
    for i, kn, kd in support:
        pn, pd = rmul(fn, fd, kn, kd)
        nums[i], dens[i] = radd(nums[i], dens[i], -pn, pd)
    return RVector._raw(nums, dens)


def apply_h_col(u: RVector, step: HStep) -> RVector:
    """Column action (I - beta k k^T) u; same formula by symmetry."""
    return apply_h_row(u, step)


def unit_transvection(src: int, dst: int, d: int) -> list:
    """Three steps whose product adds coordinate src into dst exactly."""
    if src == dst:
        raise ValueError("src and dst must differ")
    if not (0 <= src < d and 0 <= dst < d):
        raise ValueError("index out of range")
    u = RVector.zeros(d)
    u.nums[src] = 1
    u.nums[dst] = 1
    w = RVector.zeros(d)
    w.nums[src] = 1
    w.nums[dst] = 2
    return [
        HStep(_TWO, u),
        HStep(_HALF, RVector.basis(src, d)),
        HStep(_THIRD, w),
    ]


def coordinate_scale(j: int, s: Rational, d: int) -> HStep:
    """Scale coordinate j by s: H(1 - s, e_j)."""
    return HStep(_ONE - s, RVector.basis(j, d))


def scaled_add(src: int, dst: int, tmp: int, lam: Rational, d: int) -> list:
    """Eight steps realizing dst += lam * src, assuming the temp coordinate
    is zero on entry; it is returned to zero."""
    if len({src, dst, tmp}) != 3:
        raise ValueError("src, dst, tmp must be distinct")
    steps = []
    steps += unit_transvection(src, tmp, d)
    steps.append(coordinate_scale(tmp, lam, d))
    steps += unit_transvection(tmp, dst, d)
    steps.append(coordinate_scale(tmp, _ZERO, d))
    return steps


@dataclass(frozen=True)
class ApplyMatrixProgram:
    """Step program mapping [x | s | t] to [xP | xP | 0] in dim 2n+1.

    Four phases: clear scratch and temp (n+1 steps), accumulate xP into
    scratch by scaled adds (8n^2 steps), clear main (n), copy scratch back
    by transvections (3n). Total 8n^2 + 5n + 1. The scaled add of a zero
    P[i, j] is eight identity steps, so the phases keep their bounds.
    """

    n: int
    steps: tuple
    phase_bounds: tuple  # cumulative step counts after phases 1..4

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    def __len__(self):
        return len(self.steps)

    def phase_of(self, index: int) -> int:
        for phase, bound in enumerate(self.phase_bounds, start=1):
            if index < bound:
                return phase
        raise IndexError(index)


def apply_matrix_ops(p: RMatrix) -> tuple:
    """The program for P as block-program ops: the shared skeleton's ops
    for P's size with the n^2 ops coordinate_scale(tmp, P[i, j]), one per
    scaled add, filled in with beta = 1 - P[i, j]. The scaled add of a
    zero P[i, j] is eight identity ops instead: temp is zero on entry to
    every scaled add of a row the program can reach (phase 1 clears it,
    each scaled add returns it to zero), and there adding 0 * src is the
    identity, so the program's product on such rows is unchanged."""
    if p.rows != p.cols:
        raise ValueError("matrix must be square")
    n = p.rows
    skeleton, bounds = _program_skeleton(n)
    ops = list(skeleton)
    support = skeleton[n][2]  # coordinate_scale(tmp, 0): its k is e_tmp
    slot = bounds[0]
    for j in range(n):
        for i in range(n):
            pn, pd = p.nums[i * n + j], p.dens[i * n + j]
            if pn == 0:
                ops[slot : slot + 8] = _IDENTITY_ADD
            else:
                # step 3 of the scaled add scales tmp; gcd(pd - pn, pd) =
                # gcd(pn, pd) = 1, and pd - pn = 0 only at 1/1
                ops[slot + 3] = (pd - pn, pd, support)
            slot += 8
    return tuple(ops)


def apply_matrix_program(p: RMatrix) -> ApplyMatrixProgram:
    """The program for P as step values, built from its ops."""
    n, ops = p.rows, apply_matrix_ops(p)
    steps = tuple([HStep.from_op(op, 2 * n + 1) for op in ops])
    return ApplyMatrixProgram(n=n, steps=steps, phase_bounds=_program_skeleton(n)[1])


@lru_cache(maxsize=8)
def _program_skeleton(n: int) -> tuple:
    """(ops, phase bounds) of the size-n program with every scaled add
    written out with factor zero. Only the scaled adds depend on P
    (``apply_matrix_ops`` fills in their factor op, or makes them identity
    ops), so programs share all other ops; ops are immutable values."""
    d = 2 * n + 1
    tmp = 2 * n
    steps = []
    for j in range(n):
        steps.append(coordinate_scale(n + j, _ZERO, d))
    steps.append(coordinate_scale(tmp, _ZERO, d))
    b1 = len(steps)
    for j in range(n):
        for i in range(n):
            steps += scaled_add(i, n + j, tmp, _ZERO, d)
    b2 = len(steps)
    for i in range(n):
        steps.append(coordinate_scale(i, _ZERO, d))
    b3 = len(steps)
    for j in range(n):
        steps += unit_transvection(n + j, j, d)
    b4 = len(steps)
    expected = 8 * n * n + 5 * n + 1
    if b4 != expected:
        raise AssertionError(f"program length {b4} != {expected}")
    return tuple([s.op for s in steps]), (b1, b2, b3, b4)


# ---------------------------------------------------------------------------
# Router primitive 1: cyclic position counter from two alternating steps

# Exact parameters: the two-step composition has finite order m, so the
# state sequence is periodic with period 2m. Over the rationals such a
# composition exists only for m in {1, 2, 3, 4, 6} (its nontrivial action
# is at most two-dimensional, forcing a rational trace of a primitive m-th
# root pair); for other m the composition below has infinite order, the
# first 2m states are still pairwise distinct, and the decoder covers one
# period only.
_EXACT_COUNTER_PARAMS = {
    1: (2, (_TWO, (1, 0)), (_TWO, (1, 0))),
    2: (2, (_TWO, (1, 0)), (_TWO, (0, 1))),
    3: (3, (Rational(3), (1, 0, 0)), (_HALF, (1, 1, 1))),
    4: (2, (_TWO, (1, 0)), (_ONE, (1, 1))),
    6: (3, (_ONE, (1, 1, 0)), (_THIRD, (1, 2, 1))),
}

_GENERIC_COUNTER_PARAMS = (2, (_TWO, (Rational(3, 5), Rational(4, 5))), (_TWO, (1, 0)))


class ModCounter:
    """Position counter: one fixed step on odd positions, another on even
    positions, state decoded back to t mod 2m by exact-value lookup."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("m must be >= 1")
        self.m = m
        self.period = 2 * m
        params = _EXACT_COUNTER_PARAMS.get(m, _GENERIC_COUNTER_PARAMS)
        d, (b1, k1), (b2, k2) = params
        self.dim = d
        self.odd_step = HStep(b1, RVector(list(k1)))
        self.even_step = HStep(b2, RVector(list(k2)))
        self.exact_period = m in _EXACT_COUNTER_PARAMS
        self._init_table()

    def _init_table(self):
        for cand in ((1, 2), (1, 3), (2, 5), (3, 7)):
            init = RVector(list(cand) + [5] * (self.dim - 2))
            states = self._roll(init, self.period)
            keys = [self._key(s) for s in states]
            if len(set(keys)) == self.period:
                if self.exact_period:
                    nxt = apply_h_row(states[-1], self.step_at(self.period))
                    if self._key(nxt) != keys[0]:
                        continue
                self.init = init
                self.table = {k: t for t, k in enumerate(keys)}
                return
        raise AssertionError(f"no initial state yields {self.period} distinct values")

    @staticmethod
    def _key(state: RVector):
        return tuple(zip(state.nums, state.dens))

    def step_at(self, t: int) -> HStep:
        return self.odd_step if t % 2 == 1 else self.even_step

    def _roll(self, state: RVector, count: int) -> list:
        out = [state]
        for t in range(1, count):
            out.append(apply_h_row(out[-1], self.step_at(t)))
        return out

    def run(self, n_steps: int) -> list:
        """States after 0..n_steps steps."""
        return self._roll(self.init, n_steps + 1)

    def decode(self, state: RVector) -> int:
        """Map a state back to t mod 2m."""
        try:
            return self.table[self._key(state)]
        except KeyError:
            raise ValueError("state outside the decoded period") from None


# ---------------------------------------------------------------------------
# Router primitive 2: exact token buffer by column overwrite


class TokenBuffer:
    """Matrix-state buffer: writing with beta = 1 and a one-hot slot key
    replaces exactly one column with the one-hot token vector; fixed
    queries read the slots back. Slots are used cyclically, so after at
    least L writes the reads recover the last L tokens exactly."""

    def __init__(self, sigma_count: int, slots: int):
        if sigma_count < 1 or slots < 1:
            raise ValueError("need at least one symbol and one slot")
        self.sigma_count = sigma_count
        self.slots = slots
        self.dim = sigma_count + 1 + slots  # token one-hots + blank + selectors
        self.state = RMatrix.zeros(self.dim, self.dim)
        self.writes = 0

    def slot_key(self, slot: int) -> RVector:
        return RVector.basis(self.sigma_count + 1 + slot, self.dim)

    def write(self, token_index: int):
        """One update step: S <- S (I - e e^T) + v e^T for the cyclic slot."""
        if not (0 <= token_index < self.sigma_count):
            raise ValueError("token index out of range")
        slot = self.writes % self.slots
        col = self.sigma_count + 1 + slot
        d = self.dim
        for i in range(d):
            k = i * d + col
            self.state.nums[k] = 1 if i == token_index else 0
            self.state.dens[k] = 1
        self.writes += 1

    def read_slot(self, slot: int) -> RVector:
        """Fixed-query read of one slot's stored one-hot token."""
        return self.state.apply_col(self.slot_key(slot))

    def last_tokens(self, count: int) -> list:
        """Most recent ``count`` token indices, newest first."""
        if count > min(self.writes, self.slots):
            raise ValueError("not enough writes buffered")
        out = []
        for back in range(count):
            slot = (self.writes - 1 - back) % self.slots
            column = self.read_slot(slot)
            hits = [i for i in range(self.sigma_count) if column[i] != _ZERO]
            if len(hits) != 1:
                raise AssertionError("slot does not hold a one-hot token")
            out.append(hits[0])
        return out


# ---------------------------------------------------------------------------
# Weighted-automaton tracking network


def build_dnet_wfa(wfa: Wfa) -> WfaNet:
    """Automaton-tracking net over symmetric steps: dimension 2n+1 (main,
    scratch, temp), blocks of the program length 8n^2+5n+1."""
    n = wfa.n_states
    m = 8 * n * n + 5 * n + 1
    return WfaNet(wfa, apply_matrix_ops, HStep, n + 1, m)


def dnet_wfa_forward(net: WfaNet, word) -> list:
    """Scalar outputs at every position 1..|word|."""
    return wfa_forward(net, word)


# ---------------------------------------------------------------------------
# Iterated 3x3 product network

SUPERBLOCK_MATRICES = 78
SUPERBLOCK_TOKENS = 9 * SUPERBLOCK_MATRICES  # 702
_ARITH_STEPS = 8 * 81 + 5 * 9 + 1  # 694, program length for n = 9
IDENTITY_PAD_STEPS = SUPERBLOCK_TOKENS - _ARITH_STEPS  # 8


class DnetImmNet(BlockNet):
    """Iterated 3x3 products with symmetric steps.

    The 9-dimensional vectorized product state lives in an arithmetic
    dimension of 19 (main 9, scratch 9, temp 1). Matrices are grouped into
    superblocks of 78 (702 tokens); each full superblock's block-diagonal
    product is factored into 694 steps padded with 8 identity steps, and
    superblocks stream with a one-superblock delay. The router key is
    (t mod 1404, last 1404 tokens); the forward pass compiles each
    superblock's program to ops once, at the next superblock's boundary;
    every pad position, the PAD superblock and the scaled add of every
    zero entry of the product share one identity op. An op's step vector
    has at most two nonzeros, so it touches at most 2 of the 19
    coordinates. The embedding has 54 structural zeros, so a superblock
    runs at most 262 of its 702 ops, and 46 when its product is zero.
    A superblock's product is one ``kernels.mat3_chain`` call on the raw
    entries of its tokens, embedded once. The final, possibly partial,
    superblock is applied only in the readout at the last position.
    """

    step = HStep
    dim = 19

    def __init__(self):
        super().__init__(SUPERBLOCK_TOKENS)
        vec_i3 = RVector([1, 0, 0, 0, 1, 0, 0, 0, 1])
        self.initial_row = vec_i3.concat(RVector.zeros(10))
        self._pad_program = (_IDENTITY_OP,) * SUPERBLOCK_TOKENS
        self._programs = BlockMemo(self._compile_superblock)

    @staticmethod
    def _embed3(a: RMatrix) -> RMatrix:
        out = RMatrix.zeros(9, 9)
        for b in range(3):
            for i in range(3):
                for j in range(3):
                    k = (3 * b + i) * 9 + (3 * b + j)
                    src = i * 3 + j
                    out.nums[k] = a.nums[src]
                    out.dens[k] = a.dens[src]
        return out

    def superblock_product(self, block_tokens) -> RMatrix:
        """Block-diagonal embedding of the product of the 3x3 matrices of
        ``block_tokens`` (nine row-major tokens each, oldest first; a PAD
        matrix is the identity). Since embed3(A) @ embed3(B) ==
        embed3(A @ B), it multiplies the raw 3x3 entries in one
        ``mat3_chain`` call and embeds once."""
        nums, dens = mat3_chain(*imm_entries(block_tokens))
        return self._embed3(RMatrix._raw(3, 3, nums, dens))

    def _compile_superblock(self, block_tokens) -> tuple:
        if block_tokens == (PAD,) * len(block_tokens):
            return self._pad_program
        prod = self.superblock_product(block_tokens)
        return apply_matrix_ops(prod) + self._pad_program[:IDENTITY_PAD_STEPS]

    def block_program(self, prev_block, index) -> tuple:
        """The padded 702-op program of the full superblock ``prev_block``."""
        return self._programs(tuple(prev_block))

    def final_readouts(self, prev_block, block, index, nums, dens) -> list:
        """Nine row-major product entries read from the row ``nums``/``dens``
        after the final superblock ``block`` (oldest token first, possibly
        partial; its ``index`` is not needed). The completion of entry j is
        T (Pi e_j), with T the remaining steps of ``prev_block``'s program
        and Pi the final block's product; since row . T u = (row T) . u,
        the row is finished in place through T once and then multiplied by
        Pi."""
        tau = len(block)
        if tau % 9 != 0:
            raise ValueError("final readout only at a matrix boundary")
        ops = self.block_program(prev_block, None)
        run_hsteps(ops, tau, len(ops), nums, dens)
        pi_final = self.superblock_product(block)
        outn, outd = vec_mat(nums[:9], dens[:9], pi_final.nums, pi_final.dens, 9, 9)
        return [Rational._make(n, d) for n, d in zip(outn, outd)]


def build_dnet_imm() -> DnetImmNet:
    return DnetImmNet()


def dnet_imm_forward(net: DnetImmNet, stream) -> list:
    """Nine row-major entries of the product of the streamed matrices."""
    return imm_forward(net, stream)
