"""Coordinate-overwrite gadget programs and the networks built from them.

The primitive is a matrix U(dst; c) that replaces one coordinate of a row
vector with the dot product of the whole row against a coefficient vector
c (with c[dst] = 0). A single diag-minus-rank-one head transition realizes
any such overwrite, so a router that streams one overwrite per token lets a
purely multiplicative head apply arbitrary matrix products: a block of m
input symbols is factored offline into per-token overwrites applied with a
one-block delay, and a per-position completion vector finishes the pending
block at readout time.

The block-streaming recipe is written once here for both step families
(these overwrites and the symmetric steps of ``delta_gadgets``). Each net
compiles a block into a block program: a tuple of raw op tuples, ``(dst,
support)`` for an overwrite and ``(beta_num, beta_den, support)`` for a
symmetric step, where ``support`` lists the step vector's nonzeros as
``(index, num, den)``. Each step class names its family's kernels
(``run_rows``, ``run_cols``), which run a range of ops in place on a row
or column held as two int lists. The forward passes run each program
through them, so their work per token does not grow with the window and
their memory does not grow with the stream; ``BlockNet.block_transition``
runs the basis rows through an op range, one token's op or a whole
block. The 3x3-product forwards check a stream's tokens once
(``imm_tokens``); the rwkv-imm forward then walks the stream in place,
nine tokens at a time, and compiles each block with the helper that its
``block_program`` calls, fed the stream's own tokens when all are ints.
The program is the only form a net compiles, holds or runs.
The steps as values (``OverwriteSpec``, ``HStep``) are its spec-level
view, built only by ``BlockNet.block_steps``: a ``BlockNet`` specifies
its router with them as a finite-window function (``window_key`` and
``RouterTable``), and ``stream_entries`` yields the same entries block by
block. The four step actions (``apply_overwrite_row``/``_col`` here,
``apply_h_row``/``_col`` in ``delta_gadgets``) read and write only the
support, reject a vector of the wrong length with ``ValueError``, and are
the references the kernels are tested against. ``WfaNet`` tracks any
weighted finite automaton's prefix values with either family;
``RwkvImmNet`` accumulates a product of streamed 3x3 matrices in an
18-coordinate state by ping-ponging between two halves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat

from .automata import Wfa
from .kernels import (
    common_den, int_mat_mul, nonzeros, radd, rmul, rnorm, run_overwrite_cols, run_overwrites, sdot,
    vdot, vec_mat
)
from .linalg import RMatrix, RVector
from .lrnn import RwkvStep
from .rational import Rational

PAD = None  # pre-sequence padding pseudo-symbol

_ONE = Rational(1)
_INT_ONLY = {int}
_UNIT_DENS = (1,) * 9


@dataclass(frozen=True)
class OverwriteSpec:
    """Overwrite coordinate ``dst`` with <row, c>; requires c[dst] = 0.

    ``support`` holds the nonzero entries of c as ``(index, num, den)``;
    the step actions read only those. It is derived from c at
    construction unless a builder that already knows it passes it in, and
    it takes no part in equality.
    """

    dst: int
    c: RVector
    support: tuple = field(default=None, compare=False, repr=False)

    # the family's kernels: row and column actions of a range of ops
    run_rows = staticmethod(run_overwrites)
    run_cols = staticmethod(run_overwrite_cols)

    def __post_init__(self):
        if not (0 <= self.dst < len(self.c.nums)):
            raise ValueError("dst out of range")
        if self.c.nums[self.dst] != 0:
            raise ValueError("coefficient at dst must be zero")
        if self.support is None:
            object.__setattr__(self, "support", nonzeros(self.c.nums, self.c.dens))

    @property
    def dim(self) -> int:
        return len(self.c)

    @property
    def op(self) -> tuple:
        """This step as a block-program op, ``(dst, support)``."""
        return self.dst, self.support

    @classmethod
    def from_op(cls, op, dim: int) -> "OverwriteSpec":
        """The step of block-program op ``(dst, support)`` in dimension
        ``dim``."""
        dst, support = op
        return cls(dst, RVector.from_support(support, dim), support)


def overwrite_matrix(spec: OverwriteSpec) -> RMatrix:
    """Identity with column dst replaced by c."""
    d = spec.dim
    m = RMatrix.identity(d)
    for i in range(d):
        k = i * d + spec.dst
        m.nums[k] = spec.c.nums[i]
        m.dens[k] = spec.c.dens[i]
    return m


def _check_dim(r: RVector, spec: OverwriteSpec):
    if len(r.nums) != len(spec.c.nums):
        raise ValueError(f"vector length {len(r.nums)} != step dimension {spec.dim}")


def apply_overwrite_row(r: RVector, spec: OverwriteSpec) -> RVector:
    """Row action of U(dst; c), reading only the support of c.
    ``ValueError`` if the lengths differ."""
    _check_dim(r, spec)
    nums = list(r.nums)
    dens = list(r.dens)
    nums[spec.dst], dens[spec.dst] = sdot(spec.support, r.nums, r.dens)
    return RVector._raw(nums, dens)


def apply_overwrite_col(u: RVector, spec: OverwriteSpec) -> RVector:
    """Column action of U(dst; c): u + u[dst] * (c - e_dst), writing only
    the support of c and dst. ``ValueError`` if the lengths differ."""
    _check_dim(u, spec)
    un, ud = u.nums[spec.dst], u.dens[spec.dst]
    nums = list(u.nums)
    dens = list(u.dens)
    if un == 0:
        return RVector._raw(nums, dens)
    for i, cn, cd in spec.support:
        pn, pd = rmul(un, ud, cn, cd)
        nums[i], dens[i] = radd(nums[i], dens[i], pn, pd)
    nums[spec.dst] = 0
    dens[spec.dst] = 1
    return RVector._raw(nums, dens)


def rwkv_params_for_overwrite(spec: OverwriteSpec) -> RwkvStep:
    """Head parameters whose transition matrix equals the overwrite:
    w all-ones, a = e_dst, kappa = e_dst - c, removal strength 1."""
    d = spec.dim
    e_dst = RVector.basis(spec.dst, d)
    return RwkvStep(
        w=RVector.ones(d),
        a=e_dst,
        kappa=e_dst - spec.c,
        lam=_ONE,
        v=RVector.zeros(d),
        k_tilde=RVector.zeros(d),
    )


def factor_apply_ops(p: RMatrix) -> tuple:
    """The ops of 2n overwrites (dim 2n) factoring [x | s] -> [xP | xP].

    The first n ops write the columns of xP into the scratch half, reading
    only the main half; the last n copy scratch back over main.
    """
    if p.rows != p.cols:
        raise ValueError("matrix must be square")
    n = p.rows
    ops = []
    for j in range(n):
        column = [(i, p.nums[i * n + j], p.dens[i * n + j]) for i in range(n)]
        ops.append((n + j, tuple([entry for entry in column if entry[1] != 0])))
    for j in range(n):
        ops.append((j, ((n + j, 1, 1),)))
    return tuple(ops)


def factor_apply_matrix(p: RMatrix) -> list:
    """The 2n overwrites of ``factor_apply_ops(p)`` as step values."""
    return [OverwriteSpec.from_op(op, 2 * p.rows) for op in factor_apply_ops(p)]


# ---------------------------------------------------------------------------
# Finite-window router


def window_key(t: int, tokens, window: int):
    """Router key at position t (1-based): residue of t in 1..window plus
    the last ``window`` tokens newest-first, padded with PAD before the
    sequence start."""
    residue = ((t - 1) % window) + 1
    recent = tuple(
        tokens[t - 1 - back] if t - 1 - back >= 0 else PAD for back in range(window)
    )
    return residue, recent


class RouterTable:
    """Explicit finite lookup: entries are a pure function of the key
    (position residue, recent-token window), built on every query."""

    def __init__(self, window: int, entry_fn):
        self.window = window
        self._entry_fn = entry_fn

    def query(self, key):
        return self._entry_fn(key)

    def query_at(self, t: int, tokens):
        return self.query(window_key(t, tokens, self.window))


@dataclass(frozen=True)
class RouterEntry:
    """The step a position applies (an ``OverwriteSpec`` or a symmetric
    ``HStep``) and its completion vector, if the net reads out there."""

    factor: object
    completion: RVector | None


class BlockMemo:
    """The compiled program of the most recently requested block only.

    Every position of a block (and the final readout) asks for the same
    block, so one remembered compile serves them all, and memory stays
    bounded in stream length. Blocks are compared by tuple equality, which
    for the same token objects costs no hashing.
    """

    def __init__(self, compile_fn):
        self._compile = compile_fn
        self._block = None
        self._program = None

    def __len__(self):
        return 0 if self._program is None else 1

    def __call__(self, block: tuple):
        if self._program is None or block != self._block:
            self._program = self._compile(block)
            self._block = block
        return self._program


class BlockNet:
    """A net that streams each block's steps with a one-block delay.

    Position tau of a block (blocks of ``block_len`` tokens) applies op
    tau of ``block_program(prev, index)``, the program compiled from the
    previous block (the PAD block before the first); ``index`` is the
    current block's 0-based index, which the router spec knows only mod 2.
    ``block_steps`` is the only place a program becomes step values (of
    the net's class ``step``, in dimension ``dim``). The router spec is
    written here once with those values, keyed by (t mod 2 block_len,
    last 2 block_len tokens). Nets that read out at every position give
    completions twice, computed independently: ``block_completions`` for
    the stream and ``spec_completion`` for the router spec.
    """

    def __init__(self, block_len: int):
        self.block_len = block_len
        self.router = RouterTable(2 * block_len, self._entry)

    def block_steps(self, prev_block, index, start=0, stop=None) -> list:
        """Ops ``start:stop`` of ``block_program(prev_block, index)`` as
        step values."""
        step, dim = self.step, self.dim
        return [step.from_op(op, dim) for op in self.block_program(prev_block, index)[start:stop]]

    def block_transition(self, prev_block, index, start=0, stop=None) -> RMatrix:
        """The d x d row-action matrix of ops ``start:stop`` of
        ``block_program(prev_block, index)``: row i is e_i run through
        those ops by the step class's row kernel, so d kernel calls and no
        new arithmetic. A one-op range is the step of one token."""
        ops, d, run = self.block_program(prev_block, index), self.dim, self.step.run_rows
        nums, dens = [], []
        for i in range(d):
            row, row_dens = [0] * d, [1] * d
            row[i] = 1
            run(ops, start, stop, row, row_dens)
            nums += row
            dens += row_dens
        return RMatrix._raw(d, d, nums, dens)

    def block_completions(self, block, program):
        """Completions at the positions of the current ``block`` as (nums,
        dens) lists; none for a net that reads out only at the end."""
        return repeat(None, len(block))

    def spec_completion(self, recent, tau, program):
        return None

    def _entry(self, key) -> RouterEntry:
        residue, recent = key
        m = self.block_len
        tau = ((residue - 1) % m) + 1
        index = (residue - 1) // m
        # previous completed block, oldest symbol first
        prev_block = tuple(recent[back] for back in range(tau + m - 1, tau - 1, -1))
        (step,) = self.block_steps(prev_block, index, tau - 1, tau)
        program = self.block_program(prev_block, index)
        return RouterEntry(step, self.spec_completion(recent, tau, program))


def stream_blocks(tokens, block_len: int):
    """``(index, previous block, block)`` for each block of ``block_len``
    tokens, oldest first; the PAD block precedes the first, and the last
    block may be short."""
    prev = (PAD,) * block_len
    for index, start in enumerate(range(0, len(tokens), block_len)):
        block = tuple(tokens[start : start + block_len])
        yield index, prev, block
        prev = block


def stream_entries(net, tokens):
    """Yield the router entry ``(factor, completion)`` at positions
    1..len(tokens), equal to ``net.router.query_at(t, tokens)`` but built
    block by block, with no window key, from ``net.block_steps`` and
    ``net.block_completions``; only the current block's steps are held."""
    for index, prev, block in stream_blocks(tokens, net.block_len):
        steps = net.block_steps(prev, index, 0, len(block))
        completions = net.block_completions(block, net.block_program(prev, index))
        for step, u in zip(steps, completions):
            yield step, None if u is None else RVector._raw(*u)


def wfa_forward(net, word) -> list:
    """Scalar outputs at every position of a streamed automaton-tracking
    net: the row runs one op per token in place through its step class's
    row kernel and is read out against that position's completion."""
    run = net.step.run_rows
    nums, dens = list(net.initial_row.nums), list(net.initial_row.dens)
    out = []
    for index, prev, block in stream_blocks(list(word), net.block_len):
        program = net.block_program(prev, index)
        for tau, (un, ud) in enumerate(net.block_completions(block, program)):
            run(program, tau, tau + 1, nums, dens)
            out.append(Rational._make(*vdot(nums, dens, un, ud)))
    return out


def imm_tokens(stream) -> tuple:
    """The tokens of a matrix stream, checked, and whether every token is
    of type int: ``ValueError`` on a token that is not an int or a
    Rational, or on a length that is not a positive multiple of 9. The
    check tests each distinct token type once; only a stream holding a
    type that fails it is walked token by token, to name the first bad
    token."""
    tokens = stream if isinstance(stream, (list, tuple)) else list(stream)
    types = set(map(type, tokens))
    if not all(issubclass(cls, (int, Rational)) for cls in types):
        for tok in tokens:
            if not isinstance(tok, (int, Rational)):
                raise ValueError(f"matrix token must be an int or a Rational, not {tok!r}")
    if not tokens or len(tokens) % 9 != 0:
        raise ValueError("stream length must be a positive multiple of 9")
    return tokens, types == _INT_ONLY


def imm_entries(tokens_oldest_first) -> tuple:
    """Parallel num and den lists of matrix tokens; a PAD token stands for
    its entry of the identity matrix. Tokens that are all of type int are
    copied as they are, with no per-token dispatch."""
    if set(map(type, tokens_oldest_first)) == _INT_ONLY:
        return list(tokens_oldest_first), [1] * len(tokens_oldest_first)
    nums = []
    dens = []
    for k, tok in enumerate(tokens_oldest_first):
        if type(tok) is int:
            nums.append(tok)
            dens.append(1)
        elif tok is PAD:
            nums.append(1 if k % 9 % 4 == 0 else 0)
            dens.append(1)
        elif isinstance(tok, Rational):
            nums.append(tok.num)
            dens.append(tok.den)
        else:
            nums.append(int(tok))
            dens.append(1)
    return nums, dens


# ---------------------------------------------------------------------------
# Weighted-automaton tracking network


class WfaNet(BlockNet):
    """Tracks alpha . M[w_1..w_t] . omega at every position, over either
    step family.

    The row [main | scratch] starts as [alpha | 0]; the PAD block's program
    writes the scratch half before reading it. ``compile_ops`` compiles
    block L-1's product P into the ops of per-token steps (of class
    ``step``) mapping [x | s] to [xP | xP] (a temp coordinate, if any, ends
    at zero), streamed through block L. The completion at position tau is
    T_tau [v | 0]: v is the current block's product so far applied to
    omega, and T_tau = steps[tau] ... steps[m-1] is block L-1's remaining
    steps as column actions, run in place by the step class's column
    kernel (``step.run_cols``). Since [v | 0] is zero past coordinate n,
    only the first n columns of T_tau matter. Each block takes the cheaper
    of two ways to finish its L tokens: build those columns once,
    backwards, in n (m-1) column steps, or replay the m - tau remaining
    steps at every position, in L m - L (L+1)/2 column steps (m (m-1)/2 on
    a full block). The block's product is kept fraction-free, as integer
    rows over one common denominator (see ``block_completions``), from each
    symbol's matrix and omega, which the net puts over one denominator
    once, when it is built.

    ``build_rwkv_wfa``: coordinate overwrites (``factor_apply_ops``;
    ``OverwriteSpec`` runs columns with ``kernels.run_overwrite_cols``), 2n
    steps, scratch width n; m = 2n, so a full block costs n (m-1) either
    way, and it replays. ``build_dnet_wfa``: symmetric steps
    (``apply_matrix_ops``; ``HStep`` runs rows and columns with
    ``kernels.run_hsteps``, as their column action is their row action),
    8n^2+5n+1 steps, scratch width n+1 (scratch half and temp); it builds
    suffix columns on every block but a short final one.
    """

    def __init__(self, wfa: Wfa, compile_ops, step, scratch: int, block_len: int):
        super().__init__(block_len)
        self.wfa = wfa
        self.n = wfa.n_states
        self.m = block_len
        self.dim = self.n + scratch
        self.step = step
        self.initial_row = wfa.alpha.concat(RVector.zeros(scratch))
        self._compile_ops = compile_ops
        self._programs = BlockMemo(self._compile_block)
        # (block, product) of the last block streamed to its end
        self._product = None
        # each symbol's matrix as (int rows, int columns, den), and omega
        # as a one-column int matrix and its den: the completions' product
        # runs on these
        n = self.n
        self._int_matrices = {}
        for sym, a in wfa.matrices.items():
            ints, den = common_den(a.nums, a.dens)
            rows = [ints[i * n : i * n + n] for i in range(n)]
            self._int_matrices[sym] = rows, [ints[j::n] for j in range(n)], den
        ints, den = common_den(wfa.omega.nums, wfa.omega.dens)
        self._int_omega = [ints], den

    def _compile_block(self, block) -> tuple:
        """The program for ``block``'s product."""
        held, self._product = self._product, None
        if held is not None and held[0] == block:
            prod = held[1]
        else:
            prod = RMatrix.identity(self.n)
            for sym in block:
                if sym is not PAD:
                    prod = prod @ self.wfa.matrix(sym)
        return self._compile_ops(prod)

    def block_program(self, prev_block, index) -> tuple:
        return self._programs(tuple(prev_block))

    def block_completions(self, block, program):
        """The block's product so far is kept fraction-free: integer rows
        over one common denominator D, advanced by one integer product per
        token (D times the token's matrix den), with no gcd inside the
        block. Then v = P omega, as ints over D times omega's den, is
        finished by T_tau: from suffix columns (``vec_mat`` normalizes
        each entry of the completion) or by replaying the remaining column
        steps on v's n canonical entries, whichever costs the block's L
        tokens fewer column steps (see the class docstring). A full
        block's product is normalized once, to the canonical ``RMatrix``
        held for the next block's compile; it is recorded before the last
        yield, since a consumer need not resume the generator after it.
        Unknown symbols, PAD included, raise ``ValueError``."""
        m, n, dim, length = len(program), self.n, self.dim, len(block)
        replay_cost = length * m - length * (length + 1) // 2
        suffix = self._suffix_columns(program) if n * (m - 1) < replay_cost else None
        reverse = program[::-1]  # a column takes the remaining steps newest first
        run_cols = self.step.run_cols
        omega, omega_den = self._int_omega
        for tau, sym in enumerate(block, start=1):
            self.wfa.matrix(sym)  # ValueError on an unknown symbol
            arows, acols, aden = self._int_matrices[sym]
            if tau == 1:
                prows, den = arows, aden
            else:
                prows, den = int_mat_mul(prows, acols), den * aden
            if tau == m:
                held = [rnorm(x, den) for row in prows for x in row]
                held_nums, held_dens = [x for x, _ in held], [d for _, d in held]
                self._product = (block, RMatrix._raw(n, n, held_nums, held_dens))
            vn = [x for (x,) in int_mat_mul(prows, omega)]
            vden = den * omega_den
            if suffix is not None:
                yield vec_mat(vn, [vden] * n, *suffix[tau], n, dim)
            else:
                un, ud = [0] * dim, [1] * dim
                for i, x in enumerate(vn):
                    un[i], ud[i] = rnorm(x, vden)
                run_cols(reverse, 0, m - tau, un, ud)
                yield un, ud

    def _suffix_columns(self, program) -> list:
        """At index tau = 1..m, the n x dim matrix (flat nums, dens) whose
        row j is T_tau e_j, built backwards from T_m = I: n (m-1) column
        steps per block (Yang et al. 2024, the delta rule's backward suffix
        products)."""
        m, n, dim, run_cols = len(program), self.n, self.dim, self.step.run_cols
        nums = [[int(i == j) for i in range(dim)] for j in range(n)]
        dens = [[1] * dim for _ in range(n)]
        suffix = [None] * (m + 1)
        for tau in range(m, 0, -1):
            if tau < m:
                for j in range(n):
                    run_cols(program, tau, tau + 1, nums[j], dens[j])
            suffix[tau] = [x for col in nums for x in col], [x for col in dens for x in col]
        return suffix

    def spec_completion(self, recent, tau, program):
        """The same completion from the window: tau matrix-vector products
        on omega, newest symbol first, then the remaining column steps."""
        v = self.wfa.omega
        for back in range(tau):
            sym = recent[back]
            if sym is not PAD:
                v = self.wfa.matrix(sym).apply_col(v)
        u = v.concat(RVector.zeros(self.dim - self.n))
        self.step.run_cols(program[::-1], 0, len(program) - tau, u.nums, u.dens)
        return u


def build_rwkv_wfa(wfa: Wfa) -> WfaNet:
    n = wfa.n_states
    return WfaNet(wfa, factor_apply_ops, OverwriteSpec, n, 2 * n)


def rwkv_wfa_forward(net: WfaNet, word) -> list:
    """Scalar outputs at every position 1..|word|."""
    return wfa_forward(net, word)


# ---------------------------------------------------------------------------
# Iterated 3x3 product network


COLUMN_TABLE_SIZE = 1024


@lru_cache(maxsize=COLUMN_TABLE_SIZE)
def _column_ops(src, j, n0, d0, n1, d1, n2, d2) -> tuple:
    """The three finished overwrite ops of ``RwkvImmNet`` that read column
    j = (n0/d0, n1/d1, n2/d2) of the previous matrix, with the active half
    at ``src``: op i writes entry (i, j) of the product into the other
    half, and its support is that column's nonzeros at row i of the active
    half. With {-1, 0, 1} entries there are 2 * 3 * 27 = 162 keys; the
    fixed bound keeps the table's memory bounded on streams of distinct
    large entries."""
    column = [(k, n, d) for k, n, d in ((0, n0, d0), (1, n1, d1), (2, n2, d2)) if n != 0]
    dst = 9 - src + j
    return tuple(
        (dst + 3 * i, tuple([(src + 3 * i + k, n, d) for k, n, d in column])) for i in (0, 1, 2)
    )


def _block_ops(src, an, ad) -> tuple:
    """The nine overwrite ops that multiply the active half at ``src`` by
    the 3x3 matrix of row-major entries ``an[k] / ad[k]``, k < 9: op 3i+j
    writes entry (i, j) of the product into the other half, and its
    coefficient vector is column j of the matrix placed at row i of the
    active half, so its support holds at most three entries. Three
    ``_column_ops`` lookups, one per column."""
    c0 = _column_ops(src, 0, an[0], ad[0], an[3], ad[3], an[6], ad[6])
    c1 = _column_ops(src, 1, an[1], ad[1], an[4], ad[4], an[7], ad[7])
    c2 = _column_ops(src, 2, an[2], ad[2], an[5], ad[5], an[8], ad[8])
    return c0[0], c1[0], c2[0], c0[1], c1[1], c2[1], c0[2], c1[2], c2[2]


class RwkvImmNet(BlockNet):
    """Accumulates the running product of streamed 3x3 matrices.

    State is 18 coordinates: two 9-coordinate halves holding row-major
    vectorizations. During block L (nine tokens) the nine overwrites
    compute (active half) . B(A^(L-1)) into the inactive half, where B is
    the block-diagonal embedding of the previous block's matrix and padding
    acts as the identity matrix. The halves alternate with block parity.
    The router key is (t mod 18, last 18 tokens). A block's nine overwrite
    ops are compiled by ``_block_ops`` from the previous block's entries:
    three lookups, one per column of the previous matrix, in a
    module-level table (``_column_ops``, an LRU cache of
    ``COLUMN_TABLE_SIZE`` = 1024 columns) that returns that column's three
    finished ops. {-1, 0, 1} entries make only 162 distinct columns.
    ``block_program`` (the router spec and the final readouts) and
    ``rwkv_imm_forward`` share that one compile; the forward feeds it the
    stream's own tokens at each block boundary when every token is an
    int, and ``imm_entries`` of the block otherwise. Outputs exist only at
    the final position, where nine completion readouts fold in the final
    block's matrix.
    """

    step = OverwriteSpec
    dim = 18

    def __init__(self):
        super().__init__(9)
        vec_i3 = RVector([1, 0, 0, 0, 1, 0, 0, 0, 1])
        self.initial_row = vec_i3.concat(RVector.zeros(9))

    def block_program(self, prev_block, index) -> tuple:
        """The nine overwrite ops of block ``index``, which multiply the
        half at 9 (index mod 2) by the matrix of ``prev_block``."""
        return _block_ops(9 * (index % 2), *imm_entries(prev_block))

    def final_readouts(self, block, index, nums, dens) -> list:
        """Nine row-major product entries read from the row ``nums``/``dens``
        after the final block ``block`` (block ``index``): its dot products
        with the coefficient vectors of the overwrites that the next block
        would stream, which fold the final block's matrix in."""
        if len(block) != 9:
            raise ValueError("final readout only at a block boundary")
        return [
            Rational._make(*sdot(support, nums, dens))
            for _, support in self.block_program(block, index + 1)
        ]


def build_rwkv_imm() -> RwkvImmNet:
    return RwkvImmNet()


def rwkv_imm_forward(net: RwkvImmNet, stream) -> list:
    """Nine row-major entries of the product of the streamed matrices.

    The stream is checked once (``imm_tokens``) and walked in place, nine
    tokens at a time. Each block's nine ops run on the row with one
    ``run_overwrites`` call; they are ``block_program``'s, compiled by
    ``_block_ops`` from the previous block's tokens, which are already its
    entries when every token of the stream is an int. The final block is
    read out by ``net.final_readouts``."""
    tokens, all_int = imm_tokens(stream)
    nums, dens = list(net.initial_row.nums), list(net.initial_row.dens)
    ops = net.block_program((PAD,) * 9, 0)
    src = 9
    for start in range(9, len(tokens), 9):
        run_overwrites(ops, 0, 9, nums, dens)
        prev = tokens[start - 9 : start]
        ops = _block_ops(src, prev, _UNIT_DENS) if all_int else _block_ops(src, *imm_entries(prev))
        src = 9 - src
    run_overwrites(ops, 0, 9, nums, dens)
    last = len(tokens) - 9
    return net.final_readouts(tokens[last:], last // 9, nums, dens)
