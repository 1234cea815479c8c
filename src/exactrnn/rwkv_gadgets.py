"""Coordinate-overwrite gadget programs and the networks built from them.

The primitive is a matrix U(dst; c) that replaces one coordinate of a row
vector with the dot product of the whole row against a coefficient vector
c (with c[dst] = 0). A single diag-minus-rank-one head transition realizes
any such overwrite, so a router that streams one overwrite per token lets a
purely multiplicative head apply arbitrary matrix products: a block of m
input symbols is factored offline into per-token overwrites applied with a
one-block delay, and a per-position completion vector finishes the pending
block at readout time.

Two networks are provided: one that tracks any weighted finite automaton's
prefix values, and one that accumulates a product of streamed 3x3 matrices
in an 18-coordinate state by ping-ponging between two halves.

The router is specified as a finite-window function (``window_key`` and
``RouterTable``); the forward passes compute the same entries block by
block with ``stream_entries``, so their work per token does not grow with
the window and their memory does not grow with the stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .automata import Wfa
from .kernels import rmul, vdot
from .linalg import RMatrix, RVector
from .lrnn import RwkvStep
from .rational import Rational

PAD = None  # pre-sequence padding pseudo-symbol

_ZERO = Rational(0)
_ONE = Rational(1)


@dataclass(frozen=True)
class OverwriteSpec:
    """Overwrite coordinate ``dst`` with <row, c>; requires c[dst] = 0."""

    dst: int
    c: RVector

    def __post_init__(self):
        if not (0 <= self.dst < len(self.c)):
            raise ValueError("dst out of range")
        if self.c.nums[self.dst] != 0:
            raise ValueError("coefficient at dst must be zero")

    @property
    def dim(self) -> int:
        return len(self.c)


def overwrite_matrix(spec: OverwriteSpec) -> RMatrix:
    """Identity with column dst replaced by c."""
    d = spec.dim
    m = RMatrix.identity(d)
    for i in range(d):
        k = i * d + spec.dst
        m.nums[k] = spec.c.nums[i]
        m.dens[k] = spec.c.dens[i]
    return m


def apply_overwrite_row(r: RVector, spec: OverwriteSpec) -> RVector:
    """Row action of U(dst; c) in O(d)."""
    nums = list(r.nums)
    dens = list(r.dens)
    n, d = vdot(r.nums, r.dens, spec.c.nums, spec.c.dens)
    nums[spec.dst] = n
    dens[spec.dst] = d
    return RVector._raw(nums, dens)


def apply_overwrite_col(u: RVector, spec: OverwriteSpec) -> RVector:
    """Column action of U(dst; c) in O(d): u + u[dst] * (c - e_dst)."""
    un, ud = u.nums[spec.dst], u.dens[spec.dst]
    nums = list(u.nums)
    dens = list(u.dens)
    if un == 0:
        return RVector._raw(nums, dens)
    for i in range(spec.dim):
        cn = spec.c.nums[i]
        if cn != 0:
            pn, pd = rmul(un, ud, cn, spec.c.dens[i])
            q = Rational._make(nums[i], dens[i]) + Rational._make(pn, pd)
            nums[i], dens[i] = q.num, q.den
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


def factor_apply_matrix(p: RMatrix) -> list:
    """Factor the map [x | s] -> [xP | xP] into 2n overwrites (dim 2n).

    The first n overwrites write the columns of xP into the scratch half,
    reading only the main half; the last n copy scratch back over main.
    """
    if p.rows != p.cols:
        raise ValueError("matrix must be square")
    n = p.rows
    specs = []
    for j in range(n):
        c = RVector.zeros(2 * n)
        for i in range(n):
            k = i * n + j
            c.nums[i] = p.nums[k]
            c.dens[i] = p.dens[k]
        specs.append(OverwriteSpec(dst=n + j, c=c))
    for j in range(n):
        specs.append(OverwriteSpec(dst=j, c=RVector.basis(n + j, 2 * n)))
    return specs


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
    (position residue, recent-token window) and are materialized on demand.
    """

    def __init__(self, window: int, entry_fn):
        self.window = window
        self._entry_fn = entry_fn
        self._cache = {}

    def query(self, key):
        entry = self._cache.get(key)
        if entry is None:
            entry = self._entry_fn(key)
            self._cache[key] = entry
        return entry

    def query_at(self, t: int, tokens):
        return self.query(window_key(t, tokens, self.window))


@dataclass(frozen=True)
class RwkvRouterEntry:
    factor: OverwriteSpec
    completion: RVector | None

    @property
    def params(self) -> RwkvStep:
        """Head parameters realizing ``factor``, built on demand."""
        return rwkv_params_for_overwrite(self.factor)


class BlockMemo:
    """Compiled steps of the most recently requested block only.

    Every position of a block (and the final readout) asks for the same
    block, so one remembered compile serves them all, and memory stays
    bounded in stream length. Blocks are compared by tuple equality, which
    for the same token objects costs no hashing.
    """

    def __init__(self, compile_fn):
        self._compile = compile_fn
        self._block = None
        self._steps = None

    def __len__(self):
        return 0 if self._steps is None else 1

    def __call__(self, block: tuple):
        if self._steps is None or block != self._block:
            self._steps = self._compile(block)
            self._block = block
        return self._steps


def stream_entries(net, tokens):
    """Yield the router entry ``(factor, completion)`` at positions
    1..len(tokens), equal to ``net.router.query_at(t, tokens)`` but built
    block by block, with no window key and no router cache.

    At each block boundary the steps of the previous block (the PAD block
    before the first) are fetched once with ``net.block_steps(prev, index)``;
    position tau of the block then takes step tau, and the completion comes
    from ``net.block_completions(block, steps)`` on the current block's
    tokens. Only the current block's steps are held.
    """
    m = net.block_len
    prev = (PAD,) * m
    for index, start in enumerate(range(0, len(tokens), m)):
        block = tuple(tokens[start : start + m])
        steps = net.block_steps(prev, index)
        yield from zip(steps[: len(block)], net.block_completions(block, steps))
        prev = block


def no_completions(block, steps):
    """Completions of a net that reads out only at the final position."""
    return repeat(None, len(block))


def wfa_completions(wfa: Wfa, block, steps, apply_col, scratch: int):
    """Completion vector at each position tau of the current ``block``: the
    block's product so far applied to omega, padded with ``scratch`` zeros,
    then the previous block's remaining steps tau+1..m as column actions
    (last first). The product is kept incrementally, one matrix product
    per token. Unknown symbols, PAD included, raise ``ValueError``."""
    prefix = RMatrix.identity(wfa.n_states)
    zeros = RVector.zeros(scratch)
    for tau, sym in enumerate(block, start=1):
        prefix = prefix @ wfa.matrix(sym)
        u = prefix.apply_col(wfa.omega).concat(zeros)
        for i in range(len(steps) - 1, tau - 1, -1):
            u = apply_col(u, steps[i])
        yield u


def wfa_forward(net, word, apply_row) -> list:
    """Scalar outputs at every position of a streamed automaton-tracking net."""
    row = net.initial_row
    out = []
    for factor, completion in stream_entries(net, list(word)):
        row = apply_row(row, factor)
        out.append(row.dot(completion))
    return out


def imm_tokens(stream) -> list:
    """The tokens of a matrix stream, checked: ``ValueError`` on a token
    that is not an int or a Rational, or on a length that is not a positive
    multiple of 9."""
    tokens = stream if isinstance(stream, (list, tuple)) else list(stream)
    for tok in tokens:
        if not isinstance(tok, (int, Rational)):
            raise ValueError(f"matrix token must be an int or a Rational, not {tok!r}")
    if not tokens or len(tokens) % 9 != 0:
        raise ValueError("stream length must be a positive multiple of 9")
    return tokens


def imm_forward(net, stream, apply_row) -> list:
    """Nine row-major product entries from a streamed 3x3-product net: the
    streamed steps, then the completion readouts at the final position."""
    tokens = imm_tokens(stream)
    row = net.initial_row
    for factor, _ in stream_entries(net, tokens):
        row = apply_row(row, factor)
    key = window_key(len(tokens), tokens, net.router.window)
    return [row.dot(u) for u in net.final_readouts(key)]


# ---------------------------------------------------------------------------
# Weighted-automaton tracking network


class RwkvWfaNet:
    """Tracks alpha . M[w_1..w_t] . omega at every position.

    Arithmetic dimension 2n (main half plus scratch). Blocks of m = 2n
    symbols are factored into 2n overwrites and streamed with a one-block
    delay. The router, specified by the key (t mod 2m, last 2m tokens),
    gives position tau of a block the previous block's overwrite tau and a
    completion vector that finishes the pending block at readout; the
    forward pass streams the same entries block by block. The state row
    starts as [alpha | alpha], written by a single additive update on the
    first token (the first padding-block factor fixes the same value, so
    applying it there is a no-op).
    """

    def __init__(self, wfa: Wfa):
        self.wfa = wfa
        self.n = wfa.n_states
        self.m = 2 * self.n
        self.block_len = self.m
        self.dim = 2 * self.n
        self.initial_row = wfa.alpha.concat(wfa.alpha)
        self._factors = BlockMemo(self._factor_block)
        self.router = RouterTable(2 * self.m, self._entry)

    def _factor_block(self, block) -> list:
        prod = RMatrix.identity(self.n)
        for sym in block:
            if sym is not PAD:
                prod = prod @ self.wfa.matrix(sym)
        return factor_apply_matrix(prod)

    def block_factors(self, block) -> list:
        return self._factors(tuple(block))

    def block_steps(self, prev_block, index) -> list:
        return self.block_factors(prev_block)

    def block_completions(self, block, steps):
        return wfa_completions(self.wfa, block, steps, apply_overwrite_col, self.n)

    def _entry(self, key) -> RwkvRouterEntry:
        residue, recent = key
        m = self.m
        tau = ((residue - 1) % m) + 1
        # previous completed block, oldest symbol first
        block = tuple(recent[back] for back in range(tau + m - 1, tau - 1, -1))
        factors = self.block_factors(block)
        spec = factors[tau - 1]
        # completion: remaining block factors applied to the in-progress
        # block product acting on the final weights
        v = self.wfa.omega
        for back in range(tau):
            sym = recent[back]
            if sym is not PAD:
                v = self.wfa.matrix(sym).apply_col(v)
        u = v.concat(RVector.zeros(self.n))
        for i in range(len(factors) - 1, tau - 1, -1):
            u = apply_overwrite_col(u, factors[i])
        return RwkvRouterEntry(factor=spec, completion=u)


def build_rwkv_wfa(wfa: Wfa) -> RwkvWfaNet:
    return RwkvWfaNet(wfa)


def rwkv_wfa_forward(net: RwkvWfaNet, word) -> list:
    """Scalar outputs at every position 1..|word|."""
    return wfa_forward(net, word, apply_overwrite_row)


# ---------------------------------------------------------------------------
# Iterated 3x3 product network


class RwkvImmNet:
    """Accumulates the running product of streamed 3x3 matrices.

    State is 18 coordinates: two 9-coordinate halves holding row-major
    vectorizations. During block L (nine tokens) the nine overwrites
    compute (active half) . B(A^(L-1)) into the inactive half, where B is
    the block-diagonal embedding of the previous block's matrix and padding
    acts as the identity matrix. The halves alternate with block parity.
    The router key is (t mod 18, last 18 tokens); the forward pass builds
    each block's nine overwrites once at the block boundary. Outputs exist
    only at the final position, where nine completion readouts fold in the
    final block's matrix.
    """

    WINDOW = 18
    block_len = 9

    def __init__(self):
        vec_i3 = RVector([1, 0, 0, 0, 1, 0, 0, 0, 1])
        self.initial_row = vec_i3.concat(RVector.zeros(9))
        self.router = RouterTable(self.WINDOW, self._entry)

    @staticmethod
    def _matrix_from(tokens_oldest_first) -> list:
        vals = [
            _ONE if tok is PAD and (k % 4 == 0) else
            _ZERO if tok is PAD else
            (tok if isinstance(tok, Rational) else Rational(tok))
            for k, tok in enumerate(tokens_oldest_first)
        ]
        return [vals[0:3], vals[3:6], vals[6:9]]

    def block_program(self, prev_block, parity: int) -> list:
        """The nine overwrites of a block: step 3i+j writes entry (i, j) of
        (active half) . A_prev into the inactive half."""
        a_prev = self._matrix_from(prev_block)
        specs = []
        for i in range(3):
            for j in range(3):
                c = RVector.zeros(18)
                for k in range(3):
                    val = a_prev[k][j]
                    c.nums[9 * parity + 3 * i + k] = val.num
                    c.dens[9 * parity + 3 * i + k] = val.den
                specs.append(OverwriteSpec(dst=9 * (1 - parity) + 3 * i + j, c=c))
        return specs

    def block_steps(self, prev_block, index) -> list:
        return self.block_program(prev_block, index % 2)

    block_completions = staticmethod(no_completions)

    def _entry(self, key) -> RwkvRouterEntry:
        residue, recent = key
        tau = ((residue - 1) % 9) + 1
        parity = 0 if residue <= 9 else 1
        prev_block = [recent[back] for back in range(tau + 8, tau - 1, -1)]
        spec = self.block_program(prev_block, parity)[tau - 1]
        return RwkvRouterEntry(factor=spec, completion=None)

    def final_readouts(self, key) -> list:
        """Nine completion vectors at the last position, row-major."""
        residue, recent = key
        if ((residue - 1) % 9) + 1 != 9:
            raise ValueError("final readout only at a block boundary")
        parity = 0 if residue <= 9 else 1
        dest_half = 1 - parity
        a_last = self._matrix_from([recent[back] for back in range(8, -1, -1)])
        outs = []
        for i in range(3):
            for j in range(3):
                u = RVector.zeros(18)
                for k in range(3):
                    val = a_last[k][j]
                    u.nums[9 * dest_half + 3 * i + k] = val.num
                    u.dens[9 * dest_half + 3 * i + k] = val.den
                outs.append(u)
        return outs


def build_rwkv_imm() -> RwkvImmNet:
    return RwkvImmNet()


def rwkv_imm_forward(net: RwkvImmNet, stream) -> list:
    """Nine row-major entries of the product of the streamed matrices."""
    return imm_forward(net, stream, apply_overwrite_row)
