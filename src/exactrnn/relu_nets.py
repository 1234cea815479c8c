"""Exact ReLU-network simulation of counter machines and stack machines.

The building blocks are classic piecewise-linear gadgets, used only on
inputs where their outputs are exactly 0 or 1: an equality-to-zero test and
a threshold with tolerance 1/3 (valid on integers), finite lookup tables
realized as AND units over one-hot encodings, and bounded-range selectors.
Both machine compilers build their finite control, AND units keyed by
(state, symbol, register flags), through one ``_Control``, and the counter
zero flags through the same ``_eq_zero_flags`` rows as ``gadget_eq_zero``.

Counter values are carried as a difference of two nonnegative coordinates,
which makes increments and decrements a single ReLU re-split and avoids
any unbounded conditional reset in the step function (a fixed
piecewise-linear map cannot gate an unbounded value, so machines that
reset counters of unbounded magnitude are only supported under an explicit
magnitude bound).

Stack values are carried twice: the canonical halving encoding (value in
[0, 2], empty = 1) that defines the machine's trace, and a quartering
mirror whose achievable values keep a fixed gap around every decision
threshold (top bit and emptiness), so the branch logic is exact at any
depth. All stack quantities are bounded by constants, so branch selection
uses constant-bound gating.

About half the rows of these nets only carry a value forward, so a
``ReluMlp`` runs as a straight-line program over one flat register file in
which such a copy row reuses its source's register whenever that leaves
every value unchanged: its layer has no ReLU, or a sign analysis proves the
source non-negative, so the counter and stack update nets compute 53 of
107 and 69 of 142 rows per token. ``MlpRnn.state_nonneg`` extends the
analysis across time steps as a greatest fixpoint. A program whose
weights and biases are all integers (the counter-machine update) runs as
generated straight-line code on integer inputs. Outputs and the ``PrecisionReport`` equal those of
layer-by-layer evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from . import kernels
from .automata import CounterMachine, StackMachine, _all_masks
from .linalg import RMatrix, RVector
from .rational import PrecisionReport, Rational, as_rational

_ZERO = Rational(0)
_ONE = Rational(1)


# ---------------------------------------------------------------------------
# Networks


@dataclass(frozen=True)
class Layer:
    weights: RMatrix
    bias: RVector
    relu: bool


class _Program(NamedTuple):
    """A ``ReluMlp`` compiled for one input-sign assumption.

    ``ops`` are ``kernels.sparse_affine`` ops, one per row that does real
    work; the input fills registers ``0 .. in_dim - 1`` and op ``t`` writes
    register ``in_dim + t``. ``out`` names the register of each output
    coordinate, ``observed`` pairs every register that stands for some
    layer output with the number of layer outputs it stands for, and
    ``out_nonneg`` holds the output coordinates proven non-negative.
    ``int_run`` is ``kernels.compile_int_affine`` of the ops, set by
    ``ReluMlp.program`` only (``None`` from ``_compile``).
    """

    in_dim: int
    ops: tuple
    out: tuple
    observed: tuple
    out_nonneg: frozenset
    int_run: object = None


def _compile(layers, nonneg) -> _Program:
    """Lower ``layers`` to a straight-line register program, assuming the
    input coordinates in ``nonneg`` are non-negative (see ``ReluMlp``)."""
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
    return _Program(
        in_dim=in_dim,
        ops=tuple(ops),
        out=tuple(where),
        observed=tuple((r, k) for r, k in enumerate(counts) if k),
        out_nonneg=frozenset(i for i, r in enumerate(where) if signs[r]),
    )


_NO_SIGNS = frozenset()


class ReluMlp:
    """Feedforward stack of affine layers with ReLU on marked layers.

    Evaluation runs a straight-line program over one flat register file,
    compiled once per set of input coordinates the caller guarantees to be
    non-negative (``nonneg``, a frozenset; empty unless given). The input
    fills the first registers. A copy row (one weight 1, bias 0) reuses its
    source's register when its layer has no ReLU or its source is known to
    be non-negative, since ReLU is then the identity; every other row
    appends one register computed by ``kernels.sparse_affine``, or, when
    every weight, bias and input is an integer, by the program's generated
    straight-line code (``kernels.compile_int_affine``, built once per
    ``nonneg``), which computes the same ints. A register is known
    non-negative when it is in ``nonneg``, holds a ReLU output, or holds a
    no-ReLU row with a non-negative bias and positive weights on
    non-negative registers. ``MlpRnn.update_nonneg`` gives the assumption
    that holds at every step of a recurrence.

    Outputs equal those of layer-by-layer evaluation, and the observed
    registers, each counted once per layer output it stands for, are that
    evaluation's layer outputs.
    """

    def __init__(self, layers):
        self.layers = list(layers)
        self._programs = {}

    @property
    def in_dim(self) -> int:
        return self.layers[0].weights.cols

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weights.rows

    def program(self, nonneg=_NO_SIGNS) -> _Program:
        """The compiled program for inputs non-negative on ``nonneg``."""
        prog = self._programs.get(nonneg)
        if prog is None:
            prog = _compile(self.layers, nonneg)
            prog = prog._replace(int_run=kernels.compile_int_affine(prog.ops, prog.in_dim))
            self._programs[nonneg] = prog
        return prog

    def eval_raw(self, nums, dens, observe=None, nonneg=_NO_SIGNS):
        """Evaluate on a raw num/den input.

        ``nonneg`` holds input coordinates the caller guarantees to be
        non-negative. ``observe(nums, dens, observed)``, when given, is
        called once with the register file and the program's ``observed``
        (register, layer-output count) pairs.
        """
        prog = self.program(nonneg)
        if not len(nums) == len(dens) == prog.in_dim:
            raise ValueError(
                f"input has {len(nums)} nums and {len(dens)} dens;"
                f" the network takes {prog.in_dim}"
            )
        if prog.int_run is not None and dens.count(1) == len(dens):
            rn = prog.int_run(nums)
            rd = [1] * len(rn)
        else:
            rn, rd = kernels.sparse_affine(prog.ops, nums, dens)
        if observe is not None:
            observe(rn, rd, prog.observed)
        return [rn[r] for r in prog.out], [rd[r] for r in prog.out]

    def __call__(self, x: RVector) -> RVector:
        nums, dens = self.eval_raw(x.nums, x.dens)
        return RVector._raw(nums, dens)


class _Rows:
    """Sparse layer under construction: rows of (index, weight) terms.

    ``source`` is the input width, or the ``_Rows`` of the layer below,
    whose row count is then read when this layer is built.
    """

    def __init__(self, source):
        self.source = source
        self.terms = []
        self.biases = []

    def add(self, terms, bias=_ZERO) -> int:
        self.terms.append([(j, as_rational(w)) for j, w in terms])
        self.biases.append(as_rational(bias))
        return len(self.terms) - 1

    def passthrough(self, j: int) -> int:
        return self.add([(j, _ONE)])

    def carry(self, js) -> list:
        """One passthrough row per index in ``js``; their row indices."""
        return [self.passthrough(j) for j in js]

    def layer(self, relu: bool) -> Layer:
        cols = self.source if isinstance(self.source, int) else len(self.source.terms)
        w = RMatrix.zeros(len(self.terms), cols)
        for i, row in enumerate(self.terms):
            for j, weight in row:
                w.nums[i * cols + j] = weight.num
                w.dens[i * cols + j] = weight.den
        return Layer(weights=w, bias=RVector(self.biases), relu=relu)


def _eq_zero_flags(r1: _Rows, r2: _Rows, forms) -> list:
    """Zero flags relu(1 - 3 relu(f) - 3 relu(-f)), one per linear form f
    in ``forms`` (lists of (index, weight) terms); exact when each f is 0
    or has |f| >= 1/3. Adds every relu(f) row, then every relu(-f) row, to
    ``r1`` and the flags to ``r2``; returns the flag rows."""
    pos = [r1.add(f) for f in forms]
    neg = [r1.add([(j, -w) for j, w in f]) for f in forms]
    return [r2.add([(a, -3), (b, -3)], bias=_ONE) for a, b in zip(pos, neg)]


# ---------------------------------------------------------------------------
# Stand-alone gadget fragments


def gadget_eq_zero() -> ReluMlp:
    """1 iff the scalar input is 0; exact when |input| is 0 or >= 1/3."""
    l1 = _Rows(1)
    l2 = _Rows(l1)
    _eq_zero_flags(l1, l2, [[(0, 1)]])
    return ReluMlp([l1.layer(relu=True), l2.layer(relu=True)])


def gadget_threshold(theta=_ZERO) -> ReluMlp:
    """1 iff input >= theta; exact when input >= theta or <= theta - 1/3."""
    theta = as_rational(theta)
    l1 = _Rows(1)
    l1.add([(0, 3)], bias=_ONE - theta * 3)
    l1.add([(0, 3)], bias=-theta * 3)
    l2 = _Rows(l1)
    l2.add([(0, 1), (1, -1)])
    return ReluMlp([l1.layer(relu=True), l2.layer(relu=False)])


def gadget_lut(group_sizes, table) -> ReluMlp:
    """Exact lookup over a product of one-hot groups.

    ``table`` maps key tuples (one index per group) to output vectors; the
    input is the concatenation of the groups' one-hot encodings.
    """
    offsets = []
    total = 0
    for size in group_sizes:
        offsets.append(total)
        total += size
    out_dim = len(next(iter(table.values())))
    keys = sorted(table)
    l1 = _Rows(total)
    for key in keys:
        terms = [(offsets[g] + idx, 1) for g, idx in enumerate(key)]
        l1.add(terms, bias=Rational(1 - len(group_sizes)))
    l2 = _Rows(l1)
    row_terms = [[] for _ in range(out_dim)]
    for unit, key in enumerate(keys):
        for o, val in enumerate(table[key]):
            val = as_rational(val)
            if val != _ZERO:
                row_terms[o].append((unit, val))
    for o in range(out_dim):
        l2.add(row_terms[o])
    return ReluMlp([l1.layer(relu=True), l2.layer(relu=False)])


def gadget_select(n_branches: int, bound: int = 8) -> ReluMlp:
    """Select the branch value whose one-hot selector bit is active.

    Input is [selector one-hot (n) | values (n)]; output is the selected
    value. Exact when every value lies in [-bound, bound].
    """
    b = Rational(bound)
    l1 = _Rows(2 * n_branches)
    for i in range(n_branches):
        l1.add([(n_branches + i, 1), (i, b)], bias=-b)
        l1.add([(n_branches + i, -1), (i, b)], bias=-b)
    l2 = _Rows(l1)
    l2.add([(2 * i, 1) for i in range(n_branches)]
           + [(2 * i + 1, -1) for i in range(n_branches)])
    return ReluMlp([l1.layer(relu=True), l2.layer(relu=False)])


# ---------------------------------------------------------------------------
# Recurrent wrapper


@dataclass(frozen=True)
class MlpRnn:
    """State recurrence h_t = update([h_{t-1} | onehot(x_t)]).

    ``decode`` (attached by the compilers) maps a hidden state back to the
    simulated machine's configuration. Frozen, because ``state_nonneg`` is
    derived from ``update`` and ``h0`` once.
    """

    state_dim: int
    token_index: dict
    update: ReluMlp
    h0: RVector
    acceptor: ReluMlp
    decode: object = None

    @cached_property
    def state_nonneg(self) -> frozenset:
        """State coordinates non-negative at every step.

        The greatest set S of coordinates that are non-negative in ``h0``
        and that the update's sign analysis proves non-negative at its
        output when S and the token one-hot are non-negative at its input;
        by induction on t, every h_t is non-negative on S.
        """
        tokens = frozenset(range(self.state_dim, self.update.in_dim))
        s = frozenset(i for i in range(self.state_dim) if self.h0.nums[i] >= 0)
        while True:
            kept = s & _compile(self.update.layers, s | tokens).out_nonneg
            if kept == s:
                return s
            s = kept

    @cached_property
    def update_nonneg(self) -> frozenset:
        """Update input coordinates non-negative at every step."""
        return self.state_nonneg | frozenset(range(self.state_dim, self.update.in_dim))


@dataclass
class MlpRunResult:
    accept: bool
    states: list
    precision: PrecisionReport | None


def run_mlp_rnn(rnn: MlpRnn, tokens, track_precision: bool = True) -> MlpRunResult:
    """Exact forward pass; optionally measures every intermediate value
    (all post-activation layer outputs plus the running state)."""
    max_bits = 0
    total_bits = 0

    def observe(nums, dens, observed):
        nonlocal max_bits, total_bits
        for r, k in observed:
            n = nums[r]  # value_bits, inlined
            b = (n if n > 0 else -n).bit_length() + dens[r].bit_length() if n else 1
            total_bits += b * k
            if b > max_bits:
                max_bits = b

    n_tokens = len(rnn.token_index)
    if not len(rnn.h0) == rnn.state_dim == rnn.update.in_dim - n_tokens:
        raise ValueError("state/input dimension mismatch")
    watcher = observe if track_precision else None
    if track_precision:
        observe(rnn.h0.nums, rnn.h0.dens, tuple((i, 1) for i in range(rnn.state_dim)))
    update, update_nonneg = rnn.update, rnn.update_nonneg
    nums, dens = list(rnn.h0.nums), list(rnn.h0.dens)
    states = [RVector._raw(nums, dens)]
    for tok in tokens:
        try:
            hot = rnn.token_index[tok]
        except KeyError:
            raise ValueError(f"unknown token {tok!r}") from None
        xn = nums + [0] * n_tokens
        xd = dens + [1] * n_tokens
        xn[rnn.state_dim + hot] = 1
        nums, dens = update.eval_raw(xn, xd, observe=watcher, nonneg=update_nonneg)
        states.append(RVector._raw(nums, dens))
    on, od = rnn.acceptor.eval_raw(nums, dens, observe=watcher, nonneg=rnn.state_nonneg)
    accept = on[0] > 0
    report = PrecisionReport(max_bits, total_bits) if track_precision else None
    return MlpRunResult(accept=accept, states=states, precision=report)


# ---------------------------------------------------------------------------
# Table factoring: drop the mask bits a (state, symbol) entry ignores


def _mask_support(entries: dict, k: int) -> tuple:
    """Bits on which the mask-indexed table genuinely depends."""
    support = []
    for bit in range(k):
        for mask in entries:
            other = tuple(
                (1 - v) if i == bit else v for i, v in enumerate(mask)
            )
            if entries[mask] != entries[other]:
                support.append(bit)
                break
    return tuple(support)


def _and_units(rows: _Rows, fixed, flags, entries: dict, k: int) -> list:
    """AND units over a mask-indexed table, added to ``rows``.

    One unit per pattern of the table's support bits whose entry is truthy:
    it reads every row in ``fixed`` and each support bit's 0/1 flag row
    ``flags[bit]``, with weight 1, or -1 where the pattern's bit is 0, and
    bias 1 minus its number of +1 terms, so after the ReLU it is 1 exactly
    when its rows match the pattern and 0 otherwise. Returns
    (unit row, entry) pairs in pattern order.
    """
    support = _mask_support(entries, k)
    units = []
    for bits in range(1 << len(support)):
        pattern = {b: (bits >> i) & 1 for i, b in enumerate(support)}
        entry = entries[tuple(pattern.get(i, 0) for i in range(k))]
        if entry:
            terms = [(j, 1) for j in fixed]
            terms += [(flags[b], 1 if v else -1) for b, v in pattern.items()]
            bias = Rational(1 - len(fixed) - sum(pattern.values()))
            units.append((rows.add(terms, bias=bias), entry))
    return units


# ---------------------------------------------------------------------------
# Finite control shared by the machine compilers


class _Control:
    """The finite control of a machine with ``k`` registers (counters or
    stacks), compiled the same way for both machine families.

    The update input is [state one-hot (nq) | 2k register coordinates |
    symbol one-hot], and its first ``state_dim`` coordinates are the hidden
    state. ``ops_table`` maps each (state, symbol, flag mask) key to that
    transition's register ops.
    """

    def __init__(self, m, k: int, ops_table: dict):
        self.m, self.k, self.ops_table = m, k, ops_table
        self.states = list(m.states)
        self.sigma = list(m.alphabet)
        self.qi = {q: i for i, q in enumerate(self.states)}
        self.nq = len(self.states)
        self.state_dim = self.nq + 2 * self.k
        self.in_dim = self.state_dim + len(self.sigma)

    def key_units(self, rows: _Rows, flags) -> list:
        """AND units over (state, symbol, flag pattern), added to ``rows``.

        ``flags[b]`` is the row of mask bit b's 0/1 flag; the state and
        symbol one-hots are read at their update-input indices, so the
        layers below must carry those unchanged. Returns (unit row, next
        state, register ops) triples.
        """
        units = []
        for q in self.states:
            for s_idx, sym in enumerate(self.sigma):
                entries = {}
                for mask in _all_masks(self.k):
                    key = (q, sym, mask)
                    entries[mask] = (self.m.transition[key], self.ops_table[key])
                fixed = [self.qi[q], self.state_dim + s_idx]
                units += [(u, *e) for u, e in _and_units(rows, fixed, flags, entries, self.k)]
        return units

    def next_state(self, rows: _Rows, units) -> list:
        """Next-state one-hot rows: row p sums the units that move to p."""
        return [rows.add([(u, 1) for u, nxt, _ in units if nxt == p]) for p in self.states]

    def rnn(self, update, acceptor, h0_registers, read_registers) -> MlpRnn:
        """The recurrent net from the start state with register coordinates
        ``h0_registers`` (2k ints). Its ``decode`` checks that the state
        block is one-hot and returns (state, ``read_registers(h)``)."""
        states, nq = self.states, self.nq
        h0 = RVector.zeros(self.state_dim)
        h0.nums[self.qi[self.m.start]] = 1
        h0.nums[nq:] = h0_registers

        def decode(h: RVector):
            nums, dens = h.nums, h.dens
            hot = [i for i in range(nq) if nums[i] != 0]
            if len(hot) != 1 or nums[hot[0]] != 1 or dens[hot[0]] != 1:
                raise AssertionError("state block is not one-hot")
            return states[hot[0]], read_registers(h)

        return MlpRnn(
            state_dim=self.state_dim,
            token_index={sym: i for i, sym in enumerate(self.sigma)},
            update=update,
            h0=h0,
            acceptor=acceptor,
            decode=decode,
        )


# ---------------------------------------------------------------------------
# Counter machine compiler


def cm_to_mlp_rnn(m: CounterMachine, reset_bound: int | None = None) -> MlpRnn:
    """Compile a counter machine into an exact recurrent ReLU network.

    Hidden state: [state one-hot | positive parts | negative parts], with
    counter i decoded as the difference of its two parts. The finite
    control (``_Control``) is keyed by the counters' zero flags; this
    compiler adds the flags, the counter re-splits and the acceptor.
    Machines whose transitions use the reset op on counters of unbounded
    magnitude need ``reset_bound`` (exactness then holds while |counter|
    stays below it); machines without resets are exact unconditionally.
    """
    ctl = _Control(m, m.n_counters, m.updates)
    k, nq = ctl.k, ctl.nq
    has_reset = any("x0" in ops for ops in m.updates.values())
    if has_reset and reset_bound is None:
        raise ValueError(
            "machine resets counters; an explicit reset_bound is required"
        )

    # hidden state: q 0..nq-1, c+ nq..nq+k-1, c- nq+k..nq+2k-1
    cp_at = lambda i: nq + i
    cm_at = lambda i: nq + k + i
    diffs = [[(cp_at(i), 1), (cm_at(i), -1)] for i in range(k)]

    # L1, L2: passthrough + zero flags of the counter differences
    l1 = _Rows(ctl.in_dim)
    l2 = _Rows(l1)
    l1.carry(range(ctl.in_dim))
    l2.carry(range(ctl.in_dim))
    z_at = _eq_zero_flags(l1, l2, diffs)

    # L3: counter parts + key units
    l3 = _Rows(l2)
    cp3 = l3.carry(cp_at(i) for i in range(k))
    cm3 = l3.carry(cm_at(i) for i in range(k))
    pair_units = ctl.key_units(l3, z_at)

    # L4: next state one-hots and counter re-splits; a reset unit cuts the
    # moved parts by the bound and adds a copy row that is 0 unless reset
    l4 = _Rows(l3)
    ctl.next_state(l4, pair_units)
    bound = Rational(reset_bound) if has_reset else None
    new_parts = ([], [])  # per counter, the L4 rows summing to c+' and c-'
    for i in range(k):
        move = []
        reset = []
        for unit, _, ops in pair_units:
            if ops[i] == "+1":
                move.append((unit, 1))
            elif ops[i] == "-1":
                move.append((unit, -1))
            elif ops[i] == "x0":
                reset.append(unit)
        cut = [(u, -bound) for u in reset]
        plus = l4.add([(cp3[i], 1), (cm3[i], -1)] + move + cut)
        minus = l4.add([(cp3[i], -1), (cm3[i], 1)] + [(u, -w) for u, w in move] + cut)
        copy = []
        if has_reset:
            copy.append(l4.add([(cp3[i], 1)] + [(u, bound) for u in reset], bias=-bound))
        new_parts[0].append([plus] + copy)
        new_parts[1].append([minus] + copy)

    # L5: linear assembly of [q' | c+' | c-']
    l5 = _Rows(l4)
    l5.carry(range(nq))
    for part in new_parts:
        for rows in part:
            l5.add([(r, 1) for r in rows])
    update = ReluMlp(
        [l1.layer(relu=True), l2.layer(relu=True), l3.layer(relu=True),
         l4.layer(relu=True), l5.layer(relu=False)]
    )

    # acceptor: zero flags again, then membership units over (state, mask)
    a1 = _Rows(ctl.state_dim)
    a2 = _Rows(a1)
    a1.carry(range(nq))
    a2.carry(range(nq))
    az = _eq_zero_flags(a1, a2, diffs)
    a3 = _Rows(a2)
    acc_units = []
    for q in ctl.states:
        accepted = {mask for (qq, mask) in m.accepting if qq == q}
        if not accepted:
            continue
        entries = {mask: (mask in accepted) for mask in _all_masks(k)}
        acc_units += [unit for unit, _ in _and_units(a3, [ctl.qi[q]], az, entries, k)]
    a4 = _Rows(a3)
    a4.add([(u, 1) for u in acc_units], bias=Rational(-1, 2))
    acceptor = ReluMlp(
        [a1.layer(relu=True), a2.layer(relu=True), a3.layer(relu=True), a4.layer(relu=False)]
    )

    def read_counters(h: RVector):
        if any(h.dens[j] != 1 for j in range(nq, ctl.state_dim)):
            raise AssertionError("counter part is not an integer")
        return tuple(h.nums[cp_at(i)] - h.nums[cm_at(i)] for i in range(k))

    return ctl.rnn(update, acceptor, (0,) * (2 * k), read_counters)


# ---------------------------------------------------------------------------
# Stack machine compiler

_GATE_BOUND = Rational(8)
# per branch (L7 order), the new halving value ws * s + bs and mirror value
# wc * c + bc: (ws, bs, wc, bc)
_BRANCHES = {
    "push0": (Rational(1, 2), _ZERO, Rational(1, 4), Rational(1, 4)),
    "push1": (Rational(1, 2), _ONE, Rational(1, 4), Rational(3, 4)),
    "noop": (_ONE, _ZERO, _ONE, _ZERO),
    "pop_empty": (_ONE, _ZERO, _ONE, _ZERO),
    "pop_b1": (Rational(2), Rational(-2), Rational(4), Rational(-3)),
    "pop_b0": (Rational(2), _ZERO, Rational(4), -_ONE),
}


def sm_to_mlp_rnn(m: StackMachine) -> MlpRnn:
    """Compile a stack machine into an exact recurrent ReLU network.

    Hidden state: [state one-hot | halving encodings | quartering mirrors].
    The halving encodings are the machine's own stack values and define the
    decoded trace; the mirrors (push maps c to (2v+1)/4 + c/4, starting at
    0) keep a fixed 1/4 gap around the top-bit and emptiness thresholds at
    any depth, so the branch flags are exact. The finite control
    (``_Control``) is keyed by the stacks' table heads; this compiler adds
    the thresholds, the branch gates and the gated candidates. All stack
    values live in [0, 4], so branch selection gates with a constant bound.
    """
    ctl = _Control(m, m.n_stacks, m.stack_ops)
    k, nq, in_dim = ctl.k, ctl.nq, ctl.in_dim
    s_at = lambda i: nq + i
    c_at = lambda i: nq + k + i

    # L1: passthrough + threshold pieces and emptiness flags from mirrors
    l1 = _Rows(in_dim)
    l1.carry(range(in_dim))
    p1 = [l1.add([(c_at(i), 4)], bias=Rational(-2)) for i in range(k)]
    p2 = [l1.add([(c_at(i), 4)], bias=Rational(-3)) for i in range(k)]
    e1 = [l1.add([(c_at(i), -4)], bias=_ONE) for i in range(k)]

    # L2: head bits h = p1 - p2, table heads th = h + e
    l2 = _Rows(l1)
    l2.carry(range(in_dim))
    e2 = l2.carry(e1)
    h2 = [l2.add([(p1[i], 1), (p2[i], -1)]) for i in range(k)]
    th2 = [l2.add([(p1[i], 1), (p2[i], -1), (e1[i], 1)]) for i in range(k)]

    # L3: key units over (state, symbol, table-head pattern)
    l3 = _Rows(l2)
    s3 = l3.carry(s_at(i) for i in range(k))
    c3 = l3.carry(c_at(i) for i in range(k))
    e3 = l3.carry(e2)
    h3 = l3.carry(h2)
    pair_units = ctl.key_units(l3, th2)

    # L4: next state, per-stack op one-hots; carry s, c, h, e
    l4 = _Rows(l3)
    q4 = ctl.next_state(l4, pair_units)
    s4 = l4.carry(s3)
    c4 = l4.carry(c3)
    e4 = l4.carry(e3)
    h4 = l4.carry(h3)
    u4 = {}
    for i in range(k):
        for op in ("push0", "push1", "pop", "noop"):
            rows = [(unit, 1) for unit, _, ops in pair_units if ops[i] == op]
            u4[(i, op)] = l4.add(rows)

    # L5: branch gates; carry q', s, c
    l5 = _Rows(l4)
    q5 = l5.carry(q4)
    s5 = l5.carry(s4)
    c5 = l5.carry(c4)
    gates = {}
    for i in range(k):
        for op in ("push0", "push1", "noop"):
            gates[(i, op)] = l5.passthrough(u4[(i, op)])
        pop = u4[(i, "pop")]
        gates[(i, "pop_empty")] = l5.add([(pop, 1), (e4[i], 1)], bias=-_ONE)
        gates[(i, "pop_b1")] = l5.add([(pop, 1), (h4[i], 1)], bias=-_ONE)
        gates[(i, "pop_b0")] = l5.add([(pop, 1), (h4[i], -1), (e4[i], -1)])

    # L6: each branch's candidate values, gated to 0 unless its gate is 1
    l6 = _Rows(l5)
    q6 = l6.carry(q5)
    cand = {}
    for i in range(k):
        for branch, (ws, bs, wc, bc) in _BRANCHES.items():
            g = (gates[(i, branch)], _GATE_BOUND)
            cand[(i, branch, "s")] = l6.add([(s5[i], ws), g], bias=bs - _GATE_BOUND)
            cand[(i, branch, "c")] = l6.add([(c5[i], wc), g], bias=bc - _GATE_BOUND)

    # L7: assemble new state
    l7 = _Rows(l6)
    l7.carry(q6)
    for part in ("s", "c"):
        for i in range(k):
            l7.add([(cand[(i, br, part)], 1) for br in _BRANCHES])

    update = ReluMlp(
        [l1.layer(relu=True), l2.layer(relu=True), l3.layer(relu=True),
         l4.layer(relu=True), l5.layer(relu=True), l6.layer(relu=True),
         l7.layer(relu=False)]
    )

    a1 = _Rows(ctl.state_dim)
    a1.add([(ctl.qi[q], 1) for q in ctl.states if q in m.accepting], bias=Rational(-1, 2))
    acceptor = ReluMlp([a1.layer(relu=False)])

    # halving encodings start at the empty value 1, mirrors at 0
    return ctl.rnn(
        update, acceptor, (1,) * k + (0,) * k, lambda h: tuple(h[s_at(i)] for i in range(k))
    )
