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
analysis across time steps as a greatest fixpoint.

``run_mlp_rnn`` runs an update whose weights and biases are all integers
(the counter-machine update) on integer states as generated straight-line
code, one function per token (``MlpRnn.token_steps``), which also counts
the run's value bits: at den 1, ``value_bits(n)`` is ``n.bit_length() +
1``. Most of the counter net's registers are flags, one-hots and AND
units, and once the token is known many of them are constant: an AND unit
keyed by another symbol is 0. ``MlpRnn.token_ranges`` proves, per token,
which registers hold one int at every step that reads it, 26 to 31 of the
conn net's 53 computed ones and the token one-hot, and which others hold 0
or 1. Each token's function is the update specialized to it (partial
evaluation, Jones, Gomard & Sestoft 1993): it has no line for a constant
register, folds the terms that read one into the bias, adds their value
bits as a constant, and counts each 0/1 register as its own bit length,
without a call. The proof is an interval abstract interpretation (Cousot &
Cousot 1977) of the update from ``h0`` over every token, run once per net
on its first integer run; it is made exact by splitting into cases on
each register whose interval is [0, 1], which holds exactly 0 or 1
because every register of an all-integer program on integer inputs is an
integer.

Every other update, the stack-machine net's with its rational weights and
any net with a rational ``h0``, runs one cell of its state space at a time.
A ReLU net is piecewise affine: in a cell where every ReLU has a fixed
sign, a step is an affine map, the step of a linear RNN (Montufar et al.
2014). ``MlpRnn.cells`` holds one lazily built decision tree per token.
Each node tests one state coordinate against a rational threshold, and
each leaf is the update specialized to the closed box that the tests leave,
built by one symbolic pass in the manner of symbolic intervals with input
splitting (ReluVal, Wang et al. 2018): each register is an exact affine form
in the state, a ReLU the box decides is 0 or the identity, an undecided
ReLU over one state coordinate splits the box at its breakpoint on the
current state's side, and any other stays a ReLU op; constant registers
fold, and their value bits are constants of the leaf. No static proof
gives these boxes for the stack net, whose exactness rests on the relation
between each stack's halving value and its mirror (no interval box is
inductive under pop), so the walk down the tree checks the box premise at
every step. The stack net's 69 ops become leaves of 4 to 14. Past
``_CELL_LEAVES`` leaves per net, a token's unsplit leaf, specialized to the
root box alone, serves every state that reaches an unbuilt branch, so
memory stays bounded. Outputs and the ``PrecisionReport`` equal those of
layer-by-layer evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import sub
from typing import NamedTuple

from . import kernels
from .automata import CounterMachine, StackMachine, _all_masks
from .linalg import RMatrix, RVector
from .rational import PrecisionReport, Rational, as_rational, value_bits

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
    """

    in_dim: int
    ops: tuple
    out: tuple
    observed: tuple
    out_nonneg: frozenset


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
    appends one register computed by ``kernels.sparse_affine``. A register
    is known non-negative when it is in ``nonneg``, holds a ReLU output, or
    holds a no-ReLU row with a non-negative bias and positive weights on
    non-negative registers. ``MlpRnn.update_nonneg`` gives the assumption
    that holds at every step of a recurrence; ``run_mlp_rnn`` runs its
    update per token instead, as ``MlpRnn.token_steps`` on integer states
    and as the leaves of ``MlpRnn.cells`` otherwise.

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
            prog = self._programs[nonneg] = _compile(self.layers, nonneg)
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


# The range analysis of ``MlpRnn.token_ranges`` proves nothing beyond the
# token one-hot once it has run more leaves, or reached more finite states,
# in one pass than this.
_RANGE_LEAVES = 1 << 14
_RANGE_STATES = 1 << 10
# ``MlpRnn.cells`` builds at most this many cell leaves per net; past it, a
# state that reaches an unbuilt branch runs its token's unsplit leaf.
_CELL_LEAVES = 1 << 10

# a register's value over leaves where it held 0 in some and 1 in others
_BIT = "0 or 1"
_BITS = (0, 1, _BIT)


def _leaves(ops, x):
    """The register files of an abstract run of the all-integer
    ``kernels.sparse_affine`` program ``ops`` on ``x``, one per leaf.

    A register holds an int or an integer interval ``(lo, hi)``, with
    ``None`` for an unbounded end; a ReLU clamps the interval at 0. Every
    register of an all-integer program on integer inputs is an integer, so
    a register whose interval is exactly [0, 1] holds 0 or 1, and the run
    forks into the two: every concrete run follows some leaf, and a
    register that is an int in a leaf holds that int on every concrete
    run that follows it.
    """
    todo = [(0, list(x))]
    while todo:
        start, regs = todo.pop()
        for t in range(start, len(ops)):
            terms, lo, _, relu = ops[t]
            hi = lo
            for c, w, _ in terms:
                v = regs[c]
                if type(v) is int:
                    a = b = w * v
                else:
                    a, b = v if w > 0 else v[::-1]
                    a = None if a is None else w * a
                    b = None if b is None else w * b
                lo = None if lo is None or a is None else lo + a
                hi = None if hi is None or b is None else hi + b
            if relu:
                if hi is not None and hi <= 0:
                    lo = hi = 0
                elif lo is None or lo < 0:
                    lo = 0
            if lo is not None and lo == hi:
                regs.append(lo)
            elif lo == 0 and hi == 1:
                todo.append((t + 1, regs + [1]))
                regs.append(0)
            else:
                regs.append((lo, hi))
        yield regs


def _explore(ops, out, state, finite, hots):
    """One pass of ``MlpRnn.token_ranges``: run ``ops`` abstractly on
    ``state`` and every token one-hot in ``hots``, for every value of the
    ``finite`` coordinates reachable from their values in ``state``; the
    other coordinates of ``state`` hold their intervals.

    Returns the finite coordinates that come out as 0 or 1 in every leaf
    (stopping at the first leaf where one does not) and, per token, each
    register's value over that token's leaves: the int it holds in all of
    them, ``_BIT`` when it holds 0 or 1 in each, or anything else; or
    ``(None, None)`` past the caps.
    """
    start = tuple(state[i] for i in finite)
    seen, todo, leaves = {start}, [start], 0
    merged = [None] * len(hots)
    while todo:
        for i, v in zip(finite, todo.pop()):
            state[i] = v
        for j, hot in enumerate(hots):
            for regs in _leaves(ops, state + hot):
                leaves += 1
                if leaves > _RANGE_LEAVES:
                    return None, None
                nxt = tuple(regs[out[i]] for i in finite)
                if not all(v in (0, 1) for v in nxt):
                    return [i for i, v in zip(finite, nxt) if v in (0, 1)], None
                had = merged[j]
                merged[j] = regs if had is None else [
                    a if a == b else _BIT if a in _BITS and b in _BITS else None
                    for a, b in zip(had, regs)
                ]
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        if len(seen) > _RANGE_STATES:
            return None, None
    return finite, merged


class _Leaf(NamedTuple):
    """An update program specialized to one token and one closed box of the
    state space (see ``MlpRnn.cells``): ``kernels.sparse_affine`` ops over
    the state alone, the register of each next-state coordinate, the
    (register, layer-output count) pairs of the observed registers that are
    not constant on the box, and the largest and total value bits of those
    that are."""

    ops: tuple
    out: tuple
    observed: tuple
    max_bits: int
    total_bits: int


def _bounds(coefs, const, box):
    """Least and greatest value of ``const + sum(u * x[v])`` over ``box``,
    an interval per register with ``None`` for an unbounded end."""
    lo = hi = const
    for v, u in coefs.items():
        a, b = box[v] if u > 0 else box[v][::-1]
        lo = None if lo is None or a is None else lo + u * a
        hi = None if hi is None or b is None else hi + u * b
    return lo, hi


def _cell(prog, token, box, state=None):
    """The update program ``prog`` over [state | token one-hot] specialized
    to the token index ``token`` and a closed box of the state space:
    ``(leaf, path)``.

    ``box`` is an interval per state coordinate, with ``None`` for an
    unbounded end. One symbolic pass keeps each register as an exact affine
    form ``(coefs, const)`` over the leaf's registers: the state, then one
    per leaf op. A ReLU whose sign the box decides is 0 or the identity.
    When ``state`` (its nums and dens) is given, an undecided ReLU that
    reads one state coordinate alone splits the box at the coordinate's
    breakpoint: a new node ``[v, tn, td, None, None]`` tests x[v] <= tn /
    td, the box narrows to the side that ``state`` takes, and ``path``
    lists each new node with that child's index (see ``_narrow``). Any
    other undecided ReLU becomes a leaf op, whose interval the box bounds.
    The ``_Leaf`` computes each observed register that is not constant (a
    form with one weight 1 and no constant is its register) and each
    next-state coordinate, and identical ops share one register; it is
    exact for every state in the narrowed box.
    """
    d = len(box)
    forms = [({i: _ONE}, _ZERO) for i in range(d)]
    forms += [({}, _ONE if j == token else _ZERO) for j in range(prog.in_dim - d)]
    bounds = list(box)
    ops, regs, path = [], {}, []

    def emit(coefs, const, relu):
        terms = tuple((v, u.num, u.den) for v, u in sorted(coefs.items()))
        op = (terms, const.num, const.den, relu)
        if op not in regs:
            regs[op] = d + len(ops)
            ops.append(op)
        return regs[op]

    for terms, bn, bd, relu in prog.ops:
        coefs, const = {}, Rational._make(bn, bd)
        for c, a, b in terms:
            w = Rational._make(a, b)
            fc, k = forms[c]
            if k:
                const += w * k
            for v, u in fc.items():
                coefs[v] = coefs[v] + w * u if v in coefs else w * u
        coefs = {v: u for v, u in coefs.items() if u}
        if relu and not coefs:
            const = max(const, _ZERO)
        while relu and coefs:
            lo, hi = _bounds(coefs, const, bounds)
            if hi is not None and hi <= 0:
                coefs, const = {}, _ZERO
            elif lo is None or lo < 0:
                if state is not None and len(coefs) == 1 and next(iter(coefs)) < d:
                    ((v, u),) = coefs.items()
                    t = -const / u
                    node = [v, t.num, t.den, None, None]
                    path.append((node, _narrow(bounds, node, *state)))
                    continue
                r = emit(coefs, const, True)
                if r == len(bounds):
                    bounds.append((_ZERO, hi))
                coefs, const = {r: _ONE}, _ZERO
            break
        forms.append((coefs, const))

    def register(r):
        coefs, const = forms[r]
        if not const and len(coefs) == 1:
            ((v, u),) = coefs.items()
            if u == 1:
                return v
        return emit(coefs, const, False)

    counts, max_bits, total_bits = {}, 0, 0
    for r, k in prog.observed:
        coefs, const = forms[r]
        if coefs:
            reg = register(r)
            counts[reg] = counts.get(reg, 0) + k
        else:
            b = value_bits(const)
            total_bits += b * k
            max_bits = max(max_bits, b)
    out = tuple(register(r) for r in prog.out)
    leaf = _Leaf(tuple(ops), out, tuple(sorted(counts.items())), max_bits, total_bits)
    return leaf, path


def _narrow(box, node, nums, dens) -> int:
    """Narrow ``box`` to the side of ``node``'s test that the state
    ``nums``/``dens`` takes; returns that child's index in ``node``."""
    v, tn, td = node[:3]
    lo, hi = box[v]
    t = Rational._make(tn, td)
    if nums[v] * td <= tn * dens[v]:
        box[v] = (lo, t)
        return 3
    box[v] = (t, hi)
    return 4


class _Cells:
    """The lazily built decision trees of ``MlpRnn.cells``.

    ``trees[i]`` is token i's tree: ``None`` before it is built, a
    ``_Leaf``, or a node ``[v, tn, td, left, right]`` whose state goes
    ``left`` when x[v] <= tn / td and ``right`` otherwise; an unbuilt child
    is ``None``. ``leaves`` counts the cell leaves built; identical leaves
    are one object.
    """

    def __init__(self, prog, root):
        n_tokens = prog.in_dim - len(root)
        self.prog, self.root = prog, root
        self.trees = [None] * n_tokens
        self.unsplit = [None] * n_tokens
        self.leaves = 0
        self._shared = {}

    def leaf(self, i, nums, dens) -> _Leaf:
        """Token i's leaf for the state ``nums``/``dens``, whose walk down
        the tree ends at an unbuilt child: the branch it reaches is built,
        one node per split and then the leaf; past ``_CELL_LEAVES``, the
        token's unsplit leaf (specialized to the root box alone) takes the
        child's place."""
        box = list(self.root)
        parent, side = self.trees, i
        while parent[side] is not None:
            parent = parent[side]
            side = _narrow(box, parent, nums, dens)
        if self.leaves >= _CELL_LEAVES:
            if self.unsplit[i] is None:
                self.unsplit[i] = _cell(self.prog, i, self.root)[0]
            leaf = self.unsplit[i]
        else:
            leaf, path = _cell(self.prog, i, box, (nums, dens))
            # the box is the last split on each coordinate and side
            last = {(node[0], child): node for node, child in path}
            for (_, child), node in last.items():
                parent[side] = parent = node
                side = child
            share = self._shared.setdefault
            leaf = leaf._replace(
                ops=tuple(share(op, op) for op in leaf.ops),
                out=share(leaf.out, leaf.out),
                observed=share(leaf.observed, leaf.observed),
            )
            leaf = share(leaf, leaf)
            self.leaves += 1
        parent[side] = leaf
        return leaf


@dataclass(frozen=True)
class MlpRnn:
    """State recurrence h_t = update([h_{t-1} | onehot(x_t)]).

    ``decode`` (attached by the compilers) maps a hidden state back to the
    simulated machine's configuration. Frozen, because ``state_nonneg``,
    ``token_ranges``, ``token_steps`` and ``cells``, the coordinates proven
    non-negative, the registers proven constant or 0 or 1 per token, the
    update's generated code for each token, and its per-token decision
    trees of affine leaves, are derived from ``update`` and ``h0`` once,
    lazily: building a net runs none of them, and ``cells`` grows its trees
    one branch at a time as states reach them.
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

    @cached_property
    def token_ranges(self):
        """Per token index, ``(known, binary)`` for the update program
        ``update.program(update_nonneg)``: ``known`` maps every register
        from the token one-hot on that holds one int at every step that
        reads the token to that int, and ``binary`` holds the other
        observed registers that hold 0 or 1 at those steps. ``None`` unless
        that program is all-integer and ``h0`` is integer.

        A range analysis, run once: the program runs abstractly
        (``_leaves``) on every token one-hot, with each state coordinate
        either finite, a 0 or 1 in ``h0`` whose reachable values are
        explored from ``h0``, or free, an interval given by
        ``state_nonneg``. A finite coordinate that comes out as anything
        but a concrete 0 or 1 in some leaf is made free, and the analysis
        restarts (a greatest fixpoint), so the reachable finite values are
        closed under the update and, by induction on t, every h_t is
        covered. A register is known for a token when it holds one int in
        every leaf of every reachable case of that token, and binary when
        it holds 0 or 1 in each. Past a fixed number of leaves or finite
        states the analysis proves nothing, and only the one-hot is known.
        """
        d, nums = self.state_dim, self.h0.nums
        prog = self.update.program(self.update_nonneg)
        integer = all(bd == 1 and all(b == 1 for *_, b in terms) for terms, _, bd, _ in prog.ops)
        if not integer or self.h0.dens.count(1) != d:
            return None
        n_tokens = prog.in_dim - d
        hots = [[int(j == i) for j in range(n_tokens)] for i in range(n_tokens)]
        finite = [i for i in range(d) if nums[i] in (0, 1)]
        while True:
            state = [(0, None) if i in self.state_nonneg else (None, None) for i in range(d)]
            for i in finite:
                state[i] = nums[i]
            kept, merged = _explore(prog.ops, prog.out, state, finite, hots)
            if kept is None:
                return tuple((dict(enumerate(hot, d)), frozenset()) for hot in hots)
            if kept == finite:
                break
            finite = kept
        ranges = []
        for values in merged:
            known = {r: v for r, v in enumerate(values) if r >= d and type(v) is int}
            binary = frozenset(
                r for r, _ in prog.observed if r not in known and values[r] in _BITS
            )
            ranges.append((known, binary))
        return tuple(ranges)

    @cached_property
    def token_steps(self):
        """Per token, the update's generated code for integer states:
        ``kernels.compile_int_affine`` of ``update.program(update_nonneg)``
        with the token's ``token_ranges``, a function of the state nums
        that returns the next state's nums and the max and total value bits
        of the step's observed registers. ``None`` when ``token_ranges``
        is."""
        ranges = self.token_ranges
        if ranges is None:
            return None
        prog = self.update.program(self.update_nonneg)
        steps = {}
        for tok, i in self.token_index.items():
            known, binary = ranges[i]
            steps[tok] = kernels.compile_int_affine(
                prog.ops, prog.in_dim, prog.out, prog.observed, binary, known
            )
        return steps

    @cached_property
    def cells(self) -> _Cells:
        """The update program ``update.program(update_nonneg)`` as one
        lazily built decision tree per token, for the runs that do not use
        ``token_steps``.

        The root box bounds each state coordinate below by 0 when it is in
        ``state_nonneg`` and leaves it free otherwise, so it holds every
        h_t. A tree's node tests one state coordinate against a rational
        threshold, and its leaves are ``_cell``s of the update on the box
        the tests leave, exact for every state in that box; the walk down
        the tree checks that premise at every step. A leaf is built when a
        state first reaches its branch, at most ``_CELL_LEAVES`` of them per
        net."""
        prog = self.update.program(self.update_nonneg)
        root = tuple(
            (_ZERO, None) if i in self.state_nonneg else (None, None)
            for i in range(self.state_dim)
        )
        return _Cells(prog, root)


@dataclass
class MlpRunResult:
    accept: bool
    states: list
    precision: PrecisionReport | None


def run_mlp_rnn(rnn: MlpRnn, tokens, track_precision: bool = True) -> MlpRunResult:
    """Exact forward pass; optionally measures every intermediate value
    (all post-activation layer outputs plus the running state).

    When the update program is all-integer and ``h0`` is integer, every
    state is integer, and each token runs its function in
    ``rnn.token_steps`` on the state nums, tracked or not: the update
    specialized to that token, which returns the new state with the step's
    largest and total value bits, computed as ``n.bit_length() + 1``
    (``value_bits`` at den 1); an untracked run ignores the bits. The range
    analysis and code generation behind ``token_steps`` run on a net's
    first such run. Otherwise each token walks its tree in ``rnn.cells``
    with the state, with integer cross-multiplied comparisons, building the
    branch a state reaches first, and runs the leaf's ops through
    ``kernels.sparse_affine`` on the state alone; the observer counts the
    leaf's non-constant observed registers, and the leaf adds the value bits
    of the constant ones. ``h0`` and the acceptor (``eval_raw``) are always
    measured by the observer.
    """
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
    d = rnn.state_dim
    if not len(rnn.h0) == d == rnn.update.in_dim - n_tokens:
        raise ValueError("state/input dimension mismatch")
    if track_precision:
        observe(rnn.h0.nums, rnn.h0.dens, tuple((i, 1) for i in range(d)))
    nums, dens = list(rnn.h0.nums), list(rnn.h0.dens)
    states = [RVector._raw(nums, dens)]
    steps = rnn.token_steps
    integer = steps is not None
    if not integer:
        steps, cells = rnn.token_index, rnn.cells
        trees = cells.trees
    for tok in tokens:
        try:
            step = steps[tok]
        except KeyError:
            raise ValueError(f"unknown token {tok!r}") from None
        if integer:
            nums, b, t = step(nums)
            dens = [1] * d
        else:
            node = trees[step]
            while type(node) is list:
                v = node[0]
                node = node[3] if nums[v] * node[2] <= node[1] * dens[v] else node[4]
            if node is None:
                node = cells.leaf(step, nums, dens)
            ops, out, observed, b, t = node
            rn, rd = kernels.sparse_affine(ops, nums, dens)
            if track_precision:
                observe(rn, rd, observed)
            nums = [rn[r] for r in out]
            dens = [rd[r] for r in out]
        total_bits += t
        if b > max_bits:
            max_bits = b
        states.append(RVector._raw(nums, dens))
    on, od = rnn.acceptor.eval_raw(
        nums, dens, observe=observe if track_precision else None, nonneg=rnn.state_nonneg
    )
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
            block = h.nums[:nq]
            hot = block.index(1) if 1 in block else 0
            if block.count(0) != nq - 1 or block[hot] != 1 or h.dens[hot] != 1:
                raise AssertionError("state block is not one-hot")
            return states[hot], read_registers(h)

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
        if h.dens[nq : ctl.state_dim].count(1) != 2 * k:
            raise AssertionError("counter part is not an integer")
        return tuple(map(sub, h.nums[nq : nq + k], h.nums[nq + k : ctl.state_dim]))

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
