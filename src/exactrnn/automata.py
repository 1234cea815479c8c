"""Ground-truth automata: weighted finite automata, real-time counter
machines, and multi-stack machines.

These are the reference machines that every network construction in the
package is checked against. Runs are pure functions returning fresh traces.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import RMatrix, RVector, row_apply
from .rational import Rational

# ---------------------------------------------------------------------------
# Weighted finite automata


@dataclass(frozen=True)
class Wfa:
    """Transition matrices per symbol plus initial/final weight vectors.

    A word w is scored as alpha . M[w1] ... M[wT] . omega.
    """

    n_states: int
    alphabet: tuple
    matrices: dict
    alpha: RVector
    omega: RVector

    def __post_init__(self):
        n = self.n_states
        if len(self.alpha) != n or len(self.omega) != n:
            raise ValueError("alpha/omega length must equal n_states")
        for sym in self.alphabet:
            if sym not in self.matrices:
                raise ValueError(f"no matrix for symbol {sym!r}")
        for sym, m in self.matrices.items():
            if m.rows != n or m.cols != n:
                raise ValueError(f"matrix for {sym!r} is not {n}x{n}")

    def matrix(self, sym) -> RMatrix:
        try:
            return self.matrices[sym]
        except (KeyError, TypeError):  # TypeError: an unhashable symbol
            raise ValueError(f"unknown symbol {sym!r}") from None


def wfa_eval(a: Wfa, word) -> Rational:
    """Score of a word; the empty word scores alpha . omega."""
    row = a.alpha
    for sym in word:
        row = row_apply(row, a.matrix(sym))
    return row.dot(a.omega)


def wfa_prefix_values(a: Wfa, word) -> list:
    """Scores of all non-empty prefixes, computed incrementally."""
    out = []
    row = a.alpha
    for sym in word:
        row = row_apply(row, a.matrix(sym))
        out.append(row.dot(a.omega))
    return out


def wfa_is_deterministic(a: Wfa) -> bool:
    """True iff alpha and every column of every matrix have <= 1 nonzero."""
    zero = Rational(0)
    if sum(1 for v in a.alpha if v != zero) > 1:
        return False
    for sym in a.alphabet:
        m = a.matrices[sym]
        for j in range(m.cols):
            if sum(1 for i in range(m.rows) if m[i, j] != zero) > 1:
                return False
    return True


# ---------------------------------------------------------------------------
# Counter machines

COUNTER_OPS = ("+0", "+1", "-1", "x0")


@dataclass(frozen=True)
class CounterMachine:
    """Real-time automaton with integer registers.

    Transitions and updates are keyed by (state, symbol, zero-mask), where
    the mask is read from the counters *before* the step: mask[i] is 1 iff
    counter i is currently 0. Updates act per counter with ops from
    ``COUNTER_OPS`` (x0 resets to zero). Acceptance is a predicate on the
    final state and final zero-mask, given as an explicit set of pairs.
    """

    states: tuple
    start: str
    alphabet: tuple
    n_counters: int
    transition: dict
    updates: dict
    accepting: frozenset

    def describe(self) -> str:
        lines = [
            f"counter machine: {len(self.states)} states, {self.n_counters} counters,"
            f" alphabet {list(self.alphabet)}",
            f"start: {self.start}",
            "accepting (state, mask):" + "".join(f" {p}" for p in sorted(self.accepting)),
        ]
        for key in sorted(self.transition):
            lines.append(
                f"  {key[0]} --{key[1]!r}/mask={key[2]}--> {self.transition[key]}"
                f"  ops={self.updates[key]}"
            )
        return "\n".join(lines)


def cm_run(m: CounterMachine, word):
    """Run a counter machine; returns (accept, trace of (state, counters)).

    The trace has length |word| + 1 (configuration before each symbol and
    after the last).
    """
    state = m.start
    counters = [0] * m.n_counters
    trace = [(state, tuple(counters))]
    transition = m.transition
    updates = m.updates
    for sym in word:
        mask = tuple(1 if c == 0 else 0 for c in counters)
        key = (state, sym, mask)
        try:
            nxt = transition[key]
            ops = updates[key]
        except KeyError:
            raise ValueError(f"no transition for {key}") from None
        for i, op in enumerate(ops):
            if op == "+1":
                counters[i] += 1
            elif op == "-1":
                counters[i] -= 1
            elif op == "x0":
                counters[i] = 0
        state = nxt
        trace.append((state, tuple(counters)))
    final_mask = tuple(1 if c == 0 else 0 for c in counters)
    return (state, final_mask) in m.accepting, trace


CONN_ALPHABET = ("$", "0", "|", "#")

# state names for the connectivity machine
_Q0 = "q0"          # before the BOS marker
_QS = "q_s"         # reading the source block
_QB = "q_block"     # reading an i-block (or, it will turn out, the target block)
_QJE = "q_j_eq"     # reading a j-block after the edge source matched
_QJN = "q_j_ne"     # reading a j-block after the edge source did not match
_QACC = "q_acc"
_QREJ = "q_rej"


def build_conn_counter_machine() -> CounterMachine:
    """Single-pass connectivity checker over the unary edge-list encoding.

    Assumes the target node has no out-edge (as the reduction and the
    generators guarantee); the machine then accepts exactly when the unique
    walk from the source ends at the target.

    Three counters (S, I, T). S tracks the node currently reached from the
    source; each candidate-edge block decrements S while counting its length
    into I and T. If S hits zero at the block's separator the edge extends
    the path and the following j-block rebuilds S to the edge target;
    otherwise the j-block refills S from I (possible because edge targets
    are never below their sources). The final block plays the same S-drain
    role, so acceptance is simply S == 0 at the end marker. I is drained
    back to zero inside every j-block and T is write-only, so every update
    is an increment, decrement, or no-op; the machine never resets a
    counter whose value could be unbounded, which keeps it inside the
    fragment that a fixed ReLU network can simulate exactly.
    """
    states = (_Q0, _QS, _QB, _QJE, _QJN, _QACC, _QREJ)
    k = 3  # counters S, I, T
    transition = {}
    updates = {}
    noop = ("+0",) * k

    def add(state, sym, nxt, ops, mask_filter=None):
        for mask in _all_masks(k):
            if mask_filter is not None and not mask_filter(mask):
                continue
            transition[(state, sym, mask)] = nxt
            updates[(state, sym, mask)] = ops

    # default everything to the reject sink, then overwrite the live paths
    for state in states:
        for sym in CONN_ALPHABET:
            add(state, sym, _QREJ, noop)

    add(_Q0, "$", _QS, noop)
    add(_QS, "0", _QS, ("+1", "+0", "+0"))
    add(_QS, "|", _QB, noop)

    # candidate block: drain S, count length into I and T
    add(_QB, "0", _QB, ("-1", "+1", "+1"))
    # separator after a candidate block: branch on whether S reached zero
    add(_QB, "|", _QJE, noop, mask_filter=lambda z: z[0] == 1)
    add(_QB, "|", _QJN, noop, mask_filter=lambda z: z[0] == 0)
    # end marker: the block just read was the target block; accept iff S == 0
    add(_QB, "#", _QACC, noop, mask_filter=lambda z: z[0] == 1)
    add(_QB, "#", _QREJ, noop, mask_filter=lambda z: z[0] == 0)

    # source matched: rebuild S to the edge target, drain I
    add(_QJE, "0", _QJE, ("+1", "-1", "+0"), mask_filter=lambda z: z[1] == 0)
    add(_QJE, "0", _QJE, ("+1", "+0", "+0"), mask_filter=lambda z: z[1] == 1)
    add(_QJE, "|", _QB, noop)

    # source not matched: refill S from I, then idle
    add(_QJN, "0", _QJN, ("+1", "-1", "+0"), mask_filter=lambda z: z[1] == 0)
    add(_QJN, "0", _QJN, noop, mask_filter=lambda z: z[1] == 1)
    add(_QJN, "|", _QB, noop)

    accepting = frozenset(
        (_QACC, mask) for mask in _all_masks(k)
    )
    return CounterMachine(
        states=states,
        start=_Q0,
        alphabet=CONN_ALPHABET,
        n_counters=k,
        transition=transition,
        updates=updates,
        accepting=accepting,
    )


def _all_masks(k: int):
    return [tuple((m >> i) & 1 for i in range(k)) for m in range(1 << k)]


# ---------------------------------------------------------------------------
# Multi-stack machines

STACK_OPS = ("push0", "push1", "pop", "noop")

_HALF = Rational(1, 2)
_ONE = Rational(1)
_TWO = Rational(2)


@dataclass(frozen=True)
class StackMachine:
    """Real-time automaton over binary stacks encoded as rationals in [0, 2].

    Each stack is a single number: empty is 1, pushing bit v maps s to
    v + s/2, the head is 1 iff s >= 1, and popping a non-empty stack maps s
    to 2(s - head(s)); popping the empty stack is a no-op. Per-symbol ops
    and the state transition are chosen by (state, symbol, head bits).
    Acceptance is by accepting state only.
    """

    states: tuple
    start: str
    alphabet: tuple
    n_stacks: int
    transition: dict
    stack_ops: dict
    accepting: frozenset

    def describe(self) -> str:
        lines = [
            f"stack machine: {len(self.states)} states, {self.n_stacks} stacks,"
            f" alphabet {list(self.alphabet)}",
            f"start: {self.start}; accepting: {sorted(self.accepting)}",
        ]
        for key in sorted(self.transition, key=repr):
            lines.append(
                f"  {key[0]} --{key[1]!r}/heads={key[2]}--> {self.transition[key]}"
                f"  ops={self.stack_ops[key]}"
            )
        return "\n".join(lines)


def stack_head(s: Rational) -> int:
    return 1 if s >= _ONE else 0


def stack_is_empty(s: Rational) -> bool:
    """The empty stack also has head 1, so popping branches on this flag."""
    return s == _ONE


def stack_push(s: Rational, bit: int) -> Rational:
    return Rational(bit) + _HALF * s


def stack_pop(s: Rational) -> Rational:
    if stack_is_empty(s):
        return s
    return _TWO * (s - Rational(stack_head(s)))


def apply_stack_op(s: Rational, op: str) -> Rational:
    if op == "push0":
        return stack_push(s, 0)
    if op == "push1":
        return stack_push(s, 1)
    if op == "pop":
        return stack_pop(s)
    if op == "noop":
        return s
    raise ValueError(f"unknown stack op {op!r}")


def sm_run(m: StackMachine, word):
    """Run a stack machine; returns (accept, trace of (state, stacks))."""
    state = m.start
    stacks = [_ONE] * m.n_stacks
    trace = [(state, tuple(stacks))]
    for sym in word:
        heads = tuple(stack_head(s) for s in stacks)
        key = (state, sym, heads)
        try:
            nxt = m.transition[key]
            ops = m.stack_ops[key]
        except KeyError:
            raise ValueError(f"no transition for {key}") from None
        stacks = [apply_stack_op(s, op) for s, op in zip(stacks, ops)]
        state = nxt
        trace.append((state, tuple(stacks)))
    return state in m.accepting, trace


def scripted_stack_machine(n_stacks: int, ops_alphabet) -> StackMachine:
    """One-state machine whose symbols are tuples of per-stack ops."""
    transition = {}
    stack_ops = {}
    q = "run"
    for sym in ops_alphabet:
        if len(sym) != n_stacks:
            raise ValueError("op tuple arity mismatch")
        for heads_bits in range(1 << n_stacks):
            heads = tuple((heads_bits >> i) & 1 for i in range(n_stacks))
            transition[(q, sym, heads)] = q
            stack_ops[(q, sym, heads)] = sym
    return StackMachine(
        states=(q,),
        start=q,
        alphabet=tuple(ops_alphabet),
        n_stacks=n_stacks,
        transition=transition,
        stack_ops=stack_ops,
        accepting=frozenset((q,)),
    )


# ---------------------------------------------------------------------------
# Word-function matrix demo


def hankel_identity_rank(k: int) -> int:
    """Rank of the k x k prefix/suffix membership block for connectivity
    instances with no edges (row = declared source, column = declared
    target). The block is expected to be the identity, hence full rank.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    from .problems import SortedDetConnInstance, conn_oracle

    rows = []
    for s in range(1, k + 1):
        row = []
        for t in range(1, k + 1):
            inst = SortedDetConnInstance(n=k, s=s, t=t, edges=())
            row.append(Rational(1 if conn_oracle(inst) else 0))
        rows.append(row)
    return exact_rank(RMatrix(rows))


def exact_rank(m: RMatrix) -> int:
    """Rank over the rationals by exact Gaussian elimination."""
    zero = Rational(0)
    a = m.tolists()
    rows, cols = len(a), len(a[0])
    rank = 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c] != zero), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = a[r][c]
        for i in range(r + 1, rows):
            if a[i][c] != zero:
                f = a[i][c] / inv
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        rank += 1
        if r == rows:
            break
    return rank
