"""Linear recurrences with input-dependent transitions.

A step is (A, B): state update S_t = A_t S_{t-1} + B_t over d x d rational
matrices (rank-one additive terms are stored dense). Three evaluation
strategies are provided - sequential, convolutional (direct unrolled sums),
and a balanced prefix scan with combine/depth metering - plus the
structured step families (diagonal-plus-rank-one and permutation-diagonal),
and the compilation of column-deterministic weighted automata into
one-layer permutation-diagonal recognizers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Wfa, wfa_is_deterministic
from .linalg import (
    RMatrix,
    RVector,
    RelaxedPermutation,
    perm_apply_diag,
    perm_compose,
    row_apply,
)
from .rational import Rational

_ZERO = Rational(0)


@dataclass(frozen=True)
class LinStep:
    """One step of the recurrence S_t = A S_{t-1} + B; the additive term
    is a full d x d matrix."""

    A: RMatrix
    B: RMatrix

    def __post_init__(self):
        d = self.A.rows
        if self.A.cols != d or self.B.rows != d or self.B.cols != d:
            raise ValueError("step matrices must be square and same size")

    @property
    def dim(self) -> int:
        return self.A.rows


def combine_steps(first: LinStep, second: LinStep) -> LinStep:
    """Composition 'apply first, then second' as a single step."""
    return LinStep(second.A @ first.A, second.A @ first.B + second.B)


@dataclass(frozen=True)
class ScanStats:
    combine_count: int
    depth: int


def lrnn_run_sequential(steps, s0: RMatrix | None = None) -> list:
    """States S_1..S_n of the recurrence, S_0 defaulting to the zero matrix."""
    if not steps:
        return []
    d = steps[0].dim
    state = RMatrix.zeros(d, d) if s0 is None else s0
    out = []
    for step in steps:
        if step.dim != d:
            raise ValueError("inconsistent step dimension")
        state = step.A @ state + step.B
        out.append(state)
    return out


def lrnn_run_conv(steps, queries, inputs, read: str = "current") -> list:
    """Outputs y_t = x_t + q_t^T S via the unrolled convolutional sums.

    Each S is rebuilt per position as sum_j (A_t ... A_{j+1}) B_j, with no
    state carried between positions; this is the direct closed-form route
    used to cross-check the sequential evaluation. ``read`` selects whether
    the readout sees the state after the current step ("current") or before
    it ("prev").
    """
    if read not in ("current", "prev"):
        raise ValueError("read must be 'current' or 'prev'")
    n = len(steps)
    if not (len(queries) == len(inputs) == n):
        raise ValueError("steps, queries, inputs must align")
    if n == 0:
        return []
    d = steps[0].dim
    out = []
    for t in range(1, n + 1):
        upto = t if read == "current" else t - 1
        state = RMatrix.zeros(d, d)
        suffix = RMatrix.identity(d)
        for j in range(upto, 0, -1):
            state = state + suffix @ steps[j - 1].B
            suffix = suffix @ steps[j - 1].A
        out.append(inputs[t - 1] + row_apply(queries[t - 1], state))
    return out


def prefix_scan(items, combine):
    """All prefix folds of an associative combine, evaluated as a balanced
    tree; returns (prefixes, ScanStats). Depth is the longest chain of
    combines feeding any output; a single item has depth 0.
    """
    counter = [0]

    def merge(a, b):
        counter[0] += 1
        return combine(a[0], b[0]), max(a[1], b[1]) + 1

    def rec(lo, hi):
        if hi - lo == 1:
            return [(items[lo], 0)]
        mid = (lo + hi) // 2
        left = rec(lo, mid)
        right = rec(mid, hi)
        total = left[-1]
        return left + [merge(total, r) for r in right]

    if not items:
        return [], ScanStats(0, 0)
    tagged = rec(0, len(items))
    depth = max(d for _, d in tagged)
    return [v for v, _ in tagged], ScanStats(counter[0], depth)


def balanced_reduce(items, combine):
    """Fold of an associative combine as a balanced tree, with stats."""
    counter = [0]

    def merge(a, b):
        counter[0] += 1
        return combine(a[0], b[0]), max(a[1], b[1]) + 1

    def rec(lo, hi):
        if hi - lo == 1:
            return items[lo], 0
        mid = (lo + hi) // 2
        return merge(rec(lo, mid), rec(mid, hi))

    if not items:
        raise ValueError("reduce of empty sequence")
    value, depth = rec(0, len(items))
    return value, ScanStats(counter[0], depth)


def lrnn_run_scan(steps, s0: RMatrix | None = None):
    """States via balanced prefix scan; bit-identical to sequential."""
    if not steps:
        return [], ScanStats(0, 0)
    d = steps[0].dim
    prefixes, stats = prefix_scan(list(steps), combine_steps)
    if s0 is None:
        states = [p.B for p in prefixes]
    else:
        states = [p.A @ s0 + p.B for p in prefixes]
    return states, stats


# ---------------------------------------------------------------------------
# Structured step families


@dataclass(frozen=True)
class RwkvStep:
    """Per-token head parameters: transition diag(w) - lambda kappa (a*kappa)^T
    with additive term v k~^T. The removal strength lambda is a scalar."""

    w: RVector
    a: RVector
    kappa: RVector
    lam: Rational
    v: RVector
    k_tilde: RVector

    def __post_init__(self):
        d = len(self.w)
        for vec in (self.a, self.kappa, self.v, self.k_tilde):
            if len(vec) != d:
                raise ValueError("head parameter dimensions disagree")


def rwkv_transition(s: RwkvStep) -> LinStep:
    low_rank = RMatrix.outer(s.kappa, s.a.hadamard(s.kappa)).scaled(s.lam)
    a_mat = RMatrix.diag(list(s.w)) - low_rank
    b_mat = RMatrix.outer(s.v, s.k_tilde)
    return LinStep(a_mat, b_mat)


@dataclass(frozen=True)
class DeltaNetStep:
    """Per-token head parameters: transition I - beta k k^T (symmetric),
    additive term beta v k^T."""

    beta: Rational
    k: RVector
    v: RVector

    def __post_init__(self):
        if len(self.k) != len(self.v):
            raise ValueError("head parameter dimensions disagree")


def deltanet_transition(s: DeltaNetStep) -> LinStep:
    a_mat = RMatrix.identity(len(s.k)) - RMatrix.outer(s.k, s.k).scaled(s.beta)
    b_mat = RMatrix.outer(s.v, s.k).scaled(s.beta)
    return LinStep(a_mat, b_mat)


@dataclass(frozen=True)
class PdStep:
    """Transition P D: column-one-hot routing times a diagonal."""

    pi: RelaxedPermutation
    d: RVector

    def __post_init__(self):
        if self.pi.dim != len(self.d):
            raise ValueError("permutation/diagonal dimensions disagree")

    @property
    def dim(self) -> int:
        return self.pi.dim

    def to_matrix(self) -> RMatrix:
        return self.pi.to_matrix() @ RMatrix.diag(list(self.d))


def pd_transition(s: PdStep) -> LinStep:
    d = s.dim
    return LinStep(s.to_matrix(), RMatrix.zeros(d, d))


def pd_multiply(first: PdStep, second: PdStep) -> PdStep:
    """Product (P1 D1)(P2 D2) back in P-D form.

    The diagonal commutes past the routing matrix at the price of permuting
    its entries: D P = P perm(D), so the product is (P1 P2) applied to
    perm-adjusted diagonals.
    """
    if first.dim != second.dim:
        raise ValueError("dimension mismatch")
    pi = perm_compose(first.pi, second.pi)
    diag = perm_apply_diag(second.pi, first.d).hadamard(second.d)
    return PdStep(pi, diag)


def pd_closed_form(steps) -> PdStep:
    """Closed form of a product of P-D steps: the routing part is the
    composition of all routings, and each step's diagonal is permuted by
    the composition of all *later* routings before everything is multiplied
    entrywise.
    """
    steps = list(steps)
    if not steps:
        raise ValueError("empty product has no fixed dimension")
    d = steps[0].dim
    pi_total = steps[0].pi
    for s in steps[1:]:
        pi_total = perm_compose(pi_total, s.pi)
    suffix = RelaxedPermutation.identity(d)
    diag = RVector.ones(d)
    for s in reversed(steps):
        diag = diag.hadamard(perm_apply_diag(suffix, s.d))
        suffix = perm_compose(s.pi, suffix)
    return PdStep(pi_total, diag)


def pd_tree_product(steps):
    """Balanced-tree product over the P-D monoid, with stats."""
    value, stats = balanced_reduce(list(steps), pd_multiply)
    return value, stats


def pd_row_apply(r: RVector, s: PdStep) -> RVector:
    """Row vector times P D in O(d): out[j] = r[pi(j)] * d[j]."""
    from .kernels import rmul

    tgt = s.pi.target
    nums, dens = [], []
    for j in range(len(tgt)):
        n, dd = rmul(r.nums[tgt[j]], r.dens[tgt[j]], s.d.nums[j], s.d.dens[j])
        nums.append(n)
        dens.append(dd)
    return RVector._raw(nums, dens)


# ---------------------------------------------------------------------------
# Column-deterministic weighted automata as one-layer P-D recognizers


@dataclass(frozen=True)
class PdRecognizer:
    """One-layer P-D recurrence plus readout; the row state starts at the
    automaton's initial weights and reads one step per symbol of the word,
    which carries no BOS marker (any symbol outside ``steps`` is a
    ``ValueError``)."""

    dim: int
    steps: dict
    init_row: RVector
    readout: RVector

    def state_after(self, word) -> RVector:
        row = self.init_row
        for sym in word:
            try:
                step = self.steps[sym]
            except (KeyError, TypeError):  # TypeError: an unhashable symbol
                raise ValueError(f"unknown symbol {sym!r}") from None
            row = pd_row_apply(row, step)
        return row

    def value(self, word) -> Rational:
        return self.state_after(word).dot(self.readout)

    def accepts(self, word) -> bool:
        return self.value(word) > _ZERO


def dwfa_to_pd(a: Wfa) -> PdRecognizer:
    """Compile a column-deterministic weighted automaton into a one-layer
    P-D recognizer: each symbol's routing sends output state j to the unique
    source state feeding it, and the diagonal carries that transition's
    weight. Acceptance is value > 0, matching the automaton's threshold.
    """
    if not wfa_is_deterministic(a):
        raise ValueError("automaton is not column-deterministic")
    n = a.n_states
    steps = {}
    for sym in a.alphabet:
        m = a.matrices[sym]
        target = []
        diag = []
        for j in range(n):
            src = next((i for i in range(n) if m[i, j] != _ZERO), None)
            if src is None:
                target.append(j)
                diag.append(_ZERO)
            else:
                target.append(src)
                diag.append(m[src, j])
        steps[sym] = PdStep(RelaxedPermutation(tuple(target)), RVector(diag))
    return PdRecognizer(
        dim=n, steps=steps, init_row=a.alpha.copy(), readout=a.omega.copy()
    )


# ---------------------------------------------------------------------------
# Trace dump: one line per step, row-major rationals


def dump_steps(steps) -> str:
    lines = []
    for s in steps:
        avals = " ".join(str(v) for v in s.A.entries())
        bvals = " ".join(str(v) for v in s.B.entries())
        lines.append(f"A {avals} ; B {bvals}")
    return "\n".join(lines) + "\n"


def parse_steps(text: str) -> list:
    """The steps of a ``dump_steps`` text; ``ValueError`` on a malformed
    step line, a blank line between steps included."""
    steps = []
    for line in text.strip().splitlines():
        apart, _, bpart = line.partition(";")
        avals = [Rational.parse(tok) for tok in apart.split()[1:]]
        bvals = [Rational.parse(tok) for tok in bpart.split()[1:]]
        d = int(round(len(avals) ** 0.5))
        if not avals or d * d != len(avals) or len(bvals) != len(avals):
            raise ValueError(f"malformed step line {line!r}")
        a = RMatrix([avals[i * d : (i + 1) * d] for i in range(d)])
        b = RMatrix([bvals[i * d : (i + 1) * d] for i in range(d)])
        steps.append(LinStep(a, b))
    return steps
