"""Construction-vs-oracle verification registry.

Each named verification runs one construction against an independent
reference (brute-force product, automaton run, breadth-first search, dense
linear algebra) for a number of seeded trials and reports the first
counterexample, if any, with full token streams and canonical rational
values so failures replay standalone. A verb checks its size flags and
does its one-time setup; ``_run_trials`` then runs its per-trial check,
trial t on the stream ``rng_for(seed, name, t)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .automata import (
    Wfa,
    build_conn_counter_machine,
    cm_run,
    scripted_stack_machine,
    sm_run,
    wfa_eval,
    wfa_prefix_values,
    wfa_is_deterministic,
)
from .delta_gadgets import (
    apply_matrix_program, build_dnet_imm, build_dnet_wfa, dnet_imm_forward, dnet_wfa_forward
)
from .linalg import RMatrix, RVector, RelaxedPermutation
from .lrnn import (
    LinStep,
    PdStep,
    dwfa_to_pd,
    lrnn_run_scan,
    lrnn_run_sequential,
    pd_closed_form,
    pd_tree_product,
)
from .problems import (
    IDENTITY3,
    conn_oracle,
    encode_conn_unary,
    mat3_mul,
    random_sorted_instance,
    reachable,
    reduce_to_sorted,
    rng_for,
)
from .rational import Rational
from .relu_nets import cm_to_mlp_rnn, run_mlp_rnn, sm_to_mlp_rnn
from .rwkv_gadgets import build_rwkv_imm, build_rwkv_wfa, rwkv_imm_forward, rwkv_wfa_forward

WFA_ENTRIES = [Rational(-1), Rational(-1, 2), Rational(0), Rational(1, 2), Rational(1)]


@dataclass
class VerifyResult:
    name: str
    trials: int
    passed: bool
    counterexample: str | None = None


_SYMBOLS = "abcdefgh"


def _check_wfa_size(n_states: int, n_symbols: int):
    if n_states < 1:
        raise ValueError(f"n_states must be >= 1, got {n_states}")
    if not 1 <= n_symbols <= len(_SYMBOLS):
        raise ValueError(f"n_symbols must be in 1..{len(_SYMBOLS)}, got {n_symbols}")


def random_wfa(rng, n_states: int, n_symbols: int) -> Wfa:
    """Automaton over the first ``n_symbols`` letters of "abcdefgh", entries
    drawn from ``WFA_ENTRIES``; ``ValueError`` unless n_states >= 1 and
    1 <= n_symbols <= 8."""
    _check_wfa_size(n_states, n_symbols)
    sigma = tuple(_SYMBOLS[:n_symbols])
    mats = {
        s: RMatrix(
            [[rng.choice(WFA_ENTRIES) for _ in range(n_states)] for _ in range(n_states)]
        )
        for s in sigma
    }
    alpha = RVector([rng.choice(WFA_ENTRIES) for _ in range(n_states)])
    omega = RVector([rng.choice(WFA_ENTRIES) for _ in range(n_states)])
    return Wfa(n_states, sigma, mats, alpha, omega)


def random_dwfa(rng, n_states: int, n_symbols: int) -> Wfa:
    """Column-deterministic automaton: each matrix is routing times diagonal.
    ``ValueError`` unless n_states >= 1 and 1 <= n_symbols <= 8."""
    _check_wfa_size(n_states, n_symbols)
    sigma = tuple(_SYMBOLS[:n_symbols])
    nonzero = [v for v in WFA_ENTRIES if v != Rational(0)]
    mats = {}
    for s in sigma:
        m = RMatrix.zeros(n_states, n_states)
        for j in range(n_states):
            if rng.random() < 0.9:
                i = rng.randrange(n_states)
                w = rng.choice(nonzero)
                m.nums[i * n_states + j] = w.num
                m.dens[i * n_states + j] = w.den
        mats[s] = m
    alpha = RVector.zeros(n_states)
    alpha.nums[rng.randrange(n_states)] = 1
    omega = RVector([rng.choice(WFA_ENTRIES) for _ in range(n_states)])
    wfa = Wfa(n_states, sigma, mats, alpha, omega)
    assert wfa_is_deterministic(wfa)
    return wfa


def _check_at_least(flag: str, value: int, low: int):
    """A verb's size flag, checked before any draw: ``ValueError`` naming
    the flag unless ``value`` >= ``low``."""
    if value < low:
        raise ValueError(f"{flag} must be >= {low}, got {value}")


def _check_verb_sizes(states, length, alphabet=None):
    """The size flags of a verb that draws automata, checked before any
    draw: ``ValueError`` naming the flag."""
    _check_at_least("--states", states, 1)
    if alphabet is not None and not 1 <= alphabet <= len(_SYMBOLS):
        raise ValueError(f"--alphabet must be in 1..{len(_SYMBOLS)}, got {alphabet}")
    if length is not None:
        _check_at_least("--len", length, 0)


def _dump_stream(word) -> str:
    return " ".join(str(tok) for tok in word)


def _dump_wfa(a: Wfa) -> str:
    lines = [f"states={a.n_states} alphabet={list(a.alphabet)}"]
    lines.append("alpha=" + str(a.alpha))
    lines.append("omega=" + str(a.omega))
    for sym in a.alphabet:
        lines.append(f"M[{sym!r}]=" + str(a.matrices[sym]))
    return "\n".join(lines)


def _run_trials(name, trials, seed, check) -> VerifyResult:
    """The trial protocol of every verb: trial t calls ``check(rng, t)`` on
    its own stream ``rng_for(seed, name, t)``, and the first counterexample
    text it returns (``None`` when the trial passes) ends the run. Checks
    ``trials`` >= 1 first."""
    _check_at_least("--trials", trials, 1)
    for trial in range(trials):
        text = check(rng_for(seed, name, trial), trial)
        if text is not None:
            return VerifyResult(name, trial + 1, False, text)
    return VerifyResult(name, trials, True)


def _wfa_mismatch(trial, a: Wfa, word, got, locate=lambda t: "") -> str | None:
    """The counterexample for network prefix values ``got`` on ``word``, or
    ``None`` when they equal the automaton's; ``locate(t)`` says where in
    the network the first wrong prefix, number t + 1, falls."""
    want = wfa_prefix_values(a, word)
    if got == want:
        return None
    t = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
    return (
        f"trial {trial}: word={_dump_stream(word)}\n"
        f"prefix {t + 1}{locate(t)}: expected {want[t]} actual {got[t]}\n" + _dump_wfa(a)
    )


def _imm_mismatch(trial, stream, got, header="") -> str | None:
    """The counterexample for a network's product entries ``got`` on
    ``stream``, or ``None`` when they equal the brute-force product."""
    p = IDENTITY3
    for base in range(0, len(stream), 9):
        p = mat3_mul(p, tuple(stream[base : base + 9]))
    want = [Rational(e) for e in p]
    if got == want:
        return None
    return (
        f"trial {trial}: {header}stream={_dump_stream(stream)}\n"
        f"expected {[str(v) for v in want]}\nactual   {[str(v) for v in got]}"
    )


# ---------------------------------------------------------------------------
# Verifiers


def verify_rwkv_wfa(trials=50, seed=0, states=3, alphabet=3, length=None):
    _check_verb_sizes(states, length, alphabet)

    def check(rng, trial):
        n = rng.randint(1, states)
        a = random_wfa(rng, n, rng.randint(1, alphabet))
        max_len = length if length is not None else 6 * (2 * n)
        word = [rng.choice(a.alphabet) for _ in range(rng.randint(0, max_len))]
        return _wfa_mismatch(trial, a, word, rwkv_wfa_forward(build_rwkv_wfa(a), word))

    return _run_trials("rwkv-wfa", trials, seed, check)


def verify_dnet_wfa(trials=50, seed=0, states=3, alphabet=3, length=None):
    _check_verb_sizes(states, length, alphabet)

    def check(rng, trial):
        n = rng.randint(1, states)
        a = random_wfa(rng, n, rng.randint(1, alphabet))
        m = 8 * n * n + 5 * n + 1
        max_len = length if length is not None else 2 * m + rng.randint(1, 12)
        word = [rng.choice(a.alphabet) for _ in range(max_len)]

        def locate(t):
            phase = apply_matrix_program(RMatrix.identity(n)).phase_of(t % m)
            return f" (phase {phase}, program step {t % m + 1} of block {t // m + 1})"

        return _wfa_mismatch(trial, a, word, dnet_wfa_forward(build_dnet_wfa(a), word), locate)

    return _run_trials("dnet-wfa", trials, seed, check)


def verify_rwkv_imm(trials=20, seed=0, blocks=20):
    _check_at_least("--blocks", blocks, 1)

    def check(rng, trial):
        stream = [rng.choice((-1, 0, 1)) for _ in range(9 * rng.randint(1, blocks))]
        return _imm_mismatch(trial, stream, rwkv_imm_forward(build_rwkv_imm(), stream))

    return _run_trials("rwkv-imm", trials, seed, check)


def verify_dnet_imm(trials=3, seed=0, blocks=100):
    """Trial 0 streams exactly ``blocks`` matrices, so from 79 on it runs a
    compiled 78-matrix superblock program; later trials draw 1..blocks."""
    _check_at_least("--blocks", blocks, 1)
    net = build_dnet_imm()

    def check(rng, trial):
        n = rng.randint(1, blocks) if trial else blocks
        stream = [rng.choice((-1, 0, 1)) for _ in range(9 * n)]
        got = dnet_imm_forward(net, stream)
        return _imm_mismatch(trial, stream, got, f"{len(stream) // 9} matrices\n")

    return _run_trials("dnet-imm", trials, seed, check)


def verify_cm_rnn(trials=200, seed=0, nodes=200, mlp_trials=20):
    _check_at_least("--nodes", nodes, 2)
    _check_at_least("--mlp-trials", mlp_trials, 0)
    machine = build_conn_counter_machine()
    rnn = cm_to_mlp_rnn(machine)

    def check(rng, trial):
        inst = random_sorted_instance(rng, max_n=nodes)
        stream = encode_conn_unary(inst)
        want = conn_oracle(inst)
        got, trace = cm_run(machine, stream)
        if got != want:
            return (
                f"trial {trial}: instance={inst}\nstream={_dump_stream(stream)}\n"
                f"expected {int(want)} actual {int(got)}"
            )
        if trial >= mlp_trials:
            return None
        res = run_mlp_rnn(rnn, stream, track_precision=False)
        if res.accept != want:
            return (
                f"trial {trial}: network decision {int(res.accept)}"
                f" != oracle {int(want)}\nstream={_dump_stream(stream)}"
            )
        for t, (h, conf) in enumerate(zip(res.states, trace)):
            if rnn.decode(h) != conf:
                return (
                    f"trial {trial}: trace diverges at step {t}:"
                    f" machine {conf} network {rnn.decode(h)}\n"
                    f"stream={_dump_stream(stream)}"
                )

    return _run_trials("cm-rnn", trials, seed, check)


STACK_OP_PAIRS = tuple(
    (a, b)
    for a in ("push0", "push1", "pop", "noop")
    for b in ("push0", "push1", "pop", "noop")
)


def symbolic_stack_oracle(ops):
    """List-based stacks mapped through the halving encoding; returns the
    per-step encoded stack tuples for a 2-stack op program."""
    stacks = ([], [])
    out = [tuple(_encode_bits(s) for s in stacks)]
    for pair in ops:
        for s, op in zip(stacks, pair):
            if op == "push0":
                s.append(0)
            elif op == "push1":
                s.append(1)
            elif op == "pop":
                if s:
                    s.pop()
        out.append(tuple(_encode_bits(s) for s in stacks))
    return out


def _encode_bits(bits) -> Rational:
    s = Rational(1)
    for b in bits:
        s = Rational(b) + Rational(1, 2) * s
    return s


def verify_sm_rnn(trials=50, seed=0, length=100):
    _check_at_least("--len", length, 0)
    machine = scripted_stack_machine(2, STACK_OP_PAIRS)
    rnn = sm_to_mlp_rnn(machine)

    def check(rng, trial):
        prog = [rng.choice(STACK_OP_PAIRS) for _ in range(length)]
        _, trace = sm_run(machine, prog)
        for t, ((_, stacks), want) in enumerate(zip(trace, symbolic_stack_oracle(prog))):
            if stacks != want:
                return (
                    f"trial {trial}: symbolic oracle diverges at step {t}\n"
                    f"program={_dump_stream(prog)}\n"
                    f"expected {tuple(str(v) for v in want)}"
                    f" actual {tuple(str(v) for v in stacks)}"
                )
        res = run_mlp_rnn(rnn, prog, track_precision=False)
        for t, (h, conf) in enumerate(zip(res.states, trace)):
            if rnn.decode(h) != conf:
                return (
                    f"trial {trial}: network trace diverges at step {t}\n"
                    f"program={_dump_stream(prog)}"
                )

    return _run_trials("sm-rnn", trials, seed, check)


def random_pd_step(rng, d: int) -> PdStep:
    pi = RelaxedPermutation(tuple(rng.randrange(d) for _ in range(d)))
    diag = RVector([rng.choice(WFA_ENTRIES) for _ in range(d)])
    return PdStep(pi, diag)


def verify_pd_product(trials=200, seed=0, dim=5, length=64):
    _check_at_least("--dim", dim, 1)
    _check_at_least("--len", length, 1)

    def check(rng, trial):
        d = rng.randint(1, dim)
        n = rng.randint(1, length)
        steps = [random_pd_step(rng, d) for _ in range(n)]
        dense = RMatrix.identity(d)
        for s in steps:
            dense = dense @ s.to_matrix()
        closed = pd_closed_form(steps).to_matrix()
        tree = pd_tree_product(steps)[0].to_matrix()
        if closed != dense or tree != dense:
            return (
                f"trial {trial}: d={d} n={n}\nsteps={steps}\n"
                f"dense={dense}\nclosed={closed}\ntree={tree}"
            )

    return _run_trials("pd-product", trials, seed, check)


def verify_dwfa_pd(trials=20, seed=0, states=4, words=500, length=24):
    _check_verb_sizes(states, length)
    _check_at_least("--words", words, 1)

    def check(rng, trial):
        a = random_dwfa(rng, rng.randint(1, states), rng.randint(1, 3))
        rec = dwfa_to_pd(a)
        for w_idx in range(words):
            word = [rng.choice(a.alphabet) for _ in range(rng.randint(0, length))]
            value = wfa_eval(a, word)
            want = value > Rational(0)
            got = rec.accepts(word)
            if got != want:
                return (
                    f"trial {trial} word {w_idx}: word={_dump_stream(word)}\n"
                    f"value={value} expected accept={want} actual={got}\n" + _dump_wfa(a)
                )

    return _run_trials("dwfa-pd", trials, seed, check)


def random_det_graph(rng, max_n=12):
    """Arbitrary deterministic graph: one out-edge for a subset of nodes,
    target chosen without its own out-edge."""
    n = rng.randint(2, max_n)
    t = rng.randint(1, n)
    edges = []
    for i in range(1, n + 1):
        if i != t and rng.random() < 0.7:
            edges.append((i, rng.randint(1, n)))
    s = rng.randint(1, n)
    return n, tuple(edges), s, t


def verify_reduction(trials=500, seed=0):
    def check(rng, trial):
        n, edges, s, t = random_det_graph(rng)
        inst = reduce_to_sorted(n, edges, s, t)
        want = reachable(edges, s, t)
        got = conn_oracle(inst)
        bfs_out = reachable(inst.edges, inst.s, inst.t)
        sources = [i for i, _ in inst.edges]
        sorted_ok = all(a < b for a, b in zip(sources, sources[1:]))
        if got != want or bfs_out != want or not sorted_ok:
            return (
                f"trial {trial}: graph n={n} edges={edges} s={s} t={t}\n"
                f"expected {want} chased {got} bfs {bfs_out} sorted {sorted_ok}"
            )

    return _run_trials("reduction", trials, seed, check)


def random_linstep(rng, d: int) -> LinStep:
    a = RMatrix([[rng.choice(WFA_ENTRIES) for _ in range(d)] for _ in range(d)])
    b = RMatrix([[rng.choice(WFA_ENTRIES) for _ in range(d)] for _ in range(d)])
    return LinStep(a, b)


def verify_scan_depth(trials=200, seed=0, dim=4, length=64, depth_lengths=(1024, 4096)):
    name = "scan-depth"
    _check_at_least("--dim", dim, 1)
    _check_at_least("--len", length, 1)

    def check(rng, trial):
        d = rng.randint(1, dim)
        n = rng.randint(1, length)
        steps = [random_linstep(rng, d) for _ in range(n)]
        seq = lrnn_run_sequential(steps)
        scan, stats = lrnn_run_scan(steps)
        bound = 2 * math.ceil(math.log2(n)) if n > 1 else 0
        if scan != seq:
            return f"trial {trial}: scan != sequential at n={n} d={d}"
        if stats.depth > bound:
            return f"trial {trial}: depth {stats.depth} exceeds bound {bound} at n={n}"

    result = _run_trials(name, trials, seed, check)
    if not result.passed:
        return result
    rng = rng_for(seed, name, "depth")
    for n in depth_lengths:
        _, stats = lrnn_run_scan([random_linstep(rng, 1) for _ in range(n)])
        bound = 2 * math.ceil(math.log2(n))
        if stats.depth > bound:
            text = f"depth {stats.depth} exceeds bound {bound} at n={n}"
            return VerifyResult(name, trials, False, text)
    return result


REGISTRY = {
    "rwkv-wfa": (
        "coordinate-overwrite network tracks weighted-automaton prefix values",
        verify_rwkv_wfa,
    ),
    "rwkv-imm": (
        "18-coordinate overwrite network computes iterated 3x3 products",
        verify_rwkv_imm,
    ),
    "dnet-wfa": (
        "symmetric-step network tracks weighted-automaton prefix values",
        verify_dnet_wfa,
    ),
    "dnet-imm": (
        "19-coordinate symmetric-step network computes iterated 3x3 products",
        verify_dnet_imm,
    ),
    "cm-rnn": (
        "counter machine solves connectivity; ReLU network mirrors its trace",
        verify_cm_rnn,
    ),
    "sm-rnn": (
        "stack encodings match list oracle; ReLU network mirrors the machine",
        verify_sm_rnn,
    ),
    "pd-product": (
        "permutation-diagonal closed form and tree product match dense products",
        verify_pd_product,
    ),
    "dwfa-pd": (
        "compiled one-layer recognizer matches automaton threshold decisions",
        verify_dwfa_pd,
    ),
    "reduction": (
        "layered copy reduction preserves reachability and sortedness",
        verify_reduction,
    ),
    "scan-depth": (
        "balanced scan equals sequential evaluation within the depth bound",
        verify_scan_depth,
    ),
}
