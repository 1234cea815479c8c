"""Construction-vs-oracle verification: one record per verb.

``REGISTRY`` maps each verb to a ``Verb``: a description, its flags as
(default, lower bound, upper bound), ``draw(rng, trial, sizes)`` for one
trial's instance, ``run(instance)`` for the construction's outputs, and
``oracle(instance)`` for those of an independent reference (brute-force
product, automaton run, breadth-first search, dense linear algebra).
``run_trials`` checks every flag before any draw (a ``ValueError``, CLI
exit 2), draws trial t from ``rng_for(seed, name, t)`` and compares the
outputs with tolerance 0. The first mismatch, or exception raised by
``run``, is a counterexample: the trial, the first differing output (or
the exception's type), and the instance as canonical JSON with "num/den"
rationals, so that it replays standalone. Any other exception propagates
(CLI exit 3).

Upper bounds sit only on flags that size a dense d x d structure or a
long stream; trial counts and lengths that only cost time are unbounded.
Each bound keeps one trial, at the verb's other defaults, under a 256 MB
budget (peak RSS, CPython 3.11, x86-64):

- ``pd-product --dim`` <= 1024: dense d x d products, about 95 MB
  (extrapolated from d = 400 at 89 bytes per entry);
- ``dwfa-pd --states`` <= 1024: three dense n x n symbol matrices, 70 MB;
- ``rwkv-wfa --states`` and ``dnet-wfa --states`` <= 20: dnet-wfa's default
  word has 2(8n^2 + 5n + 1) tokens, and the run and the oracle each hold a
  prefix value per token whose bits grow with the prefix, 106 MB at n = 20
  (30 and 55 MB at n = 12 and 16);
- ``rwkv-wfa --len`` and ``dnet-wfa --len`` <= 8192, above every default
  word (6614 tokens at most): memory grows faster than the word, and one
  dnet-wfa trial at n = 20 and 8192 tokens peaked at 113 MB;
- ``scan-depth --dim`` <= ``MAX_SCAN_DIM`` = 64, which also bounds
  ``report depth --dim`` and the step dimension of a ``report depth
  --trace`` dump, checked before any scan: d x d steps and states, 95 MB
  at ``--len`` 64, linear in the length (in n, or in the dump's step
  count, for ``report depth``);
- ``cm-rnn --nodes`` <= 16384: up to 18 tokens per node, and a network
  state per token, 225 MB.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable

from .automata import (
    Wfa, build_conn_counter_machine, cm_run, scripted_stack_machine, sm_run, wfa_eval,
    wfa_is_deterministic, wfa_prefix_values,
)
from .delta_gadgets import (
    apply_matrix_program, build_dnet_imm, build_dnet_wfa, dnet_imm_forward, dnet_wfa_forward
)
from .linalg import RMatrix, RVector, RelaxedPermutation
from .lrnn import (
    LinStep, PdStep, dwfa_to_pd, lrnn_run_scan, lrnn_run_sequential, pd_closed_form,
    pd_tree_product,
)
from .problems import (
    conn_oracle, encode_conn_unary, imm_product, random_sorted_instance, reachable,
    reduce_to_sorted, rng_for,
)
from .rational import Rational
from .relu_nets import cm_to_mlp_rnn, run_mlp_rnn, sm_to_mlp_rnn
from .rwkv_gadgets import build_rwkv_imm, build_rwkv_wfa, rwkv_imm_forward, rwkv_wfa_forward

WFA_ENTRIES = [Rational(-1), Rational(-1, 2), Rational(0), Rational(1, 2), Rational(1)]
MAX_SCAN_DIM = 64
# the lengths of scan-depth's dimension-1 traces, drawn once per run from
# the stream keyed "depth"
DEPTH_LENGTHS = (1024, 4096)


@dataclass
class VerifyResult:
    name: str
    trials: int
    passed: bool
    counterexample: str | None = None


@dataclass(frozen=True)
class Verb:
    """One verb: ``flags`` maps each flag's name ("mlp_trials" for
    ``--mlp-trials``) to (default, lower bound, upper bound or None).
    ``where(instance, i)``, if given, says what output i is; ``extra``
    names streams drawn once after the trials."""

    about: str
    flags: dict
    draw: Callable
    run: Callable
    oracle: Callable
    where: Callable | None = None
    extra: tuple = ()


_SYMBOLS = "abcdefgh"


def _check_wfa_size(n_states: int, n_symbols: int):
    if n_states < 1:
        raise ValueError(f"n_states must be >= 1, got {n_states}")
    if not 1 <= n_symbols <= len(_SYMBOLS):
        raise ValueError(f"n_symbols must be in 1..{len(_SYMBOLS)}, got {n_symbols}")


def _random_matrix(rng, d: int) -> RMatrix:
    return RMatrix([[rng.choice(WFA_ENTRIES) for _ in range(d)] for _ in range(d)])


def random_wfa(rng, n_states: int, n_symbols: int) -> Wfa:
    """Automaton over the first ``n_symbols`` letters of "abcdefgh", entries
    drawn from ``WFA_ENTRIES``; ``ValueError`` unless n_states >= 1 and
    1 <= n_symbols <= 8."""
    _check_wfa_size(n_states, n_symbols)
    sigma = tuple(_SYMBOLS[:n_symbols])
    mats = {s: _random_matrix(rng, n_states) for s in sigma}
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


def flag_of(name: str) -> str:
    """The CLI flag of a flag or option name: "mlp_trials" -> "--mlp-trials"."""
    return "--" + name.replace("_", "-")


def _plain(value):
    """The JSON form of what ``json`` cannot encode itself: a rational as
    its "num/den" string, a matrix or vector as lists of those, and a
    dataclass as a dict of its fields."""
    if isinstance(value, Rational):
        return str(value)
    if isinstance(value, RMatrix):
        return value.tolists()
    if isinstance(value, RVector):
        return list(value)
    if is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in fields(value)}
    raise TypeError(f"no JSON form for {type(value).__name__}")


def _canonical(value) -> str:
    return json.dumps(value, default=_plain, sort_keys=True, separators=(",", ":"))


# the one-time builds, each made at most once per run: run_trials clears them
_dnet_imm = functools.cache(build_dnet_imm)
_conn_machine = functools.cache(build_conn_counter_machine)
_conn_rnn = functools.cache(lambda: cm_to_mlp_rnn(_conn_machine()))
_stack_machine = functools.cache(lambda: scripted_stack_machine(2, STACK_OP_PAIRS))
_stack_rnn = functools.cache(lambda: sm_to_mlp_rnn(_stack_machine()))
_BUILDS = (_dnet_imm, _conn_machine, _conn_rnn, _stack_machine, _stack_rnn)


def _sizes(name: str, verb: Verb, flags: dict) -> dict:
    """Every flag of ``verb``, given or default; ``ValueError`` naming a
    flag the verb does not take or a value out of bounds."""
    extra = ", ".join(flag_of(key) for key in flags if key not in verb.flags)
    if extra:
        raise ValueError(f"verify {name} does not take {extra}")
    sizes = {}
    for key, (default, low, high) in verb.flags.items():
        value = sizes[key] = flags.get(key, default)
        if value is not None and not low <= value <= (value if high is None else high):
            bounds = f">= {low}" if high is None else f"in {low}..{high}"
            raise ValueError(f"{flag_of(key)} must be {bounds}, got {value}")
    return sizes


def _difference(verb: Verb, instance, got, want) -> str:
    if len(got) != len(want):
        return f"expected {len(want)} outputs, got {len(got)}"
    i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
    where = verb.where(instance, i) if verb.where else f"output {i}"
    return f"{where}: expected {_canonical(want[i])} actual {_canonical(got[i])}"


def run_trials(name: str, seed: int = 0, **flags) -> VerifyResult:
    """Run verb ``name`` with ``flags`` (the rest at their defaults): trial t
    draws its instance from ``rng_for(seed, name, t)``, then the verb's
    extra streams follow. The first trial whose outputs differ from the
    oracle's, or whose ``run`` raises, ends the run with a counterexample."""
    verb = REGISTRY[name]
    sizes = _sizes(name, verb, flags)
    for build in _BUILDS:
        build.cache_clear()
    trials = sizes["trials"]
    for trial in (*range(trials), *verb.extra):
        instance = verb.draw(rng_for(seed, name, trial), trial, sizes)
        try:
            got = list(verb.run(instance))
        except MemoryError:
            raise
        except Exception as exc:
            text = f"run raised {type(exc).__name__}: {exc}"
        else:
            want = list(verb.oracle(instance))
            if got == want:
                continue
            text = _difference(verb, instance, got, want)
        done = trial + 1 if isinstance(trial, int) else trials
        text = f"trial {trial}: {text}\ninstance {_canonical(instance)}"
        return VerifyResult(name, done, False, text)
    return VerifyResult(name, trials, True)


def _draw_rwkv_wfa(rng, trial, sizes):
    n = rng.randint(1, sizes["states"])
    wfa = random_wfa(rng, n, rng.randint(1, sizes["alphabet"]))
    max_len = sizes["len"] if sizes["len"] is not None else 6 * (2 * n)
    return {"wfa": wfa, "word": [rng.choice(wfa.alphabet) for _ in range(rng.randint(0, max_len))]}


def _draw_dnet_wfa(rng, trial, sizes):
    n = rng.randint(1, sizes["states"])
    wfa = random_wfa(rng, n, rng.randint(1, sizes["alphabet"]))
    block = 8 * n * n + 5 * n + 1  # the length of the net's block program
    length = sizes["len"] if sizes["len"] is not None else 2 * block + rng.randint(1, 12)
    return {"wfa": wfa, "word": [rng.choice(wfa.alphabet) for _ in range(length)]}


def _dnet_prefix(instance, t: int) -> str:
    program = apply_matrix_program(RMatrix.identity(instance["wfa"].n_states))
    m = len(program)
    return (f"prefix {t + 1} (phase {program.phase_of(t % m)},"
            f" program step {t % m + 1} of block {t // m + 1})")


def _prefix_values(instance):
    return wfa_prefix_values(instance["wfa"], instance["word"])


def _draw_imm(rng, trial, sizes):
    return {"stream": [rng.choice((-1, 0, 1)) for _ in range(9 * rng.randint(1, sizes["blocks"]))]}


def _draw_dnet_imm(rng, trial, sizes):
    # trial 0 streams exactly --blocks matrices, so from 79 on it runs a
    # compiled 78-matrix superblock program
    n = rng.randint(1, sizes["blocks"]) if trial else sizes["blocks"]
    return {"stream": [rng.choice((-1, 0, 1)) for _ in range(9 * n)]}


def _imm_product(instance):
    return list(imm_product(instance["stream"]))


def _draw_cm(rng, trial, sizes):
    graph = random_sorted_instance(rng, max_n=sizes["nodes"])
    return {"graph": graph, "network": trial < sizes["mlp_trials"]}


def _run_cm(instance):
    """The machine's decision; on network trials, the net's and its trace."""
    stream = encode_conn_unary(instance["graph"])
    accept, _ = cm_run(_conn_machine(), stream)
    if not instance["network"]:
        return [accept]
    rnn = _conn_rnn()
    res = run_mlp_rnn(rnn, stream, track_precision=False)
    return [accept, res.accept, *map(rnn.decode, res.states)]


def _cm_oracle(instance):
    want = conn_oracle(instance["graph"])
    if not instance["network"]:
        return [want]
    _, trace = cm_run(_conn_machine(), encode_conn_unary(instance["graph"]))
    return [want, want, *trace]


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


def _draw_sm(rng, trial, sizes):
    return {"program": [rng.choice(STACK_OP_PAIRS) for _ in range(sizes["len"])]}


def _run_sm(instance):
    """The machine's encoded stacks at every step, then the net's trace."""
    _, trace = sm_run(_stack_machine(), instance["program"])
    rnn = _stack_rnn()
    res = run_mlp_rnn(rnn, instance["program"], track_precision=False)
    return [*(stacks for _, stacks in trace), *map(rnn.decode, res.states)]


def _sm_oracle(instance):
    _, trace = sm_run(_stack_machine(), instance["program"])
    return [*symbolic_stack_oracle(instance["program"]), *trace]


def random_pd_step(rng, d: int) -> PdStep:
    pi = RelaxedPermutation(tuple(rng.randrange(d) for _ in range(d)))
    diag = RVector([rng.choice(WFA_ENTRIES) for _ in range(d)])
    return PdStep(pi, diag)


def _draw_pd(rng, trial, sizes):
    d = rng.randint(1, sizes["dim"])
    return {"steps": [random_pd_step(rng, d) for _ in range(rng.randint(1, sizes["len"]))]}


def _run_pd(instance):
    steps = instance["steps"]
    return [pd_closed_form(steps).to_matrix(), pd_tree_product(steps)[0].to_matrix()]


def _pd_dense(instance):
    steps = instance["steps"]
    dense = RMatrix.identity(steps[0].pi.dim)
    for s in steps:
        dense = dense @ s.to_matrix()
    return [dense, dense]


def _draw_dwfa(rng, trial, sizes):
    wfa = random_dwfa(rng, rng.randint(1, sizes["states"]), rng.randint(1, 3))
    words = [
        [rng.choice(wfa.alphabet) for _ in range(rng.randint(0, sizes["len"]))]
        for _ in range(sizes["words"])
    ]
    return {"wfa": wfa, "words": words}


def _run_dwfa(instance):
    rec = dwfa_to_pd(instance["wfa"])
    return [rec.accepts(word) for word in instance["words"]]


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


def _draw_reduction(rng, trial, sizes):
    n, edges, s, t = random_det_graph(rng)
    return {"n": n, "edges": edges, "s": s, "t": t}


def _run_reduction(instance):
    """Chased and breadth-first reachability after the reduction, and sortedness."""
    inst = reduce_to_sorted(instance["n"], instance["edges"], instance["s"], instance["t"])
    sources = [i for i, _ in inst.edges]
    return [
        conn_oracle(inst),
        reachable(inst.edges, inst.s, inst.t),
        all(a < b for a, b in zip(sources, sources[1:])),
    ]


def _reduction_oracle(instance):
    want = reachable(instance["edges"], instance["s"], instance["t"])
    return [want, want, True]


def random_linstep(rng, d: int) -> LinStep:
    return LinStep(_random_matrix(rng, d), _random_matrix(rng, d))


def _draw_scan(rng, trial, sizes):
    if trial == "depth":
        return {"traces": [[random_linstep(rng, 1) for _ in range(n)] for n in DEPTH_LENGTHS]}
    d = rng.randint(1, sizes["dim"])
    return {"traces": [[random_linstep(rng, d) for _ in range(rng.randint(1, sizes["len"]))]]}


def _depth_bound(n: int) -> int:
    return 2 * math.ceil(math.log2(n)) if n > 1 else 0


def _run_scan(instance):
    """Per trace, the scan states and then the combine depth, raised to
    the bound 2*ceil(log2 n) so that it equals the bound when within it."""
    out = []
    for steps in instance["traces"]:
        states, stats = lrnn_run_scan(steps)
        out += [*states, max(stats.depth, _depth_bound(len(steps)))]
    return out


def _scan_oracle(instance):
    out = []
    for steps in instance["traces"]:
        out += [*lrnn_run_sequential(steps), _depth_bound(len(steps))]
    return out


_WFA_FLAGS = {"trials": (50, 1, None), "states": (3, 1, 20),
              "alphabet": (3, 1, len(_SYMBOLS)), "len": (None, 0, 8192)}

REGISTRY = {
    "rwkv-wfa": Verb(
        "coordinate-overwrite network tracks weighted-automaton prefix values", _WFA_FLAGS,
        _draw_rwkv_wfa,
        lambda inst: rwkv_wfa_forward(build_rwkv_wfa(inst["wfa"]), inst["word"]),
        _prefix_values,
    ),
    "rwkv-imm": Verb(
        "18-coordinate overwrite network computes iterated 3x3 products",
        {"trials": (20, 1, None), "blocks": (20, 1, None)},
        _draw_imm, lambda inst: rwkv_imm_forward(build_rwkv_imm(), inst["stream"]), _imm_product,
    ),
    "dnet-wfa": Verb(
        "symmetric-step network tracks weighted-automaton prefix values", _WFA_FLAGS,
        _draw_dnet_wfa,
        lambda inst: dnet_wfa_forward(build_dnet_wfa(inst["wfa"]), inst["word"]),
        _prefix_values,
        where=_dnet_prefix,
    ),
    "dnet-imm": Verb(
        "19-coordinate symmetric-step network computes iterated 3x3 products",
        {"trials": (3, 1, None), "blocks": (100, 1, None)},
        _draw_dnet_imm, lambda inst: dnet_imm_forward(_dnet_imm(), inst["stream"]), _imm_product,
    ),
    "cm-rnn": Verb(
        "counter machine solves connectivity; ReLU network mirrors its trace",
        {"trials": (200, 1, None), "nodes": (200, 2, 16384), "mlp_trials": (20, 0, None)},
        _draw_cm, _run_cm, _cm_oracle,
    ),
    "sm-rnn": Verb(
        "stack encodings match list oracle; ReLU network mirrors the machine",
        {"trials": (50, 1, None), "len": (100, 0, None)},
        _draw_sm, _run_sm, _sm_oracle,
    ),
    "pd-product": Verb(
        "permutation-diagonal closed form and tree product match dense products",
        {"trials": (200, 1, None), "dim": (5, 1, 1024), "len": (64, 1, None)},
        _draw_pd, _run_pd, _pd_dense,
    ),
    "dwfa-pd": Verb(
        "compiled one-layer recognizer matches automaton threshold decisions",
        {"trials": (20, 1, None), "states": (4, 1, 1024), "words": (500, 1, None),
         "len": (24, 0, None)},
        _draw_dwfa, _run_dwfa,
        lambda inst: [wfa_eval(inst["wfa"], word) > Rational(0) for word in inst["words"]],
    ),
    "reduction": Verb(
        "layered copy reduction preserves reachability and sortedness",
        {"trials": (500, 1, None)},
        _draw_reduction, _run_reduction, _reduction_oracle,
    ),
    "scan-depth": Verb(
        "balanced scan equals sequential evaluation within the depth bound",
        {"trials": (200, 1, None), "dim": (4, 1, MAX_SCAN_DIM), "len": (64, 1, None)},
        _draw_scan, _run_scan, _scan_oracle,
        extra=("depth",),
    ),
}
