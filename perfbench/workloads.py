"""The benchmark's four workloads.

Each workload builds an input pool from the seed (``setup``) and runs one
pass at a time (``run_pass``). A pass takes a fixed group of trials (one
stream; one automaton per state count; one cm and one sm trace; one batch
per task) to a verdict: build, forward, oracle and compare. Every pass has
the same mix, so pass times come from one population. Only the forward call (or the
generator call, for ``datasets``) is timed as family work; the exactness
gate runs inside the pass but outside that timed region, and raises
``Mismatch`` on any difference from the independent oracle.

All inputs come from ``exactrnn.problems.rng_for(seed, ...)``, and the
benchmark calls only the package's public API.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager

from exactrnn import (
    ImmModInstance,
    ImmZInstance,
    Rational,
    build_conn_counter_machine,
    build_dnet_imm,
    build_dnet_wfa,
    build_rwkv_imm,
    build_rwkv_wfa,
    cm_run,
    cm_to_mlp_rnn,
    conn_oracle,
    dnet_imm_forward,
    dnet_wfa_forward,
    encode_conn_unary,
    gen_conn,
    imm_mod_oracle,
    imm_z_oracle,
    precision_of,
    run_mlp_rnn,
    rwkv_imm_forward,
    rwkv_wfa_forward,
    sm_run,
    sm_to_mlp_rnn,
)
from exactrnn.automata import scripted_stack_machine, wfa_prefix_values
from exactrnn.problems import IDENTITY3, decode_conn_unary, generate_dataset, mat3_mul, rng_for
from exactrnn.verify import STACK_OP_PAIRS, random_wfa
from hostspeed import clock


class Mismatch(Exception):
    """An output differs from its oracle."""


class PassOut:
    """What one pass did: per family [items, timed spans as (start, end)
    ``hostspeed.clock()`` readings] and the largest value bit length it
    saw; ``datasets`` also reports bytes and kept matrices."""

    def __init__(self):
        self.work = {}
        self.bits = {}
        self.gen = {}

    @contextmanager
    def timed(self, fam, items):
        """Time the body as ``items`` of ``fam``'s work."""
        start = clock()
        yield
        work = self.work.setdefault(fam, [0, []])
        work[0] += items
        work[1].append((start, clock()))


# ---------------------------------------------------------------------------
# imm-long: long {-1,0,1} matrix streams through both 3x3-product nets

IMM_MATRICES = 312  # four 78-matrix superblocks, 2808 tokens
IMM_POOL = 12


def _imm_product(stream):
    p = IDENTITY3
    for base in range(0, len(stream), 9):
        p = mat3_mul(p, tuple(stream[base : base + 9]))
    return [Rational(e) for e in p]


class ImmLong:
    name = "imm-long"
    families = ("dnet", "rwkv")
    slots = (("dnet",), ("rwkv",))  # families in the two gated throughput slots
    item = "tokens"
    traced_passes = 4

    def setup(self, seed, tracer):
        pool = []
        for k in range(IMM_POOL):
            rng = rng_for(seed, self.name, k)
            pool.append([rng.choice((-1, 0, 1)) for _ in range(9 * IMM_MATRICES)])
        return pool

    def run_pass(self, pool, i, tracer):
        stream = pool[i % len(pool)]
        out = PassOut()
        results = {}
        for fam, build, forward in (
            ("dnet", build_dnet_imm, dnet_imm_forward),
            ("rwkv", build_rwkv_imm, rwkv_imm_forward),
        ):
            with tracer.span("build", fam):
                net = build()
            with tracer.span("forward", fam), out.timed(fam, len(stream)):
                results[fam] = forward(net, stream)
        with tracer.span("oracle"):
            want = _imm_product(stream)
        with tracer.span("check"):
            for fam, got in results.items():
                if got != want:
                    raise Mismatch(f"{fam}-imm stream {i % len(pool)}: {got} != {want}")
                out.bits[fam] = precision_of(got).max_value_bits
        return out


# ---------------------------------------------------------------------------
# wfa-short: many small automata with fresh nets, drawn with verify's
# random_wfa and word lengths; each state count is taken in turn, not drawn

WFA_STATES = (1, 2, 3)  # one trial of each per pass, so runs mix them evenly
WFA_POOL = 256  # more groups than a run takes passes, so every pass is new content


class WfaShort:
    name = "wfa-short"
    families = ("dnet", "rwkv")
    slots = (("dnet",), ("rwkv",))
    item = "tokens"
    traced_passes = 10

    def setup(self, seed, tracer):
        pool = []
        for c in range(WFA_POOL):
            group = []
            for n in WFA_STATES:
                rng = rng_for(seed, self.name, c, n)
                wfa = random_wfa(rng, n, rng.randint(1, 3))
                m = 8 * n * n + 5 * n + 1  # symmetric-step program length
                word = [rng.choice(wfa.alphabet) for _ in range(2 * m + rng.randint(1, 12))]
                group.append((wfa, word))
            pool.append(group)
        return pool

    def run_pass(self, pool, i, tracer):
        """One trial of each state count, so every pass comes from one population."""
        out = PassOut()
        for wfa, word in pool[i % len(pool)]:
            results = {}
            for fam, build, forward in (
                ("dnet", build_dnet_wfa, dnet_wfa_forward),
                ("rwkv", build_rwkv_wfa, rwkv_wfa_forward),
            ):
                with tracer.span("build", fam):
                    net = build(wfa)
                with tracer.span("forward", fam), out.timed(fam, len(word)):
                    results[fam] = forward(net, word)
            with tracer.span("oracle"):
                want = wfa_prefix_values(wfa, word)
            with tracer.span("check"):
                for fam, got in results.items():
                    if got != want:
                        t = next(k for k, (g, w) in enumerate(zip(got, want)) if g != w)
                        raise Mismatch(f"{fam}-wfa pass {i % len(pool)}, {wfa.n_states} states,"
                                       f" prefix {t + 1}")
                    bits = precision_of(got).max_value_bits
                    out.bits[fam] = max(out.bits.get(fam, 0), bits)
        return out


# ---------------------------------------------------------------------------
# relu-trace: ReLU-network traces checked step for step against the machines

# Unary streams grow as the square of the size, so a seeded draw of sizes
# would move the pass-time median between seeds. The pool instead takes
# every size of criterion 13's range (as the datasets conn task uses) once
# per label, in a fixed spread-out order; the seed draws the rest.
CONN_SIZES = range(2, 61)
CONN_STRIDE = 23  # coprime with len(CONN_SIZES)
RELU_POOL = 2 * len(CONN_SIZES)  # trials per family
STACK_PROGRAM_LENGTH = 150


class ReluTrace:
    name = "relu-trace"
    families = ("cm", "sm")
    slots = (("cm",), ("sm",))
    item = "tokens"
    traced_passes = 20

    def setup(self, seed, tracer):
        cm = build_conn_counter_machine()
        sm = scripted_stack_machine(2, STACK_OP_PAIRS)
        with tracer.span("relu.compile"):
            cm_rnn = cm_to_mlp_rnn(cm)
            sm_rnn = sm_to_mlp_rnn(sm)
        conn = []
        for k in range(RELU_POOL):
            n = CONN_SIZES[k * CONN_STRIDE % len(CONN_SIZES)]
            inst = gen_conn((n, n), 0.5, k % 2 == 0, rng_for(seed, self.name, "cm", k))
            conn.append((inst, encode_conn_unary(inst)))
        programs = []
        for k in range(RELU_POOL):
            rng = rng_for(seed, self.name, "sm", k)
            programs.append([rng.choice(STACK_OP_PAIRS) for _ in range(STACK_PROGRAM_LENGTH)])
        return cm, cm_rnn, conn, sm, sm_rnn, programs

    def run_pass(self, state, i, tracer):
        """One cm trial and one sm trial, so every pass comes from one population."""
        cm, cm_rnn, conn, sm, sm_rnn, programs = state
        out = PassOut()
        k = i % RELU_POOL
        inst, cm_tokens = conn[k]
        for fam, rnn, machine, tokens in (("cm", cm_rnn, cm, cm_tokens),
                                          ("sm", sm_rnn, sm, programs[k])):
            with tracer.span("forward", fam), out.timed(fam, len(tokens)):
                res = run_mlp_rnn(rnn, tokens, track_precision=True)
            with tracer.span("oracle", fam):
                accept, trace = (cm_run if fam == "cm" else sm_run)(machine, tokens)
            with tracer.span("check", fam):
                if fam == "cm" and not res.accept == accept == conn_oracle(inst):
                    raise Mismatch(f"cm trial {k}: network {res.accept} machine {accept}")
                if len(res.states) != len(trace):
                    raise Mismatch(f"{fam} trial {k}: trace lengths differ")
                for t, (h, conf) in enumerate(zip(res.states, trace)):
                    if rnn.decode(h) != conf:
                        raise Mismatch(f"{fam} trial {k}: trace diverges at step {t}")
            out.bits[fam] = res.precision.max_value_bits
        return out


# ---------------------------------------------------------------------------
# datasets: seeded generator batches, labels re-derived from the records

# (family, generator task, size range, options, records per batch)
DATASET_TASKS = (
    ("conn", "conn", (2, 60), {"p": 0.5}, 100),
    ("imm_mod", "imm-mod", (1, 40), {"m": 5, "q_k": 0}, 100),
    ("imm_z", "imm-z", (1, 60), {"balanced": True}, 20),
)
GOLDEN_BATCHES = 3  # batches per task pinned by digest at the default seed


def batch_seed(seed, family, batch):
    return rng_for(seed, "datasets", family, batch).getrandbits(32)


def generate_batch(seed, task_index, batch):
    family, task, size_range, options, count = DATASET_TASKS[task_index]
    return generate_dataset(task, count, size_range, batch_seed(seed, family, batch), **options)


def batch_digest(lines):
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def check_golden(path, seed):
    """Compare the pinned digests of ``seed``'s first batches per task.
    Returns (batches checked, failures)."""
    pinned = json.loads(path.read_text())
    if pinned["seed"] != seed:
        return 0, [f"{path.name} pins seed {pinned['seed']}, not {seed}"]
    failures = []
    for task_index, (family, *_rest) in enumerate(DATASET_TASKS):
        for batch in range(GOLDEN_BATCHES):
            lines = generate_batch(seed, task_index, batch)
            if batch_digest(lines) != pinned["digests"][family][batch]:
                failures.append(f"{family} batch {batch}")
    return GOLDEN_BATCHES * len(DATASET_TASKS), failures


def _matrices(rec):
    tokens = rec["tokens"]
    return tuple(tuple(tokens[9 * i : 9 * i + 9]) for i in range(rec["meta"]["T"]))


def check_batch(task_index, lines):
    """Re-derive every label and target from the record's tokens."""
    family, count = DATASET_TASKS[task_index][0], DATASET_TASKS[task_index][4]
    if len(lines) != count:
        raise Mismatch(f"{family}: {len(lines)} records, expected {count}")
    kept = 0
    for idx, line in enumerate(lines):
        rec = json.loads(line)
        if family == "conn":
            want = int(conn_oracle(decode_conn_unary(rec["tokens"])))
            ok = rec["label"] == want == int(idx % 2 == 0)
        elif family == "imm_mod":
            meta = rec["meta"]
            inst = ImmModInstance(T=meta["T"], m=meta["m"], q_k=meta["q_k"],
                                  matrices=_matrices(rec))
            ok = len(rec["tokens"]) == 9 * meta["T"] and imm_mod_oracle(inst) == rec["targets"]
            kept += meta["T"]
        else:
            inst = ImmZInstance(T=rec["meta"]["T"], matrices=_matrices(rec))
            ok = rec["label"] == imm_z_oracle(inst) == idx % 2
        if not ok:
            raise Mismatch(f"{family} record {idx}: label or targets differ from the oracle")
    return kept


class Datasets:
    name = "datasets"
    families = tuple(t[0] for t in DATASET_TASKS)
    slots = (("conn",), ("imm_mod", "imm_z"))
    item = "records"
    traced_passes = 10

    def setup(self, seed, tracer):
        return seed

    def run_pass(self, seed, i, tracer):
        """Batch ``i`` of every task, so every pass comes from one population."""
        out = PassOut()
        for task_index, (family, *_rest, count) in enumerate(DATASET_TASKS):
            with tracer.span(f"gen.{family}"), out.timed(family, count):
                lines = generate_batch(seed, task_index, i)
            with tracer.span("oracle"):
                kept = check_batch(task_index, lines)
            out.gen[family] = (sum(len(line.encode()) + 1 for line in lines), kept)
        return out


WORKLOADS = {w.name: w for w in (ImmLong(), WfaShort(), ReluTrace(), Datasets())}
