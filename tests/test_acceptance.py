"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line with its runtime (run with ``pytest tests/test_acceptance.py
-v -s`` to see the lines). Every numeric comparison is exact rational
equality; structural counts are asserted verbatim; runtime budgets are
asserted against wall-clock time.
"""

import hashlib
import json
import math
import sys
import time
from itertools import product

from exactrnn.automata import (
    build_conn_counter_machine,
    cm_run,
    hankel_identity_rank,
    scripted_stack_machine,
    sm_run,
)
from exactrnn.delta_gadgets import (
    IDENTITY_PAD_STEPS,
    SUPERBLOCK_TOKENS,
    apply_matrix_program,
    build_dnet_imm,
    dnet_imm_forward,
    h_matrix,
    unit_transvection,
)
from exactrnn.linalg import RMatrix, RVector, RelaxedPermutation
from exactrnn.lrnn import PdStep, dwfa_to_pd, pd_closed_form, pd_multiply, pd_tree_product
from exactrnn.problems import (
    IDENTITY3,
    conn_oracle,
    encode_conn_unary,
    generate_dataset,
    mat3_mul,
    random_sorted_instance,
    rng_for,
)
from exactrnn.rational import Rational
from exactrnn.relu_nets import cm_to_mlp_rnn, run_mlp_rnn, sm_to_mlp_rnn
from exactrnn.rwkv_gadgets import build_rwkv_imm, rwkv_imm_forward
from exactrnn.verify import (
    STACK_OP_PAIRS,
    random_dwfa,
    verify_cm_rnn,
    verify_dnet_wfa,
    verify_reduction,
    verify_rwkv_wfa,
    verify_scan_depth,
    verify_sm_rnn,
)
from exactrnn.automata import wfa_eval


CRITERION_LINES = []


def _report(num, description, start, budget):
    elapsed = time.time() - start
    line = f"criterion {num:02d} PASS  {elapsed:6.1f}s < {budget}s  {description}"
    CRITERION_LINES.append(line)
    print(line)  # visible with -s; the conftest summary hook shows it always
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_01_rwkv_wfa_simulation():
    start = time.time()
    result = verify_rwkv_wfa(trials=50, seed=101, states=3, alphabet=3)
    assert result.passed, result.counterexample
    _report(1, "overwrite network equals automaton on every prefix", start, 60)


def test_criterion_02_dnet_wfa_simulation():
    start = time.time()
    result = verify_dnet_wfa(trials=50, seed=102, states=3, alphabet=3)
    assert result.passed, result.counterexample
    _report(2, "symmetric-step network equals automaton on every prefix", start, 120)


def test_criterion_03_structural_constants():
    start = time.time()
    prog = apply_matrix_program(RMatrix.identity(9))
    assert len(prog) == 694
    net = build_dnet_imm()
    block = tuple([Rational(v) for v in IDENTITY3] * 78)
    steps = net.block_steps(block, 0)
    assert len(steps) == SUPERBLOCK_TOKENS == 702
    assert IDENTITY_PAD_STEPS == 8
    assert all(s.is_identity for s in steps[-8:])
    assert not steps[-9].is_identity
    _report(3, "694-step program, 702-token superblock, 8 identity pads", start, 1)


def test_criterion_04_imm_correctness():
    start = time.time()
    rng = rng_for(104, "imm")

    def oracle(stream):
        p = IDENTITY3
        for base in range(0, len(stream), 9):
            p = mat3_mul(p, tuple(stream[base : base + 9]))
        return p

    for _ in range(20):
        stream = [rng.choice((-1, 0, 1)) for _ in range(9 * rng.randint(1, 20))]
        want = oracle(stream)
        got = rwkv_imm_forward(build_rwkv_imm(), stream)
        assert got == [Rational(e) for e in want]
        assert (got[0] > Rational(0)) == (want[0] > 0)
    net = build_dnet_imm()
    for blocks in (1, 78, 100, 156):
        stream = [rng.choice((-1, 0, 1)) for _ in range(9 * blocks)]
        want = oracle(stream)
        got = dnet_imm_forward(net, stream)
        assert got == [Rational(e) for e in want]
        assert (got[0] > Rational(0)) == (want[0] > 0)
    _report(4, "iterated 3x3 products exact; decision sign agrees", start, 300)


def test_criterion_05_transvection_identity():
    start = time.time()
    steps = unit_transvection(0, 1, 2)
    prod = h_matrix(steps[0]) @ h_matrix(steps[1]) @ h_matrix(steps[2])
    assert prod == RMatrix([[1, 1], [0, 1]])
    _report(5, "three-step transvection equals [[1,1],[0,1]]", start, 1)


def test_criterion_06_counter_machine_task():
    start = time.time()
    machine = build_conn_counter_machine()
    rnn = cm_to_mlp_rnn(machine)
    mlp_checked = 0
    for trial in range(1000):
        rng = rng_for(106, "conn", trial)
        inst = random_sorted_instance(rng, max_n=200)
        stream = encode_conn_unary(inst)
        accept, trace = cm_run(machine, stream)
        assert accept == conn_oracle(inst), f"trial {trial}: {inst}"
        if mlp_checked < 50:
            res = run_mlp_rnn(rnn, stream, track_precision=False)
            assert res.accept == accept
            assert [rnn.decode(h) for h in res.states] == trace
            mlp_checked += 1
    assert mlp_checked == 50
    _report(6, "1000 instances agree; 50 full network traces equal", start, 60)


def test_criterion_07_stack_simulation():
    start = time.time()
    machine = scripted_stack_machine(2, STACK_OP_PAIRS)
    rnn = sm_to_mlp_rnn(machine)
    for trial in range(50):
        rng = rng_for(107, "stack", trial)
        prog = [rng.choice(STACK_OP_PAIRS) for _ in range(100)]
        _, trace = sm_run(machine, prog)
        res = run_mlp_rnn(rnn, prog, track_precision=False)
        assert [rnn.decode(h) for h in res.states] == trace
    _report(7, "50 hundred-step two-stack traces equal at every step", start, 30)


PD_VALUES = [Rational(-1), Rational(0), Rational(1, 2), Rational(1)]


def _pd_step_space():
    steps = []
    for target in product(range(2), repeat=2):
        for diag in product(PD_VALUES, repeat=2):
            step = PdStep(RelaxedPermutation(target), RVector(list(diag)))
            steps.append((step, step.to_matrix()))
    return steps


def _state_key(step: PdStep):
    return (step.pi.target, tuple(step.d.nums), tuple(step.d.dens))


def test_criterion_08_pd_algebra():
    """Exhaustive d=2, n<=4 coverage via transition closure: every product
    of up to four steps is a composition of verified monoid transitions
    (reachable running product x next step), so checking each distinct
    transition once covers all 64 + 64^2 + 64^3 + 64^4 sequences. The
    closed form and tree product are additionally checked directly on all
    sequences of length <= 2, on seeded samples of lengths 3 and 4, and on
    200 random larger cases, plus the automaton-threshold agreement."""
    start = time.time()
    steps = _pd_step_space()
    assert len(steps) == 64

    current = {}
    for step, dense in steps:
        closed = pd_closed_form([step])
        assert closed.to_matrix() == dense
        current[_state_key(step)] = (step, dense)
    total_states = len(current)
    for _level in (2, 3, 4):
        nxt = {}
        for state_pd, state_dense in current.values():
            for step, step_dense in steps:
                prod = pd_multiply(state_pd, step)
                dense = state_dense @ step_dense
                assert prod.to_matrix() == dense
                key = _state_key(prod)
                if key not in nxt:
                    nxt[key] = (prod, dense)
        current = nxt
        total_states += len(current)
    assert total_states < 20000

    # direct closed-form / tree-product checks
    for (s1, d1) in steps:
        for (s2, d2) in steps:
            seq = [s1, s2]
            dense = d1 @ d2
            assert pd_closed_form(seq).to_matrix() == dense
            tree, _ = pd_tree_product(seq)
            assert tree.to_matrix() == dense
    rng = rng_for(108, "pd-sample")
    for _ in range(3000):
        n = rng.choice((3, 4))
        seq = [rng.choice(steps) for _ in range(n)]
        dense = seq[0][1]
        for _, d in seq[1:]:
            dense = dense @ d
        pd_seq = [s for s, _ in seq]
        assert pd_closed_form(pd_seq).to_matrix() == dense
        tree, _ = pd_tree_product(pd_seq)
        assert tree.to_matrix() == dense
        head = pd_closed_form(pd_seq[:-1])
        assert pd_closed_form(pd_seq).to_matrix() == pd_multiply(head, pd_seq[-1]).to_matrix()

    # 200 random larger cases
    from exactrnn.verify import verify_pd_product

    result = verify_pd_product(trials=200, seed=108, dim=5, length=64)
    assert result.passed, result.counterexample

    # recognizer decisions against automaton values
    for machine_idx in range(10):
        rng = rng_for(108, "dwfa", machine_idx)
        a = random_dwfa(rng, rng.randint(1, 4), rng.randint(1, 3))
        rec = dwfa_to_pd(a)
        for _ in range(500):
            word = [rng.choice(a.alphabet) for _ in range(rng.randint(0, 24))]
            assert rec.accepts(word) == (wfa_eval(a, word) > Rational(0))
    _report(8, "closed form, tree product, and recognizer all exact", start, 120)


def test_criterion_09_scan_equivalence_and_depth():
    start = time.time()
    result = verify_scan_depth(
        trials=200, seed=109, dim=4, length=64, depth_lengths=(1024, 2048, 4096)
    )
    assert result.passed, result.counterexample
    _report(9, "scan equals sequential; depth within 2*ceil(log2 n)", start, 60)


def test_criterion_10_reduction_soundness():
    start = time.time()
    result = verify_reduction(trials=500, seed=110)
    assert result.passed, result.counterexample
    _report(10, "layered reduction preserves reachability, stays sorted", start, 30)


def test_criterion_11_precision_witnesses():
    start = time.time()
    from exactrnn.cli import precision_points

    sizes = [16, 32, 64, 128, 256, 512, 1024]
    conn = precision_points("conn", sizes, seed=111)
    xs = [math.log2(n) for n, _ in conn]
    ys = [bits for _, bits in conn]
    xm, ym = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - xm) * (y - ym) for x, y in zip(xs, ys)) / sum(
        (x - xm) ** 2 for x in xs
    )
    assert slope <= 1.5, f"connectivity precision slope {slope}"

    stack = dict(precision_points("stack", [16, 64, 256, 1024], seed=111))
    # at least linear: bits per step bounded below by a positive constant
    assert stack[1024] >= 1024 / 4
    assert stack[1024] >= 8 * stack[16]
    _report(11, f"log-fit slope {slope:.2f} <= 1.5; stack bits grow linearly", start, 120)


def test_criterion_12_hankel_demo():
    start = time.time()
    for k in range(1, 33):
        assert hankel_identity_rank(k) == k
    _report(12, "identity subblock has full rank for k = 1..32", start, 5)


# SHA-256 of each seed-113 dataset below, joined by newlines; any change to
# a generator's random stream or record encoding changes these.
SEED_113_DIGESTS = {
    "conn": "8507eb187de27dd47eebf91cf9f7d3f953932e2d9aed7cfdf330403c0fe93fce",
    "imm-mod": "a349a45e5601bdc41a3087f878e649a27b8501c6c2c6f88e4e6d2b97a6910204",
    "imm-z": "cc5a8a61734e1b7c55ab5f49cdc505d6033c0ef12d2a5b0165745564fac9b49f",
}


def test_criterion_13_generator_determinism_and_labels():
    start = time.time()
    specs = {
        "conn": {"count": 10000, "size_range": (2, 60)},
        "imm-mod": {"count": 10000, "size_range": (1, 40), "m": 5, "q_k": 0},
        "imm-z": {"count": 10000, "size_range": (1, 60)},
    }
    for task, spec in specs.items():
        kwargs = {k: v for k, v in spec.items() if k not in ("count", "size_range")}
        lines1 = generate_dataset(task, spec["count"], spec["size_range"], seed=113, **kwargs)
        lines2 = generate_dataset(task, spec["count"], spec["size_range"], seed=113, **kwargs)
        digest1 = hashlib.sha256("\n".join(lines1).encode()).hexdigest()
        digest2 = hashlib.sha256("\n".join(lines2).encode()).hexdigest()
        assert digest1 == digest2, f"{task} generation is not byte-deterministic"
        assert digest1 == SEED_113_DIGESTS[task], f"{task} bytes changed at seed 113"
        if task == "conn":
            positives = sum(json.loads(line)["label"] for line in lines1)
            assert abs(positives / len(lines1) - 0.5) < 0.01
        for line in lines1:
            rec = json.loads(line)
            if task == "conn":
                from exactrnn.problems import decode_conn_unary

                inst = decode_conn_unary(rec["tokens"])
                assert int(conn_oracle(inst)) == rec["label"]
            elif task == "imm-mod":
                from exactrnn.problems import ImmModInstance, imm_mod_oracle

                mats = tuple(
                    tuple(rec["tokens"][9 * i : 9 * i + 9])
                    for i in range(rec["meta"]["T"])
                )
                inst = ImmModInstance(
                    T=rec["meta"]["T"], m=rec["meta"]["m"],
                    q_k=rec["meta"]["q_k"], matrices=mats,
                )
                assert imm_mod_oracle(inst) == rec["targets"]
            else:
                from exactrnn.problems import ImmZInstance, imm_z_oracle

                mats = tuple(
                    tuple(rec["tokens"][9 * i : 9 * i + 9])
                    for i in range(rec["meta"]["T"])
                )
                inst = ImmZInstance(T=rec["meta"]["T"], matrices=mats)
                assert imm_z_oracle(inst) == rec["label"]
    _report(13, "byte-identical reruns; 10k labels per task match oracles", start, 300)
