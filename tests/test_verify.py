"""The trial driver shared by every verify verb."""

import dataclasses
import hashlib
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from exactrnn import verify
from exactrnn.cli import main
from exactrnn.delta_gadgets import PAD, DnetImmNet
from exactrnn.problems import encode_conn_unary, random_sorted_instance, rng_for


def test_run_trials_draws_each_trial_from_its_own_stream(monkeypatch):
    draws = []

    def draw(rng, trial, sizes):
        draws.append(rng.random())
        return {"trial": trial}

    def run(instance):
        # any sequence of outputs: a tuple equal item by item passes
        return ("wrong" if instance["trial"] == 2 else "right",)

    verb = verify.Verb("test verb", {"trials": (5, 1, None)}, draw, run, lambda inst: ["right"])
    monkeypatch.setitem(verify.REGISTRY, "name", verb)
    result = verify.run_trials("name", 7)
    text = 'trial 2: output 0: expected "right" actual "wrong"\ninstance {"trial":2}'
    assert result == verify.VerifyResult("name", 3, False, text)
    assert draws == [rng_for(7, "name", t).random() for t in range(3)]
    assert verify.run_trials("name", 7, trials=2) == verify.VerifyResult("name", 2, True)


def test_seeded_draws_are_pinned(monkeypatch):
    # PASS lines do not depend on the draws, so this pins the draws
    # themselves: every stream a run opens, with its label and its state
    # once the run is done, for every verb at seeds 0-2
    streams = []
    rng_for = verify.rng_for

    def keep(*key):
        rng = rng_for(*key)
        streams.append((key, rng))
        return rng

    monkeypatch.setattr(verify, "rng_for", keep)
    for verb in sorted(verify.REGISTRY):
        for seed in range(3):
            assert main(["verify", verb, "--seed", str(seed), "--trials", "2"]) == 0
    states = repr([(key, rng.getstate()) for key, rng in streams]).encode()
    assert len(streams) == 63  # 10 verbs x 3 seeds x 2 trials, and scan-depth's depth streams
    assert hashlib.sha256(states).hexdigest() == (
        "27290fb9d53282e26da037e82df4287194a8c6ed463f833bd4f0e6ea1da419e3"
    )


def test_dnet_imm_default_run_compiles_a_superblock(monkeypatch):
    compiled = []
    compile_superblock = DnetImmNet._compile_superblock

    def counting(self, block_tokens):
        compiled.append(block_tokens != (PAD,) * len(block_tokens))
        return compile_superblock(self, block_tokens)

    monkeypatch.setattr(DnetImmNet, "_compile_superblock", counting)
    assert verify.run_trials("dnet-imm").passed
    assert any(compiled)


@pytest.mark.parametrize(
    "verb, forward",
    [("rwkv-wfa", "rwkv_wfa_forward"), ("dnet-wfa", "dnet_wfa_forward")],
)
@pytest.mark.parametrize(
    "skew", [lambda got: got[:-1], lambda got: got + got[-1:]], ids=["drop", "extra"]
)
def test_wfa_prefix_count_mismatch_is_a_fail(monkeypatch, capsys, verb, forward, skew):
    orig = getattr(verify, forward)
    monkeypatch.setattr(verify, forward, lambda net, word: skew(orig(net, word)))
    result = verify.run_trials(verb, trials=2)
    assert not result.passed and result.trials == 1
    # the counterexample names both lengths: the automaton's, then the net's
    lengths = re.search(r"expected (\d+) outputs, got (\d+)", result.counterexample)
    want, got = map(int, lengths.groups())
    assert got - want == len(skew([0])) - 1
    assert main(["verify", verb, "--trials", "2"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith(f"FAIL {verb}") and f"expected {want} outputs, got {got}" in out
    assert "Traceback" not in err


def _with(monkeypatch, name, **fields):
    """Verb ``name`` with some of its record's fields replaced."""
    monkeypatch.setitem(
        verify.REGISTRY, name, dataclasses.replace(verify.REGISTRY[name], **fields)
    )


class ConstructionBroke(Exception):
    pass


def test_an_exception_in_run_is_a_counterexample(monkeypatch, capsys):
    def run(instance):
        if len(instance["steps"]) > 20:
            raise ConstructionBroke("no step past 20")
        return verify.REGISTRY["pd-product"].oracle(instance)

    _with(monkeypatch, "pd-product", run=run)
    assert main(["verify", "pd-product", "--seed", "3"]) == 1
    out, err = capsys.readouterr()
    head, text, instance = out.splitlines()
    trial = int(re.fullmatch(r"FAIL pd-product after trial (\d+) seed=3", head)[1]) - 1
    assert text == f"trial {trial}: run raised ConstructionBroke: no step past 20"
    steps = json.loads(instance.removeprefix("instance "))["steps"]
    assert len(steps) > 20 and all(re.fullmatch(r"-?\d+/\d+", v) for v in steps[0]["d"])
    assert err == ""


def test_cm_rnn_runs_the_network_on_the_first_mlp_trials(monkeypatch):
    streams = []
    run_mlp_rnn = verify.run_mlp_rnn

    def counting(rnn, tokens, track_precision):
        streams.append(len(tokens))
        return run_mlp_rnn(rnn, tokens, track_precision)

    monkeypatch.setattr(verify, "run_mlp_rnn", counting)
    assert verify.run_trials("cm-rnn", trials=5, mlp_trials=2).passed
    # trials 0 and 1, whose graphs are the first two drawn
    graphs = [random_sorted_instance(rng_for(0, "cm-rnn", t), max_n=200) for t in range(2)]
    assert streams == [len(encode_conn_unary(graph)) for graph in graphs]


def test_an_exception_outside_run_exits_3(monkeypatch, capsys):
    def oracle(instance):
        raise RuntimeError("oracle broke")

    _with(monkeypatch, "reduction", oracle=oracle)
    assert main(["verify", "reduction"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: RuntimeError: oracle broke\n"


# small caps on the unbounded flags, to keep each run short
_CAPS = {"states": 3, "alphabet": 8, "len": 30, "blocks": 90, "nodes": 60,
         "mlp_trials": 2, "dim": 3, "words": 20}


@st.composite
def verb_flags(draw):
    name = draw(st.sampled_from(sorted(verify.REGISTRY)))
    flags = {"trials": draw(st.integers(1, 2))}
    for key, (default, low, high) in verify.REGISTRY[name].flags.items():
        if key == "trials":
            continue
        value = st.integers(low, min(_CAPS[key], high or _CAPS[key]))
        flags[key] = draw(st.none() | value if default is None else value)
    return name, flags


@settings(max_examples=40, deadline=None)
@given(verb_flags(), st.integers(0, 2**64 - 1))
def test_every_verb_passes_within_its_bounds(named, seed):
    name, flags = named
    args = [verify.flag_of(key) + f"={value}" for key, value in flags.items() if value is not None]
    assert main(["verify", name, "--seed", str(seed), *args]) == 0
