"""The trial driver shared by every verify verb."""

import pytest

from exactrnn import verify
from exactrnn.cli import main
from exactrnn.delta_gadgets import PAD, DnetImmNet
from exactrnn.problems import rng_for


def test_run_trials_draws_each_trial_from_its_own_stream():
    draws = []

    def check(rng, trial):
        draws.append(rng.random())
        return "counterexample" if trial == 2 else None

    result = verify._run_trials("name", 5, 7, check)
    assert result == verify.VerifyResult("name", 3, False, "counterexample")
    assert draws == [rng_for(7, "name", t).random() for t in range(3)]
    assert verify._run_trials("name", 4, 7, lambda rng, t: None) == (
        verify.VerifyResult("name", 4, True)
    )


def test_dnet_imm_default_run_compiles_a_superblock(monkeypatch):
    compiled = []
    compile_superblock = DnetImmNet._compile_superblock

    def counting(self, block_tokens):
        compiled.append(block_tokens != (PAD,) * len(block_tokens))
        return compile_superblock(self, block_tokens)

    monkeypatch.setattr(DnetImmNet, "_compile_superblock", counting)
    assert verify.verify_dnet_imm().passed
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
    result = verify.REGISTRY[verb][1](trials=2)
    assert not result.passed and result.trials == 1
    assert "prefix values, got" in result.counterexample
    assert main(["verify", verb, "--trials", "2"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith(f"FAIL {verb}") and "prefix values, got" in out
    assert "Traceback" not in err
