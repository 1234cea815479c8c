"""The trial driver shared by every verify verb."""

from exactrnn import verify
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
