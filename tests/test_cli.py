import hashlib
import json
import os
import stat
import subprocess
import sys
import tracemalloc

import pytest

from exactrnn.cli import main
from exactrnn.verify import REGISTRY


def run_cli(args):
    return main(args)


def test_verify_pass_exit_code(capsys):
    assert run_cli(["verify", "pd-product", "--trials", "15", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS pd-product")


def test_verify_reports_counterexample(capsys, monkeypatch):
    from exactrnn import verify as verify_mod
    from exactrnn.verify import VerifyResult

    def broken(name, seed, **flags):
        return VerifyResult(name, 3, False, "expected 1/2 actual 1/3")

    monkeypatch.setattr(verify_mod, "run_trials", broken)
    assert run_cli(["verify", "pd-product"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "expected 1/2 actual 1/3" in out


def test_verify_passes_exactly_the_flags_set(monkeypatch):
    from exactrnn import verify as verify_mod
    from exactrnn.verify import VerifyResult

    seen = []

    def double(name, seed, **flags):
        seen.append((name, seed, flags))
        return VerifyResult(name, 1, True)

    monkeypatch.setattr(verify_mod, "run_trials", double)
    monkeypatch.delenv("EXACTRNN_SEED", raising=False)
    assert run_cli(["verify", "pd-product", "--blocks", "3", "--len", "2"]) == 0
    assert seen == [("pd-product", 0, {"blocks": 3, "len": 2})]


# a flag each verb leaves out, with its name in the verbs' flag tables
_FLAGS = (("--states", "states"), ("--blocks", "blocks"), ("--mlp-trials", "mlp_trials"))


@pytest.mark.parametrize("verb", sorted(REGISTRY))
def test_verify_rejects_a_flag_the_verb_does_not_take(capsys, monkeypatch, verb):
    from exactrnn import verify as verify_mod

    flag = next(flag for flag, name in _FLAGS if name not in REGISTRY[verb].flags)
    draws = []
    monkeypatch.setattr(verify_mod, "rng_for", lambda *key: draws.append(key))
    assert run_cli(["verify", verb, flag, "1"]) == 2
    captured = capsys.readouterr()
    assert flag in captured.err and verb in captured.err
    assert captured.out == "" and draws == []


def test_unknown_construction_is_usage_error():
    assert run_cli(["verify", "nonsense"]) == 2


def test_gen_is_byte_deterministic(tmp_path):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    for out in (out1, out2):
        assert run_cli([
            "gen", "imm-z", "--count", "50", "--range", "1,12",
            "--seed", "5", "--out", str(out),
        ]) == 0
    h1 = hashlib.sha256(out1.read_bytes()).hexdigest()
    h2 = hashlib.sha256(out2.read_bytes()).hexdigest()
    assert h1 == h2


def test_gen_conn_labels_alternate(tmp_path):
    out = tmp_path / "conn.jsonl"
    assert run_cli([
        "gen", "conn", "--count", "10", "--range", "2,20",
        "--seed", "3", "--out", str(out),
    ]) == 0
    labels = [json.loads(line)["label"] for line in out.read_text().splitlines()]
    assert labels == [1, 0] * 5


def test_gen_imm_mod_schema(tmp_path):
    out = tmp_path / "mod.jsonl"
    assert run_cli([
        "gen", "imm-mod", "--count", "5", "--range", "1,8",
        "--seed", "2", "--m", "7", "--q-k", "3", "--out", str(out),
    ]) == 0
    for line in out.read_text().splitlines():
        rec = json.loads(line)
        assert rec["task"] == "imm-mod"
        assert len(rec["tokens"]) == 9 * rec["meta"]["T"]
        assert len(rec["targets"]) == rec["meta"]["T"]
        assert rec["meta"]["m"] == 7 and rec["meta"]["q_k"] == 3


def test_gen_rejects_non_prime_modulus(capsys, tmp_path):
    code = run_cli([
        "gen", "imm-mod", "--count", "2", "--range", "1,4",
        "--seed", "2", "--m", "6", "--out", str(tmp_path / "x.jsonl"),
    ])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_report_depth_csv(capsys):
    assert run_cli(["report", "depth", "--n-list", "8,64", "--dim", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,scan_depth,sequential_steps"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["8", "64"]
    assert int(rows[0][1]) <= 6 and int(rows[1][1]) <= 12
    assert [int(r[2]) for r in rows] == [7, 63]


@pytest.mark.parametrize("dim", ["0", "65", "100000"])
def test_report_depth_rejects_dim_out_of_bounds(capsys, monkeypatch, dim):
    from exactrnn import problems

    draws = []
    monkeypatch.setattr(problems, "rng_for", lambda *key: draws.append(key))
    assert run_cli(["report", "depth", "--dim", dim]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --dim must be in 1..64, got {dim}\n"
    assert captured.out == "" and draws == []


def test_report_depth_from_trace_file(tmp_path, capsys):
    import random

    from exactrnn.lrnn import dump_steps
    from exactrnn.verify import random_linstep

    rng = random.Random(0)
    steps = [random_linstep(rng, 2) for _ in range(10)]
    trace = tmp_path / "trace.txt"
    trace.write_text(dump_steps(steps))
    assert run_cli(["report", "depth", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1].startswith("10,")


@pytest.mark.parametrize("dump, message", [
    ("A 1/1 ; B 1/1\nA 1/0 ; B 1/1\n", "zero denominator"),
    ("A 1/1 ; B 1/1\n\nA 1/1 ; B 1/1\n", "malformed step line"),
    ("A 1/ ; B 0/1\n", "no denominator"),
])
def test_report_depth_rejects_bad_trace(tmp_path, capsys, dump, message):
    trace = tmp_path / "trace.txt"
    trace.write_text(dump)
    assert run_cli(["report", "depth", "--trace", str(trace)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""


def test_report_precision_csv(tmp_path):
    out = tmp_path / "prec.csv"
    assert run_cli([
        "report", "precision", "--task", "conn", "--n-list", "16,64",
        "--out", str(out),
    ]) == 0
    # the whole file, byte for byte: 6 and 8 bits, logarithmic in n
    assert out.read_bytes() == b"n,max_value_bits\n16,6\n64,8\n"


def test_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("EXACTRNN_SEED", "123")
    assert run_cli(["verify", "scan-depth", "--trials", "3"]) == 0
    assert "seed=123" in capsys.readouterr().out


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "exactrnn.cli", "verify", "pd-product", "--trials", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_verify_trials_must_be_positive(capsys):
    assert run_cli(["verify", "pd-product", "--trials", "0"]) == 2
    assert "trials" in capsys.readouterr().err


def test_verify_dnet_imm_quick(capsys):
    assert run_cli(["verify", "dnet-imm", "--blocks", "3", "--trials", "1"]) == 0
    assert "PASS dnet-imm" in capsys.readouterr().out


def test_verify_rwkv_imm_quick(capsys):
    assert run_cli(["verify", "rwkv-imm", "--blocks", "4", "--trials", "2"]) == 0
    assert "PASS rwkv-imm" in capsys.readouterr().out


def test_gen_imm_z_bare_clip_flag(tmp_path):
    out = tmp_path / "clip.jsonl"
    assert run_cli([
        "gen", "imm-z", "--count", "5", "--range", "1,5",
        "--seed", "9", "--clip", "--out", str(out),
    ]) == 0
    recs = [json.loads(line) for line in out.read_text().splitlines()]
    assert all(rec["meta"]["clip"] == 2**63 - 1 for rec in recs)


def test_gen_imm_z_unreachable_label_is_usage_error(capsys, monkeypatch, tmp_path):
    # every valid parameter choice reaches both labels, so an oracle that
    # always answers 1 stands in for an unreachable label 0
    from exactrnn import problems

    monkeypatch.setattr(problems, "imm_z_oracle", lambda inst: 1)
    out = tmp_path / "z.jsonl"
    code = run_cli([
        "gen", "imm-z", "--count", "2", "--range", "1,1", "--balanced",
        "--seed", "1", "--out", str(out),
    ])
    assert code == 2
    assert "label 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("clip", ["0", "-1"])
def test_gen_imm_z_rejects_clip_below_one(capsys, tmp_path, clip):
    out = tmp_path / "z.jsonl"
    code = run_cli([
        "gen", "imm-z", "--count", "2", "--range", "1,3",
        f"--clip={clip}", "--seed", "1", "--out", str(out),
    ])
    assert code == 2
    assert "clip must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("task, size_range", [
    (task, size_range) for task in ("conn", "imm-mod", "imm-z") for size_range in ("0,0", "5,3")
] + [
    # the conn stream is quadratic in the size, so its size has a ceiling
    ("conn", "1,2049"), ("conn", "1000000,1000000"),
])
def test_gen_rejects_bad_size_range(capsys, monkeypatch, tmp_path, task, size_range):
    from exactrnn import problems

    draws = []
    monkeypatch.setattr(problems, "rng_for", lambda *key: draws.append(key))
    out = tmp_path / "out.jsonl"
    code = run_cli([
        "gen", task, "--count", "2", f"--range={size_range}", "--out", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "size range" in err
    assert not out.exists() and draws == []


def test_gen_conn_takes_the_largest_size(tmp_path):
    out = tmp_path / "conn.jsonl"
    assert run_cli(["gen", "conn", "--count", "1", "--range", "2048,2048", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["meta"]["n"] == 2049


def test_gen_holds_one_line_at_a_time(tmp_path):
    """Eight conn records of size 256 (about 270 kB a line) peak under three
    lines of traced memory: a line is joined, then copied into its write,
    and no other line is held (holding all eight took 25 lines)."""
    out = tmp_path / "conn.jsonl"
    gen = ["gen", "conn", "--range", "256,256", "--seed", "3", "--out", str(out)]
    assert run_cli(gen + ["--count", "0"]) == 0  # imports and parser, untraced
    tracemalloc.start()
    try:
        assert run_cli(gen + ["--count", "8"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = out.read_text().splitlines()
    assert len(lines) == 8 and peak < 3 * max(map(len, lines))


def test_gen_failing_mid_stream_leaves_no_file(tmp_path, monkeypatch):
    from exactrnn import problems

    line = problems._dataset_line

    def failing(task, idx, *args):
        if idx == 2:
            raise RuntimeError("drawn twice")
        return line(task, idx, *args)

    monkeypatch.setattr(problems, "_dataset_line", failing)
    out = tmp_path / "conn.jsonl"
    out.write_text("kept\n")
    assert run_cli(["gen", "conn", "--count", "4", "--range", "2,5", "--out", str(out)]) == 3
    assert out.read_text() == "kept\n" and [p.name for p in tmp_path.iterdir()] == ["conn.jsonl"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
@pytest.mark.parametrize("command", [
    ["gen", "conn", "--count", "2", "--range", "2,5"],
    ["report", "precision", "--task", "stack", "--n-list", "4"],
], ids=["gen", "report-precision"])
def test_out_file_mode_follows_the_umask(tmp_path, command, umask, mode):
    out = tmp_path / "out.txt"
    old = os.umask(umask)
    try:
        assert run_cli(command + ["--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == mode


@pytest.mark.parametrize("task", ["conn", "imm-mod", "imm-z"])
def test_gen_zero_count_still_checks_size_range(capsys, tmp_path, task):
    out = tmp_path / "out.jsonl"
    code = run_cli([
        "gen", task, "--count", "0", "--range=0,0", "--out", str(out),
    ])
    assert code == 2
    assert "size range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("task, flags, message", [
    ("conn", ["--p", "1.5"], "p must be in"),
    ("imm-mod", ["--m", "4"], "prime"),
    ("imm-mod", ["--q-k", "9"], "q_k"),
    ("imm-z", ["--clip", "0"], "clip must be >= 1"),
])
@pytest.mark.parametrize("count", ["0", "2"])
def test_gen_checks_options_at_any_count(capsys, tmp_path, task, flags, message, count):
    out = tmp_path / "out.jsonl"
    code = run_cli([
        "gen", task, "--count", count, "--range", "1,5", *flags, "--out", str(out),
    ])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("task, flags, named", [
    ("conn", ["--m", "4", "--clip", "0"], "--m, --clip"),
    ("conn", ["--balanced"], "--balanced"),
    ("imm-mod", ["--p", "0.5"], "--p"),
    ("imm-mod", ["--clip"], "--clip"),
    ("imm-z", ["--q-k", "1"], "--q-k"),
    ("imm-z", ["--m", "5"], "--m"),
])
def test_gen_rejects_another_tasks_flag(capsys, tmp_path, task, flags, named):
    out = tmp_path / "out.jsonl"
    code = run_cli([
        "gen", task, "--count", "1", "--range", "1,2", *flags, "--out", str(out),
    ])
    assert code == 2
    assert f"gen {task} does not take {named}" in capsys.readouterr().err
    assert not out.exists()


def test_gen_passes_only_the_flags_given(monkeypatch, tmp_path):
    from exactrnn import problems

    seen = []
    monkeypatch.setattr(problems, "_dataset_lines",
                        lambda *args, **options: seen.append(options) or [])
    out = str(tmp_path / "out.jsonl")
    for task, flags in (("conn", []), ("imm-mod", ["--q-k", "3"]), ("imm-z", ["--balanced"])):
        assert run_cli(["gen", task, "--count", "1", "--range", "1,2", *flags, "--out", out]) == 0
    assert seen == [{}, {"q_k": 3}, {"balanced": True}]


def test_gen_negative_count_is_usage_error(capsys, tmp_path):
    out = tmp_path / "conn.jsonl"
    code = run_cli([
        "gen", "conn", "--count", "-1", "--range", "2,5", "--out", str(out),
    ])
    assert code == 2
    assert "count" in capsys.readouterr().err
    assert not out.exists()


def test_gen_zero_count_writes_empty_file(tmp_path):
    out = tmp_path / "conn.jsonl"
    assert run_cli([
        "gen", "conn", "--count", "0", "--range", "2,5", "--out", str(out),
    ]) == 0
    assert out.read_bytes() == b""


@pytest.mark.parametrize("kind", ["depth", "precision"])
@pytest.mark.parametrize("sizes", ["0", "-3", "4,0"])
def test_report_rejects_non_positive_sizes(capsys, kind, sizes):
    assert run_cli(["report", kind, "--n-list", sizes]) == 2
    captured = capsys.readouterr()
    assert "--n-list" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("verb, flags, flag", [
    ("dnet-wfa", ["--states", "0"], "--states"),
    ("rwkv-wfa", ["--states", "-1"], "--states"),
    ("dwfa-pd", ["--states", "0"], "--states"),
    ("dnet-wfa", ["--len", "-1"], "--len"),
    ("rwkv-wfa", ["--len", "-1"], "--len"),
    ("dwfa-pd", ["--len", "-1"], "--len"),
    ("dnet-wfa", ["--alphabet", "9"], "--alphabet"),
    ("rwkv-wfa", ["--alphabet", "9"], "--alphabet"),
    ("rwkv-wfa", ["--alphabet", "0"], "--alphabet"),
    ("dwfa-pd", ["--words", "0"], "--words"),
    ("dwfa-pd", ["--words", "-1"], "--words"),
    ("rwkv-imm", ["--blocks", "0"], "--blocks"),
    ("dnet-imm", ["--blocks", "0"], "--blocks"),
    ("pd-product", ["--dim", "0"], "--dim"),
    ("pd-product", ["--len", "0"], "--len"),
    ("scan-depth", ["--dim", "0"], "--dim"),
    ("scan-depth", ["--len", "0"], "--len"),
    ("cm-rnn", ["--nodes", "0"], "--nodes"),
    ("cm-rnn", ["--nodes", "1"], "--nodes"),
    ("cm-rnn", ["--mlp-trials", "-3"], "--mlp-trials"),
    ("sm-rnn", ["--len", "-1"], "--len"),
    # one past each upper bound, and far past it
    ("dwfa-pd", ["--states", "1025"], "--states"),
    ("dwfa-pd", ["--states", "100000"], "--states"),
    ("pd-product", ["--dim", "1025"], "--dim"),
    ("pd-product", ["--dim", "100000"], "--dim"),
    ("scan-depth", ["--dim", "65"], "--dim"),
    ("scan-depth", ["--dim", "100000"], "--dim"),
    ("cm-rnn", ["--nodes", "16385"], "--nodes"),
    ("cm-rnn", ["--nodes", "100000000"], "--nodes"),
])
def test_wfa_verbs_reject_bad_sizes(capsys, monkeypatch, verb, flags, flag):
    # every verb's size flags; the automaton verbs' came first, hence the name
    from exactrnn import verify

    draws = []
    monkeypatch.setattr(verify, "rng_for", lambda *key: draws.append(key))
    assert run_cli(["verify", verb, "--trials", "1", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag} must be") and flags[1] in captured.err
    assert captured.out == "" and draws == []


@pytest.mark.parametrize("n_states, n_symbols", [(0, 2), (-1, 2), (2, 0), (2, 9)])
def test_random_automata_reject_bad_sizes_before_any_draw(n_states, n_symbols):
    import random

    from exactrnn.verify import random_dwfa, random_wfa

    rng = random.Random(0)
    state = rng.getstate()
    for draw in (random_wfa, random_dwfa):
        with pytest.raises(ValueError, match="n_states" if n_states < 1 else "n_symbols"):
            draw(rng, n_states, n_symbols)
    assert rng.getstate() == state

