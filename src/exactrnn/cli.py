"""Command-line entry point: verify constructions, generate datasets,
measure scan depth and value precision.

Exit codes: 0 all checks passed, 1 a counterexample was found, 2 usage or
configuration error, 3 any other failure (``error: <Type>: <message>``,
with no traceback). All randomness derives from one 64-bit seed
(``--seed``, defaulting to the EXACTRNN_SEED environment variable, then 0).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from . import verify


def _default_seed() -> int:
    return int(os.environ.get("EXACTRNN_SEED", "0"))


def _parse_sizes(text: str) -> list:
    """Comma-separated sizes, each at least 1."""
    sizes = [int(v) for v in text.split(",")]
    if any(n < 1 for n in sizes):
        raise ValueError(f"--n-list sizes must be >= 1, got {text}")
    return sizes


def _parse_range(text: str):
    lo, _, hi = text.partition(",")
    return int(lo), int(hi or lo)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactrnn",
        description="exact-arithmetic verification lab for recurrent models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag the user leaves out is absent, so the verb's own default holds
    ver = sub.add_parser("verify", help="run a construction against its oracle",
                         argument_default=argparse.SUPPRESS)
    ver.add_argument("construction", choices=sorted(verify.REGISTRY))
    ver.add_argument("--seed", type=int)
    for name in dict.fromkeys(name for verb in verify.REGISTRY.values() for name in verb.flags):
        ver.add_argument(verify.flag_of(name), type=int)

    gen = sub.add_parser("gen", help="generate a dataset file")
    gen.add_argument("task", choices=["conn", "imm-mod", "imm-z"])
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--range", dest="size_range", type=_parse_range, required=True,
                     help="instance size range 'lo,hi' with 1 <= lo <= hi")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True)
    # task flags default to None, so cmd_gen passes only the ones given
    gen.add_argument("--p", type=float, help="bucket probability (conn), default 0.5")
    gen.add_argument("--m", type=int, help="prime modulus (imm-mod), default 5")
    gen.add_argument("--q-k", dest="q_k", type=int,
                     help="queried entry index (imm-mod), default 0")
    gen.add_argument("--clip", type=int, nargs="?", const=2**63 - 1,
                     help="saturate products at this magnitude, >= 1 (imm-z); "
                          "bare --clip uses 2^63 - 1")
    gen.add_argument("--balanced", action="store_true", default=None,
                     help="alternate labels by rejection (imm-z)")

    rep = sub.add_parser("report", help="emit CSV measurements")
    repsub = rep.add_subparsers(dest="report_kind", required=True)

    dep = repsub.add_parser("depth", help="scan depth vs sequential steps")
    dep.add_argument("--n-list", default="16,64,256,1024,4096")
    dep.add_argument("--dim", type=int, default=2, help=f"1 to {verify.MAX_SCAN_DIM}")
    dep.add_argument("--seed", type=int, default=None)
    dep.add_argument("--trace", default=None,
                     help="step-dump file to measure instead of random traces")
    dep.add_argument("--out", default=None)

    pre = repsub.add_parser("precision", help="value bit-lengths vs input size")
    pre.add_argument("--task", choices=["conn", "stack"], default="conn")
    pre.add_argument("--n-list", default="16,64,256,1024")
    pre.add_argument("--seed", type=int, default=None)
    pre.add_argument("--out", default=None)

    return parser


def _write_atomic(path: str, chunks):
    """Write the strings ``chunks``, in order, to a temporary file beside
    ``path`` as they come, then rename it to ``path``; on any error the
    temporary file is removed and ``path`` is left as it was. The file
    gets the mode ``open`` would give a new file, 0o666 less the umask
    (``mkstemp`` makes it 0o600)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-exactrnn-")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None):
    if out:
        _write_atomic(out, (text,))
    else:
        sys.stdout.write(text)


def cmd_verify(args) -> int:
    flags = {key: value for key, value in vars(args).items() if key != "command"}
    name = flags.pop("construction")
    seed = flags.pop("seed", _default_seed())
    result = verify.run_trials(name, seed, **flags)
    if result.passed:
        print(f"PASS {name} trials={result.trials} seed={seed}  # {verify.REGISTRY[name].about}")
        return 0
    print(f"FAIL {result.name} after trial {result.trials} seed={seed}")
    print(result.counterexample)
    return 1


def cmd_gen(args) -> int:
    from .problems import _TASK_OPTIONS, _dataset_lines

    seed = args.seed if args.seed is not None else _default_seed()
    options = {
        key: getattr(args, key)
        for key in ("p", "m", "q_k", "clip", "balanced")
        if getattr(args, key) is not None
    }
    taken = _TASK_OPTIONS[args.task]
    extra = ", ".join(verify.flag_of(key) for key in options if key not in taken)
    if extra:
        raise ValueError(f"gen {args.task} does not take {extra}")
    lines = _dataset_lines(args.task, args.count, args.size_range, seed, **options)
    # map holds no line past its write, so one line is in memory at a time
    _write_atomic(args.out, map("{}\n".format, lines))
    print(f"wrote {args.count} {args.task} instances to {args.out} (seed={seed})")
    return 0


def cmd_report_depth(args) -> int:
    from .lrnn import lrnn_run_scan, parse_steps
    from .problems import rng_for

    seed = args.seed if args.seed is not None else _default_seed()
    if not 1 <= args.dim <= verify.MAX_SCAN_DIM:
        raise ValueError(f"--dim must be in 1..{verify.MAX_SCAN_DIM}, got {args.dim}")
    rows = ["n,scan_depth,sequential_steps"]
    if args.trace:
        with open(args.trace) as handle:
            steps = parse_steps(handle.read())
        _, stats = lrnn_run_scan(steps)
        rows.append(f"{len(steps)},{stats.depth},{max(len(steps) - 1, 0)}")
    else:
        for n in _parse_sizes(args.n_list):
            rng = rng_for(seed, "report-depth", n)
            steps = [verify.random_linstep(rng, args.dim) for _ in range(n)]
            _, stats = lrnn_run_scan(steps)
            rows.append(f"{n},{stats.depth},{n - 1}")
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def precision_points(task: str, sizes, seed: int):
    """(n, max_value_bits) for the connectivity or stack simulators."""
    from .automata import build_conn_counter_machine, scripted_stack_machine
    from .problems import SortedDetConnInstance, encode_conn_unary, rng_for
    from .relu_nets import cm_to_mlp_rnn, run_mlp_rnn, sm_to_mlp_rnn

    points = []
    if task == "conn":
        rnn = cm_to_mlp_rnn(build_conn_counter_machine())
        for n in sizes:
            inst = SortedDetConnInstance(n=n, s=n, t=n, edges=())
            res = run_mlp_rnn(rnn, encode_conn_unary(inst), track_precision=True)
            points.append((n, res.precision.max_value_bits))
    else:
        rnn = sm_to_mlp_rnn(scripted_stack_machine(2, verify.STACK_OP_PAIRS))
        ops = ("push0", "push1", "pop", "noop")
        weights = (3, 3, 1, 1)
        for n in sizes:
            rng = rng_for(seed, "report-precision", task, n)
            prog = [
                (rng.choices(ops, weights=weights)[0], rng.choices(ops, weights=weights)[0])
                for _ in range(n)
            ]
            res = run_mlp_rnn(rnn, prog, track_precision=True)
            points.append((n, res.precision.max_value_bits))
    return points


def cmd_report_precision(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    sizes = _parse_sizes(args.n_list)
    rows = ["n,max_value_bits"]
    for n, bits in precision_points(args.task, sizes, seed):
        rows.append(f"{n},{bits}")
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "report":
            if args.report_kind == "depth":
                return cmd_report_depth(args)
            return cmd_report_precision(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
