"""Exactness-gated benchmark for exactrnn.

Run one workload (one process, one thread):

    python3 perfbench/run.py --workload wfa-short --seed 0 --seconds 10 --trace 0

or every workload, each in its own child process so that its peak RSS is
its own:

    python3 perfbench/run.py --workload all

The package is imported from ``src/`` next to this directory, never from
an installed copy. Every pass is checked against an independent oracle by
exact rational equality; any mismatch or exception is counted as failed
and makes the command exit 1.

Standard output ends with two lines: a JSON report with every metric
named in the README (per-family throughputs, pass-time tail, failed_frac,
seed and environment), then the result line
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
result holds the end-to-end metrics listed in BENCHMARK.json, measured
for ``--seconds`` seconds, with times corrected for the host's speed
drift (see ``hostspeed``; the report also gives them in wall seconds); with ``--trace 1`` it holds the per-layer
metrics from a traced run of a fixed number of passes, and the spans are
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import Sampler, clock
from tracing import FAMILIES, GEN_TASKS, LAYER_METRICS, NullTracer, Tracer, is_exact, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 0
SETUP_REPEATS = 5
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
WORKLOAD_NAMES = ("imm-long", "wfa-short", "relu-trace", "datasets")
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric(value, unit):
    return {"value": value, "unit": unit}


def tail(samples):
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it, by nearest rank; None if there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct, ordered[math.ceil(pct / 100.0 * n) - 1]
    return None


def run_passes(workload, state, tracer, count=None, seconds=None, first=0):
    """Run exactly ``count`` passes from pass ``first`` on, or passes until
    ``seconds`` have passed. Returns (start, end, PassOut or None, error or
    None) per pass, with start and end read from ``hostspeed.clock``.

    A pass ends by collecting its cyclic garbage, so the next pass starts
    from the same heap: peak RSS then does not grow with the number of
    passes a run fits in, and no pass pays for its predecessor's garbage."""
    records = []
    start = perf_counter()
    i = first
    while count is None or i < first + count:
        if seconds is not None and i > first and perf_counter() - start >= seconds:
            break
        tracer.pass_id = i + 1
        pass_start = clock()
        out = error = None
        try:
            with tracer.span("pass"):
                out = workload.run_pass(state, i, tracer)
        except Exception as exc:  # every failure is counted, never fatal
            error = f"{type(exc).__name__}: {exc}"
        gc.collect()
        records.append((pass_start, clock(), out, error))
        i += 1
    return records


def rate(records, families, seconds):
    """Items per second of ``families``' timed spans over the whole run,
    with each span's seconds given by ``seconds(start, end)``."""
    items = secs = 0
    for _, _, out, _ in records:
        for fam in families:
            if out is not None and fam in out.work:
                items += out.work[fam][0]
                secs += sum(seconds(a, b) for a, b in out.work[fam][1])
    return items / secs if secs > 0 else 0.0


def wall(start, end):
    return end - start


def fresh_setup(args):
    """One set-up from scratch: import the package and the workloads module
    anew, generate the input pool and build the fixed nets. Returns the
    set-up's (start, end) clock readings with the module, workload and state."""
    for name in [m for m in sys.modules
                 if m in ("exactrnn", "workloads") or m.startswith("exactrnn.")]:
        del sys.modules[name]
    gc.collect()  # free the previous set-up so it does not count in peak RSS
    start = clock()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    state = workload.setup(args.seed, NullTracer())
    return (start, clock()), workloads, workload, state


def measure(args):
    # run_one's first import has already loaded the standard-library modules
    # the package needs, so every timed set-up does the same work
    setup_spans = []
    with Sampler() as sampler:
        for _ in range(SETUP_REPEATS):
            span, workloads, workload, state = fresh_setup(args)
            setup_spans.append(span)
        records = run_passes(workload, state, NullTracer(), seconds=args.seconds)
    fix = sampler.corrected
    errors = [err for _, _, _, err in records if err]
    attempted, failed = len(records), len(errors)
    golden = None
    if workload.name == "datasets":
        checked, golden = workloads.check_golden(HERE / "golden.json", DEFAULT_SEED)
        attempted += checked
        failed += len(golden)
        errors += [f"golden digest differs: {g}" for g in golden]

    unit = f"{workload.item}/s"
    passes = [(a, b) for a, b, out, _ in records if out is not None]
    pass_times = [fix(a, b) for a, b in passes]
    setup_s = statistics.median(fix(a, b) for a, b in setup_spans)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {}
    for f in workload.families:
        report[f"{f}.{workload.item}_per_s"] = metric(rate(records, (f,), fix), unit)
        report[f"{f}.{workload.item}_per_wall_s"] = metric(rate(records, (f,), wall), unit)
    report["setup_s"] = metric(setup_s, "s")
    report["setup_wall_s"] = metric(statistics.median(b - a for a, b in setup_spans), "s")
    report["peak_rss_mb"] = metric(peak_rss_mb, "MB")
    report["failed_frac"] = metric(failed / attempted, "frac")
    p50 = statistics.median(pass_times) if pass_times else 0.0
    report["pass_s.p50"] = metric(p50, "s")
    report["pass_wall_s.p50"] = metric(
        statistics.median(b - a for a, b in passes) if passes else 0.0, "s")
    tail_at = tail(pass_times)
    if tail_at is not None:
        report["pass_s.tail"] = metric(tail_at[1], "s")
    report["host_slowdown.p50"] = metric(statistics.median(sampler.slowdowns), "x")

    slot_a, slot_b = workload.slots
    gated = {
        "setup_s": metric(setup_s, "s"),
        "family_a.items_per_s": metric(rate(records, slot_a, fix), "1/s"),
        "family_b.items_per_s": metric(rate(records, slot_b, fix), "1/s"),
        "pass_s.p50": metric(p50, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    detail = {
        "pass_s.tail": {"percentile": tail_at[0] if tail_at else None,
                        "samples": len(pass_times)},
        "slots": {"family_a": list(slot_a), "family_b": list(slot_b)},
        "setup_repeats_s": [fix(a, b) for a, b in setup_spans],
        "host_probes": len(sampler.slowdowns),
        "golden_digests": None if golden is None else ("match" if not golden else golden),
    }
    return report, detail, gated, attempted, failed, errors


def trace_run(args, workload):
    """Each pass runs untraced and then traced, so that host speed drift
    falls on both sides of ``trace.overhead_frac`` alike."""
    null = NullTracer()
    count = workload.traced_passes
    plain_state = workload.setup(args.seed, null)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.pass_id = 0
        state = workload.setup(args.seed, tracer)
    finally:
        tracer.uninstall()
    plain, records = [], []
    plain_s = traced_s = 0.0
    for i in range(count):
        start = perf_counter()
        plain += run_passes(workload, plain_state, null, count=1, first=i)
        plain_s += perf_counter() - start
        tracer.install()
        try:
            start = perf_counter()
            records += run_passes(workload, state, tracer, count=1, first=i)
            traced_s += perf_counter() - start
        finally:
            tracer.uninstall()

    errors = [err for _, _, _, err in plain + records if err]
    extra = {
        "trace.overhead_frac": traced_s / plain_s - 1.0,
        "relu.compile_s": tracer.layer_self_s("relu.compile"),
    }
    bits = {}
    gen = {}
    for _, _, out, _ in records:
        if out is None:
            continue
        for fam, b in out.bits.items():
            bits[fam] = max(bits.get(fam, 0), b)
        for fam, (nbytes, kept) in out.gen.items():
            total = gen.setdefault(fam, [0, 0, 0])
            total[0] += nbytes
            total[1] += kept
            total[2] += out.work[fam][0]
    for fam in FAMILIES:
        extra[f"{fam}.value_bits.max"] = bits.get(fam, 0)
    for task in GEN_TASKS:
        nbytes, kept, nrecords = gen.get(task, (0, 0, 0))
        extra[f"gen.{task}.bytes"] = nbytes
        extra[f"gen.{task}.kept"] = kept
        extra[f"gen.{task}.records"] = nrecords
    metrics, absent = layer_metrics(tracer, extra)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"trace-{workload.name}.json"
    tracer.write(spans_path)
    detail = {
        "traced_passes": count,
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "absent": absent,
        # denominators of the ratio metrics; hit ratios use <fam>.router.lookup.calls
        "ratio_bases": {
            "gen.imm_mod.accept_ratio": {"kept": extra["gen.imm_mod.kept"],
                                         "mat3_det_mod_calls": tracer.counters["gen.det_calls"]},
            "gen.imm_z.accept_ratio": {"records": extra["gen.imm_z.records"],
                                       "imm_z_oracle_calls": tracer.counters["gen.imm_z_oracle_calls"]},
        },
    }
    return metrics, detail, 2 * count, len(errors), errors


def check_declared(names, trace):
    """The metrics printed must be exactly the ones BENCHMARK.json declares."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    extra, missing = set(names) - declared, declared - set(names)
    if extra or missing:
        return f"metrics differ from BENCHMARK.json: extra {sorted(extra)} missing {sorted(missing)}"
    return None


def run_one(args):
    sys.path.insert(0, str(SRC))
    import exactrnn
    import workloads

    if Path(exactrnn.__file__).resolve().parent != SRC / "exactrnn":
        print(f"error: imported exactrnn from {exactrnn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    header = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "backend": getattr(exactrnn, "BACKEND", None),
    }
    if args.trace:
        result_metrics, detail, attempted, failed, errors = trace_run(args, workload)
        report = {
            name: {**result_metrics[name], "target": target, "workload": where,
                   "exact": is_exact(name)}
            for name, _unit, _better, target, where, _needs in LAYER_METRICS
            if name in result_metrics
        }
        absent_ok = set(detail["absent"])
    else:
        report, detail, result_metrics, attempted, failed, errors = measure(args)
        absent_ok = set()
    for err in errors[:5]:
        print(f"FAIL {workload.name}: {err}", file=sys.stderr)
    problem = check_declared(set(result_metrics) | absent_ok, args.trace)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    print(json.dumps({**header, "report": report, "detail": detail}, sort_keys=True))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own child process; prints every metric by name."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}")
            status = status or proc.returncode or 1
            if len(lines) < 2:
                continue
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        shown = info["report"] if not args.trace else result["metrics"]
        for key, m in sorted(shown.items()):
            print(f"{name:11s} {key:34s} {m['value']:>16.6g} {m['unit']}")
        results[name] = {"info": info, "result": result}
    print(json.dumps(results, sort_keys=True))
    return status


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "exactrnn" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
