#!/usr/bin/env python3
"""Benchmark of toric-precision: time to correct verdicts, layer by layer.

    python3 perfbench/run.py --workload horn-product --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --smoke                   # smallest inputs, one pass each

Run from the repository root.  One closed loop per workload: one case at a
time, no extra threads, at most one subprocess at a time.  Inputs come from
the seed; every verdict and value is checked against a known answer.  With
``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones (spans go to .perfbench/).  Earlier lines
are human-readable context.  Exits 2 without a result when the program's
source is missing.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5  # fresh interpreters timed for setup_s
IMPORT_REPEATS = 5  # fresh interpreters timed for cli.import_s
PROBE_REFERENCE_S = 0.015  # speed_probe() at full speed on a 2-vCPU x86-64 VM; only ratios matter
SEGMENT_S = 0.25  # cases are timed in segments of about this length, a speed probe between
METRICS = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in METRICS["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in METRICS["per_layer"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass per workload on the smallest inputs")
    parser.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- statistics ------------------------------------------------------------------


def describe(samples) -> str:
    """Median, quartiles, the highest percentile with >= 10 samples beyond it, count."""
    values = sorted(samples)
    n = len(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if n > 1 else (values[0],) * 3
    tail = f"p{100 * (n - 10) / n:.0f} {values[n - 11]:.6f}" if n > 10 else "no percentile with 10 beyond"
    return f"median {statistics.median(values):.6f}, q1 {q1:.6f}, q3 {q3:.6f}, {tail}, n={n}"


def cpu_now() -> float:
    """User+sys CPU time of this process and its waited-for children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + usage.ru_utime + usage.ru_stime


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def context_line() -> str:
    from importlib import metadata

    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "toric_precision").glob("*.py"))
    return f"context: python {platform.python_version()}, numpy {numpy}, nproc {os.cpu_count()}, src lines {lines}"


def speed_probe() -> float:
    """Wall time of a fixed sparse-polynomial product: the yardstick for machine speed.

    Shared hosts change speed by up to 2x for minutes at a time.  Timing this
    product between cases lets the benchmark report times at one reference
    speed: time * PROBE_REFERENCE_S / probe.  It does the program's kind of
    work (Fraction coefficients in a dict keyed by exponent tuples) but runs
    none of its code, so a change to the program cannot move it.
    """
    factor = {(i, j, k): Fraction(i - j + 1, k + 2) for i in range(4) for j in range(4) for k in range(4)}
    start = time.perf_counter()
    product: dict = {}
    for (a1, a2, a3), x in factor.items():
        for (b1, b2, b3), y in factor.items():
            key = (a1 + b1, a2 + b2, a3 + b3)
            product[key] = product.get(key, 0) + x * y
    return time.perf_counter() - start


# -- passes ---------------------------------------------------------------------


class Pass:
    def __init__(self, mode):
        self.mode = mode
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.latencies: list[float] = []
        self.summary: dict[str, float] = {}
        self.wall = self.cpu = 0.0  # as measured
        self.cpu_ref = 0.0  # at reference speed
        self.speed = 1.0  # reference-speed wall time / measured wall time


def run_pass(wl, state, tracer, targets, mode) -> Pass:
    """One pass over the case list, timed in segments of about SEGMENT_S.

    A speed probe runs between segments.  Each segment's time is brought to
    reference speed with the mean of the probes right before and after it;
    time spent in probes is not counted.
    """
    result = Pass(mode)
    traced = mode == "traced"
    if traced:
        first = len(tracer.spans)
        tracer.counts = {}
        tracer.install(targets)
    wall_ref = cpu_ref = 0.0
    probe = speed_probe()
    mark, cpu_mark = time.perf_counter(), cpu_now()
    pending = False  # cases run since the last probe

    def close_segment(end):
        nonlocal probe, wall_ref, cpu_ref, mark, cpu_mark, pending
        wall, cpu = end - mark, cpu_now() - cpu_mark
        after = speed_probe()
        speed = PROBE_REFERENCE_S / ((probe + after) / 2)
        result.wall, result.cpu = result.wall + wall, result.cpu + cpu
        wall_ref, cpu_ref = wall_ref + wall * speed, cpu_ref + cpu * speed
        probe, pending = after, False
        mark, cpu_mark = time.perf_counter(), cpu_now()

    for case_id, check in wl.cases(state, mode):
        tracer.case = case_id
        start = time.perf_counter()
        try:
            error = check()
        except Exception as exc:  # a raise is a wrong answer, never a crash of the run
            error = f"raised {type(exc).__name__}: {exc}"
        end = time.perf_counter()
        result.latencies.append(end - start)
        result.attempted += 1
        if error:
            result.failed += 1
            result.errors.append(f"{wl.name} {mode} {case_id}: {error}")
        pending = True
        if end - mark >= SEGMENT_S:
            close_segment(end)
    if pending:
        close_segment(time.perf_counter())
    result.speed = wall_ref / result.wall
    result.cpu_ref = cpu_ref
    if traced:
        tracer.uninstall()
        result.summary = tracer.summarize(first)
        result.summary.update(tracer.counts)
    tracer.case = None
    return result


def scaled(summary: dict[str, float], speed: float) -> dict[str, float]:
    """Times (keys ending in _s) at reference speed; counts unchanged."""
    return {k: v * speed if k.endswith("_s") else v for k, v in summary.items()}


def setup_seconds(wl, seed: int, small: bool, repeats: int) -> tuple[list[float], list[float]]:
    """Raw and reference-speed set-up times of fresh interpreters."""
    command = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", wl.name, "--seed", str(seed)]
    if small:
        command.append("--small")
    raw, at_reference = [], []
    for _ in range(repeats):
        proc = subprocess.run(command, cwd=ROOT, env=workloads.child_env(), capture_output=True,
                              text=True, timeout=170, check=True)
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(child["setup_s"])
        at_reference.append(child["setup_s"] * PROBE_REFERENCE_S / child["probe_s"])
    return raw, at_reference


def run_workload(wl, seed: int, seconds: float, trace_on: bool, small: bool):
    """Return (result object, context lines) for one workload."""
    setup_raw, setup_times = setup_seconds(wl, seed, small, 1 if small else SETUP_REPEATS)
    tracer = spans.Tracer() if trace_on else spans.NullTracer()
    P = workloads.program()
    targets = workloads.trace_targets(P) if trace_on else []
    if trace_on:
        tracer.install(targets)
    probe = speed_probe()
    state = wl.setup(seed, tracer, small)
    setup_summary = {}
    if trace_on:
        tracer.uninstall()
        setup_speed = PROBE_REFERENCE_S / ((probe + speed_probe()) / 2)
        setup_summary = scaled({**tracer.summarize(0), **tracer.counts}, setup_speed)

    modes = wl.trace_modes if trace_on else ("plain",)
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        for mode in modes:
            passes.append(run_pass(wl, state, tracer, targets, mode))
        elapsed = time.perf_counter() - start
        cycles = len(passes) // len(modes)
        if small or elapsed + elapsed / cycles > seconds:
            break

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    by_mode = {mode: [p for p in passes if p.mode == mode] for mode in modes}
    walls = {mode: [p.wall * p.speed for p in group] for mode, group in by_mode.items()}
    plain = by_mode["plain"]
    lines = [
        f"workload {wl.name}, seed {seed}, trace {int(trace_on)}, {len(plain)} measured passes in {time.perf_counter() - start:.1f} s",
        context_line(),
        "times are at reference speed: measured time * "
        f"{PROBE_REFERENCE_S} s / speed-probe time; speed factor {describe([p.speed for p in passes])}",
        f"wall_s (s): {describe(walls['plain'])}",
        f"wall_s as measured (s): {describe([p.wall for p in plain])}",
        f"case latency as measured (s): {describe([t for p in plain for t in p.latencies])}",
        f"cpu_s (s): {describe([p.cpu_ref for p in plain])}",
        f"cpu_s as measured (s): {describe([p.cpu for p in plain])}",
        f"setup_s (s): {describe(setup_times)}",
        f"setup_s as measured (s): {describe(setup_raw)}",
        f"error_rate (ratio): {failed / attempted:.6f} = {failed} failed of {attempted} attempted",
    ]
    if not trace_on:
        metrics = {
            "wall_s": statistics.median(walls["plain"]),
            "cpu_s": statistics.median(p.cpu_ref for p in plain),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(wl.in_process),
        }
        lines.append(f"peak_rss_mb (MB): {metrics['peak_rss_mb']:.3f}")
        units = END_TO_END
    else:
        metrics = layer_metrics(wl, state, by_mode, walls, setup_summary)
        units = PER_LAYER
        path = OUT / f"trace-{wl.name}-seed{seed}.jsonl"
        tracer.write(path)
        lines.append(f"spans written to {path.relative_to(ROOT)}")
        lines += [f"{name} ({units[name]}): {metrics[name]:.6g}" for name in units]
    lines += errors[:20]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines


def layer_metrics(wl, state, by_mode, walls, setup_summary) -> dict[str, float]:
    """Per-layer numbers: medians over traced passes, serialize plus traced set-up."""
    traced = [scaled(p.summary, p.speed) for p in by_mode["traced"]]
    metrics = {name: statistics.median(s.get(name, 0.0) for s in traced) for name in PER_LAYER}
    validations = statistics.median(s.get("horn.validations", 0) for s in traced)
    symbolic = statistics.median(s.get("horn.symbolic_validations", 0) for s in traced)
    metrics["horn.symbolic_ratio"] = symbolic / validations if validations else 0.0
    for name in ("serialize.parse_s", "serialize.dump_s", "serialize.bytes", "serialize.self_s"):
        metrics[name] += setup_summary.get(name, 0.0)
    baseline = walls.get("inproc", walls["plain"])
    metrics["trace.overhead_s"] = statistics.median(walls["traced"]) - statistics.median(baseline)
    metrics["cli.import_s"] = metrics["cli.main_s"] = metrics["cli.spawn_s"] = 0.0
    if "inproc" in walls:
        speed = statistics.median(p.speed for group in by_mode.values() for p in group)
        metrics["cli.import_s"] = wl.import_seconds(state, IMPORT_REPEATS) * speed
        metrics["cli.main_s"] = statistics.median(walls["inproc"])
        metrics["cli.spawn_s"] = statistics.median(walls["plain"]) - metrics["cli.main_s"]
    return metrics


# -- entry points ------------------------------------------------------------------


def setup_only(name: str, seed: int, small: bool) -> int:
    """Child side of setup_seconds: set up once, with a speed probe on either side."""
    probe = speed_probe()
    start = time.perf_counter()
    workloads.WORKLOADS[name].setup(seed, spans.NullTracer(), small)
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "probe_s": (probe + speed_probe()) / 2}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def smoke() -> int:
    """One pass per workload and mode on the smallest inputs; every metric must appear."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if [m["name"] for m in declared["end_to_end"]] != list(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from perfbench/metrics.json")
    if [m["name"] for m in declared["per_layer"]] != list(PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from perfbench/metrics.json")
    unknown = {w["name"] for w in declared["workloads"]} - set(workloads.WORKLOADS)
    if unknown:
        problems.append(f"BENCHMARK.json names workloads that perfbench/workloads.py lacks: {sorted(unknown)}")
    for wl in workloads.WORKLOADS.values():
        for trace_on, names in ((False, END_TO_END), (True, PER_LAYER)):
            result, lines = run_workload(wl, 0, 0.0, trace_on, small=True)
            print("\n".join(lines[:2] + [l for l in lines if l.startswith("error_rate")]))
            if result["failed"] or result["attempted"] < 1:
                problems.append(f"{wl.name} trace {int(trace_on)}: error_rate {result['failed']}/{result['attempted']}")
                problems += [line for line in lines if line.startswith(wl.name)]
            if set(result["metrics"]) != set(names):
                problems.append(f"{wl.name} trace {int(trace_on)}: metrics {sorted(set(names) ^ set(result['metrics']))}")
            if not trace_on and any(not m["value"] > 0 for m in result["metrics"].values()):
                problems.append(f"{wl.name}: an end-to-end metric is not positive: {result['metrics']}")
            if trace_on and wl.name == "horn-product" and result["metrics"]["horn.symbolic_ratio"]["value"] != 1.0:
                problems.append("horn-product: horn.symbolic_ratio is not 1.0")
    for problem in problems:
        print(f"SMOKE FAIL: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "toric_precision" / "__init__.py").is_file():
        print(f"error: program source {SRC / 'toric_precision'} not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("TORIC_PRECISION_FIXTURES", None)
    if args.setup_only:
        return setup_only(args.workload, args.seed, args.small)
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("error: the program source does not compile", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    result, lines = run_workload(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.small)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
