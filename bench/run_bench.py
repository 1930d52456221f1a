"""The dexsim benchmark: one workload, one seed, one run.

    python3 bench/run_bench.py --workload fuzz_campaign|long_trace|scenario_exec|all
                               --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.  The
run measures set-up in fresh interpreters, then repeats the workload's job
(one pass) until ``S`` seconds have gone, checks every operation's output
against ``reference.json``, and prints the metrics, one per line, followed
by a JSON line with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are BENCHMARK.json's ``end_to_end`` list;
with ``--trace 1`` the run spends half its time untraced, then runs one
traced pass and the scaling probe, and reports the ``per_layer`` list.
The exit code is 0 only if every output matched.  ``--workload all`` runs
each workload in turn, each in a fresh interpreter.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import calibrate

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "results")
WORKLOADS = ("fuzz_campaign", "long_trace", "scenario_exec")
SETUP_PROBES = 7
PROBE_BLOCKS = (200, 400)


def import_workloads():
    """Import the benchmark's workload module, and through it dexsim from
    this checkout's ``src/`` and nowhere else."""
    package = os.path.join(SRC, "dexsim")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"error: no dexsim package under {SRC}")
    sys.path.insert(0, SRC)
    import dexsim
    import workloads

    if os.path.dirname(os.path.abspath(dexsim.__file__)) != package:
        raise SystemExit(f"error: dexsim imported from {dexsim.__file__}, not {package}")
    return workloads


# -- set-up ------------------------------------------------------------------


def setup_probe(args) -> int:
    """Child mode: import and build the inputs, then report readiness."""
    workloads = import_workloads()
    workloads.build(args.workload, args.seed, OUT_DIR)
    print("ready", flush=True)
    return 0


def measure_setup(args, calibrator) -> list[float]:
    """Seconds from starting a fresh interpreter to its first timed
    operation, once per probe process, with a host speed sample before
    each probe."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        calibrator.sample()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            status = child.wait()
        if line.strip() != "ready" or status != 0:
            raise SystemExit(f"error: set-up probe failed with exit {status}")
        samples.append(elapsed)
    return samples


# -- measuring ---------------------------------------------------------------


def timed_passes(workloads, job, budget: float, calibrator) -> list[list]:
    """Repeat the job until ``budget`` seconds have gone (at least once),
    sampling the host speed index all the while."""
    passes = []
    start = time.perf_counter()
    calibrator.sample()
    calibrator.arm()
    try:
        while not passes or time.perf_counter() - start < budget:
            gc.collect()
            passes.append(workloads.run_pass(job, calibrator))
    finally:
        calibrator.disarm()
    return passes


def pass_wall(ops) -> float:
    return sum(op.latency for op in ops)


def end_to_end_metrics(passes, setup: list[float], factor: float = 1.0,
                       setup_factor: float = 1.0) -> dict[str, float]:
    """The end-to-end metrics with the set-up time multiplied by
    ``setup_factor`` and every other time by ``factor``.
    Every pass repeats the same operations; an operation's latency is the
    median of its repeats, and the percentiles run over distinct
    operations."""
    ops = [op for p in passes for op in p]
    timed = sum(pass_wall(p) for p in passes) * factor
    repeats: dict[int, list[float]] = {}
    for op in ops:
        repeats.setdefault(op.key, []).append(op.latency * 1000 * factor)
    latencies_ms = [statistics.median(r) for r in repeats.values()]
    return {
        "setup_s": statistics.median(setup) * setup_factor,
        "wall_s": statistics.median(pass_wall(p) for p in passes) * factor,
        "actions_per_s": sum(op.actions for op in ops) / timed,
        "traces_per_s": len(ops) / timed,
        "trace_ms_p50": statistics.median(latencies_ms),
        "trace_ms_p95": _percentile(latencies_ms, 95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def traced_metrics(workloads, job, seed: int, untraced_passes) -> tuple[dict, list]:
    """One traced pass and the scaling probe; returns the per-layer metrics
    and the traced pass's operations."""
    import tracing

    tracer = tracing.Tracer()
    gc.collect()
    tracer.install()
    try:
        ops = workloads.run_pass(job, tracer)
    finally:
        tracer.uninstall()
    m = tracing.per_layer_metrics(tracer)
    wall = pass_wall(ops)
    if m["trace.self_sum_s"] > wall:
        raise SystemExit(f"error: self times sum to {m['trace.self_sum_s']} s, above the traced {wall} s")
    m["trace.wall_s"] = wall
    m["trace.overhead_s"] = wall - statistics.median(pass_wall(p) for p in untraced_passes)
    tracer.write(os.path.join(OUT_DIR, f"spans-{job.workload}-{seed}.jsonl.gz"))
    del tracer  # free the spans before the probe builds its traces

    for blocks in PROBE_BLOCKS:
        m[f"checks.run_checks_for.s_at_{blocks}"], m[f"chain.snapshot_log_entries_at_{blocks}"] = (
            workloads.scaling_probe(seed, blocks))
    m["checks.growth_400_200"] = m["checks.run_checks_for.s_at_400"] / m["checks.run_checks_for.s_at_200"]
    return m, ops


# -- verification and reporting ---------------------------------------------


def failures(ops, digests: list[str]) -> list[str]:
    out = []
    for op in ops:
        if op.error:
            out.append(f"op {op.key}: {op.error}")
        elif op.violations:
            out.append(f"op {op.key}: {op.violations} checker violation(s)")
        elif op.digest != digests[op.key]:
            out.append(f"op {op.key}: digest {op.digest} != reference {digests[op.key]}")
    return out


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "dexsim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                src.update(name.encode() + b"\0" + f.read())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "source_sha256": src.hexdigest()[:16],
    }


def git_sha() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as f:
                return next(ln.split()[0] for ln in f if ln.rstrip().endswith(" " + ref))
    except (OSError, StopIteration):
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return max(
            subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for w in WORKLOADS
        )

    workloads = import_workloads()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(BENCH_DIR, "reference.json")) as f:
        digests = json.load(f)["digests"][args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)

    calibrator = calibrate.Calibrator()
    setup = measure_setup(args, calibrator)
    setup_factor = calibrator.factor(last=SETUP_PROBES)
    job = workloads.build(args.workload, args.seed, OUT_DIR)
    if args.trace:
        passes = timed_passes(workloads, job, args.seconds / 2, calibrator)
        values, traced_ops = traced_metrics(workloads, job, args.seed, passes)
        passes.append(traced_ops)
        listed = spec["per_layer"]
    else:
        passes = timed_passes(workloads, job, args.seconds, calibrator)
        values = end_to_end_metrics(passes, setup, calibrator.factor(first=SETUP_PROBES), setup_factor)
        listed = spec["end_to_end"]
    if set(values) != {m["name"] for m in listed}:
        raise SystemExit(f"error: metrics differ from BENCHMARK.json: {sorted(set(values) ^ {m['name'] for m in listed})}")

    ops = [op for p in passes for op in p]
    failed = failures(ops, digests)
    env = environment()
    counts = {
        "passes": len(passes),
        "traces": len(ops),
        "distinct_traces": len({op.key for op in ops}),
        "actions": sum(op.actions for op in ops),
        "error_frac": len(failed) / len(ops),
        "setup_samples_s": setup,
        "pass_walls_s": [pass_wall(p) for p in passes],
        "host_index_s": calibrator.index(first=SETUP_PROBES),
        "setup_host_index_s": calibrator.index(last=SETUP_PROBES),
        "kernel_alloc_s": calibrator.alloc_s,
        "kernel_scan_s": calibrator.scan_s,
    }
    if not args.trace:
        counts["raw_metrics"] = end_to_end_metrics(passes, setup)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}

    for line in failed[:20]:
        print(f"MISMATCH {line}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} job={job.index} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# passes={counts['passes']} traces={counts['traces']}"
          f" distinct_traces={counts['distinct_traces']} actions={counts['actions']}"
          f" error_frac={counts['error_frac']} ({len(failed)}/{len(ops)})"
          f" host_index_ms={counts['host_index_s'] * 1000:.3f}")
    raw = counts.get("raw_metrics", {})
    for name, m in metrics.items():
        measured = f"  (measured {raw[name]:.6g})" if raw.get(name, m["value"]) != m["value"] else ""
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}{measured}")
    out = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "environment": env,
                   "counts": counts, **result}, f, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
