"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_suite --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` installs the layer wrappers of :mod:`perfbench.layers` and
reports the per-layer metrics plus ``trace.overhead_frac``. Every line
but the last is for people; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload
all`` runs each workload in its own process, one after the other, and
prints their reports. The program under test is imported from ``src/``
next to this directory; without it the run fails before measuring.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

SETUP_SAMPLES = 9
"""Set-ups timed per run (fresh processes); ``setup_s`` is their median,
scaled to the reference host speed."""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("paper_suite", "plan_serve", "fleet_campaign", "all"),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set up, print one READY line and exit (timed by the parent)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _require_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: the program is missing ({ROOT / 'src' / 'repro'} "
            "not found); run from a full checkout\n"
        )
        raise SystemExit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # The program's plan cache may read a directory named by the
    # environment; the benchmark touches nothing outside the checkout.
    os.environ.pop("REPRO_CACHE_DIR", None)


def _timed_setups(args, speed) -> list:
    """Wall from spawn to READY of fresh processes doing the same set-up;
    ``speed`` samples the host between them."""
    samples = []
    speed.sample()
    for _ in range(SETUP_SAMPLES):
        began = time.perf_counter()
        child = subprocess.Popen(
            [
                sys.executable,
                str(BENCH_DIR / "run.py"),
                "--workload",
                args.workload,
                "--seed",
                str(args.seed),
                "--setup-only",
            ],
            stdout=subprocess.PIPE,
            cwd=str(ROOT),
            text=True,
        )
        try:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - began)
            code = child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if code != 0 or not line.startswith("READY"):
            raise RuntimeError(f"set-up process failed (exit {code})")
        speed.sample()
    return samples


def _run_all(args) -> int:
    """Run every workload in its own process, one after the other."""
    status = 0
    for name in ("paper_suite", "plan_serve", "fleet_campaign"):
        print(f"===== {name}", flush=True)
        code = subprocess.call(
            [
                sys.executable,
                str(BENCH_DIR / "run.py"),
                "--workload",
                name,
                "--seed",
                str(args.seed),
                "--seconds",
                str(args.seconds),
                "--trace",
                str(args.trace),
            ],
            cwd=str(ROOT),
        )
        status = status or code
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    _require_program()
    if args.workload == "all":
        return _run_all(args)

    from perfbench import host, layers, stats
    from perfbench.workloads import SCRATCH_DIR, WORKLOADS, peak_rss_mb

    os.chdir(ROOT)
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    pins = json.loads((BENCH_DIR / "pins.json").read_text())
    spec = load_spec()
    workload = WORKLOADS[args.workload](args.seed, pins)
    workload.setup()
    if args.setup_only:
        print("READY", flush=True)
        return 0
    setup_speed = host.HostSpeed()
    setups = _timed_setups(args, setup_speed)

    jobs, traced_jobs, totals = [], [], []
    problems = []
    began = time.perf_counter()
    if args.trace:
        # A traced run times one untraced job for the overhead ratio and
        # at least two traced jobs, so work counts can be checked to
        # repeat exactly. The first job of a process is the slowest
        # (lazy caches), so closed workloads start with a traced one and
        # compare the untraced job with the traced jobs after it.
        plan = ["untraced", "traced"] if args.workload == "plan_serve" else [
            "traced", "untraced", "traced"
        ]
        while plan or (
            args.workload != "plan_serve" and time.perf_counter() - began < args.seconds
        ):
            if (plan.pop(0) if plan else "traced") == "untraced":
                jobs.append(workload.job(traced=False))
                continue
            handle = layers.install()
            try:
                job = workload.job(traced=True)
            finally:
                handle.remove()
            layer_totals = layers.LayerTotals()
            layer_totals.absorb(job.obs.tracer.spans, handle.pool_starts)
            for name, value in job.counts.items():
                layer_totals.add(name, value)
            traced_jobs.append(job)
            totals.append(layer_totals)
    else:
        # Stop when the next job would end more than half a job past
        # --seconds; the plan_serve ladder is one job of about that length.
        while not jobs or (
            time.perf_counter() - began
            + 0.5 * sum(j.wall_s for j in jobs) / len(jobs)
            < args.seconds
        ):
            jobs.append(workload.job(traced=False))

    everything = jobs + traced_jobs
    attempted = sum(j.attempted for j in everything)
    failed = sum(j.failed for j in everything)
    for job in everything:
        problems.extend(job.problems)
    digests = {j.digest for j in everything}
    if len(digests) > 1:
        problems.append("outputs differ between jobs of one run")
        failed += 1
    readings = workload.summary(jobs)
    readings["setup_wall_s"] = (stats.median(setups), "s", len(setups))
    readings["setup_s"] = (stats.median(setups) / setup_speed.slowdown(), "s", len(setups))
    readings["host_slowdown.setup"] = (
        setup_speed.slowdown(), "ratio", len(setup_speed.samples)
    )
    if hasattr(workload, "speed"):
        readings["host_slowdown"] = (
            workload.speed.slowdown(), "ratio", len(workload.speed.samples)
        )
    readings.setdefault("peak_rss_mb", (peak_rss_mb(), "MB", 1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"jobs {len(jobs)} untraced, {len(traced_jobs)} traced")
    print("job walls (s): " + " ".join(f"{j.wall_s:.3f}" for j in everything))
    print(f"failed_frac {failed / max(1, attempted):.6f}  "
          f"({failed} of {attempted} operations)")
    for name, (value, unit, n) in sorted(readings.items()):
        print(f"  {name:<24} {value:14.6f} {unit:<6} n={n}")
    if hasattr(workload, "rung_lines"):
        for line in workload.rung_lines(jobs[-1]):
            print(line)
    if args.trace:
        metrics = _layer_report(
            args, spec, layers, totals, jobs, traced_jobs, problems
        )
    else:
        metrics = {
            m["name"]: {"value": readings[m["name"]][0], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    correct = not problems and failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            },
            sort_keys=True,
        )
    )
    return 0


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names and units the run reports."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _layer_report(args, spec, layers, totals, jobs, traced_jobs, problems):
    """Per-layer metrics (mean over traced jobs) and the overhead ratio."""
    per_job = [t.metrics() for t in totals]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if args.workload != "plan_serve":
        for name in layers.MOVES:
            seen = {m[name] for m in per_job}
            if units[name] == "count" and len(seen) > 1:
                problems.append(f"count {name} differs between runs: {sorted(seen)}")
    values = {n: sum(m[n] for m in per_job) / len(per_job) for n in layers.MOVES}
    if args.workload == "plan_serve":
        untraced = jobs[0].detail["nominal"]["mean_ms"]
        traced = traced_jobs[0].detail["nominal"]["mean_ms"]
    else:
        untraced = jobs[0].wall_s
        after = traced_jobs[1:]
        traced = sum(j.wall_s for j in after) / len(after)
    values["trace.overhead_frac"] = traced / untraced - 1.0

    print("per-layer (mean over traced jobs); moves -> end-to-end metric @ workload")
    for name, (moves, where) in layers.MOVES.items():
        print(f"  {name:<34} {values[name]:16.6f} {units[name]:<6} -> {moves} @ {where}")
    print(f"  {'trace.overhead_frac':<34} {values['trace.overhead_frac']:16.6f}")
    if args.workload == "plan_serve":
        print("  (timing-dependent, not repeatable: " + ", ".join(layers.TIMING_DEPENDENT) + ")")
    samples = totals[-1].sample_counts()
    if samples:
        print("  samples: " + ", ".join(f"{k}={v}" for k, v in sorted(samples.items())))
    _write_trace(args, layers, traced_jobs[-1])
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer"]
    }


def _write_trace(args, layers, job) -> None:
    """Write the last traced job's layer spans (name, start, end, parent) as JSONL."""
    from perfbench.workloads import SCRATCH_DIR

    path = Path(SCRATCH_DIR) / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for span in layers.wrapped_spans(job.obs.tracer.spans):
            handle.write(json.dumps(span, sort_keys=True, default=str))
            handle.write("\n")
    print(f"  spans written to {path}")


if __name__ == "__main__":
    sys.exit(main())
