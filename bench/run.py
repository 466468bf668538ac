"""icofridge benchmark: one seeded workload, measured end to end or traced.

    python3 bench/run.py --workload {sweep,verify,desk_scale,all} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` it measures ``setup_s`` (median over fresh interpreters,
this one included, of the time from process start through import, input
generation and one warm-up pass), ``peak_rss_mb`` (median peak resident
memory of those interpreters) and ``wall_s`` (median pass time over S seconds
of passes). With ``--trace 1`` it alternates, for S seconds, plain passes
and passes with every layer's public functions wrapped (see ``tracing.py``),
then runs two untimed memory passes (tracemalloc inside cswap calls, then
over the whole pass), and reports per-layer self times, work counts and memory.
Every timed pass's outputs go through the workload's correctness gate
outside the timed region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those listed in ``BENCHMARK.json``. The program under test is
imported from ``src/`` of the checkout that holds this file, and pass
outputs and span files go to ``.bench_work/`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SETUP_SAMPLES = 3
NAMES = ("sweep", "verify", "desk_scale")


def import_package() -> None:
    """Import icofridge from this checkout's ``src/``; exit nonzero if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import icofridge
    except ImportError as exc:
        sys.exit(f"bench: cannot import icofridge from {SRC}: {exc}")
    if not Path(icofridge.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: icofridge resolved to {icofridge.__file__}, not under {SRC}")


class Tally:
    """Operations attempted and failed, over every gated pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, workload, inputs, outputs) -> None:
        failed = workload.gate(inputs, outputs)
        self.attempted += workload.ops
        self.failed += len(failed)
        self.failures.extend(failed)


def timed_passes(workload, inputs, workdir, seconds, tally, tracer=None, keep=None):
    """Closed-loop passes until ``seconds`` of pass time; returns pass walls
    and, per pass, ``keep(outputs)`` when given."""
    import tracing

    if tracer is None and tracing.wrapped_names():
        raise RuntimeError("timed passes must run the unwrapped functions")
    walls, kept = [], []
    while not walls or sum(walls) < seconds:
        if tracer is not None:
            tracer.begin_pass()
        t0 = time.perf_counter()
        outputs = workload.run_pass(inputs, workdir)
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_pass(wall)
        walls.append(wall)
        tally.record(workload, inputs, outputs)
        if keep is not None:
            kept.append(keep(outputs))
        del outputs
    return walls, kept


def process_age() -> float:
    """Seconds since this process started (Linux: boot-clock time minus the
    start time in /proc/self/stat, which has clock-tick resolution)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        stat = fh.read()
    start_ticks = int(stat[stat.rindex(")") + 2 :].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux


def setup_sample(args) -> tuple[float, float]:
    """Set-up seconds and peak resident MB of a fresh interpreter that
    imports, makes the inputs and runs one warm-up pass."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=120)
    line = proc.stdout.split()
    if proc.returncode != 0 or len(line) != 3 or line[0] != "ready":
        raise RuntimeError(f"setup probe exited {proc.returncode}")
    return float(line[1]), float(line[2])


def peak_pass(workload, inputs, workdir) -> float:
    """tracemalloc peak, in MB, over one pass of its own."""
    tracemalloc.start()
    try:
        workload.run_pass(inputs, workdir)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def tail(walls: list[float]) -> str:
    """Highest percentile with at least ten passes beyond it, if above p50."""
    n = len(walls)
    q = (100 * (n - 10)) // n if n > 10 else 0
    if q <= 50:
        return "no tail percentile (fewer than 21 passes)"
    return f"p{q} {sorted(walls)[n - 11]:.4f} s"


def plain_run(workload, args, workdir):
    from workloads import table_rows

    inputs = workload.inputs(args.seed)
    workload.run_pass(inputs, workdir)  # warm-up
    own = (process_age(), peak_rss_mb())
    setups, rss = zip(own, *(setup_sample(args) for _ in range(SETUP_SAMPLES - 1)))
    tally = Tally()
    walls, rows = timed_passes(workload, inputs, workdir, args.seconds, tally, keep=table_rows)
    wall = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "peak_rss_mb": statistics.median(rss),
    }
    fail_frac = tally.failed / tally.attempted
    throughput = f"{rows[0] / wall:.1f} rows/s ({rows[0]} rows per pass)" if rows[0] else "n/a (no table rows)"
    seed_note = " (seed unused: built-in check inputs)" if workload.name == "verify" else ""
    print(f"{workload.name} seed={args.seed}{seed_note}")
    print(f"  setup_s    {metrics['setup_s']:.4f} s   median of {len(setups)} fresh processes")
    print(f"  wall_s     {wall:.4f} s   median of {len(walls)} passes; {tail(walls)}")
    print(f"  passes     {' '.join(f'{w:.4f}' for w in walls)} s")
    print(f"  rows_per_s {throughput}")
    print(f"  peak_rss_mb {metrics['peak_rss_mb']:.2f} MB  median of the same processes")
    print(f"  fail_frac  {fail_frac:.4g} ratio   ({tally.failed} of {tally.attempted} operations)")
    return tally, metrics


def traced_run(workload, args, workdir):
    import tracing
    from icofridge import verify

    inputs = workload.inputs(args.seed)
    workload.run_pass(inputs, workdir)  # warm-up
    tally = Tally()
    keep = _check_seconds if workload.name == "verify" else None
    # Plain and traced passes alternate, so both see the same machine speed
    # and their difference (trace.overhead_s) is the wrappers' cost.
    tracer = tracing.Tracer()
    plain, traced, check_secs = [], [], []
    while sum(plain) + sum(traced) < args.seconds:
        walls, kept = timed_passes(workload, inputs, workdir, 0, tally, keep=keep)
        plain += walls
        check_secs += kept
        with tracer:
            walls, _ = timed_passes(workload, inputs, workdir, 0, tally, tracer=tracer)
        traced += walls
    memory = tracing.Tracer(track_memory=True)
    with memory:
        memory.begin_pass()
        workload.run_pass(inputs, workdir)
    if tracing.wrapped_names():
        raise RuntimeError("tracing wrappers left installed")

    per_pass = tracer.per_pass()
    metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    metrics["cswap.peak_mb"] = memory.memory_peak / 1e6
    metrics["trace.tracemalloc_peak_mb"] = peak_pass(workload, inputs, workdir)
    for name in verify.CHECKS:
        metrics[f"verify.{name}.s"] = statistics.median(c.get(name, 0.0) for c in check_secs) if check_secs else 0.0
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    tracer.write(workdir / "spans.npz")
    print(f"{workload.name} seed={args.seed}: {len(plain)} plain and {len(traced)} traced passes; "
          f"spans in {(workdir / 'spans.npz').relative_to(ROOT)}")
    return tally, metrics


def _check_seconds(outputs) -> dict:
    results = outputs["results"]
    return {r.name: r.seconds for r in results} if isinstance(results, list) else {}


def report(tally, values: dict, specs: list[dict]) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }


def run_all(args) -> int:
    """Each workload in a fresh interpreter; one summary table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_package()
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload == "all":
        return run_all(args)
    workload = workloads.WORKLOADS[args.workload]
    workdir = WORKDIR / workload.name
    workdir.mkdir(parents=True, exist_ok=True)
    if args.setup_probe:
        workload.run_pass(workload.inputs(args.seed), workdir)
        print("ready", process_age(), peak_rss_mb())
        return 0
    if args.trace:
        tally, values = traced_run(workload, args, workdir)
        specs = spec["per_layer"]
    else:
        tally, values = plain_run(workload, args, workdir)
        specs = spec["end_to_end"]
    if tally.failures:
        print(f"bench: failed operations: {sorted(set(tally.failures))}", file=sys.stderr)
    print(json.dumps(report(tally, values, specs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
