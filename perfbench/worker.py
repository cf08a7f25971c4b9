"""The process that does a workload's work; ``run.py`` starts it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                [--trace] [--setup-only] [--size smoke]

It imports the program from ``src/`` of the checkout, builds the
workload from the seed, prints ``READY`` when set-up is done (the
parent times set-up up to that line), runs whole rounds of the fixed op
list until ``--seconds`` have passed and enough samples exist, checks
every op's output against the workload's independent reference, and
prints one JSON object as its last line.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, ".out")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import harness  # noqa: E402
from workloads import MODULES, SIZES  # noqa: E402

#: A run never measures longer than this multiple of ``--seconds``
#: (plus a constant), even if the sample floor is not yet met.
MAX_STRETCH = 4.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--size", choices=SIZES, default="full")
    return parser.parse_args(argv)


def run_rounds(workload, seconds: float, trace: bool, full: bool):
    """Whole rounds until the deadline and the sample floor are met.

    In a traced run, odd rounds are traced and even rounds are not, so
    ``trace.overhead`` compares rounds of the same run.
    """
    tracer = harness.Tracer() if trace else None
    floor = harness.min_samples() if full else 0
    need_rounds = 2 if trace else 1
    rounds = []
    start = time.perf_counter()
    deadline = start + seconds
    hard_stop = start + MAX_STRETCH * seconds + 30.0
    while True:
        traced = trace and len(rounds) % 2 == 1
        workload.prepare_round(len(rounds))
        # Every round starts from the same collector state.
        gc.collect()
        round_start = time.perf_counter()
        samples = workload.run_round(len(rounds), tracer if traced else harness.NULL_TRACER)
        wall = time.perf_counter() - round_start
        rounds.append((wall, traced, samples))
        now = time.perf_counter()
        plain = sum(len(s) for _w, t, s in rounds if not t)
        if len(rounds) >= need_rounds and (
            (now >= deadline and plain >= floor) or now >= hard_stop
        ):
            return tracer, rounds


def main(argv=None) -> int:
    args = parse_args(argv)
    module = importlib.import_module(MODULES[args.workload])
    import numpy

    import_s = time.perf_counter() - START
    workload = module.WORKLOAD(args.seed, args.size)
    try:
        workload.setup()
        workload.end_setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        modules_before = set(sys.modules)
        tracer, rounds = run_rounds(workload, args.seconds, args.trace,
                                    args.size == "full")
        new_modules = sorted(set(sys.modules) - modules_before)
        guards = workload.timed_region_guard()
    finally:
        workload.close()
    peak_rss = workload.peak_rss_mb()
    if new_modules:
        guards.append(f"modules imported inside the timed region: {new_modules}")

    samples = [s for _w, _t, round_samples in rounds for s in round_samples]
    for sample in samples:
        sample.scale = workload.host.scale(sample.start)
    references = workload.host.all_durations()
    failures = []
    for sample in samples:
        problem = sample.error or workload.check(sample)
        if problem:
            failures.append(problem)

    plain = [s for _w, t, round_samples in rounds if not t for s in round_samples]
    # Round walls on the nominal host, for trace.overhead.
    nominal_walls = [(sum(s.nominal for s in round_samples), t)
                     for _w, t, round_samples in rounds]
    if args.size == "full":
        guards += harness.tail_guard(len(plain))
    guards += harness.class_guard(plain)
    counts = [workload.fingerprint(s) for _w, _t, s in rounds] if not failures else []
    fingerprint = counts[0] if counts else {}
    if any(c != fingerprint for c in counts):
        guards.append("exact counts differ between rounds of one run")

    # End-to-end timings are on the nominal host (see hostspeed); the
    # measured ones go to the run's details.
    latencies_ms = [1e3 * s.nominal for s in plain]
    measured_ms = [1e3 * s.latency for s in plain]
    metrics = {
        "wall_s": harness.list_wall(plain, workload.concurrency),
        "op_p50_ms": harness.percentile(latencies_ms, 0.50),
        "op_p90_ms": harness.percentile(latencies_ms, 0.90),
        "peak_rss_mb": peak_rss,
    }
    measured = {
        "wall_s": harness.list_wall(plain, workload.concurrency, nominal=False),
        "op_p50_ms": harness.percentile(measured_ms, 0.50),
        "op_p90_ms": harness.percentile(measured_ms, 0.90),
    }
    if args.trace:
        traced = [s for s in samples if s.traced]
        metrics.update(workload.layer_metrics(tracer, traced))
        metrics.update(workload.setup_layers)
        metrics["runtime.import_s"] = import_s
        metrics["trace.overhead"] = (
            statistics.median(w for w, t in nominal_walls if t)
            / statistics.median(w for w, t in nominal_walls if not t))
        metrics["trace.unattributed_pct"] = 100.0 * harness.unattributed_share(tracer)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))

    for guard in guards:
        harness.log(f"perfbench guard: {guard}")
    for failure in failures[:5]:
        harness.log(f"perfbench failed op: {failure}")
    print(json.dumps({
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": metrics,
        "measured": measured,
        "reference_ms": {"median": 1e3 * statistics.median(references),
                         "min": 1e3 * min(references),
                         "max": 1e3 * max(references),
                         "samples": len(references)},
        "fingerprint": fingerprint,
        "round_walls_s": [w for w, _t, _s in rounds],
        "ops_per_round": len(rounds[0][2]),
        "class_shares": harness.class_shares(plain),
        "stated_classes": workload.classes,
        "guards": guards,
        "numpy": numpy.__version__,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
