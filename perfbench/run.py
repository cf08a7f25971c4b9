"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` the last line of
standard output is the end-to-end result; with ``--trace 1`` it carries
the per-layer metrics of a traced run instead.  Metric names and units
come from ``BENCHMARK.json``.  The lines before it give the machine
fingerprint and the workload's exact-count fingerprint.

Set-up time is measured from outside: this script starts the worker
process and stops the clock when the worker reports ``READY``.  It does
so ``SETUP_SAMPLES`` times per untraced run (extra set-up-only workers,
then the measuring one) and reports the median.  Unlike the other
timings it is not scaled to the nominal host (see ``hostspeed.py``):
set-up spans several processes on both CPUs, and the reference loop
timed next to it made ten set-ups spread three times as wide as
unscaled ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, ".out")

#: Set-up samples per untraced run (the measuring worker is one).
SETUP_SAMPLES = 3
#: Everything this script starts must finish within this many seconds.
TOTAL_BUDGET = 170.0


class BenchError(Exception):
    pass


def parse_args(argv, spec: dict):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "nproc": os.cpu_count(),
            "python": platform.python_version()}


def start_worker(args, *extra) -> tuple[subprocess.Popen, float]:
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), *extra]
    # Temporary files of the worker and the processes it starts stay
    # inside the checkout.
    tmp = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    started = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            bufsize=0)
    return proc, started


def read_output(proc: subprocess.Popen, deadline: float, until: bytes | None = None):
    """Read the worker's stdout until ``until`` appears (returns the
    time it did) or, with ``until=None``, to end of file."""
    buffer = bytearray()
    fd = proc.stdout.fileno()
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError("worker did not finish within the time budget")
        readable, _w, _x = select.select([fd], [], [], remaining)
        if not readable:
            continue
        chunk = os.read(fd, 65536)
        if until is not None and until in buffer + chunk:
            return time.perf_counter(), bytes(buffer + chunk)
        if not chunk:
            if until is not None:
                raise BenchError(f"worker exited with {proc.wait()} before {until!r}")
            return time.perf_counter(), bytes(buffer)
        buffer += chunk


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def measure(args, deadline: float) -> tuple[list[float], dict]:
    """Set-up samples (seconds) and the measuring worker's report."""
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, started = start_worker(args, "--setup-only")
            try:
                ready, _out = read_output(proc, deadline, until=b"READY\n")
                setups.append(ready - started)
                read_output(proc, deadline)
                if proc.wait() != 0:
                    raise BenchError(f"set-up worker exited with {proc.returncode}")
            finally:
                stop(proc)
    proc, started = start_worker(args, *(["--trace"] if args.trace else []))
    try:
        ready, head = read_output(proc, deadline, until=b"READY\n")
        setups.append(ready - started)
        _end, tail = read_output(proc, deadline)
        if proc.wait() != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
    finally:
        stop(proc)
    lines = (head + tail).decode().strip().splitlines()
    return setups, json.loads(lines[-1])


def check_fingerprint(args, counts: dict) -> dict:
    """Compare exact counts with the last run of this workload and seed
    in this checkout; a change is flagged, then the file is replaced."""
    path = os.path.join(OUT_DIR, f"fingerprint-{args.workload}-seed{args.seed}.json")
    previous = None
    if os.path.exists(path):
        with open(path) as handle:
            previous = json.load(handle)
    changed = sorted(key for key in set(counts) | set(previous or {})
                     if previous is not None and previous.get(key) != counts.get(key))
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(counts, handle, indent=1, sort_keys=True)
    if changed:
        print(f"perfbench: exact counts changed since the last run of seed "
              f"{args.seed}: {changed}", file=sys.stderr)
    return {"counts": counts, "changed_since_last_run": changed}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    args = parse_args(argv, spec)
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + TOTAL_BUDGET
    try:
        setups, report = measure(args, deadline)
    except (BenchError, ValueError, OSError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    values = dict(report["metrics"])
    values["setup_s"] = statistics.median(setups)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        if entry["name"] not in values and not args.trace:
            print(f"perfbench: worker did not report {entry['name']}", file=sys.stderr)
            return 1
        # A layer the workload does not exercise reads 0.
        metrics[entry["name"]] = {"value": values.get(entry["name"], 0),
                                  "unit": entry["unit"]}

    print(json.dumps({"machine": {**machine(), "numpy": report["numpy"]}}))
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "fingerprint": check_fingerprint(args, report["fingerprint"]),
        "round_walls_s": report["round_walls_s"],
        "ops_per_round": report["ops_per_round"],
        "class_shares": report["class_shares"],
        "stated_classes": report["stated_classes"],
        "guards": report["guards"],
        "setup_samples_s": setups,
        "measured": report["measured"],
        "reference_ms": report["reference_ms"],
    }))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
