"""``nbforce-pmimd``: the Figure-13 MIMD kernel on the process pool.

One op is ``engine.compile(NBFORCE_MIMD).run(backend="pmimd", ...)`` on
a small synthetic SOD fragment, block-partitioned over ``PROCESSORS``
asynchronous processors served by at most ``nproc`` worker processes.
At these sizes the pool's fixed cost (fork, shared memory, pipes,
merge) is a large share of every op.  Atom counts are stratified over
64-112 with a seeded cutoff jitter, so the op list is one op class and
its total work barely moves with the seed.  The cutoff (4.5 A), the
atom range and the 4 processors are design choices that keep ops short,
near the paper's smallest Table-1 cutoff (4 A); they are not measured
use.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from dataclasses import dataclass

import numpy as np

from harness import NULL_TRACER, Sample, peak_rss_mb
from workloads import Workload, forces_problem, stratified

from repro import BackendConfig, Engine
from repro.kernels import nbforce
from repro.md.molecule import synthetic_sod
from repro.md.pairlist import build_pairlist

#: Simulated asynchronous processors per op.
PROCESSORS = 4
#: Worker processes: never more than the machine's CPUs.
WORKERS = min(2, os.cpu_count() or 1)
CUTOFF = 4.5
CUTOFF_JITTER = 0.2
OPS = {"full": 30, "smoke": 2}
ATOMS = {"full": (64, 112), "smoke": (40, 48)}
#: Supervision events that are recoveries rather than normal progress.
RECOVERY_EVENTS = frozenset({"retry", "respawn", "worker-dead", "worker-wedged",
                             "shard-deadline", "checkpoint-resume"})


@dataclass
class Op:
    n_atoms: int
    cutoff: float
    molecule: object
    pairlist: object
    bindings_for: object
    externals: dict
    cls: str = "pmimd"
    reference: object = None


class NBForcePMIMD(Workload):
    name = "nbforce-pmimd"
    classes = {"pmimd": 1.0}
    # Each op's pool processes run on every CPU.
    every_cpu = True
    layer_names = (
        "exec.pmimd_run_ms", "exec.mimd_twin_ms", "exec.pmimd_speedup",
        "exec.steps", "md.force_calls", "reliability.dispatches",
        "reliability.speculative_dispatches", "reliability.recoveries",
        "md.workload_build_s",
    )

    def setup(self) -> None:
        rng = random.Random(f"perfbench/nbforce-pmimd/{self.seed}")
        count = OPS[self.size]
        lo, hi = ATOMS[self.size]
        atoms = stratified(lo, hi, count, rng)
        rng.shuffle(atoms)
        start = time.perf_counter()
        self.engine = Engine()
        for n_atoms in atoms:
            cutoff = CUTOFF + rng.uniform(-CUTOFF_JITTER, CUTOFF_JITTER)
            molecule = synthetic_sod(n_atoms=n_atoms, seed=rng.randrange(2**31))
            pairlist = build_pairlist(molecule, cutoff)
            text, bindings_for, externals = nbforce.mimd_kernel_setup(
                molecule, pairlist, PROCESSORS)
            self.op_list.append(Op(n_atoms, cutoff, molecule, pairlist,
                                   bindings_for, externals))
        self.text = text
        self.setup_layers["md.workload_build_s"] = time.perf_counter() - start
        # Warm-up: compile and one pool run, on the smallest op.
        self.run_op(min(self.op_list, key=lambda op: op.pairlist.total_pairs),
                    NULL_TRACER)

    @staticmethod
    def _config(op: Op) -> BackendConfig:
        # The force external runs inside forked workers, where spans
        # recorded by this process cannot follow it.
        return BackendConfig(nproc=PROCESSORS, workers=WORKERS,
                             externals=op.externals)

    def run_op(self, op: Op, tracer):
        program = self.engine.compile(self.text)
        with tracer.span("exec.pmimd_run"):
            return program.run(backend="pmimd", bindings_for=op.bindings_for,
                               config=self._config(op))

    def extract(self, op: Op, result) -> dict:
        events = [event["event"] for event in result.events]
        return {
            "forces": np.concatenate(
                [np.asarray(env["f"].data, dtype=float) for env in result.env]),
            "exec.steps": int(result.steps),
            "md.force_calls": sum(int(c.calls.get("force", 0))
                                  for c in result.counters),
            "dispatches": events.count("dispatch"),
            "speculative": events.count("speculate"),
            "recoveries": sum(1 for e in events if e in RECOVERY_EVENTS),
        }

    def check(self, sample: Sample) -> str | None:
        op = sample.op
        problem = forces_problem(op, sample.output["forces"])
        return f"{op.n_atoms} atoms: {problem}" if problem else None

    def fingerprint(self, samples: list[Sample]) -> dict:
        return {key: sum(s.output[key] for s in samples)
                for key in ("exec.steps", "md.force_calls")}

    def layer_metrics(self, tracer, samples: list[Sample]) -> dict[str, float]:
        pmimd_ms = 1e3 * statistics.median(
            span.end - span.start for span in tracer.spans
            if span.name == "exec.pmimd_run")
        # The in-process MIMD twin on the same inputs, timed here,
        # outside the timed region.
        program = self.engine.compile(self.text)
        twin = []
        for op in self.op_list:
            start = time.perf_counter()
            program.run(backend="mimd", bindings_for=op.bindings_for,
                        config=self._config(op))
            twin.append(time.perf_counter() - start)
        twin_ms = 1e3 * statistics.median(twin)
        first = samples[: len(self.op_list)]
        return {
            "exec.pmimd_run_ms": pmimd_ms,
            "exec.mimd_twin_ms": twin_ms,
            "exec.pmimd_speedup": twin_ms / pmimd_ms,
            **self.fingerprint(first),
            "reliability.dispatches": sum(s.output["dispatches"] for s in first),
            "reliability.speculative_dispatches": sum(
                s.output["speculative"] for s in first),
            "reliability.recoveries": sum(s.output["recoveries"] for s in first),
        }

    def peak_rss_mb(self) -> float:
        # The kernel and the force external run in the pool's forked
        # workers, which are waited for after every op.
        return peak_rss_mb(children=True)


WORKLOAD = NBForcePMIMD
