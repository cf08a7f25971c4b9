"""The benchmark's workloads, by name.

Each workload builds its inputs from the seed alone, then answers three
calls from the worker: ``run_round`` (the timed fixed op list),
``check`` (the independent reference, outside the timed region) and
``fingerprint`` (exact counts that must repeat for a seed).
"""

from __future__ import annotations

import time

import numpy as np

from harness import Sample, peak_rss_mb
from hostspeed import HostSpeed

#: Workload name -> module that defines it (imported on demand, so a
#: run imports only the layers its workload exercises).
MODULES = {
    "nbforce-vm": "workloads.nbforce_vm",
    "compile-corpus": "workloads.compile_corpus",
    "serve-mix": "workloads.serve_mix",
    "nbforce-pmimd": "workloads.nbforce_pmimd",
}

#: Sizes: "full" is what the benchmark measures; "smoke" is the
#: smallest configuration, used by the benchmark's own tests.
SIZES = ("full", "smoke")


class Workload:
    """Base class: a fixed op list run sequentially in this process.

    Subclasses set ``name``, ``classes`` (stated op-class shares) and
    ``layer_names`` (per-layer metrics they produce), build
    ``self.op_list`` in :meth:`setup`, and implement :meth:`run_op`.
    """

    name = ""
    #: Ops in flight at once (closed-loop clients).
    concurrency = 1
    #: Whether an op's work spreads over processes on every CPU (then
    #: the host speed is sampled on each CPU; see ``hostspeed``).
    every_cpu = False
    classes: dict[str, float] = {}
    layer_names: tuple[str, ...] = ()

    def __init__(self, seed: int, size: str):
        if size not in SIZES:
            raise ValueError(f"size must be one of {SIZES}, got {size!r}")
        self.seed = int(seed)
        self.size = size
        self.setup_layers: dict[str, float] = {}
        self.op_list: list = []
        #: Reference-loop samples taken between ops (see ``hostspeed``).
        self.host = HostSpeed(self.every_cpu)
        #: Set by workloads that compile through one ``Engine``; the
        #: timed region must then add no compile miss.
        self.engine = None
        self.misses_after_setup = 0

    def setup(self) -> None:
        raise NotImplementedError

    def run_op(self, op, tracer):
        """Run one op; returns the output that :meth:`check` judges."""
        raise NotImplementedError

    def extract(self, op, raw):
        """The part of ``run_op``'s result kept for checks and counts
        (called after the op's latency is taken)."""
        return raw

    def prepare_round(self, round_index: int) -> None:
        """Build a round's inputs; runs before the round's timer starts."""

    def run_round(self, round_index: int, tracer) -> list[Sample]:
        samples = []
        for op_id, op in enumerate(self.op_list):
            self.host.sample()
            start = time.perf_counter()
            try:
                with tracer.op(round_index * len(self.op_list) + op_id):
                    output = self.run_op(op, tracer)
            except Exception as error:  # noqa: BLE001 - a failed op is counted
                latency = time.perf_counter() - start
                samples.append(Sample(latency, op.cls, op,
                                      error=f"{type(error).__name__}: {error}",
                                      traced=tracer.enabled, position=op_id,
                                      start=start))
                continue
            latency = time.perf_counter() - start
            samples.append(Sample(latency, op.cls, op,
                                  self.extract(op, output),
                                  traced=tracer.enabled, position=op_id,
                                  start=start))
        self.host.sample()
        return samples

    def check(self, sample: Sample) -> str | None:
        """None if the op's output matches the independent reference."""
        raise NotImplementedError

    def fingerprint(self, samples: list[Sample]) -> dict:
        raise NotImplementedError

    def layer_metrics(self, tracer, samples: list[Sample]) -> dict[str, float]:
        raise NotImplementedError

    def end_setup(self) -> None:
        """Mark the end of set-up (called by the worker before ``READY``)."""
        if self.engine is not None:
            self.misses_after_setup = self.engine.stats.misses

    def timed_region_guard(self) -> list[str]:
        """Problems showing warm-up work inside the timed region: compile
        misses on the workload's engine since set-up ended."""
        if self.engine is None:
            return []
        extra = self.engine.stats.misses - self.misses_after_setup
        return [f"{extra} compile misses inside the timed region"] if extra else []

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process doing the work."""
        return peak_rss_mb()

    def close(self) -> None:
        pass


def copy_bindings(bindings: dict) -> dict:
    return {name: value.copy() if isinstance(value, np.ndarray) else value
            for name, value in bindings.items()}


def compare_env(generated, reference: dict, env: dict) -> str | None:
    """First observable difference from the scalar reference, or None.
    Scalars of a lockstep run may be replicated per lane; every lane
    must then hold the reference value."""
    for name in generated.outputs:
        if name not in reference:
            continue
        want = np.asarray(getattr(reference[name], "data", reference[name]))
        got = np.asarray(getattr(env.get(name), "data", env.get(name)))
        if got.shape != want.shape or not np.array_equal(got, want):
            return f"array {name!r} differs"
    for name in generated.observables:
        if name not in reference:
            continue
        got = np.asarray(env.get(name))
        if got.dtype == object or not np.all(got == int(reference[name])):
            return f"scalar {name!r} = {got.tolist()}, expected {int(reference[name])}"
    return None


def stratified(lo: int, hi: int, count: int, rng) -> list[int]:
    """``count`` integers over ``[lo, hi]``, one from each equal stratum,
    so a seed moves each value by less than one stratum."""
    return [round(lo + (hi - lo) * (k + rng.random()) / count)
            for k in range(count)]


def forces_problem(op, forces) -> str | None:
    """Per-atom forces against ``repro.md.forces.reference_nbforce`` on
    the op's molecule and pairlist (computed once, kept on the op)."""
    from repro.md.forces import reference_nbforce

    if op.reference is None:
        op.reference = reference_nbforce(op.molecule, op.pairlist)
    want = op.reference
    if forces.shape != want.shape:
        return f"{forces.size} forces, expected {want.size}"
    diff = float(np.max(np.abs(forces - want)))
    if not diff <= 1e-9 * max(1.0, float(np.max(np.abs(want)))):
        return f"max |F - ref| = {diff}"
    return None
