"""``nbforce-vm``: NBFORCE kernels compiled (memory hit) and run on the VM.

One op is ``engine.compile(text).run(bindings, backend="vm", ...)`` of
one of the paper's three lockstep kernel forms on a synthetic SOD
fragment.  The op list is a fixed factorial design so that its total
work barely moves with the seed:

* kernel form: ``L_f`` 50 %, ``Lu_l`` 25 %, ``Lu_2`` 25 % — half the
  ops run the flattened kernel the paper proposes, half its two
  unflattened baselines;
* cutoff bin (the op class): 4 A 40 %, 8 A 60 %, the two smallest
  cutoffs of the paper's Table 1, each with a seeded jitter of +-0.1 A
  — the cutoff sets the pCnt spread that flattening exists to absorb
  (12 and 16 A would make single ops take seconds at these sizes);
* atom count: stratified over 600-1000 atoms within every form and
  cutoff cell, at machine width 256,
  so every op has three or four virtual-processor layers.

These shares are design choices that keep both percentiles inside one
class, not measured use.  Ordered by latency the classes put p50 and
p90 inside the 8 A class, away from the boundary at 40 %.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

from harness import NULL_TRACER, Sample, layer_medians_ms
from workloads import Workload, forces_problem, stratified

from repro import BackendConfig, Engine
from repro.kernels import nbforce
from repro.md.distribution import gather_flat_results, gather_unflat_results
from repro.md.molecule import synthetic_sod
from repro.md.pairlist import build_pairlist
from repro.simd.layout import DataDistribution

WIDTH = 256
NMAX = 1024
ATOMS = (600, 1000)
CUTOFFS = {"4A": 4.0, "8A": 8.0}
CUTOFF_JITTER = 0.1

#: Ops per (form, cutoff bin) in the full op list (40 ops).
DESIGN = {
    "L_f": {"4A": 8, "8A": 12},
    "Lu_l": {"4A": 4, "8A": 6},
    "Lu_2": {"4A": 4, "8A": 6},
}
#: The smoke design: one op per form at the small cutoff.
SMOKE_DESIGN = {form: {"4A": 1} for form in DESIGN}
SMOKE_ATOMS = (300, 400)


@dataclass
class Op:
    form: str
    cls: str
    n_atoms: int
    cutoff: float
    molecule: object
    pairlist: object
    dist: object
    text: str
    bindings: dict
    externals: dict
    reference: object = None


class NBForceVM(Workload):
    name = "nbforce-vm"
    classes = {"4A": 0.40, "8A": 0.60}
    layer_names = (
        "runtime.compile_ms", "exec.run_self_ms", "md.force_ms",
        "md.force_calls", "md.force_lanes", "exec.steps",
        "exec.vector_instructions", "exec.lane_utilization",
        "md.workload_build_s",
    )

    def setup(self) -> None:
        rng = random.Random(f"perfbench/nbforce-vm/{self.seed}")
        design = DESIGN if self.size == "full" else SMOKE_DESIGN
        lo, hi = ATOMS if self.size == "full" else SMOKE_ATOMS
        # Atom counts are stratified within every (form, cutoff) cell,
        # so the seed moves each op by less than one stratum.
        cells = []
        for form, bins in design.items():
            for cls, count in bins.items():
                cells += [(form, cls, n) for n in stratified(lo, hi, count, rng)]
        start = time.perf_counter()
        self.engine = Engine()
        for form, cls, n_atoms in cells:
            cutoff = CUTOFFS[cls] + rng.uniform(-CUTOFF_JITTER, CUTOFF_JITTER)
            molecule = synthetic_sod(n_atoms=n_atoms, seed=rng.randrange(2**31))
            pairlist = build_pairlist(molecule, cutoff)
            dist = DataDistribution(n=n_atoms, gran=WIDTH, nmax=NMAX,
                                    scheme="cyclic")
            if form == "L_f":
                text, bindings, externals = nbforce.flat_kernel_setup(
                    molecule, pairlist, dist)
            else:
                text, bindings, externals = nbforce.unflat_kernel_setup(
                    molecule, pairlist, dist, select_layers=form == "Lu_l")
            self.op_list.append(Op(form, cls, n_atoms, cutoff, molecule,
                                   pairlist, dist, text, bindings, externals))
        rng.shuffle(self.op_list)
        self.setup_layers["md.workload_build_s"] = time.perf_counter() - start
        # Warm-up: first compile, bytecode lowering and one run per form,
        # on the form's smallest op so set-up cost does not hang on
        # which op the seed puts first.
        for form in design:
            self.run_op(min((op for op in self.op_list if op.form == form),
                            key=lambda op: op.pairlist.total_pairs), NULL_TRACER)

    def run_op(self, op: Op, tracer):
        with tracer.span("runtime.compile"):
            program = self.engine.compile(op.text)
        externals = {name: tracer.wrap_external(f"md.{name}", fn)
                     for name, fn in op.externals.items()}
        config = BackendConfig(nproc=op.dist.gran, externals=externals)
        with tracer.span("exec.run"):
            result = program.run(op.bindings, backend="vm", config=config)
        return result

    def extract(self, op: Op, result) -> dict:
        if op.form == "L_f":
            forces = gather_flat_results(result.env, op.pairlist)
        else:
            forces = gather_unflat_results(result.env, op.pairlist, op.dist)
        counters = result.counters
        return {
            "forces": np.array(forces),
            "exec.steps": int(result.steps),
            "exec.vector_instructions": int(counters.total_vector_instructions),
            "md.force_calls": int(counters.calls.get("force", 0)),
            "utilization": float(counters.mean_utilization()),
        }

    def check(self, sample: Sample) -> str | None:
        op = sample.op
        problem = forces_problem(op, sample.output["forces"])
        return f"{op.form} {op.n_atoms} atoms: {problem}" if problem else None

    def fingerprint(self, samples: list[Sample]) -> dict:
        return {
            key: sum(s.output[key] for s in samples)
            for key in ("exec.steps", "exec.vector_instructions", "md.force_calls")
        }

    def layer_metrics(self, tracer, samples: list[Sample]) -> dict[str, float]:
        metrics = layer_medians_ms(tracer, ("runtime.compile", "exec.run", "md.force"))
        rounds = len(samples) // len(self.op_list)
        forces = [span for span in tracer.spans if span.name == "md.force"]
        first = samples[: len(self.op_list)]
        counts = self.fingerprint(first)
        return {
            "runtime.compile_ms": metrics["runtime.compile"],
            "exec.run_self_ms": metrics["exec.run"],
            "md.force_ms": metrics["md.force"],
            "md.force_calls": len(forces) / rounds,
            "md.force_lanes": sum(span.args["lanes"] for span in forces) / rounds,
            "exec.steps": counts["exec.steps"],
            "exec.vector_instructions": counts["exec.vector_instructions"],
            "exec.lane_utilization": float(np.mean(
                [s.output["utilization"] for s in first])),
        }


WORKLOAD = NBForceVM
