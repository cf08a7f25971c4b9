"""VM dispatch ablation: superinstruction fusion on the Table-1 cell.

Measures the same engine-execution-only protocol as ``repro bench``
(see :mod:`repro.bench.runner`) on one mid-size NBFORCE cell, fused
vs. unfused, and asserts the fast path actually pays: fusion must not
be slower, and — the invariant everything rests on — both modes must
retire identical lockstep step counts.
"""

import time

import pytest
from conftest import once

from repro.kernels.nbforce import flat_kernel_setup
from repro.md.gromos import sod_workload
from repro.runtime import BackendConfig, Engine


def measure(cutoff=8.0, nproc=2048, nmax=2048, n_atoms=2000):
    workload = sod_workload(cutoff, n_atoms=n_atoms, nmax=nmax)
    dist = workload.distribution(nproc)
    text, bindings, externals = flat_kernel_setup(
        workload.molecule, workload.pairlist, dist
    )
    engine = Engine()
    # warm compile cache, allocator and numpy pools: time pure execution
    engine.compile(text).run(
        dict(bindings),
        backend="vm",
        config=BackendConfig(nproc=dist.gran, externals=externals),
    )
    out = {}
    for label, fuse in (("fused", True), ("unfused", False)):
        config = BackendConfig(nproc=dist.gran, externals=externals, vm_fuse=fuse)
        start = time.perf_counter()
        result = engine.compile(text).run(dict(bindings), backend="vm", config=config)
        out[label] = {
            "seconds": time.perf_counter() - start,
            "steps": result.steps,
        }
    return out


@pytest.mark.slow
def test_bench_vm_dispatch(benchmark, write_result):
    data = once(benchmark, measure)

    fused, unfused = data["fused"], data["unfused"]
    # fusion is observationally invisible...
    assert fused["steps"] == unfused["steps"]
    # ...and must not cost wall clock (generous bound for CI noise)
    assert fused["seconds"] <= unfused["seconds"] * 1.10

    speedup = unfused["seconds"] / fused["seconds"]
    write_result(
        "vm_dispatch",
        "VM dispatch ablation (NBFORCE L_f, 8A, nproc=2048):\n"
        f"  unfused: {unfused['seconds']:8.3f}s  steps={unfused['steps']}\n"
        f"  fused:   {fused['seconds']:8.3f}s  steps={fused['steps']}\n"
        f"  speedup: {speedup:.2f}x",
    )
