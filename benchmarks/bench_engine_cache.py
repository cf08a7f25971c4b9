"""Engine cache effectiveness: the warm path vs the uncached path.

Not a paper exhibit — engineering numbers for the runtime itself.
Two claims are pinned down:

* a warm ``Engine.compile`` + ``run`` of the NBFORCE kernel suite (a
  Table 1 cell: L_f, L_u^l, L_u^2) is at least 3x faster end-to-end
  than the cold path, which pays parse + transform + bytecode per
  call the way the pre-Engine entry points did;
* a Table 1-style sweep (machine widths x cutoffs over the same three
  kernels) performs exactly one parse+compile per distinct kernel
  variant — everything else is cache hits, because the artifacts are
  independent of ``nproc``.

These are marked ``slow`` and excluded from the tier-1 run; execute
them with ``pytest benchmarks/bench_engine_cache.py -m slow``.
"""

import statistics
import time

import numpy as np
import pytest

from conftest import once

from repro import BackendConfig
from repro.kernels.nbforce import (
    NBFORCE_FLAT,
    NBFORCE_UNFLAT_ALL,
    NBFORCE_UNFLAT_SELECT,
    run_flat_kernel,
    run_unflat_kernel,
)
from repro.md.distribution import flat_kernel_bindings, unflat_kernel_bindings
from repro.md.forces import make_simd_force_external
from repro.md.molecule import uniform_box
from repro.md.pairlist import PairList, build_pairlist
from repro.runtime import Engine
from repro.simd.layout import DataDistribution

#: The three kernel texts a Table 1 cell executes.
KERNEL_SUITE = (NBFORCE_FLAT, NBFORCE_UNFLAT_SELECT, NBFORCE_UNFLAT_ALL)

#: A minimal valid workload: 4 atoms in two mutual pairs, one lane
#: each, so the run itself is a few dozen instructions and the
#: front-end work dominates the cold path the way it dominated the
#: legacy per-call entry points.
MOLECULE = uniform_box(4, seed=7)
PAIRLIST = PairList(
    cutoff=3.0,
    pcnt=np.array([1, 1, 1, 1]),
    partners=np.array([[2], [1], [4], [3]]),
)
DIST = DataDistribution(n=4, gran=4, scheme="cyclic")


def run_cell(engine: Engine):
    """One Table 1 cell: compile + run all three kernel versions."""
    externals = {"force": make_simd_force_external(MOLECULE)}
    engine.compile(NBFORCE_FLAT).run(
        flat_kernel_bindings(PAIRLIST, DIST),
        config=BackendConfig(nproc=DIST.gran, externals=externals),
    )
    for text in (NBFORCE_UNFLAT_SELECT, NBFORCE_UNFLAT_ALL):
        engine.compile(text).run(
            unflat_kernel_bindings(PAIRLIST, DIST),
            config=BackendConfig(nproc=DIST.gran, externals=externals),
        )


@pytest.mark.slow
def test_bench_warm_vs_cold(benchmark, write_result):
    def measure():
        cold = []
        for _ in range(15):
            start = time.perf_counter()
            run_cell(Engine())  # fresh engine: parse+compile every call
            cold.append(time.perf_counter() - start)
        shared = Engine()
        run_cell(shared)  # populate the cache
        warm = []
        for _ in range(15):
            start = time.perf_counter()
            run_cell(shared)
            warm.append(time.perf_counter() - start)
        return statistics.median(cold), statistics.median(warm)

    cold, warm = once(benchmark, measure)
    speedup = cold / warm
    assert speedup >= 3.0, (
        f"warm path only {speedup:.2f}x faster ({cold * 1e3:.2f} ms cold "
        f"vs {warm * 1e3:.2f} ms warm)"
    )
    write_result(
        "engine_cache_warm_speedup",
        "NBFORCE Table 1 cell (L_f + L_u^l + L_u^2), compile+run:\n"
        f"  cold (uncached) : {cold * 1e3:6.2f} ms\n"
        f"  warm (cached)   : {warm * 1e3:6.2f} ms\n"
        f"  speedup         : {speedup:.2f}x (>= 3x required)",
    )


@pytest.mark.slow
def test_bench_sweep_compiles_each_kernel_once(benchmark, write_result):
    molecule = uniform_box(60, seed=7)
    pairlist = build_pairlist(molecule, 4.0)
    engine = Engine()

    def sweep():
        for gran in (4, 8, 16):
            dist = DataDistribution(
                n=pairlist.n_atoms, gran=gran, scheme="cyclic"
            )
            run_flat_kernel(molecule, pairlist, dist, engine=engine)
            run_unflat_kernel(molecule, pairlist, dist, True, engine=engine)
            run_unflat_kernel(molecule, pairlist, dist, False, engine=engine)
        return engine.stats.snapshot()

    stats = once(benchmark, sweep)
    # 3 machine widths x 3 versions = 9 compile calls, but the cached
    # artifacts are nproc-independent: exactly one miss per distinct
    # kernel text, every other call a hit.
    assert stats["compiles"] == 9
    assert stats["misses"] == len(KERNEL_SUITE)
    assert stats["hits"] == stats["compiles"] - len(KERNEL_SUITE)
    write_result(
        "engine_cache_sweep",
        "Table 1-style sweep (3 widths x 3 kernel versions):\n"
        f"  compile calls : {stats['compiles']}\n"
        f"  cache misses  : {stats['misses']} "
        "(one per distinct kernel variant)\n"
        f"  cache hits    : {stats['hits']}",
    )
