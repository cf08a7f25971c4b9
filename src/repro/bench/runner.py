"""The Table-1 sweep runner: measured points for the trajectory file.

Measurement protocol (the one every committed point in
``BENCH_vm.json`` follows — change it and old points stop being
comparable):

* **Engine execution only.**  Workload synthesis, pairlist
  construction, kernel bindings, and the force external are built
  *outside* the timed region (:func:`repro.kernels.nbforce.flat_kernel_setup`
  and friends); the timer brackets exactly
  ``engine.compile(text).run(...)``.  Compile time is amortized by the
  Engine's artifact cache — only the first cell of each kernel pays it.
* **Single process, fixed cell order**: cutoffs ascending, kernels
  ``L_f``, ``Lu_l``, ``Lu_2`` within each cutoff.
* **One repetition** per cell.  The sweep is long enough (seconds per
  cell at full size) that timer noise is irrelevant next to the 2x
  effects the trajectory tracks.
* ``steps`` is ``counters.total_steps`` — deterministic and
  machine-independent; it doubles as a workload checksum between
  points (:func:`repro.bench.baseline.compare_points`).
"""

from __future__ import annotations

import datetime
import time

from ..kernels import nbforce
from ..md.gromos import sod_workload
from ..runtime.config import BackendConfig
from ..runtime.engine import Engine, default_engine
from .schema import BENCHMARK, SCHEMA

#: Kernel column order of Table 1 (flattened, unflat-select, unflat-all).
KERNELS = ("L_f", "Lu_l", "Lu_2")

#: The MIMD column: the sequential Figure-13 kernel, atoms
#: block-partitioned over asynchronous processors (``backend="pmimd"``
#: sweeps measure this instead of the lockstep kernels — the
#: wall-clock MIMD side of the paper's MIMD-vs-SIMD crossover).
MIMD_KERNEL = "M_seq"

#: Processor count of pmimd sweeps (real worker processes back the
#: simulated processors, so this is deliberately machine-scale, not
#: CM-2-scale).
MIMD_NPROC = 8

#: Cutoff radii of the full Table-1 sweep.
DEFAULT_CUTOFFS = (4.0, 8.0, 12.0, 16.0)

#: Machine width of the committed trajectory (the CM-2 point).
DEFAULT_NPROC = 8192

#: Reduced sweep for CI smoke runs: small SOD, narrow machine.
SMOKE = {
    "cutoffs": (3.0, 5.0),
    "nproc": 256,
    "nmax": 512,
    "n_atoms": 400,
}


def _kernel_setup(kernel: str, workload, dist):
    if kernel == "L_f":
        return nbforce.flat_kernel_setup(workload.molecule, workload.pairlist, dist)
    if kernel == "Lu_l":
        return nbforce.unflat_kernel_setup(
            workload.molecule, workload.pairlist, dist, select_layers=True
        )
    if kernel == "Lu_2":
        return nbforce.unflat_kernel_setup(
            workload.molecule, workload.pairlist, dist, select_layers=False
        )
    raise ValueError(f"unknown kernel {kernel!r} (expected one of {KERNELS})")


def run_table1_sweep(
    label: str,
    backend: str = "vm",
    nproc: int = DEFAULT_NPROC,
    nmax: int = DEFAULT_NPROC,
    n_atoms: int = 6968,
    cutoffs: tuple[float, ...] = DEFAULT_CUTOFFS,
    kernels: tuple[str, ...] = KERNELS,
    engine: Engine | None = None,
    progress=None,
) -> dict:
    """Measure one trajectory point over the Table-1 kernel sweep.

    Returns a point dict conforming to ``repro.bench/v1`` (see
    :mod:`repro.bench.schema`).  ``progress``, if given, is called with
    each finished cell dict — the CLI uses it for live output.
    """
    engine = engine if engine is not None else default_engine()
    if backend == "pmimd" and kernels == KERNELS:
        # The lockstep kernel forms are meaningless on asynchronous
        # processors; the pmimd sweep measures the MIMD column.
        kernels = (MIMD_KERNEL,)
    cells: list[dict] = []
    total = 0.0
    for cutoff in cutoffs:
        workload = sod_workload(float(cutoff), n_atoms=n_atoms, nmax=nmax)
        dist = None
        for kernel in kernels:
            if kernel == MIMD_KERNEL:
                text, bindings_for, externals = nbforce.mimd_kernel_setup(
                    workload.molecule, workload.pairlist, nproc
                )
                start = time.perf_counter()
                result = engine.compile(text).run(
                    backend="pmimd",
                    bindings_for=bindings_for,
                    config=BackendConfig(nproc=nproc, externals=externals),
                )
            else:
                if dist is None:
                    dist = workload.distribution(nproc)
                text, bindings, externals = _kernel_setup(kernel, workload, dist)
                start = time.perf_counter()
                result = engine.compile(text).run(
                    bindings,
                    backend=backend,
                    config=BackendConfig(nproc=dist.gran, externals=externals),
                )
            wall = time.perf_counter() - start
            total += wall
            cell = {
                "kernel": kernel,
                "cutoff": float(cutoff),
                "wall_seconds": round(wall, 4),
                # Parallel completion time: max over processors for the
                # MIMD column (Eq. 1), plain lockstep total otherwise.
                "steps": int(result.steps),
            }
            cells.append(cell)
            if progress is not None:
                progress(cell)
    return {
        "label": label,
        "date": datetime.date.today().isoformat(),
        "backend": backend,
        "nproc": int(nproc),
        "nmax": int(nmax),
        "n_atoms": int(n_atoms),
        "total_seconds": round(total, 4),
        "cells": cells,
    }


def run_smoke_sweep(
    label: str = "smoke",
    backend: str = "vm",
    engine: Engine | None = None,
    progress=None,
) -> dict:
    """The reduced CI sweep: same protocol, small SOD, narrow machine."""
    return run_table1_sweep(
        label,
        backend=backend,
        nproc=MIMD_NPROC if backend == "pmimd" else SMOKE["nproc"],
        nmax=SMOKE["nmax"],
        n_atoms=SMOKE["n_atoms"],
        cutoffs=SMOKE["cutoffs"],
        engine=engine,
        progress=progress,
    )


def empty_report(protocol: str | None = None) -> dict:
    """A fresh, schema-conformant trajectory document with no points."""
    report = {"schema": SCHEMA, "benchmark": BENCHMARK, "points": []}
    if protocol is not None:
        report["protocol"] = protocol
    return report


__all__ = [
    "KERNELS",
    "MIMD_KERNEL",
    "MIMD_NPROC",
    "DEFAULT_CUTOFFS",
    "DEFAULT_NPROC",
    "SMOKE",
    "run_table1_sweep",
    "run_smoke_sweep",
    "empty_report",
]
