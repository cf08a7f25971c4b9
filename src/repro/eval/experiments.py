"""Experiment drivers — one per table/figure of the paper.

Every public function regenerates the data behind one exhibit:

========================  ====================================================
:func:`example_traces`    Figures 4 and 6 (execution traces, 8 vs 12 steps)
:func:`figure18`          Figure 18 (pCnt_max / pCnt_avg vs cutoff)
:func:`table1`            Table 1 (seconds per machine config × cutoff ×
                          loop version, with memory-overflow blanks)
:func:`sparc_reference`   Section 5.5's Sparc 2 reference times
:func:`table2`            Table 2 (force-call counts L_u vs L_f and ratios)
:func:`figure19_series`   Figure 19 (runtime-vs-P series, same data as
                          Table 1)
:func:`nmax_sensitivity`  Section 5.3's Nmax-doubling observation
:func:`flattening_overhead`  Section 6's two-flags-two-jumps cost claim
========================  ====================================================

The benchmarks in ``benchmarks/`` print these results next to the
paper's numbers; EXPERIMENTS.md records the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exec import MIMDSimulator, SIMDInterpreter
from ..kernels import example as ex
from ..kernels.nbforce import (
    NBFORCE_SEQUENTIAL,
    run_flat_kernel,
    run_unflat_kernel,
)
from ..lang import parse_source
from ..md.distribution import (
    WorkloadCounts,
    flat_bytes_per_slot,
    unflat_bytes_per_slot,
    workload_counts,
)
from ..md.forces import make_scalar_force_external
from ..md.gromos import PAPER_CUTOFFS, NBForceWorkload, sod_workload
from ..runtime.config import BackendConfig
from ..runtime.engine import Engine, default_engine
from ..md.molecule import synthetic_sod
from ..md.pairlist import build_pairlist
from ..simd.cost import MachineModel
from ..simd.machines import (
    TABLE1_CM2_CONFIGS,
    TABLE1_DECMPP_CONFIGS,
    cm2,
    decmpp,
    sparc2,
)
from ..simd.trace import MIMDTraceRecorder, SIMDTraceRecorder, TraceTable

#: Loop-version labels, in the paper's column order.
VERSIONS = ("Lu_l", "Lu_2", "L_f")


# ---------------------------------------------------------------------------
# Figures 4 and 6: EXAMPLE traces
# ---------------------------------------------------------------------------


@dataclass
class ExampleTraces:
    """Traces of the EXAMPLE loop nest on 2 processors.

    Attributes:
        mimd: Figure 4 — per-processor MIMD trace (8 steps).
        naive_simd: Figure 6 — lockstep trace of the unflattened SIMD
            version (12 steps, idle holes).
        flattened_simd: the flattened version's lockstep trace
            (8 steps again — the point of the paper).
    """

    mimd: TraceTable
    naive_simd: TraceTable
    flattened_simd: TraceTable

    @property
    def mimd_steps(self) -> int:
        return self.mimd.steps

    @property
    def naive_steps(self) -> int:
        return self.naive_simd.steps

    @property
    def flattened_steps(self) -> int:
        return self.flattened_simd.steps


def example_traces(engine: Engine | None = None) -> ExampleTraces:
    """Run the EXAMPLE programs and capture the paper's traces."""
    engine = engine if engine is not None else default_engine()
    # Figure 4: MIMD — each processor's own time axis.  Trace hooks
    # force the tree-walking backends; the artifacts are still cached.
    mimd_rec = MIMDTraceRecorder(
        ("i", "j"), ex.EXAMPLE_P, body_predicate=ex.is_body_statement
    )
    engine.compile(ex.P3_MIMD).run(
        backend="mimd",
        bindings_for=ex.mimd_bindings,
        statement_hook_for=mimd_rec.hook_for,
        config=BackendConfig(nproc=ex.EXAMPLE_P),
    )

    # Figure 6: naive SIMD — one lockstep time axis.
    naive_rec = SIMDTraceRecorder(
        ("iprime", "j"), ex.EXAMPLE_P, body_predicate=ex.is_body_statement
    )
    engine.compile(ex.P4_NAIVE_SIMD).run(
        ex.example_bindings(),
        statement_hook=naive_rec.hook,
        config=BackendConfig(nproc=ex.EXAMPLE_P),
    )

    # The flattened version traces like the MIMD one.
    flat_rec = SIMDTraceRecorder(
        ("i", "j"), ex.EXAMPLE_P, body_predicate=ex.is_body_statement
    )
    engine.compile(ex.P5_FLATTENED_SIMD).run(
        ex.example_bindings(),
        statement_hook=flat_rec.hook,
        config=BackendConfig(nproc=ex.EXAMPLE_P),
    )
    return ExampleTraces(mimd_rec.table, naive_rec.table, flat_rec.table)


# ---------------------------------------------------------------------------
# Figure 18: pair counts vs cutoff
# ---------------------------------------------------------------------------


def figure18(
    cutoffs=tuple(range(2, 21, 2)), n_atoms: int = 6968, seed: int = 1992
) -> list[dict]:
    """pCnt_max and pCnt_avg per cutoff for the synthetic SOD."""
    molecule = synthetic_sod(n_atoms=n_atoms, seed=seed)
    rows = []
    for cutoff in cutoffs:
        plist = build_pairlist(molecule, float(cutoff), min_partners=0)
        rows.append(
            {
                "cutoff": float(cutoff),
                "max": plist.max_pcnt,
                "avg": plist.avg_pcnt,
                "ratio": plist.max_pcnt / plist.avg_pcnt if plist.avg_pcnt else 0.0,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Table 1: runtimes
# ---------------------------------------------------------------------------


@dataclass
class Table1Cell:
    """One measured cell: seconds, or the reason it did not run."""

    seconds: float | None
    blank_reason: str | None = None
    force_calls: int = 0

    @property
    def ran(self) -> bool:
        return self.seconds is not None


@dataclass
class Table1Row:
    """One machine configuration's measurements."""

    machine: str
    physical_pes: int
    gran: int
    cells: dict = field(default_factory=dict)  # (cutoff, version) -> Table1Cell

    def cell(self, cutoff: float, version: str) -> Table1Cell:
        return self.cells[(float(cutoff), version)]


def _run_version(
    machine: MachineModel,
    workload: NBForceWorkload,
    version: str,
    verify: bool = False,
    engine: Engine | None = None,
) -> Table1Cell:
    dist = workload.distribution(machine.gran)
    try:
        if version == "L_f":
            machine.check_memory(
                flat_bytes_per_slot(
                    workload.pairlist, dist, machine.flat_temp_factor
                ),
                "flattened kernel",
            )
            result, counters = run_flat_kernel(
                workload.molecule, workload.pairlist, dist, engine=engine
            )
            seconds = machine.seconds(counters)
        else:
            machine.check_memory(
                unflat_bytes_per_slot(
                    workload.pairlist, dist, machine.unflat_temp_factor
                ),
                "unflattened kernel",
            )
            select = version == "Lu_l"
            result, counters = run_unflat_kernel(
                workload.molecule,
                workload.pairlist,
                dist,
                select_layers=select,
                engine=engine,
            )
            seconds = machine.seconds(
                counters,
                touched_layers=dist.lrs,
                alloc_layers=dist.max_lrs,
                explicit_sections=select,
            )
    except Exception as exc:  # MemoryOverflowError and friends
        return Table1Cell(seconds=None, blank_reason=str(exc))
    if verify:
        from ..md.forces import reference_nbforce

        reference = reference_nbforce(workload.molecule, workload.pairlist)
        if not np.allclose(result, reference, rtol=1e-9, atol=1e-9):
            raise AssertionError(f"{version} result mismatch on {machine.name}")
    return Table1Cell(
        seconds=seconds, force_calls=int(counters.calls.get("force", 0))
    )


def table1(
    cutoffs=PAPER_CUTOFFS,
    cm2_configs=TABLE1_CM2_CONFIGS,
    decmpp_configs=TABLE1_DECMPP_CONFIGS,
    verify: bool = False,
    n_atoms: int = 6968,
    engine: Engine | None = None,
) -> list[Table1Row]:
    """Regenerate Table 1: all configs × cutoffs × loop versions.

    The whole sweep (configs × cutoffs × versions) compiles each of
    the three kernel texts exactly once: the Engine cache key is
    ``nproc``-independent, so every machine width reuses the artifact.
    """
    engine = engine if engine is not None else default_engine()
    rows: list[Table1Row] = []
    for family, configs in (("cm2", cm2_configs), ("decmpp", decmpp_configs)):
        for physical, gran in configs:
            machine = cm2(physical) if family == "cm2" else decmpp(physical)
            if machine.gran != gran:
                raise ValueError(
                    f"config ({physical}, {gran}) inconsistent with "
                    f"{machine.name} granularity {machine.gran}"
                )
            row = Table1Row(machine.name, physical, gran)
            for cutoff in cutoffs:
                workload = sod_workload(cutoff, n_atoms=n_atoms)
                for version in VERSIONS:
                    row.cells[(float(cutoff), version)] = _run_version(
                        machine, workload, version, verify, engine=engine
                    )
            rows.append(row)
    return rows


def sparc_reference(
    cutoffs=(4.0, 8.0),
    sample_atoms: int = 192,
    n_atoms: int = 6968,
    engine: Engine | None = None,
) -> list[dict]:
    """Section 5.5's Sparc 2 times (3.86 s at 4 Å, 31.43 s at 8 Å).

    The sequential kernel is interpreted over a truncated atom prefix
    and the priced time is scaled by the full/sample pair ratio (the
    force routine dominates ~90% of GROMOS runtime, so pair-count
    scaling is accurate to a few percent).
    """
    engine = engine if engine is not None else default_engine()
    machine = sparc2()
    out = []
    for cutoff in cutoffs:
        workload = sod_workload(cutoff, n_atoms=n_atoms)
        plist = workload.pairlist
        sample = min(sample_atoms, plist.n_atoms)
        sample_pairs = int(plist.pcnt[:sample].sum())
        bindings = {
            "n": sample,
            "maxpcnt": int(plist.partners.shape[1]),
            "pcnt": plist.pcnt[:sample].astype(np.int64),
            "partners": plist.partners[:sample].astype(np.int64),
        }
        result = engine.compile(NBFORCE_SEQUENTIAL).run(
            bindings,
            backend="scalar",
            config=BackendConfig(
                externals={"force": make_scalar_force_external(workload.molecule)}
            ),
        )
        sample_seconds = machine.seconds(result.counters)
        scale = plist.total_pairs / max(1, sample_pairs)
        out.append(
            {
                "cutoff": float(cutoff),
                "seconds": sample_seconds * scale,
                "sample_atoms": sample,
                "sample_pairs": sample_pairs,
                "total_pairs": plist.total_pairs,
            }
        )
    return out


# ---------------------------------------------------------------------------
# Table 2: force-call counts
# ---------------------------------------------------------------------------

#: Table 2's granularity column.
TABLE2_GRANS = (128, 256, 512, 1024, 2048, 4096, 8192)


def table2(
    cutoffs=PAPER_CUTOFFS, grans=TABLE2_GRANS, n_atoms: int = 6968
) -> dict[tuple[int, float], WorkloadCounts]:
    """Regenerate Table 2's L_u / L_f counts for every (gran, cutoff)."""
    out: dict[tuple[int, float], WorkloadCounts] = {}
    for cutoff in cutoffs:
        workload = sod_workload(cutoff, n_atoms=n_atoms)
        for gran in grans:
            dist = workload.distribution(gran)
            out[(gran, float(cutoff))] = workload_counts(workload.pairlist, dist)
    return out


# ---------------------------------------------------------------------------
# Figure 19: scaling series
# ---------------------------------------------------------------------------


def figure19_series(rows: list[Table1Row] | None = None, **table1_kwargs) -> dict:
    """Reorganize Table 1 into Figure 19's per-curve series.

    Returns:
        ``{(machine, cutoff, version): [(P, seconds), ...]}`` with
        blank cells omitted.
    """
    if rows is None:
        rows = table1(**table1_kwargs)
    series: dict = {}
    for row in rows:
        for (cutoff, version), cell in row.cells.items():
            if cell.ran:
                series.setdefault((row.machine, cutoff, version), []).append(
                    (row.physical_pes, cell.seconds)
                )
    for points in series.values():
        points.sort()
    return series


# ---------------------------------------------------------------------------
# Section 5.3: Nmax sensitivity
# ---------------------------------------------------------------------------


def nmax_sensitivity(
    cutoff: float = 8.0,
    nmax_values=(8192, 16384),
    n_atoms: int = 6968,
    engine: Engine | None = None,
) -> list[dict]:
    """Doubling Nmax: L_u^2 doubles on both machines, L_u^l doubles on
    the CM-2 but grows only ~5% on the DECmpp, and L_f is unchanged."""
    engine = engine if engine is not None else default_engine()
    out = []
    for family, machine in (("cm2", cm2(8192)), ("decmpp", decmpp(8192))):
        for nmax in nmax_values:
            workload = sod_workload(cutoff, n_atoms=n_atoms, nmax=nmax)
            entry = {"machine": machine.name, "nmax": nmax}
            for version in VERSIONS:
                cell = _run_version(machine, workload, version, engine=engine)
                entry[version] = cell.seconds
            out.append(entry)
    return out


# ---------------------------------------------------------------------------
# Section 6: the overhead claim
# ---------------------------------------------------------------------------


def flattening_overhead(engine: Engine | None = None) -> dict:
    """Per-useful-step control overhead of the flattened EXAMPLE.

    The paper: "the additional overhead caused by loop flattening is,
    in the worst case, to manipulate two flags and to perform two
    conditional jumps".  We count mask manipulations and control
    (ACU) operations per body execution for the naive and flattened
    SIMD EXAMPLE programs.
    """
    engine = engine if engine is not None else default_engine()
    bindings = ex.example_bindings()
    naive = engine.compile(ex.P4_NAIVE_SIMD).run(
        dict(bindings),
        backend="interpreter",
        config=BackendConfig(nproc=ex.EXAMPLE_P),
    )
    flat = engine.compile(ex.P5_FLATTENED_SIMD).run(
        dict(bindings),
        backend="interpreter",
        config=BackendConfig(nproc=ex.EXAMPLE_P),
    )

    def per_body(counters):
        body_steps = counters.events.get("scatter", 0)
        return {
            "body_steps": body_steps,
            "mask_per_step": counters.events.get("mask", 0) / body_steps,
            "acu_per_step": counters.events.get("acu", 0) / body_steps,
            "total_steps": counters.total_steps,
        }

    return {"naive": per_body(naive.counters), "flattened": per_body(flat.counters)}


def engine_cache_report(engine: Engine | None = None) -> dict:
    """Cache statistics of the Engine behind the experiment drivers."""
    engine = engine if engine is not None else default_engine()
    return engine.stats.snapshot()


# ---------------------------------------------------------------------------
# PE utilization (the Figure 6 idling, quantified at full scale)
# ---------------------------------------------------------------------------


def utilization_sweep(
    cutoffs=PAPER_CUTOFFS,
    gran: int = 1024,
    n_atoms: int = 6968,
    engine: Engine | None = None,
) -> list[dict]:
    """Force-evaluation efficiency of the flattened vs unflattened kernels.

    Lockstep execution makes the unflattened kernel evaluate the force
    for every (slot, layer) element on every ``pr`` iteration, masked
    or not; efficiency is the fraction of evaluated elements that were
    useful pairs.  This is the intro's MPP quote — "perform the
    operation or wait in an idle state" — measured.
    """
    engine = engine if engine is not None else default_engine()
    rows = []
    for cutoff in cutoffs:
        workload = sod_workload(cutoff, n_atoms=n_atoms)
        dist = workload.distribution(gran)
        useful = workload.pairlist.total_pairs
        _, c_flat = run_flat_kernel(
            workload.molecule, workload.pairlist, dist, engine=engine
        )
        _, c_unflat = run_unflat_kernel(
            workload.molecule,
            workload.pairlist,
            dist,
            select_layers=True,
            engine=engine,
        )
        rows.append(
            {
                "cutoff": float(cutoff),
                "useful_pairs": useful,
                "flattened_evals": int(c_flat.element_ops["call"]),
                "unflattened_evals": int(c_unflat.element_ops["call"]),
                "flattened_efficiency": useful / c_flat.element_ops["call"],
                "unflattened_efficiency": useful / c_unflat.element_ops["call"],
            }
        )
    return rows


__all__ = [
    "ExampleTraces",
    "example_traces",
    "utilization_sweep",
    "figure18",
    "Table1Cell",
    "Table1Row",
    "table1",
    "sparc_reference",
    "table2",
    "TABLE2_GRANS",
    "figure19_series",
    "nmax_sensitivity",
    "flattening_overhead",
    "engine_cache_report",
    "VERSIONS",
]
