"""The NBFORCE kernels of the case study (Section 5).

Four versions of the non-bonded force calculation:

* :data:`NBFORCE_SEQUENTIAL` — Figure 13, the F77 original (this is
  also what runs on the Sparc reference and what the transformation
  pipeline flattens automatically);
* :data:`NBFORCE_UNFLAT_SELECT` — the L_u^l version (Figure 17 with
  explicit ``1:Lrs`` layer selection);
* :data:`NBFORCE_UNFLAT_ALL` — the L_u^2 version (all ``maxLrs``
  layers, plain ``:`` subscripts);
* :data:`NBFORCE_FLAT` — the L_f flattened version (Figures 15/16).

The force routine is external (``CALL force(fpair, at1, at2)``); the
molecular substrate provides it (:mod:`repro.md.forces`).  Runner
helpers wire kernels, bindings, externals, and counters together.
"""

from __future__ import annotations

import numpy as np

from ..exec.values import FArray
from ..lang import parse_source
from ..runtime.config import BackendConfig
from ..runtime.engine import Engine, default_engine
from ..md.distribution import (
    flat_kernel_bindings,
    gather_flat_results,
    gather_unflat_results,
    unflat_kernel_bindings,
)
from ..md.forces import make_scalar_force_external, make_simd_force_external
from ..md.molecule import Molecule
from ..md.pairlist import PairList
from ..simd.layout import DataDistribution

#: Figure 13: the sequential F77 kernel (owner-computes F, half pairs).
NBFORCE_SEQUENTIAL = """
C NBFORCE - sequential version (Figure 13)
PROGRAM nbforce
  INTEGER n, maxpcnt, at1, at2, prc
  INTEGER pcnt(n), partners(n, maxpcnt)
  REAL f(n), fpair
  DO at1 = 1, n
    f(at1) = 0.0
    DO prc = 1, pcnt(at1)
      at2 = partners(at1, prc)
      CALL force(fpair, at1, at2)
      f(at1) = f(at1) + fpair
    ENDDO
  ENDDO
END
"""

#: The MIMD (M_seq) version: the Figure-13 sequential kernel with the
#: atom range block-partitioned over asynchronous processors.  Each
#: processor binds its own ``pcnt``/``partners`` slice and ``atom0``
#: rebases the local loop index to the global atom id the force
#: external expects — no lockstep, no masking, each processor's DO
#: loops run exactly its own trip counts.
NBFORCE_MIMD = """
C NBFORCE - MIMD version (sequential kernel per processor)
PROGRAM nbforce
  INTEGER n, atom0, maxpcnt, at1, at1g, at2, prc
  INTEGER pcnt(n), partners(n, maxpcnt)
  REAL f(n), fpair
  DO at1 = 1, n
    f(at1) = 0.0
    at1g = at1 + atom0
    DO prc = 1, pcnt(at1)
      at2 = partners(at1, prc)
      CALL force(fpair, at1g, at2)
      f(at1) = f(at1) + fpair
    ENDDO
  ENDDO
END
"""

#: The L_u^l unflattened version: explicit 1:Lrs layer selection
#: (Figure 17 with the paper's "selecting memory layers" subscripts).
NBFORCE_UNFLAT_SELECT = """
C NBFORCE - unflattened, selecting memory layers (L_u^l)
PROGRAM nbforce
  INTEGER p, lrs, maxlrs, maxpcnt, pr
  INTEGER at1(p, maxlrs), at2(p, maxlrs)
  INTEGER pcnt(p, maxlrs), partners(p, maxlrs, maxpcnt)
  REAL f(p, maxlrs), fpair(p, maxlrs)
  f = 0.0
  DO pr = 1, maxpcnt
    at2(:, 1:lrs) = partners(:, 1:lrs, pr)
    CALL force(fpair(:, 1:lrs), at1(:, 1:lrs), at2(:, 1:lrs))
    WHERE (pcnt(:, 1:lrs) >= pr)
      f(:, 1:lrs) = f(:, 1:lrs) + fpair(:, 1:lrs)
    ENDWHERE
  ENDDO
END
"""

#: The L_u^2 unflattened version: all memory layers, plain ':'.
NBFORCE_UNFLAT_ALL = """
C NBFORCE - unflattened, using all memory layers (L_u^2)
PROGRAM nbforce
  INTEGER p, lrs, maxlrs, maxpcnt, pr
  INTEGER at1(p, maxlrs), at2(p, maxlrs)
  INTEGER pcnt(p, maxlrs), partners(p, maxlrs, maxpcnt)
  REAL f(p, maxlrs), fpair(p, maxlrs)
  f = 0.0
  DO pr = 1, maxpcnt
    at2 = partners(:, :, pr)
    CALL force(fpair, at1, at2)
    WHERE (pcnt >= pr)
      f = f + fpair
    ENDWHERE
  ENDDO
END
"""

#: The L_f flattened version (Figure 15 / Figure 16; cyclic layout,
#: takes pCnt(i) >= 1 into account).
NBFORCE_FLAT = """
C NBFORCE - flattened version (L_f, Figures 15/16)
PROGRAM nbforce
  INTEGER n, p, maxpcnt
  INTEGER pcnt(n), partners(n, maxpcnt)
  INTEGER at1(p), at2(p), pr(p)
  REAL f(n), fpair(p)
  f = 0.0
  at1 = [1 : p]
  pr = 1
  WHILE (ANY(at1 <= n))
    WHERE (at1 <= n)
      at2 = partners(at1, pr)
      CALL force(fpair, at1, at2)
      f(at1) = f(at1) + fpair
      WHERE (pr == pcnt(at1))
        at1 = at1 + p
        pr = 1
      ELSEWHERE
        pr = pr + 1
      ENDWHERE
    ENDWHERE
  ENDWHILE
END
"""


def flat_kernel_setup(
    molecule: Molecule, pairlist: PairList, dist: DataDistribution
) -> tuple:
    """Workload preparation for the flattened kernel: ``(text,
    bindings, externals)``.

    The pairlist arrays are adopted as :class:`FArray` wrappers —
    the kernel only reads them, and adoption skips the defensive
    per-run copy at DECL.  Benchmark runners call this *outside* the
    timed region: it is input marshalling, not engine execution.
    """
    bindings = flat_kernel_bindings(pairlist, dist)
    for name in ("pcnt", "partners"):
        bindings[name] = FArray.wrap(name, bindings[name])
    return NBFORCE_FLAT, bindings, {"force": make_simd_force_external(molecule)}


def unflat_kernel_setup(
    molecule: Molecule,
    pairlist: PairList,
    dist: DataDistribution,
    select_layers: bool,
) -> tuple:
    """Workload preparation for an unflattened kernel: ``(text,
    bindings, externals)`` — see :func:`flat_kernel_setup`."""
    text = NBFORCE_UNFLAT_SELECT if select_layers else NBFORCE_UNFLAT_ALL
    bindings = unflat_kernel_bindings(pairlist, dist)
    for name in ("at1", "pcnt", "partners"):
        bindings[name] = FArray.wrap(name, bindings[name])
    return text, bindings, {"force": make_simd_force_external(molecule)}


def run_flat_kernel(
    molecule: Molecule,
    pairlist: PairList,
    dist: DataDistribution,
    engine: Engine | None = None,
    backend: str = "interpreter",
):
    """Run the flattened NBFORCE kernel on a ``dist.gran``-slot machine.

    The kernel text compiles once per Engine; sweeps over cutoffs and
    machine widths reuse the cached artifact.  ``backend`` selects the
    lockstep engine (``"interpreter"`` or ``"vm"``); both produce
    identical results and counters.

    Returns:
        ``(per_atom_f, counters)``.
    """
    engine = engine if engine is not None else default_engine()
    text, bindings, externals = flat_kernel_setup(molecule, pairlist, dist)
    result = engine.compile(text).run(
        bindings,
        backend=backend,
        config=BackendConfig(nproc=dist.gran, externals=externals),
    )
    return gather_flat_results(result.env, pairlist), result.counters


def run_unflat_kernel(
    molecule: Molecule,
    pairlist: PairList,
    dist: DataDistribution,
    select_layers: bool,
    engine: Engine | None = None,
    backend: str = "interpreter",
):
    """Run an unflattened NBFORCE kernel (L_u^l or L_u^2).

    Args:
        select_layers: True for the explicit ``1:Lrs`` version (L_u^l).
        backend: Lockstep engine (``"interpreter"`` or ``"vm"``).

    Returns:
        ``(per_atom_f, counters)``.
    """
    engine = engine if engine is not None else default_engine()
    text, bindings, externals = unflat_kernel_setup(
        molecule, pairlist, dist, select_layers
    )
    result = engine.compile(text).run(
        bindings,
        backend=backend,
        config=BackendConfig(nproc=dist.gran, externals=externals),
    )
    return gather_unflat_results(result.env, pairlist, dist), result.counters


def mimd_kernel_setup(
    molecule: Molecule, pairlist: PairList, nproc: int
) -> tuple:
    """Workload preparation for the MIMD column: ``(text,
    bindings_for, externals)``.

    The atom range is block-partitioned over ``nproc`` asynchronous
    processors; processor ``p``'s bindings carry its own
    ``pcnt``/``partners`` slice plus the ``atom0`` rebase, so each
    processor runs the sequential Figure-13 loop over exactly its own
    pairs — the control-flow-free execution model the paper's
    MIMD-vs-SIMD comparison is about.  Like the SIMD setups this is
    input marshalling and belongs outside the timed region.
    """
    if nproc < 1:
        raise ValueError(f"mimd_kernel_setup needs nproc >= 1, got {nproc}")
    pcnt = pairlist.pcnt.astype(np.int64)
    partners = pairlist.partners.astype(np.int64)
    maxpcnt = int(partners.shape[1])
    n = pairlist.n_atoms
    base, extra = divmod(n, nproc)

    def bindings_for(proc: int) -> dict:
        # Processors are 1-based (MIMDSimulator / pmimd convention).
        index = proc - 1
        lo = index * base + min(index, extra)
        size = base + (1 if index < extra else 0)
        hi = lo + size
        return {
            "n": size,
            "atom0": lo,
            "maxpcnt": maxpcnt,
            "pcnt": pcnt[lo:hi].copy(),
            "partners": partners[lo:hi].copy(),
        }

    return (
        NBFORCE_MIMD,
        bindings_for,
        {"force": make_scalar_force_external(molecule)},
    )


def run_sequential_kernel(
    molecule: Molecule, pairlist: PairList, engine: Engine | None = None
):
    """Run the sequential NBFORCE (the Sparc reference path).

    Returns:
        ``(per_atom_f, counters)``.
    """
    engine = engine if engine is not None else default_engine()
    bindings = {
        "n": pairlist.n_atoms,
        "maxpcnt": int(pairlist.partners.shape[1]),
        "pcnt": pairlist.pcnt.astype(np.int64),
        "partners": pairlist.partners.astype(np.int64),
    }
    result = engine.compile(NBFORCE_SEQUENTIAL).run(
        bindings,
        backend="scalar",
        config=BackendConfig(
            externals={"force": make_scalar_force_external(molecule)}
        ),
    )
    return np.asarray(result.env["f"].data, dtype=float), result.counters
