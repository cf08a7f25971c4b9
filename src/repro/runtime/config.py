"""Unified backend construction: :class:`BackendConfig`.

The four execution backends historically grew four different
constructor signatures (the scalar interpreter has no ``nproc``, the
MIMD simulator takes no ``counters``, the VM adds ``fuse``...).
:class:`BackendConfig` is the one bag of settings every backend knows
how to consume via its ``from_config`` classmethod, and the only way
to hand run settings to :meth:`CompiledProgram.run`, which threads it
unchanged through ``CompiledProgram._execute`` → backend construction.

Fields a backend does not support are simply ignored by its
``from_config`` (e.g. ``vm_fuse`` outside the VM), so one config can
drive a whole fallback chain.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class BackendConfig:
    """Constructor settings shared by all execution backends.

    Attributes:
        nproc: PE/processor count (0 = sequential-only contexts).
        externals: External subroutine registry (name → callable).
        counters: An :class:`~repro.exec.counters.ExecutionCounters`
            to accumulate into, or None for a fresh accumulator.
        budget: Execution guard (:class:`~repro.reliability.Budget`),
            or None for each backend's default step cap.
        fault_plan: Deterministic fault injection plan, or None.
        max_instructions: Step cap used when ``budget`` is None
            (``max_statements`` on the tree-walkers); None keeps each
            backend's default.
        vm_fuse: Enable superinstruction fusion (VM only).
        workers: Worker-process pool size (pmimd only; None picks a
            per-core default).
        shards: Shard count for the processor partition (pmimd only;
            None picks ``min(nproc, 2 × workers)``).
        shard_layout: ``"block"`` or ``"cyclic"`` processor-to-shard
            distribution (pmimd only).
        supervision: A
            :class:`~repro.reliability.supervisor.SupervisionPolicy`
            for the worker pool (pmimd only; None uses the defaults).
        checkpoint_every: Capture a restorable
            :class:`~repro.reliability.checkpoint.Checkpoint` every
            this many executed steps/statements (vm, scalar and pmimd
            backends; None disables durable execution).
        checkpoint_dir: Root of the on-disk
            :class:`~repro.reliability.checkpoint.CheckpointStore`.
            For vm/scalar runs the Engine saves each capture there
            (key ``"run"``); for pmimd the workers keep per-processor
            keys so shard replays resume instead of rerunning.
    """

    nproc: int = 0
    externals: dict | None = None
    counters: object | None = None
    budget: object | None = None
    fault_plan: object | None = None
    max_instructions: int | None = None
    vm_fuse: bool = True
    workers: int | None = None
    shards: int | None = None
    shard_layout: str = "block"
    supervision: object | None = None
    checkpoint_every: int | None = None
    checkpoint_dir: str | None = None

    def with_nproc(self, nproc: int) -> "BackendConfig":
        """This config with a different machine width."""
        return replace(self, nproc=nproc)


__all__ = ["BackendConfig"]
