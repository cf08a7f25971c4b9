"""Restorable execution checkpoints and the crash-safe on-disk store.

:class:`~repro.reliability.snapshot.MachineSnapshot` is a *diagnostic*
artifact: a truncated view of the dying machine good enough for a
postmortem, useless for restarting.  This module is its restorable
sibling.  A :class:`Checkpoint` carries the **full** execution state of
one backend run — per-PE environment, VM operand and mask stacks (or
the scalar interpreter's control-path frames), program counter,
:class:`~repro.exec.counters.ExecutionCounters` contents and the
consumed step budget — enough that ``run(resume_from=ckpt)`` continues
bit-identically to an uninterrupted run (same envs, same counters, same
crash dumps).

Capture cadence and slack
-------------------------

Backends capture every ``checkpoint_every`` *executed* steps, checked
between instructions (statements).  The VM checks between dispatch
iterations, so a capture point never lands inside a fused
superinstruction: a fused run of ``k ≤ 32`` components executes
atomically, which means a capture may trail the requested interval by
at most ``MAX_FUSE_LEN - 1 = 31`` steps — exactly the budget-slack
contract of :mod:`repro.reliability.budget`, which fused dispatch
already carries.  Nothing is ever captured *mid*-block, so restored
state is always a machine state the unfused VM could also have been in.

What is deliberately **not** checkpointed:

* Wall-clock deadlines.  ``Budget.deadline_seconds`` restarts on
  resume (the new process's clock is not the old one's); only the
  consumed *step* budget resumes exactly.
* The scalar interpreter's internal subroutine frames.  Captures are
  deferred while a ``CALL`` into MiniF code is on the stack and taken
  at the next top-level statement, so the interval may stretch by one
  call's duration.

Store format (``repro.checkpoint/v1``)
--------------------------------------

One file per generation, ``<root>/<key>/gen-<n>.ckpt``, each a framed
record (:mod:`repro.reliability.framed`, shared with the artifact
store)::

    {"format": "repro.checkpoint/v1", "key": ..., "generation": n,
     "step": ..., "backend": ..., "sha256": ..., "payload_bytes": ...}\n
    <pickled Checkpoint payload>

Writes are crash-safe (temporary file, fsync, ``os.replace``), so a
reader never observes a half-written generation.  Reads verify the
header's ``payload_bytes`` and sha256 digest *before* unpickling, so
truncated or bit-flipped files are detected (and never reach the
unpickler); :meth:`CheckpointStore.load_latest` walks the
generation ladder newest-first, skipping corrupt files, and returns
``None`` when no generation survives — the caller's cue for a clean
rerun from step 0.
"""

from __future__ import annotations

import copy
import os
import re
from dataclasses import dataclass, field
from typing import Any

from .framed import read_framed, suppress_os_errors, write_framed

#: On-disk format tag; bump on incompatible layout changes.
FORMAT = "repro.checkpoint/v1"

#: In-memory Checkpoint schema version (stored in the payload).
CHECKPOINT_VERSION = 1

#: Store-file generation name pattern.
_GEN_RE = re.compile(r"^gen-(\d+)\.ckpt$")

#: Characters allowed in a store key; anything else becomes ``_``.
_KEY_SANITIZE = re.compile(r"[^A-Za-z0-9._-]")


class CheckpointError(Exception):
    """A checkpoint file failed validation (truncated, corrupt, alien)."""


@dataclass
class Checkpoint:
    """Full restorable state of one backend run at a step boundary.

    Attributes:
        backend: ``"vm"`` or ``"scalar"`` — the capturing backend.
            Resume refuses a checkpoint from the other backend.
        step: Instructions (VM) / statements (scalar) executed so far;
            the resume point.
        pc: VM instruction index / scalar statement ordinal to continue
            *at* (the checkpointed position has not executed yet).
        env: Full environment — every binding, no truncation.
        stack: VM operand stack (empty at statement boundaries, but
            captured verbatim for safety).
        mask: VM current activity mask.
        mask_stack: VM ``(outer, cond)`` mask-stack entries, detached
            from the machine's buffer pool.
        frames: Scalar interpreter control-path frames — the loop /
            branch positions needed to re-enter nested statements.
        counters: :meth:`ExecutionCounters.state_dict` contents.
        meter_steps: Consumed step budget at capture time.
        trace: Last-opcode ring buffer contents (so post-resume crash
            dumps are bit-identical to uninterrupted ones).
        last_pc: VM ``_last_pc`` at capture.
        last_loc: Last known source location.
        nproc: Lane count of the capturing machine.
        version: :data:`CHECKPOINT_VERSION` at capture time.
        meta: Free-form provenance (engine stamps ``source_sha``;
            the store stamps nothing).
    """

    backend: str
    step: int
    pc: int
    env: dict
    stack: list = field(default_factory=list)
    mask: Any = None
    mask_stack: list = field(default_factory=list)
    frames: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    meter_steps: int = 0
    trace: list = field(default_factory=list)
    last_pc: int = 0
    last_loc: Any = None
    nproc: int = 1
    version: int = CHECKPOINT_VERSION
    meta: dict = field(default_factory=dict)

    def detach(self) -> "Checkpoint":
        """Deep-copy all mutable state, in place; returns self.

        Capture sites build the checkpoint with *live* references (the
        machine's env dict, pooled mask buffers); one deepcopy through
        a shared memo preserves aliasing between them (an FArray bound
        in ``env`` and sitting on the operand stack stays one object
        after restore) while detaching everything from the machine.
        """
        (self.env, self.stack, self.mask, self.mask_stack,
         self.frames) = copy.deepcopy(
            (self.env, self.stack, self.mask, self.mask_stack, self.frames)
        )
        self.trace = list(self.trace)
        return self


def _key_dir(root: str, key: str) -> str:
    safe = _KEY_SANITIZE.sub("_", str(key)) or "_"
    return os.path.join(root, safe)


class CheckpointStore:
    """Crash-safe, generation-ladder checkpoint store on local disk.

    Args:
        root: Store directory (created on first save).
        keep: Generations retained per key; older ones are pruned
            after each save.  Two generations are the minimum for the
            corruption-fallback ladder (newest corrupt → previous).
    """

    def __init__(self, root: str, keep: int = 2):
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.root = str(root)
        self.keep = keep

    # -- writing ---------------------------------------------------------------

    def save(self, key: str, checkpoint: Checkpoint) -> str:
        """Atomically persist a new generation for ``key``; returns its path."""
        directory = _key_dir(self.root, key)
        os.makedirs(directory, exist_ok=True)
        generation = self.latest_generation(key) + 1
        final = os.path.join(directory, f"gen-{generation}.ckpt")
        write_framed(
            final,
            FORMAT,
            checkpoint,
            {
                "key": str(key),
                "generation": generation,
                "step": int(checkpoint.step),
                "backend": checkpoint.backend,
            },
            tmp_prefix=f".tmp-gen-{generation}-",
        )
        self._prune(directory)
        return final

    def _prune(self, directory: str) -> None:
        generations = self._generations(directory)
        for gen, name in generations[: -self.keep]:
            with suppress_os_errors():
                os.unlink(os.path.join(directory, name))

    # -- reading ---------------------------------------------------------------

    def load_latest(self, key: str) -> Checkpoint | None:
        """Newest valid checkpoint for ``key``, walking the ladder.

        A corrupt newest generation (truncation, digest mismatch,
        foreign format) is skipped and the previous one is tried; with
        no valid generation left the answer is ``None`` — rerun clean.
        """
        directory = _key_dir(self.root, key)
        for gen, name in reversed(self._generations(directory)):
            try:
                return self.load_file(os.path.join(directory, name))
            except CheckpointError:
                continue
        return None

    def load_file(self, path: str) -> Checkpoint:
        """Validate and load one store file; raises :class:`CheckpointError`.

        The header's byte length and sha256 digest are verified before
        the payload reaches the unpickler, so hostile bit-flips are
        rejected as corruption, not executed as pickles.
        """
        try:
            checkpoint = read_framed(path, FORMAT, CheckpointError)
        except FileNotFoundError as exc:
            raise CheckpointError(f"{path}: unreadable: {exc}") from exc
        if not isinstance(checkpoint, Checkpoint):
            raise CheckpointError(
                f"{path}: payload is {type(checkpoint).__name__}, "
                "not a Checkpoint"
            )
        if checkpoint.version > CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: forward version {checkpoint.version} "
                f"(this build reads <= {CHECKPOINT_VERSION})"
            )
        return checkpoint

    # -- housekeeping ----------------------------------------------------------

    def latest_generation(self, key: str) -> int:
        """Highest generation number present for ``key`` (0 when none)."""
        generations = self._generations(_key_dir(self.root, key))
        return generations[-1][0] if generations else 0

    def clear(self, key: str) -> None:
        """Drop every generation of ``key`` (idempotent)."""
        directory = _key_dir(self.root, key)
        for gen, name in self._generations(directory):
            with suppress_os_errors():
                os.unlink(os.path.join(directory, name))
        with suppress_os_errors():
            os.rmdir(directory)

    def keys(self) -> list[str]:
        """Keys that currently have at least one generation on disk."""
        try:
            entries = sorted(os.listdir(self.root))
        except OSError:
            return []
        return [
            entry
            for entry in entries
            if self._generations(os.path.join(self.root, entry))
        ]

    @staticmethod
    def _generations(directory: str) -> list[tuple[int, str]]:
        try:
            names = os.listdir(directory)
        except OSError:
            return []
        found = []
        for name in names:
            match = _GEN_RE.match(name)
            if match:
                found.append((int(match.group(1)), name))
        found.sort()
        return found


__all__ = [
    "FORMAT",
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "CheckpointStore",
]
