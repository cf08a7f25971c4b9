"""The persistent, content-addressed compile-artifact store.

The Engine's in-process LRU (:mod:`repro.runtime.engine`) dies with the
process, so every cold start re-pays compilation the cluster has
already done.  :class:`ArtifactStore` is the durable tier underneath
it: compiled artifacts — the *transformed* tree, its options and stage
timings — keyed by the same identity the in-memory cache uses (the
SHA-256 of the source text plus the normalized
:class:`~repro.runtime.engine.CompileOptions`), addressed on disk by a
single digest of that identity.

Layout (``repro.artifact/v1``)
------------------------------

Two-level shard directories keep any one directory small under
millions of entries::

    <root>/ab/cd/abcd01...ef.art

Each file is a framed record (:mod:`repro.reliability.framed`, shared
with the checkpoint store): a one-line JSON header followed by a
pickled payload::

    {"format": "repro.artifact/v1", "digest": ..., "source_sha": ...,
     ..., "sha256": <payload digest>, "payload_bytes": N}\n
    <pickled payload dict>

Publishing is atomic (temporary file in the shard directory, fsync,
``os.replace``), so readers never observe a half-written artifact and
two processes publishing the same digest concurrently both succeed
(last replace wins, the bytes are identical anyway).  Reads verify
``payload_bytes`` and the sha256 digest *before* unpickling, so
truncated or bit-flipped entries are reported as corruption (and
evicted), never executed as pickles.

Eviction is LRU by mtime: every hit touches the file's mtime, and
:meth:`ArtifactStore.evict` (run after each save) removes
oldest-first until the store fits ``max_entries`` / ``max_bytes``.
Eviction racing a read is benign — the reader sees a miss and
recompiles.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

from ..reliability.framed import read_framed, suppress_os_errors, write_framed

#: On-disk format tag; bump on incompatible layout changes.
FORMAT = "repro.artifact/v1"

#: Artifact file suffix.
SUFFIX = ".art"


class ArtifactError(Exception):
    """An artifact file failed validation (truncated, corrupt, alien)."""


def artifact_digest(source_sha: str, options) -> str:
    """The store address of one (source, options) compile identity.

    Digests the same two components the in-memory cache keys on, in a
    canonical JSON form, so any process that can compute the in-memory
    key can address the shared store.
    """
    identity = {
        "format": FORMAT,
        "source_sha": str(source_sha),
        "options": dataclasses.asdict(options),
    }
    blob = json.dumps(identity, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


class ArtifactStore:
    """Crash-safe content-addressed artifact store on local disk.

    Args:
        root: Store directory (created on first save).
        max_entries: Entry-count ceiling for LRU eviction
            (None = unbounded).
        max_bytes: Total-size ceiling for LRU eviction
            (None = unbounded).
    """

    def __init__(
        self,
        root: str,
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.root = str(root)
        self.max_entries = max_entries
        self.max_bytes = max_bytes

    # -- addressing ------------------------------------------------------------

    def path_for(self, digest: str) -> str:
        """Sharded file path of a digest: ``<root>/ab/cd/<digest>.art``."""
        digest = str(digest)
        if len(digest) < 4:
            raise ValueError(f"digest too short to shard: {digest!r}")
        return os.path.join(self.root, digest[:2], digest[2:4], digest + SUFFIX)

    # -- writing ---------------------------------------------------------------

    def save(self, digest: str, payload: dict, meta: dict | None = None) -> str:
        """Atomically publish ``payload`` under ``digest``; returns its path.

        Concurrent publishes of the same digest are safe: each writer
        builds its own temporary file and the final ``os.replace`` is
        atomic, so readers always see one complete artifact.
        """
        final = self.path_for(digest)
        os.makedirs(os.path.dirname(final), exist_ok=True)
        write_framed(
            final,
            FORMAT,
            payload,
            {"digest": str(digest), **(meta or {})},
            tmp_prefix=".tmp-art-",
        )
        self.evict()
        return final

    # -- reading ---------------------------------------------------------------

    def load(self, digest: str) -> dict | None:
        """The payload published under ``digest``, or None on miss.

        A corrupt entry (truncation, digest mismatch, foreign format)
        is unlinked and reported as a miss — the caller's cue to
        recompile and republish.  A hit refreshes the file's mtime so
        LRU eviction sees the access.
        """
        path = self.path_for(digest)
        try:
            payload = self.load_file(path)
        except FileNotFoundError:
            return None
        except ArtifactError:
            with suppress_os_errors():
                os.unlink(path)
            return None
        with suppress_os_errors():
            os.utime(path)
        return payload

    def load_file(self, path: str) -> dict:
        """Validate and load one artifact file; raises :class:`ArtifactError`.

        The header's byte length and sha256 digest are verified before
        the payload reaches the unpickler, so hostile bit-flips are
        rejected as corruption, not executed as pickles.
        """
        obj = read_framed(path, FORMAT, ArtifactError)
        if not isinstance(obj, dict):
            raise ArtifactError(
                f"{path}: payload is {type(obj).__name__}, not a dict"
            )
        return obj

    # -- eviction & housekeeping -----------------------------------------------

    def _entries(self) -> list[tuple[float, int, str]]:
        """Every artifact as ``(mtime, size, path)``, oldest first."""
        found: list[tuple[float, int, str]] = []
        try:
            shards = os.listdir(self.root)
        except OSError:
            return found
        for first in shards:
            level1 = os.path.join(self.root, first)
            try:
                seconds = os.listdir(level1)
            except OSError:
                continue
            for second in seconds:
                level2 = os.path.join(level1, second)
                try:
                    names = os.listdir(level2)
                except OSError:
                    continue
                for name in names:
                    if not name.endswith(SUFFIX):
                        continue
                    path = os.path.join(level2, name)
                    try:
                        stat = os.stat(path)
                    except OSError:
                        continue  # evicted by a racing process
                    found.append((stat.st_mtime, stat.st_size, path))
        found.sort()
        return found

    def evict(self) -> int:
        """Drop oldest-mtime artifacts until the limits hold; returns count.

        Unlink races with other evictors (or readers that just
        re-published) are ignored: the entry being gone is the goal.
        """
        if self.max_entries is None and self.max_bytes is None:
            return 0
        entries = self._entries()
        total = sum(size for _mtime, size, _path in entries)
        evicted = 0
        index = 0
        while index < len(entries) and (
            (self.max_entries is not None
             and len(entries) - index > self.max_entries)
            or (self.max_bytes is not None and total > self.max_bytes)
        ):
            _mtime, size, path = entries[index]
            with suppress_os_errors():
                os.unlink(path)
            total -= size
            evicted += 1
            index += 1
        return evicted

    def __len__(self) -> int:
        return len(self._entries())

    def total_bytes(self) -> int:
        """Total payload+header bytes currently on disk."""
        return sum(size for _mtime, size, _path in self._entries())

    def digests(self) -> list[str]:
        """Digests currently published, LRU order (oldest first)."""
        return [
            os.path.basename(path)[: -len(SUFFIX)]
            for _mtime, _size, path in self._entries()
        ]

    def clear(self) -> None:
        """Drop every artifact (idempotent; shard dirs are retained)."""
        for _mtime, _size, path in self._entries():
            with suppress_os_errors():
                os.unlink(path)

    def stats(self) -> dict:
        """Entry count and byte total, for health/metrics endpoints."""
        entries = self._entries()
        return {
            "entries": len(entries),
            "bytes": sum(size for _mtime, size, _path in entries),
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
        }


__all__ = ["FORMAT", "SUFFIX", "ArtifactError", "ArtifactStore", "artifact_digest"]
