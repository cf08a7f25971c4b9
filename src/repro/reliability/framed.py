"""The framed-record file format shared by the on-disk stores.

Both :class:`~repro.runtime.store.ArtifactStore` (``repro.artifact/v1``)
and :class:`~repro.reliability.checkpoint.CheckpointStore`
(``repro.checkpoint/v1``) persist one pickled payload per file behind a
one-line JSON header::

    {"format": <tag>, <store fields...>, "sha256": <payload digest>,
     "payload_bytes": N}\\n
    <pickled payload>

Writes are crash-safe: the bytes go to a temporary name in the target
directory, are fsynced, then published with ``os.replace``, so a
reader never observes a half-written file and two writers of the same
path both succeed (the last replace wins).  Reads verify the header's
``payload_bytes`` and sha256 digest *before* unpickling, so truncated
or bit-flipped files are reported as corruption and never reach the
unpickler.  Each store supplies its own format tag, header fields and
error type.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import tempfile


def suppress_os_errors():
    """Context manager for best-effort housekeeping (unlink, utime, rmdir)."""
    return contextlib.suppress(OSError)


def write_framed(
    path: str, fmt: str, payload, header: dict, *, tmp_prefix: str
) -> None:
    """Atomically publish ``payload`` at ``path`` behind a ``fmt`` header.

    ``header`` holds the store's own fields; the format tag, digest and
    length are added here.  The directory must exist.
    """
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    head = {"format": fmt, **header}
    # the integrity fields always describe the bytes actually written
    head.update(
        format=fmt,
        sha256=hashlib.sha256(blob).hexdigest(),
        payload_bytes=len(blob),
    )
    data = json.dumps(head, default=str).encode() + b"\n" + blob
    fd, tmp_path = tempfile.mkstemp(prefix=tmp_prefix, dir=os.path.dirname(path))
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        with suppress_os_errors():
            os.unlink(tmp_path)
        raise


def read_framed(path: str, fmt: str, error: type[Exception]):
    """Validate one framed file and return its unpickled payload.

    A missing file raises :class:`FileNotFoundError`; every other
    failure (unreadable, truncated, malformed or foreign header, digest
    mismatch, unloadable payload) raises ``error`` naming the path.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise error(f"{path}: unreadable: {exc}") from exc
    newline = blob.find(b"\n")
    if newline < 0:
        raise error(f"{path}: truncated header")
    try:
        header = json.loads(blob[:newline].decode())
    except (UnicodeDecodeError, ValueError) as exc:
        raise error(f"{path}: malformed header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != fmt:
        raise error(
            f"{path}: not a {fmt} file "
            f"(format={header.get('format') if isinstance(header, dict) else None!r})"
        )
    payload = blob[newline + 1:]
    expected = header.get("payload_bytes")
    if not isinstance(expected, int) or len(payload) != expected:
        raise error(
            f"{path}: truncated payload "
            f"({len(payload)} bytes, header says {expected})"
        )
    if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
        raise error(f"{path}: digest mismatch (content corrupted)")
    try:
        return pickle.loads(payload)
    except Exception as exc:  # digest-valid yet unloadable payload
        raise error(f"{path}: unloadable payload: {exc}") from exc


__all__ = ["read_framed", "suppress_os_errors", "write_framed"]
