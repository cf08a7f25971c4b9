"""The framed-record format both on-disk stores share."""

import json
import os

import pytest

from repro.reliability.checkpoint import Checkpoint, CheckpointError, CheckpointStore
from repro.reliability.framed import read_framed, write_framed
from repro.runtime.store import ArtifactStore


class FramedError(Exception):
    pass


def _header(path):
    with open(path, "rb") as handle:
        return json.loads(handle.readline())


class TestFormat:
    def test_round_trip_and_header_layout(self, tmp_path):
        path = str(tmp_path / "rec")
        write_framed(path, "t/v1", {"a": [1, 2]}, {"key": "k"}, tmp_prefix=".tmp-")
        assert read_framed(path, "t/v1", FramedError) == {"a": [1, 2]}
        header = _header(path)
        assert list(header) == ["format", "key", "sha256", "payload_bytes"]
        assert [n for n in os.listdir(tmp_path) if n.startswith(".tmp")] == []

    def test_store_fields_cannot_forge_integrity_fields(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        path = store.save(
            "ab" * 32,
            {"x": 1},
            meta={"format": "other/v9", "sha256": "0" * 64, "payload_bytes": 0},
        )
        header = _header(path)
        assert header["format"] == "repro.artifact/v1"
        assert header["payload_bytes"] > 0
        assert store.load("ab" * 32) == {"x": 1}

    def test_foreign_format_is_the_callers_error(self, tmp_path):
        path = str(tmp_path / "rec")
        write_framed(path, "t/v1", 1, {}, tmp_prefix=".tmp-")
        with pytest.raises(FramedError, match=r"not a t/v2 file \(format='t/v1'\)"):
            read_framed(path, "t/v2", FramedError)


class TestMissingFile:
    def test_reader_passes_file_not_found_through(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_framed(str(tmp_path / "gone"), "t/v1", FramedError)

    def test_checkpoint_store_reports_it_as_unreadable(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        path = store.save("k", Checkpoint(backend="vm", step=1, pc=0, env={}))
        os.unlink(path)
        with pytest.raises(CheckpointError, match="unreadable"):
            store.load_file(path)

    def test_artifact_store_reports_a_miss(self, tmp_path):
        assert ArtifactStore(str(tmp_path)).load("cd" * 32) is None
