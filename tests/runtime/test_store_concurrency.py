"""ArtifactStore under contention: processes and threads sharing a dir.

The store's publish is tmp+fsync+``os.replace``, so every reader ever
sees either nothing or a complete artifact — these tests drive the
racy interleavings (same-key double publish, eviction against a
reader, torn entries left by a crash) and assert the worst outcome is
a recompile, never a corrupt load or an exception.
"""

import multiprocessing
import os
import threading
import time

from repro import BackendConfig
from repro.kernels.example import P1_SEQUENTIAL
from repro.runtime import ArtifactStore, Engine
from repro.runtime.engine import CompileOptions
from repro.runtime.store import artifact_digest

FORK = multiprocessing.get_context("fork")


def _compile_into(root, queue):
    """Child-process body: compile P1 against a shared store dir."""
    engine = Engine(store_dir=root)
    program = engine.compile(P1_SEQUENTIAL, transform="flatten")
    queue.put(
        {
            "tier": program.cache_tier,
            "saves": engine.stats.store_saves,
            "source_sha": program.source_sha,
        }
    )


class TestTwoEngineProcesses:
    def test_concurrent_publish_of_same_key(self, tmp_path):
        root = str(tmp_path / "store")
        queue = FORK.Queue()
        workers = [
            FORK.Process(target=_compile_into, args=(root, queue), daemon=True)
            for _ in range(2)
        ]
        for proc in workers:
            proc.start()
        results = [queue.get(timeout=60) for _ in workers]
        for proc in workers:
            proc.join(timeout=60)
            assert proc.exitcode == 0

        # Both processes were cold (fresh engines); last replace wins
        # and the store holds exactly one complete artifact.
        assert {r["source_sha"] for r in results} == {results[0]["source_sha"]}
        store = ArtifactStore(root)
        assert len(store) == 1
        digest = store.digests()[0]
        payload = store.load(digest)
        assert payload is not None and payload["source_sha"] == results[0]["source_sha"]

        # A third engine now warm-starts from whichever publish won.
        program = Engine(store_dir=root).compile(P1_SEQUENTIAL, transform="flatten")
        assert program.cache_tier == "disk"

    def test_second_process_after_first_disk_hits(self, tmp_path):
        root = str(tmp_path / "store")
        queue = FORK.Queue()
        first = FORK.Process(target=_compile_into, args=(root, queue), daemon=True)
        first.start()
        cold = queue.get(timeout=60)
        first.join(timeout=60)
        assert cold["tier"] == "miss" and cold["saves"] == 1

        second = FORK.Process(target=_compile_into, args=(root, queue), daemon=True)
        second.start()
        warm = queue.get(timeout=60)
        second.join(timeout=60)
        assert warm["tier"] == "disk"
        assert warm["saves"] == 0


class TestEvictionRaces:
    def test_eviction_racing_a_reader(self, tmp_path):
        """A reader never sees a torn artifact while eviction churns.

        Writer thread keeps publishing fresh digests through a
        max_entries=2 store (every save evicts the oldest); reader
        thread hammers load() on a rotating window of digests.  Every
        load must be either None (evicted: benign miss) or the exact
        payload that was published.
        """
        store = ArtifactStore(str(tmp_path), max_entries=2)
        digests = [
            artifact_digest(f"{n:064x}", CompileOptions()) for n in range(16)
        ]
        failures = []
        stop = threading.Event()

        def writer():
            for round_index in range(4):
                for index, digest in enumerate(digests):
                    store.save(digest, {"n": index})
            stop.set()

        def reader():
            while not stop.is_set():
                for index, digest in enumerate(digests):
                    try:
                        payload = store.load(digest)
                    except Exception as exc:  # noqa: BLE001 - the assertion
                        failures.append(repr(exc))
                        return
                    if payload is not None and payload != {"n": index}:
                        failures.append(f"torn read for {digest}: {payload}")
                        return

        threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert failures == []
        assert len(store) <= 2

    def test_entry_vanishing_mid_scan_is_benign(self, tmp_path):
        store = ArtifactStore(str(tmp_path), max_entries=4)
        digest = artifact_digest("ee" * 32, CompileOptions())
        store.save(digest, {"x": 1})
        os.unlink(store.path_for(digest))  # another process evicted it
        assert store.load(digest) is None
        assert store.evict() == 0


class TestCorruptionAcrossProcesses:
    def test_corrupted_entry_skipped_then_recompiled(self, tmp_path):
        root = str(tmp_path / "store")
        engine = Engine(store_dir=root)
        engine.compile(P1_SEQUENTIAL, transform="flatten")
        digest = engine.cache_key(P1_SEQUENTIAL, transform="flatten")
        path = engine.store.path_for(digest)
        with open(path, "r+b") as handle:  # crash mid-write: torn tail
            handle.truncate(os.path.getsize(path) // 2)

        queue = FORK.Queue()
        proc = FORK.Process(target=_compile_into, args=(root, queue), daemon=True)
        proc.start()
        result = queue.get(timeout=60)
        proc.join(timeout=60)
        assert proc.exitcode == 0
        assert result["tier"] == "miss"  # skipped the torn entry
        assert result["saves"] == 1  # and healed the store

        healed = Engine(store_dir=root).compile(P1_SEQUENTIAL, transform="flatten")
        assert healed.cache_tier == "disk"

    def test_tmp_file_from_dead_writer_is_invisible(self, tmp_path):
        root = str(tmp_path / "store")
        store = ArtifactStore(root)
        digest = artifact_digest("aa" * 32, CompileOptions())
        directory = os.path.dirname(store.path_for(digest))
        os.makedirs(directory, exist_ok=True)
        litter = os.path.join(directory, ".tmp-dead-writer")
        with open(litter, "wb") as handle:
            handle.write(b"half a payload")
        assert store.load(digest) is None
        assert len(store) == 0  # litter is not an entry
        store.save(digest, {"ok": True})
        assert store.load(digest) == {"ok": True}


class TestThreadedSameEngine:
    def test_parallel_compiles_one_store_entry(self, tmp_path):
        engine = Engine(store_dir=str(tmp_path / "store"))
        programs = [None] * 8
        errors = []

        def work(slot):
            try:
                programs[slot] = engine.compile(P1_SEQUENTIAL, transform="flatten")
            except Exception as exc:  # noqa: BLE001 - the assertion
                errors.append(repr(exc))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        assert len(engine.store) == 1
        shas = {p.source_sha for p in programs}
        assert len(shas) == 1
        # Cache insertion raced, but every thread got a working program.
        for program in programs:
            assert program.run({"n": 4}, config=BackendConfig(nproc=4)).backend == "vm"
