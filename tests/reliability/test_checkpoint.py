"""Durable execution: restorable checkpoints and the crash-safe store.

Three layers of contract:

* :class:`TestStore` — the on-disk ``CheckpointStore``: atomic
  publishes, digest verification *before* unpickling, the generation
  fallback ladder (corrupt newest → previous → ``None``/clean rerun).
  CI's chaos-smoke job runs the corruption subset as a named step.
* :class:`TestExactResume` — interrupt a run mid-flight, resume from
  the last capture, demand bit-identical envs and counters versus the
  uninterrupted run, on both checkpointing backends (vm, scalar).
* :class:`TestRefusals` — every way a checkpoint can be replayed into
  the *wrong* machine (other backend, other program, other PE width,
  other fuse mode, a fallback chain) must raise, never silently skew.
"""

import os
import pickle

import numpy as np
import pytest

from repro.lang.errors import InterpreterError
from repro.reliability import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    CheckpointStore,
)
from repro.reliability.budget import Budget
from repro.reliability.errors import BudgetExceeded
from repro.runtime import BackendConfig, Engine, FallbackPolicy

SOURCE = """PROGRAM ckpt
  INTEGER i, n
  REAL s, x(64)
  s = 0.0
  DO i = 1, n
    x(i) = i * 1.5
    s = s + x(i)
  ENDDO
END
"""

OTHER_SOURCE = """PROGRAM other
  INTEGER i
  REAL y(8)
  DO i = 1, 8
    y(i) = i * 2.0
  ENDDO
END
"""

NPROC = 4
BINDINGS = {"n": 48}


@pytest.fixture(scope="module")
def engine():
    return Engine()


@pytest.fixture(scope="module")
def program(engine):
    return engine.compile(SOURCE)


def make_checkpoint(step=10, backend="scalar", **overrides):
    fields = dict(
        backend=backend,
        step=step,
        pc=3,
        env={"a": 1, "x": np.arange(4.0)},
        counters={},
        nproc=1,
    )
    fields.update(overrides)
    return Checkpoint(**fields)


def assert_env_equal(env, ref_env):
    """Exact env equality on the program's outputs (vm and scalar
    lockstep runs both yield one env dict; values may be per-PE)."""
    for name in ("s", "x"):
        value = env[name]
        ref = ref_env[name]
        value = np.asarray(getattr(value, "data", value))
        ref = np.asarray(getattr(ref, "data", ref))
        assert np.array_equal(value, ref), name


def assert_counters_equal(a, b):
    """Exact ExecutionCounters equality through state_dict."""
    sa, sb = a.state_dict(), b.state_dict()
    assert sa.keys() == sb.keys()
    for key in sa:
        va, vb = sa[key], sb[key]
        if isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
            assert np.array_equal(va, vb), key
        elif isinstance(va, dict):
            assert va == vb, key
        else:
            assert va == vb, key


class TestStore:
    def test_roundtrip(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("run", make_checkpoint(step=7))
        loaded = store.load_latest("run")
        assert loaded.step == 7
        assert loaded.backend == "scalar"
        assert loaded.env["a"] == 1
        assert np.array_equal(loaded.env["x"], np.arange(4.0))

    def test_publish_is_atomic_no_temp_left(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("run", make_checkpoint())
        names = os.listdir(tmp_path / "run")
        assert names == ["gen-1.ckpt"]

    def test_keep_prunes_old_generations(self, tmp_path):
        store = CheckpointStore(str(tmp_path), keep=2)
        for step in (1, 2, 3, 4):
            store.save("run", make_checkpoint(step=step))
        assert sorted(os.listdir(tmp_path / "run")) == [
            "gen-3.ckpt",
            "gen-4.ckpt",
        ]
        assert store.latest_generation("run") == 4
        assert store.load_latest("run").step == 4

    def test_truncated_newest_falls_back_a_generation(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("run", make_checkpoint(step=5))
        newest = store.save("run", make_checkpoint(step=9))
        blob = open(newest, "rb").read()
        with open(newest, "wb") as handle:
            handle.write(blob[: len(blob) // 2])  # torn write
        with pytest.raises(CheckpointError, match="truncated"):
            store.load_file(newest)
        assert store.load_latest("run").step == 5

    def test_bitflip_detected_by_digest(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("run", make_checkpoint(step=5))
        newest = store.save("run", make_checkpoint(step=9))
        blob = bytearray(open(newest, "rb").read())
        blob[-10] ^= 0xFF  # flip one payload byte; length unchanged
        with open(newest, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(CheckpointError, match="digest mismatch"):
            store.load_file(newest)
        assert store.load_latest("run").step == 5

    def test_hostile_payload_never_reaches_the_unpickler(self, tmp_path):
        """A swapped payload fails the digest check before pickle.loads
        ever runs — the store does not execute attacker bytes."""
        fired = []

        class Boom:
            def __reduce__(self):
                return (fired.append, ("unpickled",))

        store = CheckpointStore(str(tmp_path))
        path = store.save("run", make_checkpoint())
        blob = open(path, "rb").read()
        header, _, _ = blob.partition(b"\n")
        hostile = pickle.dumps(Boom())
        # Forge the length so only the digest stands between the
        # hostile bytes and the unpickler.
        import json

        doc = json.loads(header)
        doc["payload_bytes"] = len(hostile)
        with open(path, "wb") as handle:
            handle.write(json.dumps(doc).encode() + b"\n" + hostile)
        with pytest.raises(CheckpointError, match="digest mismatch"):
            store.load_file(path)
        assert fired == []
        assert store.load_latest("run") is None

    def test_forward_version_rejected(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        path = store.save(
            "run", make_checkpoint(version=CHECKPOINT_VERSION + 1)
        )
        with pytest.raises(CheckpointError, match="forward version"):
            store.load_file(path)
        assert store.load_latest("run") is None

    def test_non_checkpoint_payload_rejected(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        path = store.save("run", make_checkpoint())
        payload = pickle.dumps({"not": "a checkpoint"})
        import hashlib
        import json

        header = json.dumps(
            {
                "format": "repro.checkpoint/v1",
                "key": "run",
                "generation": 1,
                "step": 0,
                "backend": "scalar",
                "sha256": hashlib.sha256(payload).hexdigest(),
                "payload_bytes": len(payload),
            }
        ).encode()
        with open(path, "wb") as handle:
            handle.write(header + b"\n" + payload)
        with pytest.raises(CheckpointError, match="not a Checkpoint"):
            store.load_file(path)

    def test_alien_junk_file_skipped(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        os.makedirs(tmp_path / "run")
        (tmp_path / "run" / "gen-1.ckpt").write_bytes(b"junk, no header")
        assert store.load_latest("run") is None

    def test_all_generations_corrupt_means_clean_rerun(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        for step in (1, 2):
            path = store.save("run", make_checkpoint(step=step))
            (tmp_path / "run" / os.path.basename(path)).write_bytes(b"x")
        assert store.load_latest("run") is None

    def test_missing_key_is_none(self, tmp_path):
        assert CheckpointStore(str(tmp_path)).load_latest("nothing") is None

    def test_clear_and_keys(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("proc-1", make_checkpoint())
        store.save("proc-2", make_checkpoint())
        assert store.keys() == ["proc-1", "proc-2"]
        store.clear("proc-1")
        store.clear("proc-1")  # idempotent
        assert store.keys() == ["proc-2"]

    def test_detach_is_a_deep_copy(self):
        env = {"x": np.zeros(4)}
        ckpt = Checkpoint(
            backend="scalar", step=1, pc=0, env=env
        ).detach()
        env["x"][0] = 99.0
        assert ckpt.env["x"][0] == 0.0


def interrupted_then_resumed(program, backend, cut, every=7):
    """Run to ``cut`` steps with capture on, then resume to the end."""
    nproc = NPROC if backend == "vm" else 0
    captured = []
    with pytest.raises(BudgetExceeded):
        program.run(
            dict(BINDINGS),
            backend=backend,
            checkpoint_sink=captured.append,
            config=BackendConfig(
                nproc=nproc, budget=Budget(max_steps=cut), checkpoint_every=every
            ),
        )
    assert captured, "no checkpoint captured before the interrupt"
    return captured, program.run(
        dict(BINDINGS),
        backend="auto",
        resume_from=captured[-1],
        config=BackendConfig(nproc=nproc),
    )


class TestExactResume:
    @pytest.fixture(scope="class")
    def references(self, program):
        return {
            "vm": program.run(
                dict(BINDINGS), backend="vm", config=BackendConfig(nproc=NPROC)
            ),
            "scalar": program.run(dict(BINDINGS), backend="scalar"),
        }

    @pytest.mark.parametrize("backend", ["vm", "scalar"])
    def test_resume_is_bit_identical(self, program, references, backend):
        ref = references[backend]
        # The budget meters executed statements/instructions — the same
        # unit checkpoint steps use — so halve that, not total_steps.
        captured, resumed = interrupted_then_resumed(
            program, backend, cut=int(ref.statements) // 2
        )
        assert resumed.backend == backend
        assert resumed.resumed_from_step == captured[-1].step
        assert_env_equal(resumed.env, ref.env)
        assert_counters_equal(resumed.counters, ref.counters)

    @pytest.mark.parametrize("backend", ["vm", "scalar"])
    def test_resume_cadence_is_transparent(self, program, backend):
        """A resumed run re-arms capture at the *same* step boundaries,
        so it emits the same later checkpoints an uninterrupted
        capturing run would."""
        nproc = NPROC if backend == "vm" else 0
        full = []
        program.run(
            dict(BINDINGS),
            backend=backend,
            checkpoint_sink=full.append,
            config=BackendConfig(nproc=nproc, checkpoint_every=11),
        )
        full_steps = [c.step for c in full]
        assert full_steps, "program too short to capture"
        tail = []
        program.run(
            dict(BINDINGS),
            backend="auto",
            resume_from=full[0],
            checkpoint_sink=tail.append,
            config=BackendConfig(nproc=nproc, checkpoint_every=11),
        )
        assert [c.step for c in tail] == full_steps[1:]

    def test_vm_capture_respects_fused_slack(self, program):
        """Captures land on or after their boundary, trailing by less
        than one fused block (≤ 31 steps)."""
        every = 13
        captured = []
        program.run(
            dict(BINDINGS),
            backend="vm",
            checkpoint_sink=captured.append,
            config=BackendConfig(nproc=NPROC, checkpoint_every=every),
        )
        due = every
        for ckpt in captured:
            assert due <= ckpt.step < due + 32
            due = (ckpt.step // every + 1) * every

    def test_vm_resume_takes_width_from_checkpoint(self, program):
        """A config without ``nproc`` resumes at the captured width."""
        ref = program.run(
            dict(BINDINGS), backend="vm", config=BackendConfig(nproc=NPROC)
        )
        captured = []
        program.run(
            dict(BINDINGS),
            backend="vm",
            checkpoint_sink=captured.append,
            config=BackendConfig(nproc=NPROC, checkpoint_every=7),
        )
        resumed = program.run(dict(BINDINGS), resume_from=captured[0])
        assert resumed.backend == "vm" and resumed.nproc == NPROC
        assert_env_equal(resumed.env, ref.env)
        assert_counters_equal(resumed.counters, ref.counters)

    def test_store_plumbing_end_to_end(self, program, tmp_path):
        """checkpoint_dir wiring: interrupted run persists generations
        under key "run"; a later process resumes exactly."""
        ref = program.run(
            dict(BINDINGS), backend="vm", config=BackendConfig(nproc=NPROC)
        )
        with pytest.raises(BudgetExceeded):
            program.run(
                dict(BINDINGS),
                backend="vm",
                config=BackendConfig(
                    nproc=NPROC,
                    budget=Budget(max_steps=int(ref.statements) // 2),
                    checkpoint_every=9,
                    checkpoint_dir=str(tmp_path),
                ),
            )
        store = CheckpointStore(str(tmp_path))
        assert store.keys() == ["run"]
        ckpt = store.load_latest("run")
        assert ckpt.meta["source_sha"] == program.source_sha
        resumed = program.run(
            dict(BINDINGS), resume_from=ckpt, config=BackendConfig(nproc=NPROC)
        )
        assert_env_equal(resumed.env, ref.env)
        assert_counters_equal(resumed.counters, ref.counters)

    def test_corrupted_store_resume_falls_back_a_generation(
        self, program, tmp_path
    ):
        """The acceptance scenario: newest generation corrupted on disk
        → resume continues from the previous one and still lands on the
        exact answer (never a wrong one)."""
        ref = program.run(
            dict(BINDINGS), backend="vm", config=BackendConfig(nproc=NPROC)
        )
        with pytest.raises(BudgetExceeded):
            program.run(
                dict(BINDINGS),
                backend="vm",
                config=BackendConfig(
                    nproc=NPROC,
                    budget=Budget(max_steps=int(ref.statements) // 2),
                    checkpoint_every=5,
                    checkpoint_dir=str(tmp_path),
                ),
            )
        directory = tmp_path / "run"
        gens = sorted(os.listdir(directory))
        assert len(gens) == 2  # keep=2 ladder in place
        blob = bytearray((directory / gens[-1]).read_bytes())
        blob[-1] ^= 0x01
        (directory / gens[-1]).write_bytes(bytes(blob))
        store = CheckpointStore(str(tmp_path))
        ckpt = store.load_latest("run")
        assert ckpt is not None  # the previous generation
        assert f"gen-{store.latest_generation('run')}.ckpt" == gens[-1]
        resumed = program.run(
            dict(BINDINGS), resume_from=ckpt, config=BackendConfig(nproc=NPROC)
        )
        assert_env_equal(resumed.env, ref.env)
        assert_counters_equal(resumed.counters, ref.counters)


class TestRefusals:
    @pytest.fixture(scope="class")
    def vm_checkpoint(self, program):
        captured = []
        program.run(
            dict(BINDINGS),
            backend="vm",
            checkpoint_sink=captured.append,
            config=BackendConfig(nproc=NPROC, checkpoint_every=7),
        )
        return captured[0]

    def test_other_backend_refused(self, program, vm_checkpoint):
        with pytest.raises(InterpreterError, match="backend"):
            program.run(
                dict(BINDINGS),
                backend="interpreter",
                resume_from=vm_checkpoint,
                config=BackendConfig(nproc=NPROC),
            )

    def test_other_program_refused(self, engine, program):
        captured = []
        program.run(
            dict(BINDINGS),
            backend="vm",
            checkpoint_sink=captured.append,
            config=BackendConfig(nproc=NPROC, checkpoint_every=7),
        )
        ckpt = captured[0]
        ckpt.meta["source_sha"] = program.source_sha
        other = engine.compile(OTHER_SOURCE)
        with pytest.raises(InterpreterError, match="SHA mismatch"):
            other.run({}, resume_from=ckpt, config=BackendConfig(nproc=NPROC))

    def test_other_width_refused(self, program, vm_checkpoint):
        with pytest.raises(InterpreterError, match="PEs"):
            program.run(
                dict(BINDINGS),
                resume_from=vm_checkpoint,
                config=BackendConfig(nproc=NPROC * 2),
            )

    def test_cross_fuse_resume_refused(self, program, vm_checkpoint):
        assert vm_checkpoint.meta["fuse"] is True
        with pytest.raises(InterpreterError, match="fuse"):
            program.run(
                dict(BINDINGS),
                resume_from=vm_checkpoint,
                config=BackendConfig(nproc=NPROC, vm_fuse=False),
            )

    def test_policy_chain_refused(self, program, vm_checkpoint):
        with pytest.raises(InterpreterError, match="FallbackPolicy"):
            program.run(
                dict(BINDINGS),
                resume_from=vm_checkpoint,
                policy=FallbackPolicy(chain=("vm", "interpreter")),
                config=BackendConfig(nproc=NPROC),
            )

    def test_lockstep_tree_walker_refused(self, program):
        with pytest.raises(InterpreterError, match="tree-walker"):
            program.run(
                dict(BINDINGS),
                backend="interpreter",
                checkpoint_sink=[].append,
                config=BackendConfig(nproc=NPROC, checkpoint_every=5),
            )

    def test_scalar_checkpoint_stays_on_scalar(self, program):
        captured = []
        program.run(
            dict(BINDINGS),
            backend="scalar",
            checkpoint_sink=captured.append,
            config=BackendConfig(checkpoint_every=7),
        )
        with pytest.raises(InterpreterError, match="scalar"):
            program.run(
                dict(BINDINGS),
                backend="vm",
                resume_from=captured[0],
                config=BackendConfig(nproc=NPROC),
            )
