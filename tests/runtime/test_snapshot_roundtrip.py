"""Crash-dump serialization round-trips across process boundaries.

The pmimd worker serializes failures with ``crash_dump_for`` and the
supervisor rebuilds them with ``snapshot_from_dump``/``error_from_dump``
on the parent side.  These tests pin the fidelity of that round trip —
mask stack, environment slice, opcode trace, source location — through
JSON, through pickle, and through a real fork + pipe.
"""

import json
import multiprocessing
import pickle

import pytest

from repro import BackendConfig
from repro.reliability import Budget, crash_dump_for
from repro.reliability.errors import BudgetExceeded
from repro.reliability.supervisor import error_from_dump, snapshot_from_dump
from repro.runtime import Engine

SPIN = (
    "PROGRAM spin\n"
    "  k = 0\n"
    "  DO WHILE (1 .LT. 2)\n"
    "    k = k + 1\n"
    "  ENDDO\n"
    "END\n"
)


@pytest.fixture(scope="module")
def dump():
    """A real crash dump from a budget-killed VM run."""
    try:
        Engine().run(
            SPIN,
            backend="vm",
            config=BackendConfig(nproc=4, budget=Budget(max_steps=200)),
        )
    except BudgetExceeded as error:
        return crash_dump_for(error)
    raise AssertionError("spin program should have blown the budget")


def _snapshot_fields(snap):
    return (
        snap.backend,
        snap.pc,
        snap.steps,
        snap.mask,
        snap.mask_stack,
        snap.last_ops,
        sorted(snap.env),
    )


class TestJSONRoundTrip:
    def test_dump_is_json_clean(self, dump):
        assert json.loads(json.dumps(dump)) == dump

    def test_snapshot_survives_json(self, dump):
        revived = snapshot_from_dump(json.loads(json.dumps(dump)))
        original = snapshot_from_dump(dump)
        assert _snapshot_fields(revived) == _snapshot_fields(original)

    def test_machine_state_is_populated(self, dump):
        snap = snapshot_from_dump(dump)
        assert snap.backend == "vm"
        assert snap.steps > 200  # stopped right past the limit
        assert snap.last_ops  # opcode trace present
        assert snap.env  # per-PE environment slice present

    def test_to_dict_reidentifies(self, dump):
        """snapshot -> to_dict -> snapshot is a fixed point."""
        snap = snapshot_from_dump(dump)
        again = snapshot_from_dump(snap.to_dict())
        assert _snapshot_fields(again) == _snapshot_fields(snap)


class TestPickleRoundTrip:
    def test_dump_pickles(self, dump):
        assert pickle.loads(pickle.dumps(dump)) == dump

    def test_error_reconstruction_after_pickle(self, dump):
        error = error_from_dump(pickle.loads(pickle.dumps(dump)))
        assert type(error) is BudgetExceeded
        assert error.retryable is False
        assert error.snapshot is not None
        assert error.snapshot.steps > 200


class TestForkBoundary:
    def test_dump_crosses_a_real_pipe(self, dump):
        """Serialize in a forked child, reconstruct in the parent —
        the exact path a pmimd worker failure takes."""
        ctx = multiprocessing.get_context("fork")
        parent, child = ctx.Pipe()

        def worker(conn):
            try:
                Engine().run(
                    SPIN,
                    backend="vm",
                    config=BackendConfig(nproc=4, budget=Budget(max_steps=200)),
                )
            except BudgetExceeded as error:
                conn.send(crash_dump_for(error))
            conn.close()

        process = ctx.Process(target=worker, args=(child,), daemon=True)
        process.start()
        child.close()
        remote_dump = parent.recv()
        process.join(timeout=10)

        error = error_from_dump(remote_dump)
        assert type(error) is BudgetExceeded
        assert error.retryable is False
        local = snapshot_from_dump(dump)
        remote = error.snapshot
        assert _snapshot_fields(remote) == _snapshot_fields(local)

    def test_location_survives_the_boundary(self, dump):
        snap = snapshot_from_dump(dump)
        if snap.location is None:
            pytest.skip("this dump carries no source location")
        revived = snapshot_from_dump(json.loads(json.dumps(dump)))
        assert revived.location.line == snap.location.line
        assert revived.location.column == snap.location.column
