"""Fuzz legs for the process-parallel backend.

Tier-1 keeps a reduced campaign (forking workers per program is not
free); the ``chaos``-marked campaign runs the acceptance-scale 200
programs with worker kill/hang/slow injection at a 10% shard rate in
the CI chaos-smoke job.
"""

import pytest

from repro.fuzz import run_fuzz
from repro.fuzz.generator import ProgramGenerator
from repro.fuzz.oracle import DifferentialOracle
from repro.lang.errors import InterpreterError
from repro.runtime.engine import CompiledProgram


@pytest.mark.fuzz_smoke
def test_pmimd_leg_reduced_campaign():
    report = run_fuzz(seed=20260808, iterations=40, nproc=4, pmimd=True,
                      max_failures=5)
    assert report.checked == 40
    assert report.ok, report.summary()
    assert report.leg_stats.get("none/pmimd", 0) >= 38


@pytest.mark.chaos
def test_pmimd_campaign_200():
    """Acceptance-scale: 200 programs, pmimd vs mimd vs reference."""
    report = run_fuzz(seed=20260808, iterations=200, nproc=4, pmimd=True,
                      max_failures=5)
    assert report.checked == 200
    assert report.ok, report.summary()
    assert report.leg_stats.get("none/pmimd", 0) >= 195


@pytest.mark.chaos
def test_pmimd_chaos_campaign():
    """200 programs under seeded worker-fault injection (10% shards),
    with a pmimd->mimd fallback chain behind every run."""
    report = run_fuzz(seed=20260807, iterations=200, nproc=4,
                      pmimd_chaos=True, max_failures=5)
    assert report.checked == 200
    assert report.ok, report.summary()
    assert report.leg_stats.get("none/pmimd-chaos", 0) >= 195
    # durable-execution chaos: shard 0 killed mid-attempt between
    # checkpoint boundaries; the replay resumes from the per-processor
    # store and must stay observationally invisible
    assert report.leg_stats.get("none/pmimd-ckpt", 0) >= 195


def test_oracle_rejects_tiny_pools():
    with pytest.raises(ValueError, match="nproc"):
        DifferentialOracle(nproc=1)


def check_with_failing_backend(monkeypatch, backend, error):
    """One pmimd-enabled check in which every ``backend`` run raises."""
    real = CompiledProgram.run

    def run(self, *args, **kwargs):
        if kwargs.get("backend") == backend:
            raise error
        return real(self, *args, **kwargs)

    monkeypatch.setattr(CompiledProgram, "run", run)
    oracle = DifferentialOracle(nproc=4, pmimd=True)
    return oracle.check(ProgramGenerator(seed=20260808).generate(0))


def test_unwrapped_pmimd_crash_is_a_leg_fault(monkeypatch):
    verdict = check_with_failing_backend(
        monkeypatch, "pmimd", RuntimeError("pool exploded")
    )
    [fault] = [d for d in verdict.divergences if d.config == "none/pmimd"]
    assert fault.kind == "fault"
    assert fault.detail.startswith("unwrapped exception escaped the backend")


def test_failed_mimd_twin_skips_the_pmimd_leg(monkeypatch):
    verdict = check_with_failing_backend(
        monkeypatch, "mimd", InterpreterError("simulator down")
    )
    assert [d.config for d in verdict.divergences] == ["none/mimd"]
    [leg] = [leg for leg in verdict.legs if leg.label == "none/pmimd"]
    assert leg.status == "skipped"
    assert "simulator down" in leg.detail
