"""Engine wiring: diagnostics on compile artifacts, strict mode, and
the acceptance correlation — static findings match runtime behaviour."""

import pytest

from repro import BackendConfig
from repro.kernels import example as ex
from repro.lang.errors import CompileError
from repro.reliability.errors import DivergenceFault
from repro.runtime.engine import Engine

RACE = """PROGRAM race
  INTEGER a(10), t
  t = [1 : 4]
  WHERE (t .GT. 2)
    a(1) = t
  ENDWHERE
END
"""


@pytest.fixture()
def engine():
    return Engine(cache_size=32)


class TestDiagnosticsOnArtifacts:
    def test_report_attached_and_cached(self, engine):
        program = engine.compile(RACE)
        report = program.diagnostics()
        assert [d.code for d in report.errors] == ["R001"]
        # Same artifact (cache hit) reuses the same report object.
        again = engine.compile(RACE)
        assert again.cache_hit
        assert again.diagnostics() is report

    def test_diagnostics_include_verifier_pass(self, engine):
        program = engine.compile(ex.P1_SEQUENTIAL, transform="flatten", simd=True)
        assert program.bytecode() is not None
        report = program.diagnostics()
        assert not any(d.code.startswith("V") for d in report)

    def test_stage_timing_recorded(self, engine):
        program = engine.compile(RACE)
        program.diagnostics()
        assert "diagnostics" in program.stage_seconds


class TestStrictMode:
    def test_strict_compile_raises_with_diagnostics(self, engine):
        with pytest.raises(CompileError) as info:
            engine.compile(RACE, strict=True)
        assert "[R001]" in str(info.value)
        assert [d.code for d in info.value.diagnostics] == ["R001"]

    def test_strict_run_raises_before_execution(self, engine):
        with pytest.raises(CompileError):
            engine.run(RACE, {}, strict=True, config=BackendConfig(nproc=4))

    def test_strict_passes_on_warning_only_program(self, engine):
        program = engine.compile(ex.P1_SEQUENTIAL, strict=True)
        assert program.diagnostics().warnings  # W101/W103 ride along

    def test_strict_and_lax_share_the_cache(self, engine):
        lax = engine.compile(RACE)
        with pytest.raises(CompileError):
            engine.compile(RACE, strict=True)
        again = engine.compile(RACE)
        assert again.cache_hit and again is lax


class TestStaticRuntimeCorrelation:
    """The acceptance criteria: the linter's verdicts are confirmed by
    the runtime on the very same programs."""

    @pytest.mark.parametrize("backend", ["vm", "interpreter"])
    def test_r001_race_faults_at_the_flagged_line(self, engine, backend):
        [finding] = engine.compile(RACE).diagnostics().errors
        assert finding.code == "R001"
        with pytest.raises(DivergenceFault) as info:
            engine.run(RACE, {}, backend=backend, config=BackendConfig(nproc=4))
        assert info.value.location is not None
        assert info.value.location.line == finding.location.line

    def test_w101_blowup_confirmed_by_step_counts(self, engine):
        """W101 prices the Eq.2−Eq.1 gap; flattening must recover it."""
        report = engine.compile(ex.P1_SEQUENTIAL).diagnostics()
        assert any(d.code == "W101" for d in report)
        naive = engine.run(
            ex.P4_NAIVE_SIMD,
            ex.example_bindings(),
            config=BackendConfig(nproc=ex.EXAMPLE_P),
        )
        flat = engine.run(
            ex.P5_FLATTENED_SIMD,
            ex.example_bindings(),
            config=BackendConfig(nproc=ex.EXAMPLE_P),
        )
        # Lockstep body steps (the quickstart's metric): Eq. 2's sum of
        # maxima (12) vs Eq. 1's max of sums (8) on the paper's data.
        assert flat.counters.events["scatter"] < naive.counters.events["scatter"]

    def test_clean_kernel_runs_clean(self, engine):
        report = engine.compile(ex.P1_SEQUENTIAL).diagnostics()
        assert not report.has_errors
        result = engine.run(
            ex.P1_SEQUENTIAL, ex.example_bindings(), backend="scalar"
        )
        assert result.env["x"] is not None
