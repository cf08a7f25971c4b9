"""The oracle's static cross-check legs: bytecode verification of every
compiled leg and the lint ↔ runtime checker-gap correlation."""

from types import SimpleNamespace

import pytest

from repro.fuzz.generator import ProgramGenerator
from repro.fuzz.oracle import DifferentialOracle, ProgramVerdict
from repro.lang import parse_source
from repro.transform.pipeline import structurize_program
from repro.vm import CodeObject, Instr, Op, compile_program

RACE = """PROGRAM race
  INTEGER a(10), t
  t = [1 : 4]
  WHERE (t .GT. 2)
    a(1) = t
  ENDWHERE
END
"""

CLEAN = """PROGRAM clean
  INTEGER i, a(8)
  DO i = 1, 8
    a(i) = i * 2
  ENDDO
END
"""


def fake_prog(source):
    return SimpleNamespace(source=source)


def gaps(verdict):
    return [d for d in verdict.divergences if d.kind == "checker-gap"]


class TestLintCrossCheck:
    def test_fault_on_lint_clean_program_is_a_gap(self):
        oracle = DifferentialOracle(nproc=4)
        verdict = ProgramVerdict(program=None)
        verdict.runtime_faults.append(("none/simd", "DivergenceFault"))
        oracle._lint_cross_check(fake_prog(CLEAN), verdict)
        [gap] = gaps(verdict)
        assert gap.config == "lint/runtime"
        assert "DivergenceFault" in gap.detail

    def test_lint_errors_without_faults_is_a_gap(self):
        oracle = DifferentialOracle(nproc=4)
        verdict = ProgramVerdict(program=None)
        oracle._lint_cross_check(fake_prog(RACE), verdict)
        [gap] = gaps(verdict)
        assert "R001" in gap.detail

    def test_consistent_fault_and_lint_error_is_not_a_gap(self):
        # Lint flags R001 *and* a leg faulted: static and dynamic agree.
        oracle = DifferentialOracle(nproc=4)
        verdict = ProgramVerdict(program=None)
        verdict.runtime_faults.append(("none/simd", "DivergenceFault"))
        oracle._lint_cross_check(fake_prog(RACE), verdict)
        assert gaps(verdict) == []

    def test_clean_program_clean_run_is_quiet(self):
        oracle = DifferentialOracle(nproc=4)
        verdict = ProgramVerdict(program=None)
        oracle._lint_cross_check(fake_prog(CLEAN), verdict)
        assert gaps(verdict) == []


class TestVerifierLeg:
    def test_campaign_verifies_every_leg(self):
        oracle = DifferentialOracle(nproc=4)
        generator = ProgramGenerator(seed=23)
        for index in range(10):
            verdict = oracle.check(generator.generate(index))
            assert not [
                d for d in verdict.divergences if d.kind == "verifier"
            ], verdict.divergences
        # The leg actually ran: distinct code objects were verified.
        assert oracle._verified

    def test_a_recycled_id_is_verified_again(self):
        # A code object freed after its compile left the engine cache
        # can hand its id to a different one; that one must not inherit
        # the first one's clean verdict.
        good = compile_program(structurize_program(parse_source(CLEAN)))
        broken = (Instr(Op.JUMP, 9999),) + good.instructions[1:]
        oracle = DifferentialOracle(nproc=4)
        verdict = ProgramVerdict(program=None)

        def verify(instructions):
            code = CodeObject(good.name, instructions, {})
            oracle._verify_bytecode(
                SimpleNamespace(bytecode=lambda: code), "leg", verdict
            )
            return id(code)

        for _ in range(100):
            stale = verify(good.instructions)
            code = CodeObject(good.name, broken, {})
            if id(code) == stale:
                break
        else:
            pytest.skip("the allocator never reused a freed code object's id")
        oracle._verify_bytecode(
            SimpleNamespace(bytecode=lambda: code), "leg", verdict
        )
        assert [d.kind for d in verdict.divergences] == ["verifier"]

    def test_generated_programs_stay_gap_free(self):
        oracle = DifferentialOracle(nproc=4)
        generator = ProgramGenerator(seed=5)
        for index in range(10):
            verdict = oracle.check(generator.generate(index))
            assert gaps(verdict) == [], verdict.divergences
