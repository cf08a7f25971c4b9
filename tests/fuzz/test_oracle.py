"""Differential-oracle behaviour on a clean tree.

The mutation tests (planted transform/checker bugs) live in
``test_mutation.py``; here we pin down that the oracle (a) passes a
clean pipeline, (b) runs the legs it promises, and (c) skips
variants whose preconditions the data genuinely violates instead of
asserting ``assume_min_trips`` falsely.
"""

from pathlib import Path

import pytest

from repro.fuzz.generator import ProgramGenerator
from repro.fuzz.oracle import LEGS, DifferentialOracle


@pytest.fixture(scope="module")
def oracle():
    return DifferentialOracle(nproc=4)


@pytest.fixture(scope="module")
def verdicts(oracle):
    gen = ProgramGenerator(seed=99)
    return [oracle.check(p) for p in gen.programs(40)]


class TestCleanTree:
    def test_no_divergences(self, verdicts):
        bad = [d for v in verdicts for d in v.divergences]
        assert not bad, [(d.kind, d.config, d.detail) for d in bad]

    def test_always_legal_legs_always_run(self, verdicts):
        for verdict in verdicts:
            ran = {leg.label for leg in verdict.legs if leg.status == "ok"}
            assert {
                "none/simd",
                "none/mimd",
                "flatten/general/f77",
                "flatten/general/simd",
                "flatten/auto/simd",
            } <= ran

    def test_partitioned_legs_gated_on_legality(self, verdicts):
        for verdict in verdicts:
            ran = {leg.label for leg in verdict.legs if leg.status == "ok"}
            if "spmd/general/block" in ran:
                assert verdict.program.partitionable

    def test_zero_trip_data_skips_false_assertions(self, verdicts):
        skipped_somewhere = False
        for verdict in verdicts:
            for leg in verdict.legs:
                if (
                    leg.label.startswith("flatten/optimized")
                    and leg.status == "skipped"
                ):
                    skipped_somewhere = True
                    assert not verdict.program.min_trips_ok
        assert skipped_somewhere

    def test_check_leg_returns_none_on_clean_program(self, oracle):
        prog = ProgramGenerator(seed=99).generate(0)
        assert oracle.check_leg(prog, "flatten/general/simd") is None


class TestOracleGuards:
    def test_rejects_single_lane(self):
        with pytest.raises(ValueError):
            DifferentialOracle(nproc=1)


class TestLegTable:
    def test_every_leg_is_in_the_design_table(self):
        design = (Path(__file__).parents[2] / "DESIGN.md").read_text()
        section = design[design.index("## 8. ") : design.index("## 9. ")]
        for leg in LEGS:
            assert f"| `{leg.label}` |" in section, leg.label

    def test_every_row_names_known_parts(self):
        # The pmimd-chaos rows only run in the chaos tier: check here
        # that every row's run protocol, gate and twin resolve.
        oracle = DifferentialOracle(nproc=4)
        assert len({leg.label for leg in LEGS}) == len(LEGS)
        for leg in LEGS:
            assert callable(getattr(oracle, "_run_" + leg.run.replace("-", "_")))
            assert leg.gate in (
                "always", "pmimd", "pmimd_chaos", "partitioned", "min_trips"
            )
            assert leg.twin in (None, "mimd", "vm", "scalar", "vm-unfused")
            assert (leg.post is not None) == (leg.run == "hooked")
