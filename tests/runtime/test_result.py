"""RunResult: the unified return shape of every backend."""

import pytest

from repro import BackendConfig
from repro.exec import MIMDSimulator
from repro.exec.counters import ExecutionCounters
from repro.kernels.example import (
    EXAMPLE_P,
    P3_MIMD,
    P5_FLATTENED_SIMD,
    example_bindings,
    mimd_bindings,
    parse_source,
)
from repro.runtime import Engine, RunResult


@pytest.fixture()
def engine():
    return Engine()


class TestTupleProtocol:
    def test_unpacks_like_the_legacy_pair(self, engine):
        result = engine.compile(P5_FLATTENED_SIMD).run(
            example_bindings(), config=BackendConfig(nproc=2)
        )
        env, counters = result
        assert env is result.env
        assert counters is result.counters
        assert isinstance(counters, ExecutionCounters)

    def test_len_and_indexing(self, engine):
        result = engine.compile(P5_FLATTENED_SIMD).run(
            example_bindings(), config=BackendConfig(nproc=2)
        )
        assert len(result) == 2
        assert result[0] is result.env
        assert result[1] is result.counters

    def test_single_backend_aggregates(self, engine):
        result = engine.compile(P5_FLATTENED_SIMD).run(
            example_bindings(), config=BackendConfig(nproc=2)
        )
        assert result.envs == [result.env]
        assert result.time_steps() == result.counters.total_steps
        assert result.time_steps("acu") == result.counters.layer_steps["acu"]


class TestMIMDParity:
    def test_matches_mimd_result_queries(self, engine):
        result = engine.compile(P3_MIMD).run(
            backend="mimd",
            bindings_for=mimd_bindings,
            config=BackendConfig(nproc=EXAMPLE_P),
        )
        reference = MIMDSimulator(parse_source(P3_MIMD), EXAMPLE_P).run(
            bindings_for=mimd_bindings
        )
        assert result.backend == "mimd"
        assert len(result.envs) == EXAMPLE_P
        assert result.time_steps() == reference.time_steps()
        assert result.time_steps("store") == reference.time_steps("store")
        assert result.call_counts("force") == reference.call_counts("force")
        assert result.time_calls("force") == reference.time_calls("force")

    def test_mimd_env_unpacking_gives_lists(self, engine):
        envs, counters = engine.compile(P3_MIMD).run(
            backend="mimd",
            bindings_for=mimd_bindings,
            config=BackendConfig(nproc=EXAMPLE_P),
        )
        assert isinstance(envs, list) and len(envs) == EXAMPLE_P
        assert isinstance(counters, list) and len(counters) == EXAMPLE_P


class TestProvenance:
    def test_cache_provenance_flows_into_results(self, engine):
        cold = engine.compile(P5_FLATTENED_SIMD).run(
            example_bindings(), config=BackendConfig(nproc=2)
        )
        warm = engine.compile(P5_FLATTENED_SIMD).run(
            example_bindings(), config=BackendConfig(nproc=2)
        )
        assert not cold.cache_hit
        assert warm.cache_hit

    def test_fields_are_self_describing(self, engine):
        result = engine.compile(P5_FLATTENED_SIMD).run(
            example_bindings(), config=BackendConfig(nproc=2)
        )
        assert isinstance(result, RunResult)
        assert result.nproc == 2
        assert result.statements > 0
        assert result.wall_seconds >= 0
        assert {"parse", "transform"} <= set(result.stage_seconds)
