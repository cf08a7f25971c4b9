"""``Engine.run(verify=True)`` — the one-call differential check.

This is the same vm-vs-interpreter agreement oracle the fuzzer's
``none/simd`` leg uses, exposed as a run flag: the primary backend's
answer is only returned after the *other* lockstep backend reproduces
it bit-for-bit (env and counters both).
"""

import numpy as np
import pytest

from repro import BackendConfig
from repro.lang import parse_source
from repro.lang.errors import InterpreterError
from repro.reliability import BackendFault
from repro.runtime import Engine
from repro.runtime.engine import CompiledProgram

PROGRAM = """
PROGRAM p
  INTEGER y(4)
  v = [1 : 4]
  WHERE (v > 2) y(1) = 9 + v - v
END
"""


@pytest.fixture
def engine():
    return Engine(cache_size=8)


def _run(engine, **kwargs):
    return engine.run(
        parse_source(PROGRAM),
        {"y": np.zeros(4, dtype=np.int64)},
        config=BackendConfig(nproc=4),
        **kwargs,
    )


class TestVerifyFlag:
    def test_both_lockstep_backends_run_and_agree(self, engine):
        result = _run(engine, backend="vm", verify=True)
        assert result.backend == "vm"
        assert [(a.backend, a.ok) for a in result.attempts] == [
            ("vm", True),
            ("interpreter", True),
        ]
        assert result.env["y"].data.tolist() == [9, 0, 0, 0]

    def test_primary_backend_choice_is_respected(self, engine):
        result = _run(engine, backend="interpreter", verify=True)
        assert result.backend == "interpreter"
        assert {a.backend for a in result.attempts} == {"vm", "interpreter"}

    @pytest.mark.parametrize("backend", ["scalar", "mimd"])
    def test_non_lockstep_backends_rejected(self, engine, backend):
        with pytest.raises(InterpreterError, match="lockstep"):
            _run(engine, backend=backend, verify=True)

    def test_nproc_zero_rejected(self, engine):
        with pytest.raises(InterpreterError, match="nproc >= 1"):
            engine.run(
                parse_source(PROGRAM), {}, verify=True, config=BackendConfig(nproc=0)
            )

    def test_disagreement_raises_backend_fault(self, engine, monkeypatch):
        # corrupt the cross-check run so the two backends genuinely
        # disagree, and assert the oracle refuses the answer
        original = CompiledProgram._execute

        def corrupting(self, chosen, **kwargs):
            env, counters, statements, events = original(self, chosen, **kwargs)
            if chosen == "interpreter":
                env["y"].data[0] += 1
            return env, counters, statements, events

        monkeypatch.setattr(CompiledProgram, "_execute", corrupting)
        with pytest.raises(BackendFault, match="disagree"):
            _run(engine, backend="vm", verify=True)
