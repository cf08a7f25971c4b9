"""Existing interpreter/VM error paths: classification, location, snapshot.

Each failure mode must (a) raise the right member of the taxonomy,
(b) point at the offending source line, and (c) carry a machine
snapshot usable as a crash dump.
"""

import numpy as np
import pytest

from repro import BackendConfig
from repro.lang.errors import InterpreterError
from repro.reliability import DivergenceFault, OutOfBoundsFault, crash_dump_for
from repro.runtime import Engine
from repro.vm.isa import CodeObject, Instr, Op
from repro.vm.machine import SIMDVirtualMachine

BOTH = pytest.mark.parametrize("backend", ["vm", "interpreter"])


@pytest.fixture()
def engine():
    return Engine()


ZERO_STRIDE = """
PROGRAM p
  INTEGER i, s
  DO i = 1, 4, s
    x = i
  ENDDO
END
"""

UNKNOWN_CALL = """
PROGRAM p
  x = 1
  CALL frob(x)
END
"""

DIVERGENT_IF = """
PROGRAM p
  v = [1 : 4]
  IF (v > 2) THEN
    x = 1
  ENDIF
END
"""

OOB_READ = """
PROGRAM p
  REAL a(8)
  i = 9
  x = a(i)
END
"""


class TestZeroStrideDo:
    @BOTH
    def test_raises_located_interpreter_error(self, engine, backend):
        with pytest.raises(InterpreterError, match="stride is zero") as excinfo:
            engine.run(
                ZERO_STRIDE, {"s": 0}, backend=backend, config=BackendConfig(nproc=2)
            )
        error = excinfo.value
        assert error.location.line == 4  # the DO statement
        assert error.snapshot is not None
        dump = crash_dump_for(error)
        assert dump["error"] == "InterpreterError"
        assert ":4:" in dump["location"]


class TestUnknownExternalCall:
    @BOTH
    def test_raises_located_error(self, engine, backend):
        with pytest.raises(InterpreterError, match="unknown") as excinfo:
            engine.run(UNKNOWN_CALL, backend=backend, config=BackendConfig(nproc=2))
        assert excinfo.value.location.line == 4
        assert excinfo.value.snapshot is not None


class TestDivergentControlFlow:
    @BOTH
    def test_divergent_if_is_a_divergence_fault(self, engine, backend):
        with pytest.raises(DivergenceFault, match="diverges") as excinfo:
            engine.run(DIVERGENT_IF, backend=backend, config=BackendConfig(nproc=4))
        assert excinfo.value.location.line == 4
        assert excinfo.value.retryable is False

    def test_no_active_pes_reduction(self):
        vm = SIMDVirtualMachine(4)
        vm._mask = np.zeros(4, dtype=bool)
        with pytest.raises(InterpreterError, match="no active PEs"):
            vm._uniform_int(np.arange(4), "limit")


class TestSubscriptBounds:
    @BOTH
    def test_oob_read_is_classified_and_located(self, engine, backend):
        with pytest.raises(OutOfBoundsFault, match="out of bounds") as excinfo:
            engine.run(OOB_READ, backend=backend, config=BackendConfig(nproc=2))
        error = excinfo.value
        assert error.location.line == 5
        assert error.snapshot is not None
        assert "extent 8" in str(error)

    def test_scalar_backend_locates_too(self, engine):
        with pytest.raises(OutOfBoundsFault) as excinfo:
            engine.run(OOB_READ, backend="scalar")
        assert excinfo.value.location.line == 5


class TestBareMaskOpcodes:
    """Hand-built bytecode hitting the VM's mask-stack guards."""

    def _run(self, *instrs):
        code = CodeObject("p", tuple(instrs) + (Instr(Op.HALT),))
        SIMDVirtualMachine(2).run(code)

    def test_else_mask_with_empty_stack(self):
        with pytest.raises(InterpreterError, match="ELSE_MASK with empty"):
            self._run(Instr(Op.ELSE_MASK))

    def test_pop_mask_with_empty_stack(self):
        with pytest.raises(InterpreterError, match="POP_MASK with empty"):
            self._run(Instr(Op.POP_MASK))

    def test_guard_errors_carry_snapshot(self):
        with pytest.raises(InterpreterError) as excinfo:
            self._run(Instr(Op.POP_MASK))
        snap = excinfo.value.snapshot
        assert snap is not None and snap.backend == "vm"
        assert snap.pc == 0
