"""The differential oracle: all legal variants must agree.

For each generated program the oracle runs a matrix of
transform x backend legs and compares every leg's observable final
state against the sequential reference:

====================  ===========================  ====================
leg                   backends                     legality
====================  ===========================  ====================
none                  scalar (reference)           always
none                  vm + interpreter (lockstep)  always
none                  fused vm + unfused vm        always
none                  mimd (P private procs)       always
none                  vm / scalar interrupted at   always
                      a random step + resumed
                      from checkpoint
none                  pmimd killed between         ``pmimd_chaos``
                      checkpoints + replayed
flatten general       scalar (F77 form)            always
flatten general       vm + interpreter             always
flatten optimized     vm + interpreter             checker accepts, or
                                                   condition 2 holds on
                                                   the data
flatten done          vm + interpreter             same as optimized +
                                                   derivable done test
flatten auto          vm + interpreter             always (falls back)
flatten auto          fused vm + unfused vm        always
coalesce              scalar                       rectangular nests
fission               scalar (F77 form)            dependence SCCs split
fission               vm + interpreter             dependence SCCs split
interchange           scalar (F77 form)            perfect rectangular
                                                   2-nest, no ``(<, >)``
                                                   direction vector
interchange           vm + interpreter             same
simdize (Sec. 3)      vm + interpreter             partitionable outer
spmd (Fig. 15)        vm + interpreter             partitionable outer
====================  ===========================  ====================

Lockstep legs run with ``verify=True``, so the VM and the tree-walking
interpreter are *also* checked against each other on env and exact
operation counters (:func:`repro.reliability.check_agreement` — the
same code path ``Engine.run(verify=True)`` uses).  The ``vm-fuse``
legs additionally pass the *fused* CodeObject through the bytecode
verifier and demand that fused and unfused VM dispatch agree on env,
step totals, and event breakdowns — superinstruction fusion and its
batched accounting must be observationally invisible.

The applicability analysis (:mod:`repro.analysis.applicability`) is
consulted for every variant/assumption combination and must agree with
what the transform actually accepts: a variant the report promises but
the transform rejects (or vice versa) is a **checker gap**, as is a
program the checker accepts without assumptions that then computes the
wrong answer.  A divergence under a *violated* ``assume_min_trips``
assertion is the caller's fault and is never compared.

Two static checkers are cross-checked against the runtime as well.
Every leg's :class:`~repro.vm.isa.CodeObject` passes through the
bytecode verifier (:mod:`repro.vm.verify`) before it runs — a finding
on compiler-emitted code is a ``verifier`` divergence.  And the lint
engine (:mod:`repro.diag`) is correlated with observed behaviour in
both directions: a runtime :class:`DivergenceFault` /
:class:`OutOfBoundsFault` on a lint-clean program, or lint *errors* on
a program every leg runs clean, are ``checker-gap`` divergences.

Verdict kinds: ``env-divergence`` (legal leg disagrees with the
reference), ``backend-disagreement`` (vm vs interpreter),
``fault`` (a legal leg crashed), ``checker-gap``, ``verifier``
(compiler-emitted bytecode failed verification), ``invariant``
(translation validation failed: flag monotonicity, Eq. 1 per-lane
work, total-work conservation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis import evaluate_flattening
from ..diag import lint_source
from ..lang import ast
from ..lang.errors import MiniFError, TransformError
from ..lang.parser import parse_source
from ..reliability import crash_dump_for
from ..reliability.budget import Budget
from ..reliability.errors import (
    BackendFault,
    BudgetExceeded,
    DivergenceFault,
    OutOfBoundsFault,
)
from ..reliability.faults import FaultPlan
from ..reliability.policy import FallbackPolicy, check_agreement
from ..reliability.supervisor import SupervisionPolicy
from ..runtime.config import BackendConfig
from ..runtime.engine import Engine
from ..vm.fuse import fuse_code
from ..vm.verify import verify_code
from ..transform.pipeline import find_nest_sites, structurize_program
from .generator import GeneratedProgram
from .invariants import (
    ValidatingHook,
    check_work_conservation,
    predicted_lane_work,
)

#: Variant strength order used to cross-check the applicability report.
_RANK = {"general": 0, "optimized": 1, "done": 2}


@dataclass
class Divergence:
    """One detected bug candidate.

    Attributes:
        kind: ``env-divergence`` / ``backend-disagreement`` / ``fault``
            / ``checker-gap`` / ``invariant``.
        config: The leg it occurred on (e.g. ``"flatten/general/simd"``).
        detail: Human-readable description of the disagreement.
        crash_dump: Postmortem from :mod:`repro.reliability` when the
            leg faulted.
    """

    kind: str
    config: str
    detail: str
    crash_dump: dict | None = None

    def key(self) -> tuple[str, str]:
        """Identity used by the reducer: same kind on the same leg."""
        return (self.kind, self.config)


@dataclass
class LegOutcome:
    """How one leg of the matrix went: ``ok``/``rejected``/``skipped``."""

    label: str
    status: str
    detail: str = ""


@dataclass
class ProgramVerdict:
    """Oracle result for one program."""

    program: GeneratedProgram
    legs: list[LegOutcome] = field(default_factory=list)
    divergences: list[Divergence] = field(default_factory=list)
    #: ``(leg label, fault class name)`` for every run that died with a
    #: divergence/bounds fault — the lint cross-check's evidence.
    runtime_faults: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


def _outer_flag_name(tree: ast.SourceFile) -> str | None:
    """Name of the flattened loop's latched continue flag.

    The flattening emits ``WHILE (any(flag))`` around the fused body;
    only that outermost flag is monotone per lane (inner-level flags
    re-arm when a lane advances to its next outer iteration).  The
    first WHILE in document order is the outermost one.
    """
    for node in ast.walk_body(tree.main.body):
        if isinstance(node, ast.While):
            cond = node.cond
            if (
                isinstance(cond, (ast.Call, ast.ArrayRef))
                and cond.name == "any"
            ):
                args = cond.args if isinstance(cond, ast.Call) else cond.subs
                if len(args) == 1 and isinstance(args[0], ast.Var):
                    return args[0].name
            if isinstance(cond, ast.Var):
                return cond.name
            return None
    return None


def _dump(error: BaseException) -> dict:
    """Postmortem for any exception (MiniF errors carry snapshots)."""
    if isinstance(error, MiniFError):
        return crash_dump_for(error)
    return {"error": type(error).__name__, "message": str(error)}


def _copy_bindings(bindings: dict) -> dict:
    return {
        name: value.copy() if isinstance(value, np.ndarray) else value
        for name, value in bindings.items()
    }


class DifferentialOracle:
    """Runs the variant x backend matrix for generated programs.

    Args:
        nproc: Lockstep PE count for the SIMD/SPMD/MIMD legs.
        engine: Compile cache to use (fresh when omitted — the fuzz
            session must never share a cache with a mutated transform
            under mutation testing).
        pmimd: Also run the process-parallel pmimd backend on every
            program and demand env + counter agreement with the
            in-process MIMD simulator (opt-in: forks worker processes
            per program).
        pmimd_chaos: Additionally run a pmimd leg under a seeded
            :class:`FaultPlan` injecting worker kill/hang/slow faults
            at ``chaos_rate``, with a pmimd->mimd fallback chain; the
            supervised (or degraded) run must still match the
            reference, and every failed attempt must carry a
            taxonomy classification.  Implies nothing about ``pmimd``
            — enable both for the full matrix.
        chaos_rate: Per-shard worker fault probability for the chaos
            leg.
    """

    #: Supervision tuned for fuzzing: fast wedge detection and small
    #: backoffs so an injected hang costs well under a second.
    FUZZ_SUPERVISION = SupervisionPolicy(
        wedge_timeout=0.75,
        backoff_base_seconds=0.01,
        backoff_max_seconds=0.05,
        straggler_floor_seconds=0.2,
    )

    def __init__(
        self,
        nproc: int = 4,
        engine: Engine | None = None,
        *,
        pmimd: bool = False,
        pmimd_chaos: bool = False,
        chaos_rate: float = 0.1,
    ):
        if nproc < 2:
            raise ValueError(f"the oracle needs nproc >= 2, got {nproc}")
        self.nproc = nproc
        self.engine = engine if engine is not None else Engine(cache_size=512)
        self.pmimd = pmimd
        self.pmimd_chaos = pmimd_chaos
        self.chaos_rate = chaos_rate
        # Code objects already verified this session — the engine caches
        # compiles, so the same object comes back on many legs.
        self._verified: set[int] = set()

    # -- public API ----------------------------------------------------------

    def check(self, prog: GeneratedProgram) -> ProgramVerdict:
        """Run the full matrix for one program."""
        verdict = ProgramVerdict(prog)
        try:
            ref_env = self._reference(prog)
        except Exception as error:
            verdict.divergences.append(
                Divergence(
                    "fault",
                    "none/scalar",
                    f"reference run failed: {type(error).__name__}: {error}",
                    crash_dump=_dump(error),
                )
            )
            return verdict
        conserved = check_work_conservation(ref_env, prog.total_work)
        if conserved is not None:
            verdict.divergences.append(
                Divergence("invariant", "none/scalar", conserved)
            )
            return verdict

        report = self._consult_applicability(prog, verdict)
        self._untransformed_legs(prog, ref_env, verdict)
        self._checkpoint_legs(prog, ref_env, verdict)
        if self.pmimd or self.pmimd_chaos:
            self._pmimd_legs(prog, ref_env, verdict)
        self._fused_legs(prog, verdict)
        self._flatten_legs(prog, ref_env, verdict)
        self._coalesce_leg(prog, ref_env, verdict)
        self._dep_legs(prog, ref_env, verdict)
        if prog.partitionable and report is not None and report.safe is True:
            self._partitioned_legs(prog, ref_env, verdict)
        else:
            verdict.legs.append(
                LegOutcome(
                    "spmd+simdize",
                    "skipped",
                    "outer loop not partitionable "
                    f"(generator={prog.partitionable}, "
                    f"checker={None if report is None else report.safe})",
                )
            )
        self._lint_cross_check(prog, verdict)
        return verdict

    def check_leg(self, prog: GeneratedProgram, config: str) -> Divergence | None:
        """Re-run the matrix and return the first divergence on ``config``.

        The reducer's predicate: a shrunk program still "fails the same
        way" when the same leg reports the same kind of divergence.
        """
        verdict = self.check(prog)
        for divergence in verdict.divergences:
            if divergence.config == config:
                return divergence
        return None

    # -- reference and comparison --------------------------------------------

    def _reference(self, prog: GeneratedProgram) -> dict:
        result = self.engine.run(
            prog.source, _copy_bindings(prog.bindings), backend="scalar"
        )
        return result.env

    def _compare(
        self,
        prog: GeneratedProgram,
        ref_env: dict,
        env: dict,
        partitioned: bool,
    ) -> str | None:
        """First observable disagreement with the reference, or None."""
        for name in prog.outputs:
            ref = ref_env.get(name)
            if ref is None:
                continue
            got = env.get(name)
            if got is None:
                return f"array '{name}' missing from final environment"
            a = np.asarray(getattr(ref, "data", ref))
            b = np.asarray(getattr(got, "data", got))
            if a.shape != b.shape:
                return f"array '{name}' shape {b.shape} != {a.shape}"
            if not np.array_equal(a, b):
                where = np.argwhere(a != b)[0].tolist()
                return (
                    f"array '{name}' differs first at {where}: "
                    f"{b[tuple(where)]} != {a[tuple(where)]}"
                )
        # Scalar accumulators replicate per lane in partitioned runs and
        # carry per-lane partials; only the unpartitioned legs compare
        # them (partitioned legs exclude accumulator programs anyway).
        scalar_names = prog.observables if not partitioned else ("k",)
        for name in scalar_names:
            ref = ref_env.get(name)
            if ref is None:
                continue
            got = env.get(name)
            if got is None:
                return f"scalar '{name}' missing from final environment"
            value = np.asarray(got)
            if value.ndim >= 1:
                if not np.all(value == value.flat[0]):
                    return (
                        f"scalar '{name}' diverged across lanes: "
                        f"{value.tolist()}"
                    )
                value = value.flat[0]
            if int(value) != int(ref):
                return f"scalar '{name}' = {int(value)}, expected {int(ref)}"
        return None

    # -- applicability consultation ------------------------------------------

    def _consult_applicability(
        self, prog: GeneratedProgram, verdict: ProgramVerdict
    ):
        """Cross-check the Section 6 checker against the transform.

        Returns the no-assumption report (for the safety verdict), and
        records a checker-gap divergence whenever the strongest variant
        the report promises is not exactly what the transform accepts.
        """
        tree = structurize_program(parse_source(prog.source))
        sites = find_nest_sites(tree)
        if not sites:
            verdict.divergences.append(
                Divergence(
                    "checker-gap",
                    "analysis/applicability",
                    "generator emitted a nest the site finder cannot see",
                )
            )
            return None
        stmt = sites[0].stmt
        base_report = None
        for amt in (False, True):
            report = evaluate_flattening(stmt, assume_min_trips=amt)
            if base_report is None:
                base_report = report
            promised = _RANK.get(report.variant, -1)
            for variant in ("optimized", "done"):
                compiled = True
                try:
                    self.engine.compile(
                        prog.source,
                        transform="flatten",
                        variant=variant,
                        assume_min_trips=amt,
                        simd=True,
                    )
                except TransformError:
                    compiled = False
                expected = _RANK[variant] <= promised
                if compiled != expected:
                    verdict.divergences.append(
                        Divergence(
                            "checker-gap",
                            f"flatten/{variant}/assume={amt}",
                            f"applicability promises '{report.variant}' "
                            f"but variant '{variant}' "
                            f"{'compiled' if compiled else 'was rejected'}",
                        )
                    )
        # "Safe" on a serializing loop is accepted-but-wrong — unless
        # the analysis itself qualifies it as needing reduction
        # support, which partition_outer does not provide (and the
        # partitioned legs stay off either way).
        if (
            not prog.partitionable
            and base_report.safe is True
            and not base_report.parallelism.reductions
        ):
            verdict.divergences.append(
                Divergence(
                    "checker-gap",
                    "analysis/dependence",
                    "dependence test calls a serializing outer loop "
                    "parallel (accepted-but-wrong risk)",
                )
            )
        return base_report

    def _lint_cross_check(
        self, prog: GeneratedProgram, verdict: ProgramVerdict
    ) -> None:
        """Correlate the static lint report with observed behaviour.

        A divergence/bounds fault on a lint-clean program means the
        abstract interpreter under-approximated (a rule gap); lint
        *errors* on a program that every leg ran clean mean it
        over-approximated badly enough to flag generator output.
        Either direction is a checker gap worth a bug report.
        """
        try:
            report = lint_source(prog.source, filename="<fuzz>")
        except Exception as error:  # the linter must never kill the oracle
            verdict.divergences.append(
                Divergence(
                    "checker-gap",
                    "lint/static",
                    f"lint crashed on generator output: "
                    f"{type(error).__name__}: {error}",
                )
            )
            return
        codes = sorted({finding.code for finding in report.errors})
        if verdict.runtime_faults and not codes:
            leg, fault = verdict.runtime_faults[0]
            verdict.divergences.append(
                Divergence(
                    "checker-gap",
                    "lint/runtime",
                    f"lint is error-clean but leg '{leg}' raised "
                    f"{fault} at run time",
                )
            )
        elif codes and not verdict.runtime_faults and not any(
            d.kind == "fault" for d in verdict.divergences
        ):
            verdict.divergences.append(
                Divergence(
                    "checker-gap",
                    "lint/runtime",
                    f"lint reports {codes} but every leg ran clean",
                )
            )

    def _verify_bytecode(
        self, program, label: str, verdict: ProgramVerdict
    ) -> None:
        """Bytecode verifier leg: compiler-emitted code must verify."""
        code = program.bytecode()
        if code is None or id(code) in self._verified:
            return
        self._verified.add(id(code))
        for finding in verify_code(code).errors:
            verdict.divergences.append(
                Divergence(
                    "verifier",
                    label,
                    f"[{finding.code}] {finding.message}",
                )
            )

    def _latched_flag(self, prog: GeneratedProgram, kwargs: dict) -> str | None:
        """Continue-flag name of the compiled flattened form (or None)."""
        try:
            return _outer_flag_name(
                self.engine.compile(prog.source, **kwargs).tree
            )
        except Exception:
            return None

    # -- matrix legs ---------------------------------------------------------

    def _run_and_compare(
        self,
        prog: GeneratedProgram,
        ref_env: dict,
        verdict: ProgramVerdict,
        label: str,
        compile_kwargs: dict,
        *,
        partitioned: bool = False,
        assumed: bool = False,
        mode: str = "simd",
        statement_hook=None,
    ):
        """Compile + run one leg, record its outcome/divergence.

        Returns the leg's final env (or None when it did not run).
        """
        try:
            program = self.engine.compile(prog.source, **compile_kwargs)
            program.tree  # force any lazy transform error
        except TransformError as error:
            verdict.legs.append(LegOutcome(label, "rejected", str(error)))
            return None
        except Exception as error:
            verdict.divergences.append(
                Divergence(
                    "fault",
                    label,
                    f"compiler crashed: {type(error).__name__}: {error}",
                    crash_dump=_dump(error),
                )
            )
            verdict.legs.append(LegOutcome(label, "ok", "faulted"))
            return None
        if mode not in ("scalar", "mimd"):
            self._verify_bytecode(program, label, verdict)
        bindings = _copy_bindings(prog.bindings)
        try:
            if mode == "scalar":
                result = program.run(bindings, backend="scalar")
            elif mode == "mimd":
                result = program.run(
                    backend="mimd",
                    bindings_for=lambda p: _copy_bindings(prog.bindings),
                    config=BackendConfig(nproc=self.nproc),
                )
            elif statement_hook is not None:
                result = program.run(
                    bindings,
                    backend="interpreter",
                    statement_hook=statement_hook,
                    config=BackendConfig(nproc=self.nproc),
                )
            else:
                result = program.run(
                    bindings, verify=True, config=BackendConfig(nproc=self.nproc)
                )
        except BackendFault as error:
            verdict.divergences.append(
                Divergence(
                    "backend-disagreement",
                    label,
                    str(error),
                    crash_dump=crash_dump_for(error),
                )
            )
            verdict.legs.append(LegOutcome(label, "ok", "diverged"))
            return None
        except Exception as error:
            detail = f"{type(error).__name__}: {error}"
            if not isinstance(error, MiniFError):
                detail = f"unwrapped exception escaped the backend: {detail}"
            if isinstance(error, (DivergenceFault, OutOfBoundsFault)):
                verdict.runtime_faults.append((label, type(error).__name__))
            verdict.divergences.append(
                Divergence("fault", label, detail, crash_dump=_dump(error))
            )
            verdict.legs.append(LegOutcome(label, "ok", "faulted"))
            return None
        envs = result.env if isinstance(result.env, list) else [result.env]
        for proc, env in enumerate(envs):
            mismatch = self._compare(prog, ref_env, env, partitioned)
            if mismatch is None:
                mismatch = check_work_conservation(env, prog.total_work)
                kind = "invariant" if mismatch else None
            else:
                # A wrong answer the checker accepted without any
                # caller assertion is a safety-checker bug; under a
                # (true) assertion or on always-legal variants it is a
                # transform bug.
                kind = "env-divergence"
            if mismatch is not None:
                prefix = f"proc {proc + 1}: " if len(envs) > 1 else ""
                verdict.divergences.append(
                    Divergence(kind, label, prefix + mismatch)
                )
                verdict.legs.append(LegOutcome(label, "ok", "diverged"))
                return None
        verdict.legs.append(LegOutcome(label, "ok"))
        return envs[0]

    def _untransformed_legs(self, prog, ref_env, verdict) -> None:
        self._run_and_compare(
            prog, ref_env, verdict, "none/simd", {}, mode="simd"
        )
        self._run_and_compare(
            prog, ref_env, verdict, "none/mimd", {}, mode="mimd"
        )

    def _checkpoint_legs(self, prog, ref_env, verdict) -> None:
        """Durable-execution legs: interrupt + resume == uninterrupted.

        For the VM and the scalar interpreter: run the untransformed
        program to completion, then re-run it under a step budget that
        kills it at a seeded random interior step while capturing
        checkpoints every few steps, resume from the last captured
        checkpoint, and demand that the resumed run's final environment
        *and* exact operation counters match the uninterrupted run
        (:func:`check_agreement`) as well as the sequential reference.
        When the interrupt lands before the first checkpoint boundary,
        the documented fallback — a clean rerun — must still agree.
        """
        import random

        rng = random.Random((prog.seed << 16) ^ (prog.index * 0x9E37) ^ 0xC4C7)
        for label, backend in (
            ("none/vm-ckpt", "vm"),
            ("none/interp-ckpt", "scalar"),
        ):
            self._checkpoint_leg(prog, ref_env, verdict, label, backend, rng)

    def _checkpoint_leg(
        self, prog, ref_env, verdict, label: str, backend: str, rng
    ) -> None:
        try:
            program = self.engine.compile(prog.source)
            program.tree
        except Exception:
            return  # the untransformed legs already reported this
        nproc = self.nproc if backend == "vm" else 0
        try:
            plain = program.run(
                _copy_bindings(prog.bindings),
                backend=backend,
                config=BackendConfig(nproc=nproc),
            )
        except Exception:
            return  # faults of the plain backend belong to none/simd
        total = int(plain.counters.total_steps)
        every = rng.randrange(3, 24)
        cut = rng.randrange(1, total) if total > 1 else 1
        checkpoints: list = []
        try:
            program.run(
                _copy_bindings(prog.bindings),
                backend=backend,
                checkpoint_sink=checkpoints.append,
                config=BackendConfig(
                    nproc=nproc, budget=Budget(max_steps=cut), checkpoint_every=every
                ),
            )
        except BudgetExceeded:
            pass  # the injected interrupt
        except Exception as error:
            verdict.divergences.append(
                Divergence(
                    "fault",
                    label,
                    f"interrupted run died outside the budget taxonomy: "
                    f"{type(error).__name__}: {error}",
                    crash_dump=_dump(error),
                )
            )
            verdict.legs.append(LegOutcome(label, "ok", "faulted"))
            return
        try:
            if checkpoints:
                resumed = program.run(
                    _copy_bindings(prog.bindings),
                    backend="auto",
                    resume_from=checkpoints[-1],
                    config=BackendConfig(nproc=nproc),
                )
            else:
                # Interrupt landed before the first boundary: the
                # documented recovery is a clean rerun.
                resumed = program.run(
                    _copy_bindings(prog.bindings),
                    backend=backend,
                    config=BackendConfig(nproc=nproc),
                )
        except Exception as error:
            verdict.divergences.append(
                Divergence(
                    "fault",
                    label,
                    f"resume from step "
                    f"{checkpoints[-1].step if checkpoints else 0} failed: "
                    f"{type(error).__name__}: {error}",
                    crash_dump=_dump(error),
                )
            )
            verdict.legs.append(LegOutcome(label, "ok", "faulted"))
            return
        mismatch = self._compare(prog, ref_env, resumed.env, False)
        if mismatch is not None:
            verdict.divergences.append(
                Divergence(
                    "env-divergence",
                    label,
                    f"resumed at step "
                    f"{checkpoints[-1].step if checkpoints else 0} "
                    f"(interrupt at {cut}, every {every}): {mismatch}",
                )
            )
            verdict.legs.append(LegOutcome(label, "ok", "diverged"))
            return
        try:
            check_agreement(
                plain.env,
                plain.counters,
                resumed.env,
                resumed.counters,
                backends=(backend, f"{backend}-resumed"),
            )
        except BackendFault as error:
            verdict.divergences.append(
                Divergence(
                    "backend-disagreement",
                    label,
                    f"resume is not exact (interrupt at {cut}, "
                    f"every {every}): {error}",
                    crash_dump=crash_dump_for(error),
                )
            )
            verdict.legs.append(LegOutcome(label, "ok", "diverged"))
            return
        verdict.legs.append(LegOutcome(label, "ok"))

    def _pmimd_legs(self, prog, ref_env, verdict) -> None:
        """Process-parallel legs: pmimd must be indistinguishable from mimd.

        The in-process MIMD simulator is the trusted twin: both levels
        run the *same* per-processor scalar programs, so their final
        environments and per-processor statement counters must agree
        exactly (:func:`check_agreement`), and both must match the
        sequential reference.  The chaos leg re-runs pmimd under a
        seeded worker-fault plan with a pmimd->mimd fallback chain —
        recovery (or degradation) must be observationally invisible,
        and every failed attempt must be classified in the
        reliability taxonomy.
        """
        try:
            program = self.engine.compile(prog.source)
            program.tree
        except Exception:
            return  # the untransformed legs already reported this
        bindings_for = lambda p: _copy_bindings(prog.bindings)
        try:
            mimd = program.run(
                backend="mimd",
                bindings_for=bindings_for,
                config=BackendConfig(nproc=self.nproc),
            )
        except Exception:
            return  # ditto: none/mimd owns faults of the simulator
        legs = []
        if self.pmimd:
            legs.append(("none/pmimd", None, None, None))
        if self.pmimd_chaos:
            plan = FaultPlan(
                seed=(prog.seed << 20) ^ prog.index,
                worker_fault_rate=self.chaos_rate,
                slow_seconds=0.01,
                hang_seconds=2.0,
                backends=("pmimd",),
            )
            policy = FallbackPolicy(chain=("pmimd", "mimd"), retries=1)
            legs.append(("none/pmimd-chaos", plan, policy, None))
            # Durable-execution chaos: shard 0's first attempt is killed
            # a few statements in, *between* checkpoint boundaries; the
            # supervisor's replay must resume from the per-processor
            # store and still be observationally invisible.
            ckpt_plan = FaultPlan(
                seed=(prog.seed << 20) ^ prog.index ^ 0x5EED,
                worker_kill=(0,),
                kill_after_steps=3 + prog.index % 13,
                backends=("pmimd",),
            )
            legs.append(("none/pmimd-ckpt", ckpt_plan, None, 5))
        for label, plan, policy, every in legs:
            config = BackendConfig(
                nproc=self.nproc,
                fault_plan=plan,
                workers=2,
                supervision=self.FUZZ_SUPERVISION,
                checkpoint_every=every,
            )
            try:
                result = program.run(
                    backend="pmimd",
                    bindings_for=bindings_for,
                    config=config,
                    policy=policy,
                )
            except MiniFError as error:
                verdict.divergences.append(
                    Divergence(
                        "fault",
                        label,
                        f"{type(error).__name__}: {error}",
                        crash_dump=_dump(error),
                    )
                )
                verdict.legs.append(LegOutcome(label, "ok", "faulted"))
                continue
            for attempt in result.attempts:
                if not attempt.ok and not attempt.fault_kind:
                    verdict.divergences.append(
                        Divergence(
                            "fault",
                            label,
                            f"unclassified failure on backend "
                            f"'{attempt.backend}': {attempt.error}",
                        )
                    )
            mismatch = None
            for proc, env in enumerate(result.env):
                mismatch = self._compare(prog, ref_env, env, False)
                if mismatch is not None:
                    mismatch = f"proc {proc + 1}: {mismatch}"
                    break
            if mismatch is not None:
                verdict.divergences.append(
                    Divergence("env-divergence", label, mismatch)
                )
                verdict.legs.append(LegOutcome(label, "ok", "diverged"))
                continue
            try:
                check_agreement(
                    mimd.env,
                    mimd.counters,
                    result.env,
                    result.counters,
                    backends=("mimd", result.backend),
                )
            except BackendFault as error:
                verdict.divergences.append(
                    Divergence(
                        "backend-disagreement",
                        label,
                        str(error),
                        crash_dump=crash_dump_for(error),
                    )
                )
                verdict.legs.append(LegOutcome(label, "ok", "diverged"))
                continue
            verdict.legs.append(LegOutcome(label, "ok"))

    def _fused_legs(self, prog, verdict) -> None:
        """Superinstruction legs: fusion must be observationally invisible.

        For the untransformed and the flattened F90simd forms: the
        fused :class:`~repro.vm.isa.CodeObject` must pass the bytecode
        verifier, and a fused VM run must agree with an unfused VM run
        on the final environment, the step totals, *and* the event
        breakdown (fused dispatch batches its accounting, so this is
        the leg that keeps the batching honest).  A program that
        legitimately faults must fault identically in both modes.
        """
        for label, kwargs in (
            ("none/vm-fuse", {}),
            ("flatten/auto/vm-fuse", {"transform": "flatten", "simd": True}),
        ):
            try:
                program = self.engine.compile(prog.source, **kwargs)
                program.tree  # force any lazy transform error
                code = program.bytecode()
            except TransformError as error:
                verdict.legs.append(LegOutcome(label, "rejected", str(error)))
                continue
            except Exception as error:
                verdict.divergences.append(
                    Divergence(
                        "fault",
                        label,
                        f"compiler crashed: {type(error).__name__}: {error}",
                        crash_dump=_dump(error),
                    )
                )
                verdict.legs.append(LegOutcome(label, "ok", "faulted"))
                continue
            if code is None:
                verdict.legs.append(LegOutcome(label, "skipped", "no bytecode"))
                continue
            for finding in verify_code(fuse_code(code)).errors:
                verdict.divergences.append(
                    Divergence(
                        "verifier",
                        label,
                        f"fused code: [{finding.code}] {finding.message}",
                    )
                )

            outcomes = []
            for fuse in (True, False):
                try:
                    result = program.run(
                        _copy_bindings(prog.bindings),
                        backend="vm",
                        config=BackendConfig(nproc=self.nproc, vm_fuse=fuse),
                    )
                    outcomes.append(("ok", result))
                except MiniFError as error:
                    outcomes.append(("fault", error))
                except Exception as error:
                    verdict.divergences.append(
                        Divergence(
                            "fault",
                            label,
                            "unwrapped exception escaped the VM "
                            f"(fuse={fuse}): {type(error).__name__}: {error}",
                            crash_dump=_dump(error),
                        )
                    )
                    outcomes.append(("fault", error))
            (fused_kind, fused_out), (plain_kind, plain_out) = outcomes
            if fused_kind != plain_kind:
                detail = (
                    f"fused VM {fused_kind}, unfused VM {plain_kind} "
                    f"({type(fused_out).__name__} vs {type(plain_out).__name__})"
                )
                verdict.divergences.append(
                    Divergence("backend-disagreement", label, detail)
                )
                verdict.legs.append(LegOutcome(label, "ok", "diverged"))
                continue
            if fused_kind == "fault":
                if type(fused_out) is not type(plain_out):
                    verdict.divergences.append(
                        Divergence(
                            "backend-disagreement",
                            label,
                            "fused and unfused VM faulted differently: "
                            f"{type(fused_out).__name__} vs "
                            f"{type(plain_out).__name__}",
                        )
                    )
                    verdict.legs.append(LegOutcome(label, "ok", "diverged"))
                else:
                    verdict.legs.append(
                        LegOutcome(label, "ok", "both modes faulted alike")
                    )
                continue
            try:
                check_agreement(
                    fused_out.env,
                    fused_out.counters,
                    plain_out.env,
                    plain_out.counters,
                    backends=("vm+fuse", "vm-nofuse"),
                )
            except BackendFault as error:
                verdict.divergences.append(
                    Divergence(
                        "backend-disagreement",
                        label,
                        str(error),
                        crash_dump=crash_dump_for(error),
                    )
                )
                verdict.legs.append(LegOutcome(label, "ok", "diverged"))
                continue
            verdict.legs.append(LegOutcome(label, "ok"))

    def _flatten_legs(self, prog, ref_env, verdict) -> None:
        base = {"transform": "flatten", "simd": True}
        self._run_and_compare(
            prog,
            ref_env,
            verdict,
            "flatten/general/f77",
            {"transform": "flatten", "variant": "general", "simd": False},
            mode="scalar",
        )
        self._run_and_compare(
            prog,
            ref_env,
            verdict,
            "flatten/general/simd",
            dict(base, variant="general"),
        )
        # Monotonicity of the conservative variant's latched flag.
        flag = self._latched_flag(prog, dict(base, variant="general"))
        hook = ValidatingHook(self.nproc, flag=flag, marker=None)
        self._run_and_compare(
            prog,
            ref_env,
            verdict,
            "flatten/general/hooked",
            dict(base, variant="general"),
            statement_hook=hook,
        )
        for violation in hook.violations:
            verdict.divergences.append(
                Divergence("invariant", "flatten/general/hooked", violation)
            )
        for variant in ("optimized", "done"):
            label = f"flatten/{variant}/simd"
            kwargs = dict(base, variant=variant)
            accepted_plain = True
            try:
                self.engine.compile(prog.source, **kwargs)
            except TransformError:
                accepted_plain = False
            if accepted_plain:
                self._run_and_compare(prog, ref_env, verdict, label, kwargs)
            elif prog.min_trips_ok:
                self._run_and_compare(
                    prog,
                    ref_env,
                    verdict,
                    label,
                    dict(kwargs, assume_min_trips=True),
                    assumed=True,
                )
            else:
                verdict.legs.append(
                    LegOutcome(
                        label,
                        "skipped",
                        "assume_min_trips would be a false assertion "
                        "(data has a zero-trip inner loop)",
                    )
                )
        self._run_and_compare(
            prog,
            ref_env,
            verdict,
            "flatten/auto/simd",
            dict(base, variant="auto", assume_min_trips=prog.min_trips_ok),
            assumed=prog.min_trips_ok,
        )

    def _coalesce_leg(self, prog, ref_env, verdict) -> None:
        self._run_and_compare(
            prog,
            ref_env,
            verdict,
            "coalesce/f77",
            {"transform": "coalesce"},
            mode="scalar",
        )

    def _dep_legs(self, prog, ref_env, verdict) -> None:
        """Dependence-framework legs: fission and interchange.

        Both transforms consult :func:`repro.analysis.dep.
        build_dependence_graph` for legality, so every accepted program
        is a soundness claim about the distance/direction vectors: a
        dependence the tests wrongly refute reorders statement
        instances and shows up here as an env divergence against the
        sequential reference.  Rejections (``TransformError``) are the
        expected outcome on serializing shapes and are recorded as
        ``rejected`` legs, not failures.
        """
        for transform in ("fission", "interchange"):
            self._run_and_compare(
                prog,
                ref_env,
                verdict,
                f"none/{transform}/f77",
                {"transform": transform},
                mode="scalar",
            )
            self._run_and_compare(
                prog,
                ref_env,
                verdict,
                f"none/{transform}",
                {"transform": transform},
            )

    def _partitioned_legs(self, prog, ref_env, verdict) -> None:
        self._run_and_compare(
            prog,
            ref_env,
            verdict,
            "simdize/block",
            {"transform": "simdize", "width": self.nproc, "layout": "block"},
            partitioned=True,
        )
        for variant, layout in (("general", "block"), ("auto", "cyclic")):
            label = f"spmd/{variant}/{layout}"
            assumed = variant != "general" and prog.min_trips_ok
            self._run_and_compare(
                prog,
                ref_env,
                verdict,
                label,
                {
                    "transform": "spmd",
                    "variant": variant,
                    "layout": layout,
                    "width": self.nproc,
                    "assume_min_trips": assumed,
                },
                partitioned=True,
                assumed=assumed,
            )
        # Eq. 1: per-lane useful iterations must match the layout's
        # assignment of outer iterations (hooked interpreter run).
        spmd_kwargs = {
            "transform": "spmd",
            "variant": "general",
            "layout": "block",
            "width": self.nproc,
        }
        flag = self._latched_flag(prog, spmd_kwargs)
        hook = ValidatingHook(self.nproc, flag=flag, marker="w")
        env = self._run_and_compare(
            prog,
            ref_env,
            verdict,
            "spmd/general/block/hooked",
            spmd_kwargs,
            partitioned=True,
            statement_hook=hook,
        )
        if env is not None:
            expected = predicted_lane_work(
                prog.trip_counts, self.nproc, "block"
            )
            actual = hook.lane_work.tolist()
            if actual != expected:
                verdict.divergences.append(
                    Divergence(
                        "invariant",
                        "spmd/general/block/hooked",
                        f"Eq. 1 violated: per-lane useful iterations "
                        f"{actual} != layout-assigned work {expected}",
                    )
                )
            for violation in hook.violations:
                verdict.divergences.append(
                    Divergence(
                        "invariant", "spmd/general/block/hooked", violation
                    )
                )
