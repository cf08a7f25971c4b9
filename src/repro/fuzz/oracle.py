"""The differential oracle: all legal variants must agree.

For each generated program the oracle runs every row of :data:`LEGS`,
in order, and compares each leg's observable final state against the
sequential reference.  A row is one transform x backend leg: its
compile options, the gate that decides whether it applies, how it runs,
the agreement twin it must match exactly, and an optional post-check.
One executor (:meth:`DifferentialOracle._run_leg`) compiles, runs,
compares and classifies every row alike; a new leg is one new row.
DESIGN.md §8 tabulates the rows.

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
reference), ``backend-disagreement`` (a leg disagrees with its twin,
e.g. vm vs interpreter), ``fault`` (a legal leg crashed),
``checker-gap``, ``verifier`` (compiler-emitted bytecode failed
verification), ``invariant`` (translation validation failed: flag
monotonicity, Eq. 1 per-lane work, total-work conservation).
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..analysis import evaluate_flattening
from ..analysis.applicability import FlatteningReport
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
            / ``checker-gap`` / ``verifier`` / ``invariant``.
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


@dataclass(frozen=True)
class Leg:
    """One row of the differential matrix.

    Attributes:
        label: The leg's name in verdicts, campaign stats and corpora.
        compile: ``Engine.compile`` keyword arguments, or a function of
            ``(prog, nproc)`` returning them.
        run: How the compiled program runs: ``lockstep`` (vm +
            interpreter with ``verify=True``), ``scalar``, ``mimd``
            (P private processors), ``hooked`` (interpreter under a
            :class:`ValidatingHook`), ``pmimd`` / ``pmimd-chaos`` /
            ``pmimd-ckpt`` (the process pool: plain, under seeded
            worker faults with a pmimd->mimd fallback chain, or with
            shard 0 killed between checkpoint boundaries), ``fused``
            (the fused VM, judged against its twin instead of the
            reference, faults included) or ``resume`` (the twin's
            backend interrupted at a seeded step and resumed from its
            last checkpoint).
        gate: When the row applies: ``always``; ``pmimd`` /
            ``pmimd_chaos`` (the oracle flag of that name is set);
            ``partitioned`` (the generator *and* the dependence test
            call the outer loop partitionable — these rows compare
            only the partition-invariant scalars); ``min_trips``
            (compile as given, else with ``assume_min_trips`` when the
            data allows it, else skip).
        twin: A plain run the leg's result must match exactly on env
            and counters (:func:`check_agreement`): ``mimd``, ``vm``,
            ``scalar`` or ``vm-unfused``.  A twin that faults leaves
            the leg ``skipped`` (the twin's own leg reports the fault),
            except the unfused VM, whose faults the fused run must
            reproduce.
        post: Check on the ``hooked`` run's hook after a clean run:
            ``flag`` (latched-flag monotonicity) or ``eq1`` (that, plus
            the Eq. 1 per-lane split of the block layout's work).
    """

    label: str
    compile: dict | Callable[[GeneratedProgram, int], dict]
    run: str = "lockstep"
    gate: str = "always"
    twin: str | None = None
    post: str | None = None


def _spmd(variant: str, layout: str):
    def kwargs(prog: GeneratedProgram, nproc: int) -> dict:
        return {
            "transform": "spmd",
            "variant": variant,
            "layout": layout,
            "width": nproc,
            "assume_min_trips": variant != "general" and prog.min_trips_ok,
        }

    return kwargs


_FLAT = {"transform": "flatten", "simd": True}
_GENERAL = dict(_FLAT, variant="general")

#: The differential matrix, in execution order.  The order is part of
#: the verdict: ``verdict.divergences[0]`` is what the reducer shrinks
#: and the corpus stores.
LEGS: tuple[Leg, ...] = (
    Leg("none/simd", {}),
    Leg("none/mimd", {}, "mimd"),
    Leg("none/vm-ckpt", {}, "resume", twin="vm"),
    Leg("none/interp-ckpt", {}, "resume", twin="scalar"),
    Leg("none/pmimd", {}, "pmimd", "pmimd", twin="mimd"),
    Leg("none/pmimd-chaos", {}, "pmimd-chaos", "pmimd_chaos", twin="mimd"),
    Leg("none/pmimd-ckpt", {}, "pmimd-ckpt", "pmimd_chaos", twin="mimd"),
    Leg("none/vm-fuse", {}, "fused", twin="vm-unfused"),
    Leg("flatten/auto/vm-fuse", _FLAT, "fused", twin="vm-unfused"),
    Leg(
        "flatten/general/f77",
        {"transform": "flatten", "variant": "general", "simd": False},
        "scalar",
    ),
    Leg("flatten/general/simd", _GENERAL),
    Leg("flatten/general/hooked", _GENERAL, "hooked", post="flag"),
    Leg("flatten/optimized/simd", dict(_FLAT, variant="optimized"), gate="min_trips"),
    Leg("flatten/done/simd", dict(_FLAT, variant="done"), gate="min_trips"),
    Leg(
        "flatten/auto/simd",
        lambda prog, nproc: dict(
            _FLAT, variant="auto", assume_min_trips=prog.min_trips_ok
        ),
    ),
    Leg("coalesce/f77", {"transform": "coalesce"}, "scalar"),
    Leg("none/fission/f77", {"transform": "fission"}, "scalar"),
    Leg("none/fission", {"transform": "fission"}),
    Leg("none/interchange/f77", {"transform": "interchange"}, "scalar"),
    Leg("none/interchange", {"transform": "interchange"}),
    Leg(
        "simdize/block",
        lambda prog, nproc: {
            "transform": "simdize",
            "width": nproc,
            "layout": "block",
        },
        gate="partitioned",
    ),
    Leg("spmd/general/block", _spmd("general", "block"), gate="partitioned"),
    Leg("spmd/auto/cyclic", _spmd("auto", "cyclic"), gate="partitioned"),
    Leg(
        "spmd/general/block/hooked",
        _spmd("general", "block"),
        "hooked",
        "partitioned",
        post="eq1",
    ),
)

#: Runs on the sequential execution level: no bytecode to verify.
_SCALAR_RUNS = ("scalar", "mimd", "pmimd", "pmimd-chaos", "pmimd-ckpt")


class _Settled(Exception):
    """Ends a leg early with a non-failing outcome."""

    def __init__(self, status: str, detail: str):
        super().__init__(detail)
        self.status = status
        self.detail = detail


@dataclass
class _Context:
    """One program's pass over :data:`LEGS`."""

    prog: GeneratedProgram
    verdict: ProgramVerdict
    #: The sequential reference's final environment.
    ref_env: dict | None = None
    #: The no-assumption applicability report (gates partitioned rows).
    report: FlatteningReport | None = None
    #: Successful plain runs, by ``(program, backend)``: a twin shared
    #: by several rows runs once.
    runs: dict = field(default_factory=dict)
    #: Interrupt points of the ``resume`` rows, drawn in row order.
    rng: random.Random = field(init=False)

    def __post_init__(self):
        self.rng = random.Random(
            (self.prog.seed << 16) ^ (self.prog.index * 0x9E37) ^ 0xC4C7
        )


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

    Each oracle compiles through its own fresh :class:`Engine` (a fuzz
    session must never share a cache with a mutated transform under
    mutation testing); the reducer reuses it as :attr:`engine`.

    Args:
        nproc: Lockstep PE count for the SIMD/SPMD/MIMD legs.
        pmimd: Also run the process-parallel pmimd backend on every
            program and demand env + counter agreement with the
            in-process MIMD simulator (opt-in: forks worker processes
            per program).
        pmimd_chaos: Additionally run a pmimd leg under a seeded
            :class:`FaultPlan` injecting worker kill/hang/slow faults
            at :attr:`CHAOS_RATE`, with a pmimd->mimd fallback chain;
            the supervised (or degraded) run must still match the
            reference, and every failed attempt must carry a taxonomy
            classification.  Implies nothing about ``pmimd`` — enable
            both for the full matrix.
    """

    #: Supervision tuned for fuzzing: fast wedge detection and small
    #: backoffs so an injected hang costs well under a second.
    FUZZ_SUPERVISION = SupervisionPolicy(
        wedge_timeout=0.75,
        backoff_base_seconds=0.01,
        backoff_max_seconds=0.05,
        straggler_floor_seconds=0.2,
    )

    #: Per-shard worker fault probability of the ``pmimd-chaos`` leg.
    CHAOS_RATE = 0.1

    def __init__(
        self,
        nproc: int = 4,
        *,
        pmimd: bool = False,
        pmimd_chaos: bool = False,
    ):
        if nproc < 2:
            raise ValueError(f"the oracle needs nproc >= 2, got {nproc}")
        self.nproc = nproc
        self.engine = Engine(cache_size=512)
        self.pmimd = pmimd
        self.pmimd_chaos = pmimd_chaos
        # Code objects already verified this session, by id — the engine
        # caches compiles, so the same object comes back on many legs.
        # The value is compared by identity: an evicted, freed code
        # object's id can be reused by a different one.
        self._verified: weakref.WeakValueDictionary = (
            weakref.WeakValueDictionary()
        )

    # -- public API ----------------------------------------------------------

    def check(self, prog: GeneratedProgram) -> ProgramVerdict:
        """Run the full matrix for one program."""
        verdict = ProgramVerdict(prog)
        ctx = _Context(prog, verdict)
        try:
            program = self.engine.compile(prog.source)
            ctx.ref_env = self._plain(program, ctx, "scalar").env
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
        conserved = check_work_conservation(ctx.ref_env, prog.total_work)
        if conserved is not None:
            verdict.divergences.append(
                Divergence("invariant", "none/scalar", conserved)
            )
            return verdict

        ctx.report = self._consult_applicability(prog, verdict)
        for leg in LEGS:
            self._run_leg(leg, ctx)
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

    # -- reference comparison ------------------------------------------------

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
        if code is None or self._verified.get(id(code)) is code:
            return
        self._verified[id(code)] = code
        for finding in verify_code(code).errors:
            verdict.divergences.append(
                Divergence(
                    "verifier",
                    label,
                    f"[{finding.code}] {finding.message}",
                )
            )

    # -- the executor --------------------------------------------------------

    def _run_leg(self, leg: Leg, ctx: _Context) -> None:
        """Gate, compile, run, compare and classify one :data:`LEGS` row."""
        prog, verdict, label = ctx.prog, ctx.verdict, leg.label
        kwargs = leg.compile(prog, self.nproc) if callable(leg.compile) else leg.compile
        if leg.gate in ("pmimd", "pmimd_chaos"):
            if not getattr(self, leg.gate):
                return
        elif leg.gate == "partitioned":
            report = ctx.report
            if not (prog.partitionable and report is not None and report.safe is True):
                skip = LegOutcome(
                    "spmd+simdize",
                    "skipped",
                    "outer loop not partitionable "
                    f"(generator={prog.partitionable}, "
                    f"checker={None if report is None else report.safe})",
                )
                if skip not in verdict.legs:  # one outcome for all these rows
                    verdict.legs.append(skip)
                return
        elif leg.gate == "min_trips":
            try:
                self.engine.compile(prog.source, **kwargs)
            except TransformError:
                if not prog.min_trips_ok:
                    verdict.legs.append(
                        LegOutcome(
                            label,
                            "skipped",
                            "assume_min_trips would be a false assertion "
                            "(data has a zero-trip inner loop)",
                        )
                    )
                    return
                kwargs = dict(kwargs, assume_min_trips=True)

        try:
            program = self.engine.compile(prog.source, **kwargs)
            program.tree  # force any lazy transform error
        except TransformError as error:
            verdict.legs.append(LegOutcome(label, "rejected", str(error)))
            return
        except Exception as error:
            detail = f"compiler crashed: {type(error).__name__}: {error}"
            self._fault(verdict, label, detail, error)
            return
        if leg.run not in _SCALAR_RUNS:
            self._verify_bytecode(program, label, verdict)
        hook = None
        if leg.post is not None:
            hook = ValidatingHook(
                self.nproc,
                flag=_outer_flag_name(program.tree),
                marker="w" if leg.post == "eq1" else None,
            )

        note = ""
        try:
            twin = None
            if leg.twin is not None:
                try:
                    twin = self._plain(program, ctx, leg.twin)
                except MiniFError as error:
                    if leg.run != "fused":
                        raise _Settled(
                            "skipped",
                            f"{leg.twin} twin failed: {type(error).__name__}: {error}",
                        )
                    twin = error
            run = getattr(self, "_run_" + leg.run.replace("-", "_"))
            result, note = run(program, ctx, leg, twin, hook)
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
            # A fused leg answers to its twin only: the reference
            # comparison of the same compile is another row's.
            if leg.run != "fused" and self._diverged(leg, ctx, result, note):
                return
            if twin is not None:
                check_agreement(
                    twin.env,
                    twin.counters,
                    result.env,
                    result.counters,
                    backends=(leg.twin, label),
                )
        except _Settled as settled:
            verdict.legs.append(LegOutcome(label, settled.status, settled.detail))
            return
        except BackendFault as error:
            verdict.divergences.append(
                Divergence(
                    "backend-disagreement",
                    label,
                    note + str(error),
                    crash_dump=crash_dump_for(error),
                )
            )
            verdict.legs.append(LegOutcome(label, "ok", "diverged"))
            return
        except Exception as error:
            detail = f"{type(error).__name__}: {error}"
            if not isinstance(error, MiniFError):
                detail = f"unwrapped exception escaped the backend: {detail}"
            if isinstance(error, (DivergenceFault, OutOfBoundsFault)):
                verdict.runtime_faults.append((label, type(error).__name__))
            self._fault(verdict, label, note + detail, error)
            return
        if hook is not None:
            self._post_check(leg, ctx, hook)
        verdict.legs.append(LegOutcome(label, "ok"))

    @staticmethod
    def _fault(verdict: ProgramVerdict, label: str, detail: str, error) -> None:
        verdict.divergences.append(
            Divergence("fault", label, detail, crash_dump=_dump(error))
        )
        verdict.legs.append(LegOutcome(label, "ok", "faulted"))

    def _diverged(self, leg: Leg, ctx: _Context, result, note: str) -> bool:
        """Compare every processor's env with the reference; record a miss."""
        envs = result.env if isinstance(result.env, list) else [result.env]
        for proc, env in enumerate(envs):
            mismatch = self._compare(
                ctx.prog, ctx.ref_env, env, leg.gate == "partitioned"
            )
            kind = "env-divergence"
            if mismatch is None:
                mismatch = check_work_conservation(env, ctx.prog.total_work)
                kind = "invariant"
            if mismatch is not None:
                prefix = f"proc {proc + 1}: " if len(envs) > 1 else ""
                ctx.verdict.divergences.append(
                    Divergence(kind, leg.label, note + prefix + mismatch)
                )
                ctx.verdict.legs.append(LegOutcome(leg.label, "ok", "diverged"))
                return True
        return False

    def _post_check(self, leg: Leg, ctx: _Context, hook: ValidatingHook) -> None:
        """Translation invariants the hooked run observed."""
        violations = list(hook.violations)
        if leg.post == "eq1":
            expected = predicted_lane_work(ctx.prog.trip_counts, self.nproc, "block")
            actual = hook.lane_work.tolist()
            if actual != expected:
                violations.insert(
                    0,
                    f"Eq. 1 violated: per-lane useful iterations "
                    f"{actual} != layout-assigned work {expected}",
                )
        for violation in violations:
            ctx.verdict.divergences.append(
                Divergence("invariant", leg.label, violation)
            )

    # -- run protocols -------------------------------------------------------
    #
    # ``_run_<name>(program, ctx, leg, twin, hook)`` runs the compiled
    # program the way :attr:`Leg.run` names and returns ``(result,
    # note)``; ``note`` prefixes any divergence detail of the leg.

    def _nproc(self, backend: str) -> int:
        return 0 if backend == "scalar" else self.nproc

    def _plain(self, program, ctx: _Context, backend: str):
        """One uninterrupted run on ``backend`` (``vm-unfused``: no fusion)."""
        key = (program, backend)
        if key not in ctx.runs:
            if backend == "mimd":
                ctx.runs[key] = program.run(
                    backend="mimd",
                    bindings_for=lambda p: _copy_bindings(ctx.prog.bindings),
                    config=BackendConfig(nproc=self.nproc),
                )
            else:
                ctx.runs[key] = program.run(
                    _copy_bindings(ctx.prog.bindings),
                    backend=backend.removesuffix("-unfused"),
                    config=BackendConfig(
                        nproc=self._nproc(backend),
                        vm_fuse=backend != "vm-unfused",
                    ),
                )
        return ctx.runs[key]

    def _run_lockstep(self, program, ctx, leg, twin, hook):
        result = program.run(
            _copy_bindings(ctx.prog.bindings),
            verify=True,
            config=BackendConfig(nproc=self.nproc),
        )
        return result, ""

    def _run_scalar(self, program, ctx, leg, twin, hook):
        return self._plain(program, ctx, "scalar"), ""

    def _run_mimd(self, program, ctx, leg, twin, hook):
        return self._plain(program, ctx, "mimd"), ""

    def _run_hooked(self, program, ctx, leg, twin, hook):
        result = program.run(
            _copy_bindings(ctx.prog.bindings),
            backend="interpreter",
            statement_hook=hook,
            config=BackendConfig(nproc=self.nproc),
        )
        return result, ""

    def _run_fused(self, program, ctx, leg, twin, hook):
        """Fused VM dispatch; it must fault exactly when the unfused VM does."""
        code = program.bytecode()
        if code is None:
            raise _Settled("skipped", "no bytecode")
        for finding in verify_code(fuse_code(code)).errors:
            ctx.verdict.divergences.append(
                Divergence(
                    "verifier",
                    leg.label,
                    f"fused code: [{finding.code}] {finding.message}",
                )
            )
        try:
            result = self._plain(program, ctx, "vm")
        except MiniFError as error:
            if type(error) is type(twin):
                raise _Settled("ok", "both modes faulted alike")
            unfused = (
                f"raised {type(twin).__name__}"
                if isinstance(twin, Exception)
                else "ran clean"
            )
            raise BackendFault(
                f"fused VM raised {type(error).__name__}, unfused VM {unfused}",
                retryable=False,
            )
        if isinstance(twin, Exception):
            raise BackendFault(
                f"fused VM ran clean, unfused VM raised {type(twin).__name__}",
                retryable=False,
            )
        return result, ""

    def _run_resume(self, program, ctx, leg, twin, hook):
        """Durable execution: interrupt + resume must equal the twin.

        Re-runs the twin's backend under a step budget that kills it at
        a seeded interior step while capturing checkpoints every few
        steps, then resumes from the last one captured.  When the
        interrupt lands before the first boundary, the documented
        recovery — a clean rerun — must agree as well.
        """
        backend, bindings = leg.twin, ctx.prog.bindings
        total = int(twin.counters.total_steps)
        every = ctx.rng.randrange(3, 24)
        cut = ctx.rng.randrange(1, total) if total > 1 else 1
        checkpoints: list = []
        try:
            program.run(
                _copy_bindings(bindings),
                backend=backend,
                checkpoint_sink=checkpoints.append,
                config=BackendConfig(
                    nproc=self._nproc(backend),
                    budget=Budget(max_steps=cut),
                    checkpoint_every=every,
                ),
            )
        except BudgetExceeded:
            pass  # the injected interrupt
        step = checkpoints[-1].step if checkpoints else 0
        note = f"resumed at step {step} (interrupt at {cut}, every {every}): "
        if checkpoints:
            result = program.run(
                _copy_bindings(bindings),
                backend="auto",
                resume_from=checkpoints[-1],
                config=BackendConfig(nproc=self._nproc(backend)),
            )
        else:
            result = program.run(
                _copy_bindings(bindings),
                backend=backend,
                config=BackendConfig(nproc=self._nproc(backend)),
            )
        return result, note

    def _pmimd(self, program, ctx, plan=None, policy=None, every=None):
        config = BackendConfig(
            nproc=self.nproc,
            fault_plan=plan,
            workers=2,
            supervision=self.FUZZ_SUPERVISION,
            checkpoint_every=every,
        )
        result = program.run(
            backend="pmimd",
            bindings_for=lambda p: _copy_bindings(ctx.prog.bindings),
            config=config,
            policy=policy,
        )
        return result, ""

    def _run_pmimd(self, program, ctx, leg, twin, hook):
        return self._pmimd(program, ctx)

    def _run_pmimd_chaos(self, program, ctx, leg, twin, hook):
        plan = FaultPlan(
            seed=(ctx.prog.seed << 20) ^ ctx.prog.index,
            worker_fault_rate=self.CHAOS_RATE,
            slow_seconds=0.01,
            hang_seconds=2.0,
            backends=("pmimd",),
        )
        policy = FallbackPolicy(chain=("pmimd", "mimd"), retries=1)
        return self._pmimd(program, ctx, plan, policy)

    def _run_pmimd_ckpt(self, program, ctx, leg, twin, hook):
        # Shard 0's first attempt is killed a few statements in, between
        # checkpoint boundaries; the supervisor's replay must resume from
        # the per-processor store and still be observationally invisible.
        plan = FaultPlan(
            seed=(ctx.prog.seed << 20) ^ ctx.prog.index ^ 0x5EED,
            worker_kill=(0,),
            kill_after_steps=3 + ctx.prog.index % 13,
            backends=("pmimd",),
        )
        return self._pmimd(program, ctx, plan, every=5)
