"""The compile-and-run engine: cached front end, autoselected backend.

The reproduction's pipeline — parse → structurize → flatten/simdize →
bytecode — is deterministic in the source text and the transform
options, so the :class:`Engine` memoizes it the way operator-caching
DSL compilers do:

* :meth:`Engine.compile` returns a :class:`CompiledProgram` keyed by
  the SHA-256 of the source text plus the normalized transform
  options.  The cached artifacts (transformed AST, bytecode) are
  independent of ``nproc``, so one compile serves every machine width
  of a sweep.
* :meth:`CompiledProgram.run` executes with any backend:
  ``"auto"`` picks the bytecode VM when the routine compiles cleanly
  to the linear ISA and falls back to the tree-walking interpreter
  otherwise (trace hooks and named-routine runs always take the
  tree-walker, which supports them).  ``"scalar"`` and ``"mimd"``
  expose the sequential and per-processor execution levels.
* every run returns a :class:`~repro.runtime.result.RunResult` with
  the environment, counters, chosen backend, cache provenance, and
  wall/stage timings.

The VM and the interpreter are maintained in exact observational
agreement — identical final environments *and* identical
:class:`~repro.exec.counters.ExecutionCounters` — so backend choice
never changes what a cost model sees.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass, field

from ..lang import ast
from ..lang.errors import InterpreterError, MiniFError, TransformError
from ..lang.parser import parse_source
from ..lang.printer import format_source
from ..reliability import (
    Attempt,
    FallbackPolicy,
    ReliabilityError,
    check_agreement,
    crash_dump_for,
)
from ..transform.options import (
    normalize_layout,
    normalize_transform,
    normalize_variant,
)
from .config import BackendConfig
from .result import RunResult


@dataclass(frozen=True)
class CompileOptions:
    """Normalized, hashable transform options — the cache key's second half.

    Attributes:
        transform: ``"none"``, ``"flatten"``, ``"simdize"``,
            ``"coalesce"``, ``"spmd"``, ``"fission"`` or
            ``"interchange"`` (see :mod:`repro.transform.options`).
        variant: Flattening strength (``flatten`` only).
        simd: Derive the F90simd form of the flattened region.
        assume_min_trips: Caller-asserted paper condition 2.
        assume_parallel: Caller-asserted outer-loop parallelism
            (``spmd`` only — overrides the Section 6 dependence test).
        routine: Restrict the nest search to one routine.
        nest_index: Which nest (program order) to transform.
        layout: Data distribution (``simdize`` and ``spmd``).
        width: PE count baked into the SIMDized program text
            (``simdize`` and ``spmd``, required there — partitioned
            texts hard-code the machine width into the generated
            per-PE loop bounds).
    """

    transform: str = "none"
    variant: str = "auto"
    simd: bool = True
    assume_min_trips: bool = False
    assume_parallel: bool = False
    routine: str | None = None
    nest_index: int = 0
    layout: str = "block"
    width: int | None = None


@dataclass
class EngineStats:
    """Cache and dispatch counters for one :class:`Engine`.

    ``hits`` counts in-memory LRU hits; ``disk_hits`` counts artifacts
    served from the persistent :class:`~repro.runtime.store.ArtifactStore`
    tier (a disk hit skips the transform pipeline but still pays one
    load+unpickle); ``misses`` counts full compiles.
    """

    compiles: int = 0
    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    store_saves: int = 0
    runs: Counter = field(default_factory=Counter)

    @property
    def hit_rate(self) -> float:
        return (self.hits + self.disk_hits) / self.compiles if self.compiles else 0.0

    def snapshot(self) -> dict:
        return {
            "compiles": self.compiles,
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "disk_misses": self.disk_misses,
            "store_saves": self.store_saves,
            "runs": dict(self.runs),
        }


class CompiledProgram:
    """A cached, reusable compilation artifact.

    Holds the (already transformed) AST and lazily compiles it to
    bytecode on the first run that wants the VM.  Instances are owned
    by an :class:`Engine` cache; accessors hand out *clones* of the
    tree so caller-side mutation can never pollute the cache.
    """

    def __init__(
        self,
        engine: "Engine",
        key: tuple,
        tree: ast.SourceFile,
        options: CompileOptions,
        source_sha: str,
        stage_seconds: dict,
    ):
        self._engine = engine
        self.key = key
        self._tree = tree
        self.options = options
        self.source_sha = source_sha
        self.stage_seconds = stage_seconds
        self.cache_hit = False  # provenance of the *latest* compile() call
        self.cache_tier = "miss"  # "memory" | "disk" | "miss", same provenance
        self._lock = threading.Lock()
        self._bytecode = None
        self._bytecode_error: str | None = None
        self._bytecode_tried = False
        self._diagnostics = None

    @property
    def tree(self) -> ast.SourceFile:
        """A fresh clone of the compiled (transformed) program."""
        return ast.SourceFile([ast.clone(unit) for unit in self._tree.units])

    @property
    def bytecode_error(self) -> str | None:
        """Why the routine does not compile to bytecode (None if it does)."""
        self.bytecode()
        return self._bytecode_error

    def bytecode(self):
        """The routine's :class:`~repro.vm.isa.CodeObject`, or None.

        Compiled lazily on first use and cached — including the
        *failure*, so an uncompilable routine is diagnosed once.
        """
        with self._lock:
            if not self._bytecode_tried:
                from ..vm.compiler import compile_program

                start = time.perf_counter()
                try:
                    self._bytecode = compile_program(self._tree)
                except TransformError as error:
                    self._bytecode_error = str(error)
                self.stage_seconds["bytecode"] = time.perf_counter() - start
                self._bytecode_tried = True
        return self._bytecode

    def diagnostics(self):
        """Static findings for the program *as compiled*.

        Runs the lint rules (:mod:`repro.diag`) over every routine of
        the transformed tree and, when the routine lowers to bytecode,
        the bytecode verifier (:mod:`repro.vm.verify`) over the code
        object.  Computed lazily on first use and cached with the
        artifact, so a cache hit reuses the report.

        Returns:
            A :class:`~repro.diag.DiagnosticReport`.
        """
        if self._diagnostics is None:
            from ..diag import DiagnosticReport, lint_routine
            from ..vm.verify import verify_code

            start = time.perf_counter()
            report = DiagnosticReport()
            for unit in self._tree.units:
                report.extend(lint_routine(unit))
            code = self.bytecode()
            if code is not None:
                report.extend(verify_code(code))
            report = report.sorted()
            with self._lock:
                if self._diagnostics is None:
                    self._diagnostics = report
                    self.stage_seconds["diagnostics"] = time.perf_counter() - start
        return self._diagnostics

    # -- backend selection ---------------------------------------------------

    _BACKENDS = ("auto", "vm", "interpreter", "scalar", "mimd", "pmimd")

    @classmethod
    def _backend_name(cls, backend: str) -> str:
        """The canonical backend name; unknown spellings raise."""
        name = backend.strip().lower()
        if name not in cls._BACKENDS:
            choices = ", ".join(repr(choice) for choice in cls._BACKENDS)
            raise InterpreterError(
                f"unknown backend {backend!r} (choose from {choices})"
            )
        return name

    def _resolve_backend(
        self, backend: str, nproc: int, statement_hook, routine_name
    ) -> str:
        name = self._backend_name(backend)
        if name == "pmimd":
            if nproc < 1:
                raise InterpreterError(
                    f"backend='pmimd' needs nproc >= 1 (got {nproc})"
                )
            return name
        if name == "mimd":
            return name
        if not nproc:
            if name in ("vm", "interpreter"):
                raise InterpreterError(
                    f"backend={name!r} needs nproc >= 1 (got {nproc})"
                )
            return "scalar"
        if name == "scalar":
            raise InterpreterError("backend='scalar' runs with nproc=0")
        if name == "auto":
            # The VM supports neither trace hooks nor named-routine
            # entry; otherwise it runs whenever the routine lowers
            # cleanly to the linear ISA.
            if statement_hook is None and routine_name is None and self.bytecode():
                return "vm"
            return "interpreter"
        if name == "vm" and self.bytecode() is None:
            raise TransformError(
                f"backend='vm': routine does not compile to bytecode "
                f"({self._bytecode_error})"
            )
        return name

    # -- execution -----------------------------------------------------------

    def run(
        self,
        bindings: dict | None = None,
        *,
        backend: str = "auto",
        bindings_for=None,
        statement_hook=None,
        statement_hook_for=None,
        routine_name: str | None = None,
        policy: FallbackPolicy | None = None,
        verify: bool = False,
        config: BackendConfig | None = None,
        checkpoint_sink=None,
        resume_from=None,
    ) -> RunResult:
        """Execute the compiled program and return a :class:`RunResult`.

        Args:
            bindings: Initial environment (copied, never mutated).
            backend: ``"auto"``, ``"vm"``, ``"interpreter"``,
                ``"scalar"``, ``"mimd"`` or ``"pmimd"`` (the
                process-parallel SPMD pool).  Ignored when ``policy``
                supplies its own chain.
            bindings_for: MIMD/PMIMD backends — callable ``p -> dict``
                (runs inside the worker process on pmimd).  Plain
                ``bindings`` also work on both: every processor gets a
                private deep copy.
            statement_hook: Trace hook (tree-walking backends only).
            statement_hook_for: MIMD backend — callable ``p -> hook``
                (not supported across pmimd's process boundary).
            routine_name: Run a routine other than the main program
                (tree-walking backends only).
            policy: A :class:`~repro.reliability.FallbackPolicy`; when
                given, faults retry and degrade along its backend chain
                and every attempt is recorded in
                :attr:`RunResult.attempts`.
            verify: Differentially check the run: after the primary
                backend succeeds, the other lockstep backend also runs
                and the two must agree on env and counters
                (:func:`~repro.reliability.check_agreement` — the same
                oracle :mod:`repro.fuzz` uses).  Needs ``nproc >= 1``
                and a vm/interpreter/auto backend; composes with
                ``policy`` by switching its ``verify`` flag on.
            config: The run settings (:class:`BackendConfig`): PE
                count (``nproc``; 0 runs the sequential execution
                level), externals, budget, fault plan, durable
                checkpointing (``checkpoint_every``/``checkpoint_dir``:
                vm/scalar captures are saved under the key ``"run"``
                stamped with this program's source SHA; pmimd workers
                checkpoint per processor so shard replays resume) and
                the backend-specific fields.  None means
                ``BackendConfig()``: a sequential run.
            checkpoint_sink: Callable receiving each captured
                checkpoint (vm/scalar; wins over
                ``config.checkpoint_dir``).
            resume_from: A checkpoint to continue from instead of
                starting at step 0.  The backend is chosen from the
                checkpoint (vm or scalar), the final env/counters are
                bit-identical to an uninterrupted run, and a
                source-SHA mismatch is refused.  Incompatible with
                ``policy`` chains.
        """
        if config is None:
            config = BackendConfig()
        if verify:
            if policy is not None:
                if not policy.verify:
                    import dataclasses

                    policy = dataclasses.replace(policy, verify=True)
            else:
                name = self._backend_name(backend)
                if config.nproc < 1 or name in ("scalar", "mimd", "pmimd"):
                    raise InterpreterError(
                        "verify=True cross-checks the lockstep backends; "
                        "it needs nproc >= 1 and backend "
                        "'auto'/'vm'/'interpreter'"
                    )
                chain = (
                    ("interpreter", "vm")
                    if name == "interpreter"
                    else ("vm", "interpreter")
                )
                policy = FallbackPolicy(chain=chain, retries=0, verify=True)
        if policy is not None and (resume_from is not None or checkpoint_sink is not None):
            raise InterpreterError(
                "resume_from/checkpoint_sink cannot be combined with a "
                "FallbackPolicy chain: a resumed run must continue the one "
                "backend recorded in the checkpoint"
            )
        if resume_from is not None:
            meta = getattr(resume_from, "meta", None)
            sha = meta.get("source_sha") if isinstance(meta, dict) else None
            if sha is not None and sha != self.source_sha:
                raise InterpreterError(
                    "resume_from checkpoint was captured from a different "
                    "program (source SHA mismatch)"
                )
            chosen = "vm" if resume_from.backend == "vm" else "scalar"
            if self._backend_name(backend) not in ("auto", chosen):
                raise InterpreterError(
                    f"resume_from checkpoint was captured by the '{chosen}' "
                    f"backend; requested backend '{backend}' cannot "
                    f"continue it"
                )
            if chosen == "vm" and not config.nproc:
                config = config.with_nproc(resume_from.nproc)
        kwargs = dict(
            bindings=bindings,
            config=config,
            statement_hook=statement_hook,
            routine_name=routine_name,
            bindings_for=bindings_for,
            statement_hook_for=statement_hook_for,
            checkpoint_sink=checkpoint_sink,
            resume_from=resume_from,
        )
        if policy is not None:
            return self._run_with_policy(policy, **kwargs)
        if resume_from is None:
            chosen = self._resolve_backend(
                backend, config.nproc, statement_hook, routine_name
            )
        if (
            config.checkpoint_every
            and config.checkpoint_dir
            and checkpoint_sink is None
            and chosen in ("vm", "scalar")
        ):
            # Durable execution by default: captures land in an on-disk
            # store under one well-known key, stamped with the program
            # identity so a later --resume refuses a source mismatch.
            from ..reliability.checkpoint import CheckpointStore

            store = CheckpointStore(config.checkpoint_dir)

            def checkpoint_sink(ckpt, _store=store, _sha=self.source_sha):
                ckpt.meta["source_sha"] = _sha
                _store.save("run", ckpt)

            kwargs["checkpoint_sink"] = checkpoint_sink
        start = time.perf_counter()
        env, counters, statements, events = self._execute(chosen, **kwargs)
        wall = time.perf_counter() - start
        return self._result(
            chosen,
            config.nproc,
            env,
            counters,
            statements,
            wall,
            events=events,
            resumed_from_step=None if resume_from is None else resume_from.step,
        )

    def _execute(
        self,
        chosen: str,
        *,
        bindings,
        config: BackendConfig,
        statement_hook,
        routine_name,
        bindings_for,
        statement_hook_for,
        checkpoint_sink=None,
        resume_from=None,
    ):
        """Run one already-resolved backend.

        Returns ``(env, counters, statements, events)`` — ``events``
        is the supervision log for the pmimd backend and empty for the
        single-process ones.  Backend construction is uniform: each
        backend is built from the run's :class:`BackendConfig` via its
        ``from_config`` classmethod.
        """
        if chosen == "vm":
            from ..vm.machine import SIMDVirtualMachine

            vm = SIMDVirtualMachine.from_config(config)
            vm.checkpoint_sink = checkpoint_sink
            raw = vm.run(
                self.bytecode(),
                bindings=dict(bindings or {}),
                resume_from=resume_from,
            )
            env = {k: v for k, v in raw.items() if not k.startswith("__")}
            return env, vm.counters, vm.executed, []
        if chosen == "interpreter":
            from ..exec.simd import SIMDInterpreter

            if resume_from is not None or checkpoint_sink is not None:
                raise InterpreterError(
                    "the lockstep tree-walker does not support checkpoint "
                    "capture/resume; use backend='vm' or 'scalar'"
                )
            interp = SIMDInterpreter.from_config(self._tree, config)
            interp.statement_hook = statement_hook
            env = interp.run(routine_name=routine_name, bindings=bindings)
            return env, interp.counters, interp.executed_statements, []
        if chosen == "scalar":
            from ..exec.scalar import ScalarInterpreter

            interp = ScalarInterpreter.from_config(self._tree, config)
            interp.statement_hook = statement_hook
            interp.checkpoint_sink = checkpoint_sink
            env = interp.run(
                routine_name=routine_name,
                bindings=bindings,
                resume_from=resume_from,
            )
            return env, interp.counters, interp.executed_statements, []
        if chosen == "pmimd":
            from ..exec.pmimd import PMIMDExecutor

            if statement_hook_for is not None:
                raise InterpreterError(
                    "backend='pmimd' cannot install statement hooks across "
                    "process boundaries; use backend='mimd'"
                )
            if checkpoint_sink is not None:
                raise InterpreterError(
                    "backend='pmimd' cannot deliver checkpoints to an "
                    "in-process sink; set checkpoint_dir so workers save "
                    "per-processor checkpoints to the on-disk store"
                )
            if resume_from is not None:
                raise InterpreterError(
                    "backend='pmimd' resumes from its per-processor "
                    "checkpoint store automatically; resume_from takes a "
                    "single vm/scalar checkpoint"
                )
            executor = PMIMDExecutor.from_config(self._tree, config)
            res = executor.run(
                bindings=dict(bindings) if bindings else None,
                bindings_for=bindings_for,
                routine_name=routine_name,
            )
            return res.envs, res.counters, res.statements, res.events
        # mimd
        from ..exec.mimd import MIMDSimulator

        if bindings_for is None and bindings:
            # A pmimd-style plain-bindings run degrading to mimd:
            # every processor gets a private deep copy, matching the
            # worker-side replication.
            from ..exec.pmimd import replicate_bindings

            base = dict(bindings)
            bindings_for = lambda p: replicate_bindings(base)  # noqa: E731
        sim = MIMDSimulator.from_config(self._tree, config)
        mimd = sim.run(
            bindings_for=bindings_for,
            routine_name=routine_name,
            statement_hook_for=statement_hook_for,
        )
        return mimd.envs, mimd.counters, mimd.statements, []

    def _result(
        self,
        chosen,
        nproc,
        env,
        counters,
        statements,
        wall,
        attempts=None,
        events=None,
        resumed_from_step=None,
    ) -> RunResult:
        self._engine.stats.runs[chosen] += 1
        if isinstance(counters, list):
            # MIMD: parallel completion time — max over processors.
            steps = max((c.total_steps for c in counters), default=0)
        else:
            steps = int(counters.total_steps)
        return RunResult(
            env=env,
            counters=counters,
            backend=chosen,
            nproc=nproc,
            cache_hit=self.cache_hit,
            wall_seconds=wall,
            steps=steps,
            stage_seconds={**self.stage_seconds, "run": wall},
            statements=statements,
            attempts=attempts if attempts is not None else [],
            events=events if events is not None else [],
            resumed_from_step=resumed_from_step,
        )

    def _run_with_policy(self, policy: FallbackPolicy, **kwargs) -> RunResult:
        """Try the policy's backend chain, recording every attempt.

        Semantics:

        * A backend that will not even resolve for this program/run
          shape (e.g. ``"vm"`` when the routine has no bytecode form)
          records one failed attempt and the chain degrades.
        * A *retryable* :class:`~repro.reliability.ReliabilityError`
          (transient backend faults) retries the same backend up to
          ``policy.retries`` more times, then degrades.
        * A non-retryable fault — budget exhaustion, divergence, bounds
          violations, genuine program errors — raises immediately with
          the attempt log attached as ``error.attempts``: deterministic
          failures would only re-fail downstream.
        * With ``policy.verify`` the rest of the chain runs after a
          success and must agree on env + counters.
        """
        nproc = kwargs["config"].nproc
        attempts: list[Attempt] = []
        last_error: Exception | None = None
        for backend in policy.chain:
            try:
                chosen = self._resolve_backend(
                    backend,
                    nproc,
                    kwargs["statement_hook"],
                    kwargs["routine_name"],
                )
            except MiniFError as error:
                attempts.append(
                    Attempt(
                        backend=backend,
                        ok=False,
                        error=f"{type(error).__name__}: {error}",
                        fault_kind=type(error).__name__,
                        crash_dump=crash_dump_for(error),
                    )
                )
                last_error = error
                continue
            for _try in range(1 + policy.retries):
                start = time.perf_counter()
                try:
                    env, counters, statements, events = self._execute(
                        chosen, **kwargs
                    )
                except ReliabilityError as error:
                    wall = time.perf_counter() - start
                    snapshot = error.snapshot
                    dump = error.crash_dump()
                    supervision = getattr(error, "supervision_events", None)
                    if supervision is not None:
                        dump["supervision_events"] = supervision
                    attempts.append(
                        Attempt(
                            backend=chosen,
                            ok=False,
                            wall_seconds=wall,
                            steps=None if snapshot is None else snapshot.steps,
                            error=f"{type(error).__name__}: {error}",
                            fault_kind=type(error).__name__,
                            crash_dump=dump,
                        )
                    )
                    last_error = error
                    if not policy.is_retryable(error):
                        error.attempts = attempts
                        raise
                    continue
                wall = time.perf_counter() - start
                attempts.append(
                    Attempt(
                        backend=chosen, ok=True, wall_seconds=wall, steps=statements
                    )
                )
                if policy.verify:
                    self._verify_rest(policy, chosen, env, counters, attempts, kwargs)
                return self._result(
                    chosen,
                    nproc,
                    env,
                    counters,
                    statements,
                    wall,
                    attempts,
                    events=events,
                )
        if last_error is not None:
            last_error.attempts = attempts
            raise last_error
        raise InterpreterError(
            f"fallback chain {policy.chain!r} resolved no backend"
        )

    def _verify_rest(self, policy, chosen, env, counters, attempts, kwargs) -> None:
        """Differential check: run the rest of the chain, demand agreement."""
        seen = {chosen}
        for other in policy.chain:
            try:
                resolved = self._resolve_backend(
                    other,
                    kwargs["config"].nproc,
                    kwargs["statement_hook"],
                    kwargs["routine_name"],
                )
            except MiniFError:
                continue
            if resolved in seen:
                continue
            seen.add(resolved)
            start = time.perf_counter()
            try:
                env_b, counters_b, statements_b, _events_b = self._execute(
                    resolved, **kwargs
                )
            except ReliabilityError as error:
                attempts.append(
                    Attempt(
                        backend=resolved,
                        ok=False,
                        wall_seconds=time.perf_counter() - start,
                        error=f"{type(error).__name__}: {error}",
                        fault_kind=type(error).__name__,
                        crash_dump=error.crash_dump(),
                    )
                )
                continue
            attempts.append(
                Attempt(
                    backend=resolved,
                    ok=True,
                    wall_seconds=time.perf_counter() - start,
                    steps=statements_b,
                )
            )
            check_agreement(
                env, counters, env_b, counters_b, backends=(chosen, resolved)
            )


class Engine:
    """Compiles MiniF programs once and runs them many times.

    Caching is two-tier: an in-process LRU of live
    :class:`CompiledProgram` objects, optionally backed by a persistent
    on-disk :class:`~repro.runtime.store.ArtifactStore` shared between
    processes (and, behind ``repro serve``, between cluster restarts).
    A memory miss falls through to the store before the transform
    pipeline runs; a full compile publishes its artifact back.

    Args:
        cache_size: Maximum number of distinct (source, options)
            artifacts to retain in memory (LRU eviction).
        store: A ready :class:`~repro.runtime.store.ArtifactStore`
            to use as the persistent tier (wins over ``store_dir``).
        store_dir: Convenience — build an
            :class:`~repro.runtime.store.ArtifactStore` rooted here.
    """

    def __init__(
        self,
        cache_size: int = 128,
        *,
        store=None,
        store_dir: str | None = None,
    ):
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        self.cache_size = cache_size
        if store is None and store_dir is not None:
            from .store import ArtifactStore

            store = ArtifactStore(store_dir)
        self.store = store
        self.stats = EngineStats()
        self._cache: OrderedDict[tuple, CompiledProgram] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        """Drop every cached artifact (stats are retained)."""
        with self._lock:
            self._cache.clear()

    def compile(
        self,
        source: ast.SourceFile | str,
        *,
        transform: str | None = None,
        variant: str = "auto",
        simd: bool = True,
        assume_min_trips: bool = False,
        assume_parallel: bool = False,
        routine: str | None = None,
        nest_index: int = 0,
        layout: str = "block",
        width: int | None = None,
        strict: bool = False,
    ) -> CompiledProgram:
        """Compile (or fetch) the program for the given options.

        Args:
            source: MiniF source text or an already-parsed tree.  A
                tree is keyed by its canonical printed form, so
                equivalent trees share one cache entry and the caller
                keeps ownership of its own AST.
            transform: Nest transform to apply — ``"none"`` (default),
                ``"flatten"``, ``"simdize"``, ``"coalesce"``,
                ``"spmd"``, ``"fission"`` or ``"interchange"``; any
                other spelling raises
                :class:`~repro.lang.errors.TransformError`.
            variant: Flattening strength for ``transform="flatten"``.
            simd: Derive the F90simd form when flattening.
            assume_min_trips: Paper condition 2 assertion.
            assume_parallel: Outer-loop parallelism assertion
                (``transform="spmd"`` only).
            routine: Restrict the nest search to this routine.
            nest_index: Which nest (program order) to transform.
            layout: Data distribution for ``transform="simdize"``.
            width: PE count baked into the SIMDized text
                (``transform="simdize"`` only, required there).
            strict: Fail the compile when static analysis finds
                error-severity diagnostics — raises
                :class:`~repro.lang.errors.CompileError` carrying the
                findings.  Not part of the cache key: the same
                artifact serves strict and lax callers, the check runs
                against its (cached) diagnostics report.

        Returns:
            A cached :class:`CompiledProgram`; its ``cache_hit``
            attribute tells whether this call was served from cache and
            ``cache_tier`` which tier served it
            (``"memory"``/``"disk"``/``"miss"``).
        """
        text, sha, options = self._normalize(
            source,
            transform=transform,
            variant=variant,
            simd=simd,
            assume_min_trips=assume_min_trips,
            assume_parallel=assume_parallel,
            routine=routine,
            nest_index=nest_index,
            layout=layout,
            width=width,
        )
        key = (sha, options)
        with self._lock:
            self.stats.compiles += 1
            cached = self._cache.get(key)
            if cached is not None:
                self.stats.hits += 1
                self._cache.move_to_end(key)
                cached.cache_hit = True
                cached.cache_tier = "memory"
                return self._checked(cached, strict)
        program = self._load_from_store(sha, key, options)
        tier = "disk"
        if program is None:
            tier = "miss"
            with self._lock:
                self.stats.misses += 1
            program = self._build(text, sha, key, options)
            self._publish(sha, options, program)
        with self._lock:
            # a racing compile may have inserted the same key; keep the
            # first artifact so callers share one entry
            winner = self._cache.setdefault(key, program)
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
        winner.cache_hit = winner is not program or tier == "disk"
        winner.cache_tier = "memory" if winner is not program else tier
        return self._checked(winner, strict)

    def _normalize(
        self,
        source: ast.SourceFile | str,
        *,
        transform=None,
        variant="auto",
        simd=True,
        assume_min_trips=False,
        assume_parallel=False,
        routine=None,
        nest_index=0,
        layout="block",
        width=None,
    ) -> tuple[str, str, CompileOptions]:
        """``(text, source SHA, normalized options)`` of a compile request."""
        options = CompileOptions(
            transform=normalize_transform(transform),
            variant=normalize_variant(variant),
            simd=bool(simd),
            assume_min_trips=bool(assume_min_trips),
            assume_parallel=bool(assume_parallel),
            routine=routine,
            nest_index=int(nest_index),
            layout=normalize_layout(layout),
            width=None if width is None else int(width),
        )
        if isinstance(source, str):
            text = source
        elif isinstance(source, ast.SourceFile):
            text = format_source(source)
        else:
            raise TypeError(
                f"source must be MiniF text or a SourceFile, "
                f"got {type(source).__name__}"
            )
        sha = hashlib.sha256(text.encode()).hexdigest()
        return text, sha, options

    def cache_key(self, source: ast.SourceFile | str, **options) -> str:
        """The store digest of a compile request, without compiling.

        The same identity :meth:`compile` caches under — usable as a
        deduplication key (``repro.serve`` single-flights identical
        in-flight compiles on it) and as the
        :class:`~repro.runtime.store.ArtifactStore` address.
        """
        from .store import artifact_digest

        _text, sha, normalized = self._normalize(source, **options)
        return artifact_digest(sha, normalized)

    def _load_from_store(self, sha, key, options) -> "CompiledProgram | None":
        """Persistent-tier lookup: rebuild a CompiledProgram from disk."""
        if self.store is None:
            return None
        from .store import artifact_digest

        start = time.perf_counter()
        payload = self.store.load(artifact_digest(sha, options))
        if (
            payload is None
            or payload.get("source_sha") != sha
            or payload.get("options") != options
            or not isinstance(payload.get("tree"), ast.SourceFile)
        ):
            # A digest collision or a doctored entry surfaces as an
            # identity mismatch: treat as a miss, never trust the tree.
            with self._lock:
                self.stats.disk_misses += 1
            return None
        stage_seconds = dict(payload.get("stage_seconds") or {})
        stage_seconds["store_load"] = time.perf_counter() - start
        with self._lock:
            self.stats.disk_hits += 1
        return CompiledProgram(
            self, key, payload["tree"], options, sha, stage_seconds
        )

    def _publish(self, sha, options, program: "CompiledProgram") -> None:
        """Publish a freshly-built artifact to the persistent tier.

        Publish failures (full disk, permissions) never fail the
        compile — the in-memory artifact is already usable.
        """
        if self.store is None:
            return
        from .store import artifact_digest

        payload = {
            "source_sha": sha,
            "options": options,
            "tree": program._tree,
            "stage_seconds": {
                name: seconds
                for name, seconds in program.stage_seconds.items()
                if name in ("parse", "transform")
            },
        }
        try:
            self.store.save(
                artifact_digest(sha, options),
                payload,
                meta={"source_sha": sha, "transform": options.transform},
            )
        except (OSError, pickle.PicklingError):
            return
        with self._lock:
            self.stats.store_saves += 1

    @staticmethod
    def _checked(program: CompiledProgram, strict: bool) -> CompiledProgram:
        """Apply the strict-mode gate to a (possibly cached) artifact."""
        if not strict:
            return program
        report = program.diagnostics()
        if report.has_errors:
            from ..lang.errors import CompileError

            first = report.errors[0]
            raise CompileError(
                f"strict compile failed: {report.summary()}; first: "
                f"[{first.code}] {first.message}",
                diagnostics=report.errors,
                location=first.location,
            )
        return program

    def run(
        self,
        source: ast.SourceFile | str,
        bindings: dict | None = None,
        *,
        transform: str | None = None,
        variant: str = "auto",
        simd: bool = True,
        assume_min_trips: bool = False,
        assume_parallel: bool = False,
        routine: str | None = None,
        nest_index: int = 0,
        layout: str = "block",
        width: int | None = None,
        strict: bool = False,
        **run_kwargs,
    ) -> RunResult:
        """Compile (cached) and run in one call.

        Compile keywords are those of :meth:`compile` (including
        ``strict``); everything else (``backend``, ``config``,
        ``policy``, ``verify``, ...) is forwarded to
        :meth:`CompiledProgram.run`.
        """
        program = self.compile(
            source,
            transform=transform,
            variant=variant,
            simd=simd,
            assume_min_trips=assume_min_trips,
            assume_parallel=assume_parallel,
            routine=routine,
            nest_index=nest_index,
            layout=layout,
            width=width,
            strict=strict,
        )
        return program.run(bindings, **run_kwargs)

    def _build(
        self, text: str, sha: str, key: tuple, options: CompileOptions
    ) -> CompiledProgram:
        from ..transform.pipeline import (
            _flatten_program_uncached,
            coalesce_program,
            fission_program,
            interchange_program,
            naive_simd_program,
            spmd_program,
        )

        stage_seconds: dict = {}
        start = time.perf_counter()
        tree = parse_source(text)
        stage_seconds["parse"] = time.perf_counter() - start

        start = time.perf_counter()
        if options.transform == "flatten":
            tree = _flatten_program_uncached(
                tree,
                variant=options.variant,
                assume_min_trips=options.assume_min_trips,
                simd=options.simd,
                routine=options.routine,
                nest_index=options.nest_index,
            )
        elif options.transform == "simdize":
            if options.width is None:
                raise TransformError("transform='simdize' needs width=<PE count>")
            tree = naive_simd_program(
                tree,
                options.width,
                layout=options.layout,
                routine=options.routine,
                nest_index=options.nest_index,
            )
        elif options.transform == "spmd":
            if options.width is None:
                raise TransformError("transform='spmd' needs width=<PE count>")
            tree = spmd_program(
                tree,
                options.width,
                layout=options.layout,
                variant=options.variant,
                assume_min_trips=options.assume_min_trips,
                assume_parallel=options.assume_parallel,
                simd=options.simd,
                routine=options.routine,
                nest_index=options.nest_index,
            )
        elif options.transform == "coalesce":
            tree = coalesce_program(
                tree, routine=options.routine, nest_index=options.nest_index
            )
        elif options.transform == "fission":
            tree = fission_program(
                tree, routine=options.routine, nest_index=options.nest_index
            )
        elif options.transform == "interchange":
            tree = interchange_program(
                tree, routine=options.routine, nest_index=options.nest_index
            )
        stage_seconds["transform"] = time.perf_counter() - start
        return CompiledProgram(self, key, tree, options, sha, stage_seconds)


_default_engine: Engine | None = None
_default_lock = threading.Lock()


def default_engine() -> Engine:
    """The process-wide shared Engine behind :func:`repro.compile` and
    :func:`repro.run`."""
    global _default_engine
    with _default_lock:
        if _default_engine is None:
            _default_engine = Engine()
        return _default_engine


def reset_default_engine() -> None:
    """Replace the shared Engine with a fresh one (tests, benchmarks)."""
    global _default_engine
    with _default_lock:
        _default_engine = None
