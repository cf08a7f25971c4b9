"""The serve application: routes, lifecycle, graceful shutdown.

Request flow for the hot endpoint (``POST /v1/compile``)::

    admission (per-tenant + global ceilings, 429 over limit)
      └─ single-flight (identical in-flight compiles share one build)
           └─ worker pool (compile off the event loop)
                └─ Engine: memory LRU → ArtifactStore (disk) → pipeline

``POST /v1/run`` rides the same compile path, then dispatches
execution to the bounded :class:`~repro.serve.pool.RunnerPool` with
the tenant's :class:`~repro.reliability.Budget` and
:class:`~repro.reliability.FallbackPolicy` applied; pmimd runs reuse
pooled executors across requests.

Every handler is a plain ``async`` method taking a decoded JSON body
and returning ``(status, payload)``, so the whole API is testable
without a socket; the socket layer (:mod:`repro.serve.http`) is one
connection callback.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from ..lang.errors import MiniFError
from ..runtime import BackendConfig, Engine
from ..runtime.result import RunResult
from .admission import AdmissionController, AdmissionError, TenantPolicy
from .http import HTTPError, Request, read_request, response_bytes
from .metrics import ServeMetrics
from .pool import RunnerPool
from .protocol import (
    ProtocolError,
    compile_options,
    decode_bindings,
    encode_run_result,
    error_body,
    require_source,
)
from .singleflight import SingleFlight


@dataclass(frozen=True)
class ServeConfig:
    """Everything ``repro serve`` needs to boot.

    Attributes:
        host: Bind address.
        port: Bind port (0 = pick a free one; the resolved port is on
            :attr:`ServeApp.port` after :meth:`ServeApp.start`).
        store_dir: Persistent artifact-store root (None = memory-only
            caching, cold compiles per process).
        store_max_entries: LRU ceiling on stored artifacts.
        store_max_bytes: LRU ceiling on stored bytes.
        cache_size: In-memory compile-cache entries.
        max_inflight: Global concurrent-request ceiling (429 beyond).
        pool_workers: Execution thread-pool size.
        executor_cache: pmimd executors kept for cross-request reuse.
        tenants: Per-tenant policies (the ``"default"`` entry replaces
            the built-in default policy).
        drain_seconds: Graceful-shutdown budget for in-flight requests.
    """

    host: str = "127.0.0.1"
    port: int = 8642
    store_dir: str | None = None
    store_max_entries: int | None = None
    store_max_bytes: int | None = None
    cache_size: int = 128
    max_inflight: int | None = 64
    pool_workers: int = 4
    executor_cache: int = 8
    tenants: tuple[TenantPolicy, ...] = field(default_factory=tuple)
    drain_seconds: float = 10.0


class ServeApp:
    """The compile-and-run service, socket layer excluded.

    Args:
        config: Service settings.
        engine: Bring your own :class:`~repro.runtime.Engine`
            (tests); by default one is built from the config with the
            persistent store attached.
    """

    def __init__(self, config: ServeConfig | None = None, engine: Engine | None = None):
        self.config = config if config is not None else ServeConfig()
        if engine is None:
            store = None
            if self.config.store_dir is not None:
                from ..runtime.store import ArtifactStore

                store = ArtifactStore(
                    self.config.store_dir,
                    max_entries=self.config.store_max_entries,
                    max_bytes=self.config.store_max_bytes,
                )
            engine = Engine(cache_size=self.config.cache_size, store=store)
        self.engine = engine
        self.metrics = ServeMetrics()
        self.singleflight = SingleFlight()
        self.pool = RunnerPool(
            max_workers=self.config.pool_workers,
            executor_cache=self.config.executor_cache,
        )
        default = TenantPolicy()
        for policy in self.config.tenants:
            if policy.name == "default":
                default = policy
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight, default=default
        )
        for policy in self.config.tenants:
            if policy.name != "default":
                self.admission.register(policy)
        self._server: asyncio.AbstractServer | None = None
        self.port: int | None = None

    # -- compile path ----------------------------------------------------------

    async def _compile(self, source: str, options: dict):
        """Single-flighted, pool-dispatched Engine.compile.

        Returns ``(program, digest, tier)`` where ``tier`` is
        ``memory``/``disk``/``miss`` from the engine, or ``inflight``
        when this request coalesced onto another request's build.
        """
        key_options = {k: v for k, v in options.items() if k != "strict"}
        digest = self.engine.cache_key(source, **key_options)
        program, shared = await self.singleflight.do(
            digest,
            lambda: self.pool.submit(self.engine.compile, source, **options),
        )
        tier = "inflight" if shared else program.cache_tier
        if shared:
            self.metrics.deduped()
        self.metrics.cache_tier(tier)
        return program, digest, tier

    # -- handlers --------------------------------------------------------------

    async def handle_compile(self, body: dict) -> tuple[int, dict]:
        source = require_source(body)
        options = compile_options(body)
        tenant = str(body.get("tenant", "default"))
        with self.admission.admit(tenant):
            program, digest, tier = await self._compile(source, options)
        report = await self.pool.submit(program.diagnostics)
        return 200, {
            "key": digest,
            "cache": tier,
            "source_sha": program.source_sha,
            "transform": program.options.transform,
            "bytecode": program.bytecode() is not None,
            "diagnostics": report.summary(),
            "stage_seconds": dict(program.stage_seconds),
        }

    async def handle_run(self, body: dict) -> tuple[int, dict]:
        source = require_source(body)
        options = compile_options(body, run=True)
        tenant = str(body.get("tenant", "default"))
        bindings = decode_bindings(body.get("bindings"))
        nproc = body.get("nproc", 0)
        if not isinstance(nproc, int) or isinstance(nproc, bool) or nproc < 0:
            raise ProtocolError(f"'nproc' must be a non-negative int, got {nproc!r}")
        backend = str(body.get("backend", "auto"))
        workers = body.get("workers")
        policy = self.admission.policy_for(tenant)
        with self.admission.admit(tenant):
            program, _digest, tier = await self._compile(source, options)
            start = time.perf_counter()
            if backend == "pmimd":
                result = await self._run_pmimd(
                    program, bindings, nproc, workers, policy
                )
            else:
                result = await self.pool.submit(
                    program.run,
                    bindings,
                    backend=backend,
                    policy=policy.policy(),
                    config=BackendConfig(nproc=nproc, budget=policy.budget()),
                )
            result.wall_seconds = time.perf_counter() - start
        self.metrics.ran(result.backend)
        return 200, encode_run_result(result, tier)

    async def _run_pmimd(self, program, bindings, nproc, workers, policy):
        """Run on the process-parallel backend via a reused executor."""
        if nproc < 1:
            raise ProtocolError("backend 'pmimd' needs nproc >= 1")
        config = BackendConfig(
            nproc=nproc,
            workers=workers,
            budget=policy.budget(),
        )
        executor, _reused = self.pool.pmimd_executor(program, config)
        res = await self.pool.submit(executor.run, bindings=bindings or None)
        steps = max((c.total_steps for c in res.counters), default=0)
        return RunResult(
            env=res.envs,
            counters=res.counters,
            backend="pmimd",
            nproc=nproc,
            cache_hit=program.cache_hit,
            steps=int(steps),
            statements=res.statements,
            events=res.events,
        )

    async def handle_lint(self, body: dict) -> tuple[int, dict]:
        source = require_source(body)
        options = compile_options(body)
        tenant = str(body.get("tenant", "default"))
        with self.admission.admit(tenant):
            program, digest, tier = await self._compile(source, options)
            report = await self.pool.submit(program.diagnostics)
        return 200, {
            "key": digest,
            "cache": tier,
            "summary": report.summary(),
            "diagnostics": report.to_dict().get("diagnostics", []),
        }

    def handle_healthz(self) -> tuple[int, dict]:
        body = {
            "ok": True,
            "uptime_seconds": time.monotonic() - self.metrics.started,
            "inflight": self.metrics.inflight,
        }
        if self.engine.store is not None:
            body["store"] = self.engine.store.stats()
        return 200, body

    def handle_metrics(self) -> tuple[int, dict]:
        body = self.metrics.snapshot()
        body["engine"] = self.engine.stats.snapshot()
        body["pool"] = self.pool.stats()
        body["admission"] = self.admission.snapshot()
        if self.engine.store is not None:
            body["store"] = self.engine.store.stats()
        return 200, body

    # -- routing ---------------------------------------------------------------

    async def dispatch(self, request: Request) -> tuple[int, dict]:
        """Route one request; every error becomes a JSON status."""
        route = (request.method, request.path)
        try:
            if route == ("GET", "/healthz"):
                return self.handle_healthz()
            if route == ("GET", "/metrics"):
                return self.handle_metrics()
            if route == ("POST", "/v1/compile"):
                return await self.handle_compile(request.json())
            if route == ("POST", "/v1/run"):
                return await self.handle_run(request.json())
            if route == ("POST", "/v1/lint"):
                return await self.handle_lint(request.json())
        except AdmissionError as exc:
            self.metrics.rejected()
            return 429, error_body("AdmissionError", str(exc))
        except (ProtocolError, HTTPError) as exc:
            return 400, error_body(type(exc).__name__, str(exc))
        except MiniFError as exc:
            # Compile/runtime faults in the *client's program* — their
            # error, not ours.
            return 400, error_body(type(exc).__name__, str(exc))
        except Exception as exc:  # noqa: BLE001 — the service must answer
            return 500, error_body(type(exc).__name__, str(exc))
        known_paths = {"/healthz", "/metrics", "/v1/compile", "/v1/run", "/v1/lint"}
        if request.path in known_paths:
            return 405, error_body(
                "MethodNotAllowed", f"{request.method} {request.path}"
            )
        return 404, error_body("NotFound", request.path)

    # -- socket layer ----------------------------------------------------------

    async def _client_connected(self, reader, writer) -> None:
        endpoint = "?"
        start = time.perf_counter()
        try:
            try:
                request = await read_request(reader)
            except HTTPError as exc:
                self.metrics.request_started(endpoint)
                status, payload = exc.status, error_body("HTTPError", str(exc))
            else:
                if request is None:
                    return
                endpoint = request.path
                self.metrics.request_started(endpoint)
                status, payload = await self.dispatch(request)
            writer.write(response_bytes(status, payload))
            await writer.drain()
            self.metrics.request_finished(
                endpoint, status, time.perf_counter() - start
            )
        except (ConnectionError, asyncio.CancelledError):
            # client went away mid-exchange; nothing to answer
            self.metrics.request_finished(endpoint, 499, time.perf_counter() - start)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def start(self) -> None:
        """Bind and start accepting; resolves :attr:`port`."""
        self._server = await asyncio.start_server(
            self._client_connected, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def shutdown(self) -> None:
        """Graceful stop: close the listener, drain, stop the pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        deadline = time.monotonic() + self.config.drain_seconds
        while self.metrics.inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        self.pool.shutdown(wait=True)


async def serve(config: ServeConfig, *, ready=None, stop=None) -> None:
    """Boot the service and run until a stop signal.

    Args:
        config: Service settings.
        ready: Optional callback invoked with the :class:`ServeApp`
            once the listener is bound (the CLI prints the URL).
        stop: Optional ``asyncio.Event`` ending the service (tests);
            by default SIGINT/SIGTERM end it.
    """
    import signal

    app = ServeApp(config)
    await app.start()
    if ready is not None:
        ready(app)
    stop_event = stop if stop is not None else asyncio.Event()
    if stop is None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop_event.set)
            except (NotImplementedError, RuntimeError):
                pass  # platform without loop signal handlers
    await stop_event.wait()
    await app.shutdown()


__all__ = ["ServeApp", "ServeConfig", "serve"]
