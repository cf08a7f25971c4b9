"""``serve-mix``: ``repro serve`` from socket to response.

The server runs as a subprocess with a fresh on-disk store,
``--pool-workers`` and ``--cache-size`` set below.  One asyncio client
drives it in a closed loop over ``CONNECTIONS`` concurrent connections
(the server answers one exchange per connection, so each request opens
its own).  Both are at most the machine's CPU count.

Every round is a fixed request sequence over fresh generated programs,
so each round meets the same mix of cache tiers:

* ``HOT`` programs take two of every three requests and stay in the
  memory cache (fewer than ``CACHE_SIZE - REORDER_MARGIN`` other
  programs between two requests for one of them) after a first miss;
* ``COLD`` programs are requested twice, ``2 * COLD_GAP + 1`` cold
  requests apart: the first is a miss that writes the store, the second
  finds the entry evicted from memory (more than
  ``CACHE_SIZE + REORDER_MARGIN`` programs in between) and reads it
  back from disk.

The margins exceed how far two connections can reorder requests, so
each request's tier is fixed by the sequence.  Per round: memory
63.5 %, miss 19.8 %, disk 16.7 % of requests; endpoints are drawn with
fixed counts, 70 % ``/v1/run`` (VM, nproc 4) and 15 % each
``/v1/compile`` and ``/v1/lint``.  No traffic of ``repro serve`` has
been measured: these shares are design choices (mostly runs, every tier
and endpoint present, p50 and p90 away from tier boundaries), not a
recorded mix.

Requests go out in waves of ``WAVE``; between waves the connections
drain and the host-speed reference loop runs (see ``hostspeed``).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from harness import Sample, proc_peak_rss_mb
from workloads import Workload, compare_env, copy_bindings

from repro import Engine
from repro.fuzz import ProgramGenerator

HOST = "127.0.0.1"
CPUS = os.cpu_count() or 1
#: Server execution threads and client connections: at most nproc.
POOL_WORKERS = min(2, CPUS)
CONNECTIONS = min(2, CPUS)
CACHE_SIZE = 16
REORDER_MARGIN = 8
HOT = 6
COLD = {"full": 32, "smoke": 16}
COLD_GAP = 16
RUN_NPROC = 4
ENDPOINT_SHARES = (("run", 0.70), ("compile", 0.15), ("lint", 0.15))
BOOT_TIMEOUT = 60.0
REQUEST_TIMEOUT = 60.0
#: Requests per wave: the connections drain between waves while the
#: host-speed reference loop runs (see ``hostspeed``).
WAVE = 12
TIERS = ("memory", "disk", "miss")


@dataclass
class Request:
    endpoint: str
    program: object  # repro.fuzz.GeneratedProgram
    body: bytes


def round_sequence(hot: int, cold: int, gap: int) -> list[tuple[str, int]]:
    """The round's program order as ``("hot"|"cold", index)`` pairs:
    two hot requests (cycling over the hot set) before every cold one;
    cold ``m`` first appears at cold slot ``2m`` and again ``2 * gap + 1``
    cold slots later."""
    cold_slots = []
    for m in range(cold + gap):
        if m < cold:
            cold_slots.append(m)
        if m >= gap:
            cold_slots.append(m - gap)
    sequence = []
    hot_next = 0
    for m in cold_slots:
        for _ in range(2):
            sequence.append(("hot", hot_next % hot))
            hot_next += 1
        sequence.append(("cold", m))
    return sequence


class ServeMix(Workload):
    name = "serve-mix"
    concurrency = CONNECTIONS
    # The server's threads and the client share both CPUs.
    every_cpu = True
    classes = {"memory": 0.635, "disk": 0.167, "miss": 0.198}
    layer_names = (
        "runtime.memory_ms", "runtime.disk_ms", "runtime.miss_ms",
        "runtime.memory_hits", "runtime.disk_hits", "runtime.misses",
        "runtime.store_saves", "serve.deduped", "serve.rejected",
        "serve.run_ms", "serve.compile_ms", "serve.lint_ms", "serve.http_ms",
        "serve.run_pct", "serve.compile_pct", "serve.lint_pct",
        "runtime.memory_pct", "runtime.disk_pct", "runtime.miss_pct",
        "serve.boot_s",
    )

    def setup(self) -> None:
        self.generator = ProgramGenerator(seed=self.seed)
        self.engine = Engine()
        self.sequence = round_sequence(HOT, COLD[self.size], COLD_GAP)
        self._references: dict[str, dict] = {}
        self._lint: dict[str, str] = {}
        self.server_metrics: dict = {}
        self.server_peak_mb = 0.0
        self.loop = asyncio.new_event_loop()
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        root = os.path.dirname(here)
        self.store = os.path.join(here, ".out", f"serve-store-{os.getpid()}")
        shutil.rmtree(self.store, ignore_errors=True)
        os.makedirs(self.store)
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        start = time.perf_counter()
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", HOST,
             "--port", "0", "--store-dir", self.store,
             "--cache-size", str(CACHE_SIZE),
             "--pool-workers", str(POOL_WORKERS)],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        )
        self.port = self._await_port()
        self.setup_layers["serve.boot_s"] = time.perf_counter() - start
        # Warm-up: one request per endpoint on programs no round uses.
        warm = ProgramGenerator(seed=self.seed + 1_000_003)
        warm_requests = [self._request(endpoint, warm.generate(i))
                         for i, (endpoint, _share) in enumerate(ENDPOINT_SHARES)]
        for request in warm_requests:
            status, _body = self.loop.run_until_complete(self._exchange(request))
            if status != 200:
                raise RuntimeError(f"warm-up /v1/{request.endpoint} answered {status}")

    def _await_port(self) -> int:
        pattern = re.compile(r"listening on http://[\w.]+:(\d+)")
        deadline = time.monotonic() + BOOT_TIMEOUT
        while time.monotonic() < deadline:
            line = self.server.stdout.readline()
            if not line:
                raise RuntimeError(f"repro serve exited with {self.server.wait()}")
            match = pattern.search(line)
            if match:
                return int(match.group(1))
        raise RuntimeError("repro serve did not report its port")

    # -- requests --------------------------------------------------------------

    def _request(self, endpoint: str, program) -> Request:
        body = {"source": program.source}
        if endpoint == "run":
            body.update(
                bindings={name: value.tolist() if hasattr(value, "tolist") else value
                          for name, value in program.bindings.items()},
                nproc=RUN_NPROC, backend="vm")
        return Request(endpoint, program, json.dumps(body).encode())

    def prepare_round(self, round_index: int) -> None:
        rng = random.Random(f"perfbench/serve-mix/{self.seed}/{round_index}")
        cold = COLD[self.size]
        base = round_index * (HOT + cold)
        programs = {("hot", i): self.generator.generate(base + i) for i in range(HOT)}
        programs.update({("cold", i): self.generator.generate(base + HOT + i)
                         for i in range(cold)})
        count = len(self.sequence)
        endpoints = []
        for endpoint, share in ENDPOINT_SHARES[1:]:
            endpoints += [endpoint] * round(share * count)
        endpoints += ["run"] * (count - len(endpoints))
        rng.shuffle(endpoints)
        self.requests = [self._request(endpoint, programs[slot])
                         for endpoint, slot in zip(endpoints, self.sequence)]

    async def _exchange(self, request: Request) -> tuple[int, bytes]:
        return await self._http("POST", f"/v1/{request.endpoint}", request.body)

    async def _http(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        """One HTTP/1.1 exchange on a fresh connection: (status, body)."""
        reader, writer = await asyncio.open_connection(HOST, self.port)
        try:
            head = f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
            if body:
                head += (f"Content-Type: application/json\r\n"
                         f"Content-Length: {len(body)}\r\n")
            writer.write(f"{head}Connection: close\r\n\r\n".encode() + body)
            await writer.drain()
            response = await reader.read()
        finally:
            writer.close()
            await writer.wait_closed()
        head, _sep, body = response.partition(b"\r\n\r\n")
        return int(head.split(b" ", 2)[1]), body

    async def _client(self, queue: list, samples: list, tracer, base: int) -> None:
        while queue:
            op_id, request = queue.pop()
            start = time.perf_counter()
            kwargs = dict(traced=tracer.enabled, position=op_id, start=start)
            try:
                status, body = await asyncio.wait_for(
                    self._exchange(request), REQUEST_TIMEOUT)
                exchanged = time.perf_counter()
                payload = json.loads(body)
            except (OSError, ValueError, IndexError, asyncio.TimeoutError) as error:
                samples.append(Sample(time.perf_counter() - start, "error", request,
                                      error=f"{type(error).__name__}: {error}",
                                      **kwargs))
                continue
            end = time.perf_counter()
            tier = payload.get("cache", "error") if status == 200 else "error"
            sample = Sample(end - start, tier, request, (status, payload),
                            error=None if status == 200 else f"HTTP {status}: {body[:200]!r}",
                            **kwargs)
            samples.append(sample)
            if tracer.enabled:
                root = tracer.record(base + op_id, "op", start, end)
                tracer.record(base + op_id, f"serve.{request.endpoint}", start,
                              exchanged, parent=root)

    def run_round(self, round_index: int, tracer) -> list[Sample]:
        requests = list(enumerate(self.requests))
        samples: list[Sample] = []
        base = round_index * len(self.requests)

        async def drive(queue):
            await asyncio.gather(*(self._client(queue, samples, tracer, base)
                                   for _ in range(CONNECTIONS)))

        for first in range(0, len(requests), WAVE):
            self.host.sample()
            self.loop.run_until_complete(drive(requests[first:first + WAVE][::-1]))
        self.host.sample()
        return samples

    # -- checks ----------------------------------------------------------------

    def check(self, sample: Sample) -> str | None:
        request = sample.op
        _status, payload = sample.output
        program = request.program
        if request.endpoint == "run":
            if program.source not in self._references:
                self._references[program.source] = self.engine.compile(
                    program.source).run(copy_bindings(program.bindings),
                                        backend="scalar").env
            problem = compare_env(program, self._references[program.source],
                                  payload.get("env", {}))
            return f"/v1/run {program.index}: {problem}" if problem else None
        key = self.engine.cache_key(program.source)
        if payload.get("key") != key:
            return f"/v1/{request.endpoint} {program.index}: key {payload.get('key')}"
        summary = payload.get("diagnostics" if request.endpoint == "compile"
                              else "summary")
        if not isinstance(summary, str):
            return f"/v1/{request.endpoint} {program.index}: no diagnostics summary"
        if self._lint.setdefault(program.source, summary) != summary:
            return f"/v1/{request.endpoint} {program.index}: diagnostics changed"
        return None

    def fingerprint(self, samples: list[Sample]) -> dict:
        counts = {f"serve.{endpoint}": 0 for endpoint, _share in ENDPOINT_SHARES}
        counts.update({f"runtime.{tier}": 0 for tier in TIERS})
        for sample in samples:
            counts[f"serve.{sample.op.endpoint}"] += 1
            counts[f"runtime.{sample.cls}"] = counts.get(f"runtime.{sample.cls}", 0) + 1
        return counts

    def layer_metrics(self, tracer, samples: list[Sample]) -> dict[str, float]:
        metrics = {}
        for tier in TIERS:
            metrics[f"runtime.{tier}_ms"] = _median_ms(
                s.latency for s in samples if s.cls == tier)
        for endpoint, _share in ENDPOINT_SHARES:
            metrics[f"serve.{endpoint}_ms"] = _median_ms(
                s.latency for s in samples if s.op.endpoint == endpoint)
        metrics["serve.http_ms"] = _median_ms(
            s.latency - s.output[1]["wall_seconds"] for s in samples
            if s.op.endpoint == "run" and s.error is None)
        counts = self.fingerprint(samples[: len(self.requests)])
        for name, count in counts.items():
            metrics[f"{name}_pct"] = 100.0 * count / len(self.requests)
        engine = self.server_metrics.get("engine", {})
        metrics.update({
            "runtime.memory_hits": engine.get("hits", 0),
            "runtime.disk_hits": engine.get("disk_hits", 0),
            "runtime.misses": engine.get("misses", 0),
            "runtime.store_saves": engine.get("store_saves", 0),
            "serve.deduped": self.server_metrics.get("singleflight_deduped", 0),
            "serve.rejected": self.server_metrics.get("admission_rejected", 0),
        })
        return metrics

    # -- teardown --------------------------------------------------------------

    def peak_rss_mb(self) -> float:
        return self.server_peak_mb

    def close(self) -> None:
        server = getattr(self, "server", None)
        try:
            if server is not None and server.poll() is None:
                if getattr(self, "port", None):
                    _status, body = self.loop.run_until_complete(
                        self._http("GET", "/metrics"))
                    self.server_metrics = json.loads(body)
                self.server_peak_mb = proc_peak_rss_mb(server.pid)
        finally:
            if server is not None:
                if server.poll() is None:
                    server.send_signal(signal.SIGTERM)
                try:
                    server.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    server.kill()
                    server.wait()
                server.stdout.close()
            if hasattr(self, "loop"):
                self.loop.close()
            if hasattr(self, "store"):
                shutil.rmtree(self.store, ignore_errors=True)


def _median_ms(seconds) -> float:
    values = list(seconds)
    return 1e3 * statistics.median(values) if values else 0.0


WORKLOAD = ServeMix
