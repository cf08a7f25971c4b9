"""The benchmark's own tests: steadiness guards, exact-count repeats,
the public-API-only rule, and the contract's failure mode.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from collections import OrderedDict

import numpy
import pytest

import harness
import hostspeed
from workloads import MODULES
from workloads import compile_corpus, nbforce_pmimd, serve_mix
from workloads.compile_corpus import CompileCorpus
from workloads.nbforce_vm import NBForceVM

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
#: Per-layer metrics the worker adds for every workload.
WORKER_LAYERS = {"runtime.import_s", "trace.overhead", "trace.unattributed_pct"}


def smoke(workload: str, *extra: str) -> dict:
    """The workload's smallest configuration in a fresh worker, with
    every DeprecationWarning raised as an error."""
    proc = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning",
         os.path.join(BENCH, "worker.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--size", "smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=sorted(MODULES))
def smoke_pair(request):
    return request.param, smoke(request.param), smoke(request.param, "--trace")


def test_smoke_runs_clean_and_counts_repeat(smoke_pair):
    name, plain, traced = smoke_pair
    for report in (plain, traced):
        assert report["attempted"] >= 1
        assert report["failed"] == 0
        # No warm-up (compile misses, imports) inside the timed region.
        assert report["guards"] == []
    assert plain["fingerprint"] and plain["fingerprint"] == traced["fingerprint"]


def test_traced_run_reports_every_declared_layer(smoke_pair):
    name, _plain, traced = smoke_pair
    module = __import__(MODULES[name], fromlist=["WORKLOAD"])
    missing = set(module.WORKLOAD.layer_names) - set(traced["metrics"])
    assert not missing
    metrics = traced["metrics"]
    assert metrics["trace.unattributed_pct"] <= 100 * harness.UNATTRIBUTED_BOUND
    assert metrics["trace.overhead"] > 0


def test_benchmark_json_names_every_layer():
    declared = {entry["name"] for entry in SPEC["per_layer"]}
    produced = set(WORKER_LAYERS)
    for module_name in MODULES.values():
        module = __import__(module_name, fromlist=["WORKLOAD"])
        produced |= set(module.WORKLOAD.layer_names)
    assert declared == produced
    assert [w["name"] for w in SPEC["workloads"]] == list(MODULES)
    e2e = {entry["name"]: entry for entry in SPEC["end_to_end"]}
    assert set(e2e) == {"setup_s", "wall_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"}
    assert e2e["setup_s"]["bound"] == max(entry["bound"] for entry in e2e.values())


def test_percentile_tails():
    floor = harness.min_samples()
    assert harness.tail_guard(floor) == []
    assert harness.tail_guard(floor - 1)
    assert harness.samples_beyond(floor, 0.90) >= harness.MIN_TAIL_SAMPLES


@pytest.mark.parametrize("name", sorted(MODULES))
def test_stated_classes_keep_percentiles_off_boundaries(name):
    """Classes are stated in ascending latency order; no percentile
    rank may fall within the margin of a cumulative boundary."""
    module = __import__(MODULES[name], fromlist=["WORKLOAD"])
    shares = list(module.WORKLOAD.classes.values())
    assert sum(shares) == pytest.approx(1.0, abs=1e-3)
    cumulative = 0.0
    for share in shares[:-1]:
        cumulative += share
        for q in harness.PERCENTILES:
            assert abs(cumulative - q) >= harness.CLASS_MARGIN


def test_class_guard_flags_a_boundary_on_p90():
    samples = [harness.Sample(1.0, "fast", None) for _ in range(90)]
    samples += [harness.Sample(9.0, "slow", None) for _ in range(10)]
    assert harness.class_guard(samples)


def test_nbforce_vm_op_list_has_stated_shares():
    workload = NBForceVM(seed=3, size="full")
    workload.setup()
    assert harness.class_shares(
        [harness.Sample(0.0, op.cls, op) for op in workload.op_list]
    ) == pytest.approx(NBForceVM.classes)


def test_workers_threads_and_connections_fit_the_machine():
    cpus = os.cpu_count() or 1
    assert nbforce_pmimd.WORKERS <= cpus
    assert serve_mix.POOL_WORKERS <= cpus
    assert serve_mix.CONNECTIONS <= cpus


def _tiers(sequence, cache_size):
    """Cache tier of each request under the server's LRU + store."""
    memory, store, tiers = OrderedDict(), set(), []
    for key in sequence:
        if key in memory:
            memory.move_to_end(key)
            tiers.append("memory")
            continue
        tiers.append("disk" if key in store else "miss")
        store.add(key)
        memory[key] = True
        while len(memory) > cache_size:
            memory.popitem(last=False)
    return tiers


@pytest.mark.parametrize("size", ["full", "smoke"])
def test_serve_tiers_survive_reordering(size):
    sequence = serve_mix.round_sequence(
        serve_mix.HOT, serve_mix.COLD[size], serve_mix.COLD_GAP)
    expected = _tiers(sequence, serve_mix.CACHE_SIZE)
    if size == "full":
        shares = {t: expected.count(t) / len(expected) for t in serve_mix.TIERS}
        assert shares == pytest.approx(serve_mix.ServeMix.classes, abs=1e-3)
    # Two connections can swap neighbouring requests; the tier counts
    # must not depend on it.
    for offset in (0, 1):
        swapped = list(sequence)
        for i in range(offset, len(swapped) - 1, 2):
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        tiers = _tiers(swapped, serve_mix.CACHE_SIZE)
        assert sorted(tiers) == sorted(expected)


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nbforce-vm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_speed_scales_by_the_samples_around_a_timing():
    host = hostspeed.HostSpeed()
    host.times[None] = [0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0]
    host.durations[None] = [0.001] * 4 + [0.002] * 4
    # Before t = 5 the window holds three 1 ms and three 2 ms samples.
    assert host.scale(1.5) == pytest.approx(hostspeed.REFERENCE_S / 0.001)
    assert host.scale(12.5) == pytest.approx(hostspeed.REFERENCE_S / 0.002)
    assert host.scale(5.0) == pytest.approx(hostspeed.REFERENCE_S / 0.0015)


def test_host_speed_on_every_cpu_takes_the_mean_of_the_cpus():
    host = hostspeed.HostSpeed(every_cpu=True)
    host.sample()
    host.sample()
    assert all(len(host.durations[cpu]) == 2 for cpu in host.cpus)
    assert sorted(os.sched_getaffinity(0)) == host.cpus
    for cpu, duration in zip(host.cpus, (0.001, 0.003)):
        host.durations[cpu] = [duration, duration]
    if len(host.cpus) == 2:
        assert host.scale(0.0) == pytest.approx(hostspeed.REFERENCE_S / 0.002)


def test_force_lanes_count_only_lanes_the_mask_enables():
    tracer = harness.Tracer()
    wrapped = tracer.wrap_external("md.force", lambda *args: None)
    mask = numpy.array([True, False, True, False])
    with tracer.op(0):
        wrapped(None, [], [None, numpy.ones((4, 3))], {}, mask)
        wrapped(None, [], [None, numpy.ones(4)], {}, mask)
        wrapped(None, [], [None, numpy.ones(4)], {})
    assert [span.args["lanes"] for span in tracer.spans
            if span.name == "md.force"] == [6, 2, 4]


def test_compile_corpus_draws_one_program_per_length_stratum():
    first, again = CompileCorpus(seed=4, size="full"), CompileCorpus(seed=4, size="full")
    first.setup()
    again.setup()
    sources = [op.program.source for op in first.op_list]
    assert sources == [op.program.source for op in again.op_list]
    assert len(set(sources)) == len(sources) == compile_corpus.PROGRAMS["full"]
