"""Tier-1 fuzz smoke: a ~200-program differential campaign.

This is the fast always-on tier; the nightly CI job runs the same
campaign at 10k programs.  Seeding is positional — `pytest-randomly`
or test reordering cannot change which programs are generated.
"""

from collections import Counter

import pytest

from repro.fuzz import run_fuzz

#: The campaign's exact per-leg outcome counts: which legs run, reject
#: or skip on which programs is part of the oracle's behaviour.
EXPECTED_STATUS_COUNTS = {
    ("coalesce/f77", "ok"): 16,
    ("coalesce/f77", "rejected"): 184,
    **{
        (label, "ok"): 200
        for label in (
            "flatten/auto/simd",
            "flatten/auto/vm-fuse",
            "flatten/general/f77",
            "flatten/general/simd",
            "flatten/general/hooked",
            "none/simd",
            "none/mimd",
            "none/vm-fuse",
            "none/vm-ckpt",
            "none/interp-ckpt",
        )
    },
    **{
        (label, status): count
        for label in ("flatten/optimized/simd", "flatten/done/simd")
        for status, count in (("ok", 158), ("skipped", 42))
    },
    **{
        (label, status): count
        for label in ("none/fission", "none/fission/f77")
        for status, count in (("ok", 89), ("rejected", 111))
    },
    **{
        (label, status): count
        for label in ("none/interchange", "none/interchange/f77")
        for status, count in (("ok", 13), ("rejected", 187))
    },
    **{
        (label, "ok"): 112
        for label in (
            "simdize/block",
            "spmd/general/block",
            "spmd/auto/cyclic",
            "spmd/general/block/hooked",
        )
    },
    ("spmd+simdize", "skipped"): 88,
}


@pytest.mark.fuzz_smoke
def test_fuzz_smoke_campaign():
    statuses = Counter()

    def collect(index, verdict):
        statuses.update((leg.label, leg.status) for leg in verdict.legs)

    report = run_fuzz(seed=20260805, iterations=200, nproc=4, max_failures=5,
                      progress=collect)
    assert report.checked == 200
    assert report.ok, report.summary()
    assert dict(statuses) == EXPECTED_STATUS_COUNTS
    # the campaign must actually exercise the matrix, not skip it
    assert report.leg_stats.get("flatten/general/simd") == 200
    assert report.leg_stats.get("none/mimd") == 200
    assert report.leg_stats.get("spmd/general/block", 0) > 20
    assert report.leg_stats.get("flatten/optimized/simd", 0) > 50
    # superinstruction legs: fused vs unfused VM dispatch must agree
    # (and the verifier must accept every fused CodeObject) on every
    # program of the campaign
    assert report.leg_stats.get("none/vm-fuse") == 200
    assert report.leg_stats.get("flatten/auto/vm-fuse") == 200
    # durable-execution legs: interrupt at a seeded random step +
    # resume from the last checkpoint must be bit-identical to the
    # uninterrupted run (env and exact counters) on every program
    assert report.leg_stats.get("none/vm-ckpt") == 200
    assert report.leg_stats.get("none/interp-ckpt") == 200
    # dependence-framework legs: the graph's legality verdicts must
    # accept a healthy share of the corpus (fission distributes about
    # half the generated loops, interchange the perfect rectangular
    # 2-nests) and every accepted program must match the reference
    assert report.leg_stats.get("none/fission", 0) > 60
    assert report.leg_stats.get("none/fission/f77", 0) > 60
    assert report.leg_stats.get("none/interchange", 0) > 5
    assert report.leg_stats.get("none/interchange/f77", 0) > 5
