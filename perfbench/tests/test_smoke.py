"""Short runs of every workload, shrunk, end to end through the runner."""

import json
import os

import pytest

from calbench import main as bench
from calbench.workloads import (
    WORKLOADS, ChaosComposed, RecordMix, SteadyPlay, ZapChurn,
)


class TinySteady(SteadyPlay):
    viewers = 4
    titles = 2
    title_seconds = 3.0


class TinyZap(ZapChurn):
    titles = 4
    title_seconds = 6.0
    sessions = 12


class TinyRecord(RecordMix):
    cameras = 2
    viewers = 2
    title_seconds = 3.0
    take_seconds = 2.0


class TinyChaos(ChaosComposed):
    CORE = ()
    SEEDED = (6,)
    KNOWN_FAULTS = ()


@pytest.mark.parametrize("workload", [TinySteady, TinyZap, TinyRecord, TinyChaos])
def test_shrunk_workload_runs_clean(workload):
    w = workload(seed=3)
    outcome, setups, counts = bench._round(w, with_counters=True)
    assert outcome.attempted > 0
    assert outcome.failures == [] and outcome.errors == []
    assert outcome.media_pkts > 0 and outcome.requests > 0
    assert len(setups) >= bench.MIN_SETUPS
    assert counts["sim.events"] > 0 and counts["core.msu.pkts_sent"] > 0
    rounds = [(outcome, setups, counts)]
    assert bench._problems(w, rounds) == []


def test_same_seed_repeats_exactly():
    first = bench._round(TinyZap(seed=4))[0]
    second = bench._round(TinyZap(seed=4))[0]
    assert bench._signature(first) == bench._signature(second)


def test_traced_round_reports_every_layer_metric():
    metrics, rounds = bench.per_layer(TinySteady(seed=2), seconds=0.01)
    assert set(metrics) == {name for name, _, _ in bench.PER_LAYER}
    assert metrics["sim.self_s"] > 0 and metrics["core.admission_us"] > 0
    assert metrics["trace.overhead_x"] > 1.0


def test_benchmark_json_matches_the_runner():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in bench.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in bench.PER_LAYER
    ]
