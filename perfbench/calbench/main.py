"""Command line: run one workload, print its metrics, check its outputs.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``

The run repeats whole rounds of the workload and stops at the round
boundary nearest to ``--seconds`` of host time (at least one round).
Every round of a run offers the same inputs, so the simulated-time
figures of all rounds must agree; a host-time rate is the work of all
rounds over their summed host time.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import resource
import statistics
import time
from typing import Dict, List, Tuple

from calbench import tracing
from calbench.stats import percentile, tail_level
from calbench.workloads import WORKLOADS, Outcome

__all__ = ["END_TO_END", "PER_LAYER", "main"]

#: (name, unit, better) of every end-to-end metric; every workload
#: reports all of them.  They are host measurements: the simulated-time
#: service figures depend on each seed's schedule too much to gate on
#: (see README.md) and are reported with the per-layer metrics.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("media_pkts_per_s", "1/s", "higher"),
    ("requests_per_s", "1/s", "higher"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) of the simulated-time service figures.  They
#: repeat exactly for a seed; 0 where a workload has no such samples.
SERVICE = (
    ("core.msu.lateness_p50_ms", "ms", "lower"),
    ("core.msu.lateness_p999_ms", "ms", "lower"),
    ("clients.startup_p50_ms", "ms", "lower"),
    ("clients.startup_p99_ms", "ms", "lower"),
    ("clients.seek_p50_ms", "ms", "lower"),
)

#: (name, unit, better) of every per-layer metric of the traced run.
PER_LAYER = tuple(
    [(f"{layer}.self_s", "s", "lower") for layer in tracing.LAYERS + ("other",)]
    + [
        ("sim.events", "count", "lower"),
        ("sim.events_per_pkt", "count", "lower"),
        ("sim.resource_requests", "count", "lower"),
        ("core.msu.us_per_pkt", "us", "lower"),
        ("core.msu.pkts_sent", "count", "higher"),
        ("core.msu.pages_read", "count", "lower"),
        ("core.msu.pages_written", "count", "lower"),
        ("core.msu.pages_from_cache", "count", "higher"),
        ("core.msu.duty_cycles", "count", "lower"),
        ("hardware.us_per_pkt", "us", "lower"),
        ("hardware.nic_pkts", "count", "higher"),
        ("hardware.nic_drops", "count", "lower"),
        ("hardware.disk_requests", "count", "lower"),
        ("hardware.memory_transfers", "count", "lower"),
        ("net.datagrams", "count", "lower"),
        ("net.control_msgs", "count", "lower"),
        ("core.admissions", "count", "higher"),
        ("core.admission_us", "us", "lower"),
        ("core.queued", "count", "lower"),
        ("recovery.wal_appends", "count", "lower"),
        ("recovery.wal_append_us", "us", "lower"),
        ("recovery.snapshots", "count", "lower"),
        ("recovery.snapshot_ms", "ms", "lower"),
        ("storage.pages_parsed", "count", "lower"),
        ("storage.pages_packed", "count", "lower"),
        ("cache.hit_ratio", "ratio", "higher"),
        ("cache.covered_admissions", "count", "higher"),
        ("failover.migrations", "count", "lower"),
        ("verify.checks", "count", "higher"),
        ("trace.overhead_x", "x", "lower"),
    ]
    + list(SERVICE)
)

#: Set-ups per round for workloads that build one cluster per round.
MIN_SETUPS = 3
#: No packet of steady-play may be this late (Graph 1 at 22 streams has
#: 99.6 % within 50 ms and none beyond 150 ms, paper §3.2.1).
STEADY_LATE_LIMIT_S = 0.050


def _round(workload, with_counters: bool = False, min_setups: int = MIN_SETUPS):
    """One round: (outcome, set-up seconds, counters)."""
    inputs = workload.inputs()
    setups: List[float] = []
    state = None
    while len(setups) < min_setups:
        state = None  # free the previous build before timing the next
        gc.collect()
        state, times = workload.setup(inputs)
        setups.extend(times)
    del inputs
    outcome = workload.drive(state)
    counts = tracing.counters(workload.systems(state)) if with_counters else {}
    return outcome, setups, counts


def _rounds(workload, seconds: float, with_counters: bool = False):
    """Whole rounds, ending at the round boundary nearest ``seconds``.

    A further round is run while the mean round so far would end it
    before the deadline or overshoot by less than the run falls short.
    """
    started = time.perf_counter()
    rounds = []
    while True:
        rounds.append(_round(workload, with_counters))
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * elapsed / len(rounds) >= seconds:
            return rounds


def _signature(outcome: Outcome) -> Tuple:
    """What every round of one seed must repeat exactly."""
    return (
        outcome.attempted, outcome.failed, outcome.requests,
        outcome.media_pkts, outcome.ingest_bytes, outcome.plan_ops,
        len(outcome.lateness_s), sum(outcome.lateness_s),
        sum(outcome.startup_s), sum(outcome.seek_s),
    )


def _problems(workload, rounds) -> List[str]:
    """Broken output properties; an empty list means correct."""
    first = rounds[0][0]
    problems = list(first.errors)
    if any(_signature(r[0]) != _signature(first) for r in rounds[1:]):
        problems.append("rounds with the same inputs gave different outputs")
    if workload.name == "steady-play" and first.lateness_s:
        worst = max(first.lateness_s)
        if worst >= STEADY_LATE_LIMIT_S:
            problems.append(f"a packet was {worst * 1e3:.1f} ms late")
    return problems


def _ms(samples: List[float], level: float) -> float:
    return percentile(samples, level) * 1e3


def _rate(rounds, field: str) -> float:
    """Work of every round over their summed host time.

    Not the median over rounds: a run holds two to eight rounds of
    seconds each, and the shared host's speed shifts by a third for
    seconds at a time, so a median follows whichever speed held most of
    the run while the summed time averages over it.
    """
    return (sum(getattr(r[0], field) for r in rounds)
            / sum(r[0].run_s for r in rounds))


def end_to_end(rounds) -> Dict[str, float]:
    """The end-to-end metrics of an untraced run."""
    return {
        "setup_s": statistics.median(t for r in rounds for t in r[1]),
        "media_pkts_per_s": _rate(rounds, "media_pkts"),
        "requests_per_s": _rate(rounds, "requests"),
        "ops_per_s": _rate(rounds, "attempted"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def service(outcome: Outcome) -> Dict[str, float]:
    """Simulated-time service figures of one round (0 without samples)."""
    def at(samples, level):
        return _ms(samples, level) if samples and tail_level(len(samples)) >= level else 0.0

    return {
        "core.msu.lateness_p50_ms": at(outcome.lateness_s, 50.0),
        "core.msu.lateness_p999_ms": at(outcome.lateness_s, 99.9),
        "clients.startup_p50_ms": at(outcome.startup_s, 50.0),
        "clients.startup_p99_ms": at(outcome.startup_s, 99.0),
        "clients.seek_p50_ms": at(outcome.seek_s, 50.0),
    }


def workload_figures(rounds) -> Dict[str, Tuple[float, str]]:
    """Figures a run prints beside its metrics, for reading, not gating."""
    first = rounds[0][0]
    out = {name: (value, "ms") for name, value in service(first).items() if value}
    if first.ingest_bytes:
        out["ingest_mb_per_s"] = (_rate(rounds, "ingest_bytes") / 1e6, "MB/s")
    if first.plan_ops:
        out["chaos_ops_per_s"] = (_rate(rounds, "plan_ops"), "1/s")
    return out


def per_layer(workload, seconds: float) -> Tuple[Dict[str, float], list]:
    """The traced run: spans and counters, then one profiled round.

    Returns the metrics and every round made, the profiled one last.
    """
    spans = tracing.control_plane_spans()
    try:
        rounds = _rounds(workload, seconds, with_counters=True)
    finally:
        spans.close()
    profile = cProfile.Profile()
    profile.enable()
    try:
        profiled, _, _ = _round(workload, min_setups=1)
    finally:
        profile.disable()
    stats = pstats.Stats(profile).stats
    self_s = tracing.layer_self_times(profile)

    def calls(path_suffix: str, *names: str) -> int:
        return sum(tracing.call_count(stats, path_suffix, name) for name in names)

    counts = rounds[0][2]
    pkts = counts["core.msu.pkts_sent"]
    metrics = {f"{layer}.self_s": self_s.get(layer, 0.0)
               for layer in tracing.LAYERS + ("other",)}
    metrics.update(counts)
    metrics.update({
        "sim.events_per_pkt": counts["sim.events"] / pkts if pkts else 0.0,
        "sim.resource_requests": calls("sim/resources.py", "request"),
        "core.msu.us_per_pkt": metrics["core.msu.self_s"] / pkts * 1e6 if pkts else 0.0,
        "hardware.us_per_pkt": metrics["hardware.self_s"] / pkts * 1e6 if pkts else 0.0,
        "hardware.memory_transfers": calls("hardware/memory.py", "_transfer"),
        "core.admission_us": spans.mean("admission", 1e6),
        "recovery.wal_append_us": spans.mean("wal_append", 1e6),
        "recovery.snapshot_ms": spans.mean("snapshot", 1e3),
        "storage.pages_parsed": calls("storage/ibtree.py", "parse_page"),
        "storage.pages_packed": calls(
            "storage/ibtree.py", "_pack_page", "_trailer_page"),
        "trace.overhead_x": profiled.run_s / statistics.median(
            r[0].run_s for r in rounds),
    })
    metrics.update(service(rounds[0][0]))
    rounds.append((profiled, [], {}))
    return {name: float(metrics.get(name, 0.0)) for name, _, _ in PER_LAYER}, rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, rounds = per_layer(workload, args.seconds)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        rounds = _rounds(workload, args.seconds)
        metrics = end_to_end(rounds)
        units = {name: unit for name, unit, _ in END_TO_END}
    problems = _problems(workload, rounds)
    attempted = sum(r[0].attempted for r in rounds)
    failed = sum(r[0].failed for r in rounds)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(rounds)} rounds, {attempted} operations, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    for name, (value, unit) in workload_figures(rounds).items():
        if name not in metrics:
            print(f"  {name:<28} {value:>14.6g} {unit}   (not gated)")
    for line in rounds[0][0].failures[:10]:
        print(f"  failed: {line}")
    for line in problems[:10]:
        print(f"  INCORRECT: {line}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0
