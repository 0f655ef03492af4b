"""The traced run: layer self time, control-plane spans and counters.

Nothing here is installed in the program.  Self time comes from
cProfile, attributed to a layer by the module a function lives in; the
spans are timing wrappers this module puts around a few synchronous
control-plane calls for the length of a round and then removes; the
counts are the program's public counters plus cProfile call counts.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from collections import defaultdict
from typing import Dict, Iterable, Optional

import repro

__all__ = [
    "LAYERS", "layer_of", "layer_self_times", "call_count", "Spans",
    "control_plane_spans", "counters",
]

_PROGRAM_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + os.sep

#: The program's layers, named after its modules under ``src/repro/``.
LAYERS = (
    "sim", "hardware", "storage", "core.msu", "core", "net", "cache",
    "recovery", "failover", "multicast", "edge", "live", "verify",
    "clients", "metrics",
)


def layer_of(path: str) -> Optional[str]:
    """The layer a source file belongs to; None outside the program.

    The benchmark's own files are the load generator, so they count as
    ``clients``.  Program modules outside :data:`LAYERS` count as
    ``other``.
    """
    if not os.path.isabs(path):
        return None  # built-ins ("~") and generated code ("<string>")
    path = os.path.normpath(path)
    if path.startswith(_BENCH_DIR):
        return "clients"
    if not path.startswith(_PROGRAM_DIR):
        return None
    parts = path[len(_PROGRAM_DIR):].split(os.sep)
    if parts[0] == "core" and len(parts) > 2 and parts[1] == "msu":
        return "core.msu"
    name = parts[0] if len(parts) > 1 else parts[0][:-3]
    return name if name in LAYERS else "other"


def layer_self_times(profile: cProfile.Profile) -> Dict[str, float]:
    """Self seconds per layer.

    Built-in and library functions have no layer of their own: their
    self time is split among the layers of their direct callers, in
    proportion to the time each caller spent in them.
    """
    times: Dict[str, float] = defaultdict(float)
    for func, (_, _, self_s, _, callers) in pstats.Stats(profile).stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            times[layer] += self_s
            continue
        total = sum(edge[2] for edge in callers.values())
        if total <= 0.0:
            times["other"] += self_s
            continue
        for caller, edge in callers.items():
            times[layer_of(caller[0]) or "other"] += self_s * edge[2] / total
    return dict(times)


def call_count(profile_stats, path_suffix: str, name: str) -> int:
    """Calls of function ``name`` defined in a file ending ``path_suffix``."""
    return sum(
        entry[1]
        for (path, _, func), entry in profile_stats.items()
        if (func == name or func.endswith("." + name))
        and path.endswith(path_suffix)
    )


class Spans:
    """Timing wrappers around named callables, removed by :meth:`close`.

    A call made while a span of the same key is already open (for
    example ``place_read`` calling ``apply``) belongs to the outer span.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._depth: Dict[str, int] = defaultdict(int)
        self._undo = []

    def wrap(self, owner, attr: str, key: str) -> None:
        """Time calls of ``owner.attr`` (a class or a module) as ``key``."""
        original = vars(owner)[attr]
        seconds, calls, depth = self.seconds, self.calls, self._depth

        def timed(*args, **kwargs):
            if depth[key]:
                return original(*args, **kwargs)
            depth[key] = 1
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                seconds[key] += time.perf_counter() - started
                calls[key] += 1
                depth[key] = 0

        setattr(owner, attr, timed)
        self._undo.append((owner, attr, original))

    def close(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def mean(self, key: str, scale: float) -> float:
        """Mean span length of ``key`` in units of ``1/scale`` seconds."""
        calls = self.calls.get(key, 0)
        return self.seconds[key] / calls * scale if calls else 0.0


def control_plane_spans() -> Spans:
    """Open the spans the per-layer table reports."""
    import repro.core.coordinator as coordinator
    from repro.core.admission import AdmissionControl
    from repro.recovery.journal import JournalStore

    spans = Spans()
    for attr in ("place_read", "apply", "release"):
        spans.wrap(AdmissionControl, attr, "admission")
    spans.wrap(JournalStore, "append", "wal_append")
    # The Coordinator serializes its state for every snapshot it installs.
    spans.wrap(coordinator, "snapshot_state", "snapshot")
    return spans


def counters(systems: Iterable) -> Dict[str, float]:
    """Sum the program's public counters over every system of a round."""
    out: Dict[str, float] = defaultdict(float)
    for sim, cluster, harness in systems:
        out["sim.events"] += sim.events_executed
        for msu in cluster.msus:
            out["core.msu.pkts_sent"] += msu.iop.packets_sent
            for proc in msu.disk_processes.values():
                out["core.msu.pages_read"] += proc.pages_read
                out["core.msu.pages_written"] += proc.pages_written
                out["core.msu.pages_from_cache"] += proc.pages_from_cache
                out["core.msu.duty_cycles"] += proc.cycles
            out["hardware.nic_pkts"] += msu.nic.packets_sent
            out["hardware.nic_drops"] += msu.nic.enobufs_count
            for disk in msu.machine.disks:
                out["hardware.disk_requests"] += disk.requests_served
        out["net.datagrams"] += cluster.delivery_net.datagrams_carried
        out["net.control_msgs"] += cluster.intra_net.datagrams_carried
        coord = cluster.coordinator
        out["core.admissions"] += coord.admission.admitted
        out["core.queued"] += coord.admission.queued
        out["cache.covered_admissions"] += coord.admission.cache_admitted
        if coord.migrator is not None:
            out["failover.migrations"] += coord.migrator.migrated_groups
        if cluster.journal is not None:
            out["recovery.wal_appends"] += cluster.journal.appends
            out["recovery.snapshots"] += cluster.journal.snapshots_taken
        if harness is not None:
            out["verify.checks"] += harness.registry.checks_run
    attempted = out["core.msu.pages_read"] + out["core.msu.pages_from_cache"]
    out["cache.hit_ratio"] = (
        out["core.msu.pages_from_cache"] / attempted if attempted else 0.0
    )
    return dict(out)
