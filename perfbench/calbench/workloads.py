"""The four traffic mixes.

Each workload is built from its seed alone.  One *round* generates the
inputs (untimed), builds the cluster and loads the titles (timed as
set-up), runs the simulated traffic to its end (timed as the measured
work) and then checks the program's outputs against the generated
inputs.  Load is offered in simulated time, so a faster host finishes a
round sooner but sees exactly the same requests.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.cache.manager import CacheConfig
from repro.core.coordinator import Coordinator
from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.errors import CalliopeError
from repro.net import messages as m
from repro.recovery.reconcile import books_state
from repro.recovery.replay import recover
from repro.sim import Simulator
from repro.units import CBR_PACKET_SIZE
from repro.verify.faults import ChaosSchedule
from repro.verify.harness import ChaosCluster

from calbench.oracle import (
    CheckedClient, StreamCheck, Title, make_title, stored_digests,
)

__all__ = ["WORKLOADS", "Outcome"]

#: Packets (about 0.35 s of media) a zap-churn seek target keeps clear
#: ahead of the current position.
SEEK_CLEARANCE = 16


@dataclass
class Outcome:
    """What one round did, as counted by the benchmark."""

    attempted: int = 0
    #: One line per failed operation.
    failures: List[str] = field(default_factory=list)
    #: One line per broken output property (the run is then incorrect).
    errors: List[str] = field(default_factory=list)
    #: Client requests completed: session, port, play, record, VCR, quit.
    requests: int = 0
    #: Media packets that reached a client port.
    media_pkts: int = 0
    #: Recorded bytes durably stored.
    ingest_bytes: int = 0
    #: Fault-plan ops executed (chaos-composed).
    plan_ops: int = 0
    #: Packet send time minus schedule, simulated seconds.
    lateness_s: List[float] = field(default_factory=list)
    #: Play request to first packet at the port, simulated seconds.
    startup_s: List[float] = field(default_factory=list)
    #: Seek command to first packet of the new position, simulated seconds.
    seek_s: List[float] = field(default_factory=list)
    #: Host seconds spent running the simulation (checks excluded).
    run_s: float = 0.0

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, what: str) -> None:
        self.failures.append(what)


# -- shared pieces -----------------------------------------------------------


def _lateness(cluster: CalliopeCluster) -> List[float]:
    out: List[float] = []
    for msu in cluster.msus:
        out.extend(msu.iop.collector.late_seconds)
    return out


def _check_drained(cluster: CalliopeCluster, outcome: Outcome) -> None:
    """After the drain no MSU serves a stream and every charge is back."""
    for msu in cluster.msus:
        if msu.iop.play_streams or msu.iop.record_streams or msu.groups:
            outcome.errors.append(f"{msu.name} still holds streams after drain")
    for state in cluster.coordinator.db.msus.values():
        if abs(state.delivery_used) > 1e-6:
            outcome.errors.append(
                f"{state.name} delivery charge {state.delivery_used:.0f} not released"
            )
        for disk in state.disks.values():
            if abs(disk.bandwidth_used) > 1e-6:
                outcome.errors.append(
                    f"{state.name}/{disk.disk_id} bandwidth charge "
                    f"{disk.bandwidth_used:.0f} not released"
                )


def _starts(rng: random.Random, n: int, span: float) -> List[float]:
    """``n`` start times over ``span``, one in each of ``n`` equal slots."""
    step = span / n
    return [(i + rng.random()) * step for i in range(n)]


def _run_all(sim: Simulator, procs, limit: float) -> None:
    """Run until every process has ended or the clock passes ``limit``.

    A session still running at ``limit`` (or waiting when nothing is
    left to happen) fails in the tally; it does not stop the benchmark.
    """
    try:
        sim.run_until_event(sim.all_of(procs), limit=limit)
    except RuntimeError:
        pass


def _check_replay(cluster: CalliopeCluster, outcome: Outcome) -> None:
    """Replaying the journal on a fresh Coordinator rebuilds the live books."""
    fresh = Coordinator(Simulator())
    recover(fresh, cluster.journal)
    live = json.dumps(books_state(cluster.coordinator), sort_keys=True)
    if json.dumps(books_state(fresh), sort_keys=True) != live:
        outcome.errors.append("journal replay does not reproduce the live books")


def _play_through(sim, cluster, name, start, record, outcome):
    """One viewer session: play ``record['check']``'s title to its end.

    Sets ``record['ok']``, or ``record['error']`` when a request fails,
    and ``record['asked']``, the time of the play request.
    """
    yield sim.timeout(start)
    client = CheckedClient(sim, cluster, name)
    check = record["check"]
    client.checks["tv"] = check
    try:
        yield from client.open_session("user")
        yield from client.register_port("tv", "mpeg1")
        outcome.requests += 2
        record["asked"] = sim.now
        view = yield from client.play(check.title.name, "tv")
        outcome.requests += 1
        yield from client.wait_done(view)
        client.close_port("tv")
        client.close_session()
        outcome.requests += 1
    except CalliopeError as exc:
        record["error"] = str(exc)
        return
    record["ok"] = True


def _account_play(label: str, record: dict, outcome: Outcome) -> None:
    """Count one play-through session; its stream must be the whole title."""
    outcome.attempted += 1
    check = record["check"]
    if check is not None:
        outcome.media_pkts += check.packets
    if not record.get("ok"):
        outcome.fail(f"{label}: {record.get('error') or 'did not finish'}")
    elif not check.complete:
        outcome.fail(
            f"{label}: {check.first_error or 'truncated'} "
            f"({check.next}/{len(check.title)} packets)"
        )
    else:
        outcome.startup_s.append(check.first_at - record["asked"])


class _OneCluster:
    """A workload that builds one cluster per round."""

    def setup(self, inputs):
        """Build the cluster and load the titles: (state, [seconds])."""
        started = time.perf_counter()
        state = self.build(inputs)
        return state, [time.perf_counter() - started]

    @staticmethod
    def systems(state):
        """(simulator, cluster, harness) of each system a round built."""
        return [(state[0], state[1], None)]


# -- steady-play -------------------------------------------------------------


class SteadyPlay(_OneCluster):
    """20 CBR viewers on one two-disk MSU, all playing titles through.

    The per-packet path just under Graph 1's 22-stream knee: the control
    plane is idle once the streams start.
    """

    name = "steady-play"
    viewers = 20
    titles = 4
    title_seconds = 30.0
    stagger = 2.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        # Five viewers per title, two titles per disk: ten streams a
        # disk, inside the Coordinator's per-disk bandwidth budget.
        plan = [v % self.titles for v in range(self.viewers)]
        rng.shuffle(plan)
        self.plan = plan
        self.offsets = _starts(rng, self.viewers, self.stagger)

    def inputs(self):
        rng = random.Random(self.seed * 7919 + 1)
        return [
            make_title(f"movie{t}", t, self.title_seconds, rng)
            for t in range(self.titles)
        ]

    def build(self, inputs):
        sim = Simulator()
        cluster = CalliopeCluster(sim, ClusterConfig(n_msus=1))
        cluster.coordinator.db.add_customer("user")
        oracles: List[Title] = []
        for t, (title, packets) in enumerate(inputs):
            cluster.load_content(title.name, "mpeg1", packets, disk_index=t % 2)
            oracles.append(title)
        return sim, cluster, oracles

    def drive(self, state) -> Outcome:
        sim, cluster, oracles = state
        outcome = Outcome()
        viewers = []
        for i, (t, offset) in enumerate(zip(self.plan, self.offsets)):
            record = {"check": StreamCheck(oracles[t])}
            viewers.append((f"viewer{i}", record))
            record["proc"] = sim.process(
                _play_through(sim, cluster, f"viewer{i}", offset, record, outcome),
                name=f"viewer{i}",
            )
        limit = self.stagger + self.title_seconds + 60.0
        started = time.perf_counter()
        _run_all(sim, [r["proc"] for _, r in viewers], limit)
        sim.run(until=sim.now + 1.0)
        outcome.run_s = time.perf_counter() - started
        for label, record in viewers:
            _account_play(label, record, outcome)
        _check_drained(cluster, outcome)
        outcome.lateness_s = _lateness(cluster)
        return outcome


# -- zap-churn ---------------------------------------------------------------


class ZapChurn(_OneCluster):
    """Short VCR-heavy sessions on Zipf-popular titles, prefix cache on.

    Session set-up and teardown dominate: admission, the scheduling
    queue, WAL appends and snapshots, control messages, IB-tree seeks
    and cache prefix hits.  Each stream carries few packets.
    """

    name = "zap-churn"
    msus = 4
    titles = 16
    title_seconds = 30.0
    zipf_s = 0.8
    rate = 12.0
    sessions = 1000

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        weights = [1.0 / (k + 1) ** self.zipf_s for k in range(self.titles)]
        at = 0.5
        self.script = []
        for _ in range(self.sessions):
            at += rng.expovariate(self.rate)
            self.script.append({
                "at": at,
                "title": rng.choices(range(self.titles), weights)[0],
                "watch": rng.expovariate(1 / 0.3),
                "pause": rng.expovariate(1 / 0.1),
                "rewatch": rng.expovariate(1 / 0.2),
                "seek_frac": rng.uniform(0.0, 0.5),
                "tail": rng.expovariate(1 / 0.3),
            })

    def inputs(self):
        rng = random.Random(self.seed * 7919 + 2)
        return [
            make_title(f"title{t}", t, self.title_seconds, rng)
            for t in range(self.titles)
        ]

    def build(self, inputs):
        sim = Simulator()
        cluster = CalliopeCluster(
            sim, ClusterConfig(n_msus=self.msus, cache=CacheConfig())
        )
        cluster.coordinator.db.add_customer("user")
        oracles: List[Title] = []
        for t, (title, packets) in enumerate(inputs):
            # Popularity rank t: the hottest titles land on distinct MSUs.
            cluster.load_content(
                title.name, "mpeg1", packets,
                msu_index=t % self.msus, disk_index=(t // self.msus) % 2,
            )
            oracles.append(title)
        return sim, cluster, oracles

    def drive(self, state) -> Outcome:
        sim, cluster, oracles = state
        outcome = Outcome()
        records = []
        procs = []
        for i, step in enumerate(self.script):
            record = {"check": None}
            records.append(record)
            procs.append(sim.process(
                self._session(sim, cluster, i, step, oracles, record, outcome),
                name=f"zap{i}",
            ))
        started = time.perf_counter()
        sim.run(until=self.script[-1]["at"])
        outcome.run_s = time.perf_counter() - started
        # Mid-traffic, with streams open: the journal must rebuild the books.
        _check_replay(cluster, outcome)
        started = time.perf_counter()
        _run_all(sim, procs, self.script[-1]["at"] + 120.0)
        sim.run(until=sim.now + 2.0)
        outcome.run_s += time.perf_counter() - started
        for i, record in enumerate(records):
            outcome.attempted += 1
            check = record["check"]
            if check is not None:
                outcome.media_pkts += check.packets
            if not record.get("ok"):
                outcome.fail(f"session{i}: {record.get('error') or 'did not finish'}")
            elif not check.seeked:
                outcome.fail(f"session{i}: {check.first_error or 'seek never delivered'}")
            else:
                outcome.seek_s.append(check.seek_first_at - check.seek_at)
        _check_drained(cluster, outcome)
        outcome.lateness_s = _lateness(cluster)
        return outcome

    def _session(self, sim, cluster, i, step, oracles, record, outcome):
        yield sim.timeout(step["at"] - sim.now)
        title = oracles[step["title"]]
        client = CheckedClient(sim, cluster, f"zap{i}")
        check = StreamCheck(title)
        record["check"] = check
        client.checks["tv"] = check
        try:
            yield from client.open_session("user")
            yield from client.register_port("tv", "mpeg1")
            outcome.requests += 2
            asked = sim.now
            view = yield from client.play(title.name, "tv")
            outcome.requests += 1
            yield client.arrival("tv", lambda c: c.packets > 0)
            outcome.startup_s.append(check.first_at - asked)
            yield sim.timeout(step["watch"])
            client.vcr(view.group_id, m.VCR_PAUSE)
            yield sim.timeout(step["pause"])
            client.vcr(view.group_id, m.VCR_PLAY)
            yield sim.timeout(step["rewatch"])
            target = title.seek_index(int(step["seek_frac"] * title.delivery_us[-1]))
            if check.next is not None and 0 <= target - check.next <= SEEK_CLEARANCE:
                # A restart at a packet the stream is about to send anyway
                # would look like packets still on the wire: seek behind.
                target = max(0, check.next - SEEK_CLEARANCE)
            target_us = title.delivery_us[target]
            check.seek(sim.now, target_us)
            client.vcr(view.group_id, m.VCR_SEEK, target_us / 1e6)
            outcome.requests += 2
            yield client.arrival("tv", lambda c: c.seek_first_at is not None)
            outcome.requests += 1
            yield sim.timeout(step["tail"])
            client.quit(view.group_id)
            yield from client.wait_done(view)
            outcome.requests += 1
            client.close_port("tv")
            client.close_session()
        except CalliopeError as exc:
            record["error"] = str(exc)
            return
        record["ok"] = True


# -- record-mix --------------------------------------------------------------


class RecordMix(_OneCluster):
    """Eight cameras record 20 s takes while ten viewers play; then
    every take is played back.

    Writes beside reads on one MSU's duty cycle: IB-tree packing, the
    allocator, disk writes and the IOP's 2 ms record poll.
    """

    name = "record-mix"
    cameras = 8
    viewers = 10
    titles = 2
    title_seconds = 24.0
    take_seconds = 20.0
    stagger = 2.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        starts = _starts(rng, self.cameras + self.viewers, self.stagger)
        rng.shuffle(starts)
        self.camera_starts = starts[: self.cameras]
        self.viewer_starts = starts[self.cameras:]
        plan = [v % self.titles for v in range(self.viewers)]
        rng.shuffle(plan)
        self.plan = plan

    def inputs(self):
        rng = random.Random(self.seed * 7919 + 3)
        titles = [
            make_title(f"movie{t}", t, self.title_seconds, rng)
            for t in range(self.titles)
        ]
        takes = [
            make_title(f"take{c}", 100 + c, self.take_seconds, rng)
            for c in range(self.cameras)
        ]
        return titles, takes

    def build(self, inputs):
        titles, takes = inputs
        sim = Simulator()
        cluster = CalliopeCluster(sim, ClusterConfig(n_msus=1))
        cluster.coordinator.db.add_customer("user")
        oracles: List[Title] = []
        for t, (title, packets) in enumerate(titles):
            cluster.load_content(title.name, "mpeg1", packets, disk_index=t % 2)
            oracles.append(title)
        return sim, cluster, oracles, takes

    def drive(self, state) -> Outcome:
        sim, cluster, oracles, takes = state
        outcome = Outcome()
        sessions = []  # (label, record) for every operation
        procs = []
        for c, ((take, packets), start) in enumerate(zip(takes, self.camera_starts)):
            camera = {"take": take}
            replay = {"check": None}
            sessions += [(f"camera{c}", camera), (f"replay{c}", replay)]
            procs.append(sim.process(
                self._camera(sim, cluster, c, start, take, packets,
                             camera, replay, outcome),
                name=f"camera{c}",
            ))
        takes.clear()  # each camera holds its own packet list now
        for v, (t, start) in enumerate(zip(self.plan, self.viewer_starts)):
            record = {"check": StreamCheck(oracles[t])}
            sessions.append((f"viewer{v}", record))
            procs.append(sim.process(
                _play_through(sim, cluster, f"viewer{v}", start, record, outcome),
                name=f"viewer{v}",
            ))
        limit = self.stagger + self.title_seconds + self.take_seconds + 120.0
        started = time.perf_counter()
        _run_all(sim, procs, limit)
        sim.run(until=sim.now + 1.0)
        outcome.run_s = time.perf_counter() - started
        for label, record in sessions:
            if label.startswith("camera"):
                outcome.attempted += 1
                if not record.get("ok"):
                    outcome.fail(f"{label}: {record.get('error') or 'did not finish'}")
                else:
                    self._verify_stored(cluster, record["take"], label, outcome)
            else:
                _account_play(label, record, outcome)
        _check_drained(cluster, outcome)
        outcome.lateness_s = _lateness(cluster)
        return outcome

    @staticmethod
    def _verify_stored(cluster, take: Title, label: str, outcome: Outcome) -> None:
        """The take stores exactly the packets the camera sent, in order."""
        entry = cluster.coordinator.db.content(take.name)
        stored = stored_digests(
            cluster.msu_named(entry.msu_name), entry.disk_id, take.name
        )
        if stored != list(take.digests):
            outcome.fail(
                f"{label}: stored {len(stored)} packets of {len(take)} sent"
                if len(stored) != len(take) else f"{label}: stored payloads differ"
            )

    def _camera(self, sim, cluster, c, start, take, packets, camera, replay, outcome):
        """Record one take, then play it back."""
        yield sim.timeout(start)
        client = CheckedClient(sim, cluster, f"camera{c}")
        try:
            yield from client.open_session("user")
            yield from client.register_port("cam", "mpeg1")
            view = yield from client.record(
                take.name, "mpeg1", "cam", self.take_seconds + 10.0
            )
            outcome.requests += 3
            yield from client.wait_ready(view)
            address = view.record_addresses()[take.name]
            yield from client.send_stream("cam", address, packets)
            yield sim.timeout(0.5)  # let the tail packets cross the wire
            client.quit(view.group_id)
            yield from client.wait_done(view)
            outcome.requests += 1
            client.close_port("cam")
            client.close_session()
        except CalliopeError as exc:
            camera["error"] = str(exc)
            return
        del packets[:]
        outcome.ingest_bytes += len(take) * CBR_PACKET_SIZE
        camera["ok"] = True
        replay["check"] = StreamCheck(take)
        yield from _play_through(sim, cluster, f"replay{c}", 0.0, replay, outcome)


# -- chaos-composed ----------------------------------------------------------


class ChaosComposed:
    """Generated fault plans on the verify harness's composed system.

    Two MSUs, an edge proxy, two live channels, multicast, recovery and
    failover, all under faults: the only mix that runs failover
    migration, recovery restart and reconcile, multicast, edge, live and
    the invariant sweep.  One operation is one plan; a plan with any
    invariant violation fails.
    """

    name = "chaos-composed"
    ops_per_plan = 50
    #: Plans that pass at 50 ops, one of median cost (simulated events)
    #: from each of seven cost bands of plans 1..60; every run makes them.
    CORE = (57, 58, 1, 16, 10, 32, 29)
    #: Passing plans alike in packets (4.5k-5.2k), requests (41-44),
    #: events (113k-118k) and host time; the seed adds one of them, so
    #: each seed's inputs are its own while the work stays the same.
    SEEDED = (3, 22, 33)
    #: Plans that fail on every run because of known program faults:
    #: 18 -- after an MSU power-cycles during a Coordinator outage the
    #: restarted Coordinator keeps charging streams msu1 no longer serves;
    #: 39 -- after a Coordinator crash, restart and a surf storm, multicast
    #: channels outlive the drain and it claims live0/live1 prefixes pinned
    #: that no MSU cache holds.
    KNOWN_FAULTS = (18, 39)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        extra = random.Random(seed).choice(self.SEEDED)
        self.plans = list(self.CORE) + [extra] + list(self.KNOWN_FAULTS)

    def inputs(self):
        return [
            ChaosSchedule.generate(plan, self.ops_per_plan, horizon=20.0)
            for plan in self.plans
        ]

    def setup(self, inputs):
        """One harness cluster per plan: (clusters, per-plan seconds)."""
        clusters, times = [], []
        for schedule in inputs:
            started = time.perf_counter()
            clusters.append(ChaosCluster(schedule))
            times.append(time.perf_counter() - started)
        return clusters, times

    def drive(self, state) -> Outcome:
        outcome = Outcome()
        for harness in state:
            started = time.perf_counter()
            report = harness.run()
            outcome.run_s += time.perf_counter() - started
            outcome.attempted += 1
            outcome.plan_ops += len(report.schedule)
            if not report.ok:
                plan = report.schedule.seed
                known = " (known fault)" if plan in self.KNOWN_FAULTS else ""
                outcome.fail(
                    f"plan {plan}{known}: {len(report.violations)} violations, "
                    f"first: {report.violations[0]}"
                )
            self._tally(harness, report, outcome)
        return outcome

    @staticmethod
    def systems(state):
        return [(harness.sim, harness.cluster, harness) for harness in state]

    @staticmethod
    def _tally(harness, report, outcome: Outcome) -> None:
        stats = report.stats
        joins = [
            op.at for op in harness.schedule.ops if op.kind == "client_join"
        ]
        for viewer in harness.viewers:
            port = viewer.client.ports.get("tv")
            if port is None:
                continue
            outcome.media_pkts += port.stats.packets
            if port.stats.first_arrival is not None:
                # The harness names the viewer of its k-th join "cl<k>".
                joined = joins[int(viewer.name[2:])]
                outcome.startup_s.append(port.stats.first_arrival - joined)
        # Completed session, port and play requests, and quits.
        outcome.requests += 3 * stats.get("joins", 0) + stats.get("quits", 0)
        for surfer in harness.surfers:
            port = surfer.client.ports.get("tv")
            if port is not None:
                outcome.media_pkts += port.stats.packets
            outcome.requests += 2 + surfer.joins
        outcome.lateness_s.extend(_lateness(harness.cluster))


WORKLOADS: Dict[str, Callable] = {
    SteadyPlay.name: SteadyPlay,
    ZapChurn.name: ZapChurn,
    RecordMix.name: RecordMix,
    ChaosComposed.name: ChaosComposed,
}
