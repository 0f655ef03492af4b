"""The oracle must reject every kind of wrong output it is meant to catch."""

import random

import pytest

from calbench.oracle import StreamCheck, make_title, stored_digests
from calbench.workloads import Outcome, RecordMix
from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.sim import Simulator


@pytest.fixture(scope="module")
def title():
    return make_title("t", 7, 2.0, random.Random(5))


def feed(check, payloads):
    for i, payload in enumerate(payloads):
        check.feed(i * 0.02, payload)
    return check


def test_exact_stream_is_complete(title):
    oracle, packets = title
    check = feed(StreamCheck(oracle), [p for _, p in packets])
    assert check.complete and check.errors == 0


def test_corrupted_payload_is_rejected(title):
    oracle, packets = title
    payloads = [p for _, p in packets]
    payloads[10] = payloads[10][:-1] + bytes([payloads[10][-1] ^ 1])
    check = feed(StreamCheck(oracle), payloads)
    assert not check.complete and check.errors >= 1


def test_reordered_stream_is_rejected(title):
    oracle, packets = title
    payloads = [p for _, p in packets]
    payloads[4], payloads[5] = payloads[5], payloads[4]
    assert not feed(StreamCheck(oracle), payloads).complete


def test_truncated_stream_is_rejected(title):
    oracle, packets = title
    check = feed(StreamCheck(oracle), [p for _, p in packets[:-1]])
    assert check.errors == 0 and not check.complete


def test_seek_must_land_on_first_packet_at_or_after_target(title):
    oracle, packets = title
    payloads = [p for _, p in packets]
    target_us = packets[20][0] - 1  # between packets 19 and 20
    assert oracle.seek_index(target_us) == 20
    good = feed(StreamCheck(oracle), payloads[:8])
    good.seek(1.0, target_us)
    feed(good, payloads[20:30])
    assert good.seeked and good.restart_next == 30

    wrong = feed(StreamCheck(oracle), payloads[:8])
    wrong.seek(1.0, target_us)
    feed(wrong, payloads[21:30])
    assert not wrong.seeked and wrong.errors >= 1


def test_seek_to_the_packet_on_the_wire_waits_for_the_restart(title):
    oracle, packets = title
    payloads = [p for _, p in packets]
    check = feed(StreamCheck(oracle), payloads[:8])
    check.seek(1.0, packets[8][0])
    check.feed(1.001, payloads[8])  # sent before the seek reached the MSU
    check.feed(1.3, payloads[8])  # the restart
    feed(check, payloads[9:12])
    assert check.seeked and check.seek_first_at == 1.3


def test_seek_to_the_next_packet_without_one_on_the_wire(title):
    oracle, packets = title
    payloads = [p for _, p in packets]
    check = feed(StreamCheck(oracle), payloads[:8])
    check.seek(1.0, packets[8][0])
    check.feed(1.3, payloads[8])
    assert check.seeked and check.seek_first_at == 1.3


def test_stream_without_seek_cannot_jump(title):
    oracle, packets = title
    payloads = [p for _, p in packets]
    check = feed(StreamCheck(oracle), payloads[:5] + payloads[9:])
    assert check.errors >= 1 and not check.complete


def test_lost_recorded_packet_is_rejected(title):
    oracle, packets = title
    sim = Simulator()
    cluster = CalliopeCluster(sim, ClusterConfig(n_msus=1))
    cluster.load_content("t", "mpeg1", packets[:15] + packets[16:])
    msu = cluster.msus[0]
    assert stored_digests(msu, msu.disk_ids()[0], "t") != list(oracle.digests)
    outcome = Outcome()
    RecordMix._verify_stored(cluster, oracle, "camera0", outcome)
    assert outcome.failed == 1

    whole = CalliopeCluster(Simulator(), ClusterConfig(n_msus=1))
    whole.load_content("t", "mpeg1", packets)
    outcome = Outcome()
    RecordMix._verify_stored(whole, oracle, "camera0", outcome)
    assert outcome.failed == 0
