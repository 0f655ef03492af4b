"""The benchmark's own inputs, and the running checks that use them.

Every packet list a workload feeds the server is generated here from the
workload seed.  Each packet carries its title tag and index in an 8-byte
header followed by random filler, so no two packets are alike.  After a
title is loaded the benchmark keeps only one CRC-32 per packet; a
:class:`StreamCheck` compares each arriving payload against that list as
it arrives, so checking a port costs O(1) memory however long it plays.
"""

from __future__ import annotations

import bisect
import random
import struct
import zlib
from array import array
from typing import List, Optional, Tuple

from repro.clients.client import Client
from repro.storage.ibtree import IBTreeReader
from repro.units import CBR_PACKET_SIZE, MPEG1_RATE

__all__ = [
    "Title", "make_title", "StreamCheck", "CheckedClient", "stored_digests",
]

_HEADER = struct.Struct(">II")


def cbr_schedule(n: int) -> List[int]:
    """Delivery offsets (us) of ``n`` 4 KiB packets at 1.5 Mbit/s.

    The same arithmetic as ``repro.media.mpeg.packetize_cbr``.
    """
    return [int(i * CBR_PACKET_SIZE / MPEG1_RATE * 1e6) for i in range(n)]


class Title:
    """What the oracle remembers of a packet list: one digest per packet."""

    __slots__ = ("name", "digests", "delivery_us")

    def __init__(self, name: str, digests, delivery_us) -> None:
        self.name = name
        self.digests = array("I", digests)
        self.delivery_us = array("q", delivery_us)

    def __len__(self) -> int:
        return len(self.digests)

    def seek_index(self, target_us: int) -> int:
        """Index of the first packet due at or after ``target_us``.

        The IB-tree seek rule (``IBTreeReader.seek``).
        """
        return bisect.bisect_left(self.delivery_us, target_us)


def make_title(
    name: str, tag: int, seconds: float, rng: random.Random
) -> Tuple[Title, List[Tuple[int, bytes]]]:
    """A CBR title of ``seconds``: its oracle and its loadable packets."""
    n = int(seconds * MPEG1_RATE / CBR_PACKET_SIZE)
    filler = CBR_PACKET_SIZE - _HEADER.size
    schedule = cbr_schedule(n)
    packets = [
        (schedule[i], _HEADER.pack(tag, i) + rng.randbytes(filler))
        for i in range(n)
    ]
    title = Title(name, (zlib.crc32(p) for _, p in packets), schedule)
    return title, packets


class StreamCheck:
    """Running check of one port's arrivals against a title.

    Accepts an in-order prefix of the title and, once :meth:`seek` has
    been called, one restart at the first packet due at or after the seek
    target followed by a contiguous run.  Anything else is an error.

    Packets already on the wire when the seek is made still arrive, so
    the prefix may run on past the seek command, even through the target
    packet itself.  The check therefore follows two readings of the
    stream at once: ``next`` is the index the prefix expects and
    ``restart_next`` the one a restart expects.  A packet that fits
    neither is an error.
    """

    __slots__ = (
        "title", "next", "restart_next", "packets", "errors", "first_error",
        "first_at", "seek_at", "seek_target", "seek_first_at",
    )

    def __init__(self, title: Title) -> None:
        self.title = title
        self.next: Optional[int] = 0
        self.restart_next: Optional[int] = None
        self.packets = 0
        self.errors = 0
        self.first_error = ""
        self.first_at: Optional[float] = None
        self.seek_at: Optional[float] = None
        self.seek_target: Optional[int] = None
        self.seek_first_at: Optional[float] = None

    def seek(self, now: float, target_us: int) -> None:
        """The client asked for a seek to ``target_us`` at ``now``."""
        self.seek_at = now
        self.seek_target = self.title.seek_index(target_us)

    def _is(self, digest: int, index: Optional[int]) -> bool:
        digests = self.title.digests
        return index is not None and index < len(digests) and digest == digests[index]

    def feed(self, now: float, payload: bytes) -> None:
        """One packet arrived at the port."""
        self.packets += 1
        if self.first_at is None:
            self.first_at = now
        digest = zlib.crc32(payload)
        prefix = self._is(digest, self.next)
        if prefix and self.seek_target is None:
            self.next += 1  # the common case: playing on, no seek made
            return
        restart = self.next is not None and self._is(digest, self.seek_target)
        onward = self._is(digest, self.restart_next)
        if not (prefix or restart or onward):
            self.errors += 1
            if not self.first_error:
                expected = self.next if self.restart_next is None else self.restart_next
                self.first_error = (
                    f"{self.title.name}: packet {self.packets} does not match "
                    f"index {expected}"
                )
            return
        if restart:
            self.restart_next = self.seek_target + 1
            self.seek_first_at = now
        elif onward:
            self.restart_next += 1
        else:
            self.restart_next = None
        self.next = self.next + 1 if prefix else None

    @property
    def complete(self) -> bool:
        """The whole title arrived, in order, with nothing else."""
        return self.errors == 0 and self.next == len(self.title)

    @property
    def seeked(self) -> bool:
        """The seek's restart arrived and nothing wrong came at any time."""
        return self.errors == 0 and self.restart_next is not None


class CheckedClient(Client):
    """A client whose display ports feed :class:`StreamCheck` objects.

    It replaces the receive loop only: the session, port, play, VCR and
    record requests are the library client's own.  No payload or arrival
    list is retained.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: port name -> StreamCheck of that port's arrivals.
        self.checks = {}
        self._waits = {}

    def arrival(self, port_name: str, condition):
        """Event firing once ``condition(check)`` holds after an arrival."""
        event = self.sim.event(f"{self.name}.{port_name}.arrival")
        if condition(self.checks[port_name]):
            event.succeed()
        else:
            self._waits[port_name] = (condition, event)
        return event

    def _receiver(self, port, control: bool = False):
        socket = port.control_socket if control else port.socket
        while True:
            dgram = yield socket.recv()
            if dgram is None:
                return
            check = self.checks.get(port.name)
            if check is not None:
                check.feed(self.sim.now, dgram.payload)
                wait = self._waits.get(port.name)
                if wait is not None and wait[0](check):
                    del self._waits[port.name]
                    wait[1].succeed()


def stored_digests(msu, disk_id: str, name: str) -> List[int]:
    """CRC-32 of every packet stored in file ``name``, in IB-tree order."""
    fs = msu.filesystems[disk_id]
    handle = fs.open(name)
    return [
        zlib.crc32(record.payload)
        for b in range(handle.nblocks)
        for record in IBTreeReader.parse_page(fs.read_block_sync(handle, b))
    ]
