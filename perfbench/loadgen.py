"""Closed-loop load for the serving workload.

N callers, each sending a burst of requests and waiting for every reply
before sending the next burst, all on one thread over ``selectors`` (a
second thread would share the interpreter lock with the sender).
Replies are kept as raw bytes with their arrival time and parsed only
after the run.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

#: a caller gives up when no reply arrives for this long.
DRAIN_S = 5.0


def connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


@dataclass
class Replies:
    """One connection's raw replies with arrival times; parsed after the
    run (a read may end inside a line, so chunks of one connection are
    joined before splitting)."""

    chunks: List[Tuple[float, bytes]] = field(default_factory=list)

    def feed(self, at: float, data: bytes) -> int:
        """Record a read; returns the number of replies it completed."""
        self.chunks.append((at, data))
        return data.count(b"\n")

    def parsed(self) -> List[Tuple[float, dict]]:
        """(arrival time, response dict) per reply line, in order."""
        out = []
        buffer = b""
        for at, data in self.chunks:
            buffer += data
            *complete, buffer = buffer.split(b"\n")
            out.extend((at, json.loads(line)) for line in complete if line)
        return out


@dataclass
class ClosedResult:
    bursts: List[Tuple[float, float]]   # (sent, last reply) per burst
    sent_at: Dict[int, float]           # request seq -> send time
    replies: List[Replies]              # one per caller
    started: float


def closed_loop(port: int, callers: int, burst: int, seconds: float,
                payload_for: Callable[[int], bytes]) -> ClosedResult:
    """``callers`` closed-loop clients, each sending ``burst`` requests at
    once and waiting for all replies; ``payload_for(seq)`` gives the
    bytes of request number ``seq``."""
    selector = selectors.DefaultSelector()
    socks = [connect(port) for _ in range(callers)]
    replies = {sock.fileno(): Replies() for sock in socks}
    waiting: Dict[int, List] = {}   # fileno -> [burst sent at, replies due]
    bursts: List[Tuple[float, float]] = []
    sent_at: Dict[int, float] = {}
    seq = 0
    started = time.perf_counter()
    stop_at = started + seconds

    def send_burst(sock) -> None:
        nonlocal seq
        data = b"".join(payload_for(seq + k) for k in range(burst))
        now = time.perf_counter()
        for k in range(burst):
            sent_at[seq + k] = now
        seq += burst
        sock.sendall(data)
        waiting[sock.fileno()] = [now, burst]

    try:
        for sock in socks:
            selector.register(sock, selectors.EVENT_READ, sock)
            send_burst(sock)
        while waiting:
            events = selector.select(DRAIN_S)
            if not events:
                raise RuntimeError(f"no reply within {DRAIN_S:.0f} s")
            for key, _events in events:
                sock = key.data
                data = sock.recv(1 << 16)
                at = time.perf_counter()
                if not data:
                    raise RuntimeError("server closed a caller connection")
                entry = waiting[sock.fileno()]
                entry[1] -= replies[sock.fileno()].feed(at, data)
                if entry[1] <= 0:
                    bursts.append((entry[0], at))
                    del waiting[sock.fileno()]
                    if at < stop_at:
                        send_burst(sock)
    finally:
        selector.close()
        for sock in socks:
            sock.close()
    return ClosedResult(bursts=bursts, sent_at=sent_at,
                        replies=list(replies.values()), started=started)


def probe(port: int, op: dict) -> dict:
    """One probe op on a fresh connection (metrics, shutdown, ...)."""
    with connect(port) as sock:
        sock.sendall((json.dumps(op) + "\n").encode())
        with sock.makefile("rb") as reader:
            return json.loads(reader.readline())
