"""The loopback probe: two ``UdpTransport`` endpoints on 127.0.0.1.

Open loop: one asyncio loop runs a generator that sends one
``Notification`` every ``1 / RATE`` seconds from endpoint 1 to endpoint 2,
whether or not earlier ones have arrived.  Each message is timed from the
moment it was due, so a stall shows as latency of every message queued
behind it, and the generator's own lateness is reported beside it.

It is part of the ``publish`` workload's traced run and is not gated: on
a shared host, wall-clock latency over real sockets is set by the host's
stalls (descheduled vCPU, deferred loopback delivery), which no yardstick
corrects, so its percentiles spread far past any bound between runs.
"""

from __future__ import annotations

import asyncio
import gc
import random
from time import perf_counter, process_time
from typing import Dict, List

from repro.net.transport import UdpTransport
from repro.sim.messages import Notification

from perfbench import layers
from perfbench.common import Metrics, check, chunk_percentile, pct
from perfbench.tracer import Tracer

#: Messages per second: half the 4k msg/s where, on a 2-core host, the
#: loop is over half busy and a slow spell of the host already queues
#: messages, so the probe measures latency, not a backlog.
RATE = 2000
#: One step above saturation, for the overload step.
OVERLOAD_RATE = 12000
OVERLOAD_SECONDS = 1.5
#: Seconds each of the probe's two sends lasts (per-call costs need no
#: longer).
TRACED_SECONDS = 5.0
#: Latency percentiles are medians over this many windows of the run.
WINDOWS = 30
#: Seconds to wait for the last acks (and give-ups) after sending ends.
DRAIN_S = 10.0


def messages(n: int, seed: int) -> List[Notification]:
    rng = random.Random(seed)
    return [
        Notification(src=1, dst=2, topic=rng.randrange(1000), event_id=i,
                     hops=rng.randrange(8), publisher=rng.randrange(1 << 20))
        for i in range(n)
    ]


async def _pair(seed: int):
    rx = await UdpTransport.create(2, random.Random(seed * 2 + 1))
    tx = await UdpTransport.create(1, random.Random(seed * 2))
    tx.endpoints[2] = rx.local_addr
    rx.endpoints[1] = tx.local_addr
    return tx, rx


async def _run(msgs: List[Notification], rate: float, seed: int) -> Dict:
    """Send ``msgs`` open loop at ``rate`` and wait for every ack."""
    tx, rx = await _pair(seed)
    gc.collect()  # set-up garbage is not the transport's cost
    try:
        n = len(msgs)
        interval = 1.0 / rate
        arrived: List[float] = [0.0] * n
        delivered: List[int] = []
        gave_up: List[int] = []
        send_s: List[float] = []
        late: List[float] = []

        def on_message(msg) -> None:
            arrived[msg.event_id] = perf_counter()
            delivered.append(msg.event_id)

        rx.on_message = on_message
        tx.on_give_up = lambda msg: gave_up.append(msg.event_id)
        c0 = process_time()
        t0 = perf_counter() + 0.01
        i = 0
        while i < n:
            now = perf_counter()
            while i < n and t0 + i * interval <= now:
                late.append(now - (t0 + i * interval))
                s0 = perf_counter()
                tx.send(msgs[i])
                send_s.append(perf_counter() - s0)
                i += 1
                now = perf_counter()
            if i < n:
                await asyncio.sleep(t0 + i * interval - perf_counter())
        sent_s = perf_counter() - t0
        drained = await tx.drain(DRAIN_S)
        cpu_s = process_time() - c0
        end = max(arrived) if delivered else perf_counter()
        return {
            "n": n, "t0": t0, "interval": interval, "arrived": arrived,
            "delivered": delivered, "gave_up": gave_up, "send_s": send_s,
            "late": late, "sent_s": sent_s, "cpu_s": cpu_s,
            "run_s": end - t0, "drained": drained,
            "datagrams": sum(tx.sent.values()) + tx.retransmits
            + sum(rx.delivered.values()) + rx.duplicates,
            "retransmits": tx.retransmits, "duplicates": rx.duplicates,
            "bytes": tx.bytes_sent, "tx_gave_up": tx.gave_up,
        }
    finally:
        tx.close()
        rx.close()
        await asyncio.sleep(0)


def _check_ids(res: Dict, what: str) -> None:
    """Delivered ids are the sent ids minus give-ups, each surfaced once."""
    check(res["drained"], f"{what}: acks still pending after {DRAIN_S}s")
    got = res["delivered"]
    check(len(got) == len(set(got)), f"{what}: a duplicate reached on_message")
    check(set(got) == set(range(res["n"])) - set(res["gave_up"]),
          f"{what}: delivered ids differ from sent ids minus give-ups")


def _latencies_us(res: Dict) -> List[float]:
    t0, iv, arrived = res["t0"], res["interval"], res["arrived"]
    return [(arrived[i] - (t0 + i * iv)) * 1e6 for i in sorted(res["delivered"])]


def probe(seed: int):
    """Send ``TRACED_SECONDS`` of messages untraced, again traced, then
    the overload step; check every run's delivered ids.  Returns the
    per-layer metrics, the tracer and report lines."""
    n = int(RATE * TRACED_SECONDS)
    msgs = messages(n, seed)
    # Warm the process up first, so the untraced run is not the one
    # paying for first-use costs.
    _check_ids(asyncio.run(_run(msgs[:RATE], RATE, seed)), "loopback warm-up")
    res = asyncio.run(_run(msgs, RATE, seed))
    _check_ids(res, "loopback")
    tr = layers.install(Tracer())
    try:
        with tr.span("unattributed"):
            tres = asyncio.run(_run(msgs, RATE, seed))
    finally:
        tr.uninstall()
    _check_ids(tres, "loopback traced")
    over = asyncio.run(_run(messages(int(OVERLOAD_RATE * OVERLOAD_SECONDS), seed),
                            OVERLOAD_RATE, seed))
    _check_ids(over, "loopback overload")
    c = tr.calls
    m = Metrics()
    m.set("wire.encode_us", tr.total_s("wire.encode") * 1e6 / max(1, c["wire.encode"]),
          "us", f"calls={c['wire.encode']}")
    m.set("wire.decode_us", tr.total_s("wire.decode") * 1e6 / max(1, c["wire.decode"]),
          "us", f"calls={c['wire.decode']}")
    m.set("transport.send_us",
          tr.total_s("transport.send") * 1e6 / max(1, c["transport.send"]),
          "us", "self time, encode excluded")
    # Counts and lateness of the untraced run, unperturbed by the wrappers.
    m.set("transport.retransmits", res["retransmits"], "count")
    m.set("transport.gave_up", res["tx_gave_up"], "count")
    m.set("transport.duplicates", res["duplicates"], "count")
    m.set("transport.bytes_per_msg", res["bytes"] / n, "B")
    m.set("loop.late_p99_us", pct(res["late"], 99) * 1e6, "us",
          "generator lateness behind schedule")
    m.set("overload.rate", OVERLOAD_RATE, "1/s")
    m.set("overload.delivered_ratio", len(over["delivered"]) / over["n"], "ratio")
    m.set("overload.retransmits_per_msg", over["retransmits"] / over["n"], "count")
    m.set("overload.gave_up", over["tx_gave_up"], "count")
    lat = _latencies_us(res)
    lines = [f"loopback {n} messages at {RATE}/s: deliver p50 "
             f"{chunk_percentile(lat, 50, WINDOWS):.0f} us, p99 "
             f"{chunk_percentile(lat, 99, WINDOWS):.0f} us, "
             f"{res['cpu_s'] * 1e6 / n:.0f} us CPU/msg, {res['bytes'] / n:.1f} B/msg, "
             f"CPU traced/untraced {tres['cpu_s'] / res['cpu_s']:.2f}"]
    return m, tr, lines
