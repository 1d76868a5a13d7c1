"""The per-layer entry points the traced run wraps, and what each counts.

Layer names are the prefixes of the per-layer metrics in BENCHMARK.json.
Every entry point is public; a wrapper sees only its arguments and its
result, never the program's internals.
"""

from __future__ import annotations

import repro.experiments.runner as runner
import repro.net.wire as wire
import repro.smallworld.ring as ring
from repro.core.node import VitisNode
from repro.core.protocol import OverlayProtocolBase, VitisProtocol
from repro.faults.detector import SwimDetector
from repro.gossip.peer_sampling import PeerSamplingService
from repro.net.transport import UdpTransport

import perfbench.common as common
from perfbench.tracer import Tracer


def _exchange(key):
    def count(counts, peer):
        if peer is not None:
            counts[key] += 1
    return count


def _evictions(counts, evicted):
    counts["heartbeat.evictions"] += len(evicted)


def _lookup(counts, result):
    counts["lookup.hops"] += result.hops
    if not result.success:
        counts["lookup.failed"] += 1


def _relay(counts, stats):
    counts["relay.paths_installed"] += stats.paths_installed
    counts["relay.grafts"] += stats.grafts


def _flood(counts, rec):
    counts["flood.msgs"] += rec.total_messages
    counts["flood.retries"] += rec.retries
    counts["flood.faults"] += rec.faults


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer's entry point; ``tracer.uninstall()`` undoes it."""
    w = tracer.wrap
    w(OverlayProtocolBase, "run_cycles", "engine")
    w(PeerSamplingService, "step", "ps", _exchange("ps.exchanges"))
    w(VitisNode, "tman_step", "tman", _exchange("tman.exchanges"))
    w(VitisNode, "heartbeat_step", "heartbeat", _evictions)
    w(SwimDetector, "step", "swim")
    # converge() calls the name it imported, so patch both bindings.
    w(ring, "is_ring_converged", "ringcheck")
    w(runner, "is_ring_converged", "ringcheck")
    w(VitisProtocol, "election_round", "elect")
    w(VitisProtocol, "install_relays", "relay", _relay)
    w(OverlayProtocolBase, "lookup", "lookup", _lookup)
    w(OverlayProtocolBase, "join", "membership")
    w(OverlayProtocolBase, "leave", "membership")
    w(VitisProtocol, "rejoin", "membership")
    w(OverlayProtocolBase, "publish", "flood", _flood)
    w(wire, "encode", "wire.encode")
    w(wire, "decode", "wire.decode")
    w(UdpTransport, "send", "transport.send")
    # The benchmark's own host-speed samples, kept out of "unattributed".
    w(common, "_kernel", "yardstick")
    return tracer
