"""Shared helpers: percentiles, fingerprints, memory and the result line."""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
from time import perf_counter
from typing import Dict, Iterable, List, Sequence


class CheckFailed(Exception):
    """A correctness check of the benchmark did not hold."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def pct(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by the nearest-rank method."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


#: Samples per chunk that leave ten beyond the 99th percentile.
P99_CHUNK = 1000


def chunk_percentile(values: Sequence[float], q: float, max_chunks: int = 10) -> float:
    """Median over up to ``max_chunks`` equal chunks of each chunk's
    ``q``-th percentile.

    Every chunk keeps at least ten samples beyond the 99th percentile, and
    one stalled stretch of a run moves one chunk, not the reported value.
    """
    n_chunks = max(1, min(max_chunks, len(values) // P99_CHUNK))
    size = len(values) // n_chunks
    return statistics.median(
        pct(values[i * size:(i + 1) * size], q) for i in range(n_chunks)
    )


class _Peer:
    __slots__ = ("key", "age")

    def __init__(self, key: int, age: int) -> None:
        self.key, self.age = key, age

    def rank(self, other: "_Peer") -> int:
        return (self.key - other.key) % 1021 + self.age


_PEERS = [_Peer((i * 7919) % 4099, i % 13) for i in range(256)]


def _kernel() -> int:
    """Fixed pure-Python work shaped like the simulator's: attribute reads,
    method calls, dict updates, tuple lists and a keyed sort.  It runs no
    program code, so no change to the program moves its time."""
    peers, best, seen = _PEERS, [], {}
    for r in range(6):
        for i, p in enumerate(peers):
            q = peers[(i * 31 + r) % 256]
            score = p.rank(q)
            seen[q.key] = seen.get(q.key, 0) + score
            best.append((score, q.key))
    best.sort(key=lambda x: x[0])
    return len(seen) + len(best)


class Yardstick:
    """Host speed, measured beside the work it corrects.

    The CPU speed a shared host gives one process drifts by up to ±50 % in
    spells of seconds to minutes.  The yardstick times a fixed kernel of
    its own right before and right after each timed segment, and scales the
    segment by ``NOMINAL_S`` over the kernel's time there: a slow spell
    slows the kernel and the segment alike and cancels, while a change to
    the program moves the segment only.  Scaled times read as seconds on a
    host where the kernel takes ``NOMINAL_S``.
    """

    #: About the kernel's median time on a 2-vCPU x86-64 VM under CPython
    #: 3.11 (0.6-1.2 ms there, spell by spell).
    NOMINAL_S = 0.7e-3
    #: Kernel runs per sample; the sample is their median, so a preemption
    #: during one run does not move it.
    RUNS = 3

    def __init__(self) -> None:
        self._before = 0.0
        #: Raw and scaled seconds of every segment so far.
        self.raw_s = self.scaled_s = 0.0

    @classmethod
    def sample(cls) -> float:
        times = []
        for _ in range(cls.RUNS):
            t0 = perf_counter()
            _kernel()
            times.append(perf_counter() - t0)
        return statistics.median(times)

    def start(self) -> None:
        """Sample the host right before a timed segment."""
        self._before = self.sample()

    def scale(self, raw_s: float) -> float:
        """The factor for the segment that just ended (raw ``raw_s``
        seconds), from the samples before and after it.  The sample after
        serves as the next segment's sample before."""
        after = self.sample()
        factor = self.NOMINAL_S / (0.5 * (self._before + after))
        self._before = after
        self.raw_s += raw_s
        self.scaled_s += raw_s * factor
        return factor

    def speed(self) -> float:
        """Host speed over the segments so far, 1.0 = nominal."""
        return self.scaled_s / self.raw_s if self.raw_s else 1.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Fingerprint:
    """A sha256 over simulated outputs, fed piecewise."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, *parts) -> None:
        self._h.update(repr(parts).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def overlay_fingerprint(protocol) -> str:
    """Routing tables, gateways and relay trees of every node."""
    fp = Fingerprint()
    for a in sorted(protocol.nodes):
        node = protocol.nodes[a]
        relay = node.relay
        fp.add(
            a,
            node.alive,
            node.rt.address_key(),
            sorted(relay.parent.items()),
            sorted((t, sorted(c)) for t, c in relay.children.items()),
        )
    for t in protocol.topics():
        fp.add(t, protocol.gateways_of(t))
    return fp.hexdigest()


class Metrics:
    """Named metrics with units, in report order."""

    def __init__(self) -> None:
        self.values: Dict[str, Dict] = {}
        self.notes: Dict[str, str] = {}

    def set(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.values[name] = {"value": value, "unit": unit}
        if note:
            self.notes[name] = note

    def update(self, other: "Metrics") -> None:
        self.values.update(other.values)
        self.notes.update(other.notes)


def print_report(title: str, metrics: Metrics, lines: Iterable[str] = ()) -> None:
    """Human-readable table of every metric, before the result line."""
    print(f"== {title}")
    for line in lines:
        print(f"   {line}")
    for name, m in metrics.values.items():
        note = metrics.notes.get(name, "")
        print(f"   {name:28s} {m['value']:>16.6g} {m['unit']:8s} {note}")
    sys.stdout.flush()


def print_result(correct: bool, attempted: int, failed: int, metrics: Metrics,
                 names: List[str]) -> None:
    """The last stdout line: the machine-readable result object."""
    missing = [n for n in names if n not in metrics.values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: metrics.values[n] for n in names},
    }))
