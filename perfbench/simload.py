"""The simulator workloads: converge, publish and churn.

Each drives the program through its public calls only.  Closed loop: one
caller on one thread publishes the next event when the previous
``publish`` returned.
"""

from __future__ import annotations

import gc
import io
import json
import statistics
from time import perf_counter, process_time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import VitisConfig
from repro.core.protocol import VitisProtocol
from repro.experiments.runner import converge
from repro.faults import HealingPolicy, MessageLoss, SwimDetector
from repro.obs import Telemetry, TraceWriter
from repro.obs.audit import audit_trace
from repro.sim.metrics import restrict_record
from repro.sim.rng import SeedTree
from repro.smallworld.ring import is_ring_converged
from repro.workloads.publication import power_law_rates, sample_topics
from repro.workloads.skype import SkypeTrace
from repro.workloads.subscriptions import (
    high_correlation_subscriptions,
    low_correlation_subscriptions,
)

from perfbench import layers
from perfbench.common import (
    Fingerprint,
    Metrics,
    Yardstick,
    check,
    overlay_fingerprint,
    pct,
)
from perfbench.tracer import Tracer

# Paper-size static overlay (section IV: 300 nodes, 1000 topics).
N_NODES, N_TOPICS, ALPHA = 300, 1000, 1.0
#: Cycles before the first ring check.  Every seed tried converges by
#: then, so each build does the same work and run_s compares across seeds.
MIN_CYCLES = 50
#: Cycles per timed segment of a build.
CYCLE_CHUNK = 2
#: Publish-workload events per second of --seconds, over all overlays.
EVENTS_PER_SECOND = 20000
#: Publish calls per timed block: long enough that the yardstick's two
#: samples around a block cost a few per cent of it.
BLOCK = 2500
#: Seconds of measurement per instance: a run of --seconds measures
#: seconds / INSTANCE_S instances (at least two), each from its own
#: sub-seed, so one overlay's or trace's structure does not set the result.
#: Timings are medians across instances, segment by segment: the host's
#: slow spells last seconds, and rarely cover one segment of two instances.
INSTANCE_S = 5.0

# Churn: a Fig. 12-shaped Skype trace under message loss and SWIM.
CHURN_POOL, CHURN_TOPICS = 200, 300
CHURN_HORIZON, CHURN_WINDOW, CHURN_WINDOWS = 100.0, 20, 4
#: The flash crowd lands after the third window: three quarters of the
#: events see the steady population, a quarter the crowd.
CHURN_CROWD_AT = 65.0
CHURN_EVENTS = 2500
CHURN_SETUPS = 5
CHURN_LOSS = 0.05
MIN_JOIN_AGE = 10.0


#: Every timed segment of a simulator run is scaled by this yardstick.
YARD = Yardstick()


def timed(fn, *args):
    """``fn(*args)`` and its host-scaled duration in seconds."""
    YARD.start()
    t0 = perf_counter()
    result = fn(*args)
    raw = perf_counter() - t0
    return result, raw * YARD.scale(raw)


def instance_seeds(seed: int, seconds: float) -> List[int]:
    """The sub-seeds of one run's instances, derived from ``--seed``."""
    return [seed * 1000 + k for k in range(max(2, round(seconds / INSTANCE_S)))]


# ----------------------------------------------------------------------
# Inputs (everything the program receives is generated from the seed)
# ----------------------------------------------------------------------
def static_inputs(seed: int):
    rates = power_law_rates(N_TOPICS, ALPHA, seed=seed)
    subs = high_correlation_subscriptions(N_NODES, N_TOPICS, seed=seed)
    return subs, rates


def _members(subs) -> Dict[int, List[int]]:
    members: Dict[int, List[int]] = {}
    for a, topics in enumerate(subs):
        for t in topics:
            members.setdefault(t, []).append(a)
    return members


def event_stream(subs, rates, n: int, seed: int) -> List[Tuple[int, int]]:
    """``n`` (topic, publisher) pairs: rate-drawn topics, each published by
    a uniformly random subscriber, as ``experiments.runner.measure`` does."""
    members = _members(subs)
    rng = np.random.default_rng(seed)
    topics = sample_topics(rates, n, rng, restrict=sorted(members))
    picks = rng.random(n)
    return [(t, members[t][int(u * len(members[t]))]) for t, u in zip(topics, picks)]


def every_pair(subs, seed: int) -> List[Tuple[int, int]]:
    """Every (topic, subscriber) pair once, in a seeded random order."""
    pairs = [(t, a) for t, members in sorted(_members(subs).items()) for a in members]
    order = np.random.default_rng(seed).permutation(len(pairs))
    return [pairs[i] for i in order]


def build(subs, rates, seed: int) -> Tuple[VitisProtocol, Dict]:
    """Construct, converge and finalize a static overlay, timing each step
    (``converge()`` runs after the first cycles in chunks, so they can be
    timed apart; it then checks the ring and adds cycles if needed)."""
    gc.collect()  # earlier builds' garbage is not this build's cost
    segments = []
    p, dt = timed(lambda: VitisProtocol(subs, VitisConfig(), seed=seed, rates=rates,
                                        election_every=0, relay_every=0))
    segments.append(dt)
    for _ in range(MIN_CYCLES // CYCLE_CHUNK):
        segments.append(timed(p.run_cycles, CYCLE_CHUNK)[1])
    extra, dt = timed(lambda: converge(p, min_cycles=0, max_cycles=120 - MIN_CYCLES))
    cycles = MIN_CYCLES + extra
    segments.append(dt)
    segments.append(timed(p.finalize)[1])
    check(is_ring_converged(p.ids_by_address(), p.successor_map()),
          f"ring not converged after {cycles} cycles")
    return p, {"segments": segments, "total_s": sum(segments),
               "converge_s": sum(segments[1:-1]),
               "node_cycles": cycles * p.live_count()}


def robust_total(segments: List[List[float]]) -> float:
    """Sum over aligned segments of the median across instances."""
    return sum(statistics.median(col) for col in zip(*segments))


# ----------------------------------------------------------------------
# Publishing
# ----------------------------------------------------------------------
class Flood:
    """Outcome of one instance's publishes: the paper's metrics, latencies
    and a fingerprint of every event's record."""

    def __init__(self) -> None:
        self.latency: List[float] = []
        #: Per timed block: (events so far, CPU seconds, messages).
        self.blocks: List[Tuple[int, float, int]] = []
        self.events = self.expected = self.delivered = self.complete = 0
        self.msgs = self.relay_msgs = self.hops = 0
        self.repeats = 0
        #: (topic, publisher, subscribers not reached) of the first event
        #: that missed one, to name the cause of a failed delivery check.
        self.first_miss: Optional[tuple] = None
        self.fp = Fingerprint()
        self._seen = set()

    def new_epoch(self) -> None:
        """The topology changed: earlier (topic, publisher) pairs no longer
        repeat for a topology-keyed cache."""
        self._seen = set()

    def publish(self, p, stream, min_join_age: float = 0.0) -> float:
        """Publish ``stream`` in blocks, timing each call (scaled by the
        yardstick per block); records are tallied between blocks, outside
        the timed calls.  Returns the time spent inside ``publish``."""
        publish, lat = p.publish, self.latency
        before = len(lat)
        gc.collect()
        for start in range(0, len(stream), BLOCK):
            recs, block = [], []
            YARD.start()
            c0 = process_time()
            for topic, pub in stream[start:start + BLOCK]:
                t0 = perf_counter()
                recs.append(publish(topic, pub))
                block.append(perf_counter() - t0)
            cpu = process_time() - c0
            f = YARD.scale(sum(block))
            lat.extend(x * f for x in block)
            msgs = sum(self._tally(p, rec, min_join_age) for rec in recs)
            self.blocks.append((len(lat), cpu * f, msgs))
        return sum(lat[before:])

    def _tally(self, p, rec, min_join_age: float) -> int:
        key = (rec.topic, rec.publisher)
        if key in self._seen:
            self.repeats += 1
        else:
            self._seen.add(key)
        msgs, relay = rec.total_messages, rec.total_relay_messages
        if min_join_age > 0:
            horizon = p.engine.now - min_join_age
            rec = restrict_record(
                rec, [a for a in rec.subscribers if p.nodes[a].joined_at <= horizon]
            )
        hops = rec.delivered_hops
        if self.first_miss is None and len(hops) < rec.n_subscribers:
            self.first_miss = (rec.topic, rec.publisher,
                               sorted(set(rec.subscribers) - set(hops)))
        self.events += 1
        self.expected += rec.n_subscribers
        self.delivered += len(hops)
        self.complete += len(hops) == rec.n_subscribers
        self.msgs += msgs
        self.relay_msgs += relay
        self.hops += sum(hops.values())
        self.fp.add(rec.topic, rec.publisher, rec.n_subscribers, len(hops),
                    sum(hops.values()), sum(hops), msgs, relay, rec.faults, rec.retries)
        return msgs

    # ------------------------------------------------------------------
    @property
    def missed(self) -> int:
        return self.expected - self.delivered

    def check_complete(self, what: str) -> None:
        """Fail unless every subscriber of every event was reached."""
        if self.first_miss is not None:
            topic, pub, lost = self.first_miss
            check(False, f"{what}: {self.missed} missed deliveries; first on topic "
                         f"{topic} published by {pub}, not reached: {lost}")

    def repeat_share(self) -> float:
        return self.repeats / max(1, self.events)

    def segments(self, n: int) -> List[Tuple[List[float], float, int]]:
        """``n`` consecutive runs of whole blocks, each as (latencies, CPU
        seconds, messages)."""
        per = max(1, len(self.blocks) // n)
        out, start = [], 0
        for j in range(n):
            group = self.blocks[j * per:(j + 1) * per if j < n - 1 else None]
            end = group[-1][0]
            out.append((self.latency[start:end], sum(b[1] for b in group),
                        sum(b[2] for b in group)))
            start = end
        return out


def pooled(floods: List[Flood]) -> Flood:
    """The counts of several instances' floods, summed."""
    total = Flood()
    for f in floods:
        for k in ("events", "expected", "delivered", "complete", "msgs",
                  "relay_msgs", "hops", "repeats"):
            setattr(total, k, getattr(total, k) + getattr(f, k))
    return total


def flood_metrics(floods: List[Flood], run_s: float, n_segments: int = 1) -> Metrics:
    """End-to-end metrics of a simulator run.  Each stream is cut into
    ``n_segments`` segments; timings pool segment ``j`` of every instance,
    and report the median over segments.  The paper's metrics pool every
    event."""
    per_seg = []
    for parts in zip(*(f.segments(n_segments) for f in floods)):
        lat = [x for part in parts for x in part[0]]
        per_seg.append({
            "rate": len(lat) / sum(lat),
            "p50": pct(lat, 50) * 1e6,
            "p99": pct(lat, 99) * 1e6,
            "cpu": sum(part[1] for part in parts) * 1e6 / max(1, sum(part[2] for part in parts)),
        })

    def robust(key: str) -> float:
        return statistics.median(s[key] for s in per_seg)

    p50, p99 = robust("p50"), robust("p99")
    t = pooled(floods)
    n = sum(len(f.latency) for f in floods)
    m = Metrics()
    m.set("run_s", run_s, "s", f"instances={len(floods)}")
    m.set("publishes_per_s", robust("rate"), "1/s", f"n={n}")
    m.set("publish_p50_us", p50, "us", f"n={n}")
    m.set("publish_p99_us", p99, "us", f"n={n}")
    # Closed loop: an event is due when its publish call starts and is
    # delivered to its last subscriber when the call returns.
    m.set("deliver_p50_us", p50, "us", "closed loop: = publish_p50_us")
    m.set("deliver_p99_us", p99, "us", "closed loop: = publish_p99_us")
    m.set("cpu_us_per_msg", robust("cpu"), "us", f"msgs={t.msgs}")
    m.set("hit_ratio", t.delivered / t.expected if t.expected else 1.0, "ratio",
          f"{t.delivered}/{t.expected} subscriber deliveries")
    m.set("traffic_overhead_pct", 100.0 * t.relay_msgs / max(1, t.msgs), "%")
    m.set("delay_hops_mean", t.hops / max(1, t.delivered), "hops")
    m.set("delivered_ratio", t.complete / max(1, t.events), "ratio",
          f"{t.complete}/{t.events} events reached every subscriber")
    return m


# ----------------------------------------------------------------------
# Per-layer metrics of a traced run
# ----------------------------------------------------------------------
def layer_metrics(tr: Tracer, untraced_s: float, traced_s: float,
                  node_cycles: int, cycle_s: float, flood: Flood) -> Metrics:
    c, calls = tr.counts, tr.calls
    m = Metrics()
    for layer in ("tman", "ps", "heartbeat", "ringcheck", "engine", "elect",
                  "lookup", "relay", "swim", "membership", "flood"):
        m.set(f"{layer}.self_s", tr.total_s(layer), "s", f"calls={calls[layer]}")
    m.set("unattributed.self_s", tr.total_s("unattributed"), "s",
          "timed part outside every layer span")
    m.set("tman.exchanges", c["tman.exchanges"], "count")
    m.set("tman.us_per_exchange",
          tr.total_s("tman") * 1e6 / max(1, c["tman.exchanges"]), "us")
    m.set("ps.exchanges", c["ps.exchanges"], "count")
    m.set("heartbeat.evictions", c["heartbeat.evictions"], "count")
    m.set("engine.node_cycles", node_cycles, "count")
    m.set("engine.node_cycles_per_s", node_cycles / cycle_s if cycle_s else 0.0,
          "1/s", "untraced cycle time")
    m.set("elect.rounds", calls["elect"], "count")
    m.set("lookup.calls", calls["lookup"], "count")
    m.set("lookup.hops", c["lookup.hops"], "count")
    m.set("lookup.failed", c["lookup.failed"], "count")
    m.set("relay.paths_installed", c["relay.paths_installed"], "count")
    m.set("relay.grafts", c["relay.grafts"], "count")
    m.set("flood.msgs_per_event", c["flood.msgs"] / max(1, calls["flood"]), "msgs")
    m.set("flood.retries", c["flood.retries"], "count")
    m.set("flood.faults", c["flood.faults"], "count")
    m.set("flood.repeat_share", flood.repeat_share(), "ratio",
          "publishes repeating a (topic, publisher) pair of the same topology")
    m.set("trace.overhead_pct", 100.0 * (traced_s / untraced_s - 1.0), "%",
          f"traced {traced_s:.3f}s vs untraced {untraced_s:.3f}s")
    return m


def gateways(p) -> int:
    return sum(len(p.gateways_of(t)) for t in p.topics())


# ----------------------------------------------------------------------
# converge
# ----------------------------------------------------------------------
def converge_instance(sub: int):
    """Set up, then time one build; then check delivery by publishing once
    from every subscriber of every topic, each a first publish.  Set-up is
    only input generation here, so it is timed five times."""
    gens = []
    for _ in range(5):
        gc.collect()
        (subs, rates), dt = timed(static_inputs, sub)
        gens.append(dt)
    p, times = build(subs, rates, sub)
    flood = Flood()
    flood.publish(p, every_pair(subs, sub + 1))
    flood.check_complete(f"converge instance {sub}")
    times["setup_s"] = statistics.median(gens)
    return p, times, flood, overlay_fingerprint(p) + flood.fp.hexdigest()


def run_converge(seed: int, seconds: float, trace: bool):
    if trace:
        sub = instance_seeds(seed, seconds)[0]
        p, times, flood, fp = converge_instance(sub)
        del p
        tr = layers.install(Tracer())
        try:
            with tr.span("unattributed"):
                tp, ttimes, tflood, tfp = converge_instance(sub)
        finally:
            tr.uninstall()
        check(fp == tfp, "converge: traced run diverged from the untraced run")
        m = layer_metrics(tr, times["total_s"], ttimes["total_s"],
                          times["node_cycles"], times["converge_s"], tflood)
        m.set("elect.gateways", gateways(tp), "count")
        m.set("setup.workload_s", times["setup_s"], "s")
        m.set("setup.build_s", 0.0, "s", "the build is the timed part")
        return m, tr, times["setup_s"], flood, [f"fingerprint {fp[:16]}"]

    runs, floods = [], []
    for sub in instance_seeds(seed, seconds):
        p, times, flood, _ = converge_instance(sub)
        runs.append(times)
        floods.append(flood)
        del p
    m = flood_metrics(floods, robust_total([r["segments"] for r in runs]))
    lines = [f"builds {len(runs)}: " + ", ".join(
        f"{r['total_s']:.2f}s/{r['node_cycles']} node-cycles" for r in runs)]
    return m, None, statistics.median(r["setup_s"] for r in runs), pooled(floods), lines


# ----------------------------------------------------------------------
# publish
# ----------------------------------------------------------------------
def publish_setup(sub: int, n_events: int):
    gc.collect()
    (subs, rates), gen_s = timed(static_inputs, sub)
    stream, dt = timed(event_stream, subs, rates, n_events, sub + 1)
    p, times = build(subs, rates, sub)
    return p, stream, gen_s + dt, times["total_s"]


def run_publish(seed: int, seconds: float, trace: bool):
    subs_seeds = instance_seeds(seed, seconds)
    n_events = int(EVENTS_PER_SECOND * seconds / len(subs_seeds))
    if trace:
        # One instance, built twice: both builds and both streams must agree.
        sub = subs_seeds[0]
        p, stream, gen_s, build_s = publish_setup(sub, n_events)
        q, _, _, _ = publish_setup(sub, n_events)
        check(overlay_fingerprint(p) == overlay_fingerprint(q),
              "publish: two builds of one input disagree")
        flood, traced = Flood(), Flood()
        untraced_s = flood.publish(p, stream)
        flood.check_complete(f"publish instance {sub}")
        tr = layers.install(Tracer())
        try:
            with tr.span("unattributed"):
                traced_s = traced.publish(q, stream)
        finally:
            tr.uninstall()
        check(traced.fp.hexdigest() == flood.fp.hexdigest(),
              "publish: traced run diverged from the untraced run")
        m = layer_metrics(tr, untraced_s, traced_s, 0, 0.0, flood)
        m.set("elect.gateways", gateways(q), "count")
        m.set("setup.workload_s", gen_s, "s")
        m.set("setup.build_s", build_s, "s")
        lines = [f"events {len(stream)}, fingerprint {flood.fp.hexdigest()[:16]}"]
        return m, tr, gen_s + build_s, flood, lines

    # One overlay at a time: overlays kept alive for later would make
    # every garbage collection during this one's stream slower.
    setups, floods = [], []
    for sub in subs_seeds:
        p, stream, gen_s, build_s = publish_setup(sub, n_events)
        setups.append(gen_s + build_s)
        flood = Flood()
        flood.publish(p, stream)
        flood.check_complete(f"publish instance {sub}")
        floods.append(flood)
        del p, stream
    # Whole streams: the cache warms as a stream goes on, and the garbage
    # collections its growth sets off land in one part or another.
    run_s = statistics.median(sum(f.latency) for f in floods)
    m = flood_metrics(floods, run_s)
    lines = [f"overlays {len(setups)} × {n_events} events, repeat share "
             + ", ".join(f"{f.repeat_share():.3f}" for f in floods)]
    return m, None, statistics.median(setups), pooled(floods), lines


# ----------------------------------------------------------------------
# churn
# ----------------------------------------------------------------------
def churn_inputs(seed: int):
    trace = SkypeTrace(n_nodes=CHURN_POOL, horizon=CHURN_HORIZON,
                       flash_crowd_at=CHURN_CROWD_AT, median_session=30.0,
                       median_offtime=60.0, seed=seed)
    subs = low_correlation_subscriptions(CHURN_POOL, CHURN_TOPICS, seed=seed)
    rng = np.random.default_rng(seed + 3)
    # Per window, uniform draws that pick a topic among those with a live
    # subscriber, then a publisher among its live subscribers.
    windows = [(rng.random(CHURN_EVENTS), rng.random(CHURN_EVENTS))
               for _ in range(CHURN_WINDOWS)]
    return trace, subs, windows


def churn_build(trace, subs, seed: int, telemetry=None) -> VitisProtocol:
    p = VitisProtocol(subs, VitisConfig(), seed=seed, auto_start=False,
                      election_every=1, relay_every=1, telemetry=telemetry)
    faults = SeedTree(seed + 7)
    p.attach_faults(MessageLoss(CHURN_LOSS, faults.pyrandom("loss")), HealingPolicy())
    p.attach_detector(SwimDetector(faults.pyrandom("swim")))
    trace.schedule().apply(p.engine, p.join, p.leave)
    return p


def churn_setup(sub: int, telemetry=None):
    gc.collect()
    (trace, subs, windows), gen_s = timed(churn_inputs, sub)
    p, build_s = timed(churn_build, trace, subs, sub, telemetry)
    return p, windows, gen_s, build_s


def churn_run(p, windows, flood: Flood) -> Dict:
    """Cycle chunks with a publish window after each; only the program's
    calls are timed, per chunk and per window."""
    gc.collect()
    segments, node_cycles, live = [], 0, []
    for u_topic, u_pub in windows:
        cycle_s = 0.0
        for _ in range(CHURN_WINDOW):
            cycle_s += timed(p.run_cycles, 1)[1]
            node_cycles += p.live_count()
        live.append(p.live_count())
        topics = [t for t in p.topics() if p.subscribers(t)]
        stream = []
        for ut, up in zip(u_topic, u_pub):
            t = topics[int(ut * len(topics))]
            members = sorted(p.subscribers(t))
            stream.append((t, members[int(up * len(members))]))
        flood.new_epoch()
        segments += [cycle_s, flood.publish(p, stream, MIN_JOIN_AGE)]
    fp = Fingerprint()
    fp.add(flood.fp.hexdigest(), overlay_fingerprint(p), p.detector.summary(),
           p.false_evictions, p.fault_evictions)
    return {"segments": segments, "cycle_s": sum(segments[0::2]),
            "total_s": sum(segments), "node_cycles": node_cycles,
            "live": live, "fp": fp.hexdigest()}


def run_churn(seed: int, seconds: float, trace: bool):
    subs_seeds = instance_seeds(seed, seconds)
    if trace:
        sub = subs_seeds[0]
        # The program's own causal trace, audited for unexplained misses
        # (run first: it also warms the process for the timed runs).
        buf = io.StringIO()
        tel = Telemetry(trace=TraceWriter(buf))
        p, windows, _, _ = churn_setup(sub, tel)
        ainfo = churn_run(p, windows, Flood())
        tel.close()
        report = audit_trace([json.loads(line) for line in buf.getvalue().splitlines()])
        del buf
        check(report.ok, f"churn: audit failed, {report.unexplained_total} unexplained "
                         f"misses, {report.n_incomplete} incomplete span trees")
        p, windows, gen_s, build_s = churn_setup(sub)
        flood = Flood()
        info = churn_run(p, windows, flood)
        check(ainfo["fp"] == info["fp"], "churn: audited run diverged from the untraced run")
        # Wrap first: the churn schedule binds join/leave at set-up.
        tr = layers.install(Tracer())
        try:
            p, windows, _, _ = churn_setup(sub)
            with tr.span("unattributed"):
                tinfo = churn_run(p, windows, Flood())
        finally:
            tr.uninstall()
        check(tinfo["fp"] == info["fp"], "churn: traced run diverged from the untraced run")
        m = layer_metrics(tr, info["total_s"], tinfo["total_s"], info["node_cycles"],
                          info["cycle_s"], flood)
        det = p.detector
        m.set("elect.gateways", gateways(p), "count")
        m.set("swim.probes_sent", det.probes_sent, "count")
        m.set("swim.confirmations", det.confirmations, "count")
        m.set("swim.false_evictions", p.false_evictions, "count")
        m.set("setup.workload_s", gen_s, "s")
        m.set("setup.build_s", build_s, "s")
        m.set("population.live_min", min(info["live"]), "count", f"of {CHURN_POOL}")
        m.set("population.live_max", max(info["live"]), "count", f"of {CHURN_POOL}")
        lines = [f"audit: {report.n_events} events, misses by cause "
                 f"{dict(report.cause_totals())}", f"live per window {info['live']}"]
        return m, tr, gen_s + build_s, flood, lines

    runs, floods = [], []
    for sub in subs_seeds:
        # Set-up takes milliseconds: time it a few times.
        setups = []
        for _ in range(CHURN_SETUPS):
            p, windows, gen_s, build_s = churn_setup(sub)
            setups.append(gen_s + build_s)
        flood = Flood()
        info = churn_run(p, windows, flood)
        info["setup_s"] = statistics.median(setups)
        runs.append(info)
        floods.append(flood)
    m = flood_metrics(floods, robust_total([i["segments"] for i in runs]))
    lines = [f"timelines {len(runs)}, live per window "
             + " ".join(str(i["live"]) for i in runs)
             + ", repeat share " + ", ".join(f"{f.repeat_share():.3f}" for f in floods)]
    return m, None, statistics.median(i["setup_s"] for i in runs), pooled(floods), lines
