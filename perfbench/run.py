"""The repository's benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload converge --seed 1 --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` is the traced run: it measures the workload once untraced
and once with timing wrappers around every layer's public entry point,
checks both produce the same simulated output, reports per-layer self
time and work counts, and writes the spans to ``.perfbench_out/``.  The
``publish`` traced run also runs the loopback probe over real UDP
sockets (``perfbench/loopback.py``).
Metric definitions are in ``perfbench/README.md``; the list the last
output line carries is ``BENCHMARK.json``.

Exit status: 0 when every correctness check held, 1 when one failed (the
result line then says ``"correct": false``), 2 when the program source
or ``BENCHMARK.json`` cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("converge", "publish", "churn")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    if not os.path.isfile(spec_path):
        print(f"perfbench: {spec_path} not found", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    from perfbench.common import CheckFailed, Metrics, peak_rss_mb, print_report, print_result
    from perfbench import loopback, simload

    metrics = Metrics()
    correct = True
    attempted = failed = 0
    lines = []
    tracer = probe = None
    try:
        run = {"converge": simload.run_converge, "publish": simload.run_publish,
               "churn": simload.run_churn}[args.workload]
        m, tracer, setup_s, flood, lines = run(args.seed, args.seconds, bool(args.trace))
        # A subscriber the flood did not reach is a failed operation.
        attempted, failed = flood.expected, flood.missed
        y = simload.YARD
        lines.append(f"host speed {y.speed():.3f} of nominal (yardstick): timed segments "
                     f"{y.raw_s:.2f} s raw, {y.scaled_s:.2f} s scaled")
        if args.trace and args.workload == "publish":
            pm, probe, plines = loopback.probe(args.seed)
            m.update(pm)
            lines += plines
        metrics.set("setup_s", setup_s, "s", "median over set-ups in this run")
        metrics.update(m)
        metrics.set("peak_rss_mb", peak_rss_mb(), "MiB")
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        correct = False

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = [x["name"] for x in wanted]
    if args.trace:
        # Layers a workload never calls did no work: their spans and
        # counts are zero (the traced run wrapped them all the same).
        for x in wanted:
            if x["name"] not in metrics.values:
                metrics.set(x["name"], 0.0, x["unit"], "not loaded by this workload")
    for name, tr in ((args.workload, tracer), ("loopback", probe)):
        if tr is None:
            continue
        shares = sorted(tr.self_s.items(), key=lambda kv: -kv[1])
        total = sum(tr.self_s.values()) or 1.0
        lines.append(f"{name} self time: " + ", ".join(
            f"{layer} {100 * s / total:.1f}%" for layer, s in shares if s > 0))
        out = os.path.join(ROOT, ".perfbench_out", f"spans-{name}-seed{args.seed}.jsonl")
        tr.write(out)
        lines.append(f"{len(tr.spans)} spans written to {os.path.relpath(out, ROOT)}")
    if correct:
        print_report(f"{args.workload} seed={args.seed} trace={args.trace}", metrics, lines)
        print_result(True, max(1, attempted), failed, metrics, names)
        return 0
    print(json.dumps({"correct": False, "attempted": max(1, attempted),
                      "failed": max(1, failed), "metrics": {}}))
    return 1


if __name__ == "__main__":
    sys.exit(main())
