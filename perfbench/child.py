"""One measured pass over a workload's specs, in a fresh process.

``run.py`` starts this script once per pass (and once per extra set-up
sample).  It imports the program, builds the executor over a fresh
empty cache directory, hashes the workload's specs, and notes the moment
the first spec is about to start.  It then runs the specs through
``BatchExecutor`` one at a time, each starting only after the previous one
returned, scores and checks every payload, and prints one JSON line.
Outside the timed windows it measures the host's speed with
:func:`calibrate.measure`: once right after set-up and once after every
spec.

With ``--trace 1`` the layer spans of :mod:`spans` are installed first and
the JSON carries the per-layer tallies and exact counts.

Usage: ``python3 perfbench/child.py --workload wan --cache-dir DIR
[--seed N] [--trace 0|1] [--setup-only]``
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pickle
import resource
import sys
import time
import traceback
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def capture_networks(sink: list) -> None:
    """Record every network a spec runs, for the checks after it returns."""
    from repro.simulator.topology import TopologyNetwork

    run = TopologyNetwork.run

    def recording_run(self, until):
        if not any(network is self for network in sink):
            sink.append(self)
        return run(self, until)

    TopologyNetwork.run = recording_run


def engine_counters(networks) -> dict:
    """Engine counters summed (peaks: maxed) over a spec's networks."""
    totals = {"ticks": 0, "events_executed": 0, "roster_peak": 0,
              "buckets_created": 0, "spill_peak": 0, "drop_bytes": 0.0,
              "estimator_samples": 0}
    for network in networks:
        stats = network.engine_stats()
        totals["ticks"] += stats["ticks"]
        totals["events_executed"] += stats["events_executed"]
        totals["buckets_created"] += stats["calendar_buckets_created"]
        totals["roster_peak"] = max(totals["roster_peak"],
                                    stats["roster_peak"])
        totals["spill_peak"] = max(totals["spill_peak"], stats["spill_peak"])
        totals["drop_bytes"] += sum(link.total_drops
                                    for link in network.topology.links)
        totals["estimator_samples"] += sum(
            len(flow.cc.estimator) for flow in network.flows
            if hasattr(flow.cc, "estimator"))
    return totals


def peak_rss_mb() -> float:
    """Peak resident memory of this process, less its file-backed pages.

    Which pages of the shared libraries and other mapped files are resident
    depends on the host's page cache and moved the plain peak by 8 % between
    runs of the same code; the program's own memory is anonymous.  Where
    ``/proc`` is missing, the plain peak.
    """
    try:
        with open("/proc/self/status") as status:
            fields = dict(line.split(":", 1) for line in status)
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kib = {name: int(fields[name].split()[0])
           for name in ("VmHWM", "RssFile", "RssShmem")}
    return (kib["VmHWM"] - kib["RssFile"] - kib["RssShmem"]) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import spans

        tracer = spans.SpanTracer()
        spans.install(tracer)
        tracer.active = True

    import workloads
    from repro.runtime import BatchExecutor, ResultCache, ScenarioSpec
    from repro.runtime.depgraph import module_digest

    cases = workloads.WORKLOADS[args.workload](args.seed)
    if tracer is not None:
        for fn in sorted({case.fn for case in cases}):
            module, _, attr = fn.partition(":")
            spans.wrap_target(tracer, module, attr)
    executor = BatchExecutor(workers=1, cache=ResultCache(
        directory=Path(args.cache_dir), enabled=True))
    specs = [ScenarioSpec.make(case.fn, label=case.label, **case.params)
             for case in cases]
    for spec in specs:
        spec.spec_hash()
        module_digest(spec.module)
    setup_mark = time.monotonic()
    host_samples = [calibrate.measure()]
    if args.setup_only:
        print(json.dumps({"setup_mark": setup_mark,
                          "host_samples": host_samples}))
        return 0

    networks: list = []
    capture_networks(networks)
    before = tracer.snapshot() if tracer is not None else None
    wall = cpu = 0.0
    results = []
    counters: dict = {}
    payload_bytes = 0
    for case, spec in zip(cases, specs):
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            payload = executor.run_one(spec)
            error = None
        except Exception:
            payload, error = None, traceback.format_exc()
        spec_wall = time.perf_counter() - start
        spec_cpu = time.process_time() - cpu_start
        wall += spec_wall
        cpu += spec_cpu
        if tracer is not None:
            tracer.active = False
        entry = {"label": case.label, "group": case.group, "problems": [],
                 "wall_s": spec_wall, "cpu_s": spec_cpu}
        if error is not None:
            entry["problems"].append(f"raised:\n{error}")
        else:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            payload_bytes += len(blob)
            entry["sha256"] = hashlib.sha256(blob).hexdigest()
            try:
                outcome = case.score(payload, networks, case.params)
                entry["problems"] += workloads.check_outcome(case, outcome)
                entry.update(mode_accuracy=outcome.mode_accuracy,
                             tput_mbps=outcome.tput_mbps,
                             qdelay_ms=outcome.qdelay_ms)
            except Exception:
                entry["problems"].append(
                    f"scoring raised:\n{traceback.format_exc()}")
            for network in networks:
                entry["problems"] += workloads.check_engine(network)
            if tracer is not None:
                for name, value in engine_counters(networks).items():
                    if name.endswith("_peak"):
                        counters[name] = max(counters.get(name, 0), value)
                    else:
                        counters[name] = counters.get(name, 0) + value
        networks.clear()
        host_samples.append(calibrate.measure())
        results.append(entry)
        if tracer is not None:
            tracer.active = True

    report = {
        "setup_mark": setup_mark,
        "host_samples": host_samples,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb(),
        "specs": results,
    }
    if tracer is not None:
        tracer.active = False
        after = tracer.snapshot()
        report["trace"] = {"before": before, "after": after,
                           "counters": counters,
                           "payload_bytes": payload_bytes}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
