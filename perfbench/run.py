"""End-to-end benchmark of the paper's experiments.

Runs one workload (``wan``, ``classify`` or ``multihop``, see
``workloads.py``) cold through the runtime's ``BatchExecutor`` with one
worker, a fresh empty cache and a closed loop of specs, and prints every
metric by name and unit, the output checks, the A/B payload identity and
(traced) the exact-count comparison.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Usage, from the repository root::

    python3 perfbench/run.py --workload wan --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload multihop --trace 1 --record

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  ``--record`` stores this run's payload hashes (and, traced, its
exact counts) as the reference for the workload and seed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from calibrate import REFERENCE_S, SENSITIVITY
from spans import LAYERS, UNATTRIBUTED_LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

WORKLOADS = ("wan", "classify", "multihop")

#: Nominal host seconds of one untraced pass over a workload's specs,
#: set-up and calibration included, on a busy 2-core x86-64 VM.  A run of
#: ``--seconds`` makes ``round(seconds / PASS_SECONDS)`` passes (at least
#: :data:`MIN_PASSES`): a count fixed by the arguments, never by how fast
#: this run happens to be, so that the best-of estimate below means the
#: same on every commit.
PASS_SECONDS = {"wan": 12.5, "classify": 10.0, "multihop": 12.0}
MIN_PASSES = 2

#: Fresh processes whose set-up time is sampled per run (passes count;
#: extra set-up-only processes make up the rest).
SETUP_SAMPLES = 7

#: Hard limit on a whole run: a pass still going at this point is killed
#: and the run fails.
RUN_TIMEOUT_S = 170.0

#: Counts that must repeat exactly at a fixed seed (traced runs).
EXACT_COUNTS = tuple(f"{layer}.calls" for layer in LAYERS) + (
    "topology.ticks", "topology.events_executed", "topology.roster_peak",
    "topology.buckets_created", "topology.spill_peak",
    "routing.route_changes", "link.enqueues", "endpoint.emits",
    "endpoint.acks", "cc.control_ticks", "core.samples",
    "core.evaluations", "core.mode_switches", "traffic.truth_queries",
    "traffic.cross_flows", "runtime.payload_bytes")


def declared_metrics(section: str) -> Dict[str, dict]:
    """The metrics ``BENCHMARK.json`` declares in one section, by name."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric for metric in bench[section]}


class ChildFailed(RuntimeError):
    """A pass's process failed without producing a report."""


def child_env(cache_dir: Path, traced: bool) -> Dict[str, str]:
    """Environment of a measured process: no inherited REPRO_* knobs."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(PYTHONHASHSEED="0", REPRO_CACHE_DIR=str(cache_dir),
               REPRO_BENCH_WORKERS="1")
    if traced:
        env["REPRO_AUDIT"] = "1"
    return env


def run_child(work: Path, workload: str, seed: Optional[int], traced: bool,
              deadline: float, setup_only: bool = False) -> dict:
    """Run one pass in a fresh process over a fresh empty cache, killing it
    at ``deadline`` (a ``time.monotonic()`` reading)."""
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=work))
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--cache-dir", str(cache_dir), "--trace", str(int(traced))]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        launched = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(cache_dir, traced),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True,
                              timeout=max(0.0, deadline - launched))
    except subprocess.TimeoutExpired as exc:
        # subprocess.run has killed the child and waited for it.
        raise ChildFailed(f"{' '.join(cmd[1:])} was still running "
                          f"{RUN_TIMEOUT_S:g} s into the run") from exc
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n"
                          f"{proc.stderr.strip()}")
    report = json.loads(lines[-1])
    report["setup_s"] = report.pop("setup_mark") - launched
    # The host speed of the pass: the median of its kernel timings.  The
    # first one directly follows set-up and also rescales set-up time.
    report["host_s"] = median(report["host_samples"])
    report["setup_scaled_s"] = scaled(report["setup_s"],
                                      report["host_samples"][0])
    return report


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def scaled(seconds: float, host_s: float) -> float:
    """``seconds`` measured while the calibration kernel took ``host_s``,
    rescaled to the reference host speed (see ``calibrate.py``)."""
    return seconds * (REFERENCE_S / host_s) ** SENSITIVITY


def best_of(reports: List[dict], key: str, rescale: bool = True) -> float:
    """Sum over the specs of each spec's fastest pass.

    Each spec's time is first rescaled to the reference host speed of its
    pass (see ``calibrate.py``), which removes the host's slow drifts.
    Shorter bursts of host noise only ever add time: taking each spec's
    best pass (passes lie a whole pass apart) filters the bursts that a sum
    over one pass would keep.  ``rescale=False`` gives the same sum over
    the raw host times.
    """
    per_spec = zip(*([scaled(spec[key], report["host_s"]) if rescale
                      else spec[key] for spec in report["specs"]]
                     for report in reports))
    return sum(min(times) for times in per_spec)


def layer_metrics(report: dict, untraced_wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    trace = report["trace"]
    before, after = trace["before"], trace["after"]

    def delta(kind: str, key: str) -> float:
        return after[kind].get(key, 0) - before[kind].get(key, 0)

    calls = {key: delta("calls", key) for key in after["calls"]}

    def calls_of(*names: str) -> int:
        return sum(calls.get(name, 0) for name in names)

    counters = trace["counters"]
    ticks = counters.get("ticks", 0)
    wall = report["wall_s"]
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = delta("self_s", layer)
        metrics[f"{layer}.calls"] = delta("layer_calls", layer)
    root = after["root_s"] - before["root_s"]
    unattributed = wall - root + sum(delta("self_s", layer)
                                     for layer in UNATTRIBUTED_LAYERS)
    metrics.update({
        "topology.ticks": ticks,
        "topology.events_executed": counters.get("events_executed", 0),
        "topology.events_per_tick": (counters.get("events_executed", 0)
                                     / ticks if ticks else 0.0),
        "topology.roster_peak": counters.get("roster_peak", 0),
        "topology.buckets_created": counters.get("buckets_created", 0),
        "topology.spill_peak": counters.get("spill_peak", 0),
        "routing.route_changes": calls_of("RoutingTable.set_active"),
        "link.enqueues": calls_of("BottleneckLink.enqueue"),
        "link.drop_bytes": counters.get("drop_bytes", 0.0),
        "endpoint.emits": calls_of("Flow.emit"),
        "endpoint.acks": calls_of("Flow.handle_ack"),
        "cc.control_ticks": sum(count for key, count in calls.items()
                                if key.endswith(".on_control_tick")),
        "core.samples": counters.get("estimator_samples", 0),
        "core.evaluations": calls_of("ElasticityDetector.evaluate",
                                     "PulserDetector.evaluate"),
        "core.mode_switches": calls_of("Nimbus._switch_mode"),
        "measurement.calls_per_tick": (delta("layer_calls", "measurement")
                                       / ticks if ticks else 0.0),
        "traffic.arrival_s": delta("inclusive_s", "traffic.arrival_s"),
        "traffic.truth_s": delta("inclusive_s", "traffic.truth_s"),
        "traffic.truth_queries": calls_of(
            "WanTrafficGenerator.elastic_byte_fraction",
            "ScriptedCrossTraffic.elastic_present"),
        "traffic.cross_flows": after["traffic_flows"]
        - before["traffic_flows"],
        # Hashing is mostly set-up work, so it covers the whole process.
        "runtime.hash_s": after["inclusive_s"].get("runtime.hash_s", 0.0),
        "runtime.cache_get_s": delta("inclusive_s", "runtime.cache_get_s"),
        "runtime.cache_put_s": delta("inclusive_s", "runtime.cache_put_s"),
        "runtime.payload_bytes": trace["payload_bytes"],
        "spans.unattributed_s": unattributed,
        "spans.overhead_s": wall - untraced_wall,
    })
    return metrics


def load_reference() -> dict:
    if REFERENCE.exists():
        return json.loads(REFERENCE.read_text())
    return {}


def compare_reference(workload: str, seed_key: str, hashes: Dict[str, str],
                      counts: Optional[Dict[str, float]],
                      record: bool) -> None:
    """Print the A/B identity and exact-count reports; store on ``record``."""
    reference = load_reference()
    stored = reference.get(workload, {}).get(seed_key, {})
    old_hashes = stored.get("payload_sha256")
    print(f"# A/B payload identity ({workload}, seed {seed_key}):")
    for label, digest in hashes.items():
        if old_hashes is None or label not in old_hashes:
            verdict = "no reference"
        elif old_hashes[label] == digest:
            verdict = "identical"
        else:
            verdict = "changed"
        print(f"#   {label:<24} {verdict}  sha256 {digest[:16]}")
    if counts is not None:
        old_counts = stored.get("counts")
        print(f"# exact counts ({workload}, seed {seed_key}):")
        if old_counts is None:
            print("#   no reference")
        else:
            diffs = [name for name in counts
                     if old_counts.get(name) != counts[name]]
            for name in diffs:
                print(f"#   {name}: {old_counts.get(name)} -> {counts[name]}")
            if not diffs:
                print(f"#   all {len(counts)} counts match the reference")
    if record:
        entry = reference.setdefault(workload, {}).setdefault(seed_key, {})
        entry["payload_sha256"] = hashes
        if counts is not None:
            entry["counts"] = counts
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                             + "\n")
        print(f"# recorded the reference for {workload}, seed {seed_key}")


def spec_problems(report: dict) -> List[str]:
    return [f"{spec['label']}: {problem}" for spec in report["specs"]
            for problem in spec["problems"]]


def trimmed_mean(values: List[float]) -> float:
    """Mean after dropping the lowest and the highest value (when there are
    at least three): robust to the one heavy-tailed seed of a group, yet
    smoother than a median over bimodal outcomes."""
    values = sorted(values)
    return statistics.fmean(values[1:-1] if len(values) >= 3 else values)


def outcome_values(report: dict) -> Dict[str, float]:
    """Simulated outcomes of one pass: the trimmed mean over each
    group of seed replicates, then the mean over the workload's groups."""
    groups: Dict[str, List[dict]] = {}
    for spec in report["specs"]:
        groups.setdefault(spec["group"], []).append(spec)
    values: Dict[str, float] = {}
    for name in ("mode_accuracy", "tput_mbps", "qdelay_ms"):
        per_group = [trimmed_mean(scored) for scored in (
            [spec[name] for spec in specs if spec.get(name) is not None]
            for specs in groups.values()) if scored]
        values[name] = (statistics.fmean(per_group) if per_group
                        else float("nan"))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the Nimbus reproduction.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: each driver's own)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure for about this long: sets the "
                             "number of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics instead")
    parser.add_argument("--record", action="store_true",
                        help="store payload hashes (and counts) as the "
                             "reference for this workload and seed")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the running pass,
    # and the work directory is removed.
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "experiments" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        return measure(args, work)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


def measure(args, work: Path) -> int:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    passes = max(MIN_PASSES,
                 round(args.seconds / PASS_SECONDS[args.workload]))
    plain: List[dict] = []
    traced: List[dict] = []
    if args.trace:
        # An untraced and a traced pass alternate; a traced pass costs
        # about 1.6 untraced ones.
        for _ in range(max(1, passes // 2)):
            plain.append(run_child(work, args.workload, args.seed, False,
                                   deadline))
            traced.append(run_child(work, args.workload, args.seed, True,
                                    deadline))
    else:
        for _ in range(passes):
            plain.append(run_child(work, args.workload, args.seed, False,
                                   deadline))
    setups = [(report["setup_s"], report["setup_scaled_s"])
              for report in plain]
    if not args.trace:
        while len(setups) < SETUP_SAMPLES:
            report = run_child(work, args.workload, args.seed, False,
                               deadline, setup_only=True)
            setups.append((report["setup_s"], report["setup_scaled_s"]))

    problems = [p for report in plain + traced for p in spec_problems(report)]
    attempted = sum(len(report["specs"]) for report in plain + traced)
    failed = sum(1 for report in plain + traced for spec in report["specs"]
                 if spec["problems"])
    outcomes = [outcome_values(report) for report in plain + traced]
    if not failed and any(o != outcomes[0] for o in outcomes[1:]):
        problems.append("simulated outcomes differ between passes of "
                        "the same seed")
    hashes = [{spec["label"]: spec.get("sha256", "") for spec in r["specs"]}
              for r in plain + traced]
    if any(h != hashes[0] for h in hashes[1:]):
        problems.append("payload hashes differ between passes of the "
                        "same seed")

    seed_key = "default" if args.seed is None else str(args.seed)
    pass_walls = [r["wall_s"] for r in plain]
    print(f"# workload {args.workload}, seed {seed_key}: {len(plain)} "
          f"untraced and {len(traced)} traced passes, "
          f"{len(setups)} set-up samples")
    print(f"# untraced pass wall time: median {median(pass_walls):.4f} s, "
          f"min {min(pass_walls):.4f} s, max {max(pass_walls):.4f} s "
          f"over {len(pass_walls)} passes")
    host = [sample for r in plain for sample in r["host_samples"]]
    print(f"# calibration kernel: median {median(host) * 1e3:.2f} ms, min "
          f"{min(host) * 1e3:.2f} ms, max {max(host) * 1e3:.2f} ms over "
          f"{len(host)} timings (reference {REFERENCE_S * 1e3:.2f} ms); "
          f"unscaled: wall_s {best_of(plain, 'wall_s', False):.4f} s, "
          f"setup_s {median([raw for raw, _ in setups]):.4f} s")
    if args.trace:
        per_pass = [layer_metrics(r, median(pass_walls)) for r in traced]
        counts = {name: per_pass[0][name] for name in EXACT_COUNTS}
        if any({n: m[n] for n in EXACT_COUNTS} != counts for m in per_pass):
            problems.append("exact counts differ between traced "
                            "passes of the same seed")
        metrics = {name: median([m[name] for m in per_pass])
                   for name in per_pass[0]}
        attributed = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        closure = attributed + metrics["spans.unattributed_s"]
        print(f"# span closure: layers {attributed:.4f} s + unattributed "
              f"{metrics['spans.unattributed_s']:.4f} s = {closure:.4f} s; "
              f"traced wall {median([r['wall_s'] for r in traced]):.4f} s")
        for r, m in zip(traced, per_pass):
            total = sum(m[f"{layer}.self_s"] for layer in LAYERS) \
                + m["spans.unattributed_s"]
            if abs(total - r["wall_s"]) > 1e-6 * max(1.0, r["wall_s"]):
                problems.append(f"layer self times do not add up to the "
                                f"traced wall time ({total} vs "
                                f"{r['wall_s']})")
        metrics["core.mode_accuracy"] = outcomes[-1]["mode_accuracy"]
    else:
        counts = None
        metrics = {
            "setup_s": median([value for _, value in setups]),
            "wall_s": best_of(plain, "wall_s"),
            "cpu_s": best_of(plain, "cpu_s"),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
            "spec_ok_ratio": (attempted - failed) / attempted,
            "tput_mbps": outcomes[0]["tput_mbps"],
            "qdelay_ms": outcomes[0]["qdelay_ms"],
        }
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(declared):
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(declared))}")
    units = {name: declared.get(name, {}).get("unit", "?")
             for name in metrics}
    for name, value in metrics.items():
        better = declared.get(name, {}).get("better", "?")
        print(f"{name:<28} {value:>14.6g} {units[name]:<7} "
              f"({better} is better)")
    if not args.trace:
        print(f"{'spec_fail_ratio':<28} {failed / attempted:>14.6g} ratio   "
              f"(lower is better; 1 - spec_ok_ratio)")
        print(f"{'mode_accuracy':<28} "
              f"{outcomes[0]['mode_accuracy']:>14.6g} ratio   "
              f"(higher is better; the per-layer core.mode_accuracy, see "
              f"README.md)")
    compare_reference(args.workload, seed_key, hashes[0], counts,
                      args.record and not problems)
    print(f"# output checks: {'all passed' if not problems else 'FAILED'}")
    for problem in problems:
        print(f"#   {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        # A metric left undefined by failed specs reads 0, never NaN.
        "metrics": {name: {"value": value if value == value else 0.0,
                           "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
