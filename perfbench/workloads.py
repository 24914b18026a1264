"""The benchmark's workloads: which driver specs each one runs, and how
each spec's outcome is scored and checked.

Every spec runs a real figure driver at the benchmark tick
:data:`BENCH_DT`.  The workload seed reaches each driver's ``seed``
keyword: replicate ``j`` of a spec gets ``seed + 1000 * j``, where a
missing seed stands for the driver's own default seed.  Replicates of one
spec form a group; ``run.py`` takes the trimmed mean over a group and the
mean over a workload's groups.
"""

from __future__ import annotations

import importlib
import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.analysis.accuracy import classification_accuracy
from repro.experiments.common import MAIN_FLOW, queue_delay_stats

#: Simulation tick of every benchmark spec.
BENCH_DT = 0.004

#: Seed stride between replicates of one spec (keeps seeds 0..999 of
#: different replicates disjoint).
REPLICATE_STRIDE = 1000

#: Table 1 classes, in the order the table lists them.
CLASSIFY_CLASSES = ("cubic", "reno", "vegas", "fixed-window", "app-limited",
                    "constant-stream", "pcc-vivace")


@dataclass
class Outcome:
    """Scored result of one spec.

    Attributes:
        mode_accuracy: Fraction of post-warmup time the Nimbus flow spent
            in the correct mode; ``None`` when the spec has no ground truth.
        tput_mbps: Mean post-warmup throughput of the Nimbus main flow.
        qdelay_ms: Mean post-warmup queueing delay at the bottleneck.
        problems: Failed output checks, one line each.
    """

    mode_accuracy: Optional[float]
    tput_mbps: float
    qdelay_ms: float
    problems: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class Case:
    """One spec of a workload and the scorer for its payload."""

    label: str
    group: str
    fn: str
    params: Dict[str, object]
    link_mbps: float
    buffer_ms: float
    score: Callable[..., Outcome]


def main_network(networks):
    """The network that carries the Nimbus main flow."""
    for network in networks:
        if any(flow.name == MAIN_FLOW for flow in network.flows):
            return network
    raise LookupError("no network with a main flow was run")


def _score_wan(payload, networks, params) -> Outcome:
    warmup = 10.0  # fig12's own warm-up
    recorder = main_network(networks).recorder
    return Outcome(
        mode_accuracy=payload.data["accuracy"],
        tput_mbps=payload.schemes["nimbus"].summary.mean_throughput_mbps,
        qdelay_ms=queue_delay_stats(recorder, start=warmup)["mean"])


def _score_classify(payload, networks, params) -> Outcome:
    warmup = 10.0  # classify()'s own warm-up
    recorder = main_network(networks).recorder
    competitive = payload["competitive_fraction"]
    right = (competitive if payload["expected"] == "elastic"
             else 1.0 - competitive)
    problems = []
    if payload["correct"] != (payload["classification"]
                              == payload["expected"]):
        problems.append("classify: 'correct' disagrees with the decision")
    return Outcome(
        mode_accuracy=right,
        tput_mbps=recorder.mean_throughput(MAIN_FLOW, start=warmup),
        qdelay_ms=queue_delay_stats(recorder, start=warmup)["mean"],
        problems=problems)


def _score_parking_lot(payload, networks, params) -> Outcome:
    # Every cross flow is a backlogged Cubic flow, so the ground truth is
    # "elastic" for the whole run.
    warmup = params["duration"] / 6.0  # run_case()'s own warm-up
    recorder = main_network(networks).recorder
    times, modes = recorder.mode_series(MAIN_FLOW)
    report = classification_accuracy(times, modes, elastic_truth=lambda t: True,
                                     warmup=warmup)
    problems = []
    for name, hop in payload["data"]["per_hop"].items():
        residue = hop["offered_bytes"] - (hop["served_bytes"]
                                          + hop["queued_bytes"]
                                          + hop["dropped_bytes"])
        if abs(residue) > 1e-6 * max(1.0, hop["offered_bytes"]):
            problems.append(f"parking_lot: {name} loses {residue} bytes")
    return Outcome(
        mode_accuracy=report.accuracy,
        tput_mbps=payload["summary"].mean_throughput_mbps,
        qdelay_ms=payload["extra"]["queue"]["mean"],
        problems=problems)


def _score_reroute(payload, networks, params) -> Outcome:
    extra = payload["extra"]
    problems = []
    if extra["route_changes"] < 1:
        problems.append("reroute: the primary link flapped but no route "
                        "changed")
    return Outcome(
        mode_accuracy=extra["mode_accuracy"],
        tput_mbps=payload["summary"].mean_throughput_mbps,
        qdelay_ms=extra["queue"]["mean"],
        problems=problems)


def driver_seed(fn: str, seed: Optional[int], replicate: int = 0) -> int:
    """The ``seed`` keyword of replicate ``replicate`` of driver ``fn``.

    ``seed=None`` starts from the driver's own default seed.
    """
    if seed is None:
        module, _, attr = fn.partition(":")
        target = getattr(importlib.import_module(module), attr)
        seed = inspect.signature(target).parameters["seed"].default
    return seed + REPLICATE_STRIDE * replicate


#: Simulated seconds per spec, and seed replicates of the seed-sensitive
#: specs.  ``wan`` and ``reroute`` outcomes swing with the seed (heavy-tailed
#: flow sizes; Poisson phases), so each runs as a group of replicates; the
#: ``parking_lot`` run does not depend on the seed, and ``classify`` barely.
WAN_DURATION = 15.0
WAN_REPLICATES = 6
CLASSIFY_DURATION = 30.0
MULTIHOP_DURATION = 40.0
REROUTE_REPLICATES = 5


def _wan(seed):
    fn = "repro.experiments.fig12_eta_tracking:run"
    return [Case(f"fig12#{j}", "fig12", fn,
                 dict(duration=WAN_DURATION, dt=BENCH_DT,
                      seed=driver_seed(fn, seed, j)),
                 link_mbps=96.0, buffer_ms=100.0, score=_score_wan)
            for j in range(WAN_REPLICATES)]


def _classify(seed):
    fn = "repro.experiments.table1_classification:classify"
    return [Case(f"table1:{name}", f"table1:{name}", fn,
                 dict(traffic=name, duration=CLASSIFY_DURATION, dt=BENCH_DT,
                      seed=driver_seed(fn, seed)),
                 link_mbps=96.0, buffer_ms=100.0, score=_score_classify)
            for name in CLASSIFY_CLASSES]


def _multihop(seed):
    parking = "repro.experiments.parking_lot:run_case"
    reroute = "repro.experiments.reroute:run_case"
    return [Case("parking_lot", "parking_lot", parking,
                 dict(duration=MULTIHOP_DURATION, dt=BENCH_DT,
                      seed=driver_seed(parking, seed)),
                 link_mbps=48.0, buffer_ms=100.0, score=_score_parking_lot)
            ] + [Case(f"reroute#{j}", "reroute", reroute,
                      dict(duration=MULTIHOP_DURATION, dt=BENCH_DT,
                           seed=driver_seed(reroute, seed, j)),
                      link_mbps=48.0, buffer_ms=100.0, score=_score_reroute)
                 for j in range(REROUTE_REPLICATES)]


WORKLOADS: Dict[str, Callable[[Optional[int]], List[Case]]] = {
    "wan": _wan,
    "classify": _classify,
    "multihop": _multihop,
}


def check_outcome(case: Case, outcome: Outcome) -> List[str]:
    """Range checks on one spec's outcome metrics."""
    problems = list(outcome.problems)
    values = {"tput_mbps": outcome.tput_mbps, "qdelay_ms": outcome.qdelay_ms}
    if outcome.mode_accuracy is not None:
        values["mode_accuracy"] = outcome.mode_accuracy
    for name, value in values.items():
        if not math.isfinite(value):
            problems.append(f"{name} is not finite: {value}")
    if (outcome.mode_accuracy is not None
            and not 0.0 <= outcome.mode_accuracy <= 1.0):
        problems.append(f"mode_accuracy {outcome.mode_accuracy} outside "
                        f"[0, 1]")
    if not 0.0 < outcome.tput_mbps <= case.link_mbps * 1.01:
        problems.append(f"tput_mbps {outcome.tput_mbps} outside "
                        f"(0, {case.link_mbps}]")
    if not 0.0 <= outcome.qdelay_ms <= case.buffer_ms * 1.1:
        problems.append(f"qdelay_ms {outcome.qdelay_ms} outside "
                        f"[0, {case.buffer_ms}]")
    return problems


def check_engine(network) -> List[str]:
    """The engine's event conservation law on one finished network."""
    stats = network.engine_stats()
    if stats["events_scheduled"] != (stats["events_executed"]
                                     + stats["events_pending"]):
        return [f"events_scheduled {stats['events_scheduled']} != executed "
                f"{stats['events_executed']} + pending "
                f"{stats['events_pending']}"]
    return []
