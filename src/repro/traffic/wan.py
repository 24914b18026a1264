"""WAN-like cross traffic: Poisson flow arrivals with heavy-tailed sizes.

This reproduces the paper's trace-driven workload (§8.1): Cubic cross flows
whose sizes are drawn from a heavy-tailed distribution and whose arrivals
form a Poisson process offering a fixed average load.  Because the size
distribution is heavy-tailed, the resulting traffic alternates naturally
between periods dominated by short (inelastic) flows and periods containing
one or more large elastic flows — exactly the regime in which elasticity
detection pays off.

The generator also maintains the ground truth the paper uses in Fig. 12:
at any time, the fraction of delivered cross-traffic bytes that belong to
"elastic" flows (flows bigger than the initial congestion window).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from ..cc.cubic import Cubic
from ..simulator.endpoint import Flow
from ..simulator.engine import Network
from ..simulator.source import FiniteSource
from .flowsize import HeavyTailedFlowSizes


@dataclass
class CrossFlowRecord:
    """Bookkeeping for one generated cross flow."""

    flow: Flow
    size_bytes: float
    elastic: bool
    start_time: float

    @property
    def fct(self) -> Optional[float]:
        return self.flow.fct


@dataclass
class WanWorkloadConfig:
    """Parameters of the WAN cross-traffic workload."""

    link_rate: float
    load: float = 0.5
    prop_rtt: float = 0.05
    seed: int = 1
    cc_factory: Callable[[], object] = Cubic
    flow_sizes: Optional[HeavyTailedFlowSizes] = None
    rtt_jitter: float = 0.0
    name: str = "cross"
    #: Cap on concurrently active generated flows, to bound simulation cost.
    max_concurrent: int = 60
    extra: dict = field(default_factory=dict)


def _sum_in_order(values: np.ndarray) -> float:
    """``total = 0.0; for v in values: total += v``, bit for bit.

    The sum must repeat the per-record loop exactly, so it runs left to
    right, one addition at a time: that is what ``np.cumsum`` does.  Do not
    use ``np.sum`` (pairwise summation) or builtin ``sum()`` (compensated
    summation from Python 3.12); both round differently.  The leading 0.0
    makes an empty or all-(-0.0) input sum to +0.0, like the loop.
    """
    return np.cumsum(np.concatenate(([0.0], values)))[-1]


class WanTrafficGenerator:
    """Drives Poisson arrivals of finite Cubic flows on a network."""

    def __init__(self, network: Network, config: WanWorkloadConfig) -> None:
        self.network = network
        self.config = config
        self.flow_sizes = (config.flow_sizes if config.flow_sizes is not None
                           else HeavyTailedFlowSizes(seed=config.seed))
        self.records: List[CrossFlowRecord] = []
        #: Records whose flow has not finished, in arrival order (see
        #: :meth:`_active_flows`).
        self._unfinished: List[CrossFlowRecord] = []
        #: Ground-truth snapshot, one entry per record (see
        #: :meth:`_truth_arrays`): start time, end time (NaN while open),
        #: bytes delivered and the elastic flag.
        self._truth_start = np.empty(0)
        self._truth_end = np.empty(0)
        self._truth_bytes = np.empty(0)
        self._truth_elastic = np.empty(0, dtype=bool)
        #: Indices of snapshot entries whose flow had not ended when the
        #: snapshot was last refreshed.  Not :attr:`_unfinished`: arrivals
        #: prune a flow from that list as soon as it finishes, but the
        #: snapshot must still read the flow once more after it ends to
        #: take its final bytes and end time.
        self._truth_open: List[int] = []
        self._rng = (network.rng if config.seed is None
                     else random.Random(config.seed))
        self._arrival_rate = self.flow_sizes.arrival_rate_for_load(
            config.link_rate, config.load)
        self._stopped = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self, at: float = 0.0) -> None:
        """Schedule the first arrival."""
        self.network.schedule_call(at + self._next_gap(), self._on_arrival)

    def stop(self) -> None:
        """Stop creating new flows (existing ones run to completion)."""
        self._stopped = True

    # ------------------------------------------------------------------ #
    # Arrival handling
    # ------------------------------------------------------------------ #
    def _on_arrival(self, now: float) -> None:
        if self._stopped:
            return
        if self._active_flows() < self.config.max_concurrent:
            sample = self.flow_sizes.sample()
            rtt = self.config.prop_rtt
            if self.config.rtt_jitter > 0:
                rtt += self._rng.uniform(-1, 1) * self.config.rtt_jitter
                rtt = max(rtt, 0.004)
            flow = Flow(cc=self.config.cc_factory(), prop_rtt=rtt,
                        source=FiniteSource(sample.size_bytes),
                        start_time=now, name=self.config.name)
            self.network.add_flow(flow)
            record = CrossFlowRecord(flow=flow, size_bytes=sample.size_bytes,
                                     elastic=sample.elastic, start_time=now)
            self.records.append(record)
            self._unfinished.append(record)
        self.network.schedule_call(now + self._next_gap(), self._on_arrival)

    def _active_flows(self) -> int:
        """Generated flows that are active (started, not finished) now.

        Equal to counting ``Flow.active`` over every record, flows added
        but not yet started included, because a finished flow never
        restarts: pruning finished records from :attr:`_unfinished` first
        keeps the cost proportional to the live flows.
        """
        live = self._unfinished = [r for r in self._unfinished
                                   if not r.flow.finished]
        return sum(1 for r in live if r.flow.active)

    def _next_gap(self) -> float:
        return self._rng.expovariate(self._arrival_rate)

    # ------------------------------------------------------------------ #
    # Ground truth and statistics
    # ------------------------------------------------------------------ #
    def elastic_byte_fraction(self, start: float, end: float) -> float:
        """Fraction of generated bytes delivered in [start, end] that belong
        to elastic flows (the paper's ground truth for Fig. 12).

        Each flow's delivered bytes are spread evenly over its lifetime (up
        to ``end`` while it is still open) and the share overlapping the
        window is counted.
        """
        f_start, ended, delivered, elastic = self._truth_arrays()
        f_end = np.where(np.isnan(ended), end, ended)
        overlap = np.maximum(0.0, np.minimum(end, f_end)
                             - np.maximum(start, f_start))
        duration = np.maximum(f_end - f_start, 1e-9)
        in_window = delivered * overlap / duration
        total = _sum_in_order(in_window)
        if total <= 0:
            return 0.0
        return float(_sum_in_order(in_window[elastic]) / total)

    def _truth_arrays(self) -> tuple:
        """The ground-truth snapshot, brought up to date with the network.

        Entries of ended flows are final (an ended flow delivers nothing
        more), so only records added since the last call and flows that
        were still open then are read from the simulation.
        """
        records = self.records
        known = len(self._truth_start)
        if len(records) > known:
            fresh = records[known:]
            self._truth_start = np.append(
                self._truth_start, [r.start_time for r in fresh])
            self._truth_elastic = np.append(
                self._truth_elastic, [r.elastic for r in fresh])
            self._truth_end = np.append(self._truth_end,
                                        np.full(len(fresh), np.nan))
            self._truth_bytes = np.append(self._truth_bytes,
                                          np.zeros(len(fresh)))
            self._truth_open.extend(range(known, len(records)))
        still_open = self._truth_open
        if still_open:
            stats = [records[i].flow.stats for i in still_open]
            ends = [s.end_time for s in stats]
            self._truth_bytes[still_open] = [s.bytes_delivered for s in stats]
            self._truth_end[still_open] = [np.nan if e is None else e
                                           for e in ends]
            self._truth_open = [i for i, e in zip(still_open, ends)
                                if e is None]
        return (self._truth_start, self._truth_end, self._truth_bytes,
                self._truth_elastic)

    def elastic_present(self, start: float, end: float,
                        byte_fraction_threshold: float = 0.3) -> bool:
        """Whether elastic flows carry a significant share of bytes in the window."""
        return self.elastic_byte_fraction(start, end) >= byte_fraction_threshold

    def completed_records(self) -> List[CrossFlowRecord]:
        """Records of flows that have finished (for FCT analysis)."""
        return [r for r in self.records if r.flow.fct is not None]
