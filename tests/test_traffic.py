"""Traffic generators: flow sizes, WAN workload, scripted phases."""

import random

import numpy as np
import pytest

from repro import quick_network
from repro.simulator import mbps_to_bytes_per_sec
from repro.traffic import (
    ELASTIC_THRESHOLD_BYTES,
    HeavyTailedFlowSizes,
    Phase,
    ScriptedCrossTraffic,
    WanTrafficGenerator,
    WanWorkloadConfig,
)


class TestFlowSizes:
    def test_sizes_positive_and_bounded(self):
        dist = HeavyTailedFlowSizes(seed=1)
        samples = dist.sample_many(2000)
        assert all(100.0 <= s.size_bytes <= dist.max_bytes for s in samples)

    def test_heavy_tail_present(self):
        dist = HeavyTailedFlowSizes(seed=2)
        sizes = sorted(s.size_bytes for s in dist.sample_many(5000))
        top_1pct = sizes[int(0.99 * len(sizes)):]
        # The top 1% of flows must be far larger than the median.
        assert min(top_1pct) > 20 * sizes[len(sizes) // 2]

    def test_most_flows_short_most_bytes_long(self):
        dist = HeavyTailedFlowSizes(seed=3)
        samples = dist.sample_many(5000)
        short = [s for s in samples if not s.elastic]
        elastic_bytes = sum(s.size_bytes for s in samples if s.elastic)
        total_bytes = sum(s.size_bytes for s in samples)
        assert len(short) / len(samples) > 0.5
        assert elastic_bytes / total_bytes > 0.5

    def test_elastic_flag_matches_threshold(self):
        dist = HeavyTailedFlowSizes(seed=4)
        for sample in dist.sample_many(500):
            assert sample.elastic == (sample.size_bytes > ELASTIC_THRESHOLD_BYTES)

    def test_arrival_rate_for_load(self):
        dist = HeavyTailedFlowSizes(seed=5)
        mu = mbps_to_bytes_per_sec(96)
        rate = dist.arrival_rate_for_load(mu, load=0.5)
        assert rate * dist.mean_bytes() == pytest.approx(0.5 * mu, rel=1e-6)

    def test_reproducibility(self):
        a = [s.size_bytes for s in HeavyTailedFlowSizes(seed=7).sample_many(50)]
        b = [s.size_bytes for s in HeavyTailedFlowSizes(seed=7).sample_many(50)]
        assert a == b

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HeavyTailedFlowSizes(short_fraction=1.5)
        with pytest.raises(ValueError):
            HeavyTailedFlowSizes(pareto_shape=0.9)


class TestWanGenerator:
    @pytest.fixture(scope="class")
    def wan_run(self):
        network, _ = quick_network(link_mbps=24, buffer_ms=100, dt=0.004)
        config = WanWorkloadConfig(link_rate=mbps_to_bytes_per_sec(24),
                                   load=0.5, prop_rtt=0.05, seed=3)
        generator = WanTrafficGenerator(network, config)
        generator.start()
        network.run(30.0)
        return network, generator

    def test_flows_created(self, wan_run):
        _, generator = wan_run
        assert len(generator.records) > 5

    def test_offered_load_roughly_respected(self, wan_run):
        network, _ = wan_run
        tput = network.recorder.mean_throughput("cross", start=5.0)
        # Offered 12 Mbit/s; delivery should be in the right ballpark.
        assert 4.0 < tput < 20.0

    def test_some_flows_complete(self, wan_run):
        _, generator = wan_run
        completed = generator.completed_records()
        assert len(completed) > 0
        assert all(r.fct > 0 for r in completed)

    def test_elastic_byte_fraction_bounds(self, wan_run):
        _, generator = wan_run
        frac = generator.elastic_byte_fraction(0.0, 30.0)
        assert 0.0 <= frac <= 1.0

    def test_stop_halts_arrivals(self):
        network, _ = quick_network(link_mbps=24, buffer_ms=100, dt=0.004)
        config = WanWorkloadConfig(link_rate=mbps_to_bytes_per_sec(24),
                                   load=0.5, prop_rtt=0.05, seed=3)
        generator = WanTrafficGenerator(network, config)
        generator.start()
        network.run(5.0)
        generator.stop()
        count = len(generator.records)
        network.run(10.0)
        assert len(generator.records) == count


def _loop_elastic_byte_fraction(generator, start, end):
    """Reference ground truth: the per-record loop the vectorized
    ``elastic_byte_fraction`` must reproduce bit for bit."""
    elastic = 0.0
    total = 0.0
    for record in generator.records:
        flow = record.flow
        f_start = record.start_time
        f_end = flow.stats.end_time if flow.stats.end_time is not None else end
        overlap = max(0.0, min(end, f_end) - max(start, f_start))
        duration = max(f_end - f_start, 1e-9)
        bytes_in_window = flow.stats.bytes_delivered * overlap / duration
        total += bytes_in_window
        if record.elastic:
            elastic += bytes_in_window
    if total <= 0:
        return 0.0
    return elastic / total


def _wan_generator(generator_class=WanTrafficGenerator, **config):
    network, _ = quick_network(link_mbps=24, buffer_ms=100, dt=0.004)
    config.setdefault("load", 0.5)
    generator = generator_class(network, WanWorkloadConfig(
        link_rate=mbps_to_bytes_per_sec(24), prop_rtt=0.05, seed=3,
        **config))
    return network, generator


class TestWanGroundTruthExact:
    def test_matches_loop_between_run_chunks(self):
        network, generator = _wan_generator()
        generator.start()
        rng = random.Random(11)
        saw_open_flows = False
        for until in (1.0, 2.5, 5.0, 8.0, 12.0):
            network.run(until)
            first_arrival = generator.records[0].start_time
            saw_open_flows |= any(r.flow.stats.end_time is None
                                  for r in generator.records)
            windows = [(0.0, first_arrival / 2),     # before any flow
                       (-1.0, 0.0), (0.0, until), (until, until + 1.0)]
            for _ in range(40):
                end = rng.uniform(0.0, until + 0.5)
                windows.append((max(0.0, end - 5.0), end))
                windows.append((rng.uniform(-1.0, until), end))
            windows.append((np.float64(until) - 5.0, np.float64(until)))
            for start, end in windows:
                # Twice in a row: a second query without progress in between
                # reuses the snapshot and must not drift.
                for _ in range(2):
                    assert (generator.elastic_byte_fraction(start, end)
                            == _loop_elastic_byte_fraction(generator, start,
                                                           end)), \
                        (until, start, end)
        assert saw_open_flows
        assert generator.elastic_byte_fraction(0.0, first_arrival / 2) == 0.0

    def test_no_records_is_zero(self):
        _, generator = _wan_generator()
        assert generator.records == []
        assert generator.elastic_byte_fraction(0.0, 10.0) == 0.0
        assert not generator.elastic_present(0.0, 10.0)


class _ArrivalOracle(WanTrafficGenerator):
    """Checks the live-flow count against a scan of every record."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.counts = []

    def _active_flows(self):
        count = super()._active_flows()
        assert count == sum(1 for r in self.records if r.flow.active)
        self.counts.append(count)
        return count


class TestWanArrivalCap:
    def test_live_count_matches_full_scan(self):
        network, generator = _wan_generator(_ArrivalOracle, load=2.0,
                                            max_concurrent=3)
        generator.start()
        network.run(10.0)
        counts = generator.counts
        assert max(counts) == 3
        # Arrivals at the cap are refused; all others add a flow.
        assert len(generator.records) == sum(1 for c in counts if c < 3)
        # Finished flows were pruned along the way.
        assert len(generator._unfinished) <= 3 < len(generator.records)


class TestScripted:
    def test_phase_lookup(self):
        phases = [Phase(duration=10.0, elastic_flows=1),
                  Phase(duration=10.0, inelastic_rate=1e6)]
        network, _ = quick_network(link_mbps=24, dt=0.004)
        script = ScriptedCrossTraffic(network=network, phases=phases)
        assert script.phase_at(5.0).has_elastic
        assert not script.phase_at(15.0).has_elastic
        assert script.phase_at(25.0) is None

    def test_elastic_present_ground_truth(self):
        phases = [Phase(duration=10.0), Phase(duration=10.0, elastic_flows=2)]
        network, _ = quick_network(link_mbps=24, dt=0.004)
        script = ScriptedCrossTraffic(network=network, phases=phases)
        assert not script.elastic_present(5.0)
        assert script.elastic_present(15.0)

    def test_fair_share(self):
        mu = mbps_to_bytes_per_sec(96)
        phases = [Phase(duration=10.0, elastic_flows=1),
                  Phase(duration=10.0, inelastic_rate=0.5 * mu)]
        network, _ = quick_network(link_mbps=96, dt=0.004)
        script = ScriptedCrossTraffic(network=network, phases=phases)
        assert script.fair_share(5.0, mu) == pytest.approx(mu / 2)
        assert script.fair_share(15.0, mu) == pytest.approx(mu / 2)

    def test_flows_start_and_stop(self):
        network, _ = quick_network(link_mbps=24, buffer_ms=100, dt=0.004)
        phases = [Phase(duration=8.0, elastic_flows=1),
                  Phase(duration=8.0, inelastic_rate=mbps_to_bytes_per_sec(6))]
        script = ScriptedCrossTraffic(network=network, phases=phases,
                                      prop_rtt=0.05)
        script.install()
        network.run(16.5)
        first = network.recorder.mean_throughput("cross", start=2.0, end=8.0)
        second = network.recorder.mean_throughput("cross", start=10.0,
                                                  end=16.0)
        assert first == pytest.approx(24.0, rel=0.25)   # backlogged Cubic
        assert second == pytest.approx(6.0, rel=0.3)    # 6 Mbit/s Poisson
        assert script.total_duration == pytest.approx(16.0)
