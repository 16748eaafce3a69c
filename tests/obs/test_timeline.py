"""The simulated-clock timeline sampler (the Fig 17 memory-over-time series)."""

import pytest

from repro import Cluster, MB, run_mdf
from repro.obs import TimelineSampler
from ..conftest import build_nested_mdf


def _run(policy, **sampler_kwargs):
    cluster = Cluster(num_workers=4, mem_per_worker=64 * MB)
    return run_mdf(
        build_nested_mdf(),
        cluster,
        memory=policy,
        observers=[TimelineSampler(**sampler_kwargs)],
    )


class TestSampler:
    def test_series_shape(self):
        result = _run("amm")
        samples = result.telemetry.samples
        assert len(samples) >= 2
        # t=0 baseline then strictly increasing timestamps up to job end
        assert samples[0].t == 0.0
        assert samples[0].memory_in_use == 0
        ts = [s.t for s in samples]
        assert ts == sorted(ts)
        assert len(set(ts)) == len(ts)
        assert samples[-1].t == pytest.approx(result.completion_time)

    def test_evictions_monotone_and_memory_bounded(self):
        result = _run("lru")
        samples = result.telemetry.samples
        evictions = [s.evictions for s in samples]
        assert evictions == sorted(evictions)
        assert evictions[-1] == result.metrics.evictions
        for s in samples:
            assert s.memory_in_use == sum(s.per_node_memory.values())
            assert s.memory_capacity == 4 * 64 * MB

    def test_lru_vs_amm_timelines_differ(self):
        """Fig 17: the same starved job leaves different memory footprints
        over time under LRU vs AMM."""
        lru = _run("lru").telemetry
        amm = _run("amm").telemetry
        assert lru.samples and amm.samples
        lru_series = [(s.t, s.memory_in_use, s.evictions) for s in lru.samples]
        amm_series = [(s.t, s.memory_in_use, s.evictions) for s in amm.samples]
        assert lru_series != amm_series

    def test_interval_as_float_argument(self):
        coarse = _run("amm", interval=5.0).telemetry
        fine = _run("amm", interval=0.05).telemetry
        assert len(fine.samples) > len(coarse.samples)

    def test_telemetry_config_passthrough(self):
        result = _run("amm", interval=0.5, max_samples=8)
        sampler = result.telemetry.timeline
        assert len(sampler) <= 8 + 1  # thinning keeps the series bounded
        assert sampler.interval >= 0.5  # doubled on every thinning pass

    def test_thinning_halves_resolution(self):
        class FakeClock:
            def __init__(self):
                self.now = 0.0
                self._subs = []

            def subscribe(self, fn):
                self._subs.append(fn)

            def unsubscribe(self, fn):
                self._subs.remove(fn)

            def advance(self, dt):
                self.now += dt
                for fn in self._subs:
                    fn(self.now)

        class FakeCluster:
            def __init__(self):
                self.clock = FakeClock()
                self.nodes = []

            class _Obs:
                @staticmethod
                def max_value(name):
                    return 0.0

            obs = _Obs()

            class _Metrics:
                memory_hit_ratio = 1.0
                evictions = 0

            metrics = _Metrics()

            @staticmethod
            def live_dataset_count():
                return 0

        cluster = FakeCluster()
        sampler = TimelineSampler(interval=1.0, max_samples=4)
        sampler.begin(None, cluster, None)
        for _ in range(20):
            cluster.clock.advance(1.0)
        sampler.end(None)
        assert len(sampler) <= 5
        assert sampler.interval > 1.0

    def test_utilisation_series(self):
        """Per-node busy/idle sampling: utilisation is the fraction of the
        inter-sample window the workers spent busy, always within [0, 1]."""
        result = _run("amm")
        samples = result.telemetry.samples
        for s in samples:
            assert 0.0 <= s.utilisation <= 1.0
            assert set(s.per_node_busy) == {f"worker-{i}" for i in range(4)}
        # the baseline sample has no predecessor window to measure against
        assert samples[0].utilisation == 0.0
        # the job does real work, so some window shows busy workers
        assert any(s.utilisation > 0.0 for s in samples[1:])
        # per-node busy seconds are cumulative: non-decreasing per worker
        for node in samples[0].per_node_busy:
            series = [s.per_node_busy[node] for s in samples]
            assert series == sorted(series)

    def test_utilisation_survives_thinning(self):
        """Thinning recomputes utilisation over the widened windows — the
        surviving samples stay consistent with their own busy deltas."""
        result = _run("amm", interval=0.01, max_samples=8)
        samples = result.telemetry.samples
        for prev, s in zip(samples, samples[1:]):
            window = (s.t - prev.t) * len(s.per_node_busy)
            delta = sum(s.per_node_busy.values()) - sum(prev.per_node_busy.values())
            expected = min(1.0, max(0.0, delta / window)) if window > 0 else 0.0
            assert s.utilisation == pytest.approx(expected, abs=1e-12)

    def test_as_dict_exposes_utilisation(self):
        result = _run("amm")
        payload = result.telemetry.samples[-1].as_dict()
        assert "utilisation" in payload
        assert "per_node_busy" in payload

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            TimelineSampler(interval=0.0)
        with pytest.raises(ValueError):
            TimelineSampler(max_samples=1)
