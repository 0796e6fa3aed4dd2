"""Request streams: seeded determinism and the arrival/token models."""

import dataclasses

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.serving.requests import (
    ARRIVAL_MODELS,
    Request,
    RequestStream,
    RequestStreamConfig,
)


class TestConfigValidation:
    def test_rejects_unknown_arrival(self):
        with pytest.raises(ConfigurationError):
            RequestStreamConfig(arrival="constant")

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            RequestStreamConfig(rate_rps=0)

    def test_rejects_max_below_mean(self):
        with pytest.raises(ConfigurationError):
            RequestStreamConfig(mean_tokens=512, max_tokens=256)

    def test_rejects_bad_burst_fraction(self):
        with pytest.raises(ConfigurationError):
            RequestStreamConfig(burst_fraction=1.0)

    def test_rejects_bad_diurnal_amplitude(self):
        with pytest.raises(ConfigurationError):
            RequestStreamConfig(diurnal_amplitude=1.0)

    def test_replace(self):
        config = RequestStreamConfig(seed=3)
        assert dataclasses.replace(config, rate_rps=7.0).rate_rps == 7.0
        assert dataclasses.replace(config, rate_rps=7.0).seed == 3

    def test_request_validation(self):
        with pytest.raises(ConfigurationError):
            Request(index=0, arrival=-1.0, tokens=10, topic=0)
        with pytest.raises(ConfigurationError):
            Request(index=0, arrival=0.0, tokens=0, topic=0)


class TestDeterminism:
    """Same seed, identical arrival/token/topic sequences (the serving
    analogue of the workload generator's reproducibility contract)."""

    @pytest.mark.parametrize("arrival", ARRIVAL_MODELS)
    def test_same_seed_same_stream(self, arrival):
        config = RequestStreamConfig(
            arrival=arrival, rate_rps=50.0, num_requests=64, seed=11
        )
        first = RequestStream(config).generate()
        second = RequestStream(config).generate()
        assert first == second

    def test_generate_is_repeatable_on_one_instance(self):
        stream = RequestStream(RequestStreamConfig(num_requests=32, seed=5))
        assert stream.generate() == stream.generate()

    def test_different_seeds_differ(self):
        base = RequestStreamConfig(num_requests=64, seed=0)
        a = RequestStream(base).generate()
        b = RequestStream(dataclasses.replace(base, seed=1)).generate()
        assert a != b
        assert [r.arrival for r in a] != [r.arrival for r in b]


class TestStreamShape:
    def test_arrivals_sorted_and_positive(self):
        for arrival in ARRIVAL_MODELS:
            stream = RequestStream(
                RequestStreamConfig(arrival=arrival, num_requests=100, seed=2)
            )
            requests = stream.generate()
            arrivals = [r.arrival for r in requests]
            assert arrivals == sorted(arrivals)
            assert all(a > 0 for a in arrivals)
            assert [r.index for r in requests] == list(range(100))

    def test_token_counts_bounded(self):
        config = RequestStreamConfig(
            num_requests=200, mean_tokens=100, max_tokens=400, seed=3
        )
        requests = RequestStream(config).generate()
        assert all(1 <= r.tokens <= 400 for r in requests)

    def test_zero_sigma_fixes_token_counts(self):
        config = RequestStreamConfig(
            num_requests=50, mean_tokens=128, token_sigma=0.0, seed=4
        )
        assert all(r.tokens == 128 for r in RequestStream(config).generate())

    def test_topics_in_range(self):
        config = RequestStreamConfig(num_requests=200, num_topics=5, seed=6)
        requests = RequestStream(config).generate()
        topics = {r.topic for r in requests}
        assert topics <= set(range(5))
        assert len(topics) > 1  # the drifting mix visits several topics

    def test_poisson_rate_roughly_calibrated(self):
        config = RequestStreamConfig(
            arrival="poisson", rate_rps=100.0, num_requests=2000, seed=7
        )
        requests = RequestStream(config).generate()
        realized = len(requests) / requests[-1].arrival
        assert realized == pytest.approx(100.0, rel=0.15)

    def test_bursty_long_run_rate_matches_poisson(self):
        """The burst modulation conserves the configured mean rate."""
        kwargs = dict(rate_rps=100.0, num_requests=4000, seed=8)
        poisson = RequestStream(
            RequestStreamConfig(arrival="poisson", **kwargs)
        ).generate()
        bursty = RequestStream(
            RequestStreamConfig(arrival="bursty", **kwargs)
        ).generate()
        assert bursty[-1].arrival == pytest.approx(
            poisson[-1].arrival, rel=0.25
        )

    def test_bursty_has_heavier_interarrival_tail(self):
        kwargs = dict(rate_rps=100.0, num_requests=4000, seed=9)
        def gaps(arrival):
            times = np.array([
                r.arrival
                for r in RequestStream(
                    RequestStreamConfig(arrival=arrival, **kwargs)
                ).generate()
            ])
            return np.diff(times)
        # Burst episodes compress many gaps; quiet periods stretch the
        # tail: the gap distribution's dispersion exceeds Poisson's.
        poisson, bursty = gaps("poisson"), gaps("bursty")
        cv = lambda g: g.std() / g.mean()
        assert cv(bursty) > cv(poisson)

    def test_diurnal_rate_oscillates(self):
        config = RequestStreamConfig(
            arrival="diurnal",
            rate_rps=100.0,
            num_requests=3000,
            diurnal_period_s=10.0,
            diurnal_amplitude=0.9,
            seed=10,
        )
        requests = RequestStream(config).generate()
        times = np.array([r.arrival for r in requests])
        # Bin arrivals by period phase: peak-phase bins must clearly
        # out-populate trough-phase bins.
        phase = (times % 10.0) / 10.0
        peak = ((phase > 0.15) & (phase < 0.35)).sum()   # sin ~ +1
        trough = ((phase > 0.65) & (phase < 0.85)).sum()  # sin ~ -1
        assert peak > 2 * trough

