"""Unit tests for the profiling harness."""

import numpy as np
import pytest

from repro.cluster.profiler import ClusterProfile, Profiler
from repro.exceptions import ProfilingError


class TestProfiler:
    def test_exact_profile_matches_ground_truth(self, topology, model_config):
        profile = Profiler(topology, noise=0.0).profile(model_config)
        truth = topology.devices[0].tokens_per_second(model_config)
        assert profile.tokens_per_second(0) == pytest.approx(truth)
        assert profile.link_bandwidth(0, 4) == topology.bandwidth(0, 4)

    def test_noisy_profile_close_to_truth(self, topology, model_config):
        profile = Profiler(topology, noise=0.05, seed=3).profile(model_config)
        truth = topology.devices[0].tokens_per_second(model_config)
        assert profile.tokens_per_second(0) == pytest.approx(truth, rel=0.2)
        assert profile.tokens_per_second(0) != truth

    def test_noise_reproducible(self, topology, model_config):
        a = Profiler(topology, noise=0.05, seed=7).profile(model_config)
        b = Profiler(topology, noise=0.05, seed=7).profile(model_config)
        assert np.array_equal(a.tps, b.tps)

    def test_lazy_bps_measurement_cached(self, topology, model_config):
        profile = Profiler(topology, noise=0.05, seed=1).profile(model_config)
        first = profile.allreduce_bps([0, 1, 4])
        second = profile.allreduce_bps([4, 1, 0])
        assert first == second

    def test_unknown_gpu_rejected(self, exact_profile):
        with pytest.raises(ProfilingError):
            exact_profile.tokens_per_second(99)
        with pytest.raises(ProfilingError):
            exact_profile.link_bandwidth(0, 99)

    def test_detached_profile_rejects_unprofiled_group(self, model_config):
        profile = ClusterProfile(
            tps=np.ones(4), bandwidth=np.ones((4, 4)), model=model_config
        )
        with pytest.raises(ProfilingError):
            profile.allreduce_bps([0, 1])

    def test_rejects_bad_parameters(self, topology):
        with pytest.raises(ProfilingError):
            Profiler(topology, noise=-0.1)
        with pytest.raises(ProfilingError):
            Profiler(topology, repeats=0)
