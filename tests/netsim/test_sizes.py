"""Tests for repro.netsim.sizes: workload distributions."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.netsim import BoundedPareto, Constant, Empirical, Exponential, LogNormal, Mixture


class TestBoundedPareto:
    def test_support(self):
        dist = BoundedPareto(1.2, 1e3, 1e6)
        x = dist.rvs(size=50_000, random_state=np.random.default_rng(0))
        assert x.min() >= 1e3
        assert x.max() <= 1e6

    def test_mean_matches_monte_carlo(self):
        dist = BoundedPareto(1.3, 2e3, 2e6)
        x = dist.rvs(size=400_000, random_state=np.random.default_rng(1))
        assert dist.mean() == pytest.approx(x.mean(), rel=0.02)

    def test_alpha_one_special_case(self):
        dist = BoundedPareto(1.0, 1e3, 1e5)
        x = dist.rvs(size=400_000, random_state=np.random.default_rng(2))
        assert dist.mean() == pytest.approx(x.mean(), rel=0.03)

    def test_second_moment_matches_monte_carlo(self):
        dist = BoundedPareto(2.5, 1e3, 1e5)
        x = dist.rvs(size=400_000, random_state=np.random.default_rng(3))
        assert dist.second_moment() == pytest.approx(np.mean(x**2), rel=0.05)

    def test_ccdf_boundaries(self):
        dist = BoundedPareto(1.5, 10.0, 1000.0)
        assert dist.ccdf(5.0) == pytest.approx(1.0)
        assert dist.ccdf(1000.0) == pytest.approx(0.0)
        assert 0.0 < dist.ccdf(100.0) < 1.0

    def test_ccdf_matches_empirical(self):
        dist = BoundedPareto(1.5, 10.0, 1e4)
        x = dist.rvs(size=200_000, random_state=np.random.default_rng(4))
        for q in (20.0, 100.0, 1000.0):
            assert dist.ccdf(q) == pytest.approx(np.mean(x > q), abs=0.01)

    def test_validation(self):
        with pytest.raises(ParameterError):
            BoundedPareto(0.0, 1.0, 2.0)
        with pytest.raises(ParameterError):
            BoundedPareto(1.5, 2.0, 1.0)


class TestLogNormal:
    def test_median_parameterisation(self):
        dist = LogNormal(median=5e4, sigma=0.7)
        x = dist.rvs(size=200_000, random_state=np.random.default_rng(5))
        assert np.median(x) == pytest.approx(5e4, rel=0.02)

    def test_mean_formula(self):
        dist = LogNormal(median=1e4, sigma=0.5)
        x = dist.rvs(size=400_000, random_state=np.random.default_rng(6))
        assert dist.mean() == pytest.approx(x.mean(), rel=0.02)

    def test_zero_sigma_degenerates(self):
        dist = LogNormal(median=100.0, sigma=0.0)
        x = dist.rvs(size=10, random_state=np.random.default_rng(0))
        np.testing.assert_allclose(x, 100.0)


class TestSimpleDistributions:
    def test_exponential(self):
        dist = Exponential(3.0)
        x = dist.rvs(size=200_000, random_state=np.random.default_rng(7))
        assert x.mean() == pytest.approx(3.0, rel=0.02)
        assert dist.mean() == 3.0

    def test_constant(self):
        dist = Constant(42.0)
        np.testing.assert_allclose(dist.rvs(size=5), 42.0)
        assert dist.mean() == 42.0

    def test_empirical_bootstrap(self):
        dist = Empirical([1.0, 2.0, 3.0])
        x = dist.rvs(size=1000, random_state=np.random.default_rng(8))
        assert set(np.unique(x)) <= {1.0, 2.0, 3.0}
        assert dist.mean() == pytest.approx(2.0)

    def test_empirical_validation(self):
        with pytest.raises(ParameterError):
            Empirical([])
        with pytest.raises(ParameterError):
            Empirical([1.0, -2.0])


class TestMixture:
    def test_mean_is_weighted(self):
        mix = Mixture([(0.25, Constant(1.0)), (0.75, Constant(9.0))])
        assert mix.mean() == pytest.approx(7.0)

    def test_sampling_proportions(self):
        mix = Mixture([(0.2, Constant(1.0)), (0.8, Constant(9.0))])
        x = mix.rvs(size=50_000, random_state=np.random.default_rng(9))
        assert np.mean(x == 1.0) == pytest.approx(0.2, abs=0.01)

    def test_weights_normalised(self):
        mix = Mixture([(2.0, Constant(1.0)), (6.0, Constant(9.0))])
        assert mix.mean() == pytest.approx(7.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            Mixture([])
        with pytest.raises(ParameterError):
            Mixture([(-1.0, Constant(1.0)), (0.0, Constant(2.0))])

    def test_equality_follows_weights_and_components(self):
        mix = Mixture([(0.25, Constant(1.0)), (0.75, Constant(9.0))])
        same = Mixture([(1.0, Constant(1.0)), (3.0, Constant(9.0))])
        assert mix == same and hash(mix) == hash(same)
        assert mix != Mixture([(0.5, Constant(1.0)), (0.5, Constant(9.0))])
        assert mix != Mixture([(0.25, Constant(1.0)), (0.75, Constant(8.0))])
        assert mix != Mixture([(0.75, Constant(9.0)), (0.25, Constant(1.0))])
        assert mix != Constant(1.0)

    def test_immutable(self):
        mix = Mixture([(0.25, Constant(1.0)), (0.75, Constant(9.0))])
        for law in (mix, pickle.loads(pickle.dumps(mix))):
            with pytest.raises(ValueError):
                law.weights[0] = 0.5
            assert isinstance(law.distributions, tuple)
            assert law == mix

    def test_unhashable_component_makes_it_unhashable(self):
        mix = Mixture([(0.5, Constant(1.0)), (0.5, Empirical([2.0]))])
        with pytest.raises(TypeError):
            hash(mix)
