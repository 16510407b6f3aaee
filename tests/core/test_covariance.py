"""Tests for repro.core.covariance: Theorem 2 and Campbell's theorem."""

from __future__ import annotations

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EmpiricalEnsemble,
    GenericShot,
    PoissonShotNoiseModel,
    PowerShot,
    RectangularShot,
    SuperposedModel,
    TriangularShot,
    autocorrelation,
    autocovariance,
    correlation_horizon,
    spectral_density,
)
from repro.core.covariance import _THETA
from repro.exceptions import ParameterError


@pytest.fixture(scope="module")
def small_ensemble():
    gen = np.random.default_rng(3)
    sizes = gen.uniform(1e3, 1e5, 2000)
    durations = gen.uniform(0.5, 4.0, 2000)
    return EmpiricalEnsemble(sizes, durations)


class TestAutocovariance:
    def test_zero_lag_is_corollary2(self, small_ensemble):
        model = PoissonShotNoiseModel(50.0, small_ensemble, TriangularShot())
        gamma0 = autocovariance(50.0, small_ensemble, TriangularShot(), [0.0])
        assert gamma0[0] == pytest.approx(model.variance, rel=1e-9)

    def test_even_function(self, small_ensemble):
        shot = TriangularShot()
        pos = autocovariance(50.0, small_ensemble, shot, [0.5])
        neg = autocovariance(50.0, small_ensemble, shot, [-0.5])
        assert pos[0] == pytest.approx(neg[0])

    def test_vanishes_beyond_max_duration(self, small_ensemble):
        shot = RectangularShot()
        far = autocovariance(50.0, small_ensemble, shot, [10.0])
        assert far[0] == 0.0

    def test_rectangular_closed_form(self):
        # deterministic flows: Gamma(tau) = lambda * S^2/D^2 * (D - tau)+
        ens = EmpiricalEnsemble([1e4], [2.0])
        lam, s, d = 30.0, 1e4, 2.0
        for tau in (0.0, 0.5, 1.5, 2.5):
            gamma = autocovariance(lam, ens, RectangularShot(), [tau])[0]
            expected = lam * (s / d) ** 2 * max(d - tau, 0.0)
            assert gamma == pytest.approx(expected, rel=1e-12)

    def test_monotone_decreasing_for_rectangles(self, small_ensemble):
        taus = np.linspace(0.0, 4.0, 17)
        gamma = autocovariance(50.0, small_ensemble, RectangularShot(), taus)
        assert np.all(np.diff(gamma) <= 1e-9)

    def test_scales_linearly_with_lambda(self, small_ensemble):
        shot = TriangularShot()
        g1 = autocovariance(10.0, small_ensemble, shot, [0.3])[0]
        g2 = autocovariance(20.0, small_ensemble, shot, [0.3])[0]
        assert g2 == pytest.approx(2.0 * g1)


class TestAutocorrelation:
    def test_unit_at_zero(self, small_ensemble):
        rho = autocorrelation(50.0, small_ensemble, TriangularShot(), [0.0])
        assert rho[0] == pytest.approx(1.0)

    def test_bounded_by_one(self, small_ensemble):
        taus = np.linspace(0.0, 3.0, 13)
        rho = autocorrelation(50.0, small_ensemble, TriangularShot(), taus)
        assert np.all(rho <= 1.0 + 1e-12)
        assert np.all(rho >= 0.0)

    def test_independent_of_lambda(self, small_ensemble):
        taus = [0.2, 0.8]
        a = autocorrelation(10.0, small_ensemble, TriangularShot(), taus)
        b = autocorrelation(99.0, small_ensemble, TriangularShot(), taus)
        np.testing.assert_allclose(a, b, rtol=1e-9)


class TestSpectralDensity:
    def test_integrates_to_variance(self, small_ensemble):
        """Wiener-Khintchine: integral of Psi over f equals Gamma(0)."""
        model = PoissonShotNoiseModel(50.0, small_ensemble, RectangularShot())
        freqs = np.linspace(-12.0, 12.0, 1201)
        psi = spectral_density(
            50.0, small_ensemble, RectangularShot(), freqs, max_flows=400
        )
        variance = np.trapezoid(psi, freqs)
        # the subsampled flow set differs from the full ensemble: loose tol
        assert variance == pytest.approx(model.variance, rel=0.15)

    def test_symmetric_and_positive(self, small_ensemble):
        freqs = np.array([-2.0, -1.0, 1.0, 2.0])
        psi = spectral_density(
            50.0, small_ensemble, TriangularShot(), freqs, max_flows=200
        )
        assert np.all(psi > 0)
        assert psi[0] == pytest.approx(psi[3], rel=1e-9)
        assert psi[1] == pytest.approx(psi[2], rel=1e-9)

    def test_dc_value_dominates_tail(self, small_ensemble):
        psi = spectral_density(
            50.0, small_ensemble, RectangularShot(), [0.0, 50.0], max_flows=200
        )
        assert psi[0] > 10 * psi[1]


class TestCorrelationHorizon:
    def test_horizon_positive_and_below_max(self, small_ensemble):
        horizon = correlation_horizon(
            50.0, small_ensemble, RectangularShot(), threshold=0.5
        )
        assert 0.0 < horizon <= 4.0 * small_ensemble.mean_duration

    def test_higher_threshold_shorter_horizon(self, small_ensemble):
        shot = RectangularShot()
        strict = correlation_horizon(50.0, small_ensemble, shot, threshold=0.8)
        loose = correlation_horizon(50.0, small_ensemble, shot, threshold=0.2)
        assert strict <= loose

    def test_threshold_validated(self, small_ensemble):
        with pytest.raises(ParameterError):
            correlation_horizon(50.0, small_ensemble, RectangularShot(), 1.5)


def _per_flow(lam, ensemble, shot, lags):
    """Exact Theorem 2 oracle: the shot's own per-flow kernel, averaged."""
    return np.array([
        lam * np.mean(
            shot.autocovariance_integral(abs(t), ensemble.sizes, ensemble.durations)
        )
        for t in lags
    ])


def _assert_accurate(gamma, exact):
    """|error| <= 1e-7 Gamma(0) everywhere; <= 1e-6 relative where
    Gamma(tau) >= 1e-3 Gamma(0)."""
    gamma0 = exact[np.argmax(exact)]
    error = np.abs(gamma - exact)
    assert np.all(error <= 1e-7 * gamma0)
    big = exact >= 1e-3 * gamma0
    assert np.all(error[big] <= 1e-6 * exact[big])


SHOTS = [PowerShot(b) for b in (0.0, 1.0, 2.0, 0.3, 2.46, 7.3)] + [
    GenericShot(lambda v: np.log1p(4.0 * v) + 0.2, name="log-ramp")
]


class TestTabulatedAccuracy:
    """The tabulated profile summed over sorted flows vs the per-flow kernel.

    Power shots come out within ~1e-10 Gamma(0); the bounds leave room for
    shots whose profile (like ``GenericShot``'s) is itself tabulated.
    """

    @pytest.mark.parametrize("shot", SHOTS, ids=lambda s: s.name)
    def test_matches_per_flow_kernel(self, small_ensemble, shot):
        d = small_ensemble.durations
        edges = _THETA[::2]
        lags = np.concatenate([
            [-2.5, -0.01, 0.0, 1e-6],
            d[:3],                      # exactly a flow's duration
            edges[[1, 2, edges.size // 2, -2]] * d[0],  # on segment edges
            np.linspace(0.05, 4.5, 40),
            [d.max(), 1.5 * d.max()],   # at and beyond the longest flow
        ])
        gamma = autocovariance(25.0, small_ensemble, shot, lags)
        _assert_accurate(gamma, _per_flow(25.0, small_ensemble, shot, lags))
        assert np.all(gamma[-2:] == 0.0)

    @pytest.mark.parametrize("power", [0.05, 0.3, 7.3])
    def test_single_flow_near_profile_ends(self, power):
        """No averaging: a lone flow sees the interpolant's worst case,
        where ``a`` is least smooth (theta -> 0 for large b, -> 1 for small)."""
        ens = EmpiricalEnsemble([1e4], [2.0])
        edge = np.geomspace(1e-9, 1e-2, 60)
        lags = 2.0 * np.concatenate([[0.0], edge, 1.0 - edge])
        shot = PowerShot(power)
        gamma = autocovariance(25.0, ens, shot, lags)
        _assert_accurate(gamma, _per_flow(25.0, ens, shot, lags))

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 400),
        sigma=st.floats(0.05, 3.0),
        power=st.floats(0.0, 8.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_lognormal_ensembles(self, seed, n, sigma, power):
        gen = np.random.default_rng(seed)
        ens = EmpiricalEnsemble(
            gen.lognormal(8.0, 1.5, n), gen.lognormal(0.0, sigma, n)
        )
        span = 1.2 * ens.durations.max()
        lags = np.concatenate(
            [[0.0], gen.uniform(-span, span, 12), ens.durations[:2]]
        )
        shot = PowerShot(power)
        gamma = autocovariance(3.0, ens, shot, lags)
        _assert_accurate(gamma, _per_flow(3.0, ens, shot, lags))

    def test_scalar_and_2d_shapes(self, small_ensemble):
        scalar = autocovariance(10.0, small_ensemble, TriangularShot(), 0.5)
        assert scalar.shape == (1,)
        grid = autocovariance(
            10.0, small_ensemble, TriangularShot(),
            np.linspace(0, 2, 12).reshape(3, 4),
        )
        assert grid.shape == (3, 4)


class _Spy(PowerShot):
    """Power shot that records the size of every profile table it builds."""

    def __init__(self, power):
        super().__init__(power)
        self.calls = []

    def profile_autocovariance(self, theta):
        self.calls.append(np.size(theta))
        return super().profile_autocovariance(theta)


class TestCostShape:
    """One table per call, whose size depends on neither flows nor lags."""

    def test_one_table_per_call(self, small_ensemble):
        shot = _Spy(2.46)
        autocovariance(5.0, small_ensemble, shot, [0.1])
        big = EmpiricalEnsemble(
            np.tile(small_ensemble.sizes, 3), np.tile(small_ensemble.durations, 3)
        )
        autocovariance(5.0, big, shot, np.linspace(-3.0, 3.0, 97))
        assert len(shot.calls) == 2
        assert shot.calls[0] == shot.calls[1]

    def test_autocorrelation_evaluates_each_component_once(self, small_ensemble):
        shots = [_Spy(1.5), _Spy(0.4)]
        multi = SuperposedModel(
            [PoissonShotNoiseModel(7.0, small_ensemble, s) for s in shots]
        )
        rho = multi.autocorrelation(np.linspace(0.0, 2.0, 9))
        assert rho[0] == pytest.approx(1.0)
        assert [len(s.calls) for s in shots] == [1, 1]
        PoissonShotNoiseModel(7.0, small_ensemble, shots[0]).autocorrelation([0.3])
        assert len(shots[0].calls) == 2
