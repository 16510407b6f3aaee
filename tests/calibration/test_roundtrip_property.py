"""Hypothesis property: sample a known family, calibrate, recover it.

The round-trip contract of the whole subsystem: for flows drawn from a
registered family with sane parameters, calibration must (a) recover
the generating parameters to sampling accuracy and (b) let the
generating family win model selection against the alternatives.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.calibration import calibrate_sizes, fit_all_families, fit_family, select_best
from repro.netsim.sizes import size_law

_SETTINGS = dict(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(
    median=st.floats(min_value=500.0, max_value=50_000.0),
    sigma=st.floats(min_value=0.3, max_value=1.8),
    seed=st.integers(0, 2**31),
)
@settings(**_SETTINGS)
def test_lognormal_roundtrip(median, sigma, seed):
    dist = size_law(
        "lognormal", {"median": median, "sigma": sigma}
    )
    sizes = np.maximum(dist.rvs(8000, np.random.default_rng(seed)), 1.0)
    acc = calibrate_sizes(sizes, duration=60.0)
    fit = fit_family(acc, "lognormal")
    assert fit.params["median"] == pytest.approx(median, rel=0.12)
    assert fit.params["sigma"] == pytest.approx(sigma, rel=0.12)
    fits = fit_all_families(
        acc, ("lognormal", "exponential", "pareto"), seed=0
    )
    assert select_best(fits, "bic").family == "lognormal"


@given(
    alpha=st.floats(min_value=0.8, max_value=2.5),
    seed=st.integers(0, 2**31),
)
# a jagged grouped likelihood once trapped the shape search at alpha=5.96
@example(alpha=1.5, seed=2906)
@settings(**_SETTINGS)
def test_pareto_roundtrip(alpha, seed):
    params = {"alpha": alpha, "minimum": 300.0, "maximum": 1e7}
    dist = size_law("pareto", params)
    sizes = dist.rvs(8000, np.random.default_rng(seed))
    acc = calibrate_sizes(sizes, duration=60.0)
    fit = fit_family(acc, "pareto")
    assert fit.params["alpha"] == pytest.approx(alpha, rel=0.15)
    fits = fit_all_families(
        acc, ("lognormal", "exponential", "pareto"), seed=0
    )
    assert select_best(fits, "bic").family == "pareto"


@given(
    mean=st.floats(min_value=1_000.0, max_value=100_000.0),
    seed=st.integers(0, 2**31),
)
@settings(**_SETTINGS)
def test_exponential_roundtrip(mean, seed):
    dist = size_law("exponential", {"mean_bytes": mean})
    sizes = np.maximum(dist.rvs(8000, np.random.default_rng(seed)), 1.0)
    acc = calibrate_sizes(sizes, duration=60.0)
    fit = fit_family(acc, "exponential")
    assert fit.params["mean_bytes"] == pytest.approx(mean, rel=0.1)
