"""Golden bits: the lognormal-body / Pareto-tail mixture EM, pinned.

``test_golden_report.py`` compares the calibration report at
``rel=1e-9``, so a change that moves the EM's arithmetic in the last
bits would pass it.  This module compares the winning mixture
parameters of ``_fit_lognormal_pareto`` with ``==`` against
``golden_em.json``, which stores each float as ``float.hex``.  The
cases cover:

* the ``golden_records()`` archive's accumulator;
* a seeded lognormal+Pareto sample at 16, 64 and 512 bins, with 1, 3
  and 4 restarts;
* the single-threshold fallback (``sqrt(min * max)``), which a small
  two-point sample reaches because every quantile is an exact tail
  value equal to the minimum or the maximum;
* three-point ``{40, 1500, 1e6}`` samples, whose EM runs stop early
  (at the first or the second step) when the body takes all or none of
  the mass;
* one case with more threshold x restart runs than one EM block.

Re-record only for an intended change of the EM arithmetic::

    PYTHONPATH=src python -m tests.calibration.test_golden_em
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.calibration import calibrate_sizes
from repro.calibration.fitters import (
    _EM_BLOCK_ROWS,
    _fit_lognormal_pareto,
    _mixture_thresholds,
)
from repro.netsim.sizes import size_law

from .test_golden_report import golden_records

GOLDEN = Path(__file__).with_name("golden_em.json")

MIXTURE = {
    "body_weight": 0.9, "median": 3000.0, "sigma": 0.8,
    "alpha": 2.2, "minimum": 3e4, "maximum": 2e6,
}


def archive_sizes():
    return golden_records()["octets"].astype(np.float64)


def mixture_sizes(n=20000, seed=11):
    law = size_law("lognormal_pareto", MIXTURE)
    return np.maximum(law.rvs(n, np.random.default_rng(seed)), 1.0)


def two_point_sizes():
    return np.repeat([40.0, 1e6], [300, 50])


def three_point_sizes(weights, n=2000, seed=0):
    rng = np.random.default_rng(seed)
    return rng.choice([40.0, 1500.0, 1e6], size=n, p=weights)


#: name -> (sizes builder, bins, restarts, seed)
CASES = {
    "archive": (archive_sizes, 512, 4, 0),
    "mixture-16-r1": (mixture_sizes, 16, 1, 0),
    "mixture-64-r3": (mixture_sizes, 64, 3, 5),
    "mixture-512-r4": (mixture_sizes, 512, 4, 7),
    "single-threshold": (two_point_sizes, 512, 4, 0),
    "three-point-16": (lambda: three_point_sizes((0.6, 0.3, 0.1)), 16, 4, 0),
    "three-point-64": (lambda: three_point_sizes((0.2, 0.2, 0.6)), 64, 4, 1),
    "three-point-512": (
        lambda: three_point_sizes((0.9, 0.05, 0.05)), 512, 4, 2
    ),
    "three-point-second-step": (
        lambda: three_point_sizes((0.88, 0.01, 0.11), n=400, seed=143),
        512, 4, 143,
    ),
    "many-blocks": (mixture_sizes, 512, 12, 3),
}


def accumulator(name):
    sizes, bins, _, _ = CASES[name]
    return calibrate_sizes(sizes(), duration=120.0, bins=bins)


def case_bits(name) -> dict:
    _, _, restarts, seed = CASES[name]
    params = _fit_lognormal_pareto(
        accumulator(name), restarts=restarts, seed=seed
    )
    return {key: float(value).hex() for key, value in params.items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_em_matches_golden_bits(name, golden):
    assert case_bits(name) == golden[name]


def test_single_threshold_case_uses_the_fallback():
    acc = accumulator("single-threshold")
    assert _mixture_thresholds(acc) == [
        float(np.sqrt(acc.min_size * acc.max_size))
    ]


def test_many_blocks_case_spans_more_than_one_block():
    _, _, restarts, _ = CASES["many-blocks"]
    runs = len(_mixture_thresholds(accumulator("many-blocks"))) * restarts
    assert runs > _EM_BLOCK_ROWS


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: case_bits(name) for name in sorted(CASES)},
        indent=1, sort_keys=True,
    ) + "\n")
