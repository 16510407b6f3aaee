"""Golden bits: the fitted size laws' CDF, quantiles and scaling, pinned.

``test_golden_report.py`` compares the calibration report at
``rel=1e-9``, so a change that moves the size laws' arithmetic in the
last bits would pass it.  This module compares with ``==`` against
``golden_laws.json`` (JSON floats round-trip exactly), for the four
families at ``test_families.PARAMS``:

* the CDF on ``np.logspace(0, 8, 257)``;
* the quantile function on ``QUANTILES``, including the mixture's
  8,192-point inverse-CDF grid;
* the scaled law's CDF at each of ``FACTORS``;
* ``deflate_for_wire`` and the emitted spec's ``target_mean_rate_bps``
  for the golden NetFlow v5 report.

Re-record only for an intended change of size-law arithmetic::

    PYTHONPATH=src python -m tests.calibration.test_golden_laws
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.calibration import CALIBRATION_FAMILIES, CalibrationReport
from repro.calibration.report import deflate_for_wire
from repro.netsim.sizes import size_law

from .test_families import PARAMS

GOLDEN = Path(__file__).with_name("golden_laws.json")
GOLDEN_REPORT = Path(__file__).with_name("golden_report.json")

GRID = np.logspace(0, 8, 257)
QUANTILES = np.linspace(0.001, 0.999, 129)
FACTORS = (0.5, 0.93, 2.0)


def law_cdf(family: str, params: dict, x) -> np.ndarray:
    return size_law(family, params).cdf(x)


def law_ppf(family: str, params: dict, q) -> np.ndarray:
    return size_law(family, params).ppf(q)


def scaled_cdf(family: str, params: dict, factor: float, x) -> np.ndarray:
    return size_law(family, params).scaled(factor).cdf(x)


def family_bits(family: str) -> dict:
    params = PARAMS[family]
    return {
        "cdf": law_cdf(family, params, GRID).tolist(),
        "ppf": law_ppf(family, params, QUANTILES).tolist(),
        "scaled_cdf": {
            repr(factor): scaled_cdf(family, params, factor, GRID).tolist()
            for factor in FACTORS
        },
    }


def report_bits() -> dict:
    report = CalibrationReport.from_dict(json.loads(GOLDEN_REPORT.read_text()))
    payload = deflate_for_wire(report.family, report.params, report.mean_size)
    spec = report.to_scenario_spec()
    return {
        "family": report.family,
        "deflated_params": {k: float(v) for k, v in payload.items()},
        "target_mean_rate_bps": float(spec.workload.target_mean_rate_bps),
    }


def all_bits() -> dict:
    return {
        "families": {name: family_bits(name) for name in CALIBRATION_FAMILIES},
        "golden_report": report_bits(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("family", CALIBRATION_FAMILIES)
def test_family_matches_golden_bits(family, golden):
    bits = family_bits(family)
    expected = golden["families"][family]
    assert bits["cdf"] == expected["cdf"]
    assert bits["ppf"] == expected["ppf"]
    assert bits["scaled_cdf"] == expected["scaled_cdf"]


def test_golden_report_deflation_matches_golden_bits(golden):
    assert report_bits() == golden["golden_report"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(all_bits(), indent=1, sort_keys=True) + "\n")
