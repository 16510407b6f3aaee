"""Ablation — shot shape: Theorem 3 and the variance factor sweep.

Not a single paper exhibit but the design choice DESIGN.md calls out: the
whole family of power shots changes only the variance *multiplier*
(b+1)^2/(2b+1), with the rectangular shot as the provable minimum.  The
benchmark verifies the bound both analytically (against quadrature) and
against Monte Carlo shot-noise simulation.
"""

from __future__ import annotations

import numpy as np
from conftest import print_header, run_once

from repro.core import (
    EmpiricalEnsemble,
    GenericShot,
    PoissonShotNoiseModel,
    PowerShot,
    variance_shape_factor,
)
from repro.generation import GenerationEngine


def test_ablation_shot_variance_factors(benchmark):
    gen = np.random.default_rng(0)
    sizes = gen.uniform(1e4, 1e5, 3000)
    durations = gen.uniform(1.0, 5.0, 3000)
    ensemble = EmpiricalEnsemble(sizes, durations)
    lam = 40.0
    powers = [0.0, 0.5, 1.0, 2.0, 4.0]

    def build():
        rows = []
        for b in powers:
            model = PoissonShotNoiseModel(lam, ensemble, PowerShot(b))
            simulated = GenerationEngine().rate_series(
                lam, ensemble, PowerShot(b), duration=300.0, delta=0.05,
                seed=int(10 * b) + 1,
            )
            rows.append((b, model, simulated))
        return rows

    rows = run_once(benchmark, build)

    print_header("ABLATION - variance vs shot power (Theorem 3 sweep)")
    bound = rows[0][1].variance_lower_bound
    print(f"{'b':>5s} {'factor':>8s} {'analytic var/bound':>19s} "
          f"{'simulated var/bound':>20s}")
    for b, model, simulated in rows:
        print(
            f"{b:5.1f} {variance_shape_factor(b):8.4f} "
            f"{model.variance / bound:19.4f} "
            f"{simulated.variance / bound:20.4f}"
        )

    for b, model, simulated in rows:
        # Theorem 3: bound attained only at b = 0
        assert model.variance >= bound * (1.0 - 1e-12)
        # analytic factor matches the simulation (delta = 50 ms is small
        # relative to durations, so eq. (7) shrinkage is mild)
        assert simulated.variance == __import__("pytest").approx(
            model.variance, rel=0.2
        )
    # non-power profiles also respect the bound
    for profile in (lambda v: np.exp(2 * v), lambda v: (1 - v) ** 2 + 0.05):
        shot = GenericShot(profile)
        model = PoissonShotNoiseModel(lam, ensemble, shot)
        assert model.variance >= bound * (1.0 - 1e-9)
