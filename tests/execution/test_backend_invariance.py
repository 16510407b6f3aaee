"""Backend bitwise-invariance battery (the tentpole contract).

Every engine must produce *bit-for-bit* identical results for any
``backend`` in {serial, thread, process} at any ``{chunk, workers}``
point — the execution knobs are pure strategy.  Each engine family is
pinned against its single-threaded serial baseline via exact array
equality (``tobytes`` — no tolerances).
"""

from __future__ import annotations

import glob

import numpy as np
import pytest

from repro.core.shots import PowerShot
from repro.generation import GenerationEngine
from repro.measurement import MeasurementEngine
from repro.netsim import table_i_workload
from repro.network import (
    DemandMatrix,
    NetworkDemand,
    NetworkEngine,
    parallel_paths,
)

#: The cross-product each engine is pinned at (backend, chunk, workers).
#: ``chunk`` is interpreted per engine (packets, or seconds for the
#: generation engine's rate sampler).
GRID = [
    ("serial", 1, 2048),
    ("thread", 2, 4096),
    ("thread", 3, 9000),
    ("process", 2, 4096),
    ("process", 3, 9000),
]


@pytest.fixture(autouse=True)
def no_segment_leaks():
    yield
    assert not glob.glob("/dev/shm/repro_shm_*")


@pytest.fixture(scope="module")
def workload():
    return table_i_workload(2, scale=1 / 32, duration=30.0)


@pytest.fixture(scope="module")
def trace(workload):
    return workload.synthesize(seed=11).trace


class TestSynthesisInvariance:
    @pytest.fixture(scope="class")
    def baseline(self, workload):
        stream = workload.synthesize_chunks(seed=11, chunk=4096, workers=1)
        return np.concatenate(list(stream))

    @pytest.mark.parametrize("backend,workers,chunk", GRID)
    def test_stream_bitwise(self, workload, baseline, backend, workers, chunk):
        stream = workload.synthesize_chunks(
            seed=11, chunk=chunk, workers=workers, backend=backend
        )
        packets = np.concatenate(list(stream))
        assert packets.tobytes() == baseline.tobytes()


class TestMeasurementInvariance:
    @pytest.fixture(scope="class")
    def baseline(self, trace):
        return MeasurementEngine(workers=1).measure_trace(
            trace, delta=0.5, duration=30.0
        )

    @pytest.mark.parametrize("backend,workers,chunk", GRID)
    def test_measure_bitwise(self, trace, baseline, backend, workers, chunk):
        got = MeasurementEngine(
            chunk=chunk, workers=workers, backend=backend
        ).measure_trace(trace, delta=0.5, duration=30.0)
        assert got.series.values.tobytes() == baseline.series.values.tobytes()
        assert got.flows.starts.tobytes() == baseline.flows.starts.tobytes()
        assert got.flows.sizes.tobytes() == baseline.flows.sizes.tobytes()
        assert got.packet_count == baseline.packet_count
        assert got.total_bytes == baseline.total_bytes


class TestGenerationInvariance:
    @pytest.fixture(scope="class")
    def model(self, ensemble):
        return 4.0, ensemble, PowerShot(0.8)

    @pytest.fixture(scope="class")
    def baseline(self, model):
        rate, ens, shot = model
        return GenerationEngine(workers=1).rate_series(
            rate, ens, shot, 120.0, 0.5, seed=5
        )

    @pytest.mark.parametrize("backend,workers,chunk", GRID)
    def test_rate_series_bitwise(self, model, baseline, backend, workers, chunk):
        rate, ens, shot = model
        got = GenerationEngine(
            chunk=float(max(chunk, 4096)) / 1000.0,  # seconds
            workers=workers,
            backend=backend,
        ).rate_series(rate, ens, shot, 120.0, 0.5, seed=5)
        assert got.values.tobytes() == baseline.values.tobytes()


class TestNetworkInvariance:
    @pytest.fixture(scope="class")
    def scenario(self):
        def wl(row):
            return table_i_workload(row, scale=1 / 256, duration=20.0)

        demands = DemandMatrix([
            NetworkDemand("src", "dst", wl(4)),
            NetworkDemand("mid0", "dst", wl(6)),
        ])
        return parallel_paths(2), demands

    @staticmethod
    def _digest(simulation):
        out = {}
        for link, ls in simulation.links.items():
            out[link] = (
                ls.n_demands,
                ls.packet_count,
                ls.total_bytes,
                None if ls.series is None else ls.series.values.tobytes(),
                None if ls.flows is None or not len(ls.flows)
                else (ls.flows.starts.tobytes(), ls.flows.sizes.tobytes()),
            )
        return out

    @pytest.fixture(scope="class")
    def baseline(self, scenario):
        topology, demands = scenario
        return self._digest(
            NetworkEngine(workers=1).simulate(topology, demands, seed=7)
        )

    @pytest.mark.parametrize("backend,workers,chunk", GRID)
    def test_simulation_bitwise(
        self, scenario, baseline, backend, workers, chunk
    ):
        topology, demands = scenario
        got = self._digest(
            NetworkEngine(
                chunk=chunk if chunk > 1 else None,
                workers=workers,
                backend=backend,
            ).simulate(topology, demands, seed=7)
        )
        assert list(got) == list(baseline)  # link order is canonical
        assert got == baseline
