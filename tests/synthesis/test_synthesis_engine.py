"""Tests for the streaming, time-sharded synthesis engine.

The headline contract: the streamed path is **bit-for-bit** equal to
``SynthesisEngine.synthesize`` for any ``chunk`` and ``workers`` — trace,
measured FlowSet and RateSeries alike — including cell-boundary-straddling
flows, empty cells, and every arrival family the cell sampler supports
(mirroring the chunk/shard invariance battery of ``tests/measurement``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.execution import ExecutionSpec, RetryPolicy
from repro.measurement import MeasurementEngine
from repro.netsim import (
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
    SessionArrivals,
    medium_utilization_link,
    table_i_workload,
)
from repro.netsim.sizes import BoundedPareto
from repro.synthesis import engine as synthesis_engine
from repro.synthesis import (
    DEFAULT_SYNTHESIS_CELL,
    SynthesisEngine,
    reference_synthesize_link_trace,
)
from repro.trace import TraceReader

DURATION = 20.0
SEED = 11


@pytest.fixture(scope="module")
def workload():
    return medium_utilization_link(duration=DURATION)


@pytest.fixture(scope="module")
def canonical(workload):
    return workload.synthesize(seed=SEED)


def drain(stream):
    blocks = list(stream)
    return np.concatenate(blocks) if blocks else np.zeros(0), blocks


class TestChunkWorkerInvariance:
    """Streamed output == materialised output, bitwise, any config."""

    @pytest.mark.parametrize("chunk,workers", [
        (1_000_000, 1), (1000, 1), (997, 3), (50, 2), (1, 1), (5000, 4),
    ])
    def test_stream_equals_synthesize(self, workload, canonical, chunk, workers):
        stream = workload.synthesize_chunks(
            seed=SEED, chunk=chunk, workers=workers
        )
        packets, blocks = drain(stream)
        np.testing.assert_array_equal(packets, canonical.trace.packets)
        assert all(b.size == chunk for b in blocks[:-1])
        assert stream.packet_count == len(canonical.trace)
        assert stream.total_flows == canonical.n_flows
        assert stream.total_bytes == canonical.trace.total_bytes

    def test_chunk_none_yields_emission_blocks(self, workload, canonical):
        stream = SynthesisEngine(workers=2).synthesize_chunks(
            SEED, **workload._synthesis_kwargs()
        )
        packets, _ = drain(stream)
        np.testing.assert_array_equal(packets, canonical.trace.packets)

    def test_engine_synthesize_matches_workload(self, workload, canonical):
        direct = SynthesisEngine().synthesize(
            SEED, **workload._synthesis_kwargs()
        )
        np.testing.assert_array_equal(
            direct.trace.packets, canonical.trace.packets
        )
        np.testing.assert_array_equal(
            direct.flow_start_times, canonical.flow_start_times
        )
        np.testing.assert_array_equal(direct.flow_sizes, canonical.flow_sizes)

    def test_small_cells_straddling_flows(self, workload):
        """A 2 s cell forces nearly every flow across cell boundaries."""
        small = SynthesisEngine(cell=2.0)
        base = small.synthesize(SEED, **workload._synthesis_kwargs())
        assert base.trace.is_sorted()
        for chunk, workers in ((313, 1), (4096, 3)):
            stream = SynthesisEngine(
                cell=2.0, chunk=chunk, workers=workers
            ).synthesize_chunks(SEED, **workload._synthesis_kwargs())
            packets, _ = drain(stream)
            np.testing.assert_array_equal(packets, base.trace.packets)

    def test_cell_width_changes_trace(self, workload):
        """The cell is a seeding knob, not an execution knob."""
        a = SynthesisEngine(cell=2.0).synthesize(
            SEED, **workload._synthesis_kwargs()
        )
        b = SynthesisEngine(cell=4.0).synthesize(
            SEED, **workload._synthesis_kwargs()
        )
        assert not np.array_equal(a.trace.packets, b.trace.packets)

    def test_scipy_frozen_dist_worker_invariant(self):
        """scipy frozen dists mutate their own random_state inside rvs;
        the cell sampler serialises those draws, so a shared scipy
        size_dist stays bit-for-bit worker-invariant."""
        from dataclasses import replace as dc_replace

        from scipy import stats

        w = dc_replace(
            medium_utilization_link(duration=10.0),
            size_dist=stats.lognorm(s=1.2, scale=8e3),
        )
        base = w.synthesize(seed=5)
        for workers in (2, 4):
            packets, _ = drain(
                w.synthesize_chunks(seed=5, chunk=1000, workers=workers)
            )
            np.testing.assert_array_equal(packets, base.trace.packets)

    def test_seed_reproducible_and_distinct(self, workload, canonical):
        again = workload.synthesize(seed=SEED)
        np.testing.assert_array_equal(
            again.trace.packets, canonical.trace.packets
        )
        other = workload.synthesize(seed=SEED + 1)
        assert not np.array_equal(
            other.trace.packets, canonical.trace.packets
        )


class TestMeasurementEquivalence:
    """synthesize → measure streamed == measure the materialised trace."""

    @pytest.mark.parametrize("chunk,workers", [(2048, 1), (977, 2)])
    def test_flowset_and_series_bitwise(self, workload, canonical, chunk, workers):
        base = MeasurementEngine().measure_trace(
            canonical.trace, delta=0.2, timeout=8.0
        )
        stream = workload.synthesize_chunks(
            seed=SEED, chunk=chunk, workers=workers
        )
        result = MeasurementEngine(workers=workers).measure_chunks(
            stream, duration=workload.duration, delta=0.2, timeout=8.0
        )
        np.testing.assert_array_equal(result.flows.starts, base.flows.starts)
        np.testing.assert_array_equal(result.flows.ends, base.flows.ends)
        np.testing.assert_array_equal(result.flows.sizes, base.flows.sizes)
        np.testing.assert_array_equal(result.flows.keys, base.flows.keys)
        assert result.flows.discarded_packets == base.flows.discarded_packets
        np.testing.assert_array_equal(
            result.series.values, base.series.values
        )
        assert result.packet_count == len(canonical.trace)

    def test_duration_and_capacity_inferred_from_stream(self, workload):
        """measure_chunks reads the stream's own metadata, like
        measure_file reads the trace header — utilisation comes out
        right without re-plumbing the workload by hand."""
        stream = workload.synthesize_chunks(seed=SEED, chunk=4000)
        result = MeasurementEngine().measure_chunks(stream, timeout=8.0)
        assert result.duration == workload.duration
        assert result.link_capacity == workload.link_capacity_bps
        assert result.utilization > 0.0

    def test_bare_iterable_still_needs_duration(self, canonical):
        with pytest.raises(ParameterError, match="duration"):
            MeasurementEngine().measure_chunks(
                iter([canonical.trace.packets])
            )

    def test_raw_series_matches_from_packets(self, workload, canonical):
        from repro.stats import RateSeries

        stream = workload.synthesize_chunks(seed=SEED, chunk=3000)
        result = MeasurementEngine().measure_chunks(
            stream, duration=workload.duration, delta=0.5, timeout=8.0,
            keep_raw_series=True,
        )
        expected = RateSeries.from_packets(
            canonical.trace, 0.5, duration=workload.duration
        )
        np.testing.assert_array_equal(
            result.raw_series.values, expected.values
        )

    def test_write_trace_round_trip(self, workload, canonical, tmp_path):
        path = tmp_path / "streamed.rptr"
        engine = SynthesisEngine(chunk=2500, workers=2)
        written = engine.synthesize_chunks(
            SEED, **workload._synthesis_kwargs()
        ).write_trace(path)
        assert written == len(canonical.trace)
        loaded = TraceReader(path).read()
        np.testing.assert_array_equal(
            loaded.packets, canonical.trace.packets
        )
        assert loaded.duration == canonical.trace.duration


class TestArrivalFamilies:
    """Cellable arrivals stream per cell; MMPP pre-samples — all invariant."""

    def _workload(self, arrivals):
        w = medium_utilization_link(duration=DURATION)
        w.arrivals = arrivals
        return w

    @pytest.mark.parametrize("make", [
        lambda rate: DiurnalArrivals(rate, relative_amplitude=0.6, period=DURATION),
        lambda rate: SessionArrivals(rate / 4.0, flows_per_session=4.0, think_time=1.0),
        lambda rate: MMPPArrivals([rate * 0.5, rate * 2.0], [3.0, 3.0]),
    ])
    def test_stream_invariance(self, make):
        base_rate = medium_utilization_link(duration=DURATION).arrival_rate
        w = self._workload(make(base_rate))
        materialised = w.synthesize(seed=3)
        assert materialised.trace.is_sorted()
        for chunk, workers in ((1500, 1), (700, 3)):
            packets, _ = drain(
                w.synthesize_chunks(seed=3, chunk=chunk, workers=workers)
            )
            np.testing.assert_array_equal(
                packets, materialised.trace.packets
            )

    def test_session_flows_respect_horizon(self):
        rate = 80.0
        arr = SessionArrivals(rate / 4.0, flows_per_session=4.0, think_time=5.0)
        rng = np.random.default_rng(0)
        times = arr.cell_times(10.0, 12.0, 15.0, rng)
        assert np.all(times >= 10.0)
        assert np.all(times < 15.0)  # spill past t1=12 allowed, horizon not

    def test_mmpp_cell_times_raises(self):
        arr = MMPPArrivals([10.0, 40.0], [2.0, 2.0])
        assert not arr.cellable
        with pytest.raises(ParameterError, match="per arrival cell"):
            arr.cell_times(0.0, 1.0, 10.0, np.random.default_rng(0))

    def test_poisson_cell_rate(self):
        """Per-cell sampling preserves the process intensity."""
        arr = PoissonArrivals(200.0)
        rng = np.random.default_rng(1)
        counts = [
            arr.cell_times(k * 1.0, (k + 1) * 1.0, 64.0, rng).size
            for k in range(64)
        ]
        assert np.mean(counts) == pytest.approx(200.0, rel=0.1)


class TestZeroFlows:
    def test_empty_cells_are_legal(self):
        """A rate low enough for empty cells still synthesizes fine."""
        syn = SynthesisEngine().synthesize(
            2,
            arrivals=PoissonArrivals(0.5),
            size_dist=BoundedPareto(1.2, 2e3, 2e6),
            duration=60.0,
            link_capacity=1e7,
        )
        assert syn.n_flows > 0
        assert syn.trace.is_sorted()

    def test_whole_workload_zero_flows_raises(self):
        with pytest.raises(ParameterError, match="zero flows"):
            SynthesisEngine().synthesize(
                0,
                arrivals=PoissonArrivals(1e-6),
                size_dist=BoundedPareto(1.2, 2e3, 2e6),
                duration=0.001,
                link_capacity=1e7,
            )

    def test_streamed_zero_flows_raises_and_cleans_file(self, tmp_path):
        path = tmp_path / "empty.rptr"
        engine = SynthesisEngine(chunk=1000)
        with pytest.raises(ParameterError, match="zero flows"):
            engine.synthesize_chunks(
                0,
                arrivals=PoissonArrivals(1e-6),
                size_dist=BoundedPareto(1.2, 2e3, 2e6),
                duration=0.001,
                link_capacity=1e7,
            ).write_trace(path)
        assert not path.exists()

    def test_failed_stream_leaves_no_torn_file(self, workload, tmp_path,
                                               monkeypatch):
        """A failure mid-stream removes the partial trace and propagates.

        The first cell's packets are written before the second cell
        fails, so a file that kept them would hold a 0-packet header
        with packet bytes behind it, which ``TraceReader`` refuses as
        truncated.
        """
        calls = []
        real_task = synthesis_engine.synthesize_cell_task

        def failing_task(task):
            calls.append(task)
            if len(calls) == 2:
                raise RuntimeError("cell worker died")
            return real_task(task)

        monkeypatch.setattr(
            synthesis_engine, "synthesize_cell_task", failing_task
        )
        path = tmp_path / "torn.rptr"
        stream = SynthesisEngine(chunk=100).synthesize_chunks(
            SEED, **workload._synthesis_kwargs()
        )
        with pytest.raises(RuntimeError, match="cell worker died"):
            stream.write_trace(path)
        assert len(calls) == 2
        assert not path.exists()


class TestGroundTruthAndScale:
    def test_ground_truth_composition(self, workload, canonical):
        from repro.flows import PROTO_TCP, PROTO_UDP

        protos = set(np.unique(canonical.flow_protocols))
        assert protos <= {PROTO_TCP, PROTO_UDP}
        # warm-up flows genuinely precede the capture
        assert canonical.flow_start_times.min() < 0.0
        assert canonical.flow_start_times.max() < DURATION

    def test_full_rate_table_i_row_streams_end_to_end(self):
        """scale=1.0 synthesize → measure without materialising the trace.

        A short interval keeps the test fast; the arrival *rate* is the
        paper's full OC-12 figure, so per-chunk flow populations are
        full-scale.
        """
        w = table_i_workload(2, scale=1.0, duration=8.0)
        stream = w.synthesize_chunks(seed=1, chunk=20_000)
        result = MeasurementEngine(chunk=20_000).measure_chunks(
            stream, duration=w.duration, delta=0.2, timeout=8.0
        )
        assert result.packet_count > 100_000
        assert len(result.flows) > 5000
        # utilisation lands near the Table I target despite streaming
        # (short intervals under-collect heavy-tail byte mass, hence the
        # generous band; the 120 s preset test pins 15%)
        assert result.mean_rate_bps == pytest.approx(
            w.target_mean_rate_bps, rel=0.45
        )


class TestEngineKeywords:
    def test_rejects_bad_chunk(self):
        with pytest.raises(ParameterError):
            SynthesisEngine(chunk=0)
        with pytest.raises(ParameterError):
            SynthesisEngine(chunk=2.5)

    def test_rejects_bad_workers_backend_and_cell(self):
        with pytest.raises(ParameterError):
            SynthesisEngine(workers=0)
        with pytest.raises(ParameterError):
            SynthesisEngine(backend="forkserver")
        with pytest.raises(ParameterError):
            SynthesisEngine(cell=0.0)

    def test_engine_keywords(self):
        policy = RetryPolicy(max_retries=1)
        engine = SynthesisEngine(chunk=10, workers=3, retry=policy)
        assert engine.execution == ExecutionSpec(10, 3, retry=policy)
        assert engine.cell == DEFAULT_SYNTHESIS_CELL


class TestReferencePath:
    """The frozen legacy synthesizer stays available and faithful."""

    def test_reference_statistically_equivalent(self, workload, canonical):
        ref = reference_synthesize_link_trace(
            seed=SEED, **workload._synthesis_kwargs()
        )
        assert ref.trace.is_sorted()
        # same laws, different draws: equal in distribution, not bitwise
        assert not np.array_equal(ref.trace.packets, canonical.trace.packets)
        assert ref.trace.mean_rate_bps == pytest.approx(
            canonical.trace.mean_rate_bps, rel=0.35
        )
        assert ref.n_flows == pytest.approx(canonical.n_flows, rel=0.2)

    def test_reference_zero_flows_raises(self):
        with pytest.raises(ParameterError, match="zero flows"):
            reference_synthesize_link_trace(
                arrivals=PoissonArrivals(1e-6),
                size_dist=BoundedPareto(1.2, 2e3, 2e6),
                duration=0.001,
                link_capacity=1e7,
                seed=0,
            )
