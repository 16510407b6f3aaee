"""Packet-level shot-noise traffic generation — section VII-C.

Produces a full synthetic :class:`~repro.trace.PacketTrace` from the model
ingredients: flows arrive as Poisson, draw (S, D) from an ensemble, and
transmit their packets along the chosen shot.  Unlike
:mod:`repro.netsim.link` (which simulates TCP dynamics the model does not
know), this generator *is* the model — it is meant for feeding simulators
traffic with prescribed statistics, the third application of the paper.

Since the engine refactor this module is a thin front-end over
:class:`~repro.generation.engine.GenerationEngine`; ``chunk`` bounds the
per-packet expansion without changing the generated trace.
"""

from __future__ import annotations

from ..core.ensemble import FlowEnsemble
from ..core.shots import Shot
from ..netsim.addresses import AddressSpace
from ..trace.packet import PacketTrace
from .engine import GenerationEngine

__all__ = ["generate_packet_trace"]


def generate_packet_trace(
    arrival_rate: float,
    ensemble: FlowEnsemble,
    shot: Shot,
    duration: float,
    *,
    link_capacity: float = 622e6,
    address_space: AddressSpace | None = None,
    mss: int = 1460,
    header_bytes: int = 40,
    jitter: float = 0.25,
    warmup: float | None = None,
    name: str = "generated",
    rng=None,
    chunk: float | None = None,
    engine: GenerationEngine | None = None,
) -> PacketTrace:
    """Generate a packet trace whose flows follow the shot-noise model.

    ``warmup`` seconds of pre-capture arrivals put the process in steady
    state at t = 0 (default: the 99th percentile of sampled durations), so
    tails of earlier flows compensate the end-of-capture truncation and
    the generated mean rate matches the model's.  Flows that would extend
    past ``duration`` are truncated at the capture end, like a real trace.

    ``chunk`` packetizes that many seconds of arrivals at a time (bounding
    the intermediate per-packet arrays); the output is identical for any
    chunking.  Captures too long to hold in memory stream from
    :class:`~repro.synthesis.StreamingSynthesis` instead.
    """
    if engine is None:
        engine = GenerationEngine(chunk=chunk)
    return engine.packet_trace(
        arrival_rate,
        ensemble,
        shot,
        duration,
        link_capacity=link_capacity,
        address_space=address_space,
        mss=mss,
        header_bytes=header_bytes,
        jitter=jitter,
        warmup=warmup,
        name=name,
        rng=rng,
    )
