"""Command-line interface: ``python -m repro <command>``.

Operator-facing commands wrapping the library.  The scenario pipeline is
the canonical path:

* ``run``            — run a scenario end-to-end (synthesize → measure →
  fit → generate → validate) from a JSON spec file or a registry name,
  optionally writing the validation report as JSON;
* ``network``        — simulate a whole backbone (topology + demand
  matrix + routing + events) and report per-link models, utilisation,
  provisioning verdicts and anomalies;
* ``sweep``          — capacity-planning sweep over a base network
  scenario: growth factors x auto-enumerated fibre failures, closed-form
  pre-filter, marginal cells simulated, one ranked report;
* ``list-scenarios`` — show the built-in scenario registry, grouped by
  family (single-link vs network);
* ``synthesize``     — stream a scaled backbone capture to a trace file;
* ``measure``        — (alias ``import``) fit the model to a capture:
  a ``.rptr`` trace or a NetFlow v5 / IPFIX / pcap archive streams
  through the section VI measurement pipeline;
* ``calibrate``      — fit the flow-size families to a telemetry archive
  (or a scenario) out-of-core, select the best model, and emit a
  runnable fitted scenario spec, optionally closed-loop validated;
* ``export``         — re-export a capture (or any importable archive)
  as NetFlow v5, IPFIX or pcap for downstream tooling;
* ``generate``       — produce model-driven traffic (section VII-C)
  calibrated on an input capture, via the chunked generation engine.

Examples::

    python -m repro run medium --report report.json
    python -m repro run my-scenario.json
    python -m repro run real-trace-netflow5 --ingest-path router.nf5
    python -m repro network abilene-table-i --workers 4 --report net.json
    python -m repro sweep abilene-single-failure-2x --report sweep.json
    python -m repro list-scenarios
    python -m repro synthesize /tmp/link.rptr --preset medium --seed 7
    python -m repro measure /tmp/link.rptr --flow-kind five_tuple
    python -m repro measure /tmp/link.rptr --chunk 500000 --workers 4
    python -m repro measure router.nf5 --format netflow5
    python -m repro import router.nf5 --link-capacity 622e6
    python -m repro calibrate router.nf5 -o fitted-spec.json --validate
    python -m repro export /tmp/link.rptr /tmp/link.nf5 --format netflow5
    python -m repro generate /tmp/link.rptr /tmp/synthetic.rptr --chunk 30
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .exceptions import (
    CheckpointError,
    FlowExportError,
    ParameterError,
    ReproError,
    TraceFormatError,
)
from .generation import GenerationEngine
from .measurement import MeasurementEngine
from .pipeline import (
    CALIBRATION_FAMILIES,
    CalibrationSpec,
    EstimationSpec,
    ExecutionSpec,
    FlowAccountingSpec,
    INGEST_FORMATS,
    INGEST_STAGES,
    IngestSpec,
    MeasurementSpec,
    SELECTION_CRITERIA,
    ScenarioSpec,
    ValidationSpec,
    WorkloadSpec,
    apply_quick_mode,
    default_registry,
    run_scenario,
)
from .trace import write_trace


#: CLI exit codes: 2 = bad spec/parameters, 3 = runtime/engine failure,
#: 130 = interrupted (128 + SIGINT), with any checkpoints kept on disk.
EXIT_USAGE = 2
EXIT_RUNTIME = 3
EXIT_INTERRUPTED = 130


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _runtime_fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_RUNTIME


#: Errors the operator can fix by changing arguments or inputs (a
#: capture flow accounting cannot use is bad input) — exit 2.
#: Everything else a ReproError signals mid-run (a lost worker pool, a
#: failed fit, a routing dead end) is an engine failure — exit 3.
_USAGE_ERRORS = (
    ParameterError, TraceFormatError, CheckpointError, FlowExportError,
)


def _fail_for(exc: ReproError, prefix: str = "") -> int:
    if isinstance(exc, _USAGE_ERRORS):
        return _fail(f"{prefix}{exc}")
    return _runtime_fail(f"{prefix}{exc}")


def _execution_parent() -> argparse.ArgumentParser:
    """The shared ``--chunk/--workers/--backend`` flags.

    One parent parser for every engine-backed command (``run``,
    ``network``, ``sweep``, ``synthesize``, ``measure``) so the flags
    are spelled, defaulted and documented exactly once.  A flag you
    give overrides the spec's ``execution`` section; a flag you leave
    unset keeps the spec's value.  ``generate`` keeps its own
    ``--chunk`` — there it is a float time window in seconds, not a
    packet count.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group(
        "execution",
        "engine knobs: chunk bounds peak memory, workers bound "
        "parallelism — neither ever changes any result; each flag given "
        "overrides the spec's 'execution' section, each flag left unset "
        "keeps it",
    )
    group.add_argument(
        "--chunk", type=int, default=None,
        help="packets per streamed engine block (0 clears the spec's "
        "chunk, e.g. back to in-memory synthesis for run; default: keep "
        "the spec's 'execution' section)",
    )
    group.add_argument(
        "--workers", type=int, default=None,
        help="engine worker threads (default: keep the spec's "
        "'execution' section)",
    )
    group.add_argument(
        "--backend", choices=("serial", "thread", "process"), default=None,
        help="engine pool flavour: 'thread' (default), 'process' "
        "(shared-memory worker processes; best for multi-core runs) or "
        "'serial' (in-line, for debugging)",
    )
    return parent


def _check_execution_flags(args: argparse.Namespace) -> str | None:
    """Validate the shared flags; returns the error message, if any."""
    chunk = getattr(args, "chunk", None)
    workers = getattr(args, "workers", None)
    if chunk is not None and chunk < 0:
        return f"--chunk must be >= 0 (0 = in-memory path), got {chunk}"
    if workers is not None and workers < 1:
        return f"--workers must be >= 1, got {workers}"
    return None


def _resolve_execution(
    args: argparse.Namespace, execution: ExecutionSpec = ExecutionSpec()
) -> ExecutionSpec:
    """``execution`` with the flags given on the command line applied.

    A flag you give overrides the spec's value (``--chunk 0`` clears the
    chunk), a flag you leave unset keeps it.  There is no retry flag: the
    spec's policy always carries through.  Commands with no spec file
    resolve against ``ExecutionSpec()``.
    """
    knobs = {
        name: getattr(args, name)
        for name in ("chunk", "workers", "backend")
        if getattr(args, name) is not None
    }
    if "chunk" in knobs:
        knobs["chunk"] = knobs["chunk"] or None
    return dataclasses.replace(execution, **knobs)


def _cmd_synthesize(args: argparse.Namespace) -> int:
    """``synthesize``: stream a workload's capture straight to disk.

    Synthesis cells are merged into ``--chunk``-packet blocks (default
    10^6) and appended to the trace file as they complete, so even a
    full-rate (``--scale 1``) OC-12 preset writes its capture in bounded
    memory.  The file is bit-for-bit the same for any chunk/workers.
    """
    error = _check_execution_flags(args)
    if error is not None:
        return _fail(error)
    execution = _resolve_execution(args)
    workload_kwargs = dict(preset=args.preset, duration=args.duration)
    if args.scale is not None:
        workload_kwargs["scale"] = args.scale
    try:
        spec = ScenarioSpec(
            name=f"synthesize-{args.preset}",
            seed=args.seed,
            workload=WorkloadSpec(**workload_kwargs),
            generation=None,
        )
        workload = spec.workload.build()
        stream = workload.synthesize_chunks(
            seed=spec.seed, **vars(execution)
        )
        stream.write_trace(args.output)
    except ParameterError as exc:
        return _fail(str(exc))
    utilization = (
        8.0 * stream.total_bytes / stream.duration / stream.link_capacity
    )
    line = _trace_line(
        workload.name, stream.packet_count, stream.duration, utilization
    )
    print(f"wrote {line} -> {args.output}")
    return 0


def _ingest_spec(
    args: argparse.Namespace, execution: ExecutionSpec, **ingest
) -> ScenarioSpec:
    """The scenario a measure-style command runs on ``args.file``.

    ``ingest`` holds the :class:`IngestSpec` fields beyond the path and
    the execution strategy (format, order, rebase, ...).
    """
    return ScenarioSpec(
        name=Path(args.file).stem,
        flows=FlowAccountingSpec(
            kind=args.flow_kind,
            timeout=args.timeout,
            prefix_length=args.prefix_length,
        ),
        measurement=MeasurementSpec(execution=execution),
        estimation=EstimationSpec(delta=args.delta),
        validation=ValidationSpec(epsilon=getattr(args, "epsilon", 0.01)),
        generation=None,
        ingest=IngestSpec(path=args.file, execution=execution, **ingest),
    )


def _trace_line(name, packet_count, duration, utilization) -> str:
    """The ``PacketTrace(...)`` line of ``synthesize`` and ``run``."""
    return (
        f"PacketTrace(name={name!r}, packets={packet_count}, "
        f"duration={duration:g}s, utilization={utilization:.1%})"
    )


def _ingest_line(summary: dict) -> str:
    """The archive description line shared by ``measure`` and ``run``."""
    name = Path(summary["path"]).name
    skipped = summary.get("records_skipped", 0)
    line = (
        f"{summary['format']}:{name} — {summary['records']} records"
        + (f" ({skipped} malformed skipped)" if skipped else "")
        + f" -> {summary['packets']} packets over "
        f"{summary['duration_s']:g} s"
    )
    if summary["utilization"] is not None:
        line += f", util {summary['utilization']:.1%}"
    return line


def _write_report(path, result) -> None:
    Path(path).write_text(json.dumps(result.report(), indent=2) + "\n")
    print(f"report     : wrote {path}")


def _print_measurement(args: argparse.Namespace, result) -> None:
    """The section VI report of ``measure``."""
    flows = result.accounting.flows
    stats = result.estimation.statistics
    series = result.estimation.series
    fit = result.fit.power_fit
    report = result.validation
    print(f"trace      : {_ingest_line(result.ingest.summary())}")
    print(f"flows      : {len(flows)} ({args.flow_kind}, "
          f"timeout {args.timeout:g} s, {flows.discarded_packets} pkts "
          "discarded as single-packet flows)")
    print(f"parameters : lambda = {stats.arrival_rate:.2f}/s   "
          f"E[S] = {stats.mean_size:.0f} B   "
          f"E[S^2/D] = {stats.mean_square_size_over_duration:.4g} B^2/s")
    print(f"mean rate  : model {result.fit.model.mean * 8 / 1e6:.3f} Mbps   "
          f"measured {series.mean * 8 / 1e6:.3f} Mbps")
    print(f"CoV        : measured {series.coefficient_of_variation:.2%}   "
          f"model(b={fit.power:.2f}) {report.fitted_cov:.2%}")
    print(f"shot fit   : b = {fit.power:.2f}  (kappa = {fit.kappa:.2f}"
          f"{', clipped' if fit.clipped else ''})")
    print(f"capacity   : {report.required_capacity_bps / 1e6:.3f} Mbps for "
          f"P(congestion) <= {args.epsilon:g}")


def _cmd_measure(args: argparse.Namespace) -> int:
    """``measure`` (alias ``import``): fit the paper's model to a capture.

    A native ``.rptr`` trace or a NetFlow v5 / IPFIX / pcap archive
    streams out-of-core through the ingest pipeline (ImportFlows →
    AccountFlows → Estimate → FitModel → Validate) and the section VI
    report is printed.  Flow archives are expanded back into packets, so
    the idle-timeout accounting means the same thing for every format.
    """
    error = _check_execution_flags(args)
    if error is not None:
        return _fail(error)
    spec = _ingest_spec(
        args,
        _resolve_execution(args),
        format=args.format,
        order=args.order,
        rebase=args.rebase,
        duration=args.duration,
        link_capacity_bps=args.link_capacity,
        errors=args.errors,
    )
    result = run_scenario(spec)
    _print_measurement(args, result)
    if args.report:
        _write_report(args.report, result)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    # built first: it rejects a negative or non-finite window before the fit
    engine = GenerationEngine(chunk=args.chunk or None)
    # generate only needs the fit — stop before the Validate stage
    result = run_scenario(
        _ingest_spec(args, ExecutionSpec()), stages=INGEST_STAGES[:-1]
    )
    meta = result.ingest.meta
    fit = result.fit.power_fit
    generated = engine.packet_trace(
        result.fit.model.arrival_rate,
        result.fit.model.ensemble,
        fit.shot,
        duration=args.duration or meta.duration,
        link_capacity=meta.link_capacity,
        rng=args.seed,
        name="generated",
    )
    write_trace(generated, args.output)
    print(f"calibrated b = {fit.power:.2f}; wrote {generated} -> {args.output}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    """``calibrate``: fit the size families to a trace, emit a runnable spec.

    The target is either a telemetry archive (NetFlow v5 / IPFIX / pcap /
    ``.rptr``, streamed out-of-core) or a scenario (spec file or registry
    name, run through the pipeline's ``Calibrate`` stage).  Prints the
    model-selection verdict, optionally writes the fitted
    :class:`ScenarioSpec` (``-o``) and the full report (``--report``),
    and with ``--validate`` runs the closed loop — synthesize from the
    fitted spec and compare λ, E[S], utilisation moments and tail
    quantiles; a failed comparison exits with status 3.
    """
    error = _check_execution_flags(args)
    if error is not None:
        return _fail(error)
    from .calibration import calibrate_archive, validate_fitted_spec

    families = CALIBRATION_FAMILIES
    if args.families:
        families = tuple(
            name.strip() for name in args.families.split(",") if name.strip()
        )
    target = Path(args.target)
    is_spec = target.suffix == ".json" or args.target in default_registry()
    closed = None
    try:
        if is_spec:
            spec = _load_spec(args.target)
            if spec.network is not None or spec.sweep is not None:
                return _fail(
                    f"scenario {spec.name!r} is a network/sweep scenario; "
                    "calibrate fits one link's flow population — pick a "
                    "single-link scenario or a telemetry archive"
                )
            section = spec.calibration or CalibrationSpec()
            section = dataclasses.replace(
                section,
                families=families if args.families else section.families,
                select=args.select or section.select,
                restarts=(
                    section.restarts if args.restarts is None
                    else args.restarts
                ),
                seed=section.seed if args.seed is None else args.seed,
                validate=bool(args.validate) or section.validate,
                validate_duration=(
                    args.validate_duration
                    if args.validate_duration is not None
                    else section.validate_duration
                ),
                execution=_resolve_execution(args, section.execution),
            )
            spec = dataclasses.replace(spec, calibration=section)
            result = run_scenario(spec)
            report = result.calibration.report
            closed = result.calibration.closed_loop
        else:
            execution = _resolve_execution(args)
            report = calibrate_archive(
                args.target,
                format=args.format,
                duration=args.duration,
                link_capacity_bps=args.link_capacity,
                errors=args.errors,
                families=families,
                select=args.select or "bic",
                restarts=4 if args.restarts is None else args.restarts,
                seed=args.seed or 0,
                **vars(execution),
            )
            if args.validate:
                closed = validate_fitted_spec(
                    report,
                    seed=args.seed or 0,
                    duration=args.validate_duration,
                    execution=execution,
                )
    except ReproError as exc:
        return _fail_for(exc)

    summary = report.summary()
    print(f"source     : {report.source}")
    print(
        f"flows      : {report.flow_count} over {report.duration:g} s "
        f"(lambda = {report.arrival_rate:g}/s)"
    )
    print(
        f"mean size  : {report.mean_size:.1f} B/flow "
        f"({report.mean_rate_bps / 1e6:.3f} Mbit/s)"
    )
    chosen = report.chosen
    print(
        f"family     : {report.family} ({report.selection}-selected; "
        f"ks = {chosen.ks_statistic:.4f})"
    )
    for name, value in sorted(report.params.items()):
        print(f"  {name:<12}: {value:g}")
    ranked = ", ".join(
        f"{name}={value:.1f}"
        for name, value in summary["candidates"].items()
    )
    print(f"candidates : {ranked} ({report.selection})")

    fitted = report.to_scenario_spec(
        name=args.name or f"{target.stem}-fitted"
    )
    if args.output:
        Path(args.output).write_text(fitted.to_json(indent=2) + "\n")
        print(f"fitted spec: wrote {args.output}")
    if args.report:
        payload = report.to_dict()
        if closed is not None:
            payload["closed_loop"] = closed.to_dict()
        Path(args.report).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"report     : wrote {args.report}")
    if closed is not None:
        verdict = "PASS" if closed.passed else "FAIL"
        print(
            f"closed loop: {verdict} (lambda err {closed.lambda_rel_err:.2%}, "
            f"E[S] err {closed.mean_size_rel_err:.2%}, rate err "
            f"{closed.mean_rate_rel_err:.2%})"
        )
        for failure in closed.failures:
            print(f"  {failure}", file=sys.stderr)
        if not closed.passed:
            return _runtime_fail(
                "closed-loop validation failed: the synthesized trace "
                "does not reproduce the source within tolerances"
            )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    """``export``: write a capture back out as operator telemetry.

    Any importable archive works as input (``.rptr``, NetFlow v5, IPFIX,
    pcap — auto-detected).  ``--format pcap`` streams packet chunks
    straight through with exact timestamps; the flow formats aggregate
    the stream into five-tuple flow records first.  Zero-duration
    (single-packet) flows carry no ``S^2/D`` mass and are never
    exported as flow records — the paper's model discards them on the
    measurement side too, so the fitted parameters round-trip.
    """
    error = _check_execution_flags(args)
    if error is not None:
        return _fail(error)
    execution = _resolve_execution(args)
    from .interop import (
        PcapWriter,
        flow_records_from_flowset,
        open_import_stream,
        write_ipfix,
        write_netflow5,
    )

    try:
        stream = open_import_stream(
            args.input,
            format=args.input_format,
            chunk=execution.chunk,
            rebase=args.rebase,
            errors=args.errors,
        )
        if args.format == "pcap":
            with PcapWriter(args.output) as writer:
                for block in stream:
                    writer.write(block)
            print(f"wrote {writer.packet_count} packets "
                  f"({stream.format} -> pcap) -> {args.output}")
            return 0
        engine = MeasurementEngine(**vars(execution))
        measured = engine.measure_chunks(
            stream,
            key="five_tuple",
            timeout=args.timeout,
            min_packets=args.min_packets,
        )
        records = flow_records_from_flowset(measured.flows)
        write = write_netflow5 if args.format == "netflow5" else write_ipfix
        count = write(records, args.output)
    except ReproError as exc:
        return _fail_for(exc)
    print(f"wrote {count} flow records "
          f"({stream.format} -> {args.format}) -> {args.output}")
    return 0


def _load_spec(target: str) -> ScenarioSpec:
    """A spec file path, or a registry scenario name.

    ``*.json`` (and any explicit path that is not a registry name) loads
    a spec file; bare registry names always win over same-named files in
    the working directory — write ``./medium`` to force the file.
    """
    path = Path(target)
    if path.suffix == ".json" or (
        path.is_file() and target not in default_registry()
    ):
        return ScenarioSpec.from_file(path)
    return default_registry().get(target)


def _cmd_run(args: argparse.Namespace) -> int:
    """``run``, ``network`` and ``sweep``: one scenario front door.

    The spec picks the report printer — single-link, network or sweep —
    so ``run`` (and ``network``) redirect network and sweep specs; the
    prelude (flags, seed, execution flags, quick mode) and
    the epilogue (the run's health line, ``--report``) are shared.
    """
    try:
        spec = _load_spec(args.spec)
    except ReproError as exc:
        return _fail(str(exc))
    if spec.sweep is not None:
        section, printer = "sweep", _print_sweep
    elif spec.network is not None:
        section, printer = "network", _print_network
    elif args.command == "network":
        return _fail(
            f"scenario {spec.name!r} has no 'network' section; use "
            "'run' for single-link scenarios (see list-scenarios)"
        )
    else:
        # the flags override the section that drives the packet source
        section = "ingest" if spec.ingest is not None else "synthesis"
        printer = _print_link
    if args.command == "sweep" and section != "sweep":
        return _fail(
            f"scenario {spec.name!r} has no 'sweep' section; use "
            "'network' or 'run' for plain scenarios (see list-scenarios)"
        )
    error = _check_execution_flags(args)
    if error is not None:
        return _fail(error)
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    resume = bool(getattr(args, "resume", False))
    if resume and not checkpoint_dir:
        return _fail("--resume needs --checkpoint-dir to resume from")
    if args.seed is not None:
        spec = spec.with_overrides(seed=args.seed)
    ingest_path = getattr(args, "ingest_path", None)
    if ingest_path is not None:
        if spec.ingest is None:
            return _fail(
                f"scenario {spec.name!r} has no 'ingest' section; "
                "--ingest-path only applies to real-trace-fit scenarios "
                "(see list-scenarios)"
            )
        spec = dataclasses.replace(
            spec, ingest=dataclasses.replace(spec.ingest, path=ingest_path)
        )
    # flags given override the section's values, flags left unset keep
    # them; the execution strategy never changes a scenario's results
    current = getattr(spec, section)
    execution = _resolve_execution(args, current.execution)
    if execution != current.execution:
        spec = dataclasses.replace(
            spec, **{section: current.with_execution(execution)}
        )
    spec = apply_quick_mode(spec)
    try:
        result = run_scenario(
            spec, checkpoint_dir=checkpoint_dir, resume=resume
        )
    except ReproError as exc:
        return _fail_for(exc, f"scenario {spec.name!r} failed: ")

    print(f"scenario   : {spec.name}"
          + (f" — {spec.description}" if spec.description else ""))
    printer(result)
    health = result.health
    if not health.clean:
        print(f"health     : {len(health.retries)} retr"
              f"{'y' if len(health.retries) == 1 else 'ies'}, "
              f"{len(health.degradations)} degradation(s) — see the "
              "JSON report's 'health' section")
    if args.report:
        _write_report(args.report, result)
    return 0


def _print_link(result) -> None:
    """The single-link report: measured vs model, provisioning."""
    spec = result.spec
    report = result.validation
    if result.ingest is not None:
        print(f"import     : {_ingest_line(result.ingest.summary())}")
    elif result.trace is not None:
        print(f"trace      : {result.trace}")
    else:
        summary = result.synthesis.summary()
        print("trace      : "
              + _trace_line(
                  summary["name"], summary["packets"],
                  summary["duration_s"], summary["utilization"],
              )
              + "  [streamed]")
    print(f"flows      : {len(result.accounting.flows)} "
          f"({spec.flows.kind}, timeout {spec.flows.timeout:g} s)")
    stats = result.estimation.statistics
    print(f"parameters : lambda = {stats.arrival_rate:.2f}/s   "
          f"E[S] = {stats.mean_size:.0f} B   "
          f"E[S^2/D] = {stats.mean_square_size_over_duration:.4g} B^2/s")
    print(f"CoV        : measured {report.measured_cov:.2%}   "
          f"model(b={report.fitted_power:.2f}) {report.fitted_cov:.2%}   "
          f"{'within' if report.within_band else 'OUTSIDE'} "
          f"+-{report.cov_band:.0%} band")
    print(f"capacity   : {report.required_capacity_bps / 1e6:.3f} Mbps for "
          f"P(congestion) <= {report.epsilon:g}")
    if report.generated_cov is not None:
        print(f"generated  : CoV {report.generated_cov:.2%} "
              f"({report.generated_vs_measured_error:+.1%} vs measured)")
    if report.superposed_cov is not None:
        print(f"superposed : CoV {report.superposed_cov:.2%} "
              "(multi-class mix)")
    if report.anomaly_delta_s is not None:
        if report.anomalies:
            for event in report.anomalies:
                print(f"anomaly    : {event.kind} at "
                      f"{event.start_time(report.anomaly_delta_s):.1f} s "
                      f"for {event.n_samples * report.anomaly_delta_s:.1f} s "
                      f"(peak z = {event.peak_z:+.1f})")
        else:
            print("anomaly    : none detected")


def _print_network(result) -> None:
    """Per-link utilisation, fitted model and provisioning verdicts."""
    report = result.network.report
    print(f"topology   : {report.n_routers} routers, {report.n_links} "
          f"directed links ({report.routing} routing)")
    print(f"demands    : {report.n_demands} OD pairs over "
          f"{report.duration:g} s")
    carrying = [entry for entry in report.links if entry.n_demands > 0]
    print(f"links      : {len(carrying)} carrying traffic")
    label_width = max(
        (len(f"{a}->{b}") for a, b in (e.link for e in carrying)),
        default=0,
    )
    for entry in carrying:
        a, b = entry.link
        cov = (
            f"{entry.measured_cov:.1%}"
            if not np.isnan(entry.measured_cov)
            else "n/a"
        )
        verdict = "OVERLOADED" if entry.overloaded else "ok"
        print(f"  {f'{a}->{b}':<{label_width}} {entry.packets:>9} pkts  "
              f"util {entry.utilization:6.1%}  CoV {cov:>6}  "
              f"b={entry.fitted_power:5.2f}  "
              f"need {entry.required_capacity_bps / 1e6:8.3f} Mbps  "
              f"[{verdict}]")
        for anomaly in entry.anomalies:
            print(f"    anomaly: {anomaly['kind']} at "
                  f"{anomaly['start_s']:.1f} s for "
                  f"{anomaly['duration_s']:.1f} s "
                  f"(peak z = {anomaly['peak_z']:+.1f})")
    if report.overloaded_links:
        names = ", ".join(
            f"{a}->{b}" for a, b in
            (entry.link for entry in report.overloaded_links)
        )
        print(f"verdict    : {len(report.overloaded_links)} link(s) "
              f"under-provisioned: {names}")
    else:
        print("verdict    : all links meet the epsilon target")


def _print_sweep(result) -> None:
    """The ranked sweep table and headroom per growth step."""
    report = result.sweep.report
    factors = ", ".join(f"x{factor:g}" for factor in report.demand_factors)
    print(f"axes       : demand {factors}; failures {report.failures}; "
          f"routing {', '.join(report.routing)}")
    print(f"band       : SLA {report.sla_utilization:g} x capacity, "
          f"+-{report.margin:.0%} analytic margin, "
          f"epsilon {report.epsilon:g}")
    print(report.table())
    for factor, headroom in report.headroom_per_factor().items():
        print(f"headroom   : x{factor:<5g} worst link at "
              f"{headroom:+.1%} SLA headroom")
    resumed = getattr(result.sweep.result, "resumed", ())
    if resumed:
        print(f"resumed    : {len(resumed)} cell(s) restored from "
              "checkpoints")


def _cmd_list_scenarios(args: argparse.Namespace) -> int:
    registry = default_registry()
    width = max(len(name) for name in registry.names())
    first = True
    for family, entries in registry.families().items():
        if not first:
            print()
        first = False
        print(f"{family} scenarios:")
        for name, description in entries:
            print(f"  {name:<{width}}  {description}")
    return 0


def _add_measure_arguments(parser: argparse.ArgumentParser) -> None:
    """The input and accounting flags of ``measure`` and ``generate``."""
    parser.add_argument(
        "file",
        help="input capture: a .rptr trace, or a NetFlow v5, IPFIX or "
        "pcap archive",
    )
    parser.add_argument(
        "--flow-kind", choices=["five_tuple", "prefix"], default="five_tuple"
    )
    parser.add_argument("--prefix-length", type=int, default=24)
    parser.add_argument(
        "--timeout", type=float, default=8.0,
        help="flow idle timeout in seconds, re-applied uniformly to "
        "imported records (paper: 60 s at full scale)",
    )
    parser.add_argument(
        "--delta", type=float, default=0.2,
        help="rate averaging interval in seconds (paper: 200 ms)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Poisson shot-noise backbone traffic model "
        "(Barakat et al., IMC 2002)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    execution = _execution_parent()

    run = sub.add_parser(
        "run", parents=[execution],
        help="run a scenario spec end-to-end (the pipeline API)",
    )
    run.add_argument(
        "spec",
        help="a scenario spec JSON file, or a registry name "
        "(see list-scenarios)",
    )
    run.add_argument(
        "--report", default=None,
        help="write the full pipeline report (spec + stage summaries + "
        "validation) to this JSON file",
    )
    run.add_argument(
        "--seed", type=int, default=None,
        help="override the spec's seed",
    )
    run.add_argument(
        "--ingest-path", default=None,
        help="telemetry file for real-trace-fit scenarios: points the "
        "spec's 'ingest' section at a NetFlow v5 / IPFIX / pcap / .rptr "
        "archive",
    )
    run.set_defaults(func=_cmd_run)

    net = sub.add_parser(
        "network", parents=[execution],
        help="simulate a whole backbone (topology + demands + routing)",
    )
    net.add_argument(
        "spec",
        help="a scenario spec JSON file with a 'network' section, or a "
        "network registry name (see list-scenarios)",
    )
    net.add_argument(
        "--report", default=None,
        help="write the network report (per-link models, provisioning "
        "verdicts, anomalies) to this JSON file",
    )
    net.add_argument(
        "--seed", type=int, default=None,
        help="override the spec's seed",
    )
    net.add_argument(
        "--checkpoint-dir", default=None,
        help="persist each simulated link's result to this directory "
        "once every link is measured and fitted; a run interrupted "
        "before then saves nothing and --resume restarts it from the "
        "beginning",
    )
    net.add_argument(
        "--resume", action="store_true",
        help="skip links already checkpointed in --checkpoint-dir and "
        "re-run only the remainder",
    )
    net.set_defaults(func=_cmd_run)

    swp = sub.add_parser(
        "sweep", parents=[execution],
        help="capacity sweep: growth x failures over a base network, "
        "closed-form pre-filter, marginal cells simulated",
    )
    swp.add_argument(
        "spec",
        help="a scenario spec JSON file with a 'sweep' section, or a "
        "sweep registry name (see list-scenarios)",
    )
    swp.add_argument(
        "--report", default=None,
        help="write the ranked sweep report (cells worst-first, worst "
        "link per failure, headroom per growth step) to this JSON file",
    )
    swp.add_argument(
        "--seed", type=int, default=None,
        help="override the spec's seed",
    )
    swp.add_argument(
        "--checkpoint-dir", default=None,
        help="persist each simulated cell's outcome to this directory as "
        "it completes (atomic writes + a manifest pinning the run), so "
        "an interrupted sweep can be resumed",
    )
    swp.add_argument(
        "--resume", action="store_true",
        help="skip cells already checkpointed in --checkpoint-dir and "
        "re-run only the remainder; the resulting report is "
        "bitwise-equal to an uninterrupted run",
    )
    swp.set_defaults(func=_cmd_run)

    lst = sub.add_parser(
        "list-scenarios",
        help="list the built-in scenario registry, grouped by family",
    )
    lst.set_defaults(func=_cmd_list_scenarios)

    syn = sub.add_parser(
        "synthesize", parents=[execution],
        help="generate a synthetic capture",
    )
    syn.add_argument("output", help="output trace file (.rptr)")
    syn.add_argument(
        "--preset", default="medium",
        help="low | medium | high, or a Table I row index 0-6",
    )
    syn.add_argument("--duration", type=float, default=120.0)
    syn.add_argument("--seed", type=int, default=0)
    syn.add_argument(
        "--scale", type=float, default=None,
        help="rate scale relative to the paper's OC-12 links "
        "(default 1/32; --scale 1 synthesizes the full-rate link — "
        "combine with --chunk so the capture streams to disk)",
    )
    syn.set_defaults(func=_cmd_synthesize)

    meas = sub.add_parser(
        "measure", aliases=["import"], parents=[execution],
        help="model a capture or operator telemetry (section VI)",
    )
    _add_measure_arguments(meas)
    meas.add_argument(
        "--format", choices=INGEST_FORMATS, default="auto",
        help="input format (default: sniff the file's magic bytes)",
    )
    meas.add_argument(
        "--order", choices=("auto", "start", "export"), default="auto",
        help="flow record ordering: 'start' streams records already "
        "sorted by start time, 'export' re-sorts the archive in memory "
        "(default: scan the archive and decide)",
    )
    meas.add_argument(
        "--rebase", choices=("auto", "always", "never"), default="auto",
        help="shift epoch timestamps so the capture starts at t=0 "
        "(default: rebase only when timestamps look like wall-clock)",
    )
    meas.add_argument(
        "--link-capacity", type=float, default=None,
        help="link capacity in bit/s for utilisation reporting "
        "(default: the .rptr header's; flow archives carry none)",
    )
    meas.add_argument(
        "--duration", type=float, default=None,
        help="capture duration in seconds (default: the archive's span)",
    )
    meas.add_argument(
        "--epsilon", type=float, default=0.01,
        help="target congestion probability for provisioning",
    )
    meas.add_argument(
        "--errors", choices=("strict", "skip"), default="strict",
        help="malformed telemetry records: 'strict' (default) fails "
        "loudly naming the byte offset, 'skip' drops and counts them "
        "(reported as 'records_skipped')",
    )
    meas.add_argument(
        "--report", default=None,
        help="write the full pipeline report (spec + stage summaries + "
        "validation) to this JSON file",
    )
    meas.set_defaults(func=_cmd_measure)

    cal = sub.add_parser(
        "calibrate", parents=[execution],
        help="fit the flow-size families to a telemetry archive or "
        "scenario and emit a runnable fitted spec",
    )
    cal.add_argument(
        "target",
        help="telemetry archive (NetFlow v5, IPFIX, pcap or .rptr), a "
        "spec file, or a registry scenario name",
    )
    cal.add_argument(
        "-o", "--output", default=None,
        help="write the fitted ScenarioSpec to this JSON file "
        "(runnable with 'repro run')",
    )
    cal.add_argument(
        "--report", default=None,
        help="write the full CalibrationReport (candidates, diagnostics, "
        "diurnal profile, closed-loop verdict) to this JSON file",
    )
    cal.add_argument(
        "--name", default=None,
        help="name for the emitted fitted spec (default: <target>-fitted)",
    )
    cal.add_argument(
        "--format", choices=INGEST_FORMATS, default="auto",
        help="archive wire format (default: sniff the magic bytes; "
        "ignored for scenario targets)",
    )
    cal.add_argument(
        "--families", default=None,
        help="comma-separated size families to fit (default: "
        f"{','.join(CALIBRATION_FAMILIES)})",
    )
    cal.add_argument(
        "--select", choices=SELECTION_CRITERIA, default=None,
        help="model-selection criterion (default: bic)",
    )
    cal.add_argument(
        "--restarts", type=int, default=None,
        help="EM random restarts per mixture threshold (default: 4)",
    )
    cal.add_argument(
        "--seed", type=int, default=None,
        help="seed for the EM restarts and the closed-loop synthesis "
        "(default: 0, or the scenario's seed)",
    )
    cal.add_argument(
        "--duration", type=float, default=None,
        help="capture duration in seconds (default: the archive's span)",
    )
    cal.add_argument(
        "--link-capacity", type=float, default=None,
        help="link capacity in bit/s recorded in the fitted spec "
        "(default: 2x the fitted mean rate)",
    )
    cal.add_argument(
        "--errors", choices=("strict", "skip"), default="strict",
        help="malformed telemetry records: fail loudly or drop+count",
    )
    cal.add_argument(
        "--validate", action="store_true",
        help="run the closed loop: synthesize from the fitted spec and "
        "compare lambda, E[S], utilisation moments and tail quantiles "
        "(failures exit with status 3)",
    )
    cal.add_argument(
        "--validate-duration", type=float, default=None,
        help="synthesis window for the closed loop in seconds "
        "(default: the calibrated duration)",
    )
    cal.set_defaults(func=_cmd_calibrate)

    exp = sub.add_parser(
        "export", parents=[execution],
        help="re-export a capture as NetFlow v5 / IPFIX / pcap",
    )
    exp.add_argument(
        "input", help="input archive (.rptr, NetFlow v5, IPFIX or pcap)"
    )
    exp.add_argument("output", help="output file")
    exp.add_argument(
        "--format", choices=("netflow5", "ipfix", "pcap"), required=True,
        help="output wire format",
    )
    exp.add_argument(
        "--input-format", choices=INGEST_FORMATS, default="auto",
        help="input format (default: sniff the file's magic bytes)",
    )
    exp.add_argument(
        "--rebase", choices=("auto", "always", "never"), default="auto",
        help="shift epoch timestamps to t=0 before exporting (NetFlow v5 "
        "First/Last are 32-bit milliseconds, so wall-clock inputs must "
        "be rebased for that format)",
    )
    exp.add_argument(
        "--timeout", type=float, default=8.0,
        help="flow idle timeout in seconds used to aggregate packets "
        "into exported flow records",
    )
    exp.add_argument(
        "--min-packets", type=int, default=1,
        help="smallest flow exported (zero-duration single-packet flows "
        "are always dropped: the model's S^2/D is undefined for them)",
    )
    exp.add_argument(
        "--errors", choices=("strict", "skip"), default="strict",
        help="malformed input records: 'strict' (default) fails loudly, "
        "'skip' drops and counts them",
    )
    exp.set_defaults(func=_cmd_export)

    gen = sub.add_parser(
        "generate", help="generate model-driven traffic (section VII-C)"
    )
    _add_measure_arguments(gen)
    gen.add_argument("output", help="output trace file (.rptr)")
    gen.add_argument("--duration", type=float, default=None)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--chunk", type=float, default=0.0,
        help="engine chunk window in seconds (bounds peak memory; "
        "0 = whole horizon at once)",
    )
    gen.set_defaults(func=_cmd_generate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        checkpoint_dir = getattr(args, "checkpoint_dir", None)
        if checkpoint_dir:
            print(
                f"interrupted — {checkpoint_dir} holds every sweep cell "
                "that finished (a network run saves its links only once "
                "all are measured); re-run with --resume to skip them",
                file=sys.stderr,
            )
        else:
            print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except ReproError as exc:
        # commands that need no message prefix (measure, generate) let
        # their errors land here; for the rest this is the backstop
        return _fail_for(exc)


if __name__ == "__main__":
    sys.exit(main())
