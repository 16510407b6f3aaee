"""End-to-end and per-layer benchmark of the repro pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload link-fullrate --seed 0 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for why each was chosen):

* ``link-fullrate`` -- one operation is ``run_scenario`` on Table I row 6
  at scale 1.0 (the paper's 72 Mbps OC-12 link, 120 s), synthesis and
  measurement streamed in 200k-packet chunks, the full default chain.
* ``sweep-abilene`` -- one operation is ``run_scenario`` on the registry
  sweep ``abilene-single-failure-2x`` (45 cells).
* ``telemetry-roundtrip`` -- set-up synthesises a seeded ``medium`` link
  (scale 1.0, 240 s); one operation writes its flows as NetFlow v5 and
  IPFIX and calibrates each archive back with ``calibrate_archive``.

Everything runs in this process with ``workers=1``.  ``setup_s`` is the
median of three import timings (this process plus two fresh
interpreters) plus the median of three seeded input builds; operations
are timed after it, for ``--seconds`` seconds, and every operation's
output is checked.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced operations and prints the
per-layer metrics, including the tracing overhead.  ``--size small``
shrinks every input for the benchmark's own tests.

Timings are reported at a nominal host speed.  On a shared host the
speed of one CPU drifts by up to half within minutes, which no number
of repetitions inside one run averages out.  So a fixed NumPy reference
kernel, which shares no code with the program, runs before and after
every operation (and three times after set-up), and each wall or CPU
time is scaled by ``REFERENCE_S`` over the kernel's mean time around
it.  A change to the program moves the scaled times as it moves the raw
ones; a change in host speed moves both the times and the kernel and
cancels.  The raw wall times and kernel times are printed too.  Per-layer
times are raw.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names
and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracing import Tracer

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("link-fullrate", "sweep-abilene", "telemetry-roundtrip")

#: Set-up (imports, then seeded inputs) is repeated this often; the
#: median is reported.
SETUP_REPEATS = 3
#: Operations (pairs of operations when traced) timed at the least,
#: however long they take.
MIN_OPS = 3
MIN_TRACED_PAIRS = 2
#: No operation starts once the run would pass this many seconds.
HARD_LIMIT_S = 140.0
#: Seconds the reference kernel takes on the nominal host.
REFERENCE_S = 0.2

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import workloads; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    return parser.parse_args(argv)


def child_import_s(src: Path) -> float:
    """Import time of the benchmark's modules in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(HERE)])
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def reference_kernel() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed NumPy job: fresh allocations, a
    sort, a scan and a stable argsort, like the program's own mix."""
    import numpy as np

    t0, c0 = time.perf_counter(), time.process_time()
    for k in range(4):
        values = np.random.default_rng(k).random(1_000_000)
        np.cumsum(np.sort(values))
        np.argsort(values[:200_000], kind="stable")
    return time.perf_counter() - t0, time.process_time() - c0


def shm_segments(prefix: str) -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith(prefix)}
    except FileNotFoundError:
        return set()


def host_record(backend: str) -> dict:
    import numpy  # not at the top: the import timing of set-up covers it

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": backend,
        "numba": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


class Run:
    """One benchmark run: set-up, timed operations, checks, metrics."""

    def __init__(self, args, workload, per_layer: list[str]) -> None:
        from repro.execution import (
            reset_run_health,
            reset_stage_timings,
            run_health,
            stage_timings,
        )

        self._reset = (reset_stage_timings, reset_run_health)
        self._run_health = run_health
        self._stage_timings = stage_timings
        self.args = args
        self.workload = workload
        self.per_layer = per_layer
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.digests: set[str] = set()
        #: Raw wall seconds of every timed operation, and the reference
        #: kernel's mean wall seconds around it.
        self.walls: list[float] = []
        self.gauges: list[float] = []
        self._gauge = None  # the latest (wall, cpu) of the kernel

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def setup(self, import_s: float) -> float:
        """Build the inputs; return the scaled set-up seconds."""
        builds, digests = [], set()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            digests.add(self.workload.prepare(self.args.seed))
            builds.append(time.perf_counter() - t0)
        self.check("inputs_deterministic", len(digests) == 1)
        gauges = [reference_kernel() for _ in range(SETUP_REPEATS)]
        self._gauge = gauges[-1]
        gauge = statistics.median(wall for wall, _ in gauges)
        return (import_s + statistics.median(builds)) * REFERENCE_S / gauge

    def one(self, traced: bool):
        """Time one operation; return ``(wall, cpu, outcome, layer)``
        with ``wall`` and ``cpu`` scaled to the nominal host."""
        for reset in self._reset:
            reset()
        tracer = Tracer() if traced else None
        self.attempted += 1
        before = self._gauge or reference_kernel()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            try:
                raw = self.workload.operation(tracer)
            finally:
                wall = time.perf_counter() - t0
                cpu = time.process_time() - c0
                self._gauge = after = reference_kernel()
                if tracer is not None:
                    tracer.close()
                self.walls.append(wall)
                self.gauges.append((before[0] + after[0]) / 2)
                wall *= REFERENCE_S / self.gauges[-1]
                cpu *= 2 * REFERENCE_S / (before[1] + after[1])
            outcome = self.workload.inspect(raw, tracer)
            layer = self.layer(outcome, tracer) if traced else None
        except Exception:
            traceback.print_exc()
            self.failed += 1
            self.check("operations_completed", False)
            return wall, cpu, None, None
        for name, ok in outcome.checks.items():
            self.check(name, ok)
        self.digests.add(outcome.digest)
        self.check("same_digest_every_operation", len(self.digests) == 1)
        if not all(outcome.checks.values()):
            self.failed += 1
        return wall, cpu, outcome, layer

    def layer(self, outcome, tracer) -> dict[str, float]:
        """Per-layer numbers of one traced operation."""
        health = self._run_health()
        values = dict(tracer.seconds)
        values.update(
            (f"{label}_s", seconds)
            for label, seconds in self._stage_timings().items()
        )
        values.update(outcome.layer)
        values.update(
            flows=outcome.flows,
            packets=outcome.packets,
            discarded_packets=outcome.discarded_packets,
            retries=len(health.retries),
            degradations=len(health.degradations),
        )
        return {name: values.get(name, 0) for name in self.per_layer}

    def loop(self, step, minimum: int) -> list:
        """Repeat ``step`` until ``--seconds`` is spent (``minimum`` times
        at the least); an iteration that would overrun is not started."""
        results, spent = [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            results.append(step())
            spent.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            expected = elapsed + statistics.median(spent)
            if expected > HARD_LIMIT_S or (
                len(results) >= minimum and expected > self.args.seconds
            ):
                return results

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        ops = self.loop(lambda: self.one(traced=False), MIN_OPS)
        op_s = statistics.median(wall for wall, _, _, _ in ops)
        done = [outcome for _, _, outcome, _ in ops if outcome is not None]
        counts = done[0] if done else None
        return {
            "setup_s": setup_s,
            "op_s_p50": op_s,
            "cpu_s_p50": statistics.median(cpu for _, cpu, _, _ in ops),
            "packets_per_s": (counts.packets if counts else 0) / op_s,
            "cells_per_s": (counts.cells if counts else 0) / op_s,
            "records_per_s": (counts.flows if counts else 0) / op_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }

    def traced(self) -> dict[str, float]:
        pairs = self.loop(
            lambda: (self.one(traced=False), self.one(traced=True)),
            MIN_TRACED_PAIRS,
        )
        plain = [wall for (wall, _, _, _), _ in pairs]
        traced = [wall for _, (wall, _, _, _) in pairs]
        layers = [layer for _, (_, _, _, layer) in pairs if layer]
        metrics = {
            name: statistics.median(layer[name] for layer in layers)
            if layers
            else 0
            for name in self.per_layer
        }
        metrics["error_rate"] = self.failed / self.attempted
        metrics["tracing_overhead_s"] = statistics.median(
            traced
        ) - statistics.median(plain)
        return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources under {src}; run from the "
            "repository root",
            file=sys.stderr,
        )
        return 2
    try:
        manifest = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in manifest[section]}

    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import workloads

    imports = [time.perf_counter() - t0]
    imports += [child_import_s(src) for _ in range(SETUP_REPEATS - 1)]
    from repro.execution import SHM_PREFIX

    shm_before = shm_segments(SHM_PREFIX)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    workload = workloads.WORKLOADS[args.workload](args.size, workdir)
    run = Run(args, workload, list(units))
    try:
        setup_s = run.setup(statistics.median(imports))
        metrics = run.traced() if args.trace else run.end_to_end(setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    leftovers = {
        "no_child_processes": not multiprocessing.active_children(),
        "no_shm_segments": not (shm_segments(SHM_PREFIX) - shm_before),
        "temp_dir_removed": not os.path.exists(workdir),
    }
    for name, ok in leftovers.items():
        run.check(name, ok)

    print(
        f"# workload {workload.name} (seed {args.seed}, size {args.size}): "
        f"{workload.why}"
    )
    print("# host " + json.dumps(host_record(workload.backend)))
    print("# checks " + json.dumps(run.checks, sort_keys=True))
    print("# raw_op_s " + json.dumps(run.walls))
    print("# reference_kernel_s " + json.dumps(run.gauges))
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:>16.6f} {unit}")
    result = {
        "correct": run.failed == 0 and all(run.checks.values()),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if all(leftovers.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
