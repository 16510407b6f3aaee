"""Spans recorded from outside the program, around calls into its layers.

The benchmark never edits ``src/``: a traced operation wraps the public
functions and methods it wants to time (a pipeline ``Stage``,
``PoissonShotNoiseModel.autocorrelation``, ``calibrate_accumulator``,
``NetworkEngine.simulate``) for the duration of one operation and puts
the originals back afterwards.  Each span accumulates wall seconds under
its name; a span re-entered while it is open (a wrapped function that
calls itself) is counted once.
"""

from __future__ import annotations

import functools
import time
from contextlib import ExitStack, contextmanager


class Tracer:
    """Accumulated wall seconds per span name, for one operation."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self._open: set[str] = set()
        self._patches = ExitStack()

    @contextmanager
    def span(self, name: str):
        if name in self._open:
            yield
            return
        self._open.add(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._open.discard(name)
            self.seconds[name] = (
                self.seconds.get(name, 0.0) + time.perf_counter() - t0
            )

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside the span ``name`` and return its result."""
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Time every call to ``owner.attr`` until :meth:`close`.

        ``owner`` is a class (the wrapper becomes a method) or a module
        (the wrapper replaces a global that other functions look up at
        call time).
        """
        had_own = attr in vars(owner)
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)

        def restore() -> None:
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

        self._patches.callback(restore)

    def close(self) -> None:
        """Put back every wrapped attribute."""
        self._patches.close()


class TimedStage:
    """A pipeline ``Stage`` whose ``run`` is timed as ``pipeline.<name>_s``."""

    def __init__(self, stage, tracer: Tracer) -> None:
        self.name = stage.name
        self._stage = stage
        self._tracer = tracer

    def run(self, context):
        return self._tracer.timed(
            f"pipeline.{self.name}_s", self._stage.run, context
        )


def timed_stages(stages, tracer: Tracer | None) -> tuple:
    """``stages`` as given, or each one wrapped in a :class:`TimedStage`."""
    if tracer is None:
        return tuple(stages)
    return tuple(TimedStage(stage, tracer) for stage in stages)
