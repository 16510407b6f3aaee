"""The unified ExecutionSpec: one chunk/workers surface for four sections.

``synthesis``/``measurement``/``network``/``sweep`` sections all store a
single ``execution: {chunk, workers}`` block, read through as
``section.chunk``/``section.workers``.  The flat per-section keys are
gone: in JSON they fail as unknown keys (the error lists ``execution``),
and the constructors do not accept them.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.exceptions import ParameterError
from repro.pipeline import (
    ExecutionSpec,
    MeasurementSpec,
    NetworkSpec,
    ScenarioSpec,
    SweepSpec,
    SynthesisSpec,
    default_registry,
)

#: (section name, spec class, extra ctor kwargs) for every section that
#: carries an ExecutionSpec — one table so new sections join the tests.
SECTIONS = [
    ("synthesis", SynthesisSpec, {}),
    ("measurement", MeasurementSpec, {}),
    (
        "network",
        NetworkSpec,
        {
            "topology": {"preset": "parallel-paths", "size": 2},
            "demands": ({"source": "src", "sink": "dst", "preset": "low"},),
        },
    ),
    ("sweep", SweepSpec, {}),
]


class TestExecutionSpec:
    def test_defaults(self):
        execution = ExecutionSpec()
        assert execution.chunk is None
        assert execution.workers == 1
        assert not execution.uses_engine

    def test_engine_engaged_by_either_knob(self):
        assert ExecutionSpec(chunk=100_000).uses_engine
        assert ExecutionSpec(workers=4).uses_engine

    def test_validation_is_section_qualified(self):
        with pytest.raises(ParameterError, match="execution.chunk"):
            ExecutionSpec(chunk=0)
        with pytest.raises(ParameterError, match="execution.workers"):
            ExecutionSpec(workers=0)


class TestCtorSugar:
    """The dataclass constructors take one ``execution`` spelling."""

    @pytest.mark.parametrize("section,cls,kwargs", SECTIONS)
    def test_aliases_read_through(self, section, cls, kwargs):
        spec = cls(execution=ExecutionSpec(chunk=7_000, workers=2), **kwargs)
        assert spec.chunk == 7_000
        assert spec.workers == 2
        assert spec.uses_engine

    @pytest.mark.parametrize("section,cls,kwargs", SECTIONS)
    def test_conflicting_spellings_rejected(self, section, cls, kwargs):
        with pytest.raises(TypeError, match="chunk"):
            cls(
                execution=ExecutionSpec(chunk=1_000, workers=1),
                chunk=2_000,
                **kwargs,
            )

    @pytest.mark.parametrize("section,cls,kwargs", SECTIONS)
    def test_validation_errors_name_the_section(self, section, cls, kwargs):
        for knob, bad in (("chunk", -1), ("workers", 0)):
            doc = _scenario_dict(section, {"execution": {knob: bad}})
            with pytest.raises(
                ParameterError,
                match=rf"spec\.{section}\.execution: execution\.{knob}",
            ):
                ScenarioSpec.from_dict(doc)

    @pytest.mark.parametrize("section,cls,kwargs", SECTIONS)
    def test_replace_round_trips(self, section, cls, kwargs):
        """``dataclasses.replace`` must survive the alias properties."""
        spec = cls(execution=ExecutionSpec(chunk=9_000, workers=2), **kwargs)
        assert dataclasses.replace(spec) == spec

    @pytest.mark.parametrize("section,cls,kwargs", SECTIONS)
    def test_with_execution(self, section, cls, kwargs):
        spec = cls(execution=ExecutionSpec(chunk=9_000, workers=2), **kwargs)
        bumped = spec.with_execution(workers=6)
        assert bumped.execution == ExecutionSpec(chunk=9_000, workers=6)
        replaced = spec.with_execution(ExecutionSpec(chunk=None, workers=1))
        assert replaced.execution == ExecutionSpec()


_NETWORK_BASE = {
    "topology": {"preset": "parallel-paths", "size": 2},
    "demands": [{"source": "src", "sink": "dst", "preset": "low"}],
}


def _scenario_dict(section: str, body: dict) -> dict:
    """A minimal scenario JSON document carrying one ``section`` body."""
    data = {"name": f"{section}-doc", "seed": 1}
    if section == "network":
        body = {**_NETWORK_BASE, **body}
    elif section == "sweep":
        data["network"] = dict(_NETWORK_BASE)
    data[section] = body
    return data


class TestJsonDecode:
    """The JSON layer: one nested spelling, strict rejection, round-trips."""

    @pytest.mark.parametrize("section,cls,kwargs", SECTIONS)
    def test_mixed_spellings_rejected(self, section, cls, kwargs):
        doc = _scenario_dict(
            section,
            {"chunk": 40_000, "execution": {"chunk": 40_000, "workers": 1}},
        )
        with pytest.raises(
            ParameterError, match=r"unknown key\(s\) \['chunk'\]"
        ) as err:
            ScenarioSpec.from_dict(doc)
        assert "'execution'" in str(err.value)  # the valid-key list

    @pytest.mark.parametrize("section,cls,kwargs", SECTIONS)
    def test_round_trip_identity(self, section, cls, kwargs):
        spec = ScenarioSpec.from_dict(
            _scenario_dict(
                section, {"execution": {"chunk": 40_000, "workers": 2}}
            )
        )
        assert getattr(spec, section).execution == ExecutionSpec(
            chunk=40_000, workers=2
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_registry_specs_round_trip(self):
        for spec in default_registry().specs():
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec
