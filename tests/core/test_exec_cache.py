"""A design's execution cache: seeded by synthesis, private to its object.

The ``lower-microcode`` pass stores the execution plan and the microcode
that the allocate pass built for its compile check in
``Design._exec_cache``.  Verifying a freshly synthesized design then
rebuilds neither, and reports exactly what verifying the same design
rebuilt from its payload reports.  A copy made with
``dataclasses.replace`` starts with empty caches, so it is verified
against its own maps.
"""

import dataclasses

import pytest

from repro import api
from repro.core import verify as verify_module
from repro.ir import evaluate
from repro.problems import dp_system
from repro.space import SpaceMap

#: (family, interconnect, params): one small feasible job per family.
JOBS = [
    ("dp", "fig2", {"n": 5}),
    ("conv-backward", "linear-bidirectional", {"n": 6, "s": 3}),
    ("conv-forward", "linear-bidirectional", {"n": 6, "s": 3}),
    ("matmul", "fig2", {"n": 4}),
]
ENGINES = ("compiled", "vector", "native")
SEEDS = [1, 2]


def synthesized(family, interconnect, params):
    system = api.PROBLEM_BUILDERS[family][0]()
    design = api.synthesize(system, params,
                            api.resolve_interconnect(interconnect))
    return system, design


def verify(design, family, params, engine):
    return api.verify_design(design, api.input_factory(family, params),
                             engine=engine, seeds=SEEDS)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("job", JOBS, ids=[job[0] for job in JOBS])
def test_fresh_design_reuses_plan_and_microcode(job, engine, monkeypatch):
    family, interconnect, params = job
    _, design = synthesized(family, interconnect, params)

    def rebuilt(*args, **kwargs):
        raise AssertionError("synthesis already built this artifact")

    monkeypatch.setattr(verify_module, "compile_design", rebuilt)
    monkeypatch.setattr(verify_module, "build_execution_plan", rebuilt)
    monkeypatch.setattr(evaluate, "build_execution_plan", rebuilt)
    report = verify(design, family, params, engine)
    assert report.ok, report.failures


@pytest.mark.parametrize("job", JOBS, ids=[job[0] for job in JOBS])
def test_fresh_and_rebuilt_designs_verify_alike(job):
    family, interconnect, params = job
    system, design = synthesized(family, interconnect, params)
    rebuilt = api.Design.from_dict(design.to_dict(), system)
    assert "microcode" not in rebuilt._exec_cache
    for engine in ENGINES:
        fresh_report = verify(design, family, params, engine)
        rebuilt_report = verify(rebuilt, family, params, engine)
        assert fresh_report.ok and fresh_report.machine_stats is not None
        assert fresh_report == rebuilt_report, engine
    inputs = api.random_inputs(family, params, 7)
    fresh_machine = design._exec_cache["machine"].execute(inputs)
    rebuilt_machine = rebuilt._exec_cache["machine"].execute(inputs)
    assert fresh_machine.results == rebuilt_machine.results
    assert fresh_machine.stats == rebuilt_machine.stats


def test_replace_does_not_share_caches():
    """A copy with collapsed space maps must fail conflict-freedom, as a
    freshly built design with the same maps does on every engine."""
    params = {"n": 6}
    system = dp_system()
    design = api.synthesize(system, params, api.resolve_interconnect("fig2"))
    inputs = api.random_inputs("dp", params, 1)
    assert api.verify_design(design, inputs).ok
    zeroed = {name: SpaceMap(m.dims,
                             tuple((0,) * len(row) for row in m.matrix),
                             m.offset)
              for name, m in design.space_maps.items()}
    copy = dataclasses.replace(design, space_maps=zeroed)
    assert copy._exec_cache == {} and copy._points_cache == {}
    fresh = api.Design(system=system, params=design.params,
                       interconnect=design.interconnect,
                       schedules=design.schedules, space_maps=zeroed,
                       constraints=design.constraints)
    collision = "two computations share (time, cell)"
    for engine in ("compiled", "interpreted"):
        for candidate in (copy, fresh):
            report = api.verify_design(candidate, inputs, engine=engine)
            assert not report.ok
            assert any(collision in f for f in report.failures), engine


def test_caches_are_not_compared():
    params = {"n": 4}
    system = dp_system()
    design = api.synthesize(system, params, api.resolve_interconnect("fig2"))
    rebuilt = api.Design.from_dict(design.to_dict(), system)
    assert api.verify_design(design, api.random_inputs("dp", params, 1)).ok
    assert design._points_cache and not rebuilt._points_cache
    assert design == rebuilt
