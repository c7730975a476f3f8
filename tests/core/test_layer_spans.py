"""Every step of a cold synthesize → verify runs inside a named span.

The allocate pass's lowering check, verification's compile step and the
schedule pass each split into child spans; the children must account for
at least 90% of the parent, so no step of the value-free machine build or
of rule selection hides in a parent's self time.
"""

import pytest

from repro.api import resolve_interconnect, synthesize, verify_design
from repro.obs import TRACER
from repro.problems import dp_system, matmul_system, random_inputs

BUILDERS = {"dp": dp_system, "matmul": matmul_system}


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)


def traced_spans(problem: str, interconnect: str, n: int) -> list:
    """Every span of one traced cold synthesis plus compiled
    verification."""
    was_enabled = TRACER.enabled
    TRACER.reset()
    TRACER.enable()
    try:
        params = {"n": n}
        design = synthesize(BUILDERS[problem](), params,
                            resolve_interconnect(interconnect))
        report = verify_design(design, random_inputs(problem, params, 1),
                               engine="compiled")
        assert report.ok
        return [span for root in TRACER.spans() for span in _walk(root)]
    finally:
        TRACER.enabled = was_enabled
        TRACER.reset()


def assert_covered(spans: list, name: str, children: set) -> None:
    parents = [span for span in spans if span.name == name]
    assert parents, f"no {name} span"
    for parent in parents:
        assert {child.name for child in parent.children} <= children
        covered = sum(child.duration for child in parent.children)
        assert covered >= 0.9 * parent.duration, (
            f"{name}: children cover {covered / parent.duration:.0%}")


@pytest.mark.parametrize("problem,interconnect",
                         [("matmul", "mesh"), ("dp", "fig2")])
def test_lowering_steps_are_spanned(problem, interconnect):
    spans = traced_spans(problem, interconnect, 8)
    assert_covered(spans, "space.lowering_check",
                   {"space.plan", "machine.compile.placement",
                    "machine.compile.injections",
                    "machine.compile.operations",
                    "machine.compile.routing"})
    assert_covered(spans, "verify.compile", {"verify.lower"})


def test_schedule_steps_are_spanned():
    spans = traced_spans("dp", "fig2", 16)
    assert_covered(spans, "pass.schedule",
                   {"schedule.deps", "schedule.constraints",
                    "synthesize.enumerate", "synthesize.schedule"})
