"""The global link constraints against their per-point oracle.

``reference_globals.py`` keeps the derivation that bound every domain
point and asked :meth:`Equation.select` which rule fires there.
:func:`~repro.core.globals.link_constraints` reads the same first-match
off the execution plan's vectorised :func:`~repro.ir.evaluate.select_rules`
and must produce the same constraints, in the same order, with the same
names, modules, point arrays (values and dtype) and gaps — on every
problem family after the default rewrite passes and after the opt-in
``cse``, and on the restructured system of every fuzz-corpus case.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.batch import PROBLEM_BUILDERS
from repro.core.globals import link_constraints
from repro.core.restructure import RestructureError, restructure
from repro.fuzz import load_corpus
from repro.fuzz.cases import build_spec
from repro.ir import (
    Equation,
    ExternalRef,
    InputRule,
    LinkRule,
    Module,
    Polyhedron,
    RecurrenceSystem,
)
from repro.ir.affine import var
from repro.ir.predicates import at_least
from repro.problems import dp_spec
from repro.rewrite.passes import PassPipeline
from repro.rewrite.pipeline import make_pass, run_pipeline

from .reference_globals import link_constraints as link_constraints_reference

CORPUS = load_corpus(Path(__file__).resolve().parent.parent / "corpus")
SOURCES = {name: builder for name, (builder, _) in PROBLEM_BUILDERS.items()}
SOURCES["dp-spec"] = dp_spec
PASSES = {"default": ("decompose-chains", "fuse-accumulators"),
          "cse": ("decompose-chains", "fuse-accumulators", "cse")}


def assert_same_constraints(system, params):
    expected = link_constraints_reference(system, params)
    got = link_constraints(system, params)
    assert [gc.name for gc in got] == [gc.name for gc in expected]
    assert [(gc.dst_module, gc.src_module) for gc in got] == \
        [(gc.dst_module, gc.src_module) for gc in expected]
    for new, old in zip(got, expected):
        for attr in ("dst_points", "src_points"):
            a, b = getattr(new, attr), getattr(old, attr)
            assert a.dtype == b.dtype, (new.name, attr)
            assert a.shape == b.shape, (new.name, attr)
            assert np.array_equal(a, b), (new.name, attr)
    assert [gc.min_gap for gc in got] == [gc.min_gap for gc in expected]
    return got


@pytest.mark.parametrize("passes", sorted(PASSES))
@pytest.mark.parametrize("n", [4, 8, 12])
@pytest.mark.parametrize("source", sorted(SOURCES))
def test_family_matches_reference(source, n, passes):
    params = {"n": n, "s": 3} if source.startswith("conv") else {"n": n}
    pipeline = PassPipeline([make_pass(name) for name in PASSES[passes]])
    state = run_pipeline(SOURCES[source](), params, None, None, pipeline)
    got = assert_same_constraints(state.system, params)
    if source.startswith("dp"):
        assert got


@pytest.mark.parametrize("artifact", CORPUS,
                         ids=[a["path"].stem for a in CORPUS])
def test_corpus_case_matches_reference(artifact):
    desc = artifact["descriptor"]
    params = {"n": desc.n}
    try:
        system = restructure(build_spec(desc), params=params)
    except RestructureError:
        pytest.skip("the restructurer rejects this case")
    assert_same_constraints(system, params)


def _linked_system(*dst_rules):
    i = var("i")
    domain = Polyhedron.box({"i": (1, 4)})
    src = Module("src", ("i",), domain,
                 [Equation("x", (InputRule("inp", (i,)),))])
    dst = Module("dst", ("i",), domain, [Equation("y", dst_rules)])
    return RecurrenceSystem("linked", [src, dst], outputs=[],
                            input_names=("inp",))


def test_unlabeled_rule_is_named_by_its_index():
    i = var("i")
    system = _linked_system(
        InputRule("inp", (i,), guard=at_least(1 - i, 0)),
        LinkRule(ExternalRef.of("src", "x", i - 1), min_gap=0))
    [gc] = assert_same_constraints(system, {})
    assert gc.name == "dst.y[1]"
    assert gc.dst_points.tolist() == [[2], [3], [4]]
    assert gc.src_points.tolist() == [[1], [2], [3]]


def test_uncovered_guard_raises_like_the_reference():
    """A defined point no rule guard covers is an error on both paths."""
    i = var("i")
    system = _linked_system(
        LinkRule(ExternalRef.of("src", "x", i), guard=at_least(i, 2)))
    with pytest.raises(ValueError, match="no rule guard holds"):
        link_constraints_reference(system, {})
    with pytest.raises(ValueError, match="no rule guard holds"):
        link_constraints(system, {})
