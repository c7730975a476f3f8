"""Pass manager and the default pipeline: composition, ordering, tracing."""

import pytest

from repro.arrays.interconnect import resolve_interconnect
from repro.core.nonuniform import synthesize
from repro.core.options import SynthesisOptions
from repro.core.restructure import restructure
from repro.core.verify import verify_design
from repro.fuzz.cases import CaseDescriptor, build_inputs, build_spec
from repro.ir.statements import ComputeRule
from repro.obs import TRACER
from repro.problems import dp_spec, dp_system
from repro.rewrite import (
    PASS_REGISTRY,
    PassError,
    PassPipeline,
    PipelineState,
    available_passes,
    default_pipeline,
    make_pass,
    print_system,
    run_pipeline,
)

FIG1 = resolve_interconnect("fig1")
PARAMS = {"n": 5}
OPTS = SynthesisOptions()
FUSE_KEY = "rewrite.fuse-accumulator-kernels"
CSE_KEY = "rewrite.cross-chain-cse"

#: The spec repeats an argument, so restructuring duplicates a carrier
#: chain in both chain modules: the opt-in ``cse`` pass merges them.
DUP_CASE = CaseDescriptor(n=5, lo=1, hi=1, args=((1, (0, 0)), (1, (0, 0))),
                          body="min_plus", combine="min", pool=(2, -3, 5, 7))


def _cse_pipeline():
    return default_pipeline().with_pass(make_pass("cse"),
                                        after="fuse-accumulators")


def _traced_counters(source, params, pipeline=None) -> dict:
    TRACER.reset()
    TRACER.enabled = True
    try:
        run_pipeline(source, params, FIG1, OPTS, pipeline=pipeline)
        return TRACER.snapshot()["counters"]
    finally:
        TRACER.enabled = False
        TRACER.reset()


class TestRegistry:
    def test_default_pipeline_names_and_order(self):
        assert default_pipeline().names == (
            "decompose-chains", "fuse-accumulators", "schedule",
            "allocate", "lower-microcode")

    def test_cse_registered_but_opt_in(self):
        assert "cse" in PASS_REGISTRY
        assert "cse" not in default_pipeline().names

    def test_available_passes_flags_default_membership(self):
        rows = {name: in_default for name, _, in_default in available_passes()}
        assert rows["schedule"] is True
        assert rows["cse"] is False
        assert all(desc for _, desc, _ in available_passes())

    def test_make_pass_unknown_name(self):
        with pytest.raises(KeyError, match="unknown pass 'tile'"):
            make_pass("tile")


class TestComposition:
    def test_with_pass_before_and_after(self):
        pipe = default_pipeline()
        grown = pipe.with_pass(make_pass("cse"), after="fuse-accumulators")
        assert grown.names.index("cse") == \
            grown.names.index("fuse-accumulators") + 1
        grown = pipe.with_pass(make_pass("cse"), before="schedule")
        assert grown.names.index("cse") == grown.names.index("schedule") - 1
        assert pipe.names == default_pipeline().names  # original untouched

    def test_without_pass(self):
        pipe = default_pipeline().without_pass("fuse-accumulators")
        assert "fuse-accumulators" not in pipe.names

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PassPipeline([make_pass("schedule"), make_pass("schedule")])

    def test_unknown_anchor_rejected(self):
        with pytest.raises(ValueError, match="no pass named"):
            default_pipeline().with_pass(make_pass("cse"), after="tile")

    def test_print_ir_after_validated(self):
        with pytest.raises(ValueError, match="unknown passes"):
            default_pipeline(print_ir_after=("tile",))


class TestStateContract:
    def test_require_names_the_producer(self):
        state = PipelineState(params=PARAMS, interconnect=FIG1, options=OPTS)
        with pytest.raises(PassError, match="'schedule' pass"):
            state.require("schedules", "schedule")

    def test_misordered_pipeline_fails_fast(self):
        pipe = PassPipeline([make_pass("allocate")])
        state = PipelineState(params=PARAMS, interconnect=FIG1, options=OPTS,
                              system=dp_system())
        with pytest.raises(PassError, match="run the 'schedule' pass first"):
            pipe.run(state)

    def test_partial_pipeline_exposes_intermediate_state(self):
        pipe = PassPipeline([make_pass("decompose-chains"),
                             make_pass("schedule")])
        state = run_pipeline(dp_spec(), PARAMS, FIG1, OPTS, pipeline=pipe)
        assert state.system is not None
        assert state.schedules is not None
        assert state.design is None

    def test_synthesize_rejects_designless_pipeline(self):
        pipe = PassPipeline([make_pass("decompose-chains")])
        with pytest.raises(ValueError, match="lower-microcode"):
            synthesize(dp_spec(), PARAMS, FIG1, OPTS, pipeline=pipe)

    def test_run_pipeline_rejects_other_sources(self):
        with pytest.raises(TypeError, match="RecurrenceSystem"):
            run_pipeline(object(), PARAMS, FIG1, OPTS)


class TestTracing:
    def test_per_pass_spans_recorded(self):
        TRACER.reset()
        TRACER.enabled = True
        try:
            run_pipeline(dp_spec(), PARAMS, FIG1, OPTS)
            timers = TRACER.snapshot()["timers"]
        finally:
            TRACER.enabled = False
            TRACER.reset()
        for name in default_pipeline().names:
            assert f"pass.{name}" in timers, (name, sorted(timers))

    def test_print_ir_after_emits_through_callback(self):
        chunks = []
        pipe = default_pipeline(print_ir_after=("decompose-chains",),
                                emit=chunks.append)
        run_pipeline(dp_system(), PARAMS, FIG1, OPTS, pipeline=pipe)
        assert len(chunks) == 1
        assert "IR after pass decompose-chains" in chunks[0]
        assert "system @dp" in chunks[0]

    def test_fuse_counter_once_per_composite(self):
        system = restructure(dp_spec(), params=PARAMS)
        composites = sum(
            1 for module in system.modules.values()
            for eqn in module.equations.values() for rule in eqn.rules
            if isinstance(rule, ComputeRule)
            and rule.op.components is not None)
        assert composites > 0
        counters = _traced_counters(dp_spec(), PARAMS)
        assert counters[FUSE_KEY] == composites

    def test_cse_counter_charged_by_opt_in_pass(self):
        counters = _traced_counters(build_spec(DUP_CASE), {"n": DUP_CASE.n},
                                    _cse_pipeline())
        assert counters[CSE_KEY] >= 1

    def test_no_rewrite_counters_without_rewrites(self):
        # dp_system is canonic (no composites) and has no duplicate
        # equations, so neither rewrite matches anything.
        counters = _traced_counters(dp_system(), PARAMS, _cse_pipeline())
        assert FUSE_KEY not in counters
        assert CSE_KEY not in counters


class TestPrintSystem:
    def test_deterministic_and_names_everything(self):
        system = restructure(dp_spec(), params=PARAMS)
        text = print_system(system)
        assert text == print_system(system)
        for name, module in system.modules.items():
            assert f"module @{name} " in text
            for var in module.equations:
                assert f"equation @{var}" in text
        for out in system.outputs:
            assert f"output @{out.module}::{out.var} " in text

    def test_trivial_where_suppressed(self):
        text = print_system(dp_system())
        assert "where=TRUE" not in text
        assert "(gap>=1)" not in text


class TestCsePipeline:
    def test_cse_design_verifies_and_uses_fewer_cells(self):
        spec, params = build_spec(DUP_CASE), {"n": DUP_CASE.n}
        plain = synthesize(spec, params, FIG1, OPTS)
        merged = synthesize(spec, params, FIG1, OPTS,
                            pipeline=_cse_pipeline())
        report = verify_design(merged, build_inputs(DUP_CASE))
        assert report.ok, report.failures
        n_plain = sum(len(m.equations)
                      for m in plain.system.modules.values())
        n_merged = sum(len(m.equations)
                       for m in merged.system.modules.values())
        assert n_merged < n_plain
