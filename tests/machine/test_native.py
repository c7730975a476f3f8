"""The native C-kernel engine: artifact cache discipline (warm runs skip
codegen *and* the compiler, negative entries, key hygiene), the fallback
ladder (no toolchain / unsupported op / non-integer inputs / overflow),
and the ``lower-native`` pass.  Cross-engine value and event-stream
equivalence lives in the four-engine matrix of ``test_vector.py``."""

import warnings
from fractions import Fraction

import pytest

from repro.arrays import FIG1_UNIDIRECTIONAL
from repro.codegen import (
    CKernelSource,
    DISABLE_ENV_VAR,
    Toolchain,
    emit_kernel,
    find_toolchain,
    kernel_key,
    load_or_build,
    native_available,
)
from repro.core import synthesize
from repro.core.verify import design_token, verify_design
from repro.ir import trace_execution
from repro.machine import compile_design, lower_vector, nativize, run
from repro.obs import TRACER
from repro.problems import dp_inputs, dp_system, input_factory
from repro.rewrite.pipeline import (
    DEFAULT_PASS_NAMES,
    PassPipeline,
    available_passes,
    make_pass,
    run_pipeline,
)
from repro.core.options import SynthesisOptions

requires_cc = pytest.mark.skipif(
    not native_available(), reason="no C toolchain on this machine")


def dp_program(n=8):
    """A lowered vector program plus its compiled machine for DP size n."""
    design = synthesize(dp_system(), {"n": n}, FIG1_UNIDIRECTIONAL)
    inputs = input_factory("dp", design.params)(0)
    trace = trace_execution(design.system, design.params, inputs)
    mc = compile_design(trace, design.schedules, design.space_maps,
                        design.interconnect.decomposer())
    vm = lower_vector(mc, trace)
    return design, vm, inputs


def counter(name):
    return TRACER.counters.get(name, 0)


@pytest.fixture
def no_native(monkeypatch):
    """Force-disable the toolchain for one test, then re-probe."""
    monkeypatch.setenv(DISABLE_ENV_VAR, "1")
    assert find_toolchain(refresh=True) is None
    yield
    monkeypatch.delenv(DISABLE_ENV_VAR, raising=False)
    find_toolchain(refresh=True)


class TestKernelKey:
    def test_stable_and_toolchain_sensitive(self):
        tc_a = Toolchain(cc="/usr/bin/cc", fingerprint="cc|gcc 12")
        tc_b = Toolchain(cc="/usr/bin/cc", fingerprint="cc|gcc 13")
        assert kernel_key("material", tc_a) == kernel_key("material", tc_a)
        assert kernel_key("material", tc_a) != kernel_key("material", tc_b)
        assert kernel_key("other", tc_a) != kernel_key("material", tc_a)

    def test_design_token_is_canonical_json(self, dp_design_fig1):
        import json

        token = design_token(dp_design_fig1)
        data = json.loads(token)
        assert set(data) == {"system", "design"}
        # Stable across calls on equal designs (it keys the artifact cache).
        assert token == design_token(dp_design_fig1)


@requires_cc
class TestArtifactCache:
    def test_warm_design_keyed_hit_skips_emit_and_cc(self, tmp_path):
        _, vm, _ = dp_program()
        calls = []

        def provider():
            calls.append(1)
            return emit_kernel(vm.program)

        cold_compiles = counter("native.compiles")
        kernel, reason = load_or_build(provider, key_material="tok-a",
                                       cache_dir=tmp_path)
        assert reason is None and kernel is not None
        assert len(calls) == 1
        assert counter("native.compiles") == cold_compiles + 1

        hits = counter("native.cache_hits")
        again, reason = load_or_build(provider, key_material="tok-a",
                                      cache_dir=tmp_path)
        assert reason is None and again is not None
        assert len(calls) == 1          # codegen skipped entirely
        assert counter("native.compiles") == cold_compiles + 1  # cc skipped
        assert counter("native.cache_hits") == hits + 1

    def test_source_keyed_hit_skips_cc_only(self, tmp_path):
        _, vm, _ = dp_program()
        calls = []

        def provider():
            calls.append(1)
            return emit_kernel(vm.program)

        compiles = counter("native.compiles")
        first, _ = load_or_build(provider, cache_dir=tmp_path)
        second, _ = load_or_build(provider, cache_dir=tmp_path)
        assert first is not None and second is not None
        assert len(calls) == 2          # emit reruns without a token...
        assert counter("native.compiles") == compiles + 1   # ...cc does not

    def test_compile_failure_is_negative_cached(self, tmp_path):
        bad = CKernelSource(text="this is not C\n", node_count=1)
        calls = []

        def provider():
            calls.append(1)
            return bad

        stores = counter("native.negative_stores")
        kernel, reason = load_or_build(provider, key_material="bad-tok",
                                       cache_dir=tmp_path)
        assert kernel is None and "cc exited" in reason
        assert counter("native.negative_stores") == stores + 1

        neg = counter("native.negative_hits")
        kernel, reason = load_or_build(provider, key_material="bad-tok",
                                       cache_dir=tmp_path)
        assert kernel is None and "cc exited" in reason
        assert len(calls) == 1          # cc ran once per key, not per call
        assert counter("native.negative_hits") == neg + 1

    def test_layout_mismatch_rebuilds(self, tmp_path):
        """A cached artifact recorded for another value-slot count (built
        by a lowering with another id layout) is rebuilt, not loaded: the
        kernel hard-codes slot indices."""
        import json

        _, vm, _ = dp_program()
        nodes = vm.program.node_count
        kernel, _ = load_or_build(lambda: emit_kernel(vm.program),
                                  key_material="tok-layout",
                                  cache_dir=tmp_path, node_count=nodes)
        assert kernel is not None
        (meta_path,) = tmp_path.glob("*.json")
        meta = json.loads(meta_path.read_text())
        meta["node_count"] = nodes + 7
        meta_path.write_text(json.dumps(meta))

        compiles = counter("native.compiles")
        hits = counter("native.cache_hits")
        kernel, reason = load_or_build(lambda: emit_kernel(vm.program),
                                       key_material="tok-layout",
                                       cache_dir=tmp_path, node_count=nodes)
        assert reason is None and kernel.node_count == nodes
        assert counter("native.compiles") == compiles + 1
        assert counter("native.cache_hits") == hits
        assert json.loads(meta_path.read_text())["node_count"] == nodes
        # The rebuilt artifact is a plain hit again.
        again, _ = load_or_build(lambda: emit_kernel(vm.program),
                                 key_material="tok-layout",
                                 cache_dir=tmp_path, node_count=nodes)
        assert again is not None
        assert counter("native.compiles") == compiles + 1

    def test_artifacts_on_disk(self, tmp_path):
        _, vm, _ = dp_program()
        kernel, _ = load_or_build(lambda: emit_kernel(vm.program),
                                  key_material="tok-disk",
                                  cache_dir=tmp_path)
        assert kernel is not None
        sos = list(tmp_path.glob("*.so"))
        assert len(sos) == 1 and kernel.path == sos[0]
        assert len(list(tmp_path.glob("*.c"))) == 1
        assert len(list(tmp_path.glob("*.json"))) == 1


class TestFallbackLadder:
    def test_no_toolchain_degrades_to_vector(self, no_native,
                                             dp_host_inputs):
        design = synthesize(dp_system(), {"n": 8}, FIG1_UNIDIRECTIONAL)
        trace = trace_execution(design.system, design.params,
                                dp_host_inputs)
        mc = compile_design(trace, design.schedules, design.space_maps,
                            design.interconnect.decomposer())
        nm = nativize(lower_vector(mc, trace).compiled)
        assert nm.kernel is None
        assert "toolchain" in nm.fallback_reason
        oracle = run(mc, trace, dp_host_inputs, engine="interpreted")
        fallbacks = counter("native.vector_fallbacks")
        got = run(mc, trace, dp_host_inputs, engine="native")
        assert got.results == oracle.results
        assert got.values == oracle.values
        assert counter("native.vector_fallbacks") > fallbacks

    @requires_cc
    def test_fraction_inputs_take_object_path(self):
        design, vm, _ = dp_program()
        inputs = dp_inputs([Fraction(1, k + 2) for k in range(7)])
        trace = trace_execution(design.system, design.params, inputs)
        mc = compile_design(trace, design.schedules, design.space_maps,
                            design.interconnect.decomposer())
        oracle = run(mc, trace, inputs, engine="interpreted")
        before = counter("native.input_fallbacks")
        with warnings.catch_warnings():
            # The one-time int64 fallback warning may or may not have fired
            # earlier in the session; keep this test order-independent.
            warnings.simplefilter("ignore", RuntimeWarning)
            got = run(mc, trace, inputs, engine="native")
        assert got.results == oracle.results
        assert all(isinstance(v, Fraction) for v in got.results.values())
        assert counter("native.input_fallbacks") == before + 1

    @requires_cc
    def test_kernel_overflow_reruns_object_path_exactly(self):
        design = synthesize(dp_system(), {"n": 8}, FIG1_UNIDIRECTIONAL)
        inputs = dp_inputs([2**62] * 7)     # fits int64, sums overflow
        trace = trace_execution(design.system, design.params, inputs)
        mc = compile_design(trace, design.schedules, design.space_maps,
                            design.interconnect.decomposer())
        oracle = run(mc, trace, inputs, engine="interpreted")
        before = counter("native.overflow_fallbacks")
        got = run(mc, trace, inputs, engine="native")
        assert got.results == oracle.results
        assert any(v > 2**63 for v in got.results.values())
        assert counter("native.overflow_fallbacks") == before + 1

    def test_unsupported_op_stays_on_vector_engine(self):
        from repro.ir import lower_plan
        from repro.ir.evaluate import build_execution_plan
        from repro.ir import (ComputeRule, Equation, InputRule, Module,
                              OutputSpec, Polyhedron, RecurrenceSystem,
                              Ref, make_op)
        from repro.ir.affine import var
        from repro.ir.predicates import at_least

        i = var("i")
        odd = make_op("odd", 2, lambda a, b: a ^ b)
        domain = Polyhedron.box({"i": (1, 6)})
        eqn = Equation("x", (
            InputRule("seed", (i,), guard=at_least(2 - i, 0)),
            ComputeRule(odd, (Ref.of("x", i - 1), Ref.of("x", i - 2)),
                        guard=at_least(i, 3)),
        ))
        system = RecurrenceSystem(
            "xorfib", [Module("xorfib", ("i",), domain, [eqn])],
            outputs=[OutputSpec("xorfib", "x", domain, (i,))],
            input_names=("seed",))
        plan = build_execution_plan(system, {})
        program = lower_plan(plan)
        assert not program.int_ok
        from repro.codegen import UnsupportedForNative
        with pytest.raises(UnsupportedForNative):
            emit_kernel(program)


class TestVerifyDesign:
    @requires_cc
    def test_native_verify_batched_and_warm(self):
        design = synthesize(dp_system(), {"n": 8}, FIG1_UNIDIRECTIONAL)
        factory = input_factory("dp", design.params)
        report = verify_design(design, factory, engine="native",
                               seeds=range(4))
        assert report.ok and report.seeds_checked == 4

        # A *fresh* design object with the same identity must warm-hit the
        # artifact cache via its design token: no new compile.
        compiles = counter("native.compiles")
        hits = counter("native.cache_hits")
        fresh = synthesize(dp_system(), {"n": 8}, FIG1_UNIDIRECTIONAL)
        again = verify_design(fresh, factory(0), engine="native")
        assert again.ok
        assert counter("native.compiles") == compiles
        assert counter("native.cache_hits") == hits + 1

    def test_native_verify_without_toolchain(self, no_native):
        design = synthesize(dp_system(), {"n": 6}, FIG1_UNIDIRECTIONAL)
        factory = input_factory("dp", design.params)
        report = verify_design(design, factory(0), engine="native")
        assert report.ok, report.failures


class TestLowerNativePass:
    def test_registered_but_not_default(self):
        table = {name: default for name, _, default in available_passes()}
        assert table["lower-native"] is False
        assert "lower-native" not in DEFAULT_PASS_NAMES

    def test_pass_primes_the_verify_slot(self):
        pipeline = PassPipeline(
            [make_pass(n)
             for n in DEFAULT_PASS_NAMES + ("lower-native",)])
        state = run_pipeline(dp_system(), {"n": 6}, FIG1_UNIDIRECTIONAL,
                             SynthesisOptions(), pipeline)
        design = state.design
        nm = design._exec_cache.get("nmachine")
        assert nm is not None
        if native_available():
            assert nm.kernel is not None, nm.fallback_reason
        report = verify_design(design,
                               input_factory("dp", design.params)(0),
                               engine="native")
        assert report.ok, report.failures

    def test_pass_reuses_the_synthesized_plan(self, monkeypatch):
        """The plan and microcode from synthesis lower the machine; neither
        is built again."""
        from repro.core import verify as verify_module
        from repro.ir import evaluate

        state = run_pipeline(dp_system(), {"n": 6}, FIG1_UNIDIRECTIONAL,
                             SynthesisOptions())

        def rebuilt(*args, **kwargs):
            raise AssertionError("synthesis already built this artifact")

        monkeypatch.setattr(evaluate, "build_execution_plan", rebuilt)
        monkeypatch.setattr(verify_module, "compile_design", rebuilt)
        make_pass("lower-native").run(state)
        assert state.design._exec_cache.get("nmachine") is not None


@requires_cc
class TestGeneratedSource:
    def test_kernel_shape(self):
        _, vm, _ = dp_program()
        source = emit_kernel(vm.program)
        assert "int repro_kernel(i64 *v, long rows, long stride)" \
            in source.text
        assert "__builtin_add_overflow" in source.text
        assert source.node_count == vm.program.node_count
        # Gather stays in Python: no input-group loops are emitted.
        assert "#error" in source.text   # non-GCC/Clang guard present

    def test_emission_is_deterministic(self):
        _, vm, _ = dp_program()
        assert emit_kernel(vm.program).text == emit_kernel(vm.program).text
