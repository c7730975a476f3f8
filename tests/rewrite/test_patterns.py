"""Rewrites over RecurrenceSystem: kernel fusion, cross-chain CSE."""

from repro.core.cache import system_fingerprint
from repro.core.restructure import restructure
from repro.fuzz.cases import CaseDescriptor, build_inputs, build_spec
from repro.fuzz.oracle import evaluate
from repro.ir.evaluate import run_system
from repro.ir.statements import ComputeRule
from repro.problems import dp_spec
from repro.rewrite import cross_chain_cse, fuse_accumulator_kernels

PARAMS = {"n": 5}


def _restructured():
    return restructure(dp_spec(), params=PARAMS)


def _composites(system):
    return [rule.op for module in system.modules.values()
            for eqn in module.equations.values() for rule in eqn.rules
            if isinstance(rule, ComputeRule)
            and rule.op.components is not None]


def _eq_count(system):
    return sum(len(m.equations) for m in system.modules.values())


class TestDriver:
    """The ``(system, count)`` contract the rewrite passes rely on."""

    def test_no_match_returns_same_counts(self):
        system = _restructured()
        merged, count = cross_chain_cse(system)
        assert count == 0  # dp has no duplicated carrier chains
        assert merged is system

    def test_counts_returned_per_pattern(self):
        system = _restructured()
        n_composites = len(_composites(system))
        assert n_composites > 0
        _, count = fuse_accumulator_kernels(system)
        assert count == n_composites


class TestFuseAccumulatorKernels:
    def test_restructure_emits_unfused_composites(self):
        for op in _composites(_restructured()):
            assert op.int_kernel is None

    def test_fusion_attaches_kernels_and_fixpoints(self):
        original = _restructured()
        fused, count = fuse_accumulator_kernels(original)
        assert count > 0
        for op in _composites(fused):
            assert op.int_kernel is not None
        again, count = fuse_accumulator_kernels(fused)
        assert count == 0  # the rewrite extinguished its own match
        assert again is fused
        # The input is never mutated, and the fingerprint (hence every
        # cache key) does not see the kernel.
        for op in _composites(original):
            assert op.int_kernel is None
        assert system_fingerprint(fused) == system_fingerprint(original)

    def test_values_unchanged(self):
        plain = _restructured()
        fused, _ = fuse_accumulator_kernels(plain)
        inputs = {"c0": lambda i, j: 3 * i - j}
        assert run_system(fused, PARAMS, inputs) == \
            run_system(plain, PARAMS, inputs)


#: Both carriers replace coordinate 1 with identical offsets — the spec
#: repeats an argument, so restructuring duplicates the carrier pipeline
#: in both chain modules: the CSE material.
DUP_ARGS = ((1, (0, 0)), (1, (0, 0)))


def _dup_case():
    return CaseDescriptor(n=5, lo=1, hi=1, args=DUP_ARGS, body="min_plus",
                          combine="min", pool=(2, -3, 5, 7))


class TestCrossChainCSE:
    def test_merges_duplicated_carriers(self):
        desc = _dup_case()
        system = restructure(build_spec(desc), params={"n": desc.n})
        merged, count = cross_chain_cse(system)
        assert count >= 1
        assert _eq_count(merged) < _eq_count(system)
        # Every reference still resolves: RecurrenceSystem checks links
        # and outputs on construction, and no rule names a dropped var.
        for module in merged.modules.values():
            for eqn in module.equations.values():
                for rule in eqn.rules:
                    if isinstance(rule, ComputeRule):
                        assert all(ref.var in module.equations
                                   for ref in rule.operands)

    def test_merged_system_computes_the_same_results(self):
        desc = _dup_case()
        oracle = evaluate(desc)
        system = restructure(build_spec(desc), params={"n": desc.n})
        merged, _ = cross_chain_cse(system)
        results = run_system(merged, {"n": desc.n}, build_inputs(desc))
        assert results == oracle

    def test_no_false_merges_on_distinct_carriers(self):
        # dp's two chains carry *different* arguments; nothing may merge.
        system = _restructured()
        merged, count = cross_chain_cse(system)
        assert count == 0
        assert system_fingerprint(merged) == system_fingerprint(system)
