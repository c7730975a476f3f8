"""Rewrites over :class:`~repro.ir.program.RecurrenceSystem`.

Each rewrite is a plain function ``system -> (system, count)``: ``count``
is the number of rewrites made, also charged to the span tracer as the
``rewrite.<name>`` counter.  A call that matches nothing returns its input
object unchanged.  Rules and equations are frozen dataclasses, so a
rewrite rebuilds them with :func:`dataclasses.replace` and never mutates
its input.

* :func:`fuse_accumulator_kernels` — attaches the composed exact int64
  kernel to accumulator composites built by
  :func:`repro.ir.ops.compose_accumulate`.  It changes only the vector
  engine's fast-path eligibility, never values or event streams.
* :func:`cross_chain_cse` — merges structurally identical equations within
  each module (duplicated carrier chains arise whenever a spec repeats an
  argument) and redirects every local, cross-module and output reference
  to the surviving variable.  This genuinely changes the synthesized
  design (fewer values, fewer links), so it is opt-in, not part of the
  default pipeline.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Mapping

from repro.ir.program import Module, RecurrenceSystem
from repro.ir.statements import ComputeRule, Equation, LinkRule
from repro.ir.vector import fused_int_kernel
from repro.obs import TRACER


def _rebuild(system: RecurrenceSystem,
             equations: Mapping[str, list[Equation]],
             outputs=None) -> RecurrenceSystem:
    """``system`` with each module's equations (and optionally the
    outputs) replaced."""
    modules = [Module(m.name, m.dims, m.domain, equations[m.name])
               for m in system.modules.values()]
    return RecurrenceSystem(
        system.name, modules,
        system.outputs if outputs is None else outputs,
        input_names=system.input_names, params=system.params)


def _map_rules(system: RecurrenceSystem,
               fn: Callable[[object, str], object]) -> dict[str, list]:
    """Every module's equations with ``fn(rule, module)`` applied to each
    rule."""
    return {name: [replace(eqn, rules=tuple(fn(rule, name)
                                            for rule in eqn.rules))
                   for eqn in module.equations.values()]
            for name, module in system.modules.items()}


def fuse_accumulator_kernels(system: RecurrenceSystem
                             ) -> tuple[RecurrenceSystem, int]:
    """Attach the composed exact int64 kernel to accumulator composites.

    Matches compute rules whose :class:`~repro.ir.ops.Op` records
    ``components=(h, f)`` but carries no ``int_kernel`` yet, and for which
    :func:`~repro.ir.vector.fused_int_kernel` can derive an exact kernel
    (both components stock).  Custom components stay on the object path.
    Returns the rewritten system and the number of rules fused.
    """
    count = 0

    def fuse(rule, _module):
        nonlocal count
        if not isinstance(rule, ComputeRule):
            return rule
        body = rule.op
        if body.components is None or body.int_kernel is not None:
            return rule
        kernel = fused_int_kernel(*body.components)
        if kernel is None:
            return rule
        count += 1
        return replace(rule, op=replace(body, int_kernel=kernel))

    equations = _map_rules(system, fuse)
    if not count:
        return system, 0
    TRACER.count("rewrite.fuse-accumulator-kernels", count)
    return _rebuild(system, equations), count


def cross_chain_cse(system: RecurrenceSystem
                    ) -> tuple[RecurrenceSystem, int]:
    """Merge structurally identical equations within each module.

    Two equations of one module are common subexpressions when their rule
    lists and ``where`` predicates are equal modulo their own names — for
    a restructured system this happens exactly when the spec repeats an
    argument, duplicating a carrier pipeline in *both* chain modules.  The
    first (in declaration order) survives; every local reference,
    cross-module link and output naming a dropped variable is redirected
    to the survivor.  Merging can make further equations identical, so
    rounds repeat until none merges; the count is the number of rounds
    that merged something.
    """
    rounds = 0
    while True:
        renames: dict[tuple[str, str], str] = {}
        for name, module in system.modules.items():
            seen: dict[tuple, str] = {}
            for var, eqn in module.equations.items():
                survivor = seen.setdefault(_alpha_key(eqn), var)
                if survivor != var:
                    renames[(name, var)] = survivor
        if not renames:
            break
        system = _apply_renames(system, renames)
        rounds += 1
    if rounds:
        TRACER.count("rewrite.cross-chain-cse", rounds)
    return system, rounds


def _alpha_key(eqn: Equation) -> tuple:
    """The equation's identity modulo its own name.

    Built from the same value-based reprs :func:`system_fingerprint`
    hashes.  Self-references (a carrier propagating itself) become the
    placeholder ``%self`` so two equations that differ only in what they
    call themselves compare equal.  Link labels are scrubbed too: the
    restructurer derives them from the variable name (``m1.ap<-comb``),
    and a label is bookkeeping, not semantics.
    """
    def scrub(rule):
        if isinstance(rule, LinkRule):
            return replace(rule, label="%self")
        if isinstance(rule, ComputeRule):
            return replace(rule, operands=tuple(
                replace(ref, var="%self") if ref.var == eqn.var else ref
                for ref in rule.operands))
        return rule

    return repr(eqn.where), tuple(repr(scrub(rule)) for rule in eqn.rules)


def _apply_renames(system: RecurrenceSystem,
                   renames: dict[tuple[str, str], str]) -> RecurrenceSystem:
    """Drop renamed equations and redirect every reference to them."""

    def rename(rule, module):
        if isinstance(rule, ComputeRule):
            return replace(rule, operands=tuple(
                replace(ref, var=renames.get((module, ref.var), ref.var))
                for ref in rule.operands))
        if isinstance(rule, LinkRule):
            src = rule.source
            new_var = renames.get((src.module, src.var))
            if new_var is not None:
                return replace(rule, source=replace(src, var=new_var))
        return rule

    equations = {name: [eqn for eqn in eqns
                        if (name, eqn.var) not in renames]
                 for name, eqns in _map_rules(system, rename).items()}
    outputs = [replace(out, var=renames.get((out.module, out.var), out.var))
               for out in system.outputs]
    return _rebuild(system, equations, outputs)
