"""Derivation of global constraints from the link statements of a system.

Section V derives the inequalities::

    λ(i, j, (i+j)/2) > μ(i, j-1, (i+j)/2)            (from A1)
    λ(i, j, i+1)     > σ(i+1, j, j)                  (from A2)
    ...
    σ(i, j, j) >= max[λ(i, j, i+1), μ(i, j, j-1)]    (from A5)

by inspecting the inter-module statements.  We compute the same constraints
*extensionally*: each link rule's firing rows come from the execution
plan's vectorised first-match (:func:`~repro.ir.evaluate.select_rules`), and
each (destination point, source point) pair becomes an instance of a
:class:`GlobalConstraint`.  The enumeration is exact for the given parameter
values, handles quasi-affine index maps (the ``(i+j)/2`` boundaries) without
special cases, and feeds both the timing solver (gap >= min_gap) and the
space solver (link distance <= gap).
"""

from __future__ import annotations

from typing import Mapping

from repro.ir.evaluate import _index_rows, select_rules
from repro.ir.program import RecurrenceSystem
from repro.ir.statements import LinkRule
from repro.schedule.constraints import GlobalConstraint


def link_constraints(system: RecurrenceSystem,
                     params: Mapping[str, int]) -> list[GlobalConstraint]:
    """One :class:`GlobalConstraint` per link rule that fires, instances
    enumerated in domain order.

    Constraints are named by the rule's label (A1..A5) when present,
    otherwise ``dst_module.dst_var[rule_index]``.
    """
    constraints: list[GlobalConstraint] = []
    for name, var, rule_idx, rule, rows in select_rules(system, params):
        if not isinstance(rule, LinkRule):
            continue
        module = system.modules[name]
        dst_points = module.domain.points_array(params)[rows]
        constraints.append(GlobalConstraint(
            name=rule.label or f"{name}.{var}[{rule_idx}]",
            dst_module=name,
            src_module=rule.source.module,
            dst_points=dst_points,
            src_points=_index_rows(rule.source.index, module.dims,
                                   dst_points, params),
            min_gap=rule.min_gap))
    return constraints
