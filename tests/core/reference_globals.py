"""The per-point derivation of the global link constraints, kept as a
test oracle for :func:`repro.core.globals.link_constraints`.

Every domain point of every module is bound in turn; each equation that
has a link rule is asked, through :meth:`Equation.defined_at` and
:meth:`Equation.select` (exact ``Fraction`` arithmetic), which rule fires
there, and the link's source index is evaluated at the point.  The
production path reads the same first-match off the vectorised
:func:`repro.ir.evaluate.select_rules`.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.ir.program import RecurrenceSystem
from repro.schedule.constraints import GlobalConstraint


def link_constraints(system: RecurrenceSystem,
                     params: Mapping[str, int]) -> list[GlobalConstraint]:
    """One :class:`GlobalConstraint` per link rule, instances enumerated.

    Constraints are named by the rule's label (A1..A5) when present,
    otherwise ``dst_module.dst_var[rule_index]``.
    """
    constraints: list[GlobalConstraint] = []
    domains = {name: list(m.domain.points(params))
               for name, m in system.modules.items()}
    for module_name, module in system.modules.items():
        for eqn in module.equations.values():
            for rule_idx, rule in enumerate(eqn.rules):
                if not hasattr(rule, "source"):
                    continue
                dst_pts: list[tuple[int, ...]] = []
                src_pts: list[tuple[int, ...]] = []
                for p in domains[module_name]:
                    binding = {**params, **dict(zip(module.dims, p))}
                    if not eqn.defined_at(binding):
                        continue
                    # First-match semantics: the rule constrains only the
                    # points where it actually fires.
                    if eqn.select(binding) is not rule:
                        continue
                    dst_pts.append(p)
                    src_pts.append(rule.source.evaluate(binding))
                if not dst_pts:
                    continue
                name = rule.label or f"{module_name}.{eqn.var}[{rule_idx}]"
                constraints.append(GlobalConstraint(
                    name=name,
                    dst_module=module_name,
                    src_module=rule.source.module,
                    dst_points=np.array(dst_pts, dtype=np.int64),
                    src_points=np.array(src_pts, dtype=np.int64),
                    min_gap=rule.min_gap))
    return constraints
