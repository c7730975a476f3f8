"""Processor allocation: diophantine machinery (Smith/Hermite forms), link
decomposition of displacements, space-map enumeration (conditions (2)/(3))
and joint multi-module allocation under global adjacency constraints."""

from repro.space.allocation import (
    SpaceMap,
    cells_used,
    conflict_free,
    enumerate_space_maps,
    flows_realisable,
    transformation_nonsingular,
)
from repro.space.diophantine import LinkDecomposer, solve_integer_system
from repro.space.multimodule import (
    JointSpaceSearch,
    ModuleSpaceProblem,
    MultiSpaceSolution,
    NoSpaceMapExists,
    adjacency_ok,
    solve_multimodule_space,
)
from repro.space.smith import (
    det,
    hermite_normal_form,
    is_unimodular,
    smith_normal_form,
)

__all__ = [
    "JointSpaceSearch",
    "LinkDecomposer",
    "ModuleSpaceProblem",
    "MultiSpaceSolution",
    "NoSpaceMapExists",
    "SpaceMap",
    "adjacency_ok",
    "cells_used",
    "conflict_free",
    "det",
    "enumerate_space_maps",
    "flows_realisable",
    "hermite_normal_form",
    "is_unimodular",
    "smith_normal_form",
    "solve_integer_system",
    "solve_multimodule_space",
    "transformation_nonsingular",
]
