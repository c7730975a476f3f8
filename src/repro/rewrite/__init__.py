"""Rewrites and the pass manager over the synthesis middle-end.

The paper's flow — canonic-form recurrence → restructured non-uniform
system → scheduled/allocated design → cell program — historically lowered
in one shot inside :func:`repro.core.nonuniform.synthesize`.  This package
re-expresses that middle as staged, inspectable compilation over the one
program form the later steps need, the
:class:`~repro.ir.program.RecurrenceSystem`:

* :mod:`repro.rewrite.patterns` — the rewrites, plain
  ``system -> (system, count)`` functions (accumulator-kernel fusion,
  cross-chain CSE);
* :mod:`repro.rewrite.passes` — :class:`Pass`, :class:`PassPipeline` and
  the immutable :class:`PipelineState` threaded through them, with
  per-pass span tracing and ``print-ir-after`` debugging through
  :func:`print_system`;
* :mod:`repro.rewrite.pipeline` — the named passes of the default
  lowering (``decompose-chains``, ``fuse-accumulators``, ``schedule``,
  ``allocate``, ``lower-microcode``) plus the opt-in ``cse`` pass, the
  pass registry and :func:`default_pipeline`.

Every pass boundary is verifiable against the execution engines'
bit-identical canonical event streams; the default pipeline is
behavior-identical to the historical one-shot lowering.
"""

from repro.rewrite.passes import (
    Pass,
    PassError,
    PassPipeline,
    PipelineState,
    print_system,
)
from repro.rewrite.patterns import cross_chain_cse, fuse_accumulator_kernels
from repro.rewrite.pipeline import (
    PASS_REGISTRY,
    available_passes,
    default_pipeline,
    make_pass,
    run_pipeline,
)

__all__ = [
    "PASS_REGISTRY",
    "Pass",
    "PassError",
    "PassPipeline",
    "PipelineState",
    "available_passes",
    "cross_chain_cse",
    "default_pipeline",
    "fuse_accumulator_kernels",
    "make_pass",
    "print_system",
    "run_pipeline",
]
