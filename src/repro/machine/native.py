"""Native-code execution of lowered machine programs (``engine="native"``).

The fourth rung of the engine ladder.  The vector engine already reduced a
compiled machine's operation table to level-grouped kernels over a dense
``(seeds, nodes)`` value matrix; this module hands the *same* schedule
(:meth:`~repro.ir.vector.VectorProgram.kernel_schedule`) to
:mod:`repro.codegen`, which emits a per-design C kernel, compiles it with
the system toolchain and content-addresses the shared object — so a warm
run skips both codegen and the compiler and goes straight to ``dlopen``.

Division of labour per execution:

* Python runs the gather phase (host input callables are arbitrary Python)
  into the int64 value matrix via :func:`~repro.ir.vector.fill_inputs`;
* the C kernel runs every copy/compute level in place over that matrix,
  with the exact checked-overflow semantics of the ndarray fast path;
* the compiled machine supplies everything value-independent — statistics,
  strict capacity errors, the structural event stream, result keying.

Fallback policy (correctness never depends on a toolchain): with no C
compiler, an op outside the exact repertoire, a failed compile, a
non-integer input or an int64 overflow, execution degrades to the vector
engine's paths — same results, just slower.  Counters
(``native.vector_fallbacks``, ``native.input_fallbacks``,
``native.overflow_fallbacks``) and the shared
``vector.int64_fallbacks`` warning keep the degradation visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.codegen.build import NativeKernel, load_or_build
from repro.codegen.emit import emit_kernel
from repro.ir.evaluate import SystemTrace
from repro.ir.vector import (
    IntegerFallback,
    VectorProgram,
    _execute as _execute_typed,
    execute_program,
    fill_inputs,
    note_int64_fallback,
)
from repro.machine.compiled import CompiledMachine, lower
from repro.machine.errors import CapacityError
from repro.machine.microcode import Microcode
from repro.machine.simulator import MachineRun
from repro.machine.vector import vectorize
from repro.obs import TRACER
from repro.obs.events import EventSink

#: Typed fallback counters (see :mod:`repro.obs.telemetry`).
_VECTOR_FALLBACKS = TRACER.metrics.counter("native.vector_fallbacks")
_INPUT_FALLBACKS = TRACER.metrics.counter("native.input_fallbacks")
_OVERFLOW_FALLBACKS = TRACER.metrics.counter("native.overflow_fallbacks")
_FALLBACK_BUILDS = TRACER.metrics.counter("native.fallback_builds")


@dataclass
class NativeMachine:
    """A compiled machine plus (when buildable here) its C kernel.

    Always constructible: ``kernel is None`` means every execution takes
    the vector path and ``fallback_reason`` says why — callers never need
    to probe the toolchain themselves.
    """

    compiled: CompiledMachine
    program: VectorProgram
    kernel: "NativeKernel | None"
    fallback_reason: "str | None" = None

    def execute(self, inputs: Mapping[str, Callable],
                strict: bool = True,
                sink: "EventSink | None" = None,
                want_values: bool = True) -> MachineRun:
        """One native pass; drop-in for :meth:`CompiledMachine.execute`
        (same ``want_values`` economy as the vector engine)."""
        compiled = self.compiled
        if strict and compiled.strict_error is not None:
            raise CapacityError(compiled.strict_error)
        if sink is not None:
            compiled.replay_events(sink)
        buf = self.execute_batch((inputs,))[0].tolist()
        if want_values:
            values, results = compiled.result_dicts(buf)
        else:
            values = {}
            results = {host_key: buf[vid]
                       for host_key, vid in compiled.outputs}
        return MachineRun(values, results, compiled.copy_stats())

    def execute_batch(self, input_sets: Sequence[Mapping[str, Callable]],
                      ) -> np.ndarray:
        """The raw ``(seeds, value_count)`` matrix of one batched pass.

        Gather in Python, value levels in C; any reason the C kernel
        cannot run this batch exactly drops to the vector engine's
        equivalent path (counted, and warned once via the shared int64
        fallback channel).
        """
        kernel = self.kernel
        if kernel is None:
            _VECTOR_FALLBACKS.inc()
            return execute_program(self.program, input_sets)
        values = np.zeros((len(input_sets), self.program.node_count),
                          dtype=np.int64)
        try:
            with TRACER.span("vector.gather"):
                fill_inputs(self.program, values, input_sets, int_mode=True)
        except (IntegerFallback, OverflowError) as exc:
            note_int64_fallback(str(exc) or type(exc).__name__)
            _INPUT_FALLBACKS.inc()
            return _execute_typed(self.program, input_sets, object)
        with TRACER.span("native.exec"):
            rc = kernel.run(values)
        if rc != 0:
            note_int64_fallback("int64 overflow in native kernel")
            _OVERFLOW_FALLBACKS.inc()
            return _execute_typed(self.program, input_sets, object)
        return values


def nativize(compiled: CompiledMachine,
             cache_token: "str | None" = None,
             cache_dir=None) -> NativeMachine:
    """Lower a compiled machine's table to kernel groups and attach the
    C kernel for them, through the content-addressed artifact cache.

    ``cache_token`` keys the artifact by an externally stable identity
    (the verification path passes the design token) so a warm run skips
    codegen entirely; without it the emitted source is the key, which
    still skips the compiler.
    """
    vm = vectorize(compiled)
    program = vm.program
    kernel = None
    reason: "str | None" = None
    if program.int_ok:
        kernel, reason = load_or_build(
            lambda: emit_kernel(program),
            key_material=cache_token, cache_dir=cache_dir,
            node_count=program.node_count)
    else:
        reason = ("program contains ops without exact int64 kernels; "
                  "running on the vector engine")
    if kernel is None:
        _FALLBACK_BUILDS.inc()
    return NativeMachine(compiled=compiled, program=program,
                         kernel=kernel, fallback_reason=reason)


def lower_native(mc: Microcode, trace: SystemTrace,
                 reclaim_registers: bool = True,
                 record_events: bool = False,
                 cache_token: "str | None" = None,
                 cache_dir=None) -> NativeMachine:
    """Microcode → compiled lowering → kernel groups → C kernel."""
    return nativize(lower(mc, trace, reclaim_registers, record_events),
                    cache_token=cache_token, cache_dir=cache_dir)


def run_native(mc: Microcode, trace: SystemTrace,
               inputs: Mapping[str, Callable], strict: bool = True,
               reclaim_registers: bool = True,
               sink: "EventSink | None" = None) -> MachineRun:
    """Lower and execute in one step (the ``engine="native"`` path of
    :func:`repro.machine.simulator.run`)."""
    lowered = lower_native(mc, trace, reclaim_registers,
                           record_events=sink is not None)
    return lowered.execute(inputs, strict, sink=sink)
