"""Microcode compilation and lowering against their reference oracles.

``reference_microcode.py`` and ``reference_compiled.py`` keep the
compiler and the lowering that worked one value key at a time.  For every
problem family on every stock interconnect, the array-based
:func:`~repro.machine.microcode.compile_design` must produce the same
injections, operations, hops and placement (or raise the same error with
the same message), and :func:`~repro.machine.compiled.lower` the same
lowered program, ``produced`` order, statistics, strict-capacity error and
event stream — with value ids mapped back to value keys, since the two
number values differently.

Each family's design is synthesized once per size on one interconnect and
then compiled on every stock interconnect's links: where those links cannot
carry the design, both compilers must fail the same way.  The matrix also
covers designs whose transfers collide, so the router's retiming and its
capacity errors are compared too.
"""

import dataclasses
import random
from collections import Counter

import pytest

from repro.api import STOCK_INTERCONNECTS, synthesize
from repro.ir.evaluate import structural_trace
from repro.machine import MachineError, compile_design, lower
from repro.problems import (
    convolution_backward,
    convolution_forward,
    dp_system,
    matmul_system,
)
from repro.space.allocation import SpaceMap

from .reference_compiled import lower_reference
from .reference_microcode import compile_design_reference

FAMILIES = {
    "dp": (dp_system, {}, "fig2-extended"),
    "conv-backward": (convolution_backward, {"s": 3}, "linear-bidirectional"),
    "conv-forward": (convolution_forward, {"s": 3}, "linear-bidirectional"),
    "matmul": (matmul_system, {}, "mesh-4"),
}

_designs: dict = {}


def design_for(family: str, n: int):
    if (family, n) not in _designs:
        builder, extra, home = FAMILIES[family]
        _designs[family, n] = synthesize(builder(), {"n": n, **extra},
                                         STOCK_INTERCONNECTS[home])
    return _designs[family, n]


def compiled(compiler, trace, schedules, maps, decomposer):
    try:
        return compiler(trace, schedules, maps, decomposer), None
    except MachineError as exc:
        return None, (type(exc).__name__, str(exc))


def microcode_rows(mc) -> dict:
    return {
        "span": (mc.first_cycle, mc.last_cycle),
        "injections": [(e.key, e.cell, e.cycle, e.input_name, e.input_index)
                       for e in mc.injections],
        "operations": [(op.key, op.cell, op.cycle, op.op, op.operands,
                        op.stream) for op in mc.operations],
        "hops": [(h.key, h.src, h.dst, h.cycle, h.stream) for h in mc.hops],
        "placement": mc.placement,
    }


def lowered_rows(machine) -> dict:
    keys = machine.keys
    return {
        "injections": [(keys[vid], name, idx)
                       for vid, name, idx in machine.injections],
        "program": [(keys[vid], op, tuple(keys[o] for o in operands))
                    for vid, op, operands in machine.program],
        "outputs": [(host, keys[vid]) for host, vid in machine.outputs],
        "produced": [keys[vid] for vid in machine.produced],
        "stats": machine.stats,
        "strict_error": machine.strict_error,
        "events": machine.events,
    }


def assert_same(design, maps, decomposer, lowering=True):
    """Both compilers (and, on success, both lowerings) agree."""
    system, params = design.system, design.params
    trace = structural_trace(system, params)
    mc, error = compiled(compile_design, trace, design.schedules, maps,
                         decomposer)
    ref, ref_error = compiled(compile_design_reference, trace,
                              design.schedules, maps, decomposer)
    assert error == ref_error
    if error is not None:
        return error
    assert microcode_rows(mc) == microcode_rows(ref)
    if lowering:
        for reclaim in (True, False):
            got = lower(mc, trace, reclaim_registers=reclaim,
                        record_events=True)
            want = lower_reference(ref, trace,
                                   reclaim_registers=reclaim,
                                   record_events=True)
            assert lowered_rows(got) == lowered_rows(want)
    return None


@pytest.mark.parametrize("interconnect", sorted(STOCK_INTERCONNECTS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", (4, 8))
def test_same_machine_as_reference(family, interconnect, n):
    design = design_for(family, n)
    decomposer = STOCK_INTERCONNECTS[interconnect].decomposer()
    assert_same(design, design.space_maps, decomposer)


def perturbed(design, rng: random.Random, label_dim: int):
    """The design with random space maps (near its own or drawn afresh,
    with offsets) and, half the time, a stretched schedule — transfers
    that collide, retime, leave their links or arrive too late."""
    maps = {}
    for name, module in design.system.modules.items():
        own = design.space_maps[name].matrix
        if rng.random() < 0.5 and len(own) == label_dim:
            matrix = [list(row) for row in own]
            matrix[rng.randrange(label_dim)][
                rng.randrange(len(module.dims))] += rng.choice((-1, 1))
        else:
            matrix = [[rng.randint(-1, 1) for _ in module.dims]
                      for _ in range(label_dim)]
        maps[name] = SpaceMap(module.dims, matrix,
                              tuple(rng.randint(-1, 1)
                                    for _ in range(label_dim)))
    schedules = dict(design.schedules)
    if rng.random() < 0.5:
        for name, s in schedules.items():
            factor = rng.choice((2, 3))
            schedules[name] = dataclasses.replace(
                s, coeffs=tuple(c * factor for c in s.coeffs),
                offset=s.offset * factor + rng.randint(0, 2))
    return dataclasses.replace(design, space_maps=maps,
                               schedules=schedules)


def perturbed_case(seed: int):
    """One seeded (design, maps, decomposer) case for the perturbation
    test."""
    rng = random.Random(seed)
    design = design_for(rng.choice(sorted(FAMILIES)), rng.choice((3, 4, 5, 6)))
    interconnect = STOCK_INTERCONNECTS[
        rng.choice(sorted(STOCK_INTERCONNECTS))]
    changed = perturbed(design, rng, interconnect.label_dim)
    return changed, changed.space_maps, interconnect.decomposer()


def test_perturbed_designs_match_reference(monkeypatch):
    """Seeded random maps and schedules: every outcome — retimed routes,
    capacity, locality and causality errors — matches the reference."""
    from repro.machine import microcode

    rounds = []
    retime_round = microcode._retime_round

    def counting(*args, **kwargs):
        cycles, grown = retime_round(*args, **kwargs)
        rounds.append(len(grown))
        return cycles, grown

    monkeypatch.setattr(microcode, "_retime_round", counting)
    outcomes = Counter()
    for seed in range(150):
        error = assert_same(*perturbed_case(seed))
        outcomes[error[0] if error else "ok"] += 1
    assert set(outcomes) == {"ok", "CapacityError", "LocalityError",
                             "CausalityError"}
    assert any(rounds)          # some pass had to retime more transfers
