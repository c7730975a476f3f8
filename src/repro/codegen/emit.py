"""Emit a self-contained C kernel from a level-grouped vector program.

The codegen source is the same :class:`~repro.ir.vector.VectorProgram`
the vector engine executes: input groups (filled from Python — host input
callables stay arbitrary Python), then copy/compute groups in ascending
level order.  Within a level no value slot is both read and written
(:meth:`~repro.ir.vector.VectorProgram.kernel_schedule`), so each group
lowers to one sequential ``for`` loop over ``static const`` index arrays —
straight-line per-level loops over integer-indexed slots, no dispatch.

Semantics contract (the reason the native engine is bit-identical to the
interpreter wherever it runs): every arithmetic op carries the *same*
checked int64 behaviour as :mod:`repro.ir.vector` —
``__builtin_add_overflow`` / ``__builtin_mul_overflow`` where the ndarray
path uses the sign-flip / quotient-probe tests.  Any overflow returns a
nonzero status from the kernel and the caller re-runs the pass on the
object path, exactly like the ndarray fast path's transparent fallback.

Only the stock exact repertoire is emittable (``id``/``add``/``mul``/
``min``/``max``/``mac`` per :func:`~repro.ir.vector.exact_opcode`, plus
accumulator composites over it via ``Op.components``).  A program using a
custom Python callable raises :class:`UnsupportedForNative` — the design
then runs on the vector engine, never on approximated semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.ir.ops import Op
from repro.ir.vector import VectorProgram, exact_opcode

#: Exported entry point of every generated kernel.
KERNEL_SYMBOL = "repro_kernel"

#: Bumped on any change to the generated code's shape or semantics, or to
#: the value-id layout its slot indices follow; part of every native cache
#: key, so stale shared objects can never load.  Version 2: value ids are
#: the execution plan's (rule group by rule group), not the lowering's
#: first-appearance order.
EMITTER_VERSION = 2


class UnsupportedForNative(Exception):
    """The program contains an op with no exact C emitter — run it on the
    vector engine instead (custom Python callables, symbolic values)."""


@dataclass(frozen=True)
class CKernelSource:
    """One generated translation unit plus what a loader must know."""

    text: str
    node_count: int
    symbol: str = KERNEL_SYMBOL


def _int_rows(name: str, values: Sequence[int], per_line: int = 14) -> list:
    """``static const int32_t name[] = {...};`` wrapped for readability."""
    body = [f"static const int32_t {name}[] = {{"]
    vals = list(values)
    for at in range(0, len(vals), per_line):
        chunk = ", ".join(str(v) for v in vals[at:at + per_line])
        body.append(f"  {chunk},")
    body.append("};")
    return body


class _OpEmitter:
    """Recursive statement emitter for one compute group's loop body."""

    def __init__(self) -> None:
        self.temps = 0

    def fresh(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def emit(self, op: Op, args: list, lines: list) -> str:
        """Append statements computing ``op(*args)``; returns the C
        expression (a temp name or a pass-through operand) holding the
        result.  Overflow paths ``return 1`` out of the kernel."""
        tag = exact_opcode(op)
        if tag == "id":
            return args[0]
        if tag == "add":
            out = self.fresh()
            lines.append(f"i64 {out}; if (__builtin_add_overflow("
                         f"{args[0]}, {args[1]}, &{out})) return 1;")
            return out
        if tag == "mul":
            out = self.fresh()
            lines.append(f"i64 {out}; if (__builtin_mul_overflow("
                         f"{args[0]}, {args[1]}, &{out})) return 1;")
            return out
        if tag in ("min", "max"):
            cmp = "<" if tag == "min" else ">"
            out = self.fresh()
            lines.append(f"i64 {out} = ({args[0]} {cmp} {args[1]}) "
                         f"? {args[0]} : {args[1]};")
            return out
        if tag == "mac":
            prod = self.emit_tagged("mul", args[1:], lines)
            return self.emit_tagged("add", [args[0], prod], lines)
        if op.components is not None:
            # Accumulator composite hf(prev, *xs) = h(prev, f(*xs)).
            h, f = op.components
            inner = self.emit(f, args[1:], lines)
            return self.emit(h, [args[0], inner], lines)
        raise UnsupportedForNative(
            f"op {op.name}/{op.arity} has no exact C emitter "
            f"(custom callable); the design stays on the vector engine")

    def emit_tagged(self, tag: str, args: list, lines: list) -> str:
        """Emit one of the primitive tags directly (helper for ``mac``)."""
        from repro.ir.ops import ADD, MUL

        return self.emit(ADD if tag == "add" else MUL, args, lines)


def emit_kernel(program: VectorProgram) -> CKernelSource:
    """Lower ``program`` to one C translation unit.

    The kernel signature is::

        int repro_kernel(int64_t *v, long rows, long stride);

    ``v`` is the row-major ``(rows, stride)`` value matrix with every host
    input slot already filled (the Python side runs the gather phase);
    rows are independent instantiations (the multi-seed batch axis).
    Returns 0 on success, 1 the moment any checked operation overflows.
    """
    header: list[str] = [
        f"/* generated by repro.codegen (emitter v{EMITTER_VERSION}) — "
        "exact int64 value pass */",
        "#include <stdint.h>",
        "",
        "#if !defined(__GNUC__) && !defined(__clang__)",
        '#error "native kernels need GCC/Clang overflow builtins"',
        "#endif",
        "",
        "typedef int64_t i64;",
        "",
    ]
    body: list[str] = [
        f"int {KERNEL_SYMBOL}(i64 *v, long rows, long stride) {{",
        "  long s, i;",
        "  for (s = 0; s < rows; ++s) {",
        "    i64 *r = v + s * stride;",
    ]
    level = None
    for gid, group in enumerate(program.kernel_schedule()):
        if group.kind == "input":
            continue  # gather phase stays in Python
        if group.level != level:
            level = group.level
            body.append(f"    /* level {level} */")
        width = group.width
        dst = f"g{gid}_d"
        header.extend(_int_rows(dst, group.dst.tolist()))
        if group.kind == "copy":
            src = f"g{gid}_s"
            header.extend(_int_rows(src, group.operands[0].tolist()))
            body.append(f"    for (i = 0; i < {width}; ++i) "
                        f"r[{dst}[i]] = r[{src}[i]];")
            continue
        arg_names = []
        for pos, column in enumerate(group.operands):
            name = f"g{gid}_a{pos}"
            header.extend(_int_rows(name, column.tolist()))
            arg_names.append(name)
        body.append(f"    for (i = 0; i < {width}; ++i) {{  "
                    f"/* {group.op.name} x{width} */")
        loads = [f"r[{name}[i]]" for name in arg_names]
        stmts: list[str] = []
        result = _OpEmitter().emit(group.op, loads, stmts)
        body.extend(f"      {line}" for line in stmts)
        body.append(f"      r[{dst}[i]] = {result};")
        body.append("    }")
    body.extend(["  }", "  return 0;", "}", ""])
    header.append("")
    return CKernelSource(text="\n".join(header + body),
                         node_count=program.node_count)
