"""Compile generated kernels and content-address the shared objects.

The native artifact cache extends the persistent design cache: it lives in
a ``native/`` subdirectory of the same root (``$REPRO_DESIGN_CACHE`` or
``~/.cache/repro-designs``) and uses the same discipline — SHA-256 keys
over canonical JSON, atomic writes (concurrent sweep workers share the
directory), negative entries so a failing compile is diagnosed once, not
re-attempted on every run.

**Key scheme.**  ``sha256({format, emitter, toolchain fingerprint,
material})`` where ``material`` is either

* the **design token** (canonical JSON of the design's structure) when the
  caller has a design in hand — a warm run then skips *both* codegen and
  the compiler, loading ``<key>.so`` straight away; or
* the full generated C source, when lowering from bare microcode — codegen
  reruns (it is milliseconds) but the compiler is still skipped.

Per key the cache holds ``<key>.c`` (the source, for debugging),
``<key>.so`` (the loadable artifact) and ``<key>.json`` (metadata: status,
compile time, node count — or the compiler's stderr for a negative
entry).  Hit/miss/negative counters and the ``native.emit`` /
``native.cc`` / ``native.load`` spans make warm-vs-cold behaviour visible
in ``--stats``.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.codegen.emit import (
    EMITTER_VERSION,
    CKernelSource,
    UnsupportedForNative,
)
from repro.codegen.toolchain import Toolchain, find_toolchain
from repro.obs import TRACER

#: Typed counter handles (see :mod:`repro.obs.telemetry`); increments
#: route through ``TRACER.count`` so span attribution is preserved.
_CACHE_HITS = TRACER.metrics.counter("native.cache_hits")
_CACHE_MISSES = TRACER.metrics.counter("native.cache_misses")
_NEGATIVE_HITS = TRACER.metrics.counter("native.negative_hits")
_NEGATIVE_STORES = TRACER.metrics.counter("native.negative_stores")
_COMPILES = TRACER.metrics.counter("native.compiles")
_LOAD_ERRORS = TRACER.metrics.counter("native.load_errors")
#: Wall time of each ``cc`` invocation, seconds.  Observed directly (not
#: via a span) so compile latency is visible even with tracing off.
_COMPILE_SECONDS = TRACER.metrics.histogram("native.compile_s")

#: Same root as the design cache (see :mod:`repro.core.cache`); kept as a
#: literal here so the codegen layer stays import-independent of ``core``.
CACHE_ENV_VAR = "REPRO_DESIGN_CACHE"

#: Bump when the key layout or metadata schema changes incompatibly.
NATIVE_FORMAT_VERSION = 1


def native_cache_dir(root: "str | os.PathLike | None" = None) -> Path:
    """``<design cache root>/native`` — override root with the argument
    or ``$REPRO_DESIGN_CACHE``."""
    if root is not None:
        return Path(root)
    env = os.environ.get(CACHE_ENV_VAR)
    base = Path(env) if env else Path.home() / ".cache" / "repro-designs"
    return base / "native"


def kernel_key(material: str, toolchain: Toolchain) -> str:
    """Canonical SHA-256 key of one (kernel, toolchain) pair."""
    payload = json.dumps({
        "format": NATIVE_FORMAT_VERSION,
        "emitter": EMITTER_VERSION,
        "toolchain": toolchain.fingerprint,
        "material": material,
    }, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class NativeKernel:
    """A loaded shared object ready to run value passes."""

    path: Path
    symbol: str
    node_count: int
    _fn: Callable

    def run(self, values: np.ndarray) -> int:
        """Execute the kernel over a C-contiguous int64 ``(rows, stride)``
        matrix in place; returns 0 on success, nonzero on overflow."""
        rows, stride = values.shape
        ptr = values.ctypes.data_as(ctypes.POINTER(ctypes.c_int64))
        return self._fn(ptr, rows, stride)


def _atomic_write(path: Path, body: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _load(path: Path, symbol: str, node_count: int) -> NativeKernel:
    with TRACER.span("native.load"):
        lib = ctypes.CDLL(str(path))
        fn = getattr(lib, symbol)
        fn.argtypes = [ctypes.POINTER(ctypes.c_int64), ctypes.c_long,
                       ctypes.c_long]
        fn.restype = ctypes.c_int
        return NativeKernel(path=path, symbol=symbol,
                            node_count=node_count, _fn=fn)


def _read_meta(path: Path) -> dict | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError):
        return None
    if meta.get("format") != NATIVE_FORMAT_VERSION:
        return None
    return meta


def load_or_build(source_provider: Callable[[], CKernelSource],
                  key_material: "str | None" = None,
                  cache_dir: "str | os.PathLike | None" = None,
                  node_count: "int | None" = None,
                  ) -> "tuple[NativeKernel | None, str | None]":
    """The loadable kernel for one program, through the artifact cache.

    ``source_provider`` emits the C source on demand — it is *not* called
    on a warm design-keyed hit, which is what lets warm runs skip codegen
    entirely.  ``key_material`` keys the artifact by design token; when
    ``None`` the key is the emitted source itself.

    ``node_count`` is the value-slot count of the program the kernel will
    run on.  The emitted kernel hard-codes slot indices, so a cached
    artifact recorded with another count (built by a lowering with another
    id layout) is treated as a miss and rebuilt rather than loaded.

    Returns ``(kernel, None)`` on success or ``(None, reason)`` when the
    native path is unavailable here: no toolchain, an op with no exact C
    emitter, or a compile failure (negative-cached so ``cc`` runs once per
    key, not once per process).
    """
    toolchain = find_toolchain()
    if toolchain is None:
        return None, "no C toolchain (cc/gcc/clang) found; set $REPRO_CC"

    root = native_cache_dir(cache_dir)
    source: "CKernelSource | None" = None
    if key_material is None:
        try:
            with TRACER.span("native.emit"):
                source = source_provider()
        except UnsupportedForNative as exc:
            return None, str(exc)
        key_material = source.text
    key = kernel_key(key_material, toolchain)
    so_path = root / f"{key}.so"
    meta_path = root / f"{key}.json"

    if node_count is None and source is not None:
        node_count = source.node_count
    meta = _read_meta(meta_path)
    if (meta is not None and meta.get("status") == "ok"
            and node_count is not None
            and meta.get("node_count") != node_count):
        meta = None     # another id layout: rebuild
    if meta is not None and meta.get("status") == "ok" and so_path.is_file():
        _CACHE_HITS.inc()
        try:
            return _load(so_path, meta["symbol"], meta["node_count"]), None
        except OSError as exc:   # truncated artifact, wrong arch, ...
            _LOAD_ERRORS.inc()
            reason = f"cached kernel failed to load: {exc}"
            return None, reason
    if meta is not None and meta.get("status") == "error":
        _CACHE_HITS.inc()
        _NEGATIVE_HITS.inc()
        return None, meta.get("reason", "cached compile failure")

    _CACHE_MISSES.inc()
    if source is None:
        try:
            with TRACER.span("native.emit"):
                source = source_provider()
        except UnsupportedForNative as exc:
            return None, str(exc)

    root.mkdir(parents=True, exist_ok=True)
    c_path = root / f"{key}.c"
    _atomic_write(c_path, source.text.encode("utf-8"))
    fd, tmp_so = tempfile.mkstemp(dir=root, suffix=".so.tmp")
    os.close(fd)
    t0 = time.perf_counter()
    try:
        with TRACER.span("native.cc"):
            proc = subprocess.run(
                toolchain.compile_command(str(c_path), tmp_so),
                capture_output=True, text=True, timeout=300)
    except (OSError, subprocess.TimeoutExpired) as exc:
        try:
            os.unlink(tmp_so)
        except OSError:
            pass
        return None, f"compiler failed to run: {exc}"
    compile_ms = round((time.perf_counter() - t0) * 1e3, 3)
    _COMPILE_SECONDS.observe(compile_ms / 1e3)
    if proc.returncode != 0:
        try:
            os.unlink(tmp_so)
        except OSError:
            pass
        reason = (f"cc exited {proc.returncode}: "
                  f"{proc.stderr.strip()[-500:]}")
        _atomic_write(meta_path, json.dumps({
            "format": NATIVE_FORMAT_VERSION, "status": "error",
            "reason": reason, "toolchain": toolchain.fingerprint,
        }, sort_keys=True, indent=1).encode("utf-8"))
        _NEGATIVE_STORES.inc()
        return None, reason
    os.replace(tmp_so, so_path)
    _atomic_write(meta_path, json.dumps({
        "format": NATIVE_FORMAT_VERSION, "status": "ok",
        "symbol": source.symbol, "node_count": source.node_count,
        "compile_ms": compile_ms, "toolchain": toolchain.fingerprint,
    }, sort_keys=True, indent=1).encode("utf-8"))
    _COMPILES.inc()
    TRACER.annotate(native_compile_ms=compile_ms)
    try:
        return _load(so_path, source.symbol, source.node_count), None
    except OSError as exc:
        _LOAD_ERRORS.inc()
        return None, f"freshly built kernel failed to load: {exc}"
