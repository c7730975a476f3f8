"""Typed, process-safe metrics: the aggregate-telemetry substrate.

The span tracer answers "where did *this* run spend its time"; sweeps and
the future synthesis service need the aggregate question answered too —
how many cache hits across a million jobs, what is the p95 of the
``native.cc`` stage, how hot is the int64 fallback path.  This module
provides the typed registry those questions are asked against:

* :class:`Counter` — a monotone event count.  Counters share storage with
  the tracer's flat ``counters`` dict, so every ``TRACER.count(...)`` call
  site publishes into the registry; typed handles are the blessed way to
  bump them from new code.
* :class:`Gauge` — a last-value measurement (sweep throughput, ETA).
* :class:`Histogram` — a distribution with **fixed buckets** (exact
  cumulative counts, Prometheus-exposable) plus a **deterministic
  reservoir** for percentile estimates.  Histograms are *mergeable*:
  :meth:`Histogram.merge_wire` is associative and commutative, so worker
  registries folded in any order — the sweep worker wire of
  :mod:`repro.core.batch` — produce identical aggregates.
* :func:`render_prometheus` — the text exposition format over a registry,
  the direct hook for a future ``repro serve`` ``/metrics`` endpoint.

Determinism is load-bearing: the reservoir does **not** use ``random``.
Each observation gets a priority from an integer hash of (value bits,
local sequence number) and the reservoir keeps the ``capacity`` smallest
priorities.  "Keep the K smallest of a multiset" is associative under
union, which is what makes three workers' histograms merge to the same
reservoir regardless of merge order.

This module deliberately imports nothing from the rest of the engine so
every layer (tracer included) can depend on it.
"""

from __future__ import annotations

from bisect import bisect_right, insort

#: Default latency buckets, in seconds — spans from sub-millisecond pass
#: timings up to multi-minute sweep totals.  Upper bound is +inf
#: implicitly (the overflow bucket).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)

#: Reservoir capacity per histogram: enough for stable p95/p99 estimates,
#: small enough to ship across process boundaries per job.
RESERVOIR_SIZE = 512

_M64 = (1 << 64) - 1


def _priority(value: float, seq: int) -> int:
    """A deterministic 64-bit pseudo-random priority for one observation.

    splitmix64-style integer mixing over (value bits, sequence number):
    reproducible across processes and Python versions, no ``random``
    involved — identical runs produce identical reservoirs.
    """
    bits = hash(value) & _M64
    x = (bits * 0x9E3779B97F4A7C15 ^ (seq + 1) * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 31
    x = (x * 0x94D049BB133111EB) & _M64
    x ^= x >> 29
    return x


def percentile(sorted_values, q: float):
    """The q-th percentile (0..100) of an ascending sequence, by linear
    interpolation; ``None`` on an empty sequence."""
    if not sorted_values:
        return None
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (len(sorted_values) - 1) * (q / 100.0)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = rank - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


class Counter:
    """A typed handle on one monotone counter of a registry.

    The value lives in the registry's shared ``counters`` dict (the same
    dict the tracer's flat view reads), so handles and ``TRACER.count``
    call sites observe each other.
    """

    __slots__ = ("name", "_registry")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self.name = name
        self._registry = registry

    def inc(self, delta: int = 1) -> None:
        self._registry.inc(self.name, delta)

    @property
    def value(self) -> int:
        return self._registry.counters.get(self.name, 0)

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A typed handle on one last-value measurement of a registry."""

    __slots__ = ("name", "_registry")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self.name = name
        self._registry = registry

    def set(self, value: float) -> None:
        self._registry.gauges[self.name] = float(value)

    def inc(self, delta: float = 1.0) -> None:
        self._registry.gauges[self.name] = self.value + delta

    @property
    def value(self) -> float:
        return self._registry.gauges.get(self.name, 0.0)

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Fixed-bucket counts plus a deterministic percentile reservoir.

    ``bucket_counts[i]`` counts observations ``<= buckets[i]`` boundary-
    exclusive style (``bisect_right``), with one extra overflow slot; the
    cumulative form required by the Prometheus exposition is derived on
    demand.  The reservoir keeps the ``capacity`` observations with the
    smallest deterministic priorities — an unbiased-enough hash sample
    whose *selection is a pure function of the observed multiset*, which
    makes :meth:`merge_wire` associative.
    """

    __slots__ = ("name", "buckets", "bucket_counts", "count", "total",
                 "min", "max", "capacity", "_samples", "_seq")

    def __init__(self, name: str,
                 buckets: "tuple[float, ...] | None" = None,
                 capacity: int = RESERVOIR_SIZE) -> None:
        self.name = name
        self.buckets: tuple[float, ...] = tuple(buckets or DEFAULT_BUCKETS)
        self.bucket_counts: list[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.min: "float | None" = None
        self.max: "float | None" = None
        self.capacity = capacity
        #: ascending list of (priority, value); trimmed to ``capacity``
        self._samples: list[tuple[int, float]] = []
        self._seq = 0

    # -- recording -----------------------------------------------------------

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.bucket_counts[bisect_right(self.buckets, value)] += 1
        self._seq += 1
        pri = _priority(value, self._seq)
        samples = self._samples
        if len(samples) < self.capacity:
            insort(samples, (pri, value))
        elif pri < samples[-1][0]:
            samples.pop()
            insort(samples, (pri, value))

    # -- reading -------------------------------------------------------------

    @property
    def mean(self) -> "float | None":
        return self.total / self.count if self.count else None

    def sample_values(self) -> list[float]:
        """The reservoir's values, ascending."""
        return sorted(v for _, v in self._samples)

    def percentile(self, q: float) -> "float | None":
        return percentile(self.sample_values(), q)

    def summary(self) -> dict:
        """JSON-ready digest: count, mean, min/max, p50/p90/p95/p99."""
        out: dict = {"count": self.count}
        if self.count:
            values = self.sample_values()
            out.update({
                "mean": self.total / self.count,
                "min": self.min, "max": self.max,
                "p50": percentile(values, 50),
                "p90": percentile(values, 90),
                "p95": percentile(values, 95),
                "p99": percentile(values, 99),
            })
        return out

    # -- merge protocol ------------------------------------------------------

    def to_wire(self) -> dict:
        """The mergeable serialised form shipped across process
        boundaries (JSON-safe; see :meth:`merge_wire`)."""
        return {
            "buckets": list(self.buckets),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "samples": [[p, v] for p, v in self._samples],
        }

    def merge_wire(self, wire: dict) -> None:
        """Fold another histogram's wire form into this one.

        Associative and commutative: bucket counts and totals add, min/max
        combine, and the merged reservoir is the ``capacity`` smallest
        priorities of the union — the same selection any merge order
        produces.
        """
        if tuple(wire["buckets"]) != self.buckets:
            raise ValueError(
                f"histogram {self.name!r}: cannot merge across differing "
                f"bucket boundaries")
        for i, c in enumerate(wire["bucket_counts"]):
            self.bucket_counts[i] += c
        self.count += wire["count"]
        self.total += wire["total"]
        if wire["min"] is not None:
            self.min = (wire["min"] if self.min is None
                        else min(self.min, wire["min"]))
        if wire["max"] is not None:
            self.max = (wire["max"] if self.max is None
                        else max(self.max, wire["max"]))
        union = self._samples + [(int(p), float(v))
                                 for p, v in wire["samples"]]
        union.sort()
        self._samples = union[:self.capacity]

    @classmethod
    def from_wire(cls, name: str, wire: dict) -> "Histogram":
        hist = cls(name, buckets=tuple(wire["buckets"]))
        hist.merge_wire(wire)
        return hist

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count})"


class MetricsRegistry:
    """The typed registry: counters, gauges and histograms by name.

    ``counters`` is a plain dict shared with the owning tracer's flat view
    (see :class:`repro.obs.tracer.Tracer`), so the registry sees every
    ``TRACER.count`` call and the tracer's ``--stats`` report sees every
    typed :class:`Counter` bump.  ``_count_hook`` is how the
    tracer injects span-attribution: when set, typed increments route
    through ``Tracer.count`` so they are also charged to the active span.
    """

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self._count_hook = None     # set by an adopting Tracer

    # -- typed handles -------------------------------------------------------

    def counter(self, name: str) -> Counter:
        return Counter(self, name)

    def gauge(self, name: str) -> Gauge:
        return Gauge(self, name)

    def histogram(self, name: str,
                  buckets: "tuple[float, ...] | None" = None) -> Histogram:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(name, buckets=buckets)
        return hist

    # -- recording -----------------------------------------------------------

    def inc(self, name: str, delta: int = 1) -> None:
        if self._count_hook is not None:
            self._count_hook(name, delta)
        else:
            self.counters[name] = self.counters.get(name, 0) + delta

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float,
                buckets: "tuple[float, ...] | None" = None) -> None:
        self.histogram(name, buckets=buckets).observe(value)

    def reset(self) -> None:
        """Clear all recorded data **in place** — consumers holding the
        ``counters`` dict (the tracer's flat view) keep their reference."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()

    # -- reading / merge -----------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready digest, key-sorted: counters and gauges verbatim,
        histograms as :meth:`Histogram.summary` blocks."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {k: self.histograms[k].summary()
                           for k in sorted(self.histograms)
                           if self.histograms[k].count},
        }

    def to_wire(self) -> dict:
        """The mergeable serialised registry."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            # Empty histograms (a pre-registered handle never observed)
            # carry no information; keep them off the wire.
            "histograms": {k: self.histograms[k].to_wire()
                           for k in sorted(self.histograms)
                           if self.histograms[k].count},
        }

    def merge_wire(self, wire: dict) -> None:
        """Fold a worker registry's wire form in.  Counters add and
        histograms merge, both associatively and commutatively; gauges are
        last-write-wins, so a gauge's merged value depends on merge
        order."""
        for name, delta in wire.get("counters", {}).items():
            self.inc(name, delta)
        self.gauges.update(wire.get("gauges", {}))
        for name, hist_wire in wire.get("histograms", {}).items():
            hist = self.histograms.get(name)
            if hist is None:
                self.histograms[name] = Histogram.from_wire(name, hist_wire)
            else:
                hist.merge_wire(hist_wire)

    def __repr__(self) -> str:
        return (f"MetricsRegistry(counters={len(self.counters)}, "
                f"gauges={len(self.gauges)}, "
                f"histograms={len(self.histograms)})")


# -- Prometheus text exposition -----------------------------------------------

def _prom_name(name: str, suffix: str = "", prefix: str = "repro") -> str:
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return f"{prefix}_{safe}{suffix}"


def _prom_value(value: float) -> str:
    if value != value:                          # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


def render_prometheus(registry: MetricsRegistry,
                      prefix: str = "repro") -> str:
    """The registry in the Prometheus text exposition format (v0.0.4).

    Counters gain the conventional ``_total`` suffix, histograms expose
    cumulative ``_bucket{le="..."}`` series plus ``_sum``/``_count``, and
    names are sanitised (``cache.hits`` → ``repro_cache_hits_total``).
    This function is the metrics endpoint of a future ``repro serve`` —
    scrape-ready today against the process registry.
    """
    lines: list[str] = []
    for name in sorted(registry.counters):
        metric = _prom_name(name, "_total", prefix)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {registry.counters[name]}")
    for name in sorted(registry.gauges):
        metric = _prom_name(name, "", prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_value(registry.gauges[name])}")
    for name in sorted(registry.histograms):
        hist = registry.histograms[name]
        metric = _prom_name(name, "", prefix)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(hist.buckets, hist.bucket_counts):
            cumulative += count
            lines.append(f'{metric}_bucket{{le="{_prom_value(bound)}"}} '
                         f"{cumulative}")
        lines.append(f'{metric}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{metric}_sum {_prom_value(hist.total)}")
        lines.append(f"{metric}_count {hist.count}")
    return "\n".join(lines) + ("\n" if lines else "")
