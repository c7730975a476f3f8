"""Observability layer: spans, telemetry, events, progress, run metrics.

Five cooperating pieces, all opt-in and all zero-cost on hot paths when
unused:

* :mod:`repro.obs.tracer` — the hierarchical span tracer behind the
  process-wide :data:`TRACER`, the one entry point every layer counts and
  times through, with the single worker→parent wire
  (:meth:`Tracer.to_wire` / :meth:`Tracer.merge_wire`) and the profiling
  exports (:func:`collapsed_stacks` flamegraph format, Chrome trace);
* :mod:`repro.obs.telemetry` — the typed metrics registry
  (:class:`Counter` / :class:`Gauge` / :class:`Histogram`, mergeable
  across sweep workers) behind the process-wide :data:`METRICS`, with the
  Prometheus text exposition (:func:`render_prometheus`);
* :mod:`repro.obs.events` — the cycle-level machine event vocabulary with
  JSON-lines and Chrome ``trace_event`` (Perfetto) exporters;
* :mod:`repro.obs.progress` — structured live sweep progress
  (:class:`ProgressEvent`, CLI rendering, JSONL heartbeat);
* :mod:`repro.obs.metrics` — persistent :class:`RunRecord` files under
  ``$REPRO_METRICS_DIR`` capturing each CLI run's spans, counters,
  telemetry and machine statistics.
"""

from repro.obs.events import (
    EVENT_KINDS,
    EventLog,
    EventSink,
    MachineEvent,
    canonical_order,
    read_jsonl,
)
from repro.obs.metrics import (
    METRICS_ENV_VAR,
    RunRecord,
    git_sha,
    list_run_records,
    load_run_record,
    metrics_dir,
    write_run_record,
)
from repro.obs.progress import (
    CLIProgress,
    JsonlHeartbeat,
    ProgressEvent,
    ProgressSink,
    SweepProgress,
    read_heartbeat,
)
from repro.obs.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
    render_prometheus,
)
from repro.obs.tracer import (
    METRICS,
    TRACER,
    Span,
    Tracer,
    collapsed_stacks,
    render_spans,
    spans_to_chrome_trace,
)

__all__ = [
    "CLIProgress",
    "Counter",
    "EVENT_KINDS",
    "EventLog",
    "EventSink",
    "Gauge",
    "Histogram",
    "JsonlHeartbeat",
    "MachineEvent",
    "METRICS",
    "METRICS_ENV_VAR",
    "MetricsRegistry",
    "ProgressEvent",
    "ProgressSink",
    "RunRecord",
    "Span",
    "SweepProgress",
    "TRACER",
    "Tracer",
    "canonical_order",
    "collapsed_stacks",
    "git_sha",
    "list_run_records",
    "load_run_record",
    "metrics_dir",
    "percentile",
    "read_heartbeat",
    "read_jsonl",
    "render_prometheus",
    "render_spans",
    "spans_to_chrome_trace",
    "write_run_record",
]
