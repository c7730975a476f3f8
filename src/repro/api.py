"""The blessed public surface of the synthesis engine.

Everything a caller — the CLI, a service wrapper, a notebook — needs sits
behind this one module, so the internal package layout can keep moving
without breaking users::

    from repro import api

    design = api.synthesize(system, {"n": 8}, api.resolve_interconnect("fig2"))
    report = api.run_sweep(api.SweepSpec(
        problems=("dp", "conv-backward"),
        interconnects=("fig1", "linear"),
        param_grid=({"n": 8, "s": 4},)))

Surface groups:

* single-shot synthesis — :func:`synthesize` (accepts a canonic
  :class:`~repro.ir.program.RecurrenceSystem` or a high-level spec, and an
  optional ``pipeline=``), :func:`explore_uniform`,
  :func:`explore_interconnects`, :func:`verify_design` (single input
  binding or multi-seed batch), :class:`SynthesisOptions`,
  :class:`Design`, :func:`random_inputs` / :func:`input_factory` for
  seeded problem instances;
* execution engines — the :class:`Engine` registry (``"compiled"``,
  ``"interpreted"``, ``"vector"``, ``"native"``; members are str
  subclasses, so plain strings keep working everywhere),
  :func:`coerce_engine`, :data:`ENGINES`,
  :data:`ENGINE_DESCRIPTIONS` (the one-line help table the CLI renders),
  plus the native backend's feature gate :func:`native_available` and
  the artifact-cache identity :func:`design_token`;
* pass pipeline — :class:`Pass`, :class:`PassPipeline`,
  :class:`PipelineState`, :func:`default_pipeline` (the exact lowering
  :func:`synthesize` runs), :func:`make_pass` / :func:`available_passes`
  (registry incl. the opt-in ``cse`` pass), :func:`run_pipeline` for
  partial lowerings with access to intermediate state, and the rewrites
  under it — :func:`fuse_accumulator_kernels` and :func:`cross_chain_cse`
  (``system -> (system, count)`` functions over a
  :class:`~repro.ir.program.RecurrenceSystem`) and :func:`print_system`;
* batch sweeps — :class:`SweepSpec`, :func:`run_sweep` (with
  ``manifest=`` resume and a ``scheduler=`` chunking-policy override),
  :class:`SweepReport`, :data:`PROBLEM_BUILDERS`,
  :func:`default_workers` (honours ``$REPRO_WORKERS``), the
  work-stealing :class:`SchedulerConfig`, and resumable manifests
  (:class:`SweepManifest`, :func:`read_manifest`,
  :class:`ManifestError`);
* persistent cache — :class:`DesignCache` (sharded ``ab/cd/<key>.json``
  store with an index and :meth:`~DesignCache.prune`),
  :class:`PruneReport`, :func:`cache_key`,
  :func:`cache_key_from_fingerprint`, :func:`system_fingerprint`;
* fuzzing — :func:`fuzz` (budgeted random round-trips of the nonuniform
  pipeline), :func:`run_case` / :class:`CaseDescriptor` /
  :class:`CaseOutcome`, and the regression corpus (:func:`load_corpus`,
  :func:`replay_corpus`);
* errors — :class:`SynthesisError` and its concrete subclasses;
* naming — :func:`resolve_interconnect`, :data:`STOCK_INTERCONNECTS`;
* observability — the span tracer (:data:`TRACER`) with its profiling
  exports (:func:`collapsed_stacks`, :func:`spans_to_chrome_trace`), the
  typed metrics registry (:data:`METRICS`, :class:`MetricsRegistry`,
  :class:`Counter` / :class:`Gauge` / :class:`Histogram`,
  :func:`render_prometheus`), live sweep progress (:class:`ProgressEvent`,
  :class:`CLIProgress`, :class:`JsonlHeartbeat`, :func:`read_heartbeat`),
  cycle-level machine event logs (:class:`EventLog`,
  :class:`MachineEvent`), persistent run metrics (:class:`RunRecord`,
  :func:`write_run_record`, :func:`load_run_record`, :func:`metrics_dir`)
  and run-record analytics (:func:`load_records`, :func:`render_report`,
  :func:`report_dict` — the engine behind ``repro report``).
"""

from repro.arrays.interconnect import (
    INTERCONNECT_ALIASES,
    STOCK_INTERCONNECTS,
    Interconnect,
    resolve_interconnect,
)
from repro.core.batch import (
    PROBLEM_BUILDERS,
    SweepJob,
    SweepReport,
    SweepResult,
    SweepSpec,
    default_workers,
    run_sweep,
)
from repro.core.cache import (
    CACHE_ENV_VAR,
    DesignCache,
    PruneReport,
    cache_key,
    cache_key_from_fingerprint,
    default_cache_dir,
    system_fingerprint,
)
from repro.core.design import Design
from repro.core.manifest import (
    ManifestError,
    SweepManifest,
    read_manifest,
)
from repro.core.scheduler import SchedulerConfig
from repro.core.errors import (
    NoScheduleExists,
    NoSpaceMapExists,
    SynthesisError,
)
from repro.core.explore import (
    ExploredDesign,
    explore_interconnects,
    explore_uniform,
    pareto_front,
)
from repro.core.nonuniform import synthesize
from repro.core.options import SynthesisOptions
from repro.core.verify import VerificationReport, design_token, verify_design
from repro.codegen.toolchain import native_available
from repro.machine.engines import (
    ENGINE_DESCRIPTIONS,
    ENGINES,
    Engine,
    coerce_engine,
    engine_help,
)
from repro.rewrite import (
    Pass,
    PassPipeline,
    PipelineState,
    available_passes,
    cross_chain_cse,
    default_pipeline,
    fuse_accumulator_kernels,
    make_pass,
    print_system,
    run_pipeline,
)
from repro.fuzz import (
    CaseDescriptor,
    CaseOutcome,
    FuzzReport,
    fuzz,
    load_corpus,
    replay_corpus,
    run_case,
)
from repro.machine.analysis import CellUtilization, cell_utilization
from repro.problems import input_factory, random_inputs
from repro.obs import (
    METRICS,
    METRICS_ENV_VAR,
    TRACER,
    CLIProgress,
    Counter,
    EventLog,
    EventSink,
    Gauge,
    Histogram,
    JsonlHeartbeat,
    MachineEvent,
    MetricsRegistry,
    ProgressEvent,
    ProgressSink,
    RunRecord,
    collapsed_stacks,
    load_run_record,
    metrics_dir,
    read_heartbeat,
    render_prometheus,
    spans_to_chrome_trace,
    write_run_record,
)
from repro.report import load_records, render_report, report_dict

__all__ = [
    "CACHE_ENV_VAR",
    "CLIProgress",
    "CaseDescriptor",
    "CaseOutcome",
    "CellUtilization",
    "Counter",
    "Design",
    "DesignCache",
    "ENGINES",
    "ENGINE_DESCRIPTIONS",
    "Engine",
    "EventLog",
    "EventSink",
    "ExploredDesign",
    "FuzzReport",
    "Gauge",
    "Histogram",
    "INTERCONNECT_ALIASES",
    "Interconnect",
    "JsonlHeartbeat",
    "METRICS",
    "METRICS_ENV_VAR",
    "MachineEvent",
    "ManifestError",
    "MetricsRegistry",
    "NoScheduleExists",
    "NoSpaceMapExists",
    "PROBLEM_BUILDERS",
    "Pass",
    "PassPipeline",
    "PipelineState",
    "ProgressEvent",
    "ProgressSink",
    "PruneReport",
    "RunRecord",
    "STOCK_INTERCONNECTS",
    "SchedulerConfig",
    "SweepJob",
    "SweepManifest",
    "SweepReport",
    "SweepResult",
    "SweepSpec",
    "SynthesisError",
    "SynthesisOptions",
    "TRACER",
    "VerificationReport",
    "available_passes",
    "cache_key",
    "cache_key_from_fingerprint",
    "cell_utilization",
    "coerce_engine",
    "collapsed_stacks",
    "cross_chain_cse",
    "default_cache_dir",
    "default_pipeline",
    "default_workers",
    "design_token",
    "engine_help",
    "explore_interconnects",
    "explore_uniform",
    "fuse_accumulator_kernels",
    "fuzz",
    "input_factory",
    "load_corpus",
    "load_records",
    "load_run_record",
    "make_pass",
    "metrics_dir",
    "native_available",
    "pareto_front",
    "print_system",
    "random_inputs",
    "read_heartbeat",
    "read_manifest",
    "render_prometheus",
    "render_report",
    "replay_corpus",
    "report_dict",
    "resolve_interconnect",
    "run_case",
    "run_pipeline",
    "run_sweep",
    "spans_to_chrome_trace",
    "synthesize",
    "system_fingerprint",
    "verify_design",
    "write_run_record",
]
