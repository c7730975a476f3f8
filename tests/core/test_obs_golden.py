"""Byte-for-byte golden outputs over one fixed RunRecord.

``tests/data/golden_run_record.json`` holds a RunRecord with counters,
timers, a nested span tree, machine statistics, per-job samples and an
``extra["telemetry"]`` registry wire (gauges and histograms).  Every
report rendered from it is compared with committed text under
``tests/data/golden/``:

* ``record_render.txt`` — :meth:`RunRecord.render`, the ``--stats``-style
  replay of ``repro trace --from-record``;
* ``collapsed.txt`` — :func:`collapsed_stacks`, the ``repro profile``
  flamegraph export;
* ``prometheus.txt`` — :func:`render_prometheus` over the registry
  rebuilt from ``extra["telemetry"]``;
* ``report.txt`` — :func:`render_report`, the ``repro report`` text.

Any refactor of the tracer, the metrics registry or the record format
must leave all four byte-identical.  The expected files are never
regenerated to make a change pass.
"""

from pathlib import Path

import pytest

from repro.obs import (
    MetricsRegistry,
    Span,
    collapsed_stacks,
    load_run_record,
    render_prometheus,
)
from repro.report.analytics import render_report

DATA = Path(__file__).resolve().parent.parent / "data"
GOLDEN = DATA / "golden"


@pytest.fixture(scope="module")
def record():
    return load_run_record(DATA / "golden_run_record.json")


def _expected(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def _registry(record) -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.merge_wire(record.extra["telemetry"])
    return registry


def test_record_render(record):
    assert record.render() + "\n" == _expected("record_render.txt")


def test_collapsed_stacks(record):
    spans = [Span.from_dict(s) for s in record.spans]
    assert collapsed_stacks(spans) + "\n" == _expected("collapsed.txt")


def test_prometheus_from_telemetry(record):
    assert render_prometheus(_registry(record)) == \
        _expected("prometheus.txt")


def test_report(record):
    assert render_report([record]) + "\n" == _expected("report.txt")
