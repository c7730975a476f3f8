"""Self time from nested spans, and the worker spool."""

import pytest

from perfbench.spans import Recorder, Span, self_times


class Ticks:
    def __init__(self, *times: float) -> None:
        self.times = list(times)

    def __call__(self) -> float:
        return self.times.pop(0)


def test_self_time_subtracts_child_coverage():
    # op [0, 10] > verify [1, 6] > compile [2, 3]; op > exec [7, 9]
    rec = Recorder(clock=Ticks(0, 1, 2, 3, 6, 7, 9, 10))
    with rec.op(0):
        with rec.span("verify"):
            with rec.span("compile"):
                pass
        with rec.span("exec"):
            pass
    own = {s.name: t for s in rec.spans
           for sid, t in self_times(rec.spans).items() if sid == s.id}
    assert own == pytest.approx({"op": 3, "verify": 4, "compile": 1,
                                 "exec": 2})
    assert {s.op for s in rec.spans} == {0}
    parents = {s.name: s.parent for s in rec.spans}
    ids = {s.name: s.id for s in rec.spans}
    assert parents["compile"] == ids["verify"]
    assert parents["exec"] == parents["verify"] == ids["op"]


def test_overlapping_children_count_once_and_are_clipped():
    spans = [Span("p", "scheduler", 0.0, 10.0),
             Span("a", "job", 1.0, 5.0, parent="p"),
             Span("b", "job", 3.0, 7.0, parent="p"),
             Span("c", "job", 9.0, 12.0, parent="p")]
    # union of [1,5], [3,7], [9,10] inside [0,10] covers 7 s
    assert self_times(spans)["p"] == pytest.approx(3.0)


def test_spool_round_trip(tmp_path):
    rec = Recorder(clock=Ticks(0, 1, 2, 3))
    with rec.span("kept"):
        pass
    mark = len(rec.spans)
    with rec.span("shipped"):
        pass
    rec.spool(tmp_path, mark)
    assert [s.name for s in rec.spans] == ["kept"]
    parent = Recorder()
    assert parent.collect(tmp_path) == 1
    assert [(s.name, s.start, s.end) for s in parent.spans] == [
        ("shipped", 2, 3)]
    assert not list(tmp_path.iterdir())
