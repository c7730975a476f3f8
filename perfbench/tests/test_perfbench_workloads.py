"""Seeded inputs, expected outputs and the benchmark's declared metrics."""

import itertools
import json
from collections import Counter
from pathlib import Path

import pytest

from perfbench import catalog, probes, run
from perfbench.stats import OpFailure
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _take(name, seed, n, tmp_path):
    wl = WORKLOADS[name](seed, tmp_path, expected={})
    return wl, list(itertools.islice(wl.items(), n))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_jobs_and_inputs(name, tmp_path):
    wl, first = _take(name, 7, 60, tmp_path)
    assert _take(name, 7, 60, tmp_path)[1] == first
    assert _take(name, 8, 60, tmp_path)[1] != first


#: What an op does, without its input instances.
OP_KIND = {"synth_cold": lambda item: item[0],
           "verify_engines": lambda item: item[:2]}


@pytest.mark.parametrize("name", sorted(OP_KIND))
def test_every_deck_holds_the_same_ops(name, tmp_path):
    def decks(seed):
        wl = WORKLOADS[name](seed, tmp_path, expected={})
        items = [OP_KIND[name](item) for item in
                 itertools.islice(wl.items(), 2 * wl.deck_len)]
        return (Counter(items[:wl.deck_len]), Counter(items[wl.deck_len:]),
                items)

    a1, a2, a = decks(1)
    b1, b2, b = decks(2)
    assert a1 == a2 == b1 == b2
    assert a != b                      # same ops, another order


def test_every_drawable_job_has_an_expected_output():
    expected = catalog.load_expected()
    assert {job.id for job in catalog.all_jobs()} <= set(expected)
    assert all(v["verdict"] == "ok" or v["digest"] is None
               for v in expected.values())


def test_check_fails_wrong_verdict_digest_and_unknown_job():
    job = catalog.Job.of("dp", "fig1", {"n": 8})
    payload = {"system": "dp", "params": {"n": 8}}
    expected = {job.id: {"verdict": "ok",
                         "digest": catalog.payload_digest(payload)}}
    catalog.check(expected, job, "ok", payload)
    with pytest.raises(OpFailure, match="verdict"):
        catalog.check(expected, job, "NoSpaceMapExists", None)
    with pytest.raises(OpFailure, match="digest"):
        catalog.check(expected, job, "ok", {**payload, "params": {"n": 9}})
    with pytest.raises(OpFailure, match="no expected"):
        catalog.check({}, job, "ok", payload)


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        probes.units()
    assert [w["name"] for w in spec["workloads"]] == \
        list(run.WORKLOAD_NAMES) == list(WORKLOADS)
