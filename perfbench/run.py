"""The repository benchmark.

    python3 perfbench/run.py --workload synth_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Runs one workload (or all three, each in its own process) as a closed loop
with one client, checks every output against ``perfbench/expected.json``
and prints each metric with its unit and sample count.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` — the end-to-end metrics, or with ``--trace 1`` the
per-layer metrics of a separate traced loop.  ``--record FILE`` appends
the result to a JSON-lines file that ``perfbench/compare.py`` reads.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: Scratch space, traces and records: inside the checkout, ignored by git.
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("synth_cold", "verify_engines", "sweep_warm")
#: ``setup_s`` is the median of the run's own set-up and this many more,
#: each in a fresh process (so import is paid every time).
SETUP_PROBES = 2
#: Calibrations right after a set-up, for its host factor.
SETUP_CALIBRATIONS = 7
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "op_s_p50": "s", "op_s_p90": "s",
                    "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def isolate() -> Path:
    """A fresh directory for the design cache (native artifacts live under
    it), metrics and temporary files; ``~/.cache`` is never touched and
    ``$REPRO_WORKERS`` is ignored (workloads pass ``workers`` explicitly)."""
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    for sub in ("designs", "metrics", "tmp", "spool"):
        (workdir / sub).mkdir()
    os.environ["REPRO_DESIGN_CACHE"] = str(workdir / "designs")
    os.environ["REPRO_METRICS_DIR"] = str(workdir / "metrics")
    os.environ["TMPDIR"] = str(workdir / "tmp")
    os.environ.pop("REPRO_WORKERS", None)
    tempfile.tempdir = None
    return workdir


def toolchain_fingerprint() -> str:
    from repro.codegen.toolchain import find_toolchain

    tc = find_toolchain()
    return tc.fingerprint if tc is not None else "none"


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its finished children
    (sweep workers, ``cc``)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def child(args: list[str], echo: bool = False) -> dict:
    """Run this script in a fresh process; its last stdout line as JSON."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           *args], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"child {args} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    if echo:
        sys.stdout.write(proc.stdout)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_loop(wl, seconds: float, **kwargs):
    from perfbench.stats import Calibration, closed_loop

    wl.begin_loop()
    kwargs.setdefault("after_op", wl.after_op)
    return closed_loop(wl.run_op, wl.items(), seconds=seconds,
                       deck_len=wl.deck_len, calibrate=Calibration(),
                       **kwargs)


def print_table(rows: list[tuple[str, float, str, int]]) -> None:
    for name, value, unit, n in rows:
        print(f"  {name:30s} {value:14.6g} {unit:9s} n={n}")


def report_loop(label: str, loop) -> None:
    print(f"{label}: {loop.attempted} ops, {loop.failed} failed, "
          f"error_rate {loop.error_rate:.6g} ({loop.failed}/"
          f"{loop.attempted}), {loop.wall_s:.3f} s timed, host factor "
          f"{loop.host_factor:.4f} ({len(loop.calibrations)} calibrations)")
    for msg in loop.failures[:10]:
        print(f"  FAILED {msg}")


def end_to_end(args, wl, setup: dict) -> dict:
    """Times are divided by the host factor of the loop (or set-up) that
    measured them; the wall-clock values are printed beside them."""
    from perfbench.stats import median, percentile

    loop = run_loop(wl, args.seconds)
    rss = peak_rss_mb()
    setups = [setup] + [
        child(["--workload", args.workload, "--seed", str(args.seed),
               "--setup-only"]) for _ in range(SETUP_PROBES)]
    report_loop(wl.name, loop)
    print("  set-up runs: " + ", ".join(
        f"{s['wall_s']:.3f} s at host factor {s['host_factor']:.4f}"
        for s in setups))
    wall = {
        "setup_s": median([s["wall_s"] for s in setups]),
        "op_s_p50": median(loop.latencies),
        "op_s_p90": percentile(loop.latencies, 0.9),
        "ops_per_s": loop.ops_per_s,
    }
    print("  wall clock: " + ", ".join(f"{k} {v:.6g}"
                                       for k, v in wall.items()))
    f = loop.host_factor
    metrics = {
        "setup_s": median([s["wall_s"] / s["host_factor"] for s in setups]),
        "op_s_p50": wall["op_s_p50"] / f,
        "op_s_p90": wall["op_s_p90"] / f,
        "ops_per_s": wall["ops_per_s"] * f,
        "peak_rss_mb": rss,
    }
    rows = [(k, v, END_TO_END_UNITS[k],
             len(setups) if k == "setup_s" else
             1 if k == "peak_rss_mb" else loop.attempted)
            for k, v in metrics.items()]
    rows.append(("error_rate", loop.error_rate, "ratio", loop.attempted))
    if loop.instances:
        rows.append(("seeds_per_s", loop.instances_per_s, "1/s",
                     loop.instances))
    print_table(rows)
    return {"correct": loop.failed == 0, "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                        for k, v in metrics.items()}}


def traced(args, wl, workdir: Path) -> dict:
    from repro import api

    from perfbench import probes
    from perfbench.spans import Recorder

    untraced = run_loop(wl, args.seconds)
    rec = Recorder()
    spool = workdir / "spool"

    def after_op(item) -> None:
        rec.collect(spool)
        wl.after_op(item)

    before = dict(api.TRACER.counters)
    with probes.installed(rec, spool):
        loop = run_loop(wl, args.seconds, op_context=rec.op,
                        after_op=after_op)
    counters = {k: v - before.get(k, 0)
                for k, v in api.TRACER.counters.items()}
    metrics = probes.layer_metrics(rec.spans, counters, loop, untraced)
    out = WORK / "traces" / f"{wl.name}-seed{args.seed}.trace.json"
    rec.write(out, {"workload": wl.name, "seed": args.seed,
                    "toolchain": toolchain_fingerprint(),
                    "ops": loop.attempted})
    report_loop(f"{wl.name} untraced", untraced)
    report_loop(f"{wl.name} traced", loop)
    print(f"  trace: {out} ({len(rec.spans)} spans)")
    units = probes.units()
    print_table([(k, v, units[k], loop.attempted)
                 for k, v in metrics.items()])
    failed = untraced.failed + loop.failed
    return {"correct": failed == 0,
            "attempted": untraced.attempted + loop.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def run_all(args) -> dict:
    """Every workload in its own process; metrics keyed ``<workload>.``."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        res = child(["--workload", name, "--seed", str(args.seed),
                     "--seconds", str(args.seconds),
                     "--trace", str(args.trace)], echo=True)
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": v
                                 for k, v in res["metrics"].items()})
    return total


def run_one(args) -> dict:
    workdir = isolate()
    try:
        from perfbench.workloads import WORKLOADS

        from perfbench.stats import Calibration, host_factor

        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.setup()
        setup_s = time.perf_counter() - T_START
        calibrate = Calibration()
        setup = {"wall_s": setup_s, "host_factor": host_factor(
            [calibrate() for _ in range(SETUP_CALIBRATIONS)])}
        if args.setup_only:
            return setup
        print(f"{wl.name}: seed {args.seed}, {args.seconds} s, "
              f"trace {args.trace}, toolchain {toolchain_fingerprint()}")
        if args.trace:
            return traced(args, wl, workdir)
        return end_to_end(args, wl, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Run the repository benchmark (see perfbench/README.md).")
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path,
                    help="append the result to this JSON-lines file")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_one(args)
    if args.record is not None:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"workload": args.workload,
                                 "seed": args.seed, "trace": args.trace,
                                 "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # in place of the script's directory: the checkout root, so that
    # ``perfbench`` is a package, and ``src``, the program
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    sys.exit(main())
