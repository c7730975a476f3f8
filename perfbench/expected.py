"""Regenerate or check ``perfbench/expected.json``.

    python3 perfbench/expected.py           # check the code against the file
    python3 perfbench/expected.py --write   # regenerate it, deliberately

Regenerate only at a commit whose designs are known good: the benchmark
treats this file as the truth and counts every mismatch as a failed op.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help="overwrite expected.json with this code's outputs")
    args = ap.parse_args(argv)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        os.environ["REPRO_DESIGN_CACHE"] = tmp
        from perfbench import catalog

        jobs = catalog.all_jobs()
        got = {}
        for job in jobs:
            got[job.id] = catalog.solve(job)
            print(f"{job.id:48s} {got[job.id]['verdict']}", flush=True)
    if args.write:
        with open(catalog.EXPECTED_PATH, "w") as fh:
            json.dump({"jobs": got}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(got)} jobs to {catalog.EXPECTED_PATH}")
        return 0
    want = catalog.load_expected()
    bad = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
    for key in bad:
        print(f"MISMATCH {key}: expected {want.get(key)}, got {got.get(key)}")
    print(f"{len(got) - len(bad)}/{len(got)} jobs match")
    return 1 if bad else 0


if __name__ == "__main__":
    # in place of the script's directory: the checkout root, so that
    # ``perfbench`` is a package, and ``src``, the program
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    sys.exit(main())
