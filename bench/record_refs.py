"""Record the reference output digests the benchmark compares against.

    python3 bench/record_refs.py --seeds 0-19

Runs one untraced pass per workload and seed and writes bench/refs.json.
Digests of seed-independent units (see flows.SEED_FREE) are stored once
and must agree across every recorded seed.  Re-record only when a change
is meant to alter the library's outputs, and say so where the change is
described.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from types import SimpleNamespace

import flows
import run


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="0-19", help="inclusive range a-b")
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    path = run.BENCH / "refs.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    for workload in args.workload or run.WORKLOADS:
        fixed: dict[str, str] = {}
        seeded: dict[str, dict[str, str]] = {}
        for seed in range(lo, hi + 1):
            ns = SimpleNamespace(workload=workload, seed=seed)
            result = run._worker("pass", ns, started=time.monotonic())
            if result["failed"]:
                print(f"{workload} seed {seed}: failed units "
                      f"{result['failed'][:3]}", file=sys.stderr)
                return 1
            seeded[str(seed)] = {}
            for uid, digest in result["digests"].items():
                if uid.startswith(flows.SEED_FREE[workload]):
                    if fixed.setdefault(uid, digest) != digest:
                        print(f"{workload}: {uid} depends on the seed",
                              file=sys.stderr)
                        return 1
                else:
                    seeded[str(seed)][uid] = digest
            print(f"{workload} seed {seed}: {len(result['digests'])} digests")
        refs[workload] = {"fixed": fixed, "seeded": seeded}
    path.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
