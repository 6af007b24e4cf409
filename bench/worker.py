"""One benchmark pass in a fresh interpreter, started by run.py.

Modes: `pass` sets up the workload's inputs, runs the timed section (traced
or not), checks every unit and prints one JSON line; `setup` stops once the
inputs are ready; `probes` runs the fixed-input layer probes.  Set-up time
is measured from `--t0`, the launcher's CLOCK_MONOTONIC reading taken just
before it started this interpreter.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402  (needs the path above)


def _references(workload: str, seed: int, units,
                seed_free: tuple) -> tuple[int, int]:
    """Compare each unit's output digest with the digest recorded for this
    seed; returns (compared, without a recorded reference)."""
    path = BENCH / "refs.json"
    refs = json.loads(path.read_text()).get(workload, {}) if path.exists() \
        else {}
    fixed = refs.get("fixed", {})
    seeded = refs.get("seeded", {}).get(str(seed), {})
    compared = missing = 0
    for unit in units:
        if unit.error is not None:
            continue
        free = unit.uid.startswith(seed_free)
        want = (fixed if free else seeded).get(unit.uid)
        if want is None:
            missing += 1
            continue
        compared += 1
        if want != unit.digest():
            unit.fail("reference_mismatch")
    return compared, missing


def _timings(rec, speed, run_s: float) -> tuple[list, list, float]:
    """Raw and reference-speed op seconds, and the reference-speed run
    time.  Each unit is restated with the host speed sampled around it;
    time between units (the benchmark's own loop) with the pass median."""
    raw, norm, run_norm, inside = [], [], 0.0, 0.0
    for u in rec.units:
        net = u.end - u.start - speed.spent(u.start, u.end)
        inside += net
        scaled = net * speed.scale(u.start, u.end)
        run_norm += scaled
        if u.is_op:
            raw.append([u.uid, net])
            norm.append(scaled)
    outside = max(0.0, run_s - inside)
    run_norm += outside * hostspeed.CAL_REFERENCE_S / speed.median_loop_s()
    return raw, norm, run_norm


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("pass", "setup", "probes"),
                    required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--spans", default="")
    args = ap.parse_args()

    import flows
    if args.mode == "probes":
        import probes
        values, bad = probes.run(ROOT, flows.stored_catalog(ROOT))
        print(json.dumps({"probes": values, "failed": bad,
                          "skipped": probes.SKIPPED}))
        return
    setup, run, check = flows.WORKLOADS[args.workload]
    inputs = setup(args.seed, ROOT)
    setup_s = time.monotonic() - args.t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    rec = flows.Recorder()
    speed = hostspeed.HostSpeed()
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    speed.start()
    t0 = time.perf_counter()
    if tracer is not None:
        with tracer.root():
            run(inputs, rec)
    else:
        run(inputs, rec)
    t1 = time.perf_counter()
    speed.stop()
    if tracer is not None:
        tracer.uninstall()
    sampled = speed.spent(t0, t1)
    run_s = t1 - t0 - sampled
    ops, ops_norm, run_norm_s = _timings(rec, speed, run_s)

    tallies: dict[str, int] = {}
    check(inputs, rec, tallies)
    compared, missing = _references(args.workload, args.seed, rec.units,
                                    flows.SEED_FREE[args.workload])
    import ftl
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "run_norm_s": run_norm_s,
        "sampled_s": sampled,
        "ops_norm": ops_norm,
        "size": inputs["size"],
        "ftl_version": ftl.__version__,
        "ops": ops,
        "loop_ms": 1e3 * speed.median_loop_s(),
        "units": len(rec.units),
        "failed": [[u.uid, u.failures, u.error] for u in rec.units
                   if u.failures],
        "digests": {u.uid: u.digest() for u in rec.units if u.error is None},
        "tallies": tallies,
        "references": {"compared": compared, "missing": missing},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
