"""Benchmark launcher.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload of the `ftl` library from the checkout's `src/`.  Every
pass of a workload is a fresh interpreter (bench/worker.py), as every CLI
command is, so each pass pays import and module-level caches.  The loop is
closed: one caller, one process at a time, BLAS/OpenMP pinned to one
thread.  Passes repeat while another one of the mean length so far still
ends within `--seconds`; at least one pass always runs.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs untraced and
traced passes (half the time each) plus the layer probes and prints the
per-layer metrics.  Every unit of work is checked on every run.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  The full record goes to bench/out/.  See bench/RATIONALE.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from hostspeed import CAL_REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("cell-yield", "catalog-train", "netlist-map")
MIN_SETUPS = 7
DEADLINE_S = 170.0  # the whole run, set-ups and checks included
TAIL_LADDER = (50, 75, 80, 90, 95, 99, 99.9)


class BenchError(Exception):
    pass


def _worker(mode: str, args, trace: int = 0, spans: str = "",
            started: float = 0.0) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining < 5:
        raise BenchError("out of time before the next worker")
    cmd = [sys.executable, str(BENCH / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(trace), "--spans", spans,
           "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _passes(args, budget: float, started: float, trace: int) -> list[dict]:
    out = []
    t0 = time.monotonic()
    while True:
        spans = ""
        if trace:
            spans = str(OUT / f"spans-{args.workload}-seed{args.seed}-"
                              f"pass{len(out)}.json")
        out.append(_worker("pass", args, trace, spans, started))
        elapsed = time.monotonic() - t0
        if elapsed + elapsed / len(out) > budget:
            return out


def _percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    k = (len(s) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def _tail_percentile(ops_per_pass: int) -> float | None:
    """Highest percentile of the ladder with at least ten samples beyond it
    in a single pass, so it does not change with the number of passes."""
    fitting = [p for p in TAIL_LADDER if ops_per_pass * (100 - p) / 100 >= 10]
    return max(fitting) if fitting else None


def _run_record(args, ftl_version: str) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "not installed"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "click": version("click"), "ftl": ftl_version,
            "commit": _commit(), "nproc": os.cpu_count(), "cpu": cpu,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _failures(passes: list[dict]) -> tuple[int, int, dict]:
    """(attempted units, failed units, reason -> count); a unit whose
    digest differs between passes of the same seed is nondeterministic."""
    attempted = failed = 0
    reasons: dict[str, int] = {}
    first = passes[0]["digests"]
    for p in passes:
        attempted += p["units"]
        bad = {uid: list(why) for uid, why, _ in p["failed"]}
        for uid, digest in p["digests"].items():
            if first.get(uid) != digest:
                bad.setdefault(uid, []).append("nondeterministic")
        failed += len(bad)
        for why in bad.values():
            for r in why:
                reasons[r] = reasons.get(r, 0) + 1
    return attempted, failed, reasons


def _known(passes: list[dict]) -> dict:
    out: dict[str, int] = {}
    for p in passes:
        for k, v in p["tallies"].items():
            out[k] = out.get(k, 0) + v
    return out


def _timings(passes: list[dict]) -> dict:
    """Run and op times of a set of passes, raw and normalized to the
    reference host speed (see worker._normalized), plus the median
    calibration time, which shows the speed the host gave the run."""
    tail_p = _tail_percentile(min(len(p["ops"]) for p in passes))
    out = {"tail_p": tail_p, "passes": len(passes),
           "cal_ms": statistics.median(p["loop_ms"] for p in passes)}
    for tag, run_key, ops in (
            ("", "run_s", [s for p in passes for _, s in p["ops"]]),
            ("_norm", "run_norm_s", [s for p in passes for s in p["ops_norm"]])):
        out[f"run{tag}_s"] = statistics.median(p[run_key] for p in passes)
        out[f"op_p50{tag}_ms"] = 1e3 * statistics.median(ops)
        out[f"op_tail{tag}_ms"] = 1e3 * _percentile(ops, tail_p)
        out["ops"] = len(ops)
    return out


def end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, list]:
    t = _timings(passes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_norm_s": (t["run_norm_s"], "s"),
        "op_p50_norm_ms": (t["op_p50_norm_ms"], "ms"),
        "op_tail_norm_ms": (t["op_tail_norm_ms"], "ms"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
    }
    n, p = t["ops"], f"p{t['tail_p']:g}"
    notes = [
        ("setup_s", f"median of {len(setups)} set-ups"),
        ("run_norm_s", f"median of {len(passes)} passes; per pass: "
                       f"{passes[0]['size']}"),
        ("op_p50_norm_ms", f"{n} ops"),
        ("op_tail_norm_ms", f"{p} of {n} ops"),
        ("peak_rss_mb", f"max of {len(passes)} passes"),
        ("raw run_s", f"{t['run_s']:.6g} s, median of {len(passes)} passes"),
        ("raw op_p50_ms", f"{t['op_p50_ms']:.6g} ms, {n} ops"),
        ("raw op_tail_ms", f"{t['op_tail_ms']:.6g} ms, {p} of {n} ops"),
        ("host", f"speed loop median {t['cal_ms']:.4g} ms "
                 f"(reference {1e3 * CAL_REFERENCE_S:g} ms)"),
    ]
    return metrics, notes


# Per-layer metrics: name -> (unit, how to read it from a traced pass).
def _span(name, field):
    return lambda t: t[field].get(name, 0)


def _extra(key):
    return lambda t: t["extra"].get(key, 0)


def _ratio(num, den):
    def f(t):
        d = den(t)
        return num(t) / d if d else 0.0
    return f


def _layer_self(layer):
    return lambda t: sum(v for k, v in t["self_s"].items()
                         if k.split(".", 1)[0] == layer)


_calls = lambda n: _span(n, "calls")  # noqa: E731
_self = lambda n: _span(n, "self_s")  # noqa: E731

PER_LAYER = {
    "threshold.check_threshold.calls": ("count", _calls("threshold.check_threshold")),
    "threshold.check_threshold.accepted": ("count", _extra("threshold.check_threshold.accepted")),
    "threshold.check_threshold.accept_s": ("s", _extra("threshold.check_threshold.accept_s")),
    "threshold.check_threshold.reject_s": ("s", _extra("threshold.check_threshold.reject_s")),
    "threshold.check_threshold.distinct_ratio": ("ratio", _ratio(lambda t: t["distinct_tables"], _calls("threshold.check_threshold"))),
    "threshold.canonicalize_np.calls": ("count", _calls("threshold.canonicalize_np")),
    "threshold.canonicalize_np.self_s": ("s", _self("threshold.canonicalize_np")),
    "threshold.build_catalog.calls": ("count", _calls("threshold.build_catalog")),
    "threshold.build_catalog.self_s": ("s", _self("threshold.build_catalog")),
    "device.evaluate.calls": ("count", _extra("device.evaluate.calls")),
    "device.sample_variation.calls": ("count", _calls("device.sample_variation")),
    "device.sample_variation.self_s": ("s", _self("device.sample_variation")),
    "device.verify_cell.calls": ("count", _calls("device.verify_cell")),
    "device.verify_cell.self_s": ("s", _self("device.verify_cell")),
    "device.worst_case_delay.calls": ("count", _calls("device.worst_case_delay")),
    "device.worst_case_delay.self_s": ("s", _self("device.worst_case_delay")),
    "analysis.yield_mc.calls": ("count", _calls("analysis.yield_mc")),
    "analysis.yield_mc.self_s": ("s", _self("analysis.yield_mc")),
    "analysis.yield_mc.trials": ("count", _extra("analysis.yield_mc.trials")),
    "analysis.yield_mc.trials_per_s": ("1/s", _ratio(_extra("analysis.yield_mc.trials"), _span("analysis.yield_mc", "total_s"))),
    "analysis.margin_schedule.calls": ("count", _calls("analysis.margin_schedule")),
    "analysis.margin_schedule.self_s": ("s", _self("analysis.margin_schedule")),
    "analysis.margin_schedule.levels": ("count", _extra("analysis.margin_schedule.levels")),
    "analysis.vdd_sweep.self_s": ("s", _self("analysis.vdd_sweep")),
    "analysis.conductivity_map.self_s": ("s", _self("analysis.conductivity_map")),
    "analysis.run_timing_fix.self_s": ("s", _self("analysis.run_timing_fix")),
    "train.train.calls": ("count", _calls("train.train")),
    "train.train.self_s": ("s", _self("train.train")),
    "train.train.iterations": ("count", _extra("train.train.iterations")),
    "train.train.epochs": ("count", _extra("train.train.epochs")),
    "train.train.converged_ratio": ("ratio", _ratio(_extra("train.train.converged"), _calls("train.train"))),
    "train._train_from.calls": ("count", _calls("train._train_from")),
    "train._train_from.self_s": ("s", _self("train._train_from")),
    "program.program_cell.calls": ("count", _calls("program.program_cell")),
    "program.program_cell.self_s": ("s", _self("program.program_cell")),
    "netlist.parse_blif.self_s": ("s", _self("netlist.parse_blif")),
    "netlist.enumerate_cuts.calls": ("count", _calls("netlist.enumerate_cuts")),
    "netlist.enumerate_cuts.self_s": ("s", _self("netlist.enumerate_cuts")),
    "netlist.enumerate_cuts.cuts": ("count", _extra("netlist.enumerate_cuts.cuts")),
    "netlist.cut_function.calls": ("count", _calls("netlist.cut_function")),
    "netlist.cut_function.self_s": ("s", _self("netlist.cut_function")),
    "netlist.Netlist.step.calls": ("count", _calls("netlist.Netlist.step")),
    "netlist.Netlist.step.self_s": ("s", _self("netlist.Netlist.step")),
    "mapping.map_ftl.calls": ("count", _calls("mapping.map_ftl")),
    "mapping.map_ftl.self_s": ("s", _self("mapping.map_ftl")),
    "mapping.map_ftl.replacements": ("count", _extra("mapping.map_ftl.replacements")),
    "mapping.map_ftl.checks_per_replacement": ("ratio", _ratio(_extra("mapping.map_ftl.checks"), _extra("mapping.map_ftl.replacements"))),
    "mapping.verify_equivalence.calls": ("count", _calls("mapping.verify_equivalence")),
    "mapping.verify_equivalence.self_s": ("s", _self("mapping.verify_equivalence")),
    "mapping.verify_equivalence.stimuli": ("count", _extra("mapping.verify_equivalence.stimuli")),
    "mapping.export_mapped_blif.self_s": ("s", _self("mapping.export_mapped_blif")),
    "truthtable.to_positive_form.calls": ("count", _calls("truthtable.to_positive_form")),
    "truthtable.to_positive_form.self_s": ("s", _self("truthtable.to_positive_form")),
}
for _layer in ("threshold", "device", "analysis", "train", "program",
               "netlist", "mapping", "truthtable", "bench"):
    PER_LAYER[f"layer.{_layer}.self_s"] = ("s", _layer_self(_layer))

# Metrics that read a traced function; absent when that function is.
_SOURCE = {name: name.rsplit(".", 1)[0] for name in PER_LAYER
           if not name.startswith("layer.")}
PROBES = {
    "probe.evaluate_us": "us", "probe.sample_variation_us": "us",
    "probe.check_threshold_accept_ms": "ms",
    "probe.check_threshold_reject_s": "s", "probe.canonicalize_np_ms": "ms",
    "probe.build_catalog_s": "s", "probe.train_cat101_s": "s",
    "probe.yield_mc_10k_s": "s", "probe.map_fig2_hybrid_s": "s",
}


def per_layer(untraced: list[dict], traced: list[dict], probes: dict,
              known: dict) -> tuple[dict, list]:
    metrics = {}
    absent = set(traced[0]["trace"]["absent"])
    for name, (unit, read) in PER_LAYER.items():
        if _SOURCE.get(name) in absent:
            metrics[name] = (None, unit)
            continue
        metrics[name] = (statistics.median(read(p["trace"]) for p in traced),
                         unit)
    raw = _timings(untraced)
    metrics["raw.run_s"] = (raw["run_s"], "s")
    metrics["raw.op_p50_ms"] = (raw["op_p50_ms"], "ms")
    metrics["raw.op_tail_ms"] = (raw["op_tail_ms"], "ms")
    metrics["host.cal_ms"] = (raw["cal_ms"], "ms")
    run_u = raw["run_s"]
    run_t = statistics.median(p["run_s"] for p in traced)
    # Spans also hold the host-speed samples, which run_s excludes.
    accounted = statistics.median(
        sum(p["trace"]["self_s"].values()) / (p["run_s"] + p["sampled_s"])
        for p in traced)
    metrics["trace.untraced_run_s"] = (run_u, "s")
    metrics["trace.run_s"] = (run_t, "s")
    metrics["trace.overhead_s"] = (run_t - run_u, "s")
    metrics["trace.accounted_frac"] = (accounted, "ratio")
    metrics["check.reset_init_lost"] = (
        known.get("known_defect_reset_init_lost", 0) / len(untraced + traced),
        "count")
    for name, unit in PROBES.items():
        metrics[name] = (probes.get(name), unit)
    notes = [("trace", f"median of {len(traced)} traced and {len(untraced)} "
                       f"untraced passes; per pass: {traced[0]['size']}"),
             ("absent", ", ".join(sorted(absent)) or "none")]
    return metrics, notes


def _print_report(record, metrics, notes, attempted, failed, reasons, known,
                  refs, extra_lines=()):
    print(f"ftl benchmark: workload {record['workload']}, seed "
          f"{record['seed']}, trace {record['trace']}")
    print("run record: " + ", ".join(f"{k} {v}" for k, v in record.items()
                                     if k not in ("workload", "seed")))
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:44s} {shown:>14s} {unit}")
    for name, note in notes:
        print(f"  [{name}] {note}")
    frac = failed / attempted if attempted else 0.0
    print(f"  {'ops_failed_frac':44s} {frac:>14.6g} ratio "
          f"({failed} of {attempted} units; "
          + (", ".join(f"{k} {v}" for k, v in sorted(reasons.items()))
             or "no failures") + ")")
    print(f"  known defects (not counted as failures): "
          + (", ".join(f"{k} {v}" for k, v in sorted(known.items()))
             or "none"))
    print(f"  references: {refs['compared']} digests compared, "
          f"{refs['missing']} without a recorded reference for this seed")
    for line in extra_lines:
        print("  " + line)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "ftl" / "__init__.py").is_file():
        print(f"no ftl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    OUT.mkdir(exist_ok=True)

    try:
        if args.trace:
            untraced = _passes(args, args.seconds / 2, started, 0)
            traced = _passes(args, args.seconds / 2, started, 1)
            probe = _worker("probes", args, started=started)
            passes = untraced + traced
        else:
            passes = _passes(args, args.seconds, started, 0)
            setups = [p["setup_s"] for p in passes]
            while len(setups) < MIN_SETUPS:
                setups.append(
                    _worker("setup", args, started=started)["setup_s"])
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    attempted, failed, reasons = _failures(passes)
    known = _known(passes)
    refs = {k: sum(p["references"][k] for p in passes)
            for k in ("compared", "missing")}
    record = _run_record(args, passes[0]["ftl_version"])
    extra = []
    if args.trace:
        metrics, notes = per_layer(untraced, traced, probe["probes"], known)
        attempted += len(PROBES)
        failed += len(probe["failed"])
        for name in probe["failed"]:
            reasons[f"probe_{name}"] = 1
        extra = [f"skipped probe {s['probe']}: ROADMAP {s['roadmap_s']} s "
                 f"({s['why']})" for s in probe["skipped"]]
    else:
        metrics, notes = end_to_end(passes, setups)

    _print_report(record, metrics, notes, attempted, failed, reasons, known,
                  refs, extra)
    full = {"record": record, "metrics": metrics, "notes": notes,
            "attempted": attempted, "failed": failed, "reasons": reasons,
            "known_defects": known, "references": refs,
            "passes": [{k: v for k, v in p.items() if k != "digests"}
                       for p in passes]}
    if args.trace:
        full["probes"] = probe
    else:
        full["setups"] = setups
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(full, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
