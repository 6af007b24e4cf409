"""Layer probes on fixed inputs, reproducing the ROADMAP baseline table.

Each probe times one layer directly with `perf_counter`, outside any
workload.  Probes too slow to run on every traced run are listed as
skipped, with the figure the ROADMAP baseline recorded for them.
"""

from __future__ import annotations

import importlib
import statistics
from pathlib import Path
from time import perf_counter

SKIPPED = [
    {"probe": "train_robust(f115)", "roadmap_s": 15.0,
     "why": "the 0.20 S level runs to kmax"},
    {"probe": "check_threshold reject ab+cd+ef (n=6)", "roadmap_s": 79.0,
     "why": "walks every weight vector up to 6 x 16"},
    {"probe": "count_threshold_functions(4)", "roadmap_s": 33.0,
     "why": "one rejecting check per non-threshold table"},
]


def _per_call(fn, calls: int, repeats: int = 5) -> float:
    """Median over repeats of the mean seconds per call."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - t0) / calls)
    return statistics.median(times)


def _once(fn):
    t0 = perf_counter()
    result = fn()
    return perf_counter() - t0, result


def run(root: Path, stored_catalog) -> tuple[dict, list[str]]:
    """Returns (metric name -> value, list of failed sanity checks)."""
    m = {name: importlib.import_module(f"ftl.{name}") for name in
         ("analysis", "device", "mapping", "netlist", "threshold", "train",
          "truthtable")}
    th, dev, tr, an = m["threshold"], m["device"], m["train"], m["analysis"]
    TruthTable = m["truthtable"].TruthTable
    f115 = th.f115_table()
    bad: list[str] = []
    out: dict[str, float] = {}

    cell = tr.train(f115).cell
    sample = dev.sample_variation(5, 0.02, 0.012, 0.05, 0, 0)
    out["probe.evaluate_us"] = 1e6 * _per_call(
        lambda: dev.evaluate(cell, 19, 0.0, sample), 2000)
    out["probe.sample_variation_us"] = 1e6 * _per_call(
        lambda: dev.sample_variation(5, 0.02, 0.012, 0.05, 0, 7), 500)

    out["probe.check_threshold_accept_ms"] = 1e3 * _per_call(
        lambda: th.check_threshold(f115), 20)
    tf = th.check_threshold(f115)
    if tf is None or tf.weights != (4, 1, 1, 1, 1) or tf.threshold != 5:
        bad.append("f115_weights")
    ab_cde = 0
    for x in range(32):
        if (x & 3) == 3 or (x & 28) == 28:
            ab_cde |= 1 << x
    out["probe.check_threshold_reject_s"], tf = _once(
        lambda: th.check_threshold(TruthTable(5, ab_cde)))
    if tf is not None:
        bad.append("ab_cde_rejected")

    out["probe.build_catalog_s"], entries = _once(lambda: th.build_catalog(5))
    if [(e.n, e.table.bits) for e in entries] != stored_catalog:
        bad.append("catalog")
    out["probe.canonicalize_np_ms"] = 1e3 * _per_call(
        lambda: th.canonicalize_np(f115), 50)

    n101, bits101 = stored_catalog[101]
    positive, _ = m["truthtable"].to_positive_form(TruthTable(n101, bits101))
    out["probe.train_cat101_s"], r = _once(lambda: tr.train(positive))
    if not r.converged:
        bad.append("train_cat101")

    mc = an.McConfig(trials=10_000, seed=0)
    out["probe.yield_mc_10k_s"], rep = _once(lambda: an.yield_mc(cell, f115, mc))
    if not 0.0 < rep.yield_fraction < 1.0:
        bad.append("yield_mc_10k")

    text = (root / "src" / "ftl" / "corpus" / "fig2_hybrid.blif").read_text()
    nl = m["netlist"].parse_blif(text)
    out["probe.map_fig2_hybrid_s"], design = _once(
        lambda: m["mapping"].map_ftl(nl, k=5))
    if len(design.instances) != 2:
        bad.append("map_fig2_hybrid")
    return out, bad
