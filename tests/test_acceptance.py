"""Acceptance gate: one criterion per test, one printed pass/fail line each.

Run with `pytest -v tests/test_acceptance.py`; the [PASS]/[FAIL] lines
appear in the captured output (the suite is configured with -s so they
stream to the terminal).
"""

import io
import statistics
import time
from pathlib import Path

import pytest

from ftl.analysis import (McConfig, conductivity_map, margin_schedule,
                          run_timing_fix, vdd_sweep, write_yield_csv,
                          yield_mc)
from ftl.device import DeviceParams, verify_cell
from ftl.mapping import (AREA_PER_FANIN, DFF_AREA, FTL_AREA, map_ftl,
                         verify_equivalence, write_cost_csv)
from ftl.netlist import parse_blif
from ftl.program import ProgrammerConfig, program_cell
from ftl.threshold import (build_catalog, check_threshold,
                           count_threshold_functions, f115_table)
from ftl.train import kmax_bound, train
from ftl.truthtable import parse_truth_table, to_positive_form

from helpers import realizes

CORPUS = "src/ftl/corpus"
MC_TRIALS = 10_000


def report(num: int, desc: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {num}: {desc}{suffix}", flush=True)
    assert ok, f"criterion {num} failed: {desc}{suffix}"


@pytest.fixture(scope="module")
def catalog():
    return build_catalog(5)


def train_all(catalog):
    return [train(to_positive_form(e.table)[0]) for e in catalog]


@pytest.fixture(scope="module")
def trained117(catalog):
    return train_all(catalog)


def f115_schedule():
    return margin_schedule(f115_table(), DeviceParams())


@pytest.fixture(scope="module")
def levels():
    return f115_schedule()


def level_yields(levels, trials=MC_TRIALS):
    mc = McConfig(trials=trials, seed=0)
    return [yield_mc(lv.result.cell, f115_table(), mc) for lv in levels]


@pytest.fixture(scope="module")
def yields(levels):
    return level_yields(levels)


def test_criterion_1_separability_counts():
    t0 = time.time()
    n2, n3 = count_threshold_functions(2), count_threshold_functions(3)
    elapsed = time.time() - t0
    ok = n2 == 14 and n3 == 104 and elapsed < 10
    report(1, "separability counts 14 (n=2) and 104 (n=3)", ok,
           f"got {n2}/{n3} in {elapsed:.1f}s")


def test_criterion_2_catalog(catalog):
    t0 = time.time()
    verified = all(realizes(e.function, e.table) for e in catalog)
    elapsed = time.time() - t0
    ok = len(catalog) == 117 and verified and elapsed < 300
    report(2, "catalog holds 117 exhaustively verified classes", ok,
           f"{len(catalog)} entries, verified={verified}, {elapsed:.1f}s")


def test_criterion_3_f115_weights():
    tf = check_threshold(f115_table())
    exact = tf is not None and (tf.weights, tf.threshold) == ((4, 1, 1, 1, 1), 5)
    xors_rejected = (check_threshold(parse_truth_table("6", 2)) is None
                     and check_threshold(parse_truth_table("96", 3)) is None)
    report(3, "F115 solves to [4,1,1,1,1; 5]; XOR2/XOR3 rejected",
           exact and xors_rejected,
           f"got {None if tf is None else (tf.weights, tf.threshold)}")


def test_criterion_4_training_coverage(catalog, trained117):
    t0 = time.time()
    converged = all(r.converged for r in trained117)
    bounds = [kmax_bound(e.n, 0.02, 0.9) for e in catalog]
    within = all(r.iterations <= b for r, b in zip(trained117, bounds))
    median_ratio = statistics.median(
        r.iterations / b for r, b in zip(trained117, bounds))
    elapsed = time.time() - t0
    ok = converged and within and median_ratio <= 0.2 and elapsed < 600
    report(4, "all 117 functions train within kmax, median >=5x below it",
           ok, f"converged={converged}, median ratio {median_ratio:.5f}")


def test_criterion_5_robustness_trend(levels, yields):
    seps = [lv.min_separation for lv in levels]
    delays = [lv.delay for lv in levels]
    fractions = [y.yield_fraction for y in yields]
    gap_up = all(a < b for a, b in zip(seps, seps[1:]))
    delay_down = all(a > b for a, b in zip(delays, delays[1:]))
    yield_mono = all(a <= b for a, b in zip(fractions, fractions[1:]))
    ok = (gap_up and delay_down and yield_mono
          and fractions[-1] >= 0.99 and fractions[0] <= 0.90)
    report(5, "margin schedule: gap up, delay down, yield "
              f"{fractions[0]:.3f}->{fractions[-1]:.3f} at 10K trials", ok)


def test_criterion_6_conductivity_separation(levels):
    base = conductivity_map(levels[0].result.cell, f115_table())
    robust = conductivity_map(levels[-1].result.cell, f115_table())
    gain = robust.min_separation / base.min_separation
    report(6, "robust F115 shortest on/off separation grows >= 10%",
           gain >= 1.10, f"gain {100 * (gain - 1):.0f}%")


def test_criterion_7_asymmetric_weights(levels):
    ok = all(all(lv.result.cell.vt[0] < v for v in lv.result.cell.vt[1:])
             for lv in levels)
    report(7, "trained F115 keeps V_1 strictly smallest at every level", ok)


def test_criterion_8_voltage_scaling(levels):
    pts = vdd_sweep(levels[-1].result.cell, f115_table())
    functional = all(p.functional for p in pts)
    delays = [p.delay for p in pts]
    powers = [p.power for p in pts]
    ok = (functional
          and all(a > b for a, b in zip(delays, delays[1:]))
          and all(a < b for a, b in zip(powers, powers[1:])))
    report(8, "0.8-1.1 V sweep stays functional, delay down, power up", ok,
           f"delay {delays[0] * 1e12:.0f}->{delays[-1] * 1e12:.0f} ps")


def test_criterion_9_timing_correction():
    setup = run_timing_fix(f115_table(), scenario="setup")
    hold = run_timing_fix(f115_table(), scenario="hold")
    ok = ("setup" in setup.before.violations and not setup.after.violations
          and verify_cell(setup.cell_after, f115_table())
          and "hold" in hold.before.violations and not hold.after.violations
          and verify_cell(hold.cell_after, f115_table()))
    report(9, "setup fixed by faster retune, hold by slower, function kept",
           ok, f"setup slack {setup.before.setup_slack * 1e12:.0f}->"
               f"{setup.after.setup_slack * 1e12:.0f} ps")


def test_criterion_10_quantization_safety(catalog, trained117):
    cfg = ProgrammerConfig()
    failures = []
    for e, r in zip(catalog, trained117):
        positive, _ = to_positive_form(e.table)
        quantized = program_cell(r.cell, cfg)
        if not verify_cell(quantized, positive):
            failures.append(e.index)
    report(10, "every catalog cell survives 10 mV program quantization",
           not failures, f"failures: {failures or 'none'}")


def run_mapping():
    designs = {}
    for name in ("fig2_hybrid", "f115_nandinv", "xor_ring"):
        nl = parse_blif(Path(f"{CORPUS}/{name}.blif").read_text())
        designs[name] = (nl, map_ftl(nl))
    return designs


def test_criterion_11_mapping_flow():
    designs = run_mapping()
    counts = {name: len(d.instances) for name, (nl, d) in designs.items()}
    expected = {"fig2_hybrid": 2, "f115_nandinv": 1, "xor_ring": 0}
    residual_ok = "co" in designs["fig2_hybrid"][1].netlist.outputs
    equiv = all(verify_equivalence(nl, d).equivalent
                for nl, d in designs.values())
    cost_ok = True
    for nl, d in designs.values():
        removed = set(nl.gates) - set(d.netlist.gates)
        delta = (sum(AREA_PER_FANIN * max(1, nl.gates[g].fanin)
                     for g in removed)
                 + DFF_AREA * len(d.instances) - FTL_AREA * len(d.instances))
        cost_ok &= abs((d.cost.area_before - d.cost.area_after) - delta) < 1e-9
    ok = counts == expected and residual_ok and equiv and cost_ok
    report(11, "corpus maps 2/1/0 cones with exact costs and equivalence",
           ok, f"counts {counts}, equivalent={equiv}")


def iterations_csv(catalog, results):
    buf = io.StringIO()
    buf.write("index,iterations,converged\n")
    for e, r in zip(catalog, results):
        buf.write(f"{e.index},{r.iterations},{int(r.converged)}\n")
    return buf.getvalue()


def test_criterion_12_determinism(catalog, trained117, levels, yields):
    runs_4 = [iterations_csv(catalog, trained117),
              iterations_csv(catalog, train_all(catalog))]
    def yield_csv(reports):
        buf = io.StringIO()
        for rep in reports:
            write_yield_csv(rep, buf)
        return buf.getvalue()
    runs_5 = [yield_csv(yields), yield_csv(level_yields(f115_schedule()))]
    def cost_csv():
        buf = io.StringIO()
        for _, design in run_mapping().values():
            write_cost_csv(design, buf)
        return buf.getvalue()
    runs_11 = [cost_csv(), cost_csv()]
    ok = (runs_4[0] == runs_4[1] and runs_5[0] == runs_5[1]
          and runs_11[0] == runs_11[1])
    report(12, "criteria 4/5/11 reruns produce byte-identical CSVs", ok)
