"""Monte Carlo yield, conductivity, supply sweep, timing, and retuning."""

import io
import math
from dataclasses import replace

import numpy as np
import pytest

from ftl import analysis
from ftl.analysis import (Datapath, HIST_BINS, McConfig, RetuneError,
                          SCENARIOS, SIGMA_GLOBAL, SIGMA_K, SIGMA_LOCAL,
                          YIELD_BLOCK, check_timing,
                          conductivity_map, margin_schedule, run_timing_fix,
                          vdd_sweep, write_histogram_csv, write_yield_csv,
                          yield_mc)
from ftl.device import DeviceParams, evaluate, verify_cell, worst_case_delay
from ftl.threshold import f115_table
from ftl.train import train
from ftl.truthtable import parse_truth_table
from helpers import reference_variation

F115 = f115_table()


@pytest.fixture(scope="module")
def f115_levels():
    return margin_schedule(F115, DeviceParams())


@pytest.mark.parametrize("kwargs", [{"trials": 0}, {"trials": 2**32 + 1},
                                    {"seed": -1}])
def test_mc_config_rejects_out_of_range(kwargs):
    with pytest.raises(ValueError):
        McConfig(**kwargs)


def _set_sigmas(monkeypatch, sigma_local, sigma_global, sigma_k):
    monkeypatch.setattr(analysis, "SIGMA_LOCAL", sigma_local)
    monkeypatch.setattr(analysis, "SIGMA_GLOBAL", sigma_global)
    monkeypatch.setattr(analysis, "SIGMA_K", sigma_k)


def test_yield_is_one_without_variation(monkeypatch):
    _set_sigmas(monkeypatch, 0.0, 0.0, 0.0)
    cell = train(parse_truth_table("E8", 3)).cell
    rep = yield_mc(cell, parse_truth_table("E8", 3), McConfig(trials=50))
    assert rep.yield_fraction == 1.0


def test_yield_deterministic():
    cell = train(F115).cell
    mc = McConfig(trials=200, seed=3)
    a = yield_mc(cell, F115, mc)
    b = yield_mc(cell, F115, mc)
    assert a.rows == b.rows
    assert a.yield_fraction == b.yield_fraction


def test_yield_histogram_conserved():
    cell = train(F115).cell
    rep = yield_mc(cell, F115, McConfig(trials=500))
    assert rep.hist_counts.sum() == rep.passing
    assert (rep.hist_counts >= 0).all()
    assert 0.0 <= rep.yield_fraction <= 1.0


def _check_yield_against_evaluate(monkeypatch, mc, sigma_local=SIGMA_LOCAL,
                                  sigma_global=SIGMA_GLOBAL, sigma_k=SIGMA_K):
    """yield_mc, run with these sigmas, against per-trial evaluate on the
    reference draw."""
    _set_sigmas(monkeypatch, sigma_local, sigma_global, sigma_k)
    cell = train(F115).cell
    rows, tally = [], {}
    for t in range(mc.trials):
        s = reference_variation(5, sigma_local, sigma_global, sigma_k,
                                mc.seed, t)
        results = [evaluate(cell, m, 0.0, s) for m in range(32)]
        bad = [m for m, r in enumerate(results)
               if r.metastable or r.y != F115.value(m)]
        for m in bad:
            tally[m] = tally.get(m, 0) + 1
        rows.append((t, False, math.nan) if bad
                    else (t, True, max(r.delay for r in results)))
    passing = [w for _, ok, w in rows if ok]
    counts, edges = np.histogram(passing, bins=HIST_BINS)

    rep = yield_mc(cell, F115, mc)
    assert passing
    if sigma_local or sigma_global:  # k_mult alone flips no decision
        assert len(passing) < mc.trials and tally
    assert rep.rows == rows
    assert rep.passing == len(passing)
    assert rep.fail_tally == tally
    assert np.array_equal(rep.hist_counts, counts)
    assert np.array_equal(rep.hist_edges, edges)


def test_yield_matches_per_trial_evaluate(monkeypatch):
    _check_yield_against_evaluate(
        monkeypatch, McConfig(trials=YIELD_BLOCK + 50, seed=5),
        sigma_local=0.05)


@pytest.mark.parametrize("seed, sigmas", [
    (2**32, dict(sigma_local=0.05, sigma_global=0.0)),
    (0, dict(sigma_local=0.0, sigma_global=0.05, sigma_k=0.0)),
    (1, dict(sigma_local=0.05, sigma_k=0.0)),
    (2, dict(sigma_local=0.0, sigma_global=0.0)),
], ids=["l-0-k", "0-g-0", "l-g-0", "0-0-k"])
def test_zero_sigma_layouts_match_per_trial_evaluate(monkeypatch, seed,
                                                     sigmas):
    _check_yield_against_evaluate(monkeypatch,
                                  McConfig(trials=300, seed=seed), **sigmas)


def test_robust_yield_beats_baseline(f115_levels):
    mc = McConfig(trials=2000, seed=0)
    y0 = yield_mc(f115_levels[0].result.cell, F115, mc).yield_fraction
    y1 = yield_mc(f115_levels[-1].result.cell, F115, mc).yield_fraction
    assert y1 >= y0


def test_conductivity_records(f115_levels):
    cell = f115_levels[0].result.cell
    cmap = conductivity_map(cell, F115)
    assert len(cmap.records) == 32
    assert cmap.min_onset_sep > 0
    assert cmap.min_offset_sep > 0
    for r in cmap.records:
        assert r.onset == bool(F115.value(r.minterm))


def test_conductivity_separation_improves(f115_levels):
    base = conductivity_map(f115_levels[0].result.cell, F115)
    robust = conductivity_map(f115_levels[-1].result.cell, F115)
    assert robust.min_separation > base.min_separation


def test_vgate_rule_pairs(f115_levels):
    pairs = {0.8: 0.800, 0.85: 0.825, 0.9: 0.850, 0.95: 0.875,
             1.0: 0.900, 1.05: 0.925, 1.1: 0.950}
    pts = vdd_sweep(f115_levels[-1].result.cell, F115)
    assert [p.vdd for p in pts] == list(pairs)
    assert [p.vgate for p in pts] == pytest.approx(list(pairs.values()))


def test_vdd_sweep_trends(f115_levels):
    pts = vdd_sweep(f115_levels[-1].result.cell, F115)
    assert len(pts) == 7
    assert all(p.functional for p in pts)
    delays = [p.delay for p in pts]
    powers = [p.power for p in pts]
    assert all(a > b for a, b in zip(delays, delays[1:]))
    assert all(a < b for a, b in zip(powers, powers[1:]))


def test_vdd_sweep_identity_point(f115_levels):
    """At 1.0 V the sweep drives the flash gate at 0.9 V, the trained
    cell's own vgate: no Vt moves, so the delay is the cell's own."""
    for lv in (f115_levels[0], f115_levels[-1]):
        cell = lv.result.cell
        point = vdd_sweep(cell, F115)[4]
        assert (point.vdd, point.vgate) == (1.0, cell.params.vgate)
        assert point.functional
        assert point.delay == worst_case_delay(cell, F115)


def test_check_timing_violation_arithmetic():
    dp = Datapath(launch_c2q=180e-12, comb_delay=700e-12,
                  capture_setup=67e-12, capture_hold=80e-12,
                  clock_period=1e-9, capture_skew=-60e-12)
    rep = check_timing(dp)
    assert rep.setup_slack < 0
    assert "setup" in rep.violations
    fixed = check_timing(Datapath(142e-12, 700e-12, 67e-12, 80e-12,
                                  1e-9, -60e-12))
    assert fixed.setup_slack >= 0
    assert fixed.violations == ()


def test_check_timing_zero_path():
    rep = check_timing(Datapath(0.0, 0.0, 0.0, 0.0, 1e-9, 0.0))
    assert rep.setup_slack == pytest.approx(1e-9)
    assert rep.hold_slack == pytest.approx(0.0)


def test_timing_algebra():
    base = Datapath(100e-12, 400e-12, 50e-12, 30e-12, 1e-9, 10e-12)
    bumped = Datapath(150e-12, 400e-12, 50e-12, 30e-12, 1e-9, 10e-12)
    a, b = check_timing(base), check_timing(bumped)
    assert b.setup_slack == pytest.approx(a.setup_slack - 50e-12)
    assert b.hold_slack == pytest.approx(a.hold_slack + 50e-12)


def test_margin_schedule_monotone(f115_levels):
    seps = [lv.min_separation for lv in f115_levels]
    delays = [lv.delay for lv in f115_levels]
    assert all(a < b for a, b in zip(seps, seps[1:]))
    assert all(a > b for a, b in zip(delays, delays[1:]))
    for lv in f115_levels:
        assert verify_cell(lv.result.cell, F115)


def reference_fix(levels, scenario, dp):
    """The target/direction walk that picked a timing fix before it was
    read off check_timing: setup walks the levels slowest first to the
    first delay <= the setup target, hold walks them fastest first to the
    first delay >= the hold target.  None when no level reaches it."""
    if scenario == "setup":
        target = (dp.clock_period + dp.capture_skew
                  - dp.comb_delay - dp.capture_setup)
        return next((lv for lv in levels if lv.delay <= target), None)
    target = dp.capture_hold + dp.capture_skew - dp.comb_delay
    return next((lv for lv in reversed(levels) if lv.delay >= target), None)


def skew_for_target(dp, scenario, target):
    """The capture skew that puts dp's target C2Q at target."""
    if scenario == "setup":
        return target + dp.comb_delay + dp.capture_setup - dp.clock_period
    return target + dp.comb_delay - dp.capture_hold


@pytest.mark.parametrize("vdd", [0.9, 0.8, 1.0])
@pytest.mark.parametrize("scenario", ["setup", "hold"])
def test_timing_fix_matches_target_walk(monkeypatch, vdd, scenario):
    """Targets 1 ps to either side of every level's delay, and beyond both
    ends of the ladder: check_timing picks the level the target walk
    picks, and raises where that walk finds none."""
    params = DeviceParams(vdd=vdd)
    levels = margin_schedule(F115, params)
    delays = [lv.delay for lv in levels]
    targets = [d + off for d in delays for off in (-1e-12, 1e-12)]
    targets += [min(delays) / 2, max(delays) * 2]
    shipped, picked = SCENARIOS[scenario], set()
    for target in targets:
        dp = replace(shipped,
                     capture_skew=skew_for_target(shipped, scenario, target))
        monkeypatch.setitem(SCENARIOS, scenario, dp)
        ref = reference_fix(levels, scenario, dp)
        if ref is None:
            with pytest.raises(RetuneError):
                run_timing_fix(F115, params, scenario)
            continue
        fix = run_timing_fix(F115, params, scenario)
        assert fix.cell_after == ref.result.cell
        assert fix.delay_after == ref.delay
        picked.add(ref.margin)
    assert picked == {lv.margin for lv in levels}


@pytest.mark.parametrize("scenario", ["setup", "hold"])
def test_timing_fix_start_level_already_met(monkeypatch, f115_levels,
                                            scenario):
    """The walk starts at the slowest level for setup and the fastest for
    hold; when that level already meets timing, it is the fix."""
    monkeypatch.setitem(SCENARIOS, scenario,
                        Datapath(0.0, 300e-12, 67e-12, 80e-12, 1e-9, 0.0))
    fix = run_timing_fix(F115, scenario=scenario)
    start = f115_levels[0 if scenario == "setup" else -1]
    assert fix.before.violations == ()
    assert fix.after == fix.before
    assert fix.cell_after == start.result.cell
    assert fix.delay_after == fix.delay_before == start.delay


@pytest.mark.parametrize("scenario,dp,closest", [
    ("setup", Datapath(0.0, 1e-9, 67e-12, 80e-12, 1e-9, 0.0), -1),
    ("hold", Datapath(0.0, 0.0, 67e-12, 80e-12, 1e-9, 1e-9), 0)],
    ids=["setup", "hold"])
def test_timing_fix_unreachable_reports_closest(monkeypatch, f115_levels,
                                                 scenario, dp, closest):
    monkeypatch.setitem(SCENARIOS, scenario, dp)
    with pytest.raises(RetuneError) as ei:
        run_timing_fix(F115, scenario=scenario)
    delay = f115_levels[closest].delay
    assert ei.value.closest_delay == delay
    assert f"closest achieved: {delay:.3e} s" in str(ei.value)


def test_run_timing_fix_setup():
    fix = run_timing_fix(F115, scenario="setup")
    assert "setup" in fix.before.violations
    assert fix.after.violations == ()
    assert fix.delay_after < fix.delay_before
    assert verify_cell(fix.cell_after, F115)


def test_run_timing_fix_hold():
    fix = run_timing_fix(F115, scenario="hold")
    assert "hold" in fix.before.violations
    assert fix.after.violations == ()
    assert fix.delay_after > fix.delay_before
    assert verify_cell(fix.cell_after, F115)


def test_csv_writers():
    cell = train(parse_truth_table("8", 2)).cell
    rep = yield_mc(cell, parse_truth_table("8", 2), McConfig(trials=20))
    buf = io.StringIO()
    write_yield_csv(rep, buf)
    assert buf.getvalue().splitlines()[0] == "trial,pass,worst_delay"
    buf = io.StringIO()
    write_histogram_csv(rep, buf)
    assert buf.getvalue().splitlines()[0] == "bin_lo,bin_hi,count"
