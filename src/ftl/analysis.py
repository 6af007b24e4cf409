"""Monte Carlo yield, delay distributions, conductivity-space export,
supply-voltage sweeps, and single-path timing checks.  A post-fab
timing fix is the first margin_schedule level that check_timing passes.

The variation sigmas SIGMA_LOCAL, SIGMA_GLOBAL and SIGMA_K are constants,
calibrated once so that the margin-0 trained F115 reference cell yields
well below 1.0 while the top of the robustness schedule clears 0.99;
absolute yield figures are not a target.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .device import (
    DeviceParams,
    FtlCell,
    _same_inputs,
    conductances,
    minterm_checks,
    model_power,
    sample_variation,
    verify_cell,
    worst_case_delay,
)
from .train import TrainConfig, TrainResult, TrainingError, _train_from, train
from .truthtable import TruthTable


SIGMA_LOCAL = 0.020  # volts, per-device Vt shift
SIGMA_GLOBAL = 0.012  # volts, Vt shift shared by every device of a trial
SIGMA_K = 0.05  # log-normal spread of the conductance multiplier


@dataclass(frozen=True)
class McConfig:
    trials: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.trials <= 2**32:  # trial indices fit in 32 bits
            raise ValueError("trials must lie in 1..2^32")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class YieldReport:
    trials: int
    passing: int
    yield_fraction: float
    hist_edges: np.ndarray  # seconds, len = HIST_BINS + 1
    hist_counts: np.ndarray  # over passing trials
    fail_tally: dict[int, int]  # minterm -> number of failing trials
    rows: list[tuple[int, bool, float]]  # (trial, pass, worst_delay)


YIELD_BLOCK = 4096  # trials per kernel call; 1 MB per array at n = 5
HIST_BINS = 20  # delay histogram bins over the passing trials


def yield_mc(cell: FtlCell, tt: TruthTable, mc: McConfig) -> YieldReport:
    """One variation sample per trial; a trial passes iff every minterm
    matches tt with no metastable flag.  Per-trial delay is the max
    finite evaluate delay (worst-case C2Q).  Trial t is drawn from the
    SeedSequence((mc.seed, t)) stream, as sample_variation(..., t) alone
    would draw it, one block of YIELD_BLOCK trials at a time."""
    fail_counts = np.zeros(tt.size, dtype=np.int64)
    rows = []
    for start in range(0, mc.trials, YIELD_BLOCK):
        trials = range(start, min(start + YIELD_BLOCK, mc.trials))
        block = sample_variation(cell.n, SIGMA_LOCAL, SIGMA_GLOBAL, SIGMA_K,
                                 mc.seed, trials)
        miss, worst = minterm_checks(cell, tt, block)
        fail_counts += miss.sum(axis=0)
        rows += [(t, False, math.nan) if bad else (t, True, w)
                 for t, bad, w in zip(trials, miss.any(axis=1), worst)]
    passing_delays = [w for _, ok, w in rows if ok]
    # With no passing trial, numpy's bins span [0, 1] and count nothing.
    counts, edges = np.histogram(passing_delays, bins=HIST_BINS)
    passing = len(passing_delays)
    fail_tally = {m: int(c) for m, c in enumerate(fail_counts) if c}
    return YieldReport(mc.trials, passing, passing / mc.trials,
                       edges, counts, fail_tally, rows)


@dataclass(frozen=True)
class ConductivityRecord:
    minterm: int
    g_left: float
    g_right: float
    onset: bool


@dataclass
class ConductivityMap:
    records: list[ConductivityRecord]
    min_onset_sep: float  # min over on-set of G_L - G_R
    min_offset_sep: float  # min over off-set of G_R - G_L

    @property
    def min_separation(self) -> float:
        return min(self.min_onset_sep, self.min_offset_sep)


def conductivity_map(cell: FtlCell, tt: TruthTable) -> ConductivityMap:
    """Nominal (no-variation) conductance pair of every minterm."""
    _same_inputs(cell, tt)
    g_left, g_right = (g[0] for g in conductances(cell))
    onset = np.array(tt.values(), dtype=bool)
    records = [ConductivityRecord(m, float(gl), float(gr), bool(on))
               for m, (gl, gr, on) in enumerate(zip(g_left, g_right, onset))]
    on_sep = (g_left - g_right)[onset].min(initial=math.inf)
    off_sep = (g_right - g_left)[~onset].min(initial=math.inf)
    return ConductivityMap(records, float(on_sep), float(off_sep))


# Supplies of the sweep; the flash gate drive pairs with each as
# vgate = 0.4 + 0.5 * vdd (0.8 -> 0.8 ... 1.1 -> 0.95).
SWEEP_VDD = (0.8, 0.85, 0.9, 0.95, 1.0, 1.05, 1.1)


@dataclass(frozen=True)
class SweepPoint:
    vdd: float
    vgate: float
    functional: bool
    delay: float
    power: float


def vdd_sweep(cell: FtlCell, tt: TruthTable) -> list[SweepPoint]:
    """Re-evaluate a trained cell at each supply of SWEEP_VDD.

    Programmed levels are DAC code words referenced to the gate-drive
    rail, so every stored voltage tracks the new vgate proportionally.
    Overdrives then scale by a common factor, which preserves the
    decision at every minterm while conductance (hence delay and power)
    moves with the supply."""
    points = []
    for vdd in SWEEP_VDD:
        new_vgate = 0.4 + 0.5 * vdd
        ratio = new_vgate / cell.params.vgate
        p = replace(cell.params, vdd=vdd, vgate=new_vgate)
        c = replace(cell,
                    vt=tuple(v * ratio for v in cell.vt),
                    v_left=cell.v_left * ratio,
                    v_right=cell.v_right * ratio,
                    params=p)
        functional = verify_cell(c, tt)
        points.append(SweepPoint(vdd, p.vgate, functional,
                                 worst_case_delay(c, tt), model_power(c, tt)))
    return points


@dataclass(frozen=True)
class Datapath:
    launch_c2q: float
    comb_delay: float
    capture_setup: float
    capture_hold: float
    clock_period: float
    capture_skew: float = 0.0  # signed

    def __post_init__(self):
        for name in ("launch_c2q", "comb_delay", "capture_setup",
                     "capture_hold", "clock_period"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class TimingReport:
    setup_slack: float
    hold_slack: float
    violations: tuple[str, ...]


def check_timing(dp: Datapath) -> TimingReport:
    setup_slack = (dp.clock_period + dp.capture_skew
                   - (dp.launch_c2q + dp.comb_delay + dp.capture_setup))
    hold_slack = (dp.launch_c2q + dp.comb_delay
                  - (dp.capture_hold + dp.capture_skew))
    violations = []
    if setup_slack < 0:
        violations.append("setup")
    if hold_slack < 0:
        violations.append("hold")
    return TimingReport(setup_slack, hold_slack, tuple(violations))


# Margin schedule used by the robustness experiments and by
# `ftl train --robust`.
# The finer training step keeps consecutive levels from collapsing onto
# the same solution; 0.20 S is the largest level that still converges
# for the F115 reference function.
ROBUST_TRAIN_DELTA = 0.005
ROBUST_MARGINS = (0.0, 0.04, 0.08, 0.12, 0.16, 0.20)


@dataclass
class MarginLevel:
    margin: float
    result: TrainResult
    min_separation: float
    delay: float


def margin_schedule(tt: TruthTable,
                    params: DeviceParams | None = None) -> list[MarginLevel]:
    """Warm-started chain of trainings at the margins of ROBUST_MARGINS
    with training step ROBUST_TRAIN_DELTA; stops at the last level that
    converges.  Each level's result carries the trace of its own
    training."""
    params = params or DeviceParams()
    cfg = TrainConfig(delta=ROBUST_TRAIN_DELTA, record_trace=True)
    cur = train(tt, params, cfg)
    if not cur.converged:
        raise TrainingError(f"margin-0 training did not converge (stopped on "
                            f"{cur.stop_reason})")
    trained = [(0.0, cur)]
    for margin in ROBUST_MARGINS[1:]:
        cur = _train_from(cur.cell, tt, replace(cfg, handicap_margin=margin),
                          cur.active_side)
        if not cur.converged:
            break
        trained.append((margin, cur))
    return [MarginLevel(margin, r, conductivity_map(r.cell, tt).min_separation,
                        worst_case_delay(r.cell, tt)) for margin, r in trained]


class RetuneError(Exception):
    def __init__(self, message: str, closest_delay: float):
        super().__init__(f"{message} (closest achieved: {closest_delay:.3e} s)")
        self.closest_delay = closest_delay


# Shipped single-path scenarios for post-fab timing correction, keyed by
# the violation each provokes.  The launch register is an FTL cell whose
# modeled worst-case delay is its C2Q, filled in from the cell under test;
# both paths end in the same conventional capture flip-flop and clock.
_CAPTURE = dict(capture_setup=67e-12, capture_hold=80e-12, clock_period=1e-9)
SCENARIOS = {
    "setup": Datapath(0.0, comb_delay=700e-12, capture_skew=-60e-12,
                      **_CAPTURE),
    "hold": Datapath(0.0, comb_delay=50e-12, capture_skew=100e-12,
                     **_CAPTURE),
}


@dataclass
class TimingFix:
    before: TimingReport
    after: TimingReport
    cell_after: FtlCell
    delay_before: float
    delay_after: float


def run_timing_fix(
    tt: TruthTable,
    params: DeviceParams | None = None,
    scenario: str = "setup",
) -> TimingFix:
    """Provoke a setup (hold) violation with the slowest (fastest) level of
    margin_schedule as launch register, then fix it by reprogramming: walk
    the ladder from that end and keep the first level at whose delay
    check_timing reports no such violation."""
    dp = SCENARIOS[scenario]
    levels = margin_schedule(tt, params)
    if scenario == "hold":
        levels.reverse()  # fastest first: the top of the margin schedule
    start = levels[0]
    before = check_timing(replace(dp, launch_c2q=start.delay))
    for lv in levels:
        after = check_timing(replace(dp, launch_c2q=lv.delay))
        if scenario not in after.violations:
            return TimingFix(before, after, lv.result.cell, start.delay,
                             lv.delay)
    raise RetuneError(f"no margin level clears the {scenario} violation",
                      levels[-1].delay)


def write_yield_csv(report: YieldReport, fp) -> None:
    writer = csv.writer(fp)
    writer.writerow(["trial", "pass", "worst_delay"])
    for trial, ok, delay in report.rows:
        writer.writerow([trial, int(ok), "" if math.isnan(delay) else f"{delay:.6e}"])


def write_histogram_csv(report: YieldReport, fp) -> None:
    writer = csv.writer(fp)
    writer.writerow(["bin_lo", "bin_hi", "count"])
    for lo, hi, c in zip(report.hist_edges[:-1], report.hist_edges[1:],
                         report.hist_counts):
        writer.writerow([f"{lo:.6e}", f"{hi:.6e}", int(c)])


def write_conductivity_csv(cmap: ConductivityMap, fp) -> None:
    writer = csv.writer(fp)
    writer.writerow(["minterm", "g_left", "g_right", "onset"])
    for r in cmap.records:
        writer.writerow([r.minterm, f"{r.g_left:.6e}", f"{r.g_right:.6e}",
                         int(r.onset)])
    writer.writerow(["min_onset_sep", f"{cmap.min_onset_sep:.6e}", "", ""])
    writer.writerow(["min_offset_sep", f"{cmap.min_offset_sep:.6e}", "", ""])


def write_sweep_csv(points: list[SweepPoint], fp) -> None:
    writer = csv.writer(fp)
    writer.writerow(["vdd", "vgate", "functional", "delay", "power"])
    for pt in points:
        writer.writerow([f"{pt.vdd:.3f}", f"{pt.vgate:.3f}", int(pt.functional),
                         f"{pt.delay:.6e}", f"{pt.power:.6e}"])


def write_timing_csv(reports: dict[str, TimingReport], fp) -> None:
    writer = csv.writer(fp)
    writer.writerow(["scenario", "setup_slack", "hold_slack", "violations"])
    for name, rep in reports.items():
        writer.writerow([name, f"{rep.setup_slack:.6e}", f"{rep.hold_slack:.6e}",
                         "+".join(rep.violations) or "none"])
