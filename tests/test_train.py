"""Modified perceptron trainer: convergence, traces, bounds, robustness."""

import io
import math
import types

import pytest

import ftl.analysis as analysis_module
import ftl.train as train_module
from ftl.analysis import ROBUST_TRAIN_DELTA, margin_schedule
from ftl.device import DeviceParams, FtlCell, evaluate, verify_cell
from ftl.threshold import build_catalog, check_threshold, f115_table
from ftl.train import (TraceEntry, TrainConfig, TrainingError, TrainResult,
                       _step_down, _step_up, _train_from, kmax_bound, train,
                       write_trace_csv)
from ftl.truthtable import (Polarity, TruthTable, parse_truth_table,
                            to_positive_form, unateness)

AND2 = parse_truth_table("8", 2)
XOR2 = parse_truth_table("6", 2)


def test_import_binds_the_module():
    """The package root re-exports nothing, so the train function does
    not shadow its module."""
    assert isinstance(train_module, types.ModuleType)
    assert train_module.train is train


def test_kmax_paper_point():
    assert kmax_bound(5, 0.02, 0.9) == 141_750


def test_kmax_small_case():
    assert kmax_bound(1, 0.9, 0.9) == 6


def test_kmax_quadratic_in_delta():
    assert kmax_bound(4, 0.01, 0.9) == 4 * kmax_bound(4, 0.02, 0.9)


def test_and2_converges_and_verifies():
    result = train(AND2)
    assert result.converged
    assert result.iterations <= kmax_bound(2, 0.02, 0.9)
    assert verify_cell(result.cell, AND2)


def test_xor2_does_not_converge():
    result = train(XOR2)
    assert not result.converged
    assert result.stop_reason == "cycle"
    # The reported cell is the repeated state: replaying from it comes
    # back to it.
    again = _train_from(result.cell, XOR2, TrainConfig(), result.active_side)
    assert again.cell == result.cell
    assert again.stop_reason == "cycle"


def test_attempts_and2_converges_first_try():
    result = train(AND2)
    assert [a.stop_reason for a in result.attempts] == ["converged"]
    assert result.attempts[0] == (DeviceParams().vdd / 2, "right",
                                  "converged", result.iterations,
                                  result.epochs)


def test_attempts_xor2_tries_every_start():
    result = train(XOR2)
    assert len(result.attempts) == 4
    assert [a.stop_reason for a in result.attempts] == ["cycle"] * 4
    assert [(a.init_vt, a.side) for a in result.attempts] == [
        (0.45, "right"), (0.45, "left"), (0.7, "right"), (0.7, "left")]
    last = result.attempts[-1]
    assert (last.iterations, last.epochs) == (result.iterations,
                                              result.epochs)


def test_select_active_side_and2_is_right():
    # Side selection lives in train's auto mode: right side first.
    result = train(AND2)
    assert result.active_side == "right"
    assert result.stop_reason == "converged"


def test_select_active_side_xor_raises():
    # Neither side converges for XOR2, so the ladder's margin-0 level fails.
    result = train(XOR2)
    assert not result.converged
    assert result.stop_reason == "cycle"
    with pytest.raises(TrainingError):
        margin_schedule(XOR2)


def test_auto_side_reported():
    result = train(AND2)
    assert result.active_side in ("left", "right")
    assert result.converged


def test_every_attempt_stops_for_a_proven_reason(by_reference):
    """Over every 2- and 3-input table, training converges exactly on the
    positive-unate threshold functions, and every other attempt ends on a
    repeated state rather than at the iteration bound.  Each result equals
    the reference loop's bit for bit."""
    for n in (2, 3):
        for bits in range(1 << (1 << n)):
            tt = TruthTable(n, bits)
            positive = all(p in (Polarity.POSITIVE, Polarity.UNUSED)
                           for p in unateness(tt))
            expect = positive and check_threshold(tt) is not None
            result = train(tt)
            assert result.converged == expect, (n, bits)
            if not result.converged:
                assert result.stop_reason == "cycle", (n, bits)
            assert result == by_reference(train, tt), (n, bits)


def test_failed_certificate_raises(monkeypatch):
    monkeypatch.setattr(train_module, "verify_cell", lambda *args: False)
    with pytest.raises(TrainingError):
        train(AND2)


def test_update_rule_fidelity():
    """Eq-style updates touch only devices whose input bit is 1, moving by
    exactly delta (before clamping) in the prescribed direction; everything
    else must be a side-device update."""
    cfg = TrainConfig(record_trace=True)
    result = train(f115_table(), config=cfg)
    p = DeviceParams()
    for e in result.trace:
        if e.reason == "eq2":
            assert e.device.startswith("v")
            idx = int(e.device[1:]) - 1
            assert (e.minterm >> idx) & 1 == 1
            step = e.new_vt - e.old_vt
            if abs(step) != pytest.approx(p.delta):
                # clamped at a bound
                assert e.new_vt in (pytest.approx(p.vt_min),
                                    pytest.approx(p.vt_max))
        else:
            assert e.reason in ("fallback_vl", "fallback_vr")
            assert e.device in ("vl", "vr")


def test_vt_bounds_respected():
    cfg = TrainConfig(record_trace=True)
    result = train(f115_table(), config=cfg)
    p = DeviceParams()
    for e in result.trace:
        assert p.vt_min - 1e-12 <= e.new_vt <= p.vdd + 1e-12
    for v in result.cell.vt:
        assert p.vt_min <= v <= p.vt_max


def test_training_is_deterministic():
    a = train(f115_table(), config=TrainConfig(record_trace=True))
    b = train(f115_table(), config=TrainConfig(record_trace=True))
    assert a.cell == b.cell
    assert a.trace == b.trace


def test_handicap_margin_enforced():
    margin = 0.05
    result = train(AND2, config=TrainConfig(handicap_margin=margin))
    assert result.converged
    for m in range(4):
        if AND2.value(m):
            assert evaluate(result.cell, m, margin=margin).y == 1
        else:
            assert evaluate(result.cell, m, margin=-margin).y == 0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_delta_is_rejected(value):
    """A NaN step would make every Vt NaN, a state that never repeats."""
    with pytest.raises(ValueError, match="^delta must be finite"):
        TrainConfig(delta=value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_handicap_margin_is_rejected(value):
    """Under a NaN margin every on-set minterm misses, so every attempt
    would cycle."""
    with pytest.raises(ValueError, match="^handicap_margin must be finite"):
        TrainConfig(handicap_margin=value)


def test_robust_margin_grows_min_gap():
    tt = f115_table()
    levels = margin_schedule(tt, DeviceParams())
    base, robust = levels[0], levels[-1]
    assert base.margin == 0.0 and robust.margin > 0.0
    def min_gap(cell):
        return min(abs(evaluate(cell, m).gap) for m in range(32))
    assert min_gap(robust.result.cell) > min_gap(base.result.cell)
    assert verify_cell(robust.result.cell, tt)


def test_robust_fails_only_for_nonthreshold():
    with pytest.raises(TrainingError):
        margin_schedule(XOR2)


def test_f115_v1_strictly_smallest():
    result = train(f115_table())
    vt = result.cell.vt
    assert all(vt[0] < v for v in vt[1:])


def test_catalog_sample_converges():
    entries = build_catalog(3)
    for e in entries:
        positive, _ = to_positive_form(e.table)
        r = train(positive)
        assert r.converged, e.index
        assert r.iterations <= kmax_bound(e.n, 0.02, 0.9)
        assert verify_cell(r.cell, positive)


def test_trace_csv_format():
    result = train(AND2, config=TrainConfig(record_trace=True))
    buf = io.StringIO()
    write_trace_csv(result.trace, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "iteration,epoch,minterm,device,old_vt,new_vt,reason"
    assert len(lines) == len(result.trace) + 1


def _reference_train_from(cell, tt, config, side):
    """The trainer loop with one `evaluate` per minterm on a cell rebuilt
    after every update: the reference that `_train_from`, which builds the
    branch conductances once per cell state, must match bit for bit."""
    p = cell.params
    delta = config.delta
    h = config.handicap_margin
    vt = list(cell.vt)
    vl, vr = cell.v_left, cell.v_right
    trace = []
    iterations = 0
    epochs = 0
    seen = set()

    def record(minterm, device, old, new, reason):
        if config.record_trace and new != old:
            trace.append(TraceEntry(iterations, epochs, minterm, device,
                                    old, new, reason))

    def stop(reason):
        return TrainResult(FtlCell(tt.n, tuple(vt), vl, vr, p), False,
                           iterations, epochs, side, trace, reason)

    while True:
        state = (tuple(vt), vl, vr)
        if state in seen:
            return stop("cycle")
        seen.add(state)
        epochs += 1
        clean = True
        cur = FtlCell(tt.n, tuple(vt), vl, vr, p)
        for m in range(tt.size):
            want = tt.value(m)
            r = evaluate(cur, m, h if want else -h)
            if r.y == want and not r.metastable:
                continue
            clean = False
            iterations += 1
            for i in range(tt.n):
                if not (m >> i) & 1:
                    continue
                old = vt[i]
                step = _step_down if want else _step_up
                vt[i] = step(old, delta, p.vt_min, p.vt_max)
                if vt[i] != old:
                    record(m, f"v{i + 1}", old, vt[i], "eq2")
            if want:
                new = _step_up(vr, delta, p.vt_min, p.vt_max)
                if new != vr:
                    record(m, "vr", vr, new, "fallback_vr")
                    vr = new
                else:
                    new = _step_down(vl, delta, p.vt_min, p.vt_max)
                    record(m, "vl", vl, new, "fallback_vl")
                    vl = new
            else:
                new = _step_up(vl, delta, p.vt_min, p.vt_max)
                if new != vl:
                    record(m, "vl", vl, new, "fallback_vl")
                    vl = new
                else:
                    new = _step_down(vr, delta, p.vt_min, p.vt_max)
                    record(m, "vr", vr, new, "fallback_vr")
                    vr = new
            cur = FtlCell(tt.n, tuple(vt), vl, vr, p)
        if clean:
            break

    out = FtlCell(tt.n, tuple(vt), vl, vr, p)
    if not verify_cell(out, tt, h):
        raise TrainingError("converged cell failed re-verification")
    return TrainResult(out, True, iterations, epochs, side, trace)


@pytest.fixture
def by_reference(monkeypatch):
    """Run a training call with the reference loop in place of
    `_train_from`, under every name it is looked up by."""
    def run(fn, *args, **kwargs):
        with monkeypatch.context() as mp:
            for module in (train_module, analysis_module):
                mp.setattr(module, "_train_from", _reference_train_from)
            return fn(*args, **kwargs)
    return run


# TrainResult equality covers cell, converged, iterations, epochs,
# active_side, trace, stop_reason and attempts.  The 2- and 3-input tables
# are compared in test_every_attempt_stops_for_a_proven_reason.  Tracing
# changes no decision, so the trace run also stands for the default
# config; the slower handicap config takes every third class to keep the
# suite fast.  Both configs see attempts that converge and that cycle.

@pytest.mark.parametrize("cfg, stride", [
    (TrainConfig(record_trace=True), 1),
    (TrainConfig(delta=0.005, handicap_margin=0.04), 3),
], ids=["trace", "handicap"])
def test_matches_reference_catalog(by_reference, cfg, stride):
    stops = set()
    for e in build_catalog(5)[::stride]:
        positive, _ = to_positive_form(e.table)
        result = train(positive, config=cfg)
        assert result == by_reference(train, positive, config=cfg), e.index
        stops.update(a.stop_reason for a in result.attempts)
    assert stops == {"converged", "cycle"}


def test_matches_reference_margin_schedule(by_reference):
    tt = f115_table()
    levels = margin_schedule(tt)
    assert len(levels) > 1
    assert levels == by_reference(margin_schedule, tt)
    # One margin step past the top level, which the schedule never tries.
    top = levels[-1]
    cfg = TrainConfig(delta=ROBUST_TRAIN_DELTA, record_trace=True,
                      handicap_margin=top.margin + 0.04)
    args = (top.result.cell, tt, cfg, top.result.active_side)
    assert _train_from(*args) == _reference_train_from(*args)
