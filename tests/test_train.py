"""Modified perceptron trainer: convergence, traces, bounds, robustness."""

import io
import math
import sys

import pytest

from ftl.analysis import margin_schedule
from ftl.device import DeviceParams, evaluate, verify_cell
from ftl.threshold import build_catalog, check_threshold, f115_table
from ftl.train import (TrainConfig, TrainingError, _train_from, kmax_bound,
                       train, write_trace_csv)
from ftl.truthtable import (Polarity, TruthTable, parse_truth_table,
                            to_positive_form, unateness)

AND2 = parse_truth_table("8", 2)
XOR2 = parse_truth_table("6", 2)


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
    cfg = TrainConfig(active_side="right")
    result = train(XOR2, config=cfg)
    assert not result.converged
    assert result.stop_reason == "cycle"
    # The reported cell is the repeated state: replaying from it comes
    # back to it.
    again = _train_from(result.cell, XOR2, cfg, "right")
    assert again.cell == result.cell
    assert again.stop_reason == "cycle"


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


def test_every_attempt_stops_for_a_proven_reason():
    """Over every 2- and 3-input table, training converges exactly on the
    positive-unate threshold functions, and every other attempt ends on a
    repeated state rather than at the iteration bound."""
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


def test_failed_certificate_raises(monkeypatch):
    # ftl.train resolves to the train function in the package namespace,
    # so patch the module object itself.
    monkeypatch.setattr(sys.modules["ftl.train"], "verify_cell",
                        lambda *args: False)
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


def test_robust_empty_schedule_returns_baseline():
    top = margin_schedule(AND2, margin_step=0.5, max_margin=0.1)[-1]
    assert top.margin == 0.0
    assert top.result.converged
    assert verify_cell(top.result.cell, AND2)


def test_robust_margin_grows_min_gap():
    tt = f115_table()
    params = DeviceParams()
    base = margin_schedule(tt, params, margin_step=1.0, max_margin=0.5)[-1]
    robust = margin_schedule(tt, params, margin_step=0.04,
                             max_margin=0.2)[-1]
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


def test_max_iterations_override():
    result = train(f115_table(), config=TrainConfig(max_iterations=3))
    assert not result.converged
    assert result.iterations <= 4
    assert result.stop_reason == "bound"


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
