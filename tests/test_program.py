"""Post-fab programmer: erase, pulse planning, quantization."""

import io
from dataclasses import replace

import pytest

from ftl.analysis import margin_schedule
from ftl.device import verify_cell
from ftl.program import (ProgrammerConfig, plan_program, program_cell,
                         write_schedule_csv)
from ftl.threshold import build_catalog, f115_table
from ftl.train import train
from ftl.truthtable import parse_truth_table, to_positive_form

CFG = ProgrammerConfig()


def trained_cell(hexspec="8", n=2):
    return train(parse_truth_table(hexspec, n)).cell


def erased_cell(cell):
    """cell with every device at the erased level, vt_min."""
    v = cell.params.vt_min
    return replace(cell, vt=(v,) * cell.n, v_left=v, v_right=v)


def test_config_defaults():
    assert CFG.pulse_resolution == 0.010


def test_plan_zero_pulses_for_erased_target():
    erased = erased_cell(trained_cell())
    sched = plan_program(erased, CFG)
    assert sched.counts == (0,) * 4  # 2 inputs + 2 side devices
    assert sched.achieved == erased.all_vt()


def test_plan_exact_point():
    # 0.34 V target from a 0.02 V erased level at 10 mV steps
    cell = trained_cell()
    target = cell.__class__(2, (0.34, 0.34), 0.34, 0.34, cell.params)
    sched = plan_program(target, CFG)
    assert sched.counts == (32, 32, 32, 32)
    assert sched.achieved[0] == pytest.approx(0.34)


def test_plan_quantization_bound():
    cell = trained_cell()
    target = cell.__class__(2, (0.345, 0.345), 0.345, 0.345, cell.params)
    sched = plan_program(target, CFG)
    assert sched.counts[0] in (32, 33)
    for got, want in zip(sched.achieved, target.all_vt()):
        assert abs(got - want) <= CFG.pulse_resolution / 2 + 1e-12


def test_plan_rejects_target_below_erased():
    cell = trained_cell()
    low = cell.__class__(2, (0.01, 0.4), 0.9, 0.4, cell.params)
    with pytest.raises(ValueError):
        plan_program(low, CFG)


def test_program_round_trip():
    cell = trained_cell("E8", 3)
    programmed = program_cell(cell, CFG)
    assert programmed.all_vt() == plan_program(cell, CFG).achieved
    assert (programmed.n, programmed.params) == (cell.n, cell.params)
    for got, want in zip(programmed.all_vt(), cell.all_vt()):
        assert abs(got - want) <= CFG.pulse_resolution / 2 + 1e-12
    for got in programmed.all_vt():
        assert got >= cell.params.vt_min
    assert program_cell(erased_cell(cell), CFG) == erased_cell(cell)


def test_quantized_robust_f115_still_verifies():
    tt = f115_table()
    top = margin_schedule(tt)[-1]
    quantized = program_cell(top.result.cell, CFG)
    assert verify_cell(quantized, tt)


def test_quantized_catalog_functions_verify():
    for e in build_catalog(3):
        positive, _ = to_positive_form(e.table)
        top = margin_schedule(positive)[-1]
        quantized = program_cell(top.result.cell, CFG)
        assert verify_cell(quantized, positive), e.index


def test_schedule_csv():
    sched = plan_program(erased_cell(trained_cell()), CFG)
    buf = io.StringIO()
    write_schedule_csv({0: sched}, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "cell,device,pulses,achieved_vt"
    assert len(lines) == 5  # header + 2 inputs + 2 side devices
