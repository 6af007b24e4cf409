"""Post-fab programmer: erase, pulse planning, quantization."""

import io

import pytest

from ftl.analysis import margin_schedule
from ftl.device import DeviceParams, verify_cell
from ftl.program import (ProgrammerConfig, apply_schedule, erase_block,
                         plan_program, program_cell, write_schedule_csv)
from ftl.threshold import build_catalog, f115_table
from ftl.train import train
from ftl.truthtable import parse_truth_table, to_positive_form

CFG = ProgrammerConfig()


def trained_cell(hexspec="8", n=2):
    return train(parse_truth_table(hexspec, n)).cell


def test_config_defaults():
    p = DeviceParams()
    assert CFG.pulse_resolution == 0.010
    cell = trained_cell()
    assert CFG.erased_level(cell) == p.vt_min


def test_erase_block_resets_everything():
    cells = [trained_cell(), trained_cell("E8", 3)]
    erased = erase_block(cells, CFG)
    for c in erased:
        lvl = CFG.erased_level(c)
        assert all(v == lvl for v in c.all_vt())
    assert erase_block(erased, CFG) == erased  # idempotent
    assert erase_block([], CFG) == []


def test_plan_zero_pulses_for_erased_target():
    erased = erase_block([trained_cell()], CFG)[0]
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


def test_apply_requires_erased_cell():
    cell = trained_cell()
    sched = plan_program(cell, CFG)
    with pytest.raises(ValueError):
        apply_schedule(cell, sched)  # not erased


def test_apply_zero_schedule_is_identity():
    erased = erase_block([trained_cell()], CFG)[0]
    sched = plan_program(erased, CFG)
    assert apply_schedule(erased, sched) == erased


def test_program_round_trip():
    cell = trained_cell("E8", 3)
    programmed = program_cell(cell, CFG)
    for got, want in zip(programmed.all_vt(), cell.all_vt()):
        assert abs(got - want) <= CFG.pulse_resolution / 2 + 1e-12
    for got in programmed.all_vt():
        assert got >= CFG.erased_level(cell)


def test_quantized_robust_f115_still_verifies():
    tt = f115_table()
    top = margin_schedule(tt, margin_step=0.04, max_margin=0.2)[-1]
    quantized = program_cell(top.result.cell, CFG)
    assert verify_cell(quantized, tt)


def test_quantized_catalog_functions_verify():
    for e in build_catalog(3):
        positive, _ = to_positive_form(e.table)
        top = margin_schedule(positive, margin_step=0.04, max_margin=0.2)[-1]
        quantized = program_cell(top.result.cell, CFG)
        assert verify_cell(quantized, positive), e.index


def test_schedule_csv():
    sched = plan_program(erase_block([trained_cell()], CFG)[0], CFG)
    buf = io.StringIO()
    write_schedule_csv({0: sched}, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "cell,device,pulses,achieved_vt"
    assert len(lines) == 5  # header + 2 inputs + 2 side devices
