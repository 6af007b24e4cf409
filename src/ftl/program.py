"""Post-fabrication programming model: block erase and counted-pulse Vt
setting with quantization.

Pulses are modeled as a constant Vt increment each; programming only
raises Vt (tunneling electrons in), so every device is first erased to
vt_min of the cell's params and then pulsed up to its target.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import ClassVar

from .device import FtlCell


@dataclass(frozen=True)
class ProgrammerConfig:
    """The programmer's pulse step, a read-only model constant."""

    pulse_resolution: ClassVar[float] = 0.010  # volts per pulse


@dataclass(frozen=True)
class PulseSchedule:
    """Per-device pulse counts, ordered inputs first then V_L, V_R."""

    counts: tuple[int, ...]
    achieved: tuple[float, ...]


def plan_program(target: FtlCell, cfg: ProgrammerConfig) -> PulseSchedule:
    """Pulse counts reproducing the target Vts from the erased state;
    per-device error is at most half a pulse."""
    erased = target.params.vt_min
    res = cfg.pulse_resolution
    counts = []
    achieved = []
    for v in target.all_vt():
        if v < erased - 1e-12:
            raise ValueError(
                f"target Vt {v:.4f} below erased level {erased:.4f}; erase first"
            )
        k = round((v - erased) / res)
        counts.append(k)
        achieved.append(erased + k * res)
    return PulseSchedule(tuple(counts), tuple(achieved))


def program_cell(target: FtlCell, cfg: ProgrammerConfig) -> FtlCell:
    """The cell after erasing it and applying plan_program's pulses."""
    *vt, v_left, v_right = plan_program(target, cfg).achieved
    return replace(target, vt=tuple(vt), v_left=v_left, v_right=v_right)


def write_schedule_csv(schedules: dict[int, PulseSchedule], fp) -> None:
    writer = csv.writer(fp)
    writer.writerow(["cell", "device", "pulses", "achieved_vt"])
    for cell_idx, sched in schedules.items():
        for dev, (k, v) in enumerate(zip(sched.counts, sched.achieved)):
            writer.writerow([cell_idx, dev, k, f"{v:.6f}"])
