"""Post-fabrication programming model: block erase and counted-pulse Vt
setting with quantization.

Pulses are modeled as a constant Vt increment each; programming only
raises Vt (tunneling electrons in), erase resets a whole block to the
erased level.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

from .device import FtlCell


@dataclass(frozen=True)
class ProgrammerConfig:
    vt_erased: float | None = None  # defaults to vt_min of the cell's params
    pulse_resolution: float = 0.010  # volts per pulse

    def __post_init__(self):
        if self.pulse_resolution <= 0:
            raise ValueError("pulse_resolution must be positive")

    def erased_level(self, cell: FtlCell) -> float:
        v = cell.params.vt_min if self.vt_erased is None else self.vt_erased
        if not cell.params.vt_min <= v <= cell.params.vt_max:
            raise ValueError("vt_erased outside the legal Vt interval")
        return v


@dataclass(frozen=True)
class PulseSchedule:
    """Per-device pulse counts, ordered inputs first then V_L, V_R."""

    counts: tuple[int, ...]
    achieved: tuple[float, ...]
    vt_erased: float
    pulse_resolution: float


def erase_block(cells: list[FtlCell], cfg: ProgrammerConfig) -> list[FtlCell]:
    """Erase every flash device (inputs and side devices) of every cell."""
    out = []
    for cell in cells:
        v = cfg.erased_level(cell)
        out.append(replace(cell, vt=(v,) * cell.n, v_left=v, v_right=v))
    return out


def plan_program(target: FtlCell, cfg: ProgrammerConfig) -> PulseSchedule:
    """Pulse counts reproducing the target Vts from the erased state;
    per-device error is at most half a pulse."""
    erased = cfg.erased_level(target)
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
    return PulseSchedule(tuple(counts), tuple(achieved), erased, res)


def apply_schedule(cell_erased: FtlCell, sched: PulseSchedule) -> FtlCell:
    """Pure state transition from an erased cell to the scheduled Vts."""
    if len(sched.counts) != cell_erased.n + 2:
        raise ValueError("schedule width does not match the cell")
    if any(abs(v - sched.vt_erased) > 1e-12 for v in cell_erased.all_vt()):
        raise ValueError("cell is not in the erased state")
    vt = sched.achieved[: cell_erased.n]
    return replace(cell_erased, vt=vt,
                   v_left=sched.achieved[cell_erased.n],
                   v_right=sched.achieved[cell_erased.n + 1])


def program_cell(target: FtlCell, cfg: ProgrammerConfig) -> FtlCell:
    """erase -> plan -> apply round trip for one cell."""
    erased = erase_block([target], cfg)[0]
    return apply_schedule(erased, plan_program(target, cfg))


def write_schedule_csv(schedules: dict[int, PulseSchedule], fp) -> None:
    writer = csv.writer(fp)
    writer.writerow(["cell", "device", "pulses", "achieved_vt"])
    for cell_idx, sched in schedules.items():
        for dev, (k, v) in enumerate(zip(sched.counts, sched.achieved)):
            writer.writerow([cell_idx, dev, k, f"{v:.6f}"])
