"""Modified perceptron training of flash threshold voltages.

The update rule walks minterms in ascending index order; on an incorrect
response, every flash device whose input bit is 1 moves by one step delta
(down for a missed on-set minterm, up for a missed off-set minterm),
clamped to [vt_min, vt_max].  The side devices act as the bias term and
move on every incorrect response: a missed on-set minterm raises V_R
(lowering V_L instead once V_R clamps), a missed off-set minterm raises
V_L (then lowers V_R).  Updating the bias only when the input-device
update is fully clamped looks equivalent but is not: input-only updates
can cancel exactly across an epoch (e.g. the 1-vs-4 weighted function of
five inputs) and the loop then cycles forever.

Correctness flows solely through the device-model oracle; the weight
vector of the target function is never consulted during updates.

Every attempt stops for one of three reasons, reported as
TrainResult.stop_reason:

- "converged": an epoch made no update, and the cell re-verifies;
- "cycle": an epoch starts from a (vt, v_left, v_right) state already
  seen at an earlier epoch start.  Training is deterministic, so the
  attempt would repeat that stretch forever and can never converge
  (the perceptron cycling theorem, Block & Levin 1970, says this is
  how a perceptron on non-separable data behaves);
- "bound": the kmax iteration bound (or max_iterations) ran out.  Float
  steps need not land on a finite grid, so this stays as a safety net.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

from .device import DeviceParams, FtlCell, evaluate, verify_cell
from .truthtable import TruthTable


class TrainingError(Exception):
    """Raised when no side assignment converges (non-threshold input), or
    when a converged cell fails its re-verification."""


@dataclass(frozen=True)
class TrainConfig:
    delta: float | None = None  # defaults to params.delta
    active_side: str = "auto"  # "left" | "right" | "auto"
    max_iterations: int | None = None  # overrides the kmax bound
    handicap_margin: float = 0.0  # siemens
    record_trace: bool = False

    def __post_init__(self):
        if self.active_side not in ("left", "right", "auto"):
            raise ValueError(f"bad active_side {self.active_side!r}")
        if self.delta is not None and self.delta <= 0:
            raise ValueError("delta must be positive")


@dataclass(frozen=True)
class TraceEntry:
    iteration: int
    epoch: int
    minterm: int
    device: str  # "v1".."vn", "vl", "vr"
    old_vt: float
    new_vt: float
    reason: str  # "eq2" | "fallback_vr" | "fallback_vl"


@dataclass
class TrainResult:
    cell: FtlCell
    converged: bool
    iterations: int
    epochs: int
    active_side: str
    trace: list[TraceEntry] = field(default_factory=list)
    stop_reason: str = "converged"  # "converged" | "cycle" | "bound"


def kmax_bound(n: int, delta: float, vdd: float) -> int:
    """Pessimistic perceptron iteration bound with the solution norm taken
    at its worst case of n + 2 devices at vdd each."""
    return math.ceil(2 * n * (n + 2) * vdd ** 2 / delta ** 2)


def _step_up(v: float, delta: float, vt_min: float, vt_max: float) -> float:
    # A device at or above vt_max (including one parked at vdd) stays put.
    if v >= vt_max:
        return v
    return min(v + delta, vt_max)


def _step_down(v: float, delta: float, vt_min: float, vt_max: float) -> float:
    if v <= vt_min:
        return v
    return min(max(v - delta, vt_min), vt_max)


def _train_from(
    cell: FtlCell,
    tt: TruthTable,
    config: TrainConfig,
    side: str,
) -> TrainResult:
    p = cell.params
    delta = config.delta if config.delta is not None else p.delta
    bound = (config.max_iterations if config.max_iterations is not None
             else kmax_bound(tt.n, delta, p.vdd))
    h = config.handicap_margin
    vt = list(cell.vt)
    vl, vr = cell.v_left, cell.v_right
    trace: list[TraceEntry] = []
    iterations = 0
    epochs = 0
    seen: set[tuple] = set()

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
            if iterations > bound:
                return stop("bound")
        if clean:
            break

    out = FtlCell(tt.n, tuple(vt), vl, vr, p)
    # Convergence certificate, independent of the training loop.
    if not verify_cell(out, tt, h):
        raise TrainingError("converged cell failed re-verification")
    return TrainResult(out, True, iterations, epochs, side, trace)


def train(
    tt: TruthTable,
    params: DeviceParams | None = None,
    config: TrainConfig | None = None,
) -> TrainResult:
    """Train a cell to realize tt (which should be a positive-unate
    threshold function; non-threshold inputs come back unconverged)."""
    params = params or DeviceParams()
    config = config or TrainConfig()
    sides = [config.active_side] if config.active_side != "auto" else ["right", "left"]
    # Functions whose bias must dominate the inputs (OR-like, low threshold)
    # dead-end from the midpoint start: the inputs saturate at vt_min before
    # the side device wins the race, leaving an incorrect fixed point.  A
    # weaker-input start (higher init Vt) avoids it, so retry up the ladder.
    result = None
    for init_vt in (params.vdd / 2, round(params.vdd * 7 / 9, 6)):
        for side in sides:
            cell = FtlCell.fresh(tt.n, params, init_vt, side)
            result = _train_from(cell, tt, config, side)
            if result.converged:
                return result
    return result


def write_trace_csv(trace: list[TraceEntry], fp) -> None:
    writer = csv.writer(fp)
    writer.writerow(["iteration", "epoch", "minterm", "device",
                     "old_vt", "new_vt", "reason"])
    for e in trace:
        writer.writerow([e.iteration, e.epoch, e.minterm, e.device,
                         f"{e.old_vt:.6f}", f"{e.new_vt:.6f}", e.reason])
