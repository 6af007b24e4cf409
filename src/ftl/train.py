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
five inputs) and the loop then cycles forever.  Each attempt writes the
rule down once, as one move list per minterm, which an update walks up to
the first side device that moves.

Correctness flows solely through the device-model oracle; the weight
vector of the target function is never consulted during updates.  Branch
conductances are built once per cell state (an update recomputes the ones
it moves), and so is their scalar `device.input_sums` table: after an
update it is rebuilt from the lowest moved input up, since the entries
below 2^i read only inputs below i and stay the same floats.
`device.first_miss` walks each epoch on it, resuming after each miss,
with `respond`'s arithmetic and verdicts, so every decision is
`evaluate`'s.  The certificate, `verify_cell`, rebuilds both from the
final cell's Vts.
`train` says why every attempt stops.
"""

from __future__ import annotations

import csv
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field

from .device import (DeviceParams, FtlCell, branch_conductance, first_miss,
                     input_sums, verify_cell)
from .truthtable import TruthTable


class TrainingError(Exception):
    """Raised when no side assignment converges (non-threshold input), or
    when a converged cell fails its re-verification."""


@dataclass(frozen=True)
class TrainConfig:
    delta: float = DeviceParams.delta
    handicap_margin: float = 0.0  # siemens
    record_trace: bool = False

    def __post_init__(self):
        # A NaN Vt never repeats; under a NaN margin every attempt cycles.
        for name in ("delta", "handicap_margin"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, not {value}")
        if self.delta <= 0:
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


# One try of `train`: its start and why it stopped.
Attempt = namedtuple("Attempt", "init_vt side stop_reason iterations epochs")


@dataclass
class TrainResult:
    cell: FtlCell
    converged: bool
    iterations: int
    epochs: int
    active_side: str
    trace: list[TraceEntry] = field(default_factory=list)
    stop_reason: str = "converged"  # "converged" | "cycle"
    attempts: list[Attempt] = field(default_factory=list)  # set by train


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
    p, n = cell.params, tt.n
    delta, lo, hi = config.delta, p.vt_min, p.vt_max
    h = config.handicap_margin
    v = list(cell.all_vt())  # inputs, then the left and right side devices
    g = [branch_conductance(x, p) for x in v]  # kept in step with v
    names = [f"v{i + 1}" for i in range(n)] + ["vl", "vr"]
    trace: list[TraceEntry] = []
    iterations = epochs = 0
    seen: set[tuple] = set()
    wants = tt.values()
    # Per minterm, the devices an update tries in order: the inputs at 1,
    # then the side device opposing the wanted output w (up), the other (down).
    up_down = (_step_up, _step_down)  # an input's step is up_down[w]
    ins = [[(i, step, "eq2") for i in range(n)] for step in up_down]
    sides = [[(j, step, "fallback_" + names[j])
              for j, step in zip((n + w, n + 1 - w), up_down)] for w in (0, 1)]
    moves = [[x for x in ins[w] if m >> x[0] & 1] + sides[w]
             for m, w in enumerate(wants)]
    sums = input_sums(g, n)  # rebuilt from the lowest moved input up
    converged = False
    while not converged and (state := tuple(v)) not in seen:
        seen.add(state)
        epochs += 1
        before, m = iterations, 0
        while (m := first_miss(g, sums, wants, h, m)) is not None:
            iterations += 1
            low = n  # the lowest input that moves
            for i, step, reason in moves[m]:
                old = v[i]
                new = v[i] = step(old, delta, lo, hi)
                if new != old:
                    g[i] = branch_conductance(new, p)
                    if config.record_trace:
                        trace.append(TraceEntry(iterations, epochs, m,
                                                names[i], old, new, reason))
                    if i >= n:  # one side device moves per update
                        break
                    if i < low:
                        low = i
            if low < n:  # entries below 2^low read no moved input
                sums = input_sums(g, n, sums[:1 << low])
            m += 1  # the epoch resumes after the missed minterm
        converged = iterations == before

    out = TrainResult(FtlCell(n, tuple(v[:n]), v[n], v[n + 1], p), converged,
                      iterations, epochs, side, trace,
                      "converged" if converged else "cycle")
    # Convergence certificate, independent of the training loop.
    if converged and not verify_cell(out.cell, tt, h):
        raise TrainingError("converged cell failed re-verification")
    return out


def train(
    tt: TruthTable,
    params: DeviceParams | None = None,
    config: TrainConfig | None = None,
) -> TrainResult:
    """Train a cell to realize tt (which should be a positive-unate
    threshold function; non-threshold inputs come back unconverged).
    From each start of the ladder the right side device is tried as the
    active one first, then the left.

    Every attempt stops for one of two reasons, reported as
    TrainResult.stop_reason:

    - "converged": an epoch made no update, and the cell re-verifies;
    - "cycle": an epoch starts from a (vt, v_left, v_right) state already
      seen at an earlier epoch start.  Training is deterministic, so the
      attempt would repeat that stretch forever and can never converge
      (the perceptron cycling theorem, Block & Levin 1970, says this is
      how a perceptron on non-separable data behaves).

    One of them is always reached: TrainConfig admits only a finite
    positive step, so each Vt stays one of the finitely many floats in a
    bounded box ([vt_min, vt_max], or parked at vdd), and each epoch walks
    at most 2^n minterms, so an attempt either has an epoch without an
    update or starts one from a state it has seen.  (A NaN step would make
    every Vt NaN, which never equals itself, so no state would repeat.)
    kmax_bound is only reported, in iterations.csv."""
    params = params or DeviceParams()
    config = config or TrainConfig()
    # Functions whose bias must dominate the inputs (OR-like, low threshold)
    # dead-end from the midpoint start: the inputs saturate at vt_min before
    # the side device wins the race, leaving an incorrect fixed point.  A
    # weaker-input start (higher init Vt) avoids it, so retry up the ladder.
    attempts: list[Attempt] = []
    ladder = (params.vdd / 2, round(params.vdd * 7 / 9, 6))
    for init_vt, side in itertools.product(ladder, ("right", "left")):
        cell = FtlCell.fresh(tt.n, params, init_vt, side)
        result = _train_from(cell, tt, config, side)
        attempts.append(Attempt(init_vt, side, result.stop_reason,
                                result.iterations, result.epochs))
        if result.converged:
            break
    result.attempts = attempts
    return result


def write_trace_csv(trace: list[TraceEntry], fp) -> None:
    writer = csv.writer(fp)
    writer.writerow(["iteration", "epoch", "minterm", "device",
                     "old_vt", "new_vt", "reason"])
    for e in trace:
        writer.writerow([e.iteration, e.epoch, e.minterm, e.device,
                         f"{e.old_vt:.6f}", f"{e.new_vt:.6f}", e.reason])
