"""Behavioral electrical model of the FTL cell.

The cell is reduced to a conductance comparison: for a minterm, the left
network sums the branch conductances of inputs at 1 plus the left side
device, the right network sums inputs at 0 plus the right side device.
The output is 1 when G_L wins; the sense-amp resolution time is modeled
as TAU0 + TAU1 / |G_L - G_R|.  One kernel, `input_sums`, adds the inputs
of every minterm in ascending order.  Its scalar list serves only the
trainer's walk, the `verify_cell` certificate (both via `first_miss`) and
the reference `evaluate` (via `respond`).  Every other reader takes the
numpy block that `conductances` builds: one row per trial for `yield_mc`,
one nominal row for `worst_case_delay` and `model_power`.

Branch conductance uses the alpha-power law g = max(0, Vgate - Vt)^ALPHA
(ALPHA = 1.3; Sakurai and Newton, IEEE JSSC 1990) in normalized siemens
(k_cond = 1), the saturation current of a flash device in series with a
full-rail input switch.  A block reaches libm pow, as `**` does, through
np.float_power; np.power's SIMD loop can differ in the last bit.  The
constants and the 0.02 V Vt step are fixed; DeviceParams exposes them.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .truthtable import TruthTable

ALPHA = 1.3  # alpha-power law exponent
TAU0 = 50e-12  # seconds, sense-amp resolution time at an infinite gap
# Sense-amp contention coefficient, calibrated once so that the margin-0
# trained F115 reference cell reports a worst-case delay of ~244 ps.
TAU1 = 5.145e-12  # siemens * seconds

METASTABLE_EPS = 1e-12  # siemens
# The highest supply accepted, 9x the sweep's 1.1 V: the trainer's walk grows
# with vdd, and at 10 V the slowest class trains in 17 ms (2 vCPU, Py 3.11).
VDD_MAX = 10.0  # volts

# Power model constants (trend-level only).
SWITCHING_ACTIVITY = 0.2
CLOCK_FREQ = 1e9  # hertz
C_EFF = 1e-15  # farads
DUTY = 0.5


@dataclass(frozen=True)
class DeviceParams:
    """Supply and gate drive; the Vt step and the model constants are
    read-only."""

    vdd: float = 0.9
    vgate: float | None = None  # defaults to vdd
    delta: ClassVar[float] = 0.02
    k_cond: ClassVar[float] = 1.0
    alpha: ClassVar[float] = ALPHA
    tau0: ClassVar[float] = TAU0
    tau1: ClassVar[float] = TAU1

    def __post_init__(self):
        if not 2 * self.delta < self.vdd:
            raise ValueError(f"vdd must exceed twice the Vt step "
                             f"({2 * self.delta:g} V)")
        if self.vdd > VDD_MAX:
            raise ValueError(f"vdd must not exceed {VDD_MAX:g} V")
        if self.vgate is None:
            object.__setattr__(self, "vgate", self.vdd)
        if self.vgate <= self.vdd / 2:
            raise ValueError("vgate must exceed vdd/2")
        try:  # an infinite, NaN or overflowing full-drive conductance
            finite = math.isfinite(self.vgate ** ALPHA)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"vgate must be finite, with a finite full-drive "
                             f"conductance vgate ** {ALPHA}")

    @property
    def kappa(self) -> float:
        """Siemens per farad: 0.1 fF maps to 15% of mid-range conductance."""
        return 0.15 * (self.vgate - self.vdd / 2) ** ALPHA / 0.1e-15

    @property
    def vt_min(self) -> float:
        return self.delta

    @property
    def vt_max(self) -> float:
        return self.vdd - self.delta


def branch_conductance(vt_eff: float, params: DeviceParams) -> float:
    """Conductance of one input branch; zero at and beyond cutoff."""
    drive = params.vgate - vt_eff
    if drive <= 0.0:
        return 0.0
    return drive ** ALPHA


@dataclass(frozen=True)
class VariationSample:
    """Per-device local Vt shifts (inputs first, then left and right side
    devices), a shared global Vt shift, and a conductance multiplier.  A
    block of trials holds arrays with one entry per trial: local
    [n+2, trials], global_shift and k_mult [trials]."""

    local: tuple[float, ...]
    global_shift: float = 0.0
    k_mult: float = 1.0


_MASK32 = 0xFFFFFFFF


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult^k mod 2^32 for k < count, as a column: the constants a
    SeedSequence hash steps through, whatever the words it hashes."""
    consts = [init]
    while len(consts) < count:
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, np.uint32)[:, None]


def _hashmix(words, consts):  # one hash per step of consts, for all trials
    out = (words ^ consts[:-1]) * consts[1:]
    return out ^ (out >> 16)


def _mix(x, y):
    out = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
    return out ^ (out >> 16)


def _pcg64_seeds(seed: int, trials: np.ndarray | None = None) -> np.ndarray:
    """SeedSequence((seed, t)).generate_state(4, np.uint64) of every trial t,
    [len(trials), 4], or SeedSequence(seed)'s, [1, 4], with no trials:
    numpy's pool-of-4 hash (stable by NEP 19) run on all trials at once,
    one column per trial."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    # SeedSequence splits an int into 32-bit words, low first.
    words = [seed >> s & _MASK32
             for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.zeros((max(4, len(words) + (trials is not None)),
                        1 if trials is None else len(trials)), np.uint32)
    entropy[:len(words)] = np.array(words, np.uint32)[:, None]
    if trials is not None:
        entropy[len(words)] = trials
    consts = _hash_consts(0x43B0D7E5, 0x931E8875, 4 * len(entropy) + 1)
    pool = _hashmix(entropy[:4], consts[:5])
    k = 4
    for src in range(4):  # src's hash stays fixed while the others absorb it
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k:k + 4]))
        k += 3
    for word in entropy[4:]:
        pool = _mix(pool, _hashmix(word, consts[k:k + 5]))
        k += 4
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]],
                     _hash_consts(0x8B51F9DD, 0x58F38DED, 9))
    return np.ascontiguousarray(state.T, "<u4").view("<u8").astype(np.uint64)


@lru_cache(maxsize=None)
def _pcg64_from_words():
    """PCG64 seeded straight from a trial's hashed words, through numpy's
    ISeedSequence interface; all trials share one holder, which a PCG64
    reads only while it is built.  Built on first use, so that importing
    ftl does not load numpy.random (~15 ms) for runs that draw no variation."""
    from numpy.random import PCG64
    from numpy.random.bit_generator import ISeedSequence

    class Seeded(ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    def pcg64(words, holder=Seeded()):
        holder.words = words
        return PCG64(holder)

    return pcg64


def sample_variation(
    n: int,
    sigma_local: float,
    sigma_global: float,
    sigma_k: float,
    seed: int,
    trial: int | Sequence[int],
) -> VariationSample:
    """Deterministic Gaussian variation draw for one Monte Carlo trial (an
    int) or for a block of trials (a sequence of ints; see VariationSample).

    Trial t of seed s is drawn from its own stream, PCG64 seeded by
    SeedSequence((s, t)), the stream np.random.default_rng((s, t)) gives:
    the same (seed, trial) reproduce the same sample whether drawn alone or
    in any block.  The stream's normals fill the local shifts, the global
    shift and log k_mult in that order, each only if its sigma is nonzero.
    Trials must lie in [0, 2^32)."""
    if min(sigma_local, sigma_global, sigma_k) < 0:
        raise ValueError("sigmas must be nonnegative")
    trials = np.atleast_1d(np.asarray(trial, dtype=np.int64))
    if trials.size and not (0 <= trials.min() and trials.max() <= _MASK32):
        raise ValueError("trials must lie in [0, 2^32)")
    sigmas = np.repeat([sigma_local, sigma_global, sigma_k], [n + 2, 1, 1])
    drawn = sigmas != 0
    seeds = _pcg64_seeds(int(seed), trials)
    x = np.zeros((len(trials), n + 4))
    if drawn.any():
        z = np.empty((len(trials), int(drawn.sum())))
        pcg64 = _pcg64_from_words()
        for words, row in zip(seeds, z):
            np.random.Generator(pcg64(words)).standard_normal(out=row)
        x[:, drawn] = 0.0 + sigmas[drawn] * z  # as Generator.normal(0, sigma)
    local, gshift, kmult = x[:, :n + 2].T, x[:, n + 2], np.exp(x[:, n + 3])
    if np.ndim(trial) == 0:
        return VariationSample(tuple(local[:, 0].tolist()), float(gshift[0]),
                               float(kmult[0]))
    return VariationSample(local, gshift, kmult)


@dataclass(frozen=True)
class FtlCell:
    """Programmable state of one cell: per-input flash thresholds plus the
    two side devices.  A side device parked at vdd is effectively off."""

    n: int
    vt: tuple[float, ...]
    v_left: float
    v_right: float
    params: DeviceParams = field(default_factory=DeviceParams)

    def __post_init__(self):
        if len(self.vt) != self.n:
            raise ValueError("vt length must equal n")
        object.__setattr__(self, "vt", tuple(float(v) for v in self.vt))

    @classmethod
    def fresh(cls, n: int, params: DeviceParams, init_vt: float,
              active_side: str) -> "FtlCell":
        """Every device at init_vt but the inactive side one, parked at vdd."""
        if active_side == "right":
            return cls(n, (init_vt,) * n, params.vdd, init_vt, params)
        return cls(n, (init_vt,) * n, init_vt, params.vdd, params)

    def all_vt(self) -> tuple[float, ...]:
        return self.vt + (self.v_left, self.v_right)

    def to_json(self) -> str:
        d = {
            "n": self.n,
            "vt": [round(v, 6) for v in self.vt],
            "v_left": round(self.v_left, 6),
            "v_right": round(self.v_right, 6),
            "params": {
                "vdd": self.params.vdd,
                "vgate": self.params.vgate,
                "delta": self.params.delta,
                "k_cond": self.params.k_cond,
                "alpha": self.params.alpha,
                "tau0": self.params.tau0,
                "tau1": self.params.tau1,
                "kappa": self.params.kappa,
            },
        }
        return json.dumps(d, indent=2)


@dataclass(frozen=True)
class EvalResult:
    y: int
    g_left: float
    g_right: float
    gap: float
    delay: float
    metastable: bool


def _devices(cell: FtlCell, sample: VariationSample | None):
    """Branch conductances (inputs, then the left and right side devices)
    and k_mult under one variation sample; under a block, one row per
    device with one entry per trial.  An input's Vt shifts by
    (global + local), a side device's by global and then local."""
    p = cell.params
    if sample is None:
        return [branch_conductance(v, p) for v in cell.all_vt()], 1.0
    if len(sample.local) != cell.n + 2:
        raise ValueError("variation sample width mismatch")
    g, local = sample.global_shift, sample.local
    vts = [v + (g + dv) for v, dv in zip(cell.vt, local)]
    vts += [cell.v_left + g + local[-2], cell.v_right + g + local[-1]]
    if np.ndim(g):  # float_power is libm pow, as branch_conductance's **
        drive = np.maximum(p.vgate - np.array(vts), 0.0)
        return np.float_power(drive, ALPHA), sample.k_mult
    return [branch_conductance(v, p) for v in vts], sample.k_mult


def sense_delay(gap: float) -> float:
    """Sense-amp resolution time of a conductance gap (inf if metastable);
    it never grows with |gap|, so the smallest |gap| has the worst delay."""
    mag = abs(gap)
    return math.inf if mag < METASTABLE_EPS else TAU0 + TAU1 / mag


def input_sums(g, n: int, prefix: list[float] | None = None):
    """Entry m adds the g[i] of the inputs at 1 in m in ascending order of
    i; entry 2^n - 1 - m sums the inputs at 0.  Input i doubles the table:
    sums[m | 1 << i] = sums[m] + g[i] for m < 2^i.  g is a list, or an
    array of one row per trial, giving [trials, 2^n].  A list prefix, the
    first 2^k entries of a table whose inputs below k still hold, is
    extended in place: those entries read no other input."""
    if isinstance(g, np.ndarray):
        sums = np.zeros((len(g), 1 << n))
        for i in range(n):
            np.add(sums[:, :1 << i], g[:, i:i + 1], out=sums[:, 1 << i:2 << i])
        return sums
    sums = [0.0] if prefix is None else prefix
    for i in range(len(sums).bit_length() - 1, n):
        gi = g[i]
        sums += [s + gi for s in sums]
    return sums


def respond(g, sums, minterm: int, margin: float = 0.0, kmult: float = 1.0):
    """(y, metastable, G_L, G_R) of one minterm from branch conductances g
    (inputs, then left and right side devices) and their input_sums: the
    side device is added to each input sum, then both scale by k_mult."""
    n = len(g) - 2
    g_left = (sums[minterm] + g[n]) * kmult
    g_right = (sums[-1 - minterm] + g[n + 1]) * kmult
    gap = g_left - g_right
    return (1 if gap > margin else 0, abs(gap - margin) < METASTABLE_EPS,
            g_left, g_right)


def evaluate(
    cell: FtlCell,
    minterm: int,
    margin: float = 0.0,
    sample: VariationSample | None = None,
) -> EvalResult:
    """Evaluate one minterm.  A positive margin handicaps the '1' decision
    (callers pass a negative margin to handicap the '0' decision).  The
    margin models a training-only capacitor and is excluded from delay."""
    if not 0 <= minterm < (1 << cell.n):
        raise ValueError(f"minterm {minterm} out of range for n={cell.n}")
    g, kmult = _devices(cell, sample)
    sums = input_sums(g, cell.n)
    y, metastable, g_left, g_right = respond(g, sums, minterm, margin, kmult)
    gap = g_left - g_right
    return EvalResult(y, g_left, g_right, gap, sense_delay(gap), metastable)


def conductances(cell: FtlCell, sample: VariationSample | None = None):
    """(G_L, G_R) of every minterm under a variation sample (None is
    nominal), shaped [trials, 2^n]: one row, or one per trial of a block.
    Devices are added in respond's order and scaled by k_mult last, so
    every entry equals evaluate's."""
    g, kmult = _devices(cell, sample)
    n = cell.n
    g, kmult = np.array(g).reshape(n + 2, -1).T, np.array(kmult).reshape(-1)
    sums = input_sums(g, n)
    # The inputs at 0 in m are the inputs at 1 in its complement, 2^n-1-m.
    return ((sums + g[:, n:n + 1]) * kmult[:, None],
            (sums[:, ::-1] + g[:, n + 1:]) * kmult[:, None])


def _same_inputs(cell: FtlCell, tt: TruthTable) -> None:
    if tt.n != cell.n:
        raise ValueError(f"truth table has {tt.n} inputs, cell has {cell.n}")


def minterm_checks(cell: FtlCell, tt: TruthTable,
                   sample: VariationSample) -> tuple[np.ndarray, list[float]]:
    """Per trial of a block: which minterms miss tt or are metastable,
    [trials, tt.size], and the worst-case delay."""
    _same_inputs(cell, tt)
    gap = np.subtract(*conductances(cell, sample))
    want = np.array(tt.values(), dtype=bool)
    miss = ((gap > 0.0) != want) | (np.abs(gap) < METASTABLE_EPS)
    mag = np.abs(gap).min(axis=1)
    with np.errstate(divide="ignore"):  # sense_delay of each trial's worst gap
        delay = np.where(mag < METASTABLE_EPS, math.inf, TAU0 + TAU1 / mag)
    return miss, delay.tolist()


def first_miss(g, sums, wants, margin: float, start: int = 0) -> int | None:
    """The first minterm m >= start that misses wants[m] under a +margin
    (on-set) or -margin (off-set) handicap, or is metastable, by respond's
    arithmetic and verdicts on g and its input_sums; None if none does.

    One comparison per minterm gives respond's two tests.  Under gradual
    underflow x - y == 0 only if x == y, so d = gap - margin is 0 only at
    gap == margin and otherwise keeps the exact difference's sign.  An
    on-set minterm misses (gap <= margin or |d| < EPS) iff d < EPS,
    written not d >= EPS so that a NaN margin misses, as in respond; an
    off-set one iff gap + margin > -EPS, false for a NaN margin."""
    side_left, side_right = g[-2], g[-1]
    top, eps, neg_eps = len(sums) - 1, METASTABLE_EPS, -METASTABLE_EPS
    for m in range(start, len(wants)):
        gap = (sums[m] + side_left) - (sums[top - m] + side_right)
        if wants[m]:
            if not gap - margin >= eps:
                return m
        elif gap + margin > neg_eps:
            return m
    return None


def verify_cell(cell: FtlCell, tt: TruthTable, margin: float = 0.0) -> bool:
    """Exhaustive functional check: every on-set minterm must clear the
    margin and every off-set minterm must clear it on the other side."""
    g = _devices(cell, None)[0]
    return tt.n == cell.n and first_miss(g, input_sums(g, cell.n),
                                         tt.values(), margin) is None


def worst_case_delay(cell: FtlCell, tt: TruthTable) -> float:
    """Max nominal evaluate delay over all minterms (the modeled C2Q)."""
    _same_inputs(cell, tt)
    return sense_delay(float(np.abs(np.subtract(*conductances(cell))).min()))


def model_power(cell: FtlCell, tt: TruthTable) -> float:
    """Trend-level power: dynamic switching term plus the crowbar-style
    static term through the losing network."""
    _same_inputs(cell, tt)
    vdd = cell.params.vdd
    static_g = np.mean(np.minimum(*conductances(cell))[0])
    dynamic = SWITCHING_ACTIVITY * CLOCK_FREQ * C_EFF * vdd ** 2
    return dynamic + vdd ** 2 * float(static_g) * DUTY
