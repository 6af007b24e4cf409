"""Behavioral electrical model of the FTL cell.

The cell is reduced to a conductance comparison: for a minterm, the left
network sums the branch conductances of inputs at 1 plus the left side
device, the right network sums inputs at 0 plus the right side device.
The output is 1 when G_L wins; the sense-amp resolution time is modeled
as tau0 + tau1 / |G_L - G_R|.  `respond` decides one minterm for `evaluate`
and for the trainer, which builds conductances once per cell state;
`conductances` sums all minterms at once in the same order.

Branch conductance uses the alpha-power law g = k * max(0, Vgate - Vt)^alpha
(alpha = 1.3), a stand-in for the saturation current of the flash device
in series with a full-rail input switch.  All conductances are in
normalized siemens (k_cond = 1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .truthtable import TruthTable

# Sense-amp contention coefficient, calibrated once so that the margin-0
# trained F115 reference cell reports a worst-case delay of ~244 ps.
TAU1_DEFAULT = 5.145e-12  # siemens * seconds

METASTABLE_EPS = 1e-12  # siemens


def _default_kappa(vdd: float, vgate: float, k_cond: float, alpha: float) -> float:
    # 0.1 fF of handicap capacitance maps to 15% of the mid-range conductance.
    g_mid = k_cond * max(0.0, vgate - vdd / 2) ** alpha
    return 0.15 * g_mid / 0.1e-15


@dataclass(frozen=True)
class DeviceParams:
    vdd: float = 0.9
    vgate: float | None = None  # defaults to vdd
    delta: float = 0.02
    k_cond: float = 1.0
    alpha: float = 1.3
    tau0: float = 50e-12
    tau1: float = TAU1_DEFAULT
    kappa: float | None = None  # siemens per farad, defaults via _default_kappa
    # power model constants (trend-level only)
    switching_activity: float = 0.2
    clock_freq: float = 1e9
    c_eff: float = 1e-15
    duty: float = 0.5

    def __post_init__(self):
        if self.vdd <= 0:
            raise ValueError("vdd must be positive")
        if not 0 < self.delta < self.vdd / 2:
            raise ValueError("delta must lie in (0, vdd/2)")
        if not 1.0 <= self.alpha <= 2.0:
            raise ValueError("alpha must lie in [1, 2]")
        if self.tau0 <= 0 or self.tau1 <= 0:
            raise ValueError("tau0 and tau1 must be positive")
        if self.vgate is None:
            object.__setattr__(self, "vgate", self.vdd)
        if self.kappa is None:
            object.__setattr__(
                self,
                "kappa",
                _default_kappa(self.vdd, self.vgate, self.k_cond, self.alpha),
            )
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")

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
    return params.k_cond * drive ** params.alpha


@dataclass(frozen=True)
class VariationSample:
    """Per-device local Vt shifts (inputs first, then left and right side
    devices), a shared global Vt shift, and a conductance multiplier."""

    local: tuple[float, ...]
    global_shift: float = 0.0
    k_mult: float = 1.0


def sample_variation(
    n: int,
    sigma_local: float,
    sigma_global: float,
    sigma_k: float,
    seed: int,
    trial: int,
) -> VariationSample:
    """Deterministic Gaussian variation draw for one Monte Carlo trial;
    identical (seed, trial) always reproduce the identical sample."""
    if min(sigma_local, sigma_global, sigma_k) < 0:
        raise ValueError("sigmas must be nonnegative")
    rng = np.random.default_rng((int(seed), int(trial)))
    local = rng.normal(0.0, sigma_local, n + 2) if sigma_local else np.zeros(n + 2)
    gshift = float(rng.normal(0.0, sigma_global)) if sigma_global else 0.0
    kmult = float(np.exp(rng.normal(0.0, sigma_k))) if sigma_k else 1.0
    return VariationSample(tuple(float(v) for v in local), gshift, kmult)


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

    @classmethod
    def from_json(cls, text: str) -> "FtlCell":
        d = json.loads(text)
        params = DeviceParams(**d["params"])
        return cls(d["n"], tuple(d["vt"]), d["v_left"], d["v_right"], params)


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
    and k_mult under one variation sample.  An input's Vt shifts by
    (global + local), a side device's by global and then local."""
    p = cell.params
    if sample is None:
        return [branch_conductance(v, p) for v in cell.all_vt()], 1.0
    if len(sample.local) != cell.n + 2:
        raise ValueError("variation sample width mismatch")
    g, local = sample.global_shift, sample.local
    vts = [v + (g + dv) for v, dv in zip(cell.vt, local)]
    vts += [cell.v_left + g + local[-2], cell.v_right + g + local[-1]]
    return [branch_conductance(v, p) for v in vts], sample.k_mult


def sense_delay(p: DeviceParams, gap: float) -> float:
    """Sense-amp resolution time of a conductance gap (inf if metastable);
    it never grows with |gap|, so the smallest |gap| has the worst delay."""
    mag = abs(gap)
    return math.inf if mag < METASTABLE_EPS else p.tau0 + p.tau1 / mag


@lru_cache(maxsize=None)
def _split(n: int) -> tuple:  # per minterm: (inputs at 1, inputs at 0)
    return tuple((tuple(i for i in range(n) if (m >> i) & 1),
                  tuple(i for i in range(n) if not (m >> i) & 1))
                 for m in range(1 << n))


def respond(g, minterm: int, margin: float = 0.0, kmult: float = 1.0):
    """(y, metastable, G_L, G_R) of one minterm from branch conductances g
    (inputs, then left and right side devices), adding inputs in ascending
    order, then the side device, then scaling by k_mult."""
    n = len(g) - 2
    ones, zeros = _split(n)[minterm]
    g_left = g_right = 0.0
    for i in ones:
        g_left += g[i]
    for i in zeros:
        g_right += g[i]
    g_left = (g_left + g[n]) * kmult
    g_right = (g_right + g[n + 1]) * kmult
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
    y, metastable, g_left, g_right = respond(g, minterm, margin, kmult)
    gap = g_left - g_right
    return EvalResult(y, g_left, g_right, gap, sense_delay(cell.params, gap),
                      metastable)


def conductances(cell: FtlCell, samples=(None,)):
    """(G_L, G_R) of every minterm under each variation sample (None is
    nominal), shaped [len(samples), 2^n].  Devices are added in respond's
    order and scaled by k_mult last, so every entry equals evaluate's."""
    g, kmult = map(np.array, zip(*(_devices(cell, s) for s in samples)))
    n = cell.n
    inputs = np.zeros((len(g), 1 << n))  # summed inputs at 1, per minterm
    for i in range(n):
        on = ((np.arange(1 << n) >> i) & 1).astype(bool)
        inputs += np.where(on, g[:, i:i + 1], 0.0)
    # The inputs at 0 in m are the inputs at 1 in its complement, 2^n-1-m.
    return ((inputs + g[:, n:n + 1]) * kmult[:, None],
            (inputs[:, ::-1] + g[:, n + 1:]) * kmult[:, None])


def minterm_checks(cell: FtlCell, tt: TruthTable, samples=(None,),
                   margin: float = 0.0) -> tuple[np.ndarray, list[float]]:
    """Per sample: which minterms miss tt under evaluate's margin rule or
    are metastable, [len(samples), tt.size], and the worst-case delay."""
    gap = np.subtract(*conductances(cell, samples))[:, :tt.size]
    want = np.array(tt.values(), dtype=bool)
    handicap = np.where(want, margin, -margin)
    miss = (gap > handicap) != want
    miss |= np.abs(gap - handicap) < METASTABLE_EPS
    return miss, [sense_delay(cell.params, float(g))
                  for g in np.abs(gap).min(axis=1)]


def verify_cell(cell: FtlCell, tt: TruthTable, margin: float = 0.0) -> bool:
    """Exhaustive functional check: every on-set minterm must clear the
    margin and every off-set minterm must clear it on the other side."""
    return (tt.n == cell.n
            and not minterm_checks(cell, tt, margin=margin)[0].any())


def worst_case_delay(cell: FtlCell, tt: TruthTable) -> float:
    """Max nominal evaluate delay over all minterms (the modeled C2Q)."""
    return minterm_checks(cell, tt)[1][0]


def model_power(cell: FtlCell, tt: TruthTable) -> float:
    """Trend-level power: dynamic switching term plus the crowbar-style
    static term through the losing network."""
    p = cell.params
    static_g = np.mean(np.minimum(*conductances(cell))[0, :tt.size])
    dynamic = p.switching_activity * p.clock_freq * p.c_eff * p.vdd ** 2
    return dynamic + p.vdd ** 2 * float(static_g) * p.duty
