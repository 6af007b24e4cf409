"""Seeded benchmark inputs: NP variants of catalog classes and generated
sequential BLIF designs.

Everything here is plain Python driven by `random.Random(seed)`; the
library under test only ever sees the tables and BLIF text made here.
"""

from __future__ import annotations

import random

# Generated designs per netlist-map pass, and which of them carry one
# 5-input unate non-threshold cone (ab + cde).  The recipe of every design
# (its cone kinds, how many leaves are inverted, how many latches reset to
# 1) is fixed by its index, so the work per pass does not depend on the
# seed; the seed picks the sources of every cone, which leaf is inverted,
# which latches reset to 1 and which nets are primary outputs.
N_GENERATED = 37
HEAVY_DESIGNS = (0, 18)
THRESHOLD_KINDS = ("maj3", "f115", "a_or_bc", "and3")
RESET_TO_ONE = 2
LIGHT_PIS = 6
HEAVY_PIS = 8


def np_variant(bits: int, n: int, perm: tuple, cmask: int) -> int:
    """Permute and complement the inputs of an n-input table: new input j
    reads old input perm[j], and the inputs in cmask are complemented."""
    out = 0
    for m in range(1 << n):
        src = 0
        for j in range(n):
            if (m >> j) & 1:
                src |= 1 << perm[j]
        out |= ((bits >> (src ^ cmask)) & 1) << m
    return out


class _Design:
    def __init__(self, name: str, n_pi: int, n_latch: int, rng: random.Random):
        self.name = name
        self.rng = rng
        self.pis = [f"pi{i}" for i in range(n_pi)]
        self.qs = [f"q{i}" for i in range(n_latch)]
        self.lines: list[str] = []
        self.latches: list[str] = []
        self.internal: list[str] = []
        self.inverters: dict[str, str] = {}
        self.count = 0

    def gate(self, ins: list[str], fn) -> str:
        out = f"n{self.count}"
        self.count += 1
        self.lines.append(".names " + " ".join(ins) + " " + out)
        k = len(ins)
        for m in range(1 << k):
            bits = [(m >> i) & 1 for i in range(k)]
            if fn(*bits):
                self.lines.append("".join(map(str, bits)) + " 1")
        self.internal.append(out)
        return out

    def inv(self, src: str) -> str:
        # One inverter per source, shared by every cone that reads it.
        if src not in self.inverters:
            self.inverters[src] = self.gate([src], lambda a: 1 - a)
        return self.inverters[src]

    def leaves(self, k: int, inverted: int = 0) -> list[str]:
        """k distinct sources (primary inputs or register outputs), of
        which `inverted` are read through an inverter."""
        picked = self.rng.sample(self.pis + self.qs, k)
        flip = set(self.rng.sample(range(k), inverted))
        return [self.inv(s) if i in flip else s for i, s in enumerate(picked)]

    def latch(self, d: str) -> None:
        self.latches.append((d, self.qs[len(self.latches)]))

    # Cone builders: each returns the root net.
    def maj3(self, a, b, c):
        g1 = self.gate([a, b], lambda x, y: x & y)
        g2 = self.gate([a, c], lambda x, y: x & y)
        g3 = self.gate([b, c], lambda x, y: x & y)
        return self.gate([g1, g2, g3], lambda x, y, z: x | y | z)

    def f115(self, a, b, c, d, e):
        o = self.gate([b, c, d, e], lambda w, x, y, z: w | x | y | z)
        return self.gate([a, o], lambda x, y: x & y)

    def a_or_bc(self, a, b, c):
        x = self.gate([b, c], lambda u, v: u & v)
        return self.gate([a, x], lambda u, v: u | v)

    def and3(self, a, b, c):
        return self.gate([a, b, c], lambda x, y, z: x & y & z)

    def ab_cd(self, a, b, c, d):
        x = self.gate([a, b], lambda u, v: u & v)
        y = self.gate([c, d], lambda u, v: u & v)
        return self.gate([x, y], lambda u, v: u | v)

    def ab_cde(self, a, b, c, d, e):
        x = self.gate([a, b], lambda u, v: u & v)
        y = self.gate([c, d, e], lambda u, v, w: u & v & w)
        return self.gate([x, y], lambda u, v: u | v)

    def xor2(self, a, b):
        return self.gate([a, b], lambda u, v: u ^ v)

    def mux(self, s, a, b):
        x = self.gate([s, a], lambda u, v: u & v)
        y = self.gate([self.inv(s), b], lambda u, v: u & v)
        return self.gate([x, y], lambda u, v: u | v)

    def threshold_cone(self, kind: str) -> str:
        width = 5 if kind == "f115" else 3
        return getattr(self, kind)(*self.leaves(width, inverted=1))

    def blif(self) -> str:
        ones = set(self.rng.sample(range(len(self.latches)), RESET_TO_ONE))
        taps = self.rng.sample(self.internal, 2)
        regs = self.rng.sample(self.qs, (len(self.qs) + 1) // 2)
        out = [f".model {self.name}",
               ".inputs " + " ".join(self.pis),
               ".outputs " + " ".join(regs + taps)]
        out += self.lines
        out += [f".latch {d} {q} re clk {int(i in ones)}"
                for i, (d, q) in enumerate(self.latches)]
        out.append(".end")
        return "\n".join(out) + "\n"


def generate_design(seed: int, index: int) -> str:
    """One sequential design.  Every design has two threshold cones with
    one inverted leaf each, one 4-input unate non-threshold cone (ab + cd),
    one binate cone (xor or mux), a pair of threshold cones sharing a gate
    and one latch fed straight from a primary input; heavy designs add one
    ab + cde cone over five distinct sources.  Two latches reset to 1 and
    two internal nets are tapped as primary outputs."""
    rng = random.Random(seed * 1_000_003 + index)
    heavy = index in HEAVY_DESIGNS
    d = _Design(f"gen_{seed}_{index}", HEAVY_PIS if heavy else LIGHT_PIS,
                8 if heavy else 7, rng)
    d.latch(d.threshold_cone(THRESHOLD_KINDS[index % 4]))
    d.latch(d.threshold_cone(THRESHOLD_KINDS[(index + 1) % 4]))
    d.latch(d.ab_cd(*d.leaves(4)))
    d.latch(d.mux(*d.leaves(3)) if index % 2 else d.xor2(*d.leaves(2)))
    a, b, c, e = d.leaves(4, inverted=1)
    shared = d.gate([a, b], lambda u, v: u & v)
    d.latch(d.gate([shared, c], lambda u, v: u | v))
    d.latch(d.gate([shared, e], lambda u, v: u & v))
    d.latch(rng.choice(d.pis))
    if heavy:
        d.latch(d.ab_cde(*d.leaves(5)))
    return d.blif()


def generate_designs(seed: int) -> list[tuple[str, str]]:
    return [(f"gen{i:02d}", generate_design(seed, i))
            for i in range(N_GENERATED)]
