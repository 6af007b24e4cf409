"""Boolean function representation and unateness analysis.

A truth table of n inputs is stored as a 2^n-bit integer; the bit at
position m is f(m), where minterm index m encodes x_1 as its least
significant bit.  The same convention is used by the hex serialization
(minterm 0 = LSB of the hex value).
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache


MAX_INPUTS = 8


class Polarity(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    UNUSED = "unused"
    NONUNATE = "nonunate"


@dataclass(frozen=True)
class TruthTable:
    n: int
    bits: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_INPUTS:
            raise ValueError(f"input count must be in [1, {MAX_INPUTS}], got {self.n}")
        if not 0 <= self.bits < (1 << (1 << self.n)):
            raise ValueError(f"table value out of range for n={self.n}")

    @property
    def size(self) -> int:
        return 1 << self.n

    def value(self, minterm: int) -> int:
        return (self.bits >> minterm) & 1

    def values(self) -> list[int]:
        """[f(0), f(1), ..., f(2^n - 1)]."""
        return [(self.bits >> m) & 1 for m in range(self.size)]

    def onset(self):
        return [m for m, v in enumerate(self.values()) if v]

    def is_constant(self) -> bool:
        return self.bits == 0 or self.bits == (1 << self.size) - 1

    def to_hex(self) -> str:
        width = max(1, self.size // 4)
        return format(self.bits, f"0{width}x")

    def __str__(self):
        return f"tt(n={self.n}, {self.to_hex()})"


def parse_truth_table(spec: str, n: int) -> TruthTable:
    """Parse a zero-padded hex string into a table of exactly n inputs."""
    if not 1 <= n <= MAX_INPUTS:
        raise ValueError(f"input count must be in [1, {MAX_INPUTS}], got {n}")
    width = max(1, (1 << n) // 4)
    if len(spec) != width:
        raise ValueError(
            f"hex spec for n={n} must have {width} digits, got {len(spec)}"
        )
    # int() would also take signs, spaces, "_", "0x" and any script's digits
    if not all(c in string.hexdigits for c in spec):
        raise ValueError(f"not a hex string: {spec!r}")
    return TruthTable(n, int(spec, 16))


@lru_cache(maxsize=None)
def _low_halves(n: int) -> tuple[int, ...]:
    """Per input i, the table mask of the minterms with x_{i+1} = 0."""
    ones = (1 << (1 << n)) - 1
    return tuple(ones // ((1 << (2 << i)) - 1) * ((1 << (1 << i)) - 1)
                 for i in range(n))


def unateness(tt: TruthTable) -> list[Polarity]:
    """Per-variable polarity; NONUNATE variables rule out thresholdness."""
    out = []
    for i, low in enumerate(_low_halves(tt.n)):
        neg, pos = tt.bits & low, (tt.bits >> (1 << i)) & low  # the cofactors
        if neg == pos:
            out.append(Polarity.UNUSED)
        elif neg & ~pos == 0:
            out.append(Polarity.POSITIVE)
        elif pos & ~neg == 0:
            out.append(Polarity.NEGATIVE)
        else:
            out.append(Polarity.NONUNATE)
    return out


def chow_parameters(tt: TruthTable) -> list[int]:
    """Per input, the number of onset minterms in which it is 1."""
    return [(tt.bits & ~low).bit_count() for low in _low_halves(tt.n)]


def apply_complements(tt: TruthTable, mask: int) -> TruthTable:
    """Complement the inputs selected by mask (an involution)."""
    bits = tt.bits
    for i, low in enumerate(_low_halves(tt.n)):
        if (mask >> i) & 1:
            shift = 1 << i
            bits = ((bits & low) << shift) | ((bits >> shift) & low)
    return TruthTable(tt.n, bits)


def permute_inputs(tt: TruthTable, perm: tuple[int, ...]) -> TruthTable:
    """Relabel inputs: new variable j reads old variable perm[j].  With
    fewer entries than inputs, the inputs left out read 0.  Each variable
    reaches its place in one delta swap (Knuth, TAOCP 4A 7.1.3): positions
    i < p swap every minterm with bit i set and bit p clear for its partner
    2^p - 2^i above.  The inputs left out end above position len(perm)."""
    low = _low_halves(tt.n)
    at = list(range(tt.n))  # at[p]: the old variable now at position p
    bits = tt.bits
    for i, var in enumerate(perm):
        p = at.index(var)
        if p != i:
            d = (1 << p) - (1 << i)
            t = (bits ^ (bits >> d)) & low[p] & ~low[i]
            bits ^= t | (t << d)
            at[i], at[p] = var, at[i]
    return TruthTable(len(perm), bits & ((1 << (1 << len(perm))) - 1))


def to_positive_form(tt: TruthTable) -> tuple[TruthTable, int]:
    """Complement negative-unate inputs; returns (table, complement mask).

    Applying the mask again recovers the original table.
    """
    pol = unateness(tt)
    mask = 0
    for i, p in enumerate(pol):
        if p is Polarity.NONUNATE:
            raise ValueError(f"input x{i + 1} is not unate; no positive form")
        if p is Polarity.NEGATIVE:
            mask |= 1 << i
    return apply_complements(tt, mask), mask
