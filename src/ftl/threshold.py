"""Linear-separability detection, minimal-weight solving, and the
NP-class catalog of small threshold functions.

A function f is threshold iff integer weights W and a threshold T exist
with f(m) = 1 <=> sum(w_i * m_i) >= T.  The solver searches nonnegative
weights on the positive-unate form ordered by increasing weight sum, so
the first hit is the minimum-sum solution; ties break lexicographically
on the weight vector, then on the smallest T.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .truthtable import (
    Polarity,
    TruthTable,
    apply_complements,
    permute_inputs,
    project_to_support,
    to_positive_form,
    unateness,
)

DEFAULT_WEIGHT_BOUND = 16
_SOLVER_MAX_INPUTS = 6


@dataclass(frozen=True)
class ThresholdFunction:
    weights: tuple[int, ...]
    threshold: int

    def evaluate(self, minterm: int) -> int:
        acc = 0
        for i, w in enumerate(self.weights):
            if (minterm >> i) & 1:
                acc += w
        return 1 if acc >= self.threshold else 0

    def realizes(self, tt: TruthTable) -> bool:
        if len(self.weights) != tt.n:
            return False
        return all(self.evaluate(m) == tt.value(m) for m in range(tt.size))


def _minterm_matrix(n: int) -> np.ndarray:
    m = np.arange(1 << n)
    return ((m[:, None] >> np.arange(n)) & 1).astype(np.int64)


def _compositions(total: int, parts: int, bound: int):
    """All vectors of `parts` ints in [0, bound] summing to `total`,
    in ascending lexicographic order."""
    if parts == 1:
        if total <= bound:
            yield (total,)
        return
    for first in range(max(0, total - bound * (parts - 1)), min(bound, total) + 1):
        for rest in _compositions(total - first, parts - 1, bound):
            yield (first,) + rest


def check_threshold(
    tt: TruthTable, weight_bound: int = DEFAULT_WEIGHT_BOUND
) -> ThresholdFunction | None:
    """Minimum-weight-sum realization of tt, or None if not threshold
    within the weight bound.  Weights for negative-unate inputs come back
    negative; unused inputs get weight zero."""
    if tt.n > _SOLVER_MAX_INPUTS:
        raise ValueError(f"solver handles n <= {_SOLVER_MAX_INPUTS}, got {tt.n}")
    if weight_bound < 1:
        raise ValueError("weight_bound must be >= 1")

    pol = unateness(tt)
    if any(p is Polarity.NONUNATE for p in pol):
        return None
    pos, mask = to_positive_form(tt)

    if pos.bits == 0:
        return ThresholdFunction((0,) * tt.n, 1)
    if pos.bits == (1 << pos.size) - 1:
        return ThresholdFunction((0,) * tt.n, 0)

    used = [i for i, p in enumerate(pol) if p is not Polarity.UNUSED]
    mm = _minterm_matrix(pos.n)[:, used]
    on = np.array([bool(pos.value(m)) for m in range(pos.size)])

    for total in range(1, weight_bound * len(used) + 1):
        batch = list(_compositions(total, len(used), weight_bound))
        if not batch:
            continue
        scores = np.asarray(batch, dtype=np.int64) @ mm.T
        min_on = scores[:, on].min(axis=1)
        max_off = scores[:, ~on].max(axis=1)
        feasible = np.flatnonzero(min_on > max_off)
        if feasible.size:
            w_used = batch[int(feasible[0])]
            t_pos = int(max_off[feasible[0]]) + 1
            weights = [0] * tt.n
            for i, w in zip(used, w_used):
                weights[i] = w
            # Map back through the complement mask: x_i -> 1 - x_i
            t = t_pos
            for i in range(tt.n):
                if (mask >> i) & 1:
                    t -= weights[i]
                    weights[i] = -weights[i]
            return ThresholdFunction(tuple(weights), t)
    return None


def count_threshold_functions(n: int, weight_bound: int = DEFAULT_WEIGHT_BOUND) -> int:
    """Count the truth tables on exactly n inputs (unused variables allowed)
    that are linearly separable, by exhaustive scan."""
    if n > 4:
        raise ValueError("exhaustive scan limited to n <= 4")
    return sum(
        check_threshold(TruthTable(n, bits), weight_bound) is not None
        for bits in range(1 << (1 << n))
    )


@lru_cache(maxsize=8)
def _np_transform_indices(n: int) -> np.ndarray:
    """Source-minterm index map for every input permutation x complementation;
    shape (n! * 2^n, 2^n)."""
    size = 1 << n
    minterms = np.arange(size)
    bit = [(minterms >> j) & 1 for j in range(n)]
    rows = []
    for perm in itertools.permutations(range(n)):
        src_perm = np.zeros(size, dtype=np.int64)
        for j in range(n):
            src_perm |= bit[j] << perm[j]
        for cmask in range(size if n else 1):
            rows.append(src_perm ^ cmask)
    return np.asarray(rows)


def canonicalize_np(tt: TruthTable) -> TruthTable:
    """Lexicographically smallest table over all input permutations and
    complementations (output polarity untouched)."""
    if tt.n > 5:
        raise ValueError("canonicalization limited to n <= 5")
    bits = np.array([tt.value(m) for m in range(tt.size)], dtype=np.int64)
    idx = _np_transform_indices(tt.n)
    packed = bits[idx] @ (np.int64(1) << np.arange(tt.size, dtype=np.int64))
    return TruthTable(tt.n, int(packed.min()))


@dataclass(frozen=True)
class CatalogEntry:
    index: int
    n: int
    table: TruthTable
    function: ThresholdFunction

    def hex(self) -> str:
        return self.table.to_hex()


def _enumerate_threshold_tables(n: int, weight_bound: int) -> set[int]:
    """All positive-unate threshold tables on n inputs reachable with
    non-increasing weights <= weight_bound (a superset of one member per
    permutation class)."""
    mm = _minterm_matrix(n)
    pow2 = np.int64(1) << np.arange(1 << n, dtype=np.int64)
    tables: set[int] = set()
    for w in itertools.combinations_with_replacement(
        range(weight_bound, -1, -1), n
    ):
        scores = mm @ np.asarray(w, dtype=np.int64)
        for t in np.unique(scores):
            tables.add(int(((scores >= t) * pow2).sum()))
    return tables


def build_catalog(
    n_max: int = 5, weight_bound: int = DEFAULT_WEIGHT_BOUND
) -> list[CatalogEntry]:
    """One entry per NP-equivalence class of non-constant threshold
    functions of at most n_max variables, with minimal weights, sorted by
    (input count, canonical table) and indexed from 0."""
    if n_max > 5:
        raise ValueError("catalog limited to n_max <= 5")
    canon: set[tuple[int, int]] = set()
    full = TruthTable(n_max, (1 << (1 << n_max)) - 1).bits
    for bits in _enumerate_threshold_tables(n_max, weight_bound):
        if bits == 0 or bits == full:
            continue
        reduced, _ = project_to_support(TruthTable(n_max, bits))
        rep = canonicalize_np(reduced)
        canon.add((rep.n, rep.bits))
    entries = []
    for idx, (n, bits) in enumerate(sorted(canon)):
        tt = TruthTable(n, bits)
        tf = check_threshold(tt, weight_bound)
        assert tf is not None, f"catalog table {tt} lost its realization"
        entries.append(CatalogEntry(idx, n, tt, tf))
    return entries


def write_catalog_csv(entries: list[CatalogEntry], fp) -> None:
    writer = csv.writer(fp)
    writer.writerow(["index", "n", "canonical_hex", "weights", "threshold"])
    for e in entries:
        writer.writerow(
            [e.index, e.n, e.hex(), " ".join(map(str, e.function.weights)),
             e.function.threshold]
        )


def f115_table() -> TruthTable:
    """ab + ac + ad + ae on five inputs (a = x_1); realization [4,1,1,1,1; 5]."""
    bits = 0
    for m in range(32):
        if (m & 1) and (m & 0b11110):
            bits |= 1 << m
    return TruthTable(5, bits)

