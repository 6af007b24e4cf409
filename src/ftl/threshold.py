"""Linear-separability detection, minimal-weight solving, and the
NP-class catalog of small threshold functions.

A function f is threshold iff integer weights W and a threshold T exist
with f(m) = 1 <=> sum(w_i * m_i) >= T.  With its inputs sorted by Chow
parameter, a positive threshold function has a minimum-sum realization with
non-increasing weights (Chow 1961; Muroga 1971), so one table of what those
vectors realize decides detection exactly and feeds the catalog.  The
weights are then searched at that sum in the original input order; ties
break lexicographically on the weight vector, then on the smallest T.

That search scans the first weight in ascending order and, for each value,
one cached block of the remaining n - 1 weights: every composition of the
rest of the sum in lexicographic order, with its score on every minterm.
The first feasible row is the lexicographically first feasible vector, and
no cached block is wider than 5 weights.

Weights never need to exceed _MAX_WEIGHT[n] = 1, 1, 2, 3, 5, 9 for
n = 1..6 inputs, so the table and the scan range over [0, _MAX_WEIGHT[n]].
Two facts prove these caps:

- Summed over NP orbits, the capped tables hold 4, 14, 104, 1,882, 94,572
  and 15,028,134 functions, the known counts of threshold functions of
  n = 1..6 inputs (OEIS A000609; Muroga 1971), so none is missing.
  count_threshold_functions computes this sum.
- The capped tables equal the tables over [0, 16]^n for n <= 5 and over
  [0, 33]^6, and no sum in them exceeds 16 or 33.  A realization with a
  smaller sum has no weight above these bounds and would have lowered
  that sum, so the sums are the true minima.
"""

from __future__ import annotations

import csv
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .truthtable import (
    Polarity,
    TruthTable,
    chow_parameters,
    permute_inputs,
    project_to_support,
    to_positive_form,
    unateness,
)

_MAX_WEIGHT = (0, 1, 1, 2, 3, 5, 9)  # indexed by input count
_SOLVER_MAX_INPUTS = len(_MAX_WEIGHT) - 1


@dataclass(frozen=True)
class ThresholdFunction:
    weights: tuple[int, ...]
    threshold: int


def _minterm_matrix(n: int) -> np.ndarray:
    m = np.arange(1 << n)
    return ((m[:, None] >> np.arange(n)) & 1).astype(np.int64)


def _first_weights(total: int, parts: int, bound: int) -> range:
    """The values the first of `parts` weights in [0, bound] summing to
    `total` can take."""
    return range(max(0, total - bound * (parts - 1)), min(bound, total) + 1)


@lru_cache(maxsize=None)
def _composition_table(total: int, parts: int,
                       bound: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, scores): every vector of `parts` ints in [0, bound] summing to
    `total`, in ascending lexicographic order, and each row's score on every
    minterm of `parts` inputs, in the narrowest unsigned dtype.  Built from
    the (parts - 1)-part tables; the scan never asks for more than 5 parts.
    At the 6-input cap of 9, all 5-part tables together hold at most 10^5
    rows, under 4 MB.
    Shared: never mutate."""
    dtype = np.min_scalar_type(bound * parts)
    if parts == 0:
        count = int(total == 0)
        return np.zeros((count, 0), dtype), np.zeros((count, 1), dtype)
    row_blocks = [np.zeros((0, parts), dtype)]
    score_blocks = [np.zeros((0, 1 << parts), dtype)]
    for first in _first_weights(total, parts, bound):
        rows, scores = _composition_table(total - first, parts - 1, bound)
        block = np.empty((len(rows), 2 * scores.shape[1]), dtype)
        block[:, 0::2] = scores  # x_1 = 0
        block[:, 1::2] = block[:, 0::2] + dtype.type(first)
        row_blocks.append(np.column_stack(
            [np.full(len(rows), first, dtype), rows.astype(dtype)]))
        score_blocks.append(block)
    return np.concatenate(row_blocks), np.concatenate(score_blocks)


@lru_cache(maxsize=8)
def _sorted_tables(n: int, bound: int) -> dict[int, int]:
    """{non-constant positive table: smallest weight sum} over the
    non-increasing weight vectors in [0, bound]^n.  Shared: never mutate.
    Vectors are scored in the narrowest dtype (no partial sum of
    nonnegative weights overflows) and each row packs to one key."""
    dtype = np.min_scalar_type(bound * n)
    mm = _minterm_matrix(n).astype(dtype)
    best: dict[int, int] = {}
    w = np.asarray(list(itertools.combinations_with_replacement(
        range(bound, -1, -1), n)), dtype=dtype)
    w = w[np.argsort(w.sum(axis=1, dtype=np.int64))]
    sums, scores = w.sum(axis=1, dtype=np.int64), w @ mm.T
    for t in range(1, int(scores.max()) + 1):
        packed = np.packbits(scores >= t, axis=1, bitorder="little")
        keys = packed.view(f"<u{packed.shape[1]}")[:, 0]
        tables, first = np.unique(keys, return_index=True)
        for bits, total in zip(tables.tolist(), sums[first].tolist()):
            if bits and total < best.get(bits, total + 1):
                best[bits] = total
    return best


def check_threshold(tt: TruthTable) -> ThresholdFunction | None:
    """Minimum-weight-sum realization of tt, or None if not threshold.
    Weights for negative-unate inputs come back negative; unused inputs get
    weight zero."""
    if tt.n > _SOLVER_MAX_INPUTS:
        raise ValueError(f"solver handles n <= {_SOLVER_MAX_INPUTS}, got {tt.n}")

    if Polarity.NONUNATE in unateness(tt):
        return None
    pos, mask = to_positive_form(tt)
    if pos.is_constant():  # all weights 0; T = 0 passes every minterm, T = 1 none
        return ThresholdFunction((0,) * tt.n, 1 - pos.value(0))

    reduced, used = project_to_support(pos)
    chow = chow_parameters(reduced)
    order = tuple(sorted(range(reduced.n), key=lambda i: -chow[i]))
    key = permute_inputs(reduced, order).bits
    bound = _MAX_WEIGHT[reduced.n]
    total = _sorted_tables(reduced.n, bound).get(key)
    if total is None:
        return None

    # First feasible vector at that sum in ascending lexicographic order:
    # blocks by the first weight, the rest read from the cached table.
    on = np.array(reduced.values(), dtype=bool)
    on_0, on_1 = on[0::2], on[1::2]  # minterms with x_1 = 0 and x_1 = 1
    for first in _first_weights(total, reduced.n, bound):
        rows, scores = _composition_table(total - first, reduced.n - 1, bound)
        # Positive and non-constant: minterm 0 is off, all-ones is on.
        # Sums in int64, since the table's dtype may not hold them.
        max_off = scores[:, ~on_0].max(axis=1).astype(np.int64)
        min_on = scores[:, on_1].min(axis=1).astype(np.int64) + first
        if not on_1.all():
            max_off = np.maximum(
                max_off, scores[:, ~on_1].max(axis=1).astype(np.int64) + first)
        if on_0.any():
            min_on = np.minimum(min_on, scores[:, on_0].min(axis=1))
        feasible = np.flatnonzero(min_on > max_off)
        if feasible.size:
            # Map back through the complement mask: x_i -> 1 - x_i
            weights = [0] * tt.n
            for i, w in zip(used, (first, *rows[feasible[0]].tolist())):
                weights[i] = -w if (mask >> i) & 1 else w
            t = int(max_off[feasible[0]]) + 1 + sum(min(w, 0) for w in weights)
            return ThresholdFunction(tuple(weights), t)
    raise RuntimeError(f"{tt} has no weight-sum {total} realization")


def count_threshold_functions(n: int) -> int:
    """Count the truth tables on exactly n inputs (unused variables allowed)
    that are linearly separable.  Each sorted table stands for its NP orbit:
    n! / prod(g!) input orders, g running over the groups of inputs with
    equal Chow parameters, times 2^|support| complementations.  Add the two
    constants."""
    if not 0 <= n <= _SOLVER_MAX_INPUTS:
        raise ValueError(f"count handles 0 <= n <= {_SOLVER_MAX_INPUTS}, got {n}")
    count = 2
    for bits in _sorted_tables(n, _MAX_WEIGHT[n]):
        tt = TruthTable(n, bits)
        groups = Counter(chow_parameters(tt)).values()
        orders = math.factorial(n) // math.prod(map(math.factorial, groups))
        count += orders << len(project_to_support(tt)[1])
    return count


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
    bits = np.array(tt.values(), dtype=np.int64)
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


def build_catalog(n_max: int = 5) -> list[CatalogEntry]:
    """One entry per NP-equivalence class of non-constant threshold
    functions of at most n_max variables, with minimal weights, sorted by
    (input count, canonical table) and indexed from 0."""
    if not 1 <= n_max <= 5:
        raise ValueError(f"catalog limited to 1 <= n_max <= 5, got {n_max}")
    reps = (canonicalize_np(project_to_support(TruthTable(n_max, bits))[0])
            for bits in _sorted_tables(n_max, _MAX_WEIGHT[n_max]))
    canon = {(rep.n, rep.bits) for rep in reps}
    entries = []
    for idx, (n, bits) in enumerate(sorted(canon)):
        tt = TruthTable(n, bits)
        tf = check_threshold(tt)
        if tf is None:
            raise RuntimeError(f"catalog table {tt} lost its realization")
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
    """ab + ac + ad + ae on five inputs (a = x_1); realization [4,1,1,1,1; 5].
    Its on-set is every odd minterm but 1."""
    return TruthTable(5, 0xAAAAAAA8)

