"""Linear-separability detection, minimal-weight solving, and the
NP-class catalog of small threshold functions.

A function f is threshold iff integer weights W and a threshold T exist
with f(m) = 1 <=> sum(w_i * m_i) >= T.  Detection and solving are one
lookup: each non-constant positive table, with its inputs sorted by Chow
parameter, maps to its minimum-sum non-increasing weight vector W* and the
smallest T that vector realizes it with.  The answer in the original input
order is W* mapped back through the sort.

That lookup is exact because the minimum-sum realization is unique
(Chow 1961; Muroga 1971).  If chow_i > chow_j, every realization has
w_i > w_j, and inputs with equal Chow parameters are interchangeable.  So
every minimum-sum realization, sorted within its groups of equal Chow
parameters, is a non-increasing minimum-sum vector of the sorted table,
and each capped table has exactly one, W*.  W* gives equal weights to
inputs with equal Chow parameters, so that sorting changed nothing: W*
mapped back is the only minimum-sum realization in any input order, and no
tie between realizations needs breaking.  The tests check both facts for
every capped table, n = 1..6, and that W* realizes its table at T alone.

Weights never need to exceed _MAX_WEIGHT[n] = 1, 1, 2, 3, 5, 9 for
n = 1..6 inputs, so the table ranges over [0, _MAX_WEIGHT[n]].
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


@lru_cache(maxsize=8)
def _sorted_tables(n: int,
                   bound: int) -> dict[int, tuple[tuple[int, ...], int]]:
    """{non-constant positive table: (W*, T)}: the non-increasing vector in
    [0, bound]^n of smallest sum that realizes the table, and the smallest
    threshold it does so with.  Shared: never mutate.  Vectors are scored
    in the narrowest dtype (no partial sum of nonnegative weights
    overflows) and each row packs to one key."""
    dtype = np.min_scalar_type(bound * n)
    mm = _minterm_matrix(n).astype(dtype)
    sums: dict[int, int] = {}
    best: dict[int, tuple[tuple[int, ...], int]] = {}
    w = np.asarray(list(itertools.combinations_with_replacement(
        range(bound, -1, -1), n)), dtype=dtype)
    w = w[np.argsort(w.sum(axis=1, dtype=np.int64))]
    row_sums, scores = w.sum(axis=1, dtype=np.int64), w @ mm.T
    for t in range(1, int(scores.max()) + 1):
        packed = np.packbits(scores >= t, axis=1, bitorder="little")
        keys = packed.view(f"<u{packed.shape[1]}")[:, 0]
        tables, first = np.unique(keys, return_index=True)
        for bits, total, row in zip(tables.tolist(), row_sums[first].tolist(),
                                    first.tolist()):
            if bits and total < sums.get(bits, total + 1):
                sums[bits] = total
                best[bits] = (tuple(w[row].tolist()), t)
    return best


def check_threshold(tt: TruthTable) -> ThresholdFunction | None:
    """Minimum-weight-sum realization of tt, or None if not threshold.
    Weights for negative-unate inputs come back negative; unused inputs get
    weight zero.  The minimum-sum realization is unique; T is the smallest
    threshold that realizes tt with it."""
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
    found = _sorted_tables(reduced.n, _MAX_WEIGHT[reduced.n]).get(
        permute_inputs(reduced, order).bits)
    if found is None:
        return None
    # Sorted input j is reduced input order[j]; complemented inputs
    # (x_i -> 1 - x_i) take negative weight and lower T by it.
    sorted_weights, t = found
    weights = [0] * tt.n
    for i, w in zip((used[j] for j in order), sorted_weights):
        weights[i] = -w if (mask >> i) & 1 else w
    return ThresholdFunction(tuple(weights),
                             t + sum(min(w, 0) for w in weights))


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

