"""Linear-separability detection, minimal-weight solving, and the
NP-class catalog of small threshold functions.

A function f is threshold iff integer weights W and a threshold T exist
with f(m) = 1 <=> sum(w_i * m_i) >= T.  Detection, solving and class
naming share one key: the positive form of a table on its support, inputs
sorted by descending Chow parameter.  Each non-constant key maps to its
minimum-sum non-increasing weight vector W* and the smallest T it
realizes the key with; W* mapped back through the sort is the answer.
The table is integer work: a vector's minterms grouped by score give
each table it realizes as the union of the groups at or above T.

The lookup is exact because the minimum-sum realization is unique (Chow
1961; Muroga 1971).  If chow_i > chow_j, every realization has w_i > w_j,
and inputs with equal Chow parameters are interchangeable.  So each
minimum-sum realization, sorted within its groups of equal Chow
parameters, is a non-increasing minimum-sum vector of the key, and each
key has exactly one, W*, which is constant on those groups: W* mapped
back is the only minimum-sum realization in any input order.  The tests
check both facts for every capped key, n = 1..6, and that W* realizes its
key at T alone.

The catalog names a class by its key with the inputs reversed into
ascending Chow order and all complemented: the NP minimum, the smallest
table (as an integer) over all input permutations and complementations,
found without a search.  Complementing a used positive input moves 1s to
lower minterms, so the minimum complements every input; read from the top
minterm down it is then the positive form read from minterm 0 up.  As
w_i > w_j, setting x_i rather than x_j never turns f off, so swapping a
stronger input below a weaker one lowers that sequence.  W* is unique,
so that table's realization names the class too: class_name maps any
minimum-sum realization to it, for build_catalog and map_ftl alike.

Weights never need to exceed _MAX_WEIGHT[n] = 1, 1, 2, 3, 5, 9 for
n = 1..6 inputs, so the table ranges over [0, _MAX_WEIGHT[n]].  Two facts
prove these caps:

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

from .truthtable import (Polarity, TruthTable, apply_complements,
                         chow_parameters, permute_inputs, unateness)

_MAX_WEIGHT = (0, 1, 1, 2, 3, 5, 9)  # indexed by input count
_SOLVER_MAX_INPUTS = len(_MAX_WEIGHT) - 1


@dataclass(frozen=True)
class ThresholdFunction:
    weights: tuple[int, ...]
    threshold: int


def _score_sets(weights) -> dict[int, int]:
    """{score: its minterms as table bits}: minterm m scores the weights of
    the inputs at 1 in m.  Input i doubles the table, shifting the minterms
    so far up by 2^i at score + weights[i]."""
    sets = {0: 1}
    for i, w in enumerate(weights):
        for score, bits in list(sets.items()):
            sets[score + w] = sets.get(score + w, 0) | bits << (1 << i)
    return sets


@lru_cache(maxsize=8)
def _sorted_tables(n: int) -> dict[int, tuple[tuple[int, ...], int]]:
    """{non-constant positive table: (W*, T)}: the non-increasing vector in
    [0, _MAX_WEIGHT[n]]^n of smallest sum that realizes the table, and the
    smallest threshold it does so with.  Shared: never mutate.  Vectors
    come in ascending sum, so a table's first hit is its W*; each vector
    reaches each of its tables once, from the top score down, at one above
    the next lower score."""
    best: dict[int, tuple[tuple[int, ...], int]] = {}
    for w in sorted(itertools.combinations_with_replacement(
            range(_MAX_WEIGHT[n], -1, -1), n), key=sum):
        sets = _score_sets(w)
        scores = sorted(sets, reverse=True)
        bits = 0
        for score, below in zip(scores, scores[1:]):
            bits |= sets[score]
            best.setdefault(bits, (w, below + 1))
    return best


def _chow_sort(tt: TruthTable):
    """(complement mask, used inputs by descending Chow parameter of the
    positive form, the key's (W*, T)) for a non-constant threshold tt, else
    None.  One stable sort and one permute_inputs call project to the
    support and sort; inputs with equal Chow parameters are symmetric."""
    if tt.n > _SOLVER_MAX_INPUTS:
        raise ValueError(f"solver handles n <= {_SOLVER_MAX_INPUTS}, got {tt.n}")
    pol = unateness(tt)
    if Polarity.NONUNATE in pol or tt.is_constant():
        return None
    mask = sum(1 << i for i, p in enumerate(pol) if p is Polarity.NEGATIVE)
    pos = apply_complements(tt, mask)
    chow = chow_parameters(pos)
    used = tuple(sorted((i for i, p in enumerate(pol)
                         if p is not Polarity.UNUSED), key=lambda i: -chow[i]))
    found = _sorted_tables(len(used)).get(permute_inputs(pos, used).bits)
    return None if found is None else (mask, used, found)


def check_threshold(tt: TruthTable) -> ThresholdFunction | None:
    """Minimum-weight-sum realization of tt, or None if not threshold.
    Weights for negative-unate inputs come back negative; unused inputs get
    weight zero.  The minimum-sum realization is unique; T is the smallest
    threshold that realizes tt with it."""
    sort = _chow_sort(tt)
    if sort is None:  # constants: all weights 0; T = 0 passes all, T = 1 none
        return (ThresholdFunction((0,) * tt.n, 1 - tt.value(0))
                if tt.is_constant() else None)
    # Sorted input j is input used[j]; complemented inputs (x_i -> 1 - x_i)
    # take negative weight and lower T by it.
    mask, used, (sorted_weights, t) = sort
    weights = [0] * tt.n
    for i, w in zip(used, sorted_weights):
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
    for bits in _sorted_tables(n):
        tt = TruthTable(n, bits)
        groups = Counter(chow_parameters(tt)).values()
        orders = math.factorial(n) // math.prod(map(math.factorial, groups))
        count += orders << n - unateness(tt).count(Polarity.UNUSED)
    return count


def canonicalize_np(tt: TruthTable) -> TruthTable:
    """The catalog's name for the NP class of threshold function tt: its
    positive form on its support, inputs in ascending Chow order, every
    input complemented.  Raises ValueError for a constant or non-threshold
    table."""
    sort = _chow_sort(tt)
    if sort is None:
        raise ValueError(f"{tt} is constant or not threshold: no NP class")
    mask, used, _ = sort
    # tt complemented at mask is the positive form; at mask ^ all, it is
    # the positive form with every input complemented.
    return permute_inputs(apply_complements(tt, mask ^ ((1 << tt.n) - 1)),
                          used[::-1])


def class_name(tf: ThresholdFunction) -> ThresholdFunction:
    """The catalog's realization of the NP class of minimum-sum tf."""
    return ThresholdFunction(
        tuple(sorted((-abs(w) for w in tf.weights if w), reverse=True)),
        tf.threshold - sum(w for w in tf.weights if w > 0))


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
    (input count, canonical table) and indexed from 0.

    The classes are the keys (W*, T) on n_max inputs, relabelled: every
    input complemented, the used ones (they lead) reversed, the realization
    named by class_name.  No class is re-detected; each entry's score sets
    check its table."""
    if not 1 <= n_max <= 5:
        raise ValueError(f"catalog limited to 1 <= n_max <= 5, got {n_max}")
    found = []
    for bits, (w, t) in _sorted_tables(n_max).items():
        tt = permute_inputs(apply_complements(TruthTable(n_max, bits),
                                              (1 << n_max) - 1),
                            tuple(range(n_max - w.count(0) - 1, -1, -1)))
        found.append((tt, class_name(ThresholdFunction(w, t))))
    found.sort(key=lambda e: (e[0].n, e[0].bits))
    for tt, f in found:  # the score sets are disjoint: sum is union
        if sum(bits for score, bits in _score_sets(f.weights).items()
               if score >= f.threshold) != tt.bits:
            raise RuntimeError(f"catalog table {tt} lost its realization")
    return [CatalogEntry(i, tt.n, tt, tf) for i, (tt, tf) in enumerate(found)]


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

