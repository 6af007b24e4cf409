"""Checks shared by the tests."""

import itertools
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import numpy as np

from ftl import mapping
from ftl.device import VariationSample
from ftl.netlist import cut_function, enumerate_cuts
from ftl.threshold import (_MAX_WEIGHT, CatalogEntry, _sorted_tables,
                           canonicalize_np, check_threshold)
from ftl.truthtable import Polarity, TruthTable, unateness


def realizes(tf, tt) -> bool:
    """Whether the weights and threshold of tf reproduce tt on every
    minterm: f(m) = 1 iff the weights of the inputs at 1 sum to at least
    the threshold."""
    if len(tf.weights) != tt.n:
        return False
    return all(
        (sum(w for i, w in enumerate(tf.weights) if (m >> i) & 1)
         >= tf.threshold) == bool(v)
        for m, v in enumerate(tt.values()))


def reference_variation(n, sigma_local, sigma_global, sigma_k, seed,
                        trial) -> VariationSample:
    """One trial's variation sample drawn from its own
    np.random.default_rng((seed, trial)) stream: n + 2 local shifts, the
    global shift, then log k_mult, each drawn only if its sigma is
    nonzero."""
    rng = np.random.default_rng((seed, trial))
    local = (rng.normal(0.0, sigma_local, n + 2) if sigma_local
             else np.zeros(n + 2))
    gshift = float(rng.normal(0.0, sigma_global)) if sigma_global else 0.0
    kmult = float(np.exp(rng.normal(0.0, sigma_k))) if sigma_k else 1.0
    return VariationSample(tuple(float(v) for v in local), gshift, kmult)


def gate_eval(gate, values) -> int:
    """One gate at one pattern: its table read at the minterm its input
    net values spell, x_1 = gate.inputs[0]."""
    m = 0
    for i, net in enumerate(gate.inputs):
        m |= values[net] << i
    return gate.table.value(m)


def instance_output(inst, leaf_values) -> int:
    """One FTL instance at one pattern: its cone function of the leaves."""
    m = 0
    for i, leaf in enumerate(inst.leaves):
        m |= leaf_values[leaf] << i
    return inst.function.value(m)


def scalar_step(nl, order, pi_values, state, instances=()):
    """One cycle of one pattern, gate by gate in order (nl.topo_order(),
    which callers compute once per netlist), with the FTL instances as
    extra registers that reset to 0: (net values, next state)."""
    values = dict(pi_values)
    for q, l in nl.latches.items():
        values[q] = state.get(q, l.init)
    for inst in instances:
        values[inst.q] = state.get(inst.q, 0)
    for net in order:
        values[net] = gate_eval(nl.gates[net], values)
    nxt = {q: values[l.d] for q, l in nl.latches.items()}
    for inst in instances:
        nxt[inst.q] = instance_output(inst, values)
    return values, nxt


def cone_walk(nl, root, leaves):
    """The gates of root's cone over leaves: every gate reachable backward
    from root without entering a leaf, as a set."""
    gates = set()
    stack = [root]
    while stack:
        net = stack.pop()
        if net not in leaves and net in nl.gates and net not in gates:
            gates.add(net)
            stack.extend(nl.gates[net].inputs)
    return gates


def reference_cuts(nl, root, k):
    """Every k-feasible cut of root by recursive enumeration, one call per
    net with memo and dominated-cut pruning, sorted by (size, leaves)."""
    memo = {}

    def cuts_of(net):
        if net in memo:
            return memo[net]
        result = [frozenset([net])]
        if net in nl.gates:
            fanin_cuts = [cuts_of(x) for x in nl.gates[net].inputs]
            merged = set()
            stack = [(0, frozenset())]
            while stack:
                idx, acc = stack.pop()
                if idx == len(fanin_cuts):
                    merged.add(acc)
                    continue
                for c in fanin_cuts[idx]:
                    u = acc | c
                    if len(u) <= k:
                        stack.append((idx + 1, u))
            result.extend(merged)
        pruned = []
        for c in sorted(set(result), key=lambda s: (len(s), sorted(s))):
            if not any(p <= c for p in pruned):
                pruned.append(c)
        memo[net] = pruned
        return pruned

    return sorted((tuple(sorted(c)) for c in cuts_of(root)),
                  key=lambda c: (len(c), c))


def dead_gates_walk(nl, kept, leaves, latch):
    """Gates the design references before latch's cone is replaced by a
    cell on leaves and no longer after it, with kept, the outputs, the
    data inputs of the other latches and every gate outside the latch's
    whole cone live throughout: liveness walks over the whole netlist."""
    def live(roots):
        seen = set()
        stack = [r for r in roots if r in nl.gates]
        while stack:
            net = stack.pop()
            if net not in seen:
                seen.add(net)
                stack.extend(x for x in nl.gates[net].inputs if x in nl.gates)
        return seen

    d = nl.latches[latch].d
    roots = set(kept) | set(nl.outputs) | (set(nl.gates) - live([d]))
    roots.update(l.d for q, l in nl.latches.items() if q != latch)
    return live(roots | {d}) - live(roots | set(leaves))


def refs_of(nl, kept):
    """Readers of every net: each gate-input occurrence, output and latch
    data input, and each leaf in kept (the placed cells' leaves)."""
    refs = Counter(x for g in nl.gates.values() for x in g.inputs)
    refs.update([*nl.outputs, *(l.d for l in nl.latches.values()), *kept])
    return refs


def reference_map(nl, k=5, catalog=None):
    """map_ftl by exhaustive selection: latch by latch in sorted order,
    greedily, every non-trivial cut is threshold-checked, its saving is
    taken from dead_gates_walk, and the threshold cut with the minimum key
    (-saving, leaf count, leaves) among those that save area replaces the
    cone."""
    work = replace(nl, gates=dict(nl.gates), latches=dict(nl.latches))
    index = {e.table: e.index for e in catalog or ()}
    instances, removed = [], 0
    for q in sorted(nl.latches):
        root = work.latches[q].d
        if root not in work.gates:
            continue
        kept = {leaf for inst in instances for leaf in inst.leaves}
        best = None
        for leaves in enumerate_cuts(work, root, k):
            if leaves == (root,):
                continue
            tt = cut_function(work, root, leaves)
            tf = check_threshold(tt)
            if tf is None:
                continue
            dead = dead_gates_walk(work, kept, leaves, q)
            saving = (sum(mapping._gate_area(work.gates[g]) for g in dead)
                      + mapping.DFF_AREA - mapping.FTL_AREA)
            key = (-saving, len(leaves), leaves)
            if saving > 0 and (best is None or key < best[0]):
                best = (key, tt, tf, dead)
        if best is None:
            continue
        (_, _, leaves), tt, tf, dead = best
        instances.append(mapping.FtlInstance(
            q, leaves, tt, tf,
            None if tt.is_constant() else index.get(canonicalize_np(tt))))
        del work.latches[q]
        for g in dead:
            del work.gates[g]
        removed += len(dead) + 1
    return mapping.MappedDesign(work, instances, mapping.CostSummary(
        mapping._total_area(nl, 0), mapping._total_area(work, len(instances)),
        removed, len(instances), reference_worst_path(nl, []),
        reference_worst_path(work, instances)))


def reference_worst_path(nl, instances):
    """The worst path of the mapper's delay model from arrival times by
    memoised recursion, with no topological order: a gate arrives its
    fan-in delay after its latest input, a cell output and a latch output
    at their clock-to-Q, a PI at 0.  The worst path ends at a latch or cell
    input, plus its setup, or at an output."""
    cells = {inst.q for inst in instances}
    memo = {}

    def arrival(net):
        if net not in memo:
            if net in nl.gates:
                g = nl.gates[net]
                memo[net] = max(arrival(x) for x in g.inputs) + (
                    mapping.GATE_DELAY_BASE
                    + mapping.GATE_DELAY_PER_FANIN * len(g.inputs))
            elif net in cells:
                memo[net] = mapping.FTL_C2Q
            else:
                memo[net] = mapping.DFF_C2Q if net in nl.latches else 0.0
        return memo[net]

    return max([0.0, *(arrival(l.d) + mapping.DFF_SETUP
                       for l in nl.latches.values()),
                *(max(map(arrival, i.leaves)) + mapping.FTL_SETUP
                  for i in instances),
                *map(arrival, nl.outputs)])


def reference_catalog(n_max):
    """The catalog by detection: the NP class of every key of the n_max
    table, then each class's realization from check_threshold, sorted by
    (input count, table)."""
    classes = {canonicalize_np(TruthTable(n_max, bits))
               for bits in _sorted_tables(n_max, _MAX_WEIGHT[n_max])}
    return [CatalogEntry(i, tt.n, tt, check_threshold(tt)) for i, tt in
            enumerate(sorted(classes, key=lambda t: (t.n, t.bits)))]


def monotone_tables(n):
    """Every monotone table on n inputs, as bits: f0 + x_k f1 for each
    pair of monotone tables f0 <= f1 on the k = 0..n-1 inputs below."""
    tables = [0, 1]
    for k in range(n):
        tables = [lo | hi << (1 << k) for lo in tables for hi in tables
                  if lo & ~hi == 0]
    return tables


def asummability_witnesses(n, tables):
    """For each table on n inputs, on-set minterms u1, u2 and off-set
    minterms v1, v2 with u1 + u2 = v1 + v2 as 0/1 vectors, or None.  A
    witness proves the table is not threshold: any W and T would give
    W.u1 + W.u2 >= 2T > W.v1 + W.v2 (Elgot 1961)."""
    p, q = np.triu_indices(1 << n)  # every pair of minterms, p <= q
    bit = np.arange(n)
    code = (((p[:, None] >> bit) & 1) + ((q[:, None] >> bit) & 1)) @ 3 ** bit
    f = ((np.array(tables, dtype=np.int64)[:, None] >> np.arange(1 << n))
         & 1).astype(bool)
    on, off = f[:, p] & f[:, q], ~f[:, p] & ~f[:, q]
    sides = []
    for pairs in (on, off):  # which pair sums each table reaches, per side
        reached = np.zeros((len(tables), 3 ** n), dtype=bool)
        rows, cols = np.nonzero(pairs)
        reached[rows, code[cols]] = True
        sides.append(reached)
    shared = sides[0] & sides[1]
    witnesses = []
    for row in range(len(tables)):
        if not shared[row].any():
            witnesses.append(None)
            continue
        same = code == np.argmax(shared[row])
        u, v = np.argmax(on[row] & same), np.argmax(off[row] & same)
        witnesses.append(tuple(int(x) for x in (p[u], q[u], p[v], q[v])))
    return witnesses


def permute_inputs_loop(tt, perm):
    """permute_inputs one minterm at a time: new variable j reads old
    variable perm[j], and the inputs left out read 0."""
    bits = 0
    for m in range(1 << len(perm)):
        src = 0
        for j, var in enumerate(perm):
            if (m >> j) & 1:
                src |= 1 << var
        bits |= tt.value(src) << m
    return TruthTable(len(perm), bits)


@lru_cache(maxsize=8)
def _np_transform_indices(n):
    """Source-minterm index map for every input permutation x
    complementation; shape (n! * 2^n, 2^n)."""
    minterms = np.arange(1 << n)
    rows = []
    for perm in itertools.permutations(range(n)):
        src = sum(((minterms >> j) & 1) << var for j, var in enumerate(perm))
        rows.extend(src ^ cmask for cmask in range(1 << n))
    return np.asarray(rows)


def brute_canonical_np(tt):
    """The smallest table over every input permutation and complementation
    of tt projected to its support (output polarity untouched)."""
    used = tuple(i for i, p in enumerate(unateness(tt))
                 if p is not Polarity.UNUSED)
    reduced = permute_inputs_loop(tt, used)
    bits = np.array(reduced.values(), dtype=np.int64)
    place = np.int64(1) << np.arange(reduced.size, dtype=np.int64)
    packed = bits[_np_transform_indices(reduced.n)] @ place
    return TruthTable(reduced.n, int(packed.min()))
