"""Mapping flip-flop fan-in cones onto FTL cells.

For each flip-flop, the k-feasible cuts of its data input are scanned for
threshold cone functions; the cut with the greatest area saving (cone
gates that become unreferenced, plus the flip-flop, minus one FTL cell)
replaces the cone.  Negative-unate leaves are absorbed into the cell as
complemented inputs.  Gates still fanning out elsewhere are kept.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .device import FtlCell, evaluate
from .netlist import Netlist, cut_function, enumerate_cuts, write_blif
from .threshold import ThresholdFunction, canonicalize_np, check_threshold
from .truthtable import TruthTable, project_to_support, to_positive_form


@dataclass(frozen=True)
class CostModel:
    ftl_area: float = 15.6  # um^2
    dff_area: float = 5.6
    area_per_fanin: float = 1.4  # NAND2 = 2.8, INV = 1.4
    dff_setup: float = 67e-12
    dff_c2q: float = 168e-12
    ftl_setup: float = 67e-12
    ftl_c2q: float = 142e-12
    gate_delay_base: float = 20e-12
    gate_delay_per_fanin: float = 10e-12

    def gate_area(self, gate) -> float:
        return self.area_per_fanin * max(1, gate.fanin)

    def gate_delay(self, gate) -> float:
        return self.gate_delay_base + self.gate_delay_per_fanin * gate.fanin


@dataclass
class FtlInstance:
    name: str
    q: str  # net previously driven by the replaced flip-flop
    leaves: tuple[str, ...]  # x_1 = leaves[0]
    function: TruthTable  # over the leaves, original polarity
    positive: TruthTable
    polarity_mask: int  # leaves fed complemented
    weights: ThresholdFunction  # minimal realization of the positive form
    catalog_index: int | None = None
    cell: FtlCell | None = None  # trained cell for the positive form, if any


@dataclass
class CostSummary:
    area_before: float
    area_after: float
    cells_removed: int  # gates + flip-flops removed
    cells_added: int
    worst_path_before: float
    worst_path_after: float

    @property
    def slack_delta(self) -> float:
        return self.worst_path_before - self.worst_path_after


@dataclass
class MappedDesign:
    netlist: Netlist  # residual logic; FTL instances live alongside
    instances: list[FtlInstance]
    cost: CostSummary


def _dead_gates(nl: Netlist, live_roots: set[str],
                skip_latch: str | None = None) -> set[str]:
    """Gates that become unreferenced once only live_roots (plus the data
    inputs of the remaining latches) need drivers."""
    roots = set(live_roots) | set(nl.outputs)
    for q, l in nl.latches.items():
        if q != skip_latch:
            roots.add(l.d)
    live: set[str] = set()
    stack = [r for r in roots if r in nl.gates]
    while stack:
        net = stack.pop()
        if net in live:
            continue
        live.add(net)
        stack.extend(x for x in nl.gates[net].inputs if x in nl.gates)
    return set(nl.gates) - live


def _arrival_times(nl: Netlist, cost: CostModel,
                   instances: list[FtlInstance]) -> dict[str, float]:
    ftl_qs = {inst.q for inst in instances}
    arrival: dict[str, float] = {net: 0.0 for net in nl.inputs}
    for q in nl.latches:
        arrival[q] = cost.dff_c2q
    for q in ftl_qs:
        arrival[q] = cost.ftl_c2q
    for net in nl.topo_order():
        g = nl.gates[net]
        arrival[net] = max(arrival[x] for x in g.inputs) + cost.gate_delay(g)
    return arrival


def _worst_path(nl: Netlist, cost: CostModel,
                instances: list[FtlInstance]) -> float:
    arrival = _arrival_times(nl, cost, instances)
    worst = 0.0
    for l in nl.latches.values():
        worst = max(worst, arrival[l.d] + cost.dff_setup)
    for inst in instances:
        worst = max(worst,
                    max(arrival[x] for x in inst.leaves) + cost.ftl_setup)
    for net in nl.outputs:
        worst = max(worst, arrival.get(net, 0.0))
    return worst


def _total_area(nl: Netlist, cost: CostModel, n_ftl: int) -> float:
    return (sum(cost.gate_area(g) for g in nl.gates.values())
            + cost.dff_area * len(nl.latches)
            + cost.ftl_area * n_ftl)


def map_ftl(
    nl: Netlist,
    cost: CostModel | None = None,
    trainer_hook=None,  # callable(positive TruthTable) -> FtlCell | None
    k: int = 5,
    catalog=None,  # list of CatalogEntry for index annotation
) -> MappedDesign:
    """Greedy per-flip-flop replacement; zero replacements is a valid
    outcome.  Ties break on fewest leaves, then lexicographic leaf names."""
    if not 1 <= k <= 5:
        raise ValueError(f"k must lie in 1..5, the ftl5 fan-in; got {k}")
    cost = cost or CostModel()
    # Replacement only deletes gates and latches, so fresh dicts suffice
    work = replace(nl, gates=dict(nl.gates), latches=dict(nl.latches))
    instances: list[FtlInstance] = []
    area_before = _total_area(nl, cost, 0)
    path_before = _worst_path(nl, cost, [])
    removed = 0

    catalog_by_table = {}
    if catalog is not None:
        catalog_by_table = {(e.n, e.table.bits): e.index for e in catalog}

    for q in sorted(nl.latches):
        if q not in work.latches:
            continue
        latch = work.latches[q]
        if latch.d not in work.gates:
            continue  # data driven by a PI or another latch: nothing to absorb
        kept_leaves = {leaf for inst in instances for leaf in inst.leaves}
        best = None  # (neg saving, n_leaves, leaves, cut, tt, tf, dead set)
        for cut in enumerate_cuts(work, latch.d, k):
            if cut.trivial:
                continue
            tt = cut_function(work, cut)
            tf = check_threshold(tt)
            if tf is None:
                continue
            dead = _dead_gates(work, kept_leaves | set(cut.leaves),
                               skip_latch=q)
            saving = (sum(cost.gate_area(work.gates[g]) for g in dead)
                      + cost.dff_area - cost.ftl_area)
            key = (-saving, len(cut.leaves), cut.leaves)
            if saving > 0 and (best is None or key < best[0]):
                best = (key, cut, tt, tf, dead)
        if best is None:
            continue
        _, cut, tt, tf, removable = best
        positive, mask = to_positive_form(tt)
        cat_idx = None
        if catalog_by_table:
            reduced, _ = project_to_support(tt)
            rep = canonicalize_np(reduced)
            cat_idx = catalog_by_table.get((rep.n, rep.bits))
        cell = trainer_hook(positive) if trainer_hook else None
        instances.append(FtlInstance(
            name=f"ftl_{q}", q=q, leaves=cut.leaves, function=tt,
            positive=positive, polarity_mask=mask, weights=tf,
            catalog_index=cat_idx, cell=cell,
        ))
        del work.latches[q]
        for g in removable:
            del work.gates[g]
        removed += len(removable) + 1

    area_after = _total_area(work, cost, len(instances))
    summary = CostSummary(
        area_before=area_before,
        area_after=area_after,
        cells_removed=removed,
        cells_added=len(instances),
        worst_path_before=path_before,
        worst_path_after=_worst_path(work, cost, instances),
    )
    return MappedDesign(work, instances, summary)


def _instance_output(inst: FtlInstance, leaf_values: dict[str, int]) -> int:
    m = 0
    for i, leaf in enumerate(inst.leaves):
        m |= leaf_values[leaf] << i
    if inst.cell is None:
        return inst.function.value(m)
    return evaluate(inst.cell, m ^ inst.polarity_mask).y


def _simulate_mapped(design: MappedDesign, pi_values: dict[str, int],
                     state: dict[str, int], order: list[str]
                     ) -> tuple[dict[str, int], dict[str, int]]:
    """One cycle of the residual netlist (topological order `order`) with
    the FTL instance outputs as extra sources; instances reset to 0."""
    sources = dict(pi_values)
    for inst in design.instances:
        sources[inst.q] = state.get(inst.q, 0)
    values, next_state = design.netlist.step(sources, state, order)
    for inst in design.instances:
        next_state[inst.q] = _instance_output(inst, values)
    return values, next_state


@dataclass
class EquivalenceReport:
    equivalent: bool
    cycles_checked: int
    first_divergence: tuple[int, str] | None = None  # (cycle, signal)


def verify_equivalence(
    original: Netlist,
    mapped: MappedDesign,
    cycles: int = 64,
    stimuli_seed: int = 0,
) -> EquivalenceReport:
    """Cycle-by-cycle co-simulation on random multi-cycle stimuli plus
    exhaustive single-cycle stimuli when the input count allows it."""
    pis = original.inputs
    watch = sorted(set(original.latches) | set(original.outputs))
    checked = 0

    def compare(cycle, vals_a, state_a, vals_b, state_b):
        for sig in watch:
            va = state_a.get(sig, vals_a.get(sig))
            vb = state_b.get(sig, vals_b.get(sig))
            if va != vb:
                return (cycle, sig)
        return None

    order_o = original.topo_order()
    order_m = mapped.netlist.topo_order()
    rng = np.random.default_rng(stimuli_seed)
    state_o: dict[str, int] = {}
    state_m: dict[str, int] = {}
    for cycle in range(cycles):
        pi_values = {pi: int(rng.integers(0, 2)) for pi in pis}
        vals_o, state_o = original.step(pi_values, state_o, order_o)
        vals_m, state_m = _simulate_mapped(mapped, pi_values, state_m, order_m)
        checked += 1
        div = compare(cycle, vals_o, state_o, vals_m, state_m)
        if div:
            return EquivalenceReport(False, checked, div)

    if len(pis) <= 10:
        for m in range(1 << len(pis)):
            pi_values = {pi: (m >> i) & 1 for i, pi in enumerate(pis)}
            vals_o, next_o = original.step(pi_values, {}, order_o)
            vals_m, next_m = _simulate_mapped(mapped, pi_values, {}, order_m)
            checked += 1
            div = compare(cycles + m, vals_o, next_o, vals_m, next_m)
            if div:
                return EquivalenceReport(False, checked, div)

    return EquivalenceReport(True, checked)


def export_mapped_blif(design: MappedDesign) -> str:
    """Residual netlist plus one .subckt ftl5 line per instance carrying
    the catalog index and the leaf polarity mask."""
    lines = []
    for inst in design.instances:
        pins = " ".join(f"x{i}={leaf}" for i, leaf in enumerate(inst.leaves))
        idx = inst.catalog_index if inst.catalog_index is not None else -1
        lines.append(
            f".subckt ftl5 cat={idx} pol={inst.polarity_mask:x} {pins} y={inst.q}"
        )
    return write_blif(design.netlist, lines)


def write_cost_csv(design: MappedDesign, fp) -> None:
    writer = csv.writer(fp)
    writer.writerow(["cells_removed", "cells_added", "area_before",
                     "area_after", "slack_delta"])
    c = design.cost
    writer.writerow([c.cells_removed, c.cells_added, f"{c.area_before:.3f}",
                     f"{c.area_after:.3f}", f"{c.slack_delta:.6e}"])
