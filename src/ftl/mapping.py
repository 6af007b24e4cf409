"""Mapping flip-flop fan-in cones onto FTL cells.

For each flip-flop, the k-feasible cuts of its data input are ranked by
area saving: the flip-flop, plus the gates of the cut's maximum fanout-free
cone, found by reference counting (Mishchenko, Chatterjee and Brayton,
"DAG-aware AIG rewriting", DAC 2006), minus one FTL cell.  The first cut in
that order that check_threshold realizes replaces the cone; that answer
names the cell's class (threshold.class_name) and feeds negative-unate
leaves complemented.  Gates still fanning out elsewhere are kept.  A cut's
dead gates lie in the whole fanout-free cone, so a flip-flop whose whole
cone cannot pay for a cell is skipped before its cuts are enumerated.

Equivalence checking treats an FTL cell as the paper does, an edge-
triggered register loading a threshold function, so the mapped design is a
plain netlist over the original's registers.  Equivalence from reset is
then proved register by register, by register correspondence (van Eijk,
"Sequential equivalence checking based on structural similarities", IEEE
TCAD 2000).  Only a design the proof cannot close is co-simulated: both
designs step together through random cycles, stopping early once the
proof's induction covers the cycles left, then through the exhaustive
single-cycle sweep, and the first diverging cycle and signal are named.
The random stimuli are numpy's np.random.default_rng(seed).integers(0, 2,
...) stream, drawn bit for bit without importing numpy.random.
"""

from __future__ import annotations

import csv
import operator
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, replace

from .netlist import (Gate, Latch, Netlist, all_patterns, cut_function,
                      enumerate_cuts, write_blif)
from .threshold import ThresholdFunction, check_threshold, class_name
from .truthtable import TruthTable


# The cost figures every mapping is scored with.
FTL_AREA = 15.6  # um^2
DFF_AREA = 5.6
AREA_PER_FANIN = 1.4  # NAND2 = 2.8, INV = 1.4
DFF_SETUP = 67e-12  # seconds
DFF_C2Q = 168e-12
FTL_SETUP = 67e-12
FTL_C2Q = 142e-12
GATE_DELAY_BASE = 20e-12
GATE_DELAY_PER_FANIN = 10e-12
# Random cycles co-simulated before the single-cycle sweep.
RANDOM_CYCLES = 64
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's LCG multiplier
_MASK128 = (1 << 128) - 1


def _gate_area(gate) -> float:
    return AREA_PER_FANIN * max(1, gate.fanin)


def _saving(nl: Netlist, dead: list[str]) -> float:
    """The area a cell saves by replacing a flip-flop and the dead gates."""
    return sum(_gate_area(nl.gates[g]) for g in dead) + DFF_AREA - FTL_AREA


@dataclass
class FtlInstance:
    q: str  # net previously driven by the replaced flip-flop
    leaves: tuple[str, ...]  # x_1 = leaves[0]
    function: TruthTable  # over the leaves, original polarity
    weights: ThresholdFunction  # minimal; negative on complemented leaves
    catalog_index: int | None = None


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


def _dead_gates(nl: Netlist, refs: Counter, root: str,
                leaves: tuple[str, ...]) -> list[str]:
    """The gates left unreferenced when root's reader is replaced by a cell
    on leaves.  refs counts every reader of a net; each pop drops one, so a
    gate dies on the pop that drops its last, and leaves never die."""
    dead, drops, stack = [], Counter(), [root]
    while stack:
        net = stack.pop()
        drops[net] += 1
        if drops[net] == refs[net] and net in nl.gates and net not in leaves:
            dead.append(net)
            stack.extend(nl.gates[net].inputs)
    return dead


def _worst_path(nl: Netlist, instances: list[FtlInstance],
                order: list[str]) -> float:
    """The longest register-to-register or input-to-output delay, with
    arrival times read along order: a topological order of nl's gates or
    of a netlist nl lost gates from, whose deleted gates are skipped."""
    arrival: dict[str, float] = dict.fromkeys(nl.inputs, 0.0)
    arrival.update(dict.fromkeys(nl.latches, DFF_C2Q))
    arrival.update((inst.q, FTL_C2Q) for inst in instances)
    for net in order:
        if (g := nl.gates.get(net)) is not None:
            arrival[net] = max(map(arrival.__getitem__, g.inputs)) + (
                GATE_DELAY_BASE + GATE_DELAY_PER_FANIN * g.fanin)
    worst = 0.0
    for l in nl.latches.values():
        worst = max(worst, arrival[l.d] + DFF_SETUP)
    for inst in instances:
        worst = max(worst,
                    max(arrival[x] for x in inst.leaves) + FTL_SETUP)
    for net in nl.outputs:
        worst = max(worst, arrival.get(net, 0.0))
    return worst


def _total_area(nl: Netlist, n_ftl: int) -> float:
    return (sum(_gate_area(g) for g in nl.gates.values())
            + DFF_AREA * len(nl.latches)
            + FTL_AREA * n_ftl)


def map_ftl(
    nl: Netlist,
    k: int = 5,
    catalog=None,  # list of CatalogEntry for index annotation
) -> MappedDesign:
    """Greedy per-flip-flop replacement; zero replacements is a valid
    outcome.  Cuts rank by saving, then fewest leaves, then leaf names.

    A flip-flop is skipped, uncut, when its data input's whole fanout-free
    cone, `_dead_gates` with no leaves, saves no more than a cell costs.
    That is exact: with fewer nets to stop at, the dereference drops every
    net at least as often, so each cut's dead set is a subset of that cone
    and no cut saves area.  The counts it reads are the current ones: a
    placed cell's latch and dead gates stop reading, and its leaves read."""
    if not 1 <= k <= 5:
        raise ValueError(f"k must lie in 1..5, the ftl5 fan-in; got {k}")
    # Replacement only deletes gates and latches, so fresh dicts suffice
    work = replace(nl, gates=dict(nl.gates), latches=dict(nl.latches))
    instances: list[FtlInstance] = []
    area_before = _total_area(nl, 0)
    order = nl.topo_order()
    path_before = _worst_path(nl, [], order)
    removed = 0
    index = {}  # class name -> catalog index, built at the first placement

    # Every reader of a net: gate inputs, outputs, latches, placed cells'
    # leaves; kept current as cells are placed
    refs = Counter([*(x for g in work.gates.values() for x in g.inputs),
                    *work.outputs, *(l.d for l in work.latches.values())])

    for q in sorted(nl.latches):
        latch = work.latches[q]
        if latch.d not in work.gates:
            continue  # data driven by a PI or another latch: nothing to absorb
        # No cut saves more than the whole MFFC, the cone with no leaves
        if _saving(work, _dead_gates(work, refs, latch.d, ())) <= 0:
            continue
        ranked = []  # (-saving, size, leaves, dead): leaves differ, no tie
        for leaves in enumerate_cuts(work, latch.d, k):
            dead = _dead_gates(work, refs, latch.d, leaves)
            if (saving := _saving(work, dead)) > 0:
                ranked.append((-saving, len(leaves), leaves, dead))
        for *_, leaves, removable in sorted(ranked):
            tt = cut_function(work, latch.d, leaves)
            if (tf := check_threshold(tt)) is not None:
                break
        else:
            continue
        name = class_name(tf)  # a constant's has no weights: no entry
        index = index or {(e.function.weights, e.function.threshold): e.index
                          for e in catalog or ()}
        instances.append(FtlInstance(
            q=q, leaves=leaves, function=tt, weights=tf,
            catalog_index=index.get((name.weights, name.threshold)),
        ))
        del work.latches[q]
        refs[latch.d] -= 1
        refs.update(leaves)
        for g in removable:
            refs.subtract(work.gates.pop(g).inputs)
        removed += len(removable) + 1

    area_after = _total_area(work, len(instances))
    summary = CostSummary(
        area_before=area_before,
        area_after=area_after,
        cells_removed=removed,
        cells_added=len(instances),
        worst_path_before=path_before,
        worst_path_after=_worst_path(work, instances, order),
    )
    return MappedDesign(work, instances, summary)


@dataclass
class EquivalenceReport:
    equivalent: bool
    cycles_checked: int
    first_divergence: tuple[int, str] | None = None  # (cycle, signal)
    proved: bool = False  # by register correspondence, without simulation


def _corresponds(original: Netlist, mapped: MappedDesign) -> bool:
    """Register correspondence of the flattened mapped design: (a) every
    residual gate and latch is the original's; (b) each cell's function is
    its latch's cone function of the cell's leaves in the original.  Leaves
    that do not cut the cone, or too many to simulate, fail the proof."""
    residual = mapped.netlist
    if any(original.gates.get(n) != g for n, g in residual.gates.items()):
        return False
    if any(original.latches[q] != l for q, l in residual.latches.items()):
        return False
    try:
        return all(cut_function(original, original.latches[i.q].d,
                                i.leaves) == i.function
                   for i in mapped.instances)
    except (KeyError, ValueError):
        return False


def _stimulus_bits(seed: int) -> Iterator[int]:
    """np.random.default_rng(seed).integers(0, 2, size)'s bits, row-major,
    drawn lazily without numpy.random.  PCG64 (O'Neill 2014), seeded by
    SeedSequence(seed) from state 0 (step, add, step), steps and then
    outputs rotr64(hi ^ lo, state >> 122); each 32-bit half, low first,
    gives its top bit, as Lemire's draw over {0, 1} never rejects."""
    from .device import _pcg64_seeds  # numpy: only co-simulation loads it
    s0, s1, s2, s3 = _pcg64_seeds(operator.index(seed)).tolist()[0]
    inc = (s2 << 64 | s3) << 1 | 1
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128

    def bits(state):
        while True:
            state = (state * _PCG_MULT + inc) & _MASK128
            word, rot = state >> 64 ^ state, state >> 122
            yield word >> (31 + rot & 63) & 1  # bit 31 of the rotated word
            yield word >> (63 + rot & 63) & 1  # bit 63
    return bits(state)


def verify_equivalence(
    original: Netlist,
    mapped: MappedDesign,
    stimuli_seed: int = 0,
) -> EquivalenceReport:
    """Equivalence from reset, proved when it can be, else co-simulated.

    Each FTL instance is a register, reset 0, loading its threshold gate,
    so both designs are netlists over the same registers.  The proof is
    register correspondence (van Eijk, IEEE TCAD 2000), `_corresponds`:
    from equal states the residual gates, the cells and the residual
    latches compute what the original computes, so by induction over
    cycles two designs that enter a cycle in equal states agree on every
    output and register on every input sequence, whatever the PI count.
    When both also reset alike, the report has proved=True and the
    cycles_checked the co-simulation would have covered: it cannot diverge
    on any of them, so the report is the one co-simulation gives.

    Otherwise the designs are co-simulated: RANDOM_CYCLES random stimuli,
    one scalar step per design and cycle from each side's own reset, then
    every single-cycle PI pattern from reset when there are at most 10 PIs,
    in one word step per design.  The stimuli are the rows of numpy's
    default_rng(stimuli_seed).integers(0, 2, (RANDOM_CYCLES, PIs)), drawn
    by `_stimulus_bits` as far as the loop reaches; a negative seed raises
    ValueError once co-simulation starts.  An output is compared by its
    value, a register by its next state.  A divergence names the first
    cycle, sweep pattern m counting as cycle RANDOM_CYCLES + m, and within
    it the first signal in sorted order.  Once the correspondence holds and
    a random cycle ends in equal states, the same induction covers the
    cycles left, so the random phase stops there.  Foreign registers, PIs
    or outputs, or nets not driven once, raise ValueError naming one,
    before either path runs; so does a combinational loop, once
    co-simulated: a proven design cannot loop, as its residual gates are
    the original's."""
    pis = original.inputs
    registers = [*mapped.netlist.latches, *(i.q for i in mapped.instances)]
    for theirs, ours in ((registers, [*original.latches]),
                         (mapped.netlist.inputs, pis),
                         (mapped.netlist.outputs, original.outputs)):
        if sorted(theirs) != sorted(ours):
            odd = (Counter(theirs) - Counter(ours)
                   | Counter(ours) - Counter(theirs))
            raise ValueError(f"mapped registers, PIs or outputs differ from "
                             f"the original's at net {min(odd)!r}")
    # parse_blif splits on whitespace, so no parsed net is "<q> ftl"; q is
    # the register, which another instance may read as a leaf.
    flat = replace(mapped.netlist, gates=mapped.netlist.gates | {
        f"{i.q} ftl": Gate(f"{i.q} ftl", [*i.leaves], i.function)
        for i in mapped.instances}, latches=mapped.netlist.latches | {
        i.q: Latch(f"{i.q} ftl", i.q) for i in mapped.instances})
    flat.check_drivers()
    sweep_ones, sweep = (all_patterns(pis) if len(pis) <= 10
                         else (0, dict.fromkeys(pis, 0)))
    corresponds = _corresponds(original, mapped)
    resets = [{q: l.init for q, l in nl.latches.items()}
              for nl in (original, flat)]
    cycles = RANDOM_CYCLES
    if corresponds and resets[0] == resets[1]:
        return EquivalenceReport(True, cycles + sweep_ones.bit_length(),
                                 proved=True)
    designs = [(nl, nl.topo_order()) for nl in (original, flat)]
    watch = sorted(set(original.latches) | set(original.outputs))
    bits = _stimulus_bits(stimuli_seed)
    states = resets
    for c in range(cycles):
        pi_values = dict(zip(pis, bits))  # stops at pis' end, drawing none
        steps = [nl.step(pi_values, state, order)
                 for (nl, order), state in zip(designs, states)]
        vals = [values | nxt for values, nxt in steps]
        if diff := [s for s in watch if vals[0][s] != vals[1][s]]:
            return EquivalenceReport(False, c + 1, (c, diff[0]))
        states = [nxt for _, nxt in steps]
        if corresponds and states[0] == states[1]:
            break
    vals = []
    for nl, order in designs:
        values, nxt = nl.step(sweep, {}, order, sweep_ones)
        vals.append(values | nxt)
    hit = min((((w & -w).bit_length() - 1, s) for s in watch
               if (w := vals[0][s] ^ vals[1][s])), default=None)
    if hit is None:
        return EquivalenceReport(True, cycles + sweep_ones.bit_length())
    return EquivalenceReport(False, cycles + hit[0] + 1,
                             (cycles + hit[0], hit[1]))


def export_mapped_blif(design: MappedDesign) -> str:
    """Residual netlist plus one .subckt ftl5 line per instance carrying
    the catalog index and the leaf polarity mask: bit i set where leaf i is
    fed complemented, its weight negative."""
    lines = []
    for inst in design.instances:
        pins = " ".join(f"x{i}={leaf}" for i, leaf in enumerate(inst.leaves))
        idx = inst.catalog_index if inst.catalog_index is not None else -1
        pol = sum(1 << i for i, w in enumerate(inst.weights.weights) if w < 0)
        lines.append(f".subckt ftl5 cat={idx} pol={pol:x} {pins} y={inst.q}")
    return write_blif(design.netlist, lines)


def write_cost_csv(design: MappedDesign, fp) -> None:
    writer = csv.writer(fp)
    writer.writerow(["cells_removed", "cells_added", "area_before",
                     "area_after", "slack_delta"])
    c = design.cost
    writer.writerow([c.cells_removed, c.cells_added, f"{c.area_before:.3f}",
                     f"{c.area_after:.3f}", f"{c.slack_delta:.6e}"])
