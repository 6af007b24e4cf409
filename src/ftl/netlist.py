"""Gate-level sequential netlists: a BLIF subset parser, cycle-accurate
simulation, k-feasible cut enumeration, and cone truth-table extraction.

Every walk over the gates in this module is `_post_order`: the gates behind
some roots, each after all of its inputs, stopping at given nets.
Simulation runs `Netlist.program()`, that walk over all gates as (net,
inputs, table bits), in `step`.  Each net value is a word with one pattern
per bit of a mask `ones`, so one pass evaluates one pattern or all 2^n
assignments of n sources.  `_read` reads each gate's inputs from the net
values, for one pattern or a word.  `enumerate_cuts` merges fan-in cuts
along the walk of a root's cone, and `cut_function` runs the walk from a
cut's root, stopped at its leaves, over every leaf pattern at once.

Supported BLIF directives: .model, .inputs, .outputs, .names (single
output cover), .latch (D flip-flop), .end.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass, field
from functools import lru_cache

from .truthtable import TruthTable, _low_halves


class NetlistError(Exception):
    pass


@dataclass
class Gate:
    output: str
    inputs: list[str]
    table: TruthTable  # over inputs, x_1 = inputs[0]

    @property
    def fanin(self) -> int:
        return len(self.inputs)


@dataclass
class Latch:
    d: str
    q: str
    clock: str | None = None
    init: int = 0


@dataclass
class Netlist:
    model: str = ""
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    gates: dict[str, Gate] = field(default_factory=dict)  # keyed by output net
    latches: dict[str, Latch] = field(default_factory=dict)  # keyed by q net

    def check_drivers(self) -> None:
        """Every net is driven once, and every net read is driven."""
        driven = list(self.inputs) + list(self.gates) + list(self.latches)
        seen = set()
        for net in driven:
            if net in seen:
                raise NetlistError(f"net {net!r} driven more than once")
            seen.add(net)
        for g in self.gates.values():
            for net in g.inputs:
                if net not in seen:
                    raise NetlistError(f"net {net!r} has no driver")
        for l in self.latches.values():
            if l.d not in seen:
                raise NetlistError(f"latch data net {l.d!r} has no driver")
        for net in self.outputs:
            if net not in seen:
                raise NetlistError(f"output net {net!r} has no driver")

    def topo_order(self) -> list[str]:
        """Gate outputs in topological order; latch outputs and PIs are
        sources."""
        return _post_order(self, sorted(self.gates))

    def program(self) -> list[tuple[str, list[str], int]]:
        """(net, inputs, table bits) per gate of `topo_order()`."""
        return [(net, self.gates[net].inputs, self.gates[net].table.bits)
                for net in self.topo_order()]

    def step(self, pi_values: dict[str, int], state: dict[str, int],
             program: list, ones: int = 1
             ) -> tuple[dict[str, int], dict[str, int]]:
        """One clock cycle of this netlist's `program()`: returns (net
        values, next latch state).  Each value is a word with one pattern
        per bit of `ones`, such as every PI assignment at once; a latch
        absent from state reads init in every pattern."""
        values = dict(pi_values)
        for q, l in self.latches.items():
            values[q] = state.get(q, l.init * ones)
        for net, inputs, bits in program:
            values[net] = _read(bits, inputs, values, ones)
        return values, {q: values[l.d] for q, l in self.latches.items()}


def _post_order(nl: Netlist, roots: Iterable[str],
                stop: Collection[str] = ()) -> list[str]:
    """The gates reachable backward from roots without entering stop, each
    after all of its inputs; PIs, latch outputs and stop nets are sources.
    One explicit stack, so no recursion depends on the depth of logic."""
    order: list[str] = []
    done: dict[str, bool] = {}  # False while visiting, True once placed
    for root in roots:
        stack = [(root, False)]
        while stack:
            net, expanded = stack.pop()
            if expanded:
                done[net] = True
                order.append(net)
                continue
            if net not in nl.gates or net in stop or done.get(net):
                continue
            if net in done:
                raise NetlistError(f"combinational loop through {net!r}")
            done[net] = False
            stack.append((net, True))
            stack.extend((x, False) for x in nl.gates[net].inputs
                         if not done.get(x))
    return order


def _read(bits: int, inputs: Sequence[str], values: dict[str, int],
          ones: int) -> int:
    """The table `bits` (x_1 = inputs[0]) read at every pattern of `ones`,
    with each input's word taken from values: one path for scalar and word
    patterns, a lookup for one pattern, else a mux tree, x_1 innermost."""
    if ones == 1:
        m = 0
        for i, x in enumerate(inputs):
            m |= values[x] << i
        return (bits >> m) & 1
    level = [ones if (bits >> m) & 1 else 0 for m in range(1 << len(inputs))]
    for x in inputs:
        w = values[x]
        level = [lo ^ (lo ^ hi) & w for lo, hi in zip(level[::2], level[1::2])]
    return level[0]


def all_patterns(names: Sequence[str]) -> tuple[int, dict[str, int]]:
    """(ones, words) for all 2^len(names) assignments at once: pattern m
    sets names[i] to bit i of m."""
    ones = (1 << (1 << len(names))) - 1
    return ones, {x: ones ^ low for x, low in zip(names, _low_halves(len(names)))}


@lru_cache(maxsize=None)
def _row_mask(pattern: str) -> int:
    """The minterms of len(pattern) inputs that a cover row covers, the
    AND of its projection words.  A bad character raises and is not
    cached; the reader passes rows of at most 8 inputs, so the cache holds
    at most 3 + 9 + ... + 3^8 = 9,840 rows."""
    ones = (1 << (1 << len(pattern))) - 1
    row = ones
    for c, low in zip(pattern, _low_halves(len(pattern))):
        if c == "0":
            row &= low
        elif c == "1":
            row &= ones ^ low
        elif c != "-":
            raise NetlistError(f"bad cover character {c!r}")
    return row


def _cover_to_table(inputs: list[str], cover: list[tuple[str, str]]) -> TruthTable:
    n = len(inputs)
    if n > 8:
        raise NetlistError(f".names with {n} inputs exceeds the supported width")
    out_vals = {v for _, v in cover}
    if not out_vals <= {"0", "1"}:
        raise NetlistError(f"unsupported cover outputs {out_vals}")
    # BLIF covers are either all-1 (on-set given) or all-0 (off-set given).
    if "0" in out_vals and "1" in out_vals:
        raise NetlistError("mixed on-set/off-set cover")
    ones, bits = (1 << (1 << n)) - 1, 0
    for pattern, _ in cover:
        if len(pattern) != n:
            raise NetlistError(f"cover row {pattern!r} width mismatch")
        bits |= _row_mask(pattern)
    return TruthTable(n, ones ^ bits if "0" in out_vals else bits)


def parse_blif(text: str) -> Netlist:
    nl = Netlist()
    lines: list[str] = []
    for raw in text.splitlines():
        if not (line := raw.split("#", 1)[0].strip()):
            continue
        if lines and lines[-1].endswith("\\"):
            lines[-1] = lines[-1][:-1] + " " + line
        else:
            lines.append(line)
    if not lines:
        raise NetlistError("no BLIF directive in the text")

    i = 0
    while i < len(lines):
        line = lines[i]
        tokens = line.split()
        directive = tokens[0]
        if directive == ".model":
            nl.model = tokens[1] if len(tokens) > 1 else ""
        elif directive == ".inputs":
            nl.inputs.extend(tokens[1:])
        elif directive == ".outputs":
            nl.outputs.extend(tokens[1:])
        elif directive == ".latch":
            if len(tokens) < 3:
                raise NetlistError(f"malformed .latch: {line!r}")
            d, q = tokens[1], tokens[2]
            clock = None
            init = 0
            rest = tokens[3:]
            if len(rest) >= 2 and rest[0] in ("fe", "re", "ah", "al", "as"):
                clock = rest[1]
                rest = rest[2:]
            if len(rest) > 1:
                raise NetlistError(f"malformed .latch: {line!r}")
            if rest:
                if rest[0] not in ("0", "1", "2", "3"):
                    raise NetlistError(f"bad latch init {rest[0]!r}")
                init = 1 if rest[0] == "1" else 0
            if q in nl.latches:
                raise NetlistError(f"latch output {q!r} driven more than once")
            nl.latches[q] = Latch(d, q, clock, init)
        elif directive == ".names":
            if len(tokens) < 2:
                raise NetlistError(f"malformed .names: {line!r}")
            *ins, out = tokens[1:]
            if not ins:
                raise NetlistError(f"constant .names for {out!r} "
                                   "unsupported in this subset")
            cover = []
            while i + 1 < len(lines) and not lines[i + 1].startswith("."):
                i += 1
                row = lines[i].split()
                if len(row) != 2:
                    raise NetlistError(f"malformed cover row {lines[i]!r}")
                cover.append((row[0], row[1]))
            if out in nl.gates:
                raise NetlistError(f"net {out!r} driven more than once")
            nl.gates[out] = Gate(out, list(ins), _cover_to_table(ins, cover))
        elif directive == ".end":
            break
        else:
            raise NetlistError(f"unsupported directive {directive!r}")
        i += 1

    nl.check_drivers()
    nl.topo_order()  # raises on combinational loops
    return nl


@lru_cache(maxsize=None)
def _cover_rows(n: int) -> tuple[str, ...]:
    """Per minterm m of n inputs, its on-set cover row: bit i of m is
    character i."""
    return tuple("".join(str((m >> i) & 1) for i in range(n)) + " 1"
                 for m in range(1 << n))


def write_blif(nl: Netlist, extra_lines: list[str] | None = None) -> str:
    out = [f".model {nl.model or 'mapped'}"]
    out.append(".inputs " + " ".join(nl.inputs))
    out.append(".outputs " + " ".join(nl.outputs))
    for q in sorted(nl.latches):
        l = nl.latches[q]
        clk = f" re {l.clock}" if l.clock else ""
        out.append(f".latch {l.d} {l.q}{clk} {l.init}")
    for name in sorted(nl.gates):
        g = nl.gates[name]
        out.append(".names " + " ".join(g.inputs) + f" {g.output}")
        out.extend(map(_cover_rows(g.fanin).__getitem__, g.table.onset()))
    for line in extra_lines or []:
        out.append(line)
    out.append(".end")
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class Cut:
    root: str
    leaves: tuple[str, ...]  # sorted


def enumerate_cuts(nl: Netlist, root: str, k: int = 5) -> list[Cut]:
    """All k-feasible cuts of root, merged bottom-up over its cone in
    topological order with dominated-cut pruning, in (size, sorted leaves)
    order; includes the trivial cut {root}."""
    if k > 6:
        raise ValueError("cut width limited to k <= 6")
    cuts: dict[str, list[frozenset[str]]] = {}
    for net in _post_order(nl, [root]):
        merged = {frozenset()}
        for x in nl.gates[net].inputs:
            fanin = cuts.get(x, [frozenset([x])])
            merged = {u for acc in merged for c in fanin
                      if len(u := acc | c) <= k}
        # prune dominated cuts (a superset of another cut is never better)
        pruned: list[frozenset[str]] = []
        for c in sorted(merged | {frozenset([net])},
                        key=lambda s: (len(s), sorted(s))):
            if not any(p <= c for p in pruned):
                pruned.append(c)
        cuts[net] = pruned
    return [Cut(root, tuple(sorted(leaves)))
            for leaves in cuts.get(root, [frozenset([root])])]


def cut_function(nl: Netlist, cut: Cut) -> TruthTable:
    """Truth table of the root in terms of the (sorted) leaves, by one
    word-parallel pass over the cone; x_1 = first leaf."""
    leaves = cut.leaves
    if len(leaves) > 6:
        raise ValueError("cone simulation limited to 6 leaves")
    ones, values = all_patterns(leaves)
    for net in _post_order(nl, [cut.root], leaves):
        g = nl.gates[net]
        values[net] = _read(g.table.bits, g.inputs, values, ones)
    return TruthTable(len(leaves), values[cut.root])
