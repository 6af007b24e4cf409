"""Independent checks of the library's results, computed on the benchmark
side with numpy and plain Python: threshold realizations, the nominal
conductance model of a cell, and a cycle simulation of BLIF netlists from
reset.  Nothing here calls into `ftl`; library objects are only read.
"""

from __future__ import annotations

import numpy as np

METASTABLE_EPS = 1e-12  # siemens, the library's metastability window


def minterm_matrix(n: int) -> np.ndarray:
    m = np.arange(1 << n)
    return (m[:, None] >> np.arange(n)) & 1


def table_bits(bits: int, n: int) -> np.ndarray:
    return (bits >> np.arange(1 << n)) & 1


def realizes(weights, threshold: int, n: int, bits: int) -> bool:
    """sum(w_i x_i) >= T on exactly the on-set of the table."""
    scores = minterm_matrix(n) @ np.asarray(weights, dtype=np.int64)
    return bool(np.array_equal((scores >= threshold).astype(int),
                               table_bits(bits, n)))


def _conductances(cell):
    """Nominal (G_L, G_R) per minterm: alpha-power branch conductances of
    the inputs at 1 (left) or 0 (right) plus each side device."""
    p = cell.params
    vts = np.asarray(cell.vt + (cell.v_left, cell.v_right))
    g = p.k_cond * np.maximum(0.0, p.vgate - vts) ** p.alpha
    x = minterm_matrix(cell.n)
    g_left = x @ g[:cell.n] + g[cell.n]
    g_right = (1 - x) @ g[:cell.n] + g[cell.n + 1]
    return g_left, g_right


def cell_realizes(cell, bits: int) -> bool:
    g_left, g_right = _conductances(cell)
    gap = g_left - g_right
    y = (gap > 0).astype(int)
    return bool(np.array_equal(y, table_bits(bits, cell.n))
                and np.all(np.abs(gap) >= METASTABLE_EPS))


def cell_worst_delay(cell) -> float:
    g_left, g_right = _conductances(cell)
    p = cell.params
    return float(np.max(p.tau0 + p.tau1 / np.abs(g_left - g_right)))


def conductances_match(cell, records) -> bool:
    g_left, g_right = _conductances(cell)
    got = np.array([(r.g_left, r.g_right) for r in records])
    return bool(np.allclose(got, np.stack([g_left, g_right], axis=1),
                            rtol=1e-12, atol=0.0))


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# -- BLIF -----------------------------------------------------------------

class Blif:
    """The BLIF subset the corpus and the mapper use, including the
    `.subckt ftl5 cat=<i> pol=<hex> x0=<leaf> ... y=<q>` instance lines."""

    def __init__(self, text: str):
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self.gates: dict[str, tuple[list[str], np.ndarray]] = {}
        self.latches: dict[str, tuple[str, int]] = {}  # q -> (d, init)
        self.ftl: dict[str, list[str]] = {}  # q -> leaves
        cover_for = None
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tok = line.split()
            if tok[0] == ".inputs":
                self.inputs += tok[1:]
            elif tok[0] == ".outputs":
                self.outputs += tok[1:]
            elif tok[0] == ".latch":
                init = int(tok[-1]) if tok[-1] in ("0", "1") and len(tok) > 3 \
                    else 0
                self.latches[tok[2]] = (tok[1], init)
            elif tok[0] == ".names":
                ins, out = tok[1:-1], tok[-1]
                cover_for = (ins, out, [])
                self.gates[out] = cover_for
            elif tok[0] == ".subckt":
                pins = dict(t.split("=", 1) for t in tok[2:])
                leaves = [pins[f"x{i}"] for i in range(len(pins))
                          if f"x{i}" in pins]
                self.ftl[pins["y"]] = leaves
            elif tok[0] in (".model", ".end"):
                cover_for = None
            else:
                cover_for[2].append((tok[0], tok[1]))
        for out, (ins, _, rows) in list(self.gates.items()):
            self.gates[out] = (ins, _cover_table(len(ins), rows))
        self.order = self._topo()

    def _topo(self) -> list[str]:
        order, done = [], set()
        for root in sorted(self.gates):
            stack = [(root, False)]
            while stack:
                net, expanded = stack.pop()
                if net in done or net not in self.gates:
                    continue
                if expanded:
                    done.add(net)
                    order.append(net)
                    continue
                stack.append((net, True))
                stack.extend((x, False) for x in self.gates[net][0]
                             if x not in done)
        return order


def _cover_table(k: int, rows) -> np.ndarray:
    on = np.zeros(1 << k, dtype=bool)
    offset_given = any(v == "0" for _, v in rows)
    for pattern, _ in rows:
        hit = np.ones(1 << k, dtype=bool)
        x = minterm_matrix(k)
        for i, c in enumerate(pattern):
            if c != "-":
                hit &= x[:, i] == int(c)
        on |= hit
    return ~on if offset_given else on


def simulate(design: Blif, pi_stream: np.ndarray, ftl_functions: dict,
             ftl_init: dict) -> dict[str, np.ndarray]:
    """Cycle simulation from reset over lanes of random stimuli.

    pi_stream has shape (cycles, inputs, lanes).  Returns, per register and
    primary output, its current-cycle value in every cycle and lane."""
    cycles, _, lanes = pi_stream.shape
    state = {q: np.full(lanes, init, dtype=bool)
             for q, (_, init) in design.latches.items()}
    for q in design.ftl:
        state[q] = np.full(lanes, ftl_init.get(q, 0), dtype=bool)
    watch = sorted(state) + [o for o in design.outputs if o not in state]
    trace = {sig: np.zeros((cycles, lanes), dtype=bool) for sig in watch}
    for c in range(cycles):
        values = dict(zip(design.inputs, pi_stream[c]))
        values.update(state)
        for net in design.order:
            ins, table = design.gates[net]
            idx = np.zeros(lanes, dtype=np.int64)
            for i, x in enumerate(ins):
                idx |= values[x].astype(np.int64) << i
            values[net] = table[idx]
        for sig in watch:
            trace[sig][c] = values[sig]
        nxt = {q: values[d] for q, (d, _) in design.latches.items()}
        for q, leaves in design.ftl.items():
            weights, threshold = ftl_functions[q]
            acc = np.zeros(lanes, dtype=np.int64)
            for w, leaf in zip(weights, leaves):
                acc += w * values[leaf].astype(np.int64)
            nxt[q] = acc >= threshold
        state = nxt
    return trace


def compare_from_reset(original_text: str, mapped_text: str, instances,
                       seed: int, cycles: int = 16, lanes: int = 64) -> str:
    """'equal', 'reset_init_lost' (equal once every FTL register starts
    from the init of the latch it replaced) or 'mismatch'.  Compares the
    current-cycle value of every original register and primary output."""
    original = Blif(original_text)
    mapped = Blif(mapped_text)
    if sorted(mapped.inputs) != sorted(original.inputs) or \
            set(mapped.ftl) != {inst.q for inst in instances}:
        return "mismatch"
    functions = {inst.q: (inst.weights.weights, inst.weights.threshold)
                 for inst in instances}
    rng = np.random.default_rng(seed)
    stim = rng.integers(0, 2, (cycles, len(original.inputs), lanes)).astype(bool)
    order = [mapped.inputs.index(x) for x in original.inputs]
    stim_mapped = np.empty_like(stim)
    stim_mapped[:, order] = stim
    want = simulate(original, stim, {}, {})
    watch = list(want)

    def agrees(ftl_init):
        got = simulate(mapped, stim_mapped, functions, ftl_init)
        return all(sig in got and np.array_equal(want[sig], got[sig])
                   for sig in watch)

    if agrees({}):
        return "equal"
    inits = {q: original.latches[q][1] for q in mapped.ftl
             if q in original.latches}
    return "reset_init_lost" if agrees(inits) else "mismatch"
