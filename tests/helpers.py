"""Checks shared by the tests."""

from ftl.device import evaluate


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


def gate_eval(gate, values) -> int:
    """One gate at one pattern: its table read at the minterm its input
    net values spell, x_1 = gate.inputs[0]."""
    m = 0
    for i, net in enumerate(gate.inputs):
        m |= values[net] << i
    return gate.table.value(m)


def instance_output(inst, leaf_values) -> int:
    """One FTL instance at one pattern: the trained cell when there is
    one, fed the complemented leaves, else the cone function."""
    m = 0
    for i, leaf in enumerate(inst.leaves):
        m |= leaf_values[leaf] << i
    if inst.cell is None:
        return inst.function.value(m)
    return evaluate(inst.cell, m ^ inst.polarity_mask).y


def scalar_step(nl, pi_values, state, instances=()):
    """One cycle of one pattern, gate by gate in whole-netlist order, with
    the FTL instances as extra registers that reset to 0: (net values,
    next state)."""
    values = dict(pi_values)
    for q, l in nl.latches.items():
        values[q] = state.get(q, l.init)
    for inst in instances:
        values[inst.q] = state.get(inst.q, 0)
    for net in nl.topo_order():
        values[net] = gate_eval(nl.gates[net], values)
    nxt = {q: values[l.d] for q, l in nl.latches.items()}
    for inst in instances:
        nxt[inst.q] = instance_output(inst, values)
    return values, nxt


def dead_gates_walk(nl, live_roots, skip_latch):
    """Gates left unreferenced once only live_roots, the outputs and the
    data inputs of the latches other than skip_latch need drivers: one
    liveness walk over the whole netlist."""
    roots = set(live_roots) | set(nl.outputs)
    roots.update(l.d for q, l in nl.latches.items() if q != skip_latch)
    live = set()
    stack = [r for r in roots if r in nl.gates]
    while stack:
        net = stack.pop()
        if net not in live:
            live.add(net)
            stack.extend(x for x in nl.gates[net].inputs if x in nl.gates)
    return set(nl.gates) - live
