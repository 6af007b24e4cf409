"""Cone replacement, cost accounting, and co-simulation equivalence."""

import copy
import io
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ftl import mapping, threshold
from ftl.mapping import (AREA_PER_FANIN, DFF_AREA, FTL_AREA,
                         export_mapped_blif, map_ftl, verify_equivalence,
                         write_cost_csv)
from ftl.netlist import Gate, Latch, Netlist, enumerate_cuts, parse_blif
from ftl.threshold import build_catalog, canonicalize_np, check_threshold
from ftl.truthtable import TruthTable
from helpers import (dead_gates_walk, reference_cuts, reference_map,
                     refs_of, scalar_step)

CORPUS = "src/ftl/corpus"
ROOT = Path(__file__).resolve().parent.parent


def load(name):
    return parse_blif(Path(f"{CORPUS}/{name}").read_text())


@pytest.fixture(scope="module")
def catalog():
    return build_catalog(5)


def test_hybrid_two_replacements(catalog):
    nl = load("fig2_hybrid.blif")
    design = map_ftl(nl, catalog=catalog)
    assert len(design.instances) == 2
    assert {i.q for i in design.instances} == {"fq", "gq"}
    # residual logic (the carry-out cone) survives intact
    assert "co" in design.netlist.outputs
    assert design.netlist.latches == {}


def test_hybrid_cost_accounting_exact(catalog):
    nl = load("fig2_hybrid.blif")
    before = copy.deepcopy(nl)
    design = map_ftl(nl, catalog=catalog)
    assert (nl.gates, nl.latches) == (before.gates, before.latches)
    removed_gates = set(nl.gates) - set(design.netlist.gates)
    removed_area = sum(AREA_PER_FANIN * max(1, nl.gates[g].fanin)
                       for g in removed_gates)
    removed_area += DFF_AREA * len(design.instances)
    added_area = FTL_AREA * len(design.instances)
    assert design.cost.area_after == pytest.approx(
        design.cost.area_before - removed_area + added_area)
    assert design.cost.cells_added == 2
    assert design.cost.slack_delta > 0  # FTL C2Q beats DFF C2Q here


def test_hybrid_equivalence_exhaustive(catalog):
    nl = load("fig2_hybrid.blif")
    design = map_ftl(nl, catalog=catalog)
    report = verify_equivalence(nl, design)
    assert report.equivalent
    assert report.first_divergence is None
    assert report.cycles_checked >= 2 ** 6  # exhaustive for 6 PIs


def test_f115_cone_replaced(catalog):
    nl = load("f115_nandinv.blif")
    design = map_ftl(nl, catalog=catalog)
    assert len(design.instances) == 1
    inst = design.instances[0]
    assert catalog[inst.catalog_index].table == canonicalize_np(inst.function)
    assert inst.catalog_index == 41  # the cat= of the pinned mapped.blif
    assert design.cost.area_after < design.cost.area_before
    assert verify_equivalence(nl, design).equivalent


@pytest.mark.parametrize("name", ["fig2_hybrid.blif", "f115_nandinv.blif"])
def test_one_chow_sort_per_checked_cut(catalog, name, monkeypatch):
    """A placed cell's class is named from the realization check_threshold
    returned, so each checked cut is sorted by Chow parameters once."""
    calls = Counter()

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(threshold, "_chow_sort",
                        counted("sort", threshold._chow_sort))
    monkeypatch.setattr(mapping, "check_threshold",
                        counted("check", mapping.check_threshold))
    assert map_ftl(load(name), catalog=catalog).instances
    assert calls["sort"] == calls["check"] > 0


def test_xor_ring_untouched(catalog):
    nl = load("xor_ring.blif")
    design = map_ftl(nl, catalog=catalog)
    assert design.instances == []
    assert verify_equivalence(nl, design).equivalent


def test_corrupted_weight_diverges(catalog):
    """A cell wrong at one minterm (a b c d e = 11000, where F115 is 1)
    diverges, and the report names its register."""
    nl = load("f115_nandinv.blif")
    design = flip_minterms(map_ftl(nl, catalog=catalog), [3])
    report = verify_equivalence(nl, design)
    assert not report.equivalent
    assert report.first_divergence[1] == "fq"


def reference_report(original, design, cycles=64, seed=0):
    """(equivalent, cycles_checked, first_divergence) from scalar steps:
    one stimulus draw per call, then one sweep pattern at a time."""
    watch = sorted(set(original.latches) | set(original.outputs))

    def diverges(cycle, va, sa, vb, sb):
        return next(((cycle, s) for s in watch
                     if sa.get(s, va.get(s)) != sb.get(s, vb.get(s))), None)

    order_o, order_m = original.topo_order(), design.netlist.topo_order()

    def both(pi_values, so, sm):
        return (*scalar_step(original, order_o, pi_values, so),
                *scalar_step(design.netlist, order_m, pi_values, sm,
                             design.instances))

    pis = original.inputs
    rng = np.random.default_rng(seed)
    so, sm, checked = {}, {}, 0
    for cycle in range(cycles):
        pi_values = {pi: int(rng.integers(0, 2)) for pi in pis}
        vo, so, vm, sm = both(pi_values, so, sm)
        checked += 1
        if div := diverges(cycle, vo, so, vm, sm):
            return False, checked, div
    for m in range(1 << len(pis)) if len(pis) <= 10 else ():
        pi_values = {pi: (m >> i) & 1 for i, pi in enumerate(pis)}
        checked += 1
        if div := diverges(cycles + m, *both(pi_values, {}, {})):
            return False, checked, div
    return True, checked, None


def flip_minterms(design, flips):
    """The design with instance i's cone function flipped at minterm
    flips[i] (None leaves it alone)."""
    instances = [inst if m is None else replace(
        inst, function=TruthTable(inst.function.n,
                                  inst.function.bits ^ (1 << m)))
        for inst, m in zip(design.instances, flips)]
    return replace(design, instances=instances)


def feedback_design(seed, n_pis):
    """Four latches over n_pis PIs, each cone reading latches back: q0 and
    q1 behind a seeded chain of four AND/OR gates (threshold, so each maps
    to a cell), r0 and r1 behind one XOR (never mapped); a seeded two of
    the four reset to 1."""
    rng = np.random.default_rng(seed)
    pis = [f"p{i}" for i in range(n_pis)]
    regs = ["q0", "q1", "r0", "r1"]
    init1 = rng.choice(4, 2, replace=False)
    lines = [f".model fb{seed}", ".inputs " + " ".join(pis), ".outputs y"]
    for j, q in enumerate(regs):
        if q.startswith("q"):
            prev, *rest = rng.choice(pis + regs, 5, replace=False)
            for k, x in enumerate(rest):
                lines += [f".names {prev} {x} {q}g{k}",
                          ("11 1", "1- 1\n-1 1")[rng.integers(2)]]
                prev = f"{q}g{k}"
        else:
            a, b = rng.choice(pis + regs, 2, replace=False)
            prev = f"{q}x"
            lines += [f".names {a} {b} {prev}", "10 1", "01 1"]
        lines.append(f".latch {prev} {q} re clk {int(j in init1)}")
    lines += [".names q0 r0 p0 y", "100 1", "010 1", "001 1", "111 1", ".end"]
    return parse_blif("\n".join(lines) + "\n")


def test_verdicts_match_per_call_step(catalog, monkeypatch):
    cases = []
    for name in ("fig2_hybrid.blif", "f115_nandinv.blif", "xor_ring.blif"):
        nl = load(name)
        cases.append((nl, map_ftl(nl, catalog=catalog)))
    nl = load("f115_nandinv.blif")
    cases.append((nl, flip_minterms(map_ftl(nl, catalog=catalog), [3])))
    # A reset-to-1 register read by an output: the mapped cell resets to 0,
    # so the designs diverge at the first cycle with a = 1.
    text = Path(f"{CORPUS}/f115_nandinv.blif").read_text()
    text = text.replace(".outputs fq", ".outputs fq y").replace(
        ".latch f fq re clk 0", ".latch f fq re clk 1\n.names fq a y\n11 1")
    nl = parse_blif(text)
    cases.append((nl, map_ftl(nl, catalog=catalog)))
    assert len(cases[-1][1].instances) == 1
    # A PI read through an inverter: the cell takes that leaf complemented.
    text = Path(f"{CORPUS}/f115_nandinv.blif").read_text().replace(
        ".inputs a ", ".inputs an ").replace(".end", ".names an a\n0 1\n.end")
    nl = parse_blif(text)
    design = map_ftl(nl, catalog=catalog)
    assert " pol=1 " in export_mapped_blif(design)
    cases.append((nl, design))
    # fig2_hybrid's cells: fq = MAJ(c1, c2, p5), gq = MAJ(c2, p5, p6), with
    # c1 = p1 + p2 and c2 = p3 p4; sweep pattern m sets p_i to bit i-1.
    nl = load("fig2_hybrid.blif")
    design = map_ftl(nl, catalog=catalog)
    # fq wrong at c1 c2 p5 = 111 (first at pattern 29), gq at c2 p5 p6 =
    # 110 (pattern 28): the lower pattern wins over the earlier signal.
    cases.append((nl, flip_minterms(design, [7, 3])))
    # fq wrong at c1 c2 p5 = 011, also pattern 28: the tie goes to fq.
    cases.append((nl, flip_minterms(design, [6, 3])))
    # Latch feedback, two reset-to-1 latches and a cell flipped at a seeded
    # minterm; 10 and 11 PIs lie on either side of the sweep's limit.
    for seed, n_pis in enumerate((3, 5, 10, 11)):
        nl = feedback_design(seed, n_pis)
        design = map_ftl(nl, catalog=catalog)
        assert [inst.q for inst in design.instances] == ["q0", "q1"]
        m = int(np.random.default_rng(seed).integers(32))
        cases += [(nl, design), (nl, flip_minterms(design, [m, None]))]
    # One case per proof condition broken: a residual gate's table (co, a
    # buffer, becomes an inverter), the reset of a residual latch that the
    # output y reads, and a cell whose leaves no longer cut its cone (a
    # dropped, the cell taking the a = 1 cofactor b + c + d + e).
    nl = load("fig2_hybrid.blif")
    design = copy.deepcopy(map_ftl(nl, catalog=catalog))
    design.netlist.gates["co"].table = TruthTable(1, 0b01)
    cases.append((nl, design))
    nl = feedback_design(0, 3)
    design = copy.deepcopy(map_ftl(nl, catalog=catalog))
    design.netlist.latches["r0"].init ^= 1
    cases.append((nl, design))
    nl = load("f115_nandinv.blif")
    design = map_ftl(nl, catalog=catalog)
    [inst] = design.instances
    assert inst.leaves == tuple("abcde")
    cofactor = sum(inst.function.value(2 * m + 1) << m for m in range(16))
    cases.append((nl, replace(design, instances=[replace(
        inst, leaves=inst.leaves[1:], function=TruthTable(4, cofactor))])))
    # With no random cycle every divergence is found by the sweep.
    for nl, design in cases:
        for cycles in (0, 1, 5, 64, 65):
            monkeypatch.setattr(mapping, "RANDOM_CYCLES", cycles)
            for seed in (0, 5):
                report = verify_equivalence(nl, design, stimuli_seed=seed)
                assert (report.equivalent, report.cycles_checked,
                        report.first_divergence) == \
                    reference_report(nl, design, cycles, seed), nl.model
    assert [reference_report(*case)[0] for case in cases] == \
        [True, True, True, False, False, True, False, False] + \
        [True, False, True, False, True, False, False, False] + \
        [False, False, False]
    # Proved: the unaltered mappings whose replaced latches all reset to 0.
    # The reset-to-1 case and feedback seeds 1-3 each replace a reset-to-1
    # latch; co-simulation passes seeds 1 and 2 all the same.
    assert [verify_equivalence(*case).proved for case in cases] == \
        [True, True, True, False, False, True, False, False] + \
        [True, False, False, False, False, False, False, False] + \
        [False, False, False]
    monkeypatch.setattr(mapping, "RANDOM_CYCLES", 0)
    assert [verify_equivalence(nl, design).first_divergence
            for nl, design in cases[6:8]] == [(28, "gq"), (28, "fq")]


def test_proof_needs_no_simulation(catalog, monkeypatch):
    """A corpus mapping is proved by register correspondence alone: with
    Netlist.step raising, each still gives the per-call reference report."""
    def step(*args, **kwargs):
        raise AssertionError("Netlist.step called")
    monkeypatch.setattr(Netlist, "step", step)
    for name in ("fig2_hybrid.blif", "f115_nandinv.blif", "xor_ring.blif"):
        nl = load(name)
        design = map_ftl(nl, catalog=catalog)
        report = verify_equivalence(nl, design)
        assert report.proved, name
        assert (report.equivalent, report.cycles_checked,
                report.first_divergence) == reference_report(nl, design)


def test_cosimulation_rejects_registers_or_pis_not_the_originals(catalog):
    """Co-simulation compares both designs register by register and output
    by output, so the mapped design's registers, PIs and outputs must be
    the original's, every net it reads must be driven, and its gates must
    not loop: an extra latch, a foreign design, a renamed PI, a dropped
    output, an undriven output, an undriven gate input and a gate reading
    itself each raise, naming the net."""
    nl = load("f115_nandinv.blif")
    design = map_ftl(nl, catalog=catalog)
    extra = copy.deepcopy(design)
    extra.netlist.latches["zq"] = Latch("a", "zq", "clk", 1)
    hybrid = load("fig2_hybrid.blif")
    foreign = map_ftl(hybrid, catalog=catalog)
    renamed = replace(design, netlist=replace(
        design.netlist, inputs=["zz", *design.netlist.inputs[1:]]))
    no_co = copy.deepcopy(foreign)
    del no_co.netlist.gates["co"]
    no_co.netlist.outputs.remove("co")
    undriven = []
    for gate in ("co", "co_n"):
        undriven.append(copy.deepcopy(foreign))
        del undriven[-1].netlist.gates[gate]
    loop = copy.deepcopy(foreign)
    loop.netlist.gates["co"] = Gate("co", ["co_n", "co"],
                                    TruthTable(2, 0b1000))
    for original, bad, net in ((nl, extra, "zq"), (nl, foreign, "gq"),
                               (nl, renamed, "a"), (hybrid, no_co, "co"),
                               (hybrid, undriven[0], "co"),
                               (hybrid, undriven[1], "co_n"),
                               (hybrid, loop, "co")):
        with pytest.raises(ValueError, match=f"'{net}'"):
            verify_equivalence(original, bad)
    assert verify_equivalence(nl, design).equivalent
    assert verify_equivalence(hybrid, foreign).equivalent


def test_cosimulation_stops_once_states_correspond(catalog, monkeypatch):
    """f115_nandinv with its latch reset to 1 is kept from the proof only by
    the resets, and its cone reads no register, so both designs are in one
    state after cycle 0: the random phase stops there, and one scalar step
    per design plus one sweep step per design give the reference report."""
    calls = []
    step = Netlist.step

    def counted(*args, **kwargs):
        calls.append(args)
        return step(*args, **kwargs)
    monkeypatch.setattr(Netlist, "step", counted)
    nl = parse_blif(Path(f"{CORPUS}/f115_nandinv.blif").read_text().replace(
        ".latch f fq re clk 0", ".latch f fq re clk 1"))
    design = map_ftl(nl, catalog=catalog)
    report = verify_equivalence(nl, design)
    assert not report.proved
    assert (report.equivalent, report.cycles_checked,
            report.first_divergence) == reference_report(nl, design)
    assert len(calls) == 4


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_residual_reset_difference_diverges_at_cycle_0(catalog):
    """xor_ring maps to itself; with its latch xq, also its output, reset
    to 1 the designs differ at cycle 0, where xq reads 1 against 0.
    Comparing a register by its next state alone misses that."""
    nl = load("xor_ring.blif")
    design = copy.deepcopy(map_ftl(nl, catalog=catalog))
    design.netlist.latches["xq"].init = 1
    report = verify_equivalence(nl, design)
    assert not report.equivalent
    assert report.first_divergence == (0, "xq")


@pytest.mark.parametrize("seed", range(5))
def test_stimulus_matrix_equals_per_call_stream(seed):
    """One integers() call for the whole [cycles, PIs] matrix draws the
    stream that one call per stimulus bit draws."""
    for n_pis in range(1, 11):
        rng = np.random.default_rng(seed)
        per_call = [[int(rng.integers(0, 2)) for _ in range(n_pis)]
                    for _ in range(64)]
        matrix = np.random.default_rng(seed).integers(0, 2, size=(64, n_pis))
        assert matrix.tolist() == per_call, n_pis
        bits = mapping._stimulus_bits(seed)
        assert [[next(bits) for _ in range(n_pis)] for _ in range(64)] == \
            per_call, n_pis


@pytest.mark.parametrize("seed", [*range(50), 2**32 - 1, 2**32, 2**40 + 7,
                                  2**64 + 3, 2**95, 2**127 + 5, 2**200 + 11])
def test_stimulus_bits_equal_numpy_matrix(seed):
    """verify_equivalence's stimuli, drawn without numpy.random, are the
    rows numpy draws, at every width; seeds of 2^96 and up hash more than
    the pool's four words."""
    for n_pis in (*range(12), 33):
        bits = mapping._stimulus_bits(seed)
        rows = [[next(bits) for _ in range(n_pis)] for _ in range(64)]
        assert rows == np.random.default_rng(seed).integers(
            0, 2, size=(64, n_pis)).tolist(), n_pis


def test_negative_seed_raises_once_cosimulated(catalog):
    nl = load("f115_nandinv.blif")
    assert verify_equivalence(nl, map_ftl(nl, catalog=catalog),
                              stimuli_seed=-1).proved
    nl = parse_blif(Path(CORPUS, "f115_nandinv.blif").read_text().replace(
        ".latch f fq re clk 0", ".latch f fq re clk 1"))
    with pytest.raises(ValueError):
        verify_equivalence(nl, map_ftl(nl, catalog=catalog), stimuli_seed=-1)


def test_cosimulation_leaves_numpy_random_unloaded():
    """A co-simulated design, f115_nandinv with its latch reset to 1, is
    checked in a fresh interpreter without loading numpy.random."""
    script = f"""if True:
        import sys
        from pathlib import Path
        from ftl.mapping import map_ftl, verify_equivalence
        from ftl.netlist import parse_blif
        nl = parse_blif(Path({CORPUS!r}, "f115_nandinv.blif").read_text()
                        .replace(".latch f fq re clk 0", ".latch f fq re clk 1"))
        report = verify_equivalence(nl, map_ftl(nl))
        print(report.proved, report.equivalent, "numpy.random" in sys.modules)
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["False", "True", "False"]


# A leaf's fan-in re-enters the cone: cut {a, b, l} of d has cone {d, g},
# and g stays live through the leaf l = g | c.  The dangling gate z is
# unreferenced before any replacement.
REENTER = """.model reenter
.inputs a b c
.outputs o
.names a b g
11 1
.names g c l
1- 1
-1 1
.names g l d
11 1
.names b c e
11 1
.names a z
0 1
.names e p o
1- 1
-1 1
.latch d q re clk 0
.latch e p re clk 0
.end
"""


def reader_of(net):
    """f115_nandinv plus a dangling gate zz that reads net, which lies
    inside the latch's cone."""
    text = Path(f"{CORPUS}/f115_nandinv.blif").read_text()
    return text.replace(".latch", f".names {net} zz\n1 1\n.latch")


# A reconvergent cone in which u reads t twice: t has three readers in
# d's cone, and a fourth (a placed cell's leaf) holds it live.
TWICE = """.model twice
.inputs a b c
.outputs q
.names a b t
11 1
.names t t u
11 1
.names u c v
1- 1
-1 1
.names t v d
11 1
.latch d q re clk 0
.end
"""

# p's cell takes x = ab as a leaf, so q's cone (ab + c + d)e must keep x:
# then no cut of it saves area.
SHARED = """.model shared
.inputs a b c d e
.outputs p q
.names a b x
11 1
.names x c g1
11 1
.names g1 d g2
11 1
.names g2 e g3
11 1
.names g3 d pd
11 1
.latch pd p re clk 0
.names x c h1
1- 1
-1 1
.names h1 d h2
1- 1
-1 1
.names h2 e qd
11 1
.latch qd q re clk 0
.end
"""

# Cut {c, d, u} saves the three AND3s; the larger cut {a, b, c, d} saves
# u = ab as well, so it wins.
DEEPER = """.model deeper
.inputs a b c d
.outputs q
.names a b u
11 1
.names u c d t1
111 1
.names t1 c d t2
111 1
.names t2 u c t3
111 1
.latch t3 q re clk 0
.end
"""

# na = !a is read by p's cone and by q's.  p's cone (!a b c d + e) alone
# pays for a cell, whose best cut {a, b, c, d, e} keeps na for q.  q's
# cone (!a b c d e) pays only once na's one other reader is gone: a bound
# taken from the counts before p's cell would skip q.
UNSHARED = """.model unshared
.inputs a b c d e
.outputs p q
.names a na
0 1
.names na b r1
11 1
.names r1 c r2
11 1
.names r2 d r3
11 1
.names r3 e pd
1- 1
-1 1
.latch pd p re clk 0
.names na c s1
11 1
.names s1 d e s2
111 1
.names s2 b qd
11 1
.latch qd q re clk 0
.end
"""

DESIGNS = {"reenter": REENTER, "nb_reader": reader_of("nb"),
           "t1_reader": reader_of("t1"), "twice": TWICE,
           "nb_output": Path(CORPUS, "f115_nandinv.blif").read_text().replace(
               ".outputs fq", ".outputs fq nb"),
           "shared": SHARED, "deeper": DEEPER, "unshared": UNSHARED}
NAMES = ["fig2_hybrid.blif", "f115_nandinv.blif", "xor_ring.blif", *DESIGNS]


def design(name):
    return parse_blif(DESIGNS[name]) if name in DESIGNS else load(name)


@pytest.mark.parametrize("name", NAMES)
def test_cuts_equal_recursive_reference(name):
    """The one bottom-up pass gives the recursive enumeration's cut list,
    in the same order, for every latch cone and width."""
    nl = design(name)
    for latch in nl.latches.values():
        for k in range(1, 7):
            assert enumerate_cuts(nl, latch.d, k) == reference_cuts(
                nl, latch.d, k), (latch.q, k)


@pytest.mark.parametrize("name", NAMES)
def test_per_latch_dead_set_equals_whole_netlist_walk(name):
    """Dereferencing from the latch's data input gives the set the
    whole-netlist liveness walks give, for every cut, with and without
    kept leaves."""
    nl = design(name)
    checked = 0
    for q, latch in sorted(nl.latches.items()):
        cuts = enumerate_cuts(nl, latch.d, 5)
        for kept in (set(), set(cuts[-1])):
            refs = refs_of(nl, kept)
            for leaves in cuts:
                dead = mapping._dead_gates(nl, refs, latch.d, leaves)
                assert len(dead) == len(set(dead))
                assert set(dead) == dead_gates_walk(
                    nl, kept, leaves, q), (q, kept, leaves)
                checked += 1
    assert checked

    def dead_of(q, leaves, kept=()):
        return set(mapping._dead_gates(nl, refs_of(nl, kept),
                                       nl.latches[q].d, leaves))
    if name == "reenter":  # z dangles already: not part of any cone
        assert dead_of("q", ("a", "b", "l")) == {"d"}
    if name == "nb_reader":  # zz holds nb live, but not nc, nd or ne
        assert dead_of("fq", tuple("abcde")) == {"nc", "nd", "ne", "t1",
                                                 "t2", "f"}
    if name == "twice":  # u's two reads of t are two references
        assert dead_of("q", ("a", "b", "c")) == {"d", "v", "u", "t"}
        assert dead_of("q", ("a", "b", "c"), {"t"}) == {"d", "v", "u"}


@pytest.mark.parametrize("name", [*NAMES, "const_cone", "feedback"])
def test_map_equals_exhaustive_reference(catalog, name):
    """Checking cuts in score order until one is a threshold function
    picks what checking every cut and taking the minimum key picks: the
    same instances, residual netlist and cost summary."""
    if name == "feedback":
        nls = [feedback_design(seed, n_pis)
               for seed, n_pis in enumerate((3, 5, 10, 11))]
    else:
        nls = [parse_blif(CONST_CONE) if name == "const_cone" else design(name)]
    for nl in nls:
        assert map_ftl(nl, catalog=catalog) == reference_map(
            nl, catalog=catalog), nl.model


def test_mapper_stops_at_first_threshold_cut(catalog, monkeypatch):
    """Cuts are threshold-checked in score order only until one passes:
    f115's best cut is F115 itself, fig2_hybrid's two latches each take
    their first, and no cut of xor_ring saves area."""
    calls = Counter()

    def counted(tt):
        calls[name] += 1
        return check_threshold(tt)
    monkeypatch.setattr(mapping, "check_threshold", counted)
    names = ("f115_nandinv", "fig2_hybrid", "xor_ring")
    for name in names:
        map_ftl(load(f"{name}.blif"), catalog=catalog)
    assert [calls[name] for name in names] == [1, 2, 0]


def test_mapper_enumerates_only_cones_that_pay(catalog, monkeypatch):
    """Cuts are enumerated only for a latch whose whole fanout-free cone
    saves more than a cell costs: f115's cone and fig2_hybrid's two do,
    and xor_ring's one XOR2 does not."""
    calls = Counter()

    def counted(nl, root, k):
        calls[name] += 1
        return enumerate_cuts(nl, root, k)
    monkeypatch.setattr(mapping, "enumerate_cuts", counted)
    names = ("f115_nandinv", "fig2_hybrid", "xor_ring")
    for name in names:
        map_ftl(load(f"{name}.blif"), catalog=catalog)
    assert [calls[name] for name in names] == [1, 2, 0]


@pytest.mark.parametrize("name", NAMES)
def test_kept_refs_equal_a_recount_at_every_latch(catalog, monkeypatch, name):
    """At each latch's bound, the reference counts kept across placements
    equal a recount of the working netlist and the placed cells' leaves."""
    placed, bounds = [], []

    def cell(**fields):
        placed.append(inst := real_cell(**fields))
        return inst

    def dead_gates(nl, refs, root, leaves):
        if not leaves:
            bounds.append(root)
            assert refs == refs_of(nl, [x for i in placed for x in i.leaves])
        return real_dead_gates(nl, refs, root, leaves)
    real_cell, real_dead_gates = mapping.FtlInstance, mapping._dead_gates
    monkeypatch.setattr(mapping, "FtlInstance", cell)
    monkeypatch.setattr(mapping, "_dead_gates", dead_gates)
    nl = design(name)
    map_ftl(nl, catalog=catalog)
    assert len(bounds) == sum(l.d in nl.gates for l in nl.latches.values())


@pytest.mark.parametrize("net, replaced, removed", [("nb", 1, 7),
                                                    ("t1", 0, 0)])
def test_gate_read_by_a_dangling_gate_stays(catalog, net, replaced, removed):
    """A gate outside the latch's cone that reads into it (zz, read by
    nothing) is kept, so every net it reads stays driven; the rest of the
    cone still maps when that pays."""
    nl = parse_blif(reader_of(net))
    mapped = map_ftl(nl, catalog=catalog)
    assert len(mapped.instances) == replaced
    assert mapped.cost.cells_removed == removed
    res = mapped.netlist
    driven = set(res.inputs) | set(res.gates) | set(res.latches)
    driven.update(inst.q for inst in mapped.instances)
    read = set(res.outputs) | {l.d for l in res.latches.values()}
    read.update(x for g in res.gates.values() for x in g.inputs)
    read.update(x for inst in mapped.instances for x in inst.leaves)
    assert read <= driven
    assert {"zz", net} <= set(res.gates)
    assert verify_equivalence(nl, mapped).equivalent


def test_deep_chain_maps_without_recursion(catalog):
    """A 2,000-gate AND chain n_i = n_{i-1} & x_i into one latch: cut
    enumeration, cone simulation and the dead-gate walks are iterative,
    so depth is no limit; the last five inputs become one ftl5 cell."""
    depth = 2000
    lines = [".model chain",
             ".inputs " + " ".join(f"x{i}" for i in range(depth + 1)),
             ".outputs q"]
    prev = "x0"
    for i in range(1, depth + 1):
        lines += [f".names {prev} x{i} n{i}", "11 1"]
        prev = f"n{i}"
    lines += [f".latch {prev} q re clk 0", ".end"]
    nl = parse_blif("\n".join(lines) + "\n")
    mapped = map_ftl(nl, catalog=catalog)
    [inst] = mapped.instances
    assert inst.leaves == tuple(sorted(
        [f"n{depth - 4}", *(f"x{i}" for i in range(depth - 3, depth + 1))]))
    assert inst.function == TruthTable(5, 1 << 31)  # AND of the five
    assert mapped.cost.cells_removed == 5  # n_{depth-3..depth} and the latch
    assert verify_equivalence(nl, mapped) == \
        mapping.EquivalenceReport(True, 64, proved=True)
    # A cell forced to constant 0 is not proved, but 64 random cycles over
    # 2,001 PIs never set the latch input, so co-simulation passes it.
    const0 = replace(mapped, instances=[replace(
        inst, function=TruthTable(5, 0))])
    assert verify_equivalence(nl, const0) == \
        mapping.EquivalenceReport(True, 64, proved=False)


def test_dangling_gate_kept_and_not_counted(catalog):
    """A gate nothing references is no saving of the cut that replaces the
    cone: it stays in mapped.blif and out of cells_removed."""
    text = Path(f"{CORPUS}/f115_nandinv.blif").read_text()
    dangling = text.replace(".latch", ".names a z\n0 1\n.latch")
    plain = map_ftl(parse_blif(text), catalog=catalog)
    design = map_ftl(parse_blif(dangling), catalog=catalog)
    assert len(design.instances) == 1
    assert "z" in design.netlist.gates
    assert ".names a z" in export_mapped_blif(design)
    assert design.cost.cells_removed == plain.cost.cells_removed == 8
    assert (design.cost.area_before - design.cost.area_after
            == pytest.approx(plain.cost.area_before - plain.cost.area_after))


# A constant-1 cone over {a, b, c}: the cell realizes it with zero weights,
# and no catalog class names a constant.
CONST_CONE = """.model const_cone
.inputs a b c
.outputs q
.names a b n1
11 1
.names b c n2
11 1
.names n1 c n3
1- 1
-1 1
.names n2 a n4
10 1
.names n3 n4 n5
11 1
.names n5 b n6
01 1
.names n6 n4 n7
1- 1
-1 1
.names n7 c n8
11 1
.names n8 b n9
10 1
.names n9 a y
-- 1
.latch y q re clk 0
.end
"""


def test_constant_cone_maps_without_a_class(catalog):
    nl = parse_blif(CONST_CONE)
    design = map_ftl(nl, catalog=catalog)
    [inst] = design.instances
    assert inst.function.is_constant() and inst.catalog_index is None
    assert ".subckt ftl5 cat=-1 " in export_mapped_blif(design)
    assert verify_equivalence(nl, design).equivalent


def test_pruning_keeps_best_choice(catalog):
    # mapping must pick the depth-5 F115 cut over smaller feasible cuts
    design = map_ftl(load("f115_nandinv.blif"), catalog=catalog, k=5)
    assert len(design.instances[0].leaves) == 5


def test_export_blif_and_cost_csv(catalog):
    design = map_ftl(load("fig2_hybrid.blif"), catalog=catalog)
    text = export_mapped_blif(design)
    assert text.count(".subckt ftl5") == 2
    assert "cat=" in text and "pol=" in text
    buf = io.StringIO()
    write_cost_csv(design, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "cells_removed,cells_added,area_before,area_after,slack_delta"
    assert len(lines) == 2
