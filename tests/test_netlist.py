"""BLIF parsing, cut enumeration, and cone function extraction."""

import numpy as np
import pytest

from ftl import netlist
from ftl.netlist import (Gate, Netlist, NetlistError, all_patterns,
                         cut_function, enumerate_cuts, parse_blif, write_blif)
from ftl.threshold import f115_table
from ftl.truthtable import TruthTable, parse_truth_table
from helpers import cone_walk, gate_eval, scalar_step

CORPUS = ("fig2_hybrid", "f115_nandinv", "xor_ring")

TWO_GATE = """\
.model two
.inputs a b c
.outputs y
.names a b t
11 1
.names t c y
1- 1
-1 1
.end
"""

LATCHED = """\
.model seq
.inputs a b
.outputs q
.names a b d
11 1
.latch d q re clk 0
.end
"""


def test_parse_two_gate_connectivity():
    nl = parse_blif(TWO_GATE)
    assert nl.inputs == ["a", "b", "c"]
    assert nl.outputs == ["y"]
    assert set(nl.gates) == {"t", "y"}
    assert nl.gates["t"].inputs == ["a", "b"]
    assert nl.gates["y"].inputs == ["t", "c"]
    # t = AND2, y = OR2
    assert nl.gates["t"].table == parse_truth_table("8", 2)
    assert nl.gates["y"].table == parse_truth_table("E", 2)


def test_parse_latch():
    nl = parse_blif(LATCHED)
    assert set(nl.latches) == {"q"}
    assert nl.latches["q"].d == "d"
    assert nl.latches["q"].init == 0


def test_parse_detects_loop():
    cyclic = """\
.model bad
.inputs a
.outputs y
.names a y x
11 1
.names x y
1 1
.end
"""
    with pytest.raises(NetlistError):
        parse_blif(cyclic)


def test_parse_rejects_double_driver():
    bad = """\
.model bad
.inputs a b
.outputs y
.names a y
1 1
.names b y
1 1
.end
"""
    with pytest.raises(NetlistError):
        parse_blif(bad)


def test_parse_rejects_unknown_directive():
    with pytest.raises(NetlistError):
        parse_blif(".model x\n.inputs a\n.outputs a\n.gate nand2\n.end\n")


def test_parse_rejects_undriven_net():
    bad = """\
.model bad
.inputs a
.outputs y
.names a ghost y
11 1
.end
"""
    with pytest.raises(NetlistError):
        parse_blif(bad)


def test_off_set_cover_and_dont_cares():
    nl = parse_blif("""\
.model f
.inputs a b
.outputs y
.names a b y
0- 0
-0 0
.end
""")
    assert nl.gates["y"].table == parse_truth_table("8", 2)


def test_write_parse_round_trip():
    nl = parse_blif(TWO_GATE)
    again = parse_blif(write_blif(nl))
    assert again.inputs == nl.inputs
    assert again.outputs == nl.outputs
    assert {g: (again.gates[g].inputs, again.gates[g].table)
            for g in again.gates} == \
           {g: (nl.gates[g].inputs, nl.gates[g].table) for g in nl.gates}


def test_eval_and_step():
    nl = parse_blif(LATCHED)
    nets, new_state = nl.step({"a": 1, "b": 1}, {"q": 0}, nl.program())
    assert nets["d"] == 1
    assert new_state["q"] == 1


# Asymmetric gates (a mux, an and-not) and a reset-to-1 latch.
MUX_LATCH = """\
.model mux
.inputs s a b
.outputs y q
.names s a b y
01- 1
1-1 1
.names y q d
10 1
.latch d q re clk 1
.end
"""


@pytest.mark.parametrize("name", CORPUS + ("mux_latch",))
def test_word_step_equals_scalar_steps(name):
    """A step over all 2^|PI| patterns at once gives, bit m of every net
    and next-state word, what a scalar step of pattern m gives: from reset
    and from one seeded random state."""
    nl = parse_blif(MUX_LATCH if name == "mux_latch" else
                    open(f"src/ftl/corpus/{name}.blif").read())
    ones, words = all_patterns(nl.inputs)
    assert ones == (1 << (1 << len(nl.inputs))) - 1
    rng = np.random.default_rng(0)
    drawn = {q: int(rng.integers(0, 2)) for q in sorted(nl.latches)}
    program, order = nl.program(), nl.topo_order()
    for state in ({}, drawn):
        values, nxt = nl.step(words, {q: v * ones for q, v in state.items()},
                              program, ones)
        for m in range(1 << len(nl.inputs)):
            pi_values = {x: (m >> i) & 1 for i, x in enumerate(nl.inputs)}
            want_values, want_next = scalar_step(nl, order, pi_values, state)
            assert {net: (w >> m) & 1 for net, w in values.items()} == \
                want_values, (name, m)
            assert {q: (w >> m) & 1 for q, w in nxt.items()} == want_next


def test_trivial_cut_only_for_pi_root():
    nl = parse_blif(TWO_GATE)
    cuts = enumerate_cuts(nl, "a")
    assert [c.leaves for c in cuts] == [("a",)]


def test_and2_cuts():
    nl = parse_blif(TWO_GATE)
    cuts = enumerate_cuts(nl, "t")
    assert {c.leaves for c in cuts} == {("t",), ("a", "b")}


def test_and4_tree_cut_found():
    tree = """\
.model and4
.inputs a b c d
.outputs y
.names a b t1
11 1
.names c d t2
11 1
.names t1 t2 y
11 1
.end
"""
    nl = parse_blif(tree)
    cuts = enumerate_cuts(nl, "y", k=4)
    assert ("a", "b", "c", "d") in {c.leaves for c in cuts}


def test_cut_feasibility_and_completeness():
    nl = parse_blif(TWO_GATE)
    for cut in enumerate_cuts(nl, "y", k=3):
        assert len(cut.leaves) <= 3
        # every leaf is outside the cone's gate set; every cone gate input
        # is either a leaf or driven inside the cone
        cone = cone_walk(nl, cut.root, cut.leaves)
        for g in cone:
            for src in nl.gates[g].inputs:
                assert src in cut.leaves or src in cone


def test_cut_function_and2():
    nl = parse_blif(TWO_GATE)
    cut = next(c for c in enumerate_cuts(nl, "t") if c.leaves == ("a", "b"))
    assert cut_function(nl, cut) == parse_truth_table("8", 2)


def test_cut_function_trivial_identity():
    nl = parse_blif(TWO_GATE)
    cut = enumerate_cuts(nl, "a")[0]
    tt = cut_function(nl, cut)
    assert tt.n == 1 and [tt.value(0), tt.value(1)] == [0, 1]


def test_f115_cone_function():
    text = open("src/ftl/corpus/f115_nandinv.blif").read()
    nl = parse_blif(text)
    root = nl.latches["fq"].d
    cuts = enumerate_cuts(nl, root, k=5)
    tables = {cut_function(nl, c).bits for c in cuts if len(c.leaves) == 5}
    assert f115_table().bits in tables


def test_cone_order_gives_whole_netlist_order_table():
    """cut_function sorts only the cone; every cut of every latch cone in
    the corpus gets the table a whole-netlist order gives."""
    checked = 0
    for name in CORPUS:
        nl = parse_blif(open(f"src/ftl/corpus/{name}.blif").read())
        whole = nl.topo_order()
        for latch in nl.latches.values():
            if latch.d not in nl.gates:
                continue
            for cut in enumerate_cuts(nl, latch.d, k=6):
                if cut.leaves == (cut.root,):
                    continue
                cone = cone_walk(nl, cut.root, cut.leaves)
                bits = 0
                for m in range(1 << len(cut.leaves)):
                    values = {leaf: (m >> i) & 1
                              for i, leaf in enumerate(cut.leaves)}
                    for net in whole:
                        if net in cone:
                            values[net] = gate_eval(nl.gates[net], values)
                    bits |= values[cut.root] << m
                assert cut_function(nl, cut).bits == bits, (name, cut.leaves)
                checked += 1
    assert checked > 20


def test_parse_rejects_bad_row_behind_full_row():
    """Every cover row is checked, also one after a row that already
    covers every minterm."""
    for row in ("1x 1", "111 1"):
        with pytest.raises(NetlistError):
            parse_blif(f".model f\n.inputs a b\n.outputs y\n.names a b y\n"
                       f"-- 1\n{row}\n.end\n")


def test_parse_continuation_and_trailing_comments():
    """A trailing backslash joins the next line that is not blank after
    comments are cut, across comment-only and blank lines; a `#` ends
    every line."""
    nl = parse_blif("""\
.model joined  # the name
.inputs a \\
  b  # second input
.outputs y
.names a b \\
# the output comes next

  y  # after a comment-only line and a blank line
11 1  # on-set row
.end
""")
    assert (nl.model, nl.inputs, nl.outputs) == ("joined", ["a", "b"], ["y"])
    assert nl.gates["y"].inputs == ["a", "b"]
    assert nl.gates["y"].table == parse_truth_table("8", 2)


@pytest.mark.parametrize("rows", ["", "1\n"], ids=["no-row", "one-row"])
def test_parse_rejects_zero_input_names(rows):
    """A constant .names is outside the subset, with or without a row."""
    with pytest.raises(NetlistError, match="constant .names for 'y'"):
        parse_blif(f".model c\n.inputs a\n.outputs y\n.names y\n{rows}.end\n")


def names(n_inputs, rows):
    """A design of one .names gate, y, over n_inputs PIs with rows."""
    ins = " ".join(f"x{i}" for i in range(n_inputs))
    return (f".model c\n.inputs {ins}\n.outputs y\n.names {ins} y\n"
            f"{rows}.end\n")


@pytest.mark.parametrize("cached, bad, message", [
    ("1-", (2, "1x 1\n"), "bad cover character 'x'"),
    ("1-1", (3, "1-1 1\n1x1 1\n"), "bad cover character 'x'"),
    ("111", (2, "111 1\n11 1\n"), "cover row '111' width mismatch"),
    ("00", (2, "11 1\n00 0\n"), "mixed on-set/off-set cover"),
    ("1" * 9, (9, "1" * 9 + " 1\n"), "9 inputs exceeds the supported width"),
    ("11", (2, "11 2\n"), "unsupported cover outputs"),
], ids=["bad-character", "bad-character-wider", "width", "mixed", "too-wide",
        "output"])
def test_cover_errors_after_cached_rows(cached, bad, message):
    """Each cover error keeps its message once the same row, or a valid
    one of the same width, is cached; a rejected row is never cached, so
    it is rejected again."""
    netlist._row_mask(cached)
    size = netlist._row_mask.cache_info().currsize
    for _ in range(2):
        with pytest.raises(NetlistError, match=message):
            parse_blif(names(*bad))
    assert netlist._row_mask.cache_info().currsize == size


def test_write_blif_rows_for_every_fanin():
    """An on-set row spells its minterm x_1 first, for fan-in 1..8 and
    every minterm; a zero-input gate's one row is the bare output."""
    for n in range(1, 9):
        ins = [f"x{i}" for i in range(n)]
        nl = Netlist(inputs=ins, outputs=["y"], gates={"y": Gate(
            "y", ins, TruthTable(n, (1 << (1 << n)) - 1))})
        rows = write_blif(nl).splitlines()[4:-1]
        assert rows == [f"{m:0{n}b}"[::-1] + " 1" for m in range(1 << n)], n
    nl = Netlist(outputs=["y"], gates={"y": Gate("y", [], TruthTable(1, 1))})
    assert write_blif(nl).splitlines()[3:] == [".names  y", " 1", ".end"]
