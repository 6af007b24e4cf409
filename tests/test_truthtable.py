"""Truth-table representation, unateness, and polarity normalization."""

import random

import pytest

from ftl.truthtable import (Polarity, TruthTable, apply_complements,
                            chow_parameters, parse_truth_table, permute_inputs,
                            to_positive_form, unateness)

from helpers import permute_inputs_loop

AND2 = parse_truth_table("8", 2)
OR2 = parse_truth_table("E", 2)
XOR2 = parse_truth_table("6", 2)
MAJ3 = parse_truth_table("E8", 3)


def test_parse_and2():
    assert [AND2.value(m) for m in range(4)] == [0, 0, 0, 1]


def test_parse_xor2():
    assert [XOR2.value(m) for m in range(4)] == [0, 1, 1, 0]


def test_parse_maj3():
    assert AND2.n == 2
    assert [m for m in range(8) if MAJ3.value(m)] == [3, 5, 6, 7]


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_truth_table("100", 2)  # too many bits
    with pytest.raises(ValueError):
        parse_truth_table("g", 2)
    with pytest.raises(ValueError):
        parse_truth_table("4", 1)  # one digit, but n = 1 has 2 bits
    # int(_, 16) would take each of these.
    for spec, n in [("+f", 3), (" f", 3), ("f ", 3), ("1_00", 4),
                    ("0xff", 4), ("-001", 4), ("\u0663", 2)]:
        with pytest.raises(ValueError, match="^not a hex string"):
            parse_truth_table(spec, n)


def test_hex_round_trip():
    rng = random.Random(7)
    for n in range(1, 9):
        for _ in range(20):
            bits = rng.getrandbits(1 << n)
            tt = TruthTable(n, bits)
            assert parse_truth_table(tt.to_hex(), n) == tt


def test_onset_offset_partition():
    onset = MAJ3.onset()
    assert onset == sorted(set(onset))
    assert [m in onset for m in range(8)] == [bool(v) for v in MAJ3.values()]


def test_values_unpack_every_minterm():
    rng = random.Random(5)
    for n in range(1, 9):
        tt = TruthTable(n, rng.getrandbits(1 << n))
        assert tt.values() == [tt.value(m) for m in range(tt.size)]
    assert MAJ3.values() == [0, 0, 0, 1, 0, 1, 1, 1]


def test_unateness_and2():
    assert unateness(AND2) == [Polarity.POSITIVE, Polarity.POSITIVE]


def test_unateness_xor2():
    assert unateness(XOR2) == [Polarity.NONUNATE, Polarity.NONUNATE]


def test_unateness_a_and_not_b():
    # f = a * !b is table "2" on two inputs
    tt = parse_truth_table("2", 2)
    assert unateness(tt) == [Polarity.POSITIVE, Polarity.NEGATIVE]


def test_unateness_unused_variable():
    # f = a, with b unused
    tt = parse_truth_table("A", 2)
    assert unateness(tt) == [Polarity.POSITIVE, Polarity.UNUSED]


def test_cofactors_split():
    # AND2 split on x_1: f|x_1=0 is 0 and f|x_1=1 is b, so x_1 is positive.
    # Swapping the two cofactors gives !a*b (table "4"): x_1 turns negative.
    assert unateness(AND2)[0] is Polarity.POSITIVE
    assert unateness(parse_truth_table("4", 2)) == [Polarity.NEGATIVE,
                                                    Polarity.POSITIVE]


def test_positive_form_a_and_not_b():
    tt = parse_truth_table("2", 2)
    positive, mask = to_positive_form(tt)
    assert positive == AND2
    assert mask == 0b10  # b complemented


def test_positive_form_identity_for_and2():
    positive, mask = to_positive_form(AND2)
    assert positive == AND2
    assert mask == 0


def test_positive_form_nor2():
    nor2 = parse_truth_table("1", 2)
    positive, mask = to_positive_form(nor2)
    assert positive == AND2
    assert mask == 0b11


def test_positive_form_rejects_nonunate():
    with pytest.raises(ValueError):
        to_positive_form(XOR2)


def test_complement_mask_round_trip():
    rng = random.Random(3)
    seen = 0
    for n in range(1, 5):
        for bits in range(1 << (1 << n)):
            if n >= 3 and rng.random() > 0.02:
                continue
            tt = TruthTable(n, bits)
            if Polarity.NONUNATE in unateness(tt):
                continue
            positive, mask = to_positive_form(tt)
            assert apply_complements(positive, mask) == tt
            seen += 1
    assert seen > 50


def test_apply_complements_involution():
    tt = parse_truth_table("2", 2)
    assert apply_complements(apply_complements(tt, 0b01), 0b01) == tt


def test_permute_inputs_round_trip():
    perm = (2, 0, 1)
    inverse = tuple(perm.index(i) for i in range(3))
    assert permute_inputs(permute_inputs(MAJ3, perm), inverse) == MAJ3


# -- word-level operations against per-minterm reference loops ---------------

def reference_unateness(tt):
    out = []
    for i in range(tt.n):
        neg = pos = j = 0
        for m in range(tt.size):
            if (m >> i) & 1:
                continue
            neg |= tt.value(m) << j
            pos |= tt.value(m | (1 << i)) << j
            j += 1
        if neg == pos:
            out.append(Polarity.UNUSED)
        elif neg & ~pos == 0:
            out.append(Polarity.POSITIVE)
        elif pos & ~neg == 0:
            out.append(Polarity.NEGATIVE)
        else:
            out.append(Polarity.NONUNATE)
    return out


def reference_complements(tt, mask):
    return TruthTable(tt.n, sum(tt.value(m ^ mask) << m for m in range(tt.size)))


def reference_chow(tt):
    return [sum((m >> i) & 1 for m in tt.onset()) for i in range(tt.n)]


def word_level_cases():
    """Every table of n <= 3 with every mask, then seeded random tables of
    n = 4..8: uniform ones (nearly all non-unate) and signed-weight
    threshold ones (positive, negative and unused inputs)."""
    for n in (1, 2, 3):
        for bits in range(1 << (1 << n)):
            for mask in range(1 << n):
                yield TruthTable(n, bits), mask
    rng = random.Random(29)
    for n in range(4, 9):
        for _ in range(40):
            yield TruthTable(n, rng.getrandbits(1 << n)), rng.getrandbits(n)
            w = [rng.randint(-4, 4) for _ in range(n)]
            t = rng.randint(-n, 2 * n)
            bits = sum(1 << m for m in range(1 << n)
                       if sum(w[i] for i in range(n) if (m >> i) & 1) >= t)
            yield TruthTable(n, bits), rng.getrandbits(n)


def test_word_level_ops_match_per_minterm_loops():
    seen = set()
    for tt, mask in word_level_cases():
        pol = unateness(tt)
        assert pol == reference_unateness(tt), tt
        assert chow_parameters(tt) == reference_chow(tt), tt
        assert apply_complements(tt, mask) == reference_complements(tt, mask), \
            (tt, mask)
        seen.update(pol)
    assert seen == set(Polarity)


def test_permute_inputs_matches_per_minterm_loop():
    """Full and partial permutations, n = 1..8, including the identity."""
    rng = random.Random(31)
    for n in range(1, 9):
        for _ in range(60):
            tt = TruthTable(n, rng.getrandbits(1 << n))
            perm = tuple(rng.sample(range(n), rng.randint(1, n)))
            assert permute_inputs(tt, perm) == permute_inputs_loop(tt, perm), \
                (tt, perm)
        tt = TruthTable(n, rng.getrandbits(1 << n))
        assert permute_inputs(tt, tuple(range(n))) == tt
