"""Threshold detection, minimal weights, separability counts, and catalog."""

import io
import itertools
import random

import numpy as np
import pytest

from ftl import threshold
from ftl.threshold import (ThresholdFunction, build_catalog, canonicalize_np,
                           check_threshold, class_name,
                           count_threshold_functions, f115_table,
                           write_catalog_csv)
from ftl.truthtable import (Polarity, TruthTable, apply_complements,
                            chow_parameters, parse_truth_table, permute_inputs,
                            to_positive_form, unateness)

from helpers import (asummability_witnesses, brute_canonical_np,
                     monotone_tables, permute_inputs_loop, realizes,
                     reference_catalog)

AND2 = parse_truth_table("8", 2)
XOR2 = parse_truth_table("6", 2)
XOR3 = parse_truth_table("96", 3)
MAJ3 = parse_truth_table("E8", 3)


def maj5_table():
    bits = 0
    for m in range(32):
        if bin(m).count("1") >= 3:
            bits |= 1 << m
    return TruthTable(5, bits)


def test_maj3_weights():
    tf = check_threshold(MAJ3)
    assert tf is not None
    assert (tf.weights, tf.threshold) == ((1, 1, 1), 2)


def test_maj5_weights():
    tf = check_threshold(maj5_table())
    assert (tf.weights, tf.threshold) == ((1, 1, 1, 1, 1), 3)


def test_f115_weights():
    tf = check_threshold(f115_table())
    assert (tf.weights, tf.threshold) == ((4, 1, 1, 1, 1), 5)


def test_f115_table_is_ab_ac_ad_ae():
    tt = f115_table()
    for m in range(32):
        a = m & 1
        expect = int(a and (m & 0b11110) != 0)
        assert tt.value(m) == expect


def test_xor_rejected():
    assert check_threshold(XOR2) is None
    assert check_threshold(XOR3) is None


def test_negative_weight_recovery():
    # f = a * !b: positive form AND2, so weights map back as (1, -1; T=0)
    tf = check_threshold(parse_truth_table("2", 2))
    assert tf is not None
    assert realizes(tf, parse_truth_table("2", 2))
    assert tf.weights[1] < 0


def test_soundness_exhaustive_n3():
    """Whenever a solution is returned it reproduces the table exactly."""
    for bits in range(256):
        tt = TruthTable(3, bits)
        tf = check_threshold(tt)
        if tf is not None:
            assert realizes(tf, tt)


def test_threshold_implies_unate_n3():
    for bits in range(256):
        tt = TruthTable(3, bits)
        if check_threshold(tt) is not None:
            assert Polarity.NONUNATE not in unateness(tt)


def test_minimality_by_lattice_scan_n3():
    """No integer solution with a strictly smaller weight sum exists."""
    rng = random.Random(11)
    tables = [TruthTable(3, bits) for bits in rng.sample(range(256), 40)]
    tables.append(MAJ3)
    for tt in tables:
        tf = check_threshold(tt)
        if tf is None:
            continue
        found_sum = sum(abs(w) for w in tf.weights)
        for ws in itertools.product(range(-4, 5), repeat=3):
            if sum(abs(w) for w in ws) >= found_sum:
                continue
            lo = sum(min(w, 0) for w in ws)
            hi = sum(max(w, 0) for w in ws)
            for t in range(lo, hi + 2):
                cand = ThresholdFunction(ws, t)
                assert not realizes(cand, tt), (tt.to_hex(), ws, t)


def test_count_n1():
    assert count_threshold_functions(1) == 4


def test_count_n2():
    assert count_threshold_functions(2) == 14


def test_count_n3():
    assert count_threshold_functions(3) == 104


def test_canonicalize_nor2_equals_and2_class():
    nor2 = parse_truth_table("1", 2)
    assert canonicalize_np(nor2) == canonicalize_np(AND2)


def test_canonicalize_maj3_symmetric():
    for perm in itertools.permutations(range(3)):
        assert canonicalize_np(permute_inputs(MAJ3, perm)) == canonicalize_np(MAJ3)


def random_threshold_table(rng, n):
    """A seeded signed-weight threshold table on n inputs; some inputs may
    go unused, and the table may be constant."""
    w = [rng.randint(-4, 4) for _ in range(n)]
    t = rng.randint(-n, 2 * n)
    return TruthTable(n, sum(1 << m for m in range(1 << n)
                             if sum(w[i] for i in range(n) if m >> i & 1) >= t))


def np_variant(rng, tt):
    """tt with its inputs permuted and complemented at random."""
    perm = tuple(rng.sample(range(tt.n), tt.n))
    return apply_complements(permute_inputs(tt, perm), rng.getrandbits(tt.n))


def test_canonicalize_idempotent_and_closed():
    rng = random.Random(5)
    seen = 0
    while seen < 60:
        tt = random_threshold_table(rng, rng.randint(1, 5))
        if tt.is_constant():
            continue
        canon = canonicalize_np(tt)
        assert canonicalize_np(canon) == canon
        assert canonicalize_np(np_variant(rng, tt)) == canon
        seen += 1


def test_canonicalize_matches_brute_force_every_table_n_le_4():
    """The Chow-order form is the smallest table over every permutation and
    complementation of each non-constant threshold table, on its support."""
    seen = 0
    for n in range(1, 5):
        for bits in range(1 << (1 << n)):
            tt = TruthTable(n, bits)
            if tt.is_constant() or check_threshold(tt) is None:
                continue
            assert canonicalize_np(tt) == brute_canonical_np(tt), tt
            seen += 1
    assert seen == 2004 - 8  # A000609 up to n = 4, less the constants


def test_canonicalize_catalog_variants_with_unused_inputs():
    """Seeded NP variants of every class, widened to 5 inputs where it has
    fewer, name their class, agree with the brute-force minimum, and have
    realizations that class_name maps to the class's."""
    rng = random.Random(17)
    for e in build_catalog(5):
        wide = TruthTable(5, sum(e.table.value(m % e.table.size) << m
                                 for m in range(32)))
        for tt in (np_variant(rng, e.table), np_variant(rng, wide)):
            assert canonicalize_np(tt) == e.table, (e.index, tt)
            assert brute_canonical_np(tt) == e.table, (e.index, tt)
            assert class_name(check_threshold(tt)) == e.function, (e.index, tt)


@pytest.mark.parametrize("tt", [
    XOR2,
    TruthTable(4, sum(1 << m for m in range(16)
                      if m & 3 == 3 or m & 12 == 12)),  # ab + cd: unate
    TruthTable(7, 1 << 127),  # AND7: above the solver's input limit
    TruthTable(3, 0),
    TruthTable(3, 0xFF),
], ids=["xor2", "ab+cd", "and7", "const0", "const1"])
def test_canonicalize_rejects_tables_without_a_class(tt):
    with pytest.raises(ValueError):
        canonicalize_np(tt)


def test_catalog_n2_has_three_classes():
    entries = build_catalog(2)
    assert len(entries) == 3


def test_catalog_n5_has_117_classes():
    entries = build_catalog(5)
    assert len(entries) == 117


def test_catalog_entries_verify_and_are_canonical():
    entries = build_catalog(4)
    for e in entries:
        assert realizes(e.function, e.table)
        assert canonicalize_np(e.table) == e.table
        assert not e.table.is_constant()


def test_catalog_indices_stable_and_sorted():
    entries = build_catalog(3)
    assert [e.index for e in entries] == list(range(len(entries)))
    keys = [(e.n, e.table.bits) for e in entries]
    assert keys == sorted(keys)


def test_catalog_csv_shape():
    buf = io.StringIO()
    write_catalog_csv(build_catalog(2), buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "index,n,canonical_hex,weights,threshold"
    assert len(lines) == 4


def reference_threshold(tt, bound=16):
    """The composition walk the solver must agree with, over signed weights:
    magnitudes in ascending (sum, lexicographic) order, first hit wins,
    threshold = largest offset score + 1 (the smallest onset score for a
    constant-1 table)."""
    n = tt.n
    mags = sorted(itertools.product(range(bound + 1), repeat=n),
                  key=lambda v: (sum(v), v))
    mags = np.asarray(mags, dtype=np.int64)
    minterms = np.asarray([[(m >> i) & 1 for i in range(n)]
                           for m in range(tt.size)], dtype=np.int64)
    on = np.asarray([bool(tt.value(m)) for m in range(tt.size)])
    best = None
    for signs in itertools.product((1, -1), repeat=n):
        scores = (mags * np.asarray(signs)) @ minterms.T
        min_on = scores[:, on].min(axis=1, initial=1 << 20)
        max_off = scores[:, ~on].max(axis=1, initial=-(1 << 20))
        hits = np.flatnonzero(min_on > max_off)
        if hits.size and (best is None or hits[0] < best[0]):
            i = int(hits[0])
            t = int(max_off[i]) + 1 if (~on).any() else int(min_on[i])
            best = (i, tuple(int(s * w) for s, w in zip(signs, mags[i])), t)
    return None if best is None else ThresholdFunction(best[1], best[2])


def test_matches_reference_walk_every_table_n_le_3():
    for n in (1, 2, 3):
        for bits in range(1 << (1 << n)):
            tt = TruthTable(n, bits)
            assert check_threshold(tt) == reference_threshold(tt), tt


def test_count_n4():
    assert count_threshold_functions(4) == 1882


A000609 = (2, 4, 14, 104, 1882, 94572, 15028134)  # indexed by input count


def test_count_matches_a000609():
    """The orbit sum over the capped tables reaches the known count of
    threshold functions, so no function of n <= 6 inputs is missing."""
    for n, known in enumerate(A000609):
        assert count_threshold_functions(n) == known, n


def test_capped_tables_equal_bound_16_tables():
    """Same tables, and for each the same W* and T."""
    for n in range(1, 7):
        assert threshold._sorted_tables(n, threshold._MAX_WEIGHT[n]) == \
            threshold._sorted_tables(n, 16), n


def test_equal_chow_inputs_get_equal_weights():
    """W* is constant on every group of equal Chow parameters, so it is the
    only minimum-sum realization in any input order and check_threshold can
    read it from the table."""
    for n in range(1, 7):
        for bits, (w, t) in threshold._sorted_tables(
                n, threshold._MAX_WEIGHT[n]).items():
            chow = chow_parameters(TruthTable(n, bits))
            assert chow == sorted(chow, reverse=True), (n, bits)
            for i in range(n - 1):
                if chow[i] == chow[i + 1]:
                    assert w[i] == w[i + 1], (n, bits, w, chow)


def test_sorted_tables_have_one_minimum_sum_realization():
    """No second non-increasing vector in the cap reaches a table at its
    smallest sum, whatever the threshold, and W* reaches it at T alone."""
    for n in range(1, 7):
        bound = threshold._MAX_WEIGHT[n]
        table = threshold._sorted_tables(n, bound)
        for bits, (w, t) in table.items():
            assert [realizes(ThresholdFunction(w, t + d), TruthTable(n, bits))
                    for d in (-1, 0, 1)] == [False, True, False], (n, bits)
        vectors = list(itertools.combinations_with_replacement(
            range(bound, -1, -1), n))
        scores = np.asarray(vectors) @ threshold._minterm_matrix(n).T
        place = np.uint64(1) << np.arange(1 << n, dtype=np.uint64)
        seen = {}
        for t in range(1, int(scores.max()) + 1):
            keys = (scores >= t).astype(np.uint64) @ place
            for v, bits in zip(vectors, keys.tolist()):
                if bits in table and sum(v) == sum(table[bits][0]):
                    seen.setdefault(bits, set()).add(v)
        assert set(seen) == set(table), n
        assert all(vs == {table[bits][0]} for bits, vs in seen.items()), n


def test_count_matches_exhaustive_scan_n_le_4():
    for n in range(1, 5):
        accepted = sum(check_threshold(TruthTable(n, bits)) is not None
                       for bits in range(1 << (1 << n)))
        assert accepted == count_threshold_functions(n), n


def table6(f):
    return TruthTable(6, sum(1 << m for m in range(64)
                             if f([(m >> i) & 1 for i in range(6)])))


def test_six_inputs():
    cone = check_threshold(table6(lambda x: x[0] and any(x[1:])))
    assert (cone.weights, cone.threshold) == ((5, 1, 1, 1, 1, 1), 6)
    at_least_4 = check_threshold(table6(lambda x: sum(x) >= 4))
    assert (at_least_4.weights, at_least_4.threshold) == ((1,) * 6, 4)
    assert check_threshold(
        table6(lambda x: x[0] & x[1] | x[2] & x[3] | x[4] & x[5])) is None


def test_catalog_entries_survive_np_transforms():
    """Every permuted and complemented copy of a catalog class is realized
    with the class's weight sum, by a realization that class_name maps to
    the class's."""
    rng = random.Random(3)
    for e in build_catalog(5):
        total = sum(abs(w) for w in e.function.weights)
        for _ in range(3):
            perm = tuple(rng.sample(range(e.n), e.n))
            tt = apply_complements(permute_inputs(e.table, perm),
                                   rng.getrandbits(e.n))
            tf = check_threshold(tt)
            assert tf is not None and realizes(tf, tt), (e.index, tt)
            assert sum(abs(w) for w in tf.weights) == total, (e.index, tt)
            assert class_name(tf) == e.function, (e.index, tt)


@pytest.mark.parametrize("n, functions, not_threshold", [
    (1, 3, 0), (2, 6, 0), (3, 20, 0), (4, 168, 18), (5, 7581, 4294)])
def test_witness_iff_not_threshold_every_monotone_function(n, functions,
                                                           not_threshold):
    """Every monotone table of n <= 5 inputs is not threshold exactly when
    two on-set and two off-set minterms have equal 0/1 sums (Elgot 1961),
    and every witness found is one: the sums agree input by input, and
    each minterm lies on its side."""
    tables = monotone_tables(n)
    assert len(tables) == functions  # the Dedekind numbers
    witnessed = 0
    for bits, witness in zip(tables, asummability_witnesses(n, tables)):
        tt = TruthTable(n, bits)
        assert (witness is None) == (check_threshold(tt) is not None), tt
        if witness is not None:
            u1, u2, v1, v2 = witness
            assert [tt.value(m) for m in witness] == [1, 1, 0, 0], tt
            assert all((u1 >> i & 1) + (u2 >> i & 1)
                       == (v1 >> i & 1) + (v2 >> i & 1) for i in range(n)), tt
            witnessed += 1
    assert witnessed == not_threshold


@pytest.mark.parametrize("n_max", range(1, 6))
def test_catalog_equals_detection(n_max):
    """The catalog read off the table's keys is the one detection gives:
    every key's NP class, realized by check_threshold."""
    assert build_catalog(n_max) == reference_catalog(n_max)


def test_catalog_lost_realization_raises(monkeypatch):
    """Any key whose threshold no longer realizes its table fails the
    catalog's check.  T - 1 never does, as T is the smallest that does."""
    for n_max in range(1, 6):
        keys = threshold._sorted_tables(n_max, threshold._MAX_WEIGHT[n_max])
        for bits, (w, t) in list(keys.items()):
            with monkeypatch.context() as m:
                m.setitem(keys, bits, (w, t - 1))
                with pytest.raises(RuntimeError,
                                   match="lost its realization"):
                    build_catalog(n_max)


# -- the table lookup against a scan of every composition at the minimum sum -

def compositions(total, parts, bound):
    """All vectors of `parts` ints in [0, bound] summing to `total`, in
    ascending lexicographic order."""
    if parts == 1:
        if total <= bound:
            yield (total,)
        return
    for first in range(max(0, total - bound * (parts - 1)),
                       min(bound, total) + 1):
        for rest in compositions(total - first, parts - 1, bound):
            yield (first,) + rest


def scan_reference(tt, bound=16):
    """The lexicographically first realization at the minimum sum, found by
    scanning every composition of sum(W*) in the original input order; the
    table gives only that sum, so the un-permuting is checked, not reused."""
    if Polarity.NONUNATE in unateness(tt):
        return None
    pos, mask = to_positive_form(tt)
    if pos.is_constant():
        return ThresholdFunction((0,) * tt.n, 1 - pos.value(0))
    used = [i for i, p in enumerate(unateness(pos)) if p is not Polarity.UNUSED]
    reduced = permute_inputs_loop(pos, used)
    chow = [sum(m >> i & 1 for m in reduced.onset()) for i in range(reduced.n)]
    order = tuple(sorted(range(reduced.n), key=lambda i: -chow[i]))
    found = threshold._sorted_tables(reduced.n, bound).get(
        permute_inputs_loop(reduced, order).bits)
    if found is None:
        return None
    total = sum(found[0])
    mm = threshold._minterm_matrix(reduced.n)
    on = np.array([bool(reduced.value(m)) for m in range(reduced.size)])
    vectors = compositions(total, reduced.n, bound)
    while batch := list(itertools.islice(vectors, 1 << 15)):
        scores = np.asarray(batch, dtype=np.int64) @ mm.T
        max_off = scores[:, ~on].max(axis=1)
        feasible = np.flatnonzero(scores[:, on].min(axis=1) > max_off)
        if feasible.size:
            weights = [0] * tt.n
            for i, w in zip(used, batch[int(feasible[0])]):
                weights[i] = -w if (mask >> i) & 1 else w
            t = int(max_off[feasible[0]]) + 1 + sum(min(w, 0) for w in weights)
            return ThresholdFunction(tuple(weights), t)
    raise AssertionError(f"{tt} has no weight-sum {total} realization")


def test_scan_matches_reference_on_catalog_variants():
    rng = random.Random(41)
    for e in build_catalog(5):
        for _ in range(3):
            perm = tuple(rng.sample(range(e.n), e.n))
            tt = apply_complements(permute_inputs(e.table, perm),
                                   rng.getrandbits(e.n))
            assert check_threshold(tt) == scan_reference(tt), (e.index, tt)


def test_scan_matches_reference_on_random_six_input_tables():
    rng = random.Random(43)
    for _ in range(50):
        w = [rng.randint(-7, 7) for _ in range(6)]
        t = rng.randint(-6, 12)
        tt = table6(lambda x: sum(wi for wi, xi in zip(w, x) if xi) >= t)
        assert check_threshold(tt) == scan_reference(tt), (w, t)
