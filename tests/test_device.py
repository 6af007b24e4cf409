"""Behavioral device model: conductances, decisions, delay, variation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from ftl.analysis import (SIGMA_GLOBAL, SIGMA_K, SIGMA_LOCAL, YIELD_BLOCK,
                          conductivity_map)
from ftl.device import (ALPHA, C_EFF, CLOCK_FREQ, DUTY, METASTABLE_EPS,
                        SWITCHING_ACTIVITY, VDD_MAX, DeviceParams, FtlCell,
                        VariationSample, _pcg64_seeds, branch_conductance,
                        conductances, evaluate, first_miss, input_sums,
                        minterm_checks, model_power, respond,
                        sample_variation, verify_cell, worst_case_delay)
from ftl.threshold import f115_table
from ftl.train import train
from ftl.truthtable import TruthTable, parse_truth_table
from helpers import reference_variation


def test_params_defaults():
    p = DeviceParams()
    assert p.vgate == p.vdd == 0.9
    assert p.vt_min == p.delta == 0.02
    assert p.vt_max == pytest.approx(0.88)


def test_params_validation():
    with pytest.raises(ValueError):
        DeviceParams(vdd=-1)
    with pytest.raises(ValueError, match="vdd"):
        DeviceParams(vdd=0.03)  # not > 2 * delta
    with pytest.raises(ValueError):
        DeviceParams(vgate=0.45)  # not > vdd/2
    # vgate ** ALPHA must be a finite float: inf, NaN and an overflow fail
    for vgate in (math.inf, math.nan, 1e300):
        with pytest.raises(ValueError, match="^vgate must be finite"):
            DeviceParams(vgate=vgate)


def test_conductance_cutoff():
    p = DeviceParams()
    assert branch_conductance(p.vgate, p) == 0.0
    assert branch_conductance(p.vgate + 0.2, p) == 0.0


def test_conductance_linear_case():
    p = DeviceParams()
    assert branch_conductance(0.0, p) == 0.9 ** 1.3


def test_conductance_monotone_in_vt():
    p = DeviceParams()
    assert branch_conductance(0.3, p) > branch_conductance(0.6, p)


def test_symmetric_cell_is_metastable():
    p = DeviceParams()
    cell = FtlCell(2, (0.45, 0.45), 0.45, 0.45, p)
    r = evaluate(cell, 0b01)  # one input on each side
    assert r.gap == pytest.approx(0.0, abs=1e-15)
    assert r.metastable
    assert math.isinf(r.delay)


def test_side_device_at_vdd_is_off():
    p = DeviceParams()
    on = FtlCell(1, (0.4,), 0.4, 0.4, p)
    off = FtlCell(1, (0.4,), p.vdd, 0.4, p)
    g_on = evaluate(on, 0b1).g_left
    g_off = evaluate(off, 0b1).g_left
    assert g_off == pytest.approx(g_on - branch_conductance(0.4, p))


def test_decision_symmetry_under_swap():
    p = DeviceParams()
    cell = FtlCell(3, (0.3, 0.5, 0.7), 0.6, 0.8, p)
    swapped = replace(cell, v_left=cell.v_right, v_right=cell.v_left)
    for m in range(8):
        a = evaluate(cell, m)
        b = evaluate(swapped, m ^ 0b111)
        assert a.g_left == pytest.approx(b.g_right)
        assert a.g_right == pytest.approx(b.g_left)


def test_lower_vt_never_hurts_left_network():
    p = DeviceParams()
    cell = FtlCell(3, (0.5, 0.5, 0.5), p.vdd, 0.5, p)
    lowered = replace(cell, vt=(0.4, 0.5, 0.5))
    m = 0b001  # input 1 is on -> left network
    assert evaluate(lowered, m).g_left >= evaluate(cell, m).g_left
    assert evaluate(lowered, m).g_right == evaluate(cell, m).g_right


def test_delay_gap_law():
    p = DeviceParams()
    cell = FtlCell(2, (0.3, 0.6), p.vdd, 0.6, p)
    results = [evaluate(cell, m) for m in range(4)]
    finite = [r for r in results if not r.metastable]
    for a in finite:
        for b in finite:
            if abs(a.gap) > abs(b.gap):
                assert a.delay < b.delay


def test_margin_handicaps_the_one_decision():
    p = DeviceParams()
    cell = FtlCell(1, (0.4,), p.vdd, 0.6, p)
    base = evaluate(cell, 0b1)
    assert base.y == 1
    big = base.gap + 0.01
    assert evaluate(cell, 0b1, margin=big).y == 0
    # margin does not enter the delay
    assert evaluate(cell, 0b1, margin=big).delay == pytest.approx(base.delay)


def test_minterm_range_checked():
    cell = FtlCell(2, (0.4, 0.4), 0.9, 0.4, DeviceParams())
    with pytest.raises(ValueError):
        evaluate(cell, 4)


def test_variation_identity_when_sigmas_zero():
    s = sample_variation(3, 0.0, 0.0, 0.0, seed=1, trial=9)
    assert s == VariationSample((0.0,) * 5)


def test_variation_deterministic():
    a = sample_variation(5, 0.02, 0.01, 0.05, seed=42, trial=1234)
    b = sample_variation(5, 0.02, 0.01, 0.05, seed=42, trial=1234)
    assert a == b
    c = sample_variation(5, 0.02, 0.01, 0.05, seed=42, trial=1235)
    assert a != c


def test_variation_rejects_negative_sigma():
    with pytest.raises(ValueError):
        sample_variation(2, -0.1, 0.0, 0.0, seed=0, trial=0)


@pytest.mark.parametrize("seed, trial", [(-1, 0), (0, -1), (0, 1 << 32),
                                         (-1, range(3)),
                                         (0, [5, 1 << 32])])
def test_variation_rejects_out_of_range_stream(seed, trial):
    with pytest.raises(ValueError):
        sample_variation(2, 0.0, 0.0, 0.0, seed, trial)


def test_stream_seeds_equal_seed_sequence():
    trials = np.array([0, 1, 4095, 4096, 2**32 - 1])
    for seed in (0, 1, 59_999, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 3):
        words = _pcg64_seeds(seed, trials)
        assert words.shape == (len(trials), 4) and words.dtype == np.uint64
        for t, row in zip(trials.tolist(), words):
            expect = np.random.SeedSequence((seed, t)).generate_state(
                4, np.uint64)
            assert np.array_equal(row, expect), (seed, t)


def test_seed_only_words_equal_seed_sequence():
    for seed in (0, 1, 2**32 - 1, 2**32, 2**95, 2**96, 2**127 + 5):
        expect = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert np.array_equal(_pcg64_seeds(seed), expect[None]), seed


@pytest.mark.parametrize("sigmas", [(0.02, 0.012, 0.05), (0.02, 0.0, 0.05),
                                    (0.0, 0.012, 0.0), (0.02, 0.012, 0.0),
                                    (0.0, 0.0, 0.05), (0.0, 0.0, 0.0)])
def test_block_draw_equals_reference_stream(sigmas):
    for seed in (0, 2**32, 2**64 + 5):
        trials = [0, 1, 4095, 4096, 2**32 - 1]
        block = sample_variation(3, *sigmas, seed, trials)
        assert np.shape(block.local) == (5, len(trials))
        for col, t in enumerate(trials):
            ref = reference_variation(3, *sigmas, seed, t)
            assert sample_variation(3, *sigmas, seed, t) == ref
            assert VariationSample(tuple(block.local[:, col].tolist()),
                                   float(block.global_shift[col]),
                                   float(block.k_mult[col])) == ref


def test_variation_mean_near_zero():
    sigma = 0.02
    shifts = sample_variation(0, sigma, 0.0, 0.0, 0, range(50_000)).local
    assert abs(shifts.mean()) < 3 * sigma / math.sqrt(shifts.size)


def test_evaluate_no_sample_equals_identity_sample():
    p = DeviceParams()
    cell = FtlCell(2, (0.3, 0.6), p.vdd, 0.5, p)
    for m in range(4):
        a = evaluate(cell, m)
        b = evaluate(cell, m, sample=VariationSample((0.0,) * 4))
        assert a == b


def _reference_pair(cell, m, sample):
    """evaluate's conductance sum written out: an input shifts by
    vt + (global + local), a side device by (v + global) + local, and
    k_mult scales last."""
    p, g, local = cell.params, sample.global_shift, sample.local
    g_left = g_right = 0.0
    for i in range(cell.n):
        gi = branch_conductance(cell.vt[i] + (g + local[i]), p)
        if (m >> i) & 1:
            g_left += gi
        else:
            g_right += gi
    g_left += branch_conductance(cell.v_left + g + local[cell.n], p)
    g_right += branch_conductance(cell.v_right + g + local[cell.n + 1], p)
    return g_left * sample.k_mult, g_right * sample.k_mult


def _ascending(g, m, bit):
    """The sum of the g[i] with bit i of m equal to bit, added in
    ascending order of i from 0.0."""
    total = 0.0
    for i, gi in enumerate(g):
        if (m >> i) & 1 == bit:
            total += gi
    return total


@pytest.mark.parametrize("n", range(1, 7))
def test_input_sums_equal_ascending_loop(n):
    """Entry m of the doubled table is the ascending sum of the inputs at
    1 in m, and entry 2^n - 1 - m that of the inputs at 0, bit for bit,
    as a list and as a block of rows.  conductances is held to the same
    loop by test_conductances_equal_evaluate_bit_for_bit."""
    rng = np.random.default_rng(200 + n)
    full = (1 << n) - 1
    for c in range(10):
        g = rng.uniform(0.0, 1.2, (4, n)) * 10.0 ** rng.integers(-3, 1, n)
        block = input_sums(g, n)
        assert block.shape == (4, 1 << n)
        for row, gr in zip(block, g.tolist()):
            sums = input_sums(gr, n)
            for m in range(1 << n):
                assert sums[m] == row[m] == _ascending(gr, m, 1)
                assert sums[full ^ m] == _ascending(gr, m, 0)


@pytest.mark.parametrize("n", range(1, 7))
def test_input_sums_extend_a_kept_prefix(n):
    """The trainer's rebuild: after inputs k and up move, the first 2^k
    entries of the old list, extended, equal a full build bit for bit."""
    rng = np.random.default_rng(400 + n)
    for k in range(n + 1):
        g = rng.uniform(0.0, 1.2, n).tolist()
        old = input_sums(g, n)
        g[k:] = rng.uniform(0.0, 1.2, n - k).tolist()
        assert input_sums(g, n, old[:1 << k]) == input_sums(g, n)


@pytest.mark.parametrize("n", range(1, 7))
def test_conductances_equal_evaluate_bit_for_bit(n):
    """Every cell is also checked with a side device parked at vdd, and
    the wide draws push some inputs past cutoff (drive <= 0)."""
    rng = np.random.default_rng(n)
    p = DeviceParams()
    zero = VariationSample((0.0,) * (n + 2))
    cut_off = 0
    for c in range(10):
        vt = rng.uniform(p.vt_min, p.vt_max, n + 2)
        cells = [FtlCell(n, tuple(vt[:n]), vt[n], vt[n + 1], p),
                 FtlCell(n, tuple(vt[:n]), p.vdd, vt[n + 1], p),
                 FtlCell(n, tuple(vt[:n]), vt[n], p.vdd, p)]
        for sigmas in ((0.05, 0.03, 0.1), (0.3, 0.3, 0.1)):
            samples = [None] + [sample_variation(n, *sigmas, c, t)
                                for t in range(5)]
            block = sample_variation(n, *sigmas, c, range(5))
            cut_off += int((block.local[:n] + block.global_shift
                            + vt[:n, None] >= p.vgate).sum())
            for cell in cells:
                g_left, g_right = map(np.vstack, zip(conductances(cell),
                                                     conductances(cell,
                                                                  block)))
                assert g_left.shape == g_right.shape == (len(samples), 1 << n)
                for row, s in enumerate(samples):
                    for m in range(1 << n):
                        r = evaluate(cell, m, sample=s)
                        ref = _reference_pair(cell, m, s or zero)
                        assert (g_left[row, m], g_right[row, m]) == ref
                        assert (r.g_left, r.g_right) == ref
    assert cut_off > 0


def test_float_power_is_libm_pow():
    """The block kernel raises its drives to ALPHA with np.float_power,
    whose float64 loop calls libm pow, the pow of branch_conductance's **;
    the scalar and block kernels agree bit for bit only while this holds.
    np.power's SIMD loop can differ in the last bit, so a numpy that gave
    float_power one too fails here instead of moving the yields.  Drives:
    every device of a 5-input cell over a YIELD_BLOCK-trial block at the
    yield sigmas and at wide sigmas that reach cutoff, and the edges."""
    p = DeviceParams()
    vt = np.random.default_rng(32).uniform(p.vt_min, p.vt_max, (7, 1))
    drives = [np.array([0.0, 5e-324, 1.0, VDD_MAX, VDD_MAX - p.delta])]
    for sigmas in ((SIGMA_LOCAL, SIGMA_GLOBAL, SIGMA_K), (0.3, 0.3, 0.1)):
        block = sample_variation(5, *sigmas, 3, range(YIELD_BLOCK))
        shifted = vt + (block.global_shift + block.local)
        drives.append(np.maximum(p.vgate - shifted, 0.0).ravel())
    assert (drives[-1] == 0.0).any() and drives[-1].size == 7 * YIELD_BLOCK
    x = np.concatenate(drives)
    got = np.float_power(x, ALPHA)
    want = np.array([math.pow(d, ALPHA) for d in x.tolist()])
    bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert not bad.size, (
        f"numpy {np.__version__}: {bad.size} of {x.size} drives differ, "
        f"first float_power({x[bad[0]]!r}, ALPHA) = {got[bad[0]]!r}, "
        f"math.pow gives {want[bad[0]]!r}")


def test_respond_on_nominal_branches_equals_evaluate():
    """The trainer's path: branch conductances built once from the cell's
    Vts and their input sums, then one respond per minterm, reproduces
    evaluate exactly."""
    rng = np.random.default_rng(7)
    p = DeviceParams()
    for n in range(1, 7):
        vt = rng.uniform(p.vt_min, p.vt_max, n + 2)
        cell = FtlCell(n, tuple(vt[:n]), vt[n], vt[n + 1], p)
        g = [branch_conductance(v, p) for v in cell.all_vt()]
        sums = input_sums(g, n)
        for m in range(1 << n):
            for margin in (0.0, 0.01, -0.01):
                r = evaluate(cell, m, margin)
                assert respond(g, sums, m, margin) == (r.y, r.metastable,
                                                       r.g_left, r.g_right)


@pytest.mark.parametrize("n", range(1, 7))
def test_table_checks_equal_per_minterm_evaluate(n):
    rng = np.random.default_rng(100 + n)
    p = DeviceParams()
    for c in range(10):
        vt = rng.uniform(p.vt_min, p.vt_max, n + 2)
        cell = FtlCell(n, tuple(vt[:n]), vt[n], vt[n + 1], p)
        nominal = [evaluate(cell, m) for m in range(1 << n)]
        own = TruthTable(n, sum(r.y << m for m, r in enumerate(nominal)))
        for tt in (own, TruthTable(n, own.bits ^ 1)):
            for margin in (0.0, 0.01, 0.1):
                ok = True
                for m in range(tt.size):
                    r = evaluate(cell, m, margin if tt.value(m) else -margin)
                    ok = ok and not r.metastable and r.y == tt.value(m)
                assert verify_cell(cell, tt, margin) == ok
            assert worst_case_delay(cell, tt) == max(r.delay for r in nominal)
            static_g = np.mean([min(r.g_left, r.g_right) for r in nominal])
            assert model_power(cell, tt) == (
                SWITCHING_ACTIVITY * CLOCK_FREQ * C_EFF * p.vdd ** 2
                + p.vdd ** 2 * float(static_g) * DUTY)


def _zero_block(n, trials):
    """A variation block whose trials shift and scale nothing."""
    return VariationSample(np.zeros((n + 2, trials)), np.zeros(trials),
                           np.ones(trials))


@pytest.mark.parametrize("n", range(1, 7))
def test_scalar_checks_equal_block_kernel(n):
    """verify_cell and first_miss read the scalar list table;
    minterm_checks and conductances read the numpy block, and
    worst_case_delay its one nominal row.  On an all-zero variation block
    they must agree: on random cells, with each side device parked at vdd,
    with inputs past cutoff, and on a cell whose equal devices tie some
    minterms exactly (gap 0, metastable).
    At margin -METASTABLE_EPS the tied on-set minterms sit exactly on the
    metastable window's edge, outside it."""
    rng = np.random.default_rng(300 + n)
    p = DeviceParams()
    zero = _zero_block(n, 2)
    cells = []
    for c in range(10):
        vt = rng.uniform(p.vt_min, p.vt_max, n + 2)
        vt[:n][rng.random(n) < 0.25] = p.vgate + 0.05  # past cutoff
        cells += [FtlCell(n, tuple(vt[:n]), vt[n], vt[n + 1], p),
                  FtlCell(n, tuple(vt[:n]), p.vdd, vt[n + 1], p),
                  FtlCell(n, tuple(vt[:n]), vt[n], p.vdd, p)]
    # k equal inputs at 1 against n - k at 0 tie where k = n - k, or, with
    # the right side device off, where k + 1 = n - k.
    tie = FtlCell(n, (0.45,) * n, 0.45, p.vdd if n % 2 else 0.45, p)
    seen = set()
    for cell in cells + [tie]:
        gap = np.subtract(*conductances(cell, zero))
        assert (gap[0] == gap[1]).all()
        gap = gap[0]
        g = [branch_conductance(v, p) for v in cell.all_vt()]
        sums = input_sums(g, n)
        # Ties count as on-set: at margin -METASTABLE_EPS they clear the
        # want test, so only the metastable test can miss them there.
        own = TruthTable(n, sum(1 << m for m, x in enumerate(gap) if x >= 0))
        margins = (0.0, 0.01, 0.05) + ((-METASTABLE_EPS,) if cell is tie
                                       else ())
        for tt in (own, TruthTable(n, own.bits ^ 1)):
            miss, delay = minterm_checks(cell, tt, zero)
            assert (miss[0] == miss[1]).all()
            assert worst_case_delay(cell, tt) == delay[0] == delay[1]
            want = np.array(tt.values(), dtype=bool)
            for margin in margins:
                handicap = np.where(want, margin, -margin)
                ref = ((gap > handicap) != want) | (
                    np.abs(gap - handicap) < METASTABLE_EPS)
                if margin == 0.0:
                    assert (ref == miss[0]).all()
                ok = verify_cell(cell, tt, margin)
                assert ok == (not ref.any())
                seen.add((margin, ok))
                for start in range(tt.size):
                    later = np.flatnonzero(ref[start:])
                    expect = start + int(later[0]) if later.size else None
                    assert first_miss(g, sums, tt.values(), margin,
                                      start) == expect
    assert math.isinf(worst_case_delay(tie, own))
    assert not verify_cell(tie, own)
    assert (-METASTABLE_EPS, True) in seen
    assert {(m, ok) for m in (0.0, 0.01, 0.05) for ok in (True, False)} <= seen
    assert any(c.vt[i] > p.vgate for c in cells for i in range(n))


def _near(x, steps=2):
    """x and the `steps` floats on each side of it."""
    out = [x]
    for toward in (-math.inf, math.inf):
        y = x
        for _ in range(steps):
            y = math.nextafter(y, toward)
            out.append(y)
    return out


def test_first_miss_equals_respond_at_window_edges():
    """first_miss's one comparison per minterm against respond's two
    tests, where gap - handicap lands exactly on 0, -0.0 and +-EPS and on
    the floats next to them, at margins 0, -0.0, EPS, 0.01 and NaN, on
    the on-set and the off-set, from every start.  Each pair of
    complementary minterms m, 2^n - 1 - m holds one gap x and its
    negation: with the left side device at -0.0 and the right at 0.0,
    sums[m] - sums[2^n - 1 - m] is x, -0.0 included."""
    eps = METASTABLE_EPS
    signed = lambda x: (x, math.copysign(1, x))  # tells -0.0 from 0.0
    targets = [0.0, -0.0] + _near(eps) + _near(-eps) + _near(0.0)[1:]
    handicaps = (0.0, -0.0, eps, -eps, 0.01, -0.01)
    gaps = list({signed(x): x for h in handicaps for t in targets
                 for x in _near(h + t)}.values())
    n = (2 * len(gaps) - 1).bit_length()
    top = (1 << n) - 1
    sums = [0.0] * (1 << n)
    for m, x in enumerate(gaps):  # m < 2^(n-1), so top - m is its own
        if math.copysign(1, x) > 0:
            sums[m] = x
        else:
            sums[m], sums[top - m] = -0.0, -x
    g = [0.0] * n + [-0.0, 0.0]
    for m, x in enumerate(gaps):
        g_left, g_right = respond(g, sums, m)[2:]
        assert signed(g_left - g_right) == signed(x)
    rng = np.random.default_rng(0)
    mixes = [[1] * (1 << n), [0] * (1 << n)] + [
        rng.integers(0, 2, 1 << n).tolist() for _ in range(2)]
    landed = set()
    for margin in (0.0, -0.0, eps, 0.01, math.nan):
        for wants in mixes:
            misses = []
            for m, want in enumerate(wants):
                handicap = margin if want else -margin
                y, metastable, g_left, g_right = respond(g, sums, m, handicap)
                landed.add((want, *signed((g_left - g_right) - handicap)))
                misses.append(y != want or metastable)
            for start in range(len(wants) + 1):
                expect = next((m for m in range(start, len(wants))
                               if misses[m]), None)
                assert first_miss(g, sums, wants, margin, start) == expect
    # gap - handicap hits every edge exactly, on both sets.
    assert {(want, *signed(t)) for want in (0, 1) for t in targets} <= landed


@pytest.mark.parametrize("check", [
    worst_case_delay, model_power, conductivity_map,
    lambda cell, tt: minterm_checks(cell, tt, _zero_block(cell.n, 1))],
    ids=["worst_case_delay", "model_power", "conductivity_map",
         "minterm_checks"])
def test_table_of_other_width_is_rejected(check):
    """A 3-input table against a trained 5-input cell: every check that
    reads the cell's minterms names both input counts, and verify_cell
    reports the cell as not realizing the table."""
    cell = train(f115_table()).cell
    other = TruthTable(3, 0xE8)
    with pytest.raises(ValueError, match="has 3 inputs, cell has 5"):
        check(cell, other)
    assert not verify_cell(cell, other)


def test_metastable_minterm_fails_table_checks():
    p = DeviceParams()
    cell = FtlCell(2, (0.45, 0.45), 0.45, 0.45, p)
    decisions = TruthTable(2, sum(evaluate(cell, m).y << m for m in range(4)))
    assert evaluate(cell, 0b01).metastable
    assert not verify_cell(cell, decisions)
    assert math.isinf(worst_case_delay(cell, decisions))


def test_trained_f115_verifies_exhaustively():
    tt = f115_table()
    result = train(tt)
    assert result.converged
    assert verify_cell(result.cell, tt)
    for m in range(32):
        assert evaluate(result.cell, m).y == tt.value(m)


def test_worst_case_delay_is_max_over_minterms():
    tt = parse_truth_table("8", 2)
    cell = train(tt).cell
    delays = [evaluate(cell, m).delay for m in range(4)]
    assert worst_case_delay(cell, tt) == pytest.approx(max(delays))


def test_model_power_positive_and_scales_with_vdd():
    tt = f115_table()
    cell = train(tt).cell
    p_lo = model_power(cell, tt)
    hi = replace(cell, params=replace(cell.params, vdd=1.1, vgate=1.1))
    assert p_lo > 0
    assert model_power(hi, tt) > p_lo


# to_json of one cell at 0.9 V and at 1.0 V; kappa follows vdd and vgate.
CELL_JSON = {
    0.9: """{
  "n": 3,
  "vt": [
    0.3,
    0.45,
    0.6
  ],
  "v_left": 0.9,
  "v_right": 0.42,
  "params": {
    "vdd": 0.9,
    "vgate": 0.9,
    "delta": 0.02,
    "k_cond": 1.0,
    "alpha": 1.3,
    "tau0": 5e-11,
    "tau1": 5.145e-12,
    "kappa": 531211571704488.0
  }
}""",
    1.0: """{
  "n": 3,
  "vt": [
    0.3,
    0.45,
    0.6
  ],
  "v_left": 1.0,
  "v_right": 0.42,
  "params": {
    "vdd": 1.0,
    "vgate": 1.0,
    "delta": 0.02,
    "k_cond": 1.0,
    "alpha": 1.3,
    "tau0": 5e-11,
    "tau1": 5.145e-12,
    "kappa": 609189297267176.5
  }
}""",
}


def test_cell_json_matches_golden():
    for vdd, golden in CELL_JSON.items():
        p = DeviceParams(vdd=vdd)
        cell = FtlCell(3, (0.3, 0.45, 0.6), p.vdd, 0.42, p)
        assert cell.to_json() == golden
