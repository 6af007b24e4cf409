"""The three benchmark workloads.

Each workload has a `setup(seed, root)` that builds its inputs, a timed
`run(inputs, rec)` that calls the library's public API in the order of the
CLI command it mirrors, and a `check(inputs, rec, tallies)` that re-checks
every result on the benchmark side and counts known defects in `tallies`.  Library functions are always looked up
through their module at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import random
from pathlib import Path
from time import perf_counter

import checks
import gen

CELL_LEVEL_BATCHES = 10
CELL_BATCH_TRIALS = 200
CELL_HIST_TRIALS = 1000
CRITERION5_BOTTOM_MAX = 0.90
CRITERION5_TOP_MIN = 0.99
CORPUS = ("fig2_hybrid", "f115_nandinv", "xor_ring")


class Unit:
    """One checked piece of work: an op (timed, counts toward latency) or
    a stage (a per-pass step such as building the catalog)."""

    __slots__ = ("uid", "is_op", "start", "end", "result", "texts", "error",
                 "failures")

    def __init__(self, uid, is_op):
        self.uid = uid
        self.is_op = is_op
        self.start = self.end = 0.0
        self.result = None
        self.texts: list[str] = []
        self.error = None
        self.failures: list[str] = []

    def digest(self) -> str:
        h = hashlib.sha256()
        for t in self.texts:
            h.update(t.encode())
            h.update(b"\0")
        return h.hexdigest()[:16]

    def fail(self, reason: str) -> None:
        if reason not in self.failures:
            self.failures.append(reason)


class Recorder:
    def __init__(self):
        self.units: list[Unit] = []
        self.by_id: dict[str, Unit] = {}

    def _do(self, uid, is_op, fn, *args):
        unit = Unit(uid, is_op)
        unit.start = perf_counter()
        try:
            unit.result, unit.texts = fn(*args)
        except Exception as e:  # an op that raises is a failed op
            unit.error = f"{type(e).__name__}: {e}"
            unit.fail("raised")
        unit.end = perf_counter()
        self.units.append(unit)
        self.by_id[uid] = unit
        return unit.result

    def op(self, uid, fn, *args):
        return self._do(uid, True, fn, *args)

    def stage(self, uid, fn, *args):
        return self._do(uid, False, fn, *args)

    def ok(self, uid) -> Unit | None:
        """The unit if it ran without raising, for the checks."""
        unit = self.by_id.get(uid)
        return unit if unit is not None and unit.error is None else None


def _csv(write, *args) -> str:
    buf = io.StringIO()
    write(*args, buf)
    return buf.getvalue()


def _ftl():
    # ftl.train is shadowed by the train function in the package namespace,
    # so modules are fetched by name.
    return {name: importlib.import_module(f"ftl.{name}") for name in
            ("analysis", "device", "mapping", "netlist", "program",
             "threshold", "train", "truthtable")}


# -- cell-yield ---------------------------------------------------------------

def cell_yield_setup(seed: int, root: Path) -> dict:
    """The inputs are F115 and the Monte Carlo seeds; every batch and the
    delay histogram get their own seed derived from the workload seed."""
    m = _ftl()
    mc_seeds = [[seed * 10_000 + level * 100 + b
                 for b in range(CELL_LEVEL_BATCHES)] for level in range(6)]
    return {"m": m, "seed": seed, "tt": m["threshold"].f115_table(),
            "mc_seeds": mc_seeds, "hist_seed": seed * 10_000 + 9_999,
            "size": f"6 levels x {CELL_LEVEL_BATCHES} batches x "
                    f"{CELL_BATCH_TRIALS} trials + {CELL_HIST_TRIALS} "
                    f"histogram trials"}


def cell_yield_run(inp: dict, rec: Recorder) -> None:
    m, tt = inp["m"], inp["tt"]
    an, dev, prog = m["analysis"], m["device"], m["program"]

    def schedule():
        levels = an.margin_schedule(tt)
        return levels, [f"{lv.margin:.3f} {lv.min_separation:.6e} "
                        f"{lv.delay:.6e}\n{lv.result.cell.to_json()}"
                        for lv in levels]

    def batch(cell, mc):
        rep = an.yield_mc(cell, tt, mc)
        return rep, [_csv(an.write_yield_csv, rep)]

    def conductivity(cell):
        cmap = an.conductivity_map(cell, tt)
        return cmap, [_csv(an.write_conductivity_csv, cmap)]

    def program(cell):
        cfg = prog.ProgrammerConfig()
        programmed = prog.program_cell(cell, cfg)
        ok = dev.verify_cell(programmed, tt)
        sched = prog.plan_program(cell, cfg)
        return (programmed, ok), [_csv(prog.write_schedule_csv, {0: sched}),
                                  f"verified {ok}"]

    def histogram(cell, mc):
        rep = an.yield_mc(cell, tt, mc)
        return rep, [_csv(an.write_histogram_csv, rep)]

    def sweep(cell):
        points = an.vdd_sweep(cell, tt)
        return points, [_csv(an.write_sweep_csv, points)]

    def timing(scenario):
        fix = an.run_timing_fix(tt, None, scenario)
        return fix, [_csv(an.write_timing_csv,
                          {"before": fix.before, "after": fix.after})]

    levels = rec.stage("schedule", schedule) or []
    for li, lv in enumerate(levels):
        cell = lv.result.cell
        for b, mc_seed in enumerate(inp["mc_seeds"][li]):
            mc = an.McConfig(trials=CELL_BATCH_TRIALS, seed=mc_seed)
            rec.op(f"yield:{li}:{b}", batch, cell, mc)
        rec.stage(f"conductivity:{li}", conductivity, cell)
        rec.stage(f"program:{li}", program, cell)
    if levels:
        top = levels[-1].result.cell
        rec.stage("delay_hist", histogram, top,
                  an.McConfig(trials=CELL_HIST_TRIALS, seed=inp["hist_seed"]))
        rec.stage("vdd_sweep", sweep, top)
    for scenario in ("setup", "hold"):
        rec.stage(f"timing:{scenario}", timing, scenario)


def cell_yield_check(inp: dict, rec: Recorder, tallies: dict) -> None:
    tt_bits = inp["tt"].bits
    sched = rec.ok("schedule")
    if sched is None:
        return
    levels = sched.result
    if len(levels) != 6 or not all(checks.cell_realizes(lv.result.cell, tt_bits)
                                   for lv in levels):
        sched.fail("schedule_cells")
    for li, lv in enumerate(levels):
        passing = trials = 0
        batches = [rec.ok(f"yield:{li}:{b}") for b in range(CELL_LEVEL_BATCHES)]
        for unit in filter(None, batches):
            rep = unit.result
            ok_rows = sum(1 for _, ok, _ in rep.rows if ok)
            if (len(rep.rows) != rep.trials or ok_rows != rep.passing
                    or rep.yield_fraction != rep.passing / rep.trials
                    or int(rep.hist_counts.sum()) != rep.passing):
                unit.fail("yield_report")
            passing += rep.passing
            trials += rep.trials
        fraction = passing / trials if trials else 0.0
        out_of_bounds = ((li == 0 and fraction > CRITERION5_BOTTOM_MAX) or
                         (li == len(levels) - 1
                          and fraction < CRITERION5_TOP_MIN))
        if out_of_bounds:
            for unit in filter(None, batches):
                unit.fail("criterion5_yield")
        cond = rec.ok(f"conductivity:{li}")
        if cond and not checks.conductances_match(lv.result.cell,
                                                  cond.result.records):
            cond.fail("conductance")
        prog = rec.ok(f"program:{li}")
        if prog:
            programmed, ok = prog.result
            if not ok or not checks.cell_realizes(programmed, tt_bits):
                prog.fail("programmed_cell")
    hist = rec.ok("delay_hist")
    if hist and int(hist.result.hist_counts.sum()) != hist.result.passing:
        hist.fail("histogram")
    sweep = rec.ok("vdd_sweep")
    if sweep and not all(p.functional for p in sweep.result):
        sweep.fail("vdd_sweep_functional")
    for scenario in ("setup", "hold"):
        unit = rec.ok(f"timing:{scenario}")
        if unit is None:
            continue
        fix = unit.result
        if (scenario not in fix.before.violations or fix.after.violations
                or not checks.close(checks.cell_worst_delay(fix.cell_after),
                                    fix.delay_after)
                or not checks.cell_realizes(fix.cell_after, tt_bits)):
            unit.fail("timing_fix")


# -- catalog-train ------------------------------------------------------------

def stored_catalog(root: Path) -> list[tuple[int, int]]:
    data = json.loads((root / "bench" / "catalog5.json").read_text())
    return [(n, int(h, 16)) for n, h in data]


def catalog_train_setup(seed: int, root: Path) -> dict:
    """Canonical classes come from the stored catalog listing; each gets
    one NP variant whose inputs are reversed and whose complement mask
    comes from the seed (see RATIONALE.md for why the order is fixed)."""
    m = _ftl()
    rng = random.Random(seed)
    stored = stored_catalog(root)
    variants = []
    for n, bits in stored:
        perm = tuple(reversed(range(n)))
        cmask = rng.randrange(1 << n)
        variants.append((n, gen.np_variant(bits, n, perm, cmask)))
    return {"m": m, "seed": seed, "stored": stored, "variants": variants,
            "size": f"build_catalog(5) + {2 * len(stored)} functions "
                    f"({len(stored)} canonical + {len(stored)} variants)"}


def catalog_train_run(inp: dict, rec: Recorder) -> None:
    m = inp["m"]
    th, tr, prog, dev = m["threshold"], m["train"], m["program"], m["device"]
    TruthTable = m["truthtable"].TruthTable

    def catalog():
        entries = th.build_catalog(5)
        return entries, [_csv(th.write_catalog_csv, entries)]

    def function(tt):
        positive, mask = m["truthtable"].to_positive_form(tt)
        r = tr.train(positive)
        cfg = prog.ProgrammerConfig()
        programmed = prog.program_cell(r.cell, cfg)
        ok = dev.verify_cell(programmed, positive)
        sched = prog.plan_program(r.cell, cfg)
        return (positive, mask, r, programmed, ok), [
            r.cell.to_json(), _csv(prog.write_schedule_csv, {0: sched}),
            f"{r.iterations} {r.epochs} {r.converged} {r.active_side} {ok}"]

    entries = rec.stage("catalog", catalog) or []
    for e in entries:
        rec.op(f"canon:{e.index}", function, e.table)
    for i, (n, bits) in enumerate(inp["variants"]):
        rec.op(f"variant:{i}", function, TruthTable(n, bits))


def _check_function(unit, n: int, bits: int) -> None:
    positive, mask, r, programmed, ok = unit.result
    complemented = gen.np_variant(positive.bits, n, tuple(range(n)), mask)
    if complemented != bits:
        unit.fail("positive_form")
    elif not r.converged or not checks.cell_realizes(r.cell, positive.bits):
        unit.fail("trained_cell")
    elif not ok or not checks.cell_realizes(programmed, positive.bits):
        unit.fail("programmed_cell")


def catalog_train_check(inp: dict, rec: Recorder, tallies: dict) -> None:
    stored = inp["stored"]
    cat = rec.ok("catalog")
    if cat is not None:
        entries = cat.result
        listing = [(e.n, e.table.bits) for e in entries]
        if len(entries) != 117 or listing != stored or not all(
                checks.realizes(e.function.weights, e.function.threshold,
                                e.n, e.table.bits) for e in entries):
            cat.fail("catalog")
        for e in entries:
            unit = rec.ok(f"canon:{e.index}")
            if unit:
                _check_function(unit, e.n, e.table.bits)
    for i, (n, bits) in enumerate(inp["variants"]):
        unit = rec.ok(f"variant:{i}")
        if unit:
            _check_function(unit, n, bits)


# -- netlist-map --------------------------------------------------------------

def netlist_map_setup(seed: int, root: Path) -> dict:
    m = _ftl()
    corpus = [(f"corpus:{name}",
               (root / "src" / "ftl" / "corpus" / f"{name}.blif").read_text())
              for name in CORPUS]
    designs = corpus + gen.generate_designs(seed)
    gates = sum(t.count(".names") for _, t in designs)
    latches = sum(t.count(".latch") for _, t in designs)
    return {"m": m, "seed": seed, "designs": designs,
            "stored": stored_catalog(root),
            "size": f"{len(designs)} designs ({len(corpus)} corpus + "
                    f"{gen.N_GENERATED} generated), {gates} gates, "
                    f"{latches} latches"}


def netlist_map_run(inp: dict, rec: Recorder) -> None:
    m = inp["m"]
    th, nlm, mp = m["threshold"], m["netlist"], m["mapping"]
    seed = inp["seed"]

    def design(text, cat):
        nl = nlm.parse_blif(text)
        mapped = mp.map_ftl(nl, k=5, catalog=cat)
        rep = mp.verify_equivalence(nl, mapped, stimuli_seed=seed)
        blif = mp.export_mapped_blif(mapped)
        return (mapped, rep, blif), [
            blif, _csv(mp.write_cost_csv, mapped),
            f"{rep.equivalent} {rep.cycles_checked} {rep.first_divergence}"]

    cat = rec.stage("catalog", lambda: (th.build_catalog(5), []))
    if cat is None:
        return
    for uid, text in inp["designs"]:
        rec.op(uid, design, text, cat)


def netlist_map_check(inp: dict, rec: Recorder, tallies: dict) -> None:
    cat = rec.ok("catalog")
    if cat is not None and [(e.n, e.table.bits) for e in cat.result] \
            != inp["stored"]:
        cat.fail("catalog")
    for uid, text in inp["designs"]:
        unit = rec.ok(uid)
        if unit is None:
            continue
        mapped, rep, blif = unit.result
        verdict = checks.compare_from_reset(text, blif, mapped.instances,
                                            inp["seed"])
        if verdict == "mismatch":
            unit.fail("cycle_mismatch")
        elif verdict == "reset_init_lost":
            # ROADMAP item 5: an FTL cell replacing a reset-to-1 latch
            # starts from 0.  Reported as a known defect, not hidden.
            tallies["known_defect_reset_init_lost"] = \
                tallies.get("known_defect_reset_init_lost", 0) + 1
        elif not rep.equivalent:
            unit.fail("checker_disagrees")


WORKLOADS = {
    "cell-yield": (cell_yield_setup, cell_yield_run, cell_yield_check),
    "catalog-train": (catalog_train_setup, catalog_train_run,
                      catalog_train_check),
    "netlist-map": (netlist_map_setup, netlist_map_run, netlist_map_check),
}

# Units whose outputs do not depend on the workload seed; their reference
# digests are shared by every seed.
SEED_FREE = {
    "cell-yield": ("schedule", "conductivity:", "program:", "vdd_sweep",
                   "timing:"),
    "catalog-train": ("catalog", "canon:"),
    "netlist-map": ("catalog", "corpus:"),
}
