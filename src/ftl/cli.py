"""Command-line entry point for catalog building, cell training, the
robustness/yield/voltage/timing experiments, and BLIF mapping.

Every command writes plain CSV reports (so each can be re-plotted
externally), then `manifest.json`, the fully resolved configuration, and
`run.json`, the UTC time of the run.  Identical configuration and seed
produce byte-identical files apart from `run.json`.  A run that fails
before its reports exist creates no output directory.

Exit codes: 0 success, 2 validation error, 3 convergence failure,
4 I/O error.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from datetime import datetime, timezone

import click

from . import analysis, mapping, netlist, threshold
from .device import DeviceParams, verify_cell
from .train import (TrainConfig, TrainingError, kmax_bound, train,
                    write_trace_csv)
from .truthtable import parse_truth_table, to_positive_form

EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_IO = 4


class CliError(click.ClickException):
    def __init__(self, message, exit_code):
        super().__init__(message)
        self.exit_code = exit_code


def _emit(out: str, files: dict[str, str], config: dict) -> None:
    """Create out and write each file, then manifest.json (the resolved
    configuration) and run.json (when the run happened), the one file that
    differs between runs of the same configuration."""
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    manifest = json.dumps(config, indent=2, sort_keys=True)
    run = json.dumps({"generated": stamp}, indent=2)
    files = {**files, "manifest.json": manifest + "\n", "run.json": run + "\n"}
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as e:
        raise CliError(f"cannot create output directory {out}: {e}", EXIT_IO)
    for name, text in files.items():
        path = os.path.join(out, name)
        try:
            with open(path, "w") as fp:
                fp.write(text)
        except OSError as e:
            raise CliError(f"cannot write {path}: {e}", EXIT_IO)


def _csv(write, *args) -> str:
    buf = io.StringIO()
    write(*args, buf)
    return buf.getvalue()


def _rows_csv(rows) -> str:
    return _csv(lambda fp: csv.writer(fp).writerows(rows))


def _decimal(text: str) -> bool:
    """ASCII 0-9 only: int() also takes signs, spaces, "_", other digits."""
    return text.isascii() and text.isdecimal()


def _resolve_function(spec: str):
    """Function spec: 'hex:<digits>:<n>' or 'cat:<index>'."""
    if spec.startswith("cat:"):
        entries = threshold.build_catalog(5)
        idx = spec[4:]
        if not (_decimal(idx) and int(idx) < len(entries)):
            raise CliError(f"bad catalog index in {spec!r}", EXIT_VALIDATION)
        return entries[int(idx)].table
    if spec.startswith("hex:"):
        parts = spec.split(":")
        if len(parts) != 3 or not _decimal(parts[2]):
            raise CliError("hex spec must look like hex:<digits>:<n>",
                           EXIT_VALIDATION)
        try:
            return parse_truth_table(parts[1], int(parts[2]))
        except ValueError as e:
            raise CliError(str(e), EXIT_VALIDATION)
    if spec == "f115":
        return threshold.f115_table()
    raise CliError(f"unrecognized function spec {spec!r}", EXIT_VALIDATION)


def _device_params(vdd: float) -> DeviceParams:
    try:
        return DeviceParams(vdd=vdd)
    except ValueError as e:
        raise CliError(str(e), EXIT_VALIDATION)


out_option = click.option("--out", default=".", show_default=True,
                          help="Output directory for CSV reports.")
vdd_option = click.option("--vdd", default=0.9, show_default=True)
seed_option = click.option("--seed", default=0, show_default=True,
                           type=click.IntRange(min=0))


@click.group()
def main():
    """Flash threshold logic cell modeling, training, and mapping."""


@main.command("catalog")
@click.option("--n-max", default=5, show_default=True)
@out_option
def cmd_catalog(n_max, out):
    """Enumerate the NP-classes of threshold functions up to n-max inputs."""
    try:
        entries = threshold.build_catalog(n_max)
    except ValueError as e:
        raise CliError(str(e), EXIT_VALIDATION)
    _emit(out, {"catalog.csv": _csv(threshold.write_catalog_csv, entries)},
          {"command": "catalog", "n_max": n_max})
    click.echo(f"{len(entries)} catalog entries -> {out}/catalog.csv")


@main.command("train")
@click.argument("spec")
@click.option("--robust", is_flag=True,
              help="Run the margin schedule and keep its top level.")
@vdd_option
@out_option
def cmd_train(spec, robust, vdd, out):
    """Train a cell for a function given as hex:<digits>:<n>, cat:<index>,
    or the name f115."""
    tt = _resolve_function(spec)
    try:
        tf = threshold.check_threshold(tt)
    except ValueError as e:  # more inputs than the solver handles
        raise CliError(str(e), EXIT_VALIDATION)
    if tf is None:
        raise CliError(f"{spec} is not a threshold function", EXIT_CONVERGENCE)
    positive, mask = to_positive_form(tt)
    params = _device_params(vdd)
    if robust:
        try:
            top = analysis.margin_schedule(positive, params)[-1]
        except TrainingError as e:
            raise CliError(str(e), EXIT_CONVERGENCE)
        result, achieved = top.result, top.margin
    else:
        result = train(positive, params, TrainConfig(record_trace=True))
        achieved = 0.0
        if not result.converged:
            raise CliError(f"training did not converge (stopped on "
                           f"{result.stop_reason})", EXIT_CONVERGENCE)
    cell_doc = json.loads(result.cell.to_json())
    cell_doc["polarity_mask"] = mask
    cell_doc["achieved_margin"] = achieved
    _emit(out, {"cell.json": json.dumps(cell_doc, indent=2) + "\n",
                "trace.csv": _csv(write_trace_csv, result.trace)},
          {"command": "train", "spec": spec, "robust": robust, "vdd": vdd})
    click.echo(f"converged in {result.iterations} iterations "
               f"(margin {achieved:g}) -> {out}/cell.json")


def _exp_iterations(params, mc, scenario):
    entries = threshold.build_catalog(5)
    rows = [["index", "n", "canonical_hex", "iterations", "kmax", "converged"]]
    for e in entries:
        positive, _ = to_positive_form(e.table)
        r = train(positive, params)
        rows.append([e.index, e.n, e.hex(), r.iterations,
                     kmax_bound(e.n, params.delta, params.vdd),
                     int(r.converged)])
    return {"iterations.csv": _rows_csv(rows)}


def _f115_schedule(params):
    return analysis.margin_schedule(threshold.f115_table(), params)


def _exp_yield_sweep(params, mc, scenario):
    tt = threshold.f115_table()
    rows = [["margin", "min_separation", "worst_delay", "yield"]]
    for lv in _f115_schedule(params):
        rep = analysis.yield_mc(lv.result.cell, tt, mc)
        rows.append([f"{lv.margin:.3f}", f"{lv.min_separation:.6e}",
                     f"{lv.delay:.6e}", f"{rep.yield_fraction:.5f}"])
    return {"yield_sweep.csv": _rows_csv(rows)}


def _exp_conductivity(params, mc, scenario):
    tt = threshold.f115_table()
    levels = _f115_schedule(params)
    out = {}
    for tag, lv in (("baseline", levels[0]), ("robust", levels[-1])):
        cmap = analysis.conductivity_map(lv.result.cell, tt)
        out[f"conductivity_{tag}.csv"] = _csv(
            analysis.write_conductivity_csv, cmap)
    return out


def _exp_vdd_sweep(params, mc, scenario):
    tt = threshold.f115_table()
    lv = _f115_schedule(params)[-1]
    points = analysis.vdd_sweep(lv.result.cell, tt)
    return {"vdd_sweep.csv": _csv(analysis.write_sweep_csv, points)}


def _exp_delay_hist(params, mc, scenario):
    tt = threshold.f115_table()
    lv = _f115_schedule(params)[-1]
    rep = analysis.yield_mc(lv.result.cell, tt, mc)
    return {"delay_hist.csv": _csv(analysis.write_histogram_csv, rep)}


def _exp_timing_fix(params, mc, scenario):
    tt = threshold.f115_table()
    fix = analysis.run_timing_fix(tt, params, scenario)
    ok = verify_cell(fix.cell_after, tt)
    rows = [["stage", "launch_c2q", "setup_slack", "hold_slack", "violations",
             "verified"],
            ["before", f"{fix.delay_before:.6e}",
             f"{fix.before.setup_slack:.6e}", f"{fix.before.hold_slack:.6e}",
             "+".join(fix.before.violations) or "none", ""],
            ["after", f"{fix.delay_after:.6e}",
             f"{fix.after.setup_slack:.6e}", f"{fix.after.hold_slack:.6e}",
             "+".join(fix.after.violations) or "none", int(ok)]]
    return {f"timing_fix_{scenario}.csv": _rows_csv(rows)}


EXPERIMENTS = {
    "iterations": _exp_iterations,
    "yield-sweep": _exp_yield_sweep,
    "conductivity": _exp_conductivity,
    "vdd-sweep": _exp_vdd_sweep,
    "delay-hist": _exp_delay_hist,
    "timing-fix": _exp_timing_fix,
}


@main.command("experiments")
@click.argument("name", metavar="NAME",
                type=click.Choice(sorted(EXPERIMENTS)))
@click.argument("args", nargs=-1)
@click.option("--trials", default=10000, show_default=True,
              type=click.IntRange(1, 2**32))
@vdd_option
@seed_option
@out_option
def cmd_experiments(name, args, trials, vdd, seed, out):
    """Run a named experiment: iterations | yield-sweep | conductivity |
    vdd-sweep | delay-hist | timing-fix [setup|hold]."""
    if len(args) > (name == "timing-fix"):
        raise CliError(f"unexpected arguments to {name}: {' '.join(args)}",
                       EXIT_VALIDATION)
    params = _device_params(vdd)
    scenario = args[0] if args else "setup"
    if scenario not in analysis.SCENARIOS:
        raise CliError("timing-fix takes one of "
                       f"{', '.join(analysis.SCENARIOS)}", EXIT_VALIDATION)
    mc = analysis.McConfig(trials, seed)
    try:
        tables = EXPERIMENTS[name](params, mc, scenario)
    except (TrainingError, analysis.RetuneError) as e:
        raise CliError(str(e), EXIT_CONVERGENCE)
    _emit(out, tables, {"command": "experiments", "name": name,
                        "args": list(args), "trials": trials, "vdd": vdd,
                        "seed": seed})
    click.echo(f"{name} -> {', '.join(os.path.join(out, f) for f in tables)}")


@main.command("map")
@click.argument("blif", type=click.Path())
@click.option("--k", default=5, show_default=True, type=click.IntRange(1, 5))
@seed_option
@out_option
def cmd_map(blif, k, seed, out):
    """Map threshold cones of a BLIF netlist onto FTL cells."""
    try:
        with open(blif, encoding="utf-8") as fp:
            text = fp.read()
    except OSError as e:
        raise CliError(f"cannot read {blif}: {e}", EXIT_IO)
    except UnicodeDecodeError as e:
        raise CliError(f"{blif} is not UTF-8 text: {e}", EXIT_VALIDATION)
    try:
        nl = netlist.parse_blif(text)
    except netlist.NetlistError as e:
        raise CliError(f"BLIF parse error: {e}", EXIT_VALIDATION)
    cat = threshold.build_catalog(5)
    design = mapping.map_ftl(nl, k=k, catalog=cat)
    report = mapping.verify_equivalence(nl, design, stimuli_seed=seed)
    equiv_lines = [f"equivalent: {report.equivalent}",
                   f"stimuli_checked: {report.cycles_checked}",
                   f"proved: {report.proved}"]
    if report.first_divergence:
        equiv_lines.append(
            f"first_divergence: cycle {report.first_divergence[0]} "
            f"signal {report.first_divergence[1]}")
    _emit(out, {"mapped.blif": mapping.export_mapped_blif(design),
                "cost.csv": _csv(mapping.write_cost_csv, design),
                "equivalence.txt": "\n".join(equiv_lines) + "\n"},
          {"command": "map", "blif": os.path.abspath(blif), "k": k,
           "seed": seed})
    status = "PASS" if report.equivalent else "FAIL"
    click.echo(f"{len(design.instances)} replacements, equivalence {status} "
               f"-> {out}/mapped.blif")
    if not report.equivalent:
        sys.exit(EXIT_VALIDATION)


if __name__ == "__main__":
    main()
