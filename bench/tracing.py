"""Spans at module boundaries, recorded from the benchmark's side.

`Tracer.install()` replaces each traced function under every module-global
name its callers look it up by (for example `ftl.mapping.check_threshold`
and `ftl.analysis.sample_variation`), so calls made inside the library are
seen too.  Each wrapper records a span (name, start, end, parent) and the
counters below; `device.evaluate` is counted only, since a span per call
would cost more than the call.  Spans stay in memory until `dump()`.

A name that cannot be found is reported as absent, never as zero, so a
refactor that renames a function cannot pass for a saving.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from time import perf_counter

# span name -> the (module, attribute) pairs callers resolve it through.
# A module of "ftl.netlist.Netlist" means the attribute lives on that class.
TARGETS = {
    "threshold.check_threshold": [("ftl.threshold", "check_threshold"),
                                  ("ftl.mapping", "check_threshold")],
    "threshold.canonicalize_np": [("ftl.threshold", "canonicalize_np"),
                                  ("ftl.mapping", "canonicalize_np")],
    "threshold.build_catalog": [("ftl.threshold", "build_catalog")],
    "threshold.write_catalog_csv": [("ftl.threshold", "write_catalog_csv")],
    "device.sample_variation": [("ftl.analysis", "sample_variation")],
    "device.verify_cell": [("ftl.device", "verify_cell"),
                           ("ftl.train", "verify_cell"),
                           ("ftl.analysis", "verify_cell")],
    "device.worst_case_delay": [("ftl.device", "worst_case_delay"),
                                ("ftl.analysis", "worst_case_delay")],
    "analysis.yield_mc": [("ftl.analysis", "yield_mc")],
    "analysis.margin_schedule": [("ftl.analysis", "margin_schedule")],
    "analysis.vdd_sweep": [("ftl.analysis", "vdd_sweep")],
    "analysis.conductivity_map": [("ftl.analysis", "conductivity_map")],
    "analysis.run_timing_fix": [("ftl.analysis", "run_timing_fix")],
    "analysis.write_yield_csv": [("ftl.analysis", "write_yield_csv")],
    "analysis.write_histogram_csv": [("ftl.analysis", "write_histogram_csv")],
    "analysis.write_conductivity_csv": [("ftl.analysis",
                                         "write_conductivity_csv")],
    "analysis.write_sweep_csv": [("ftl.analysis", "write_sweep_csv")],
    "analysis.write_timing_csv": [("ftl.analysis", "write_timing_csv")],
    "train.train": [("ftl.train", "train"), ("ftl.analysis", "train")],
    "train._train_from": [("ftl.analysis", "_train_from")],
    "program.program_cell": [("ftl.program", "program_cell")],
    "program.plan_program": [("ftl.program", "plan_program")],
    "program.write_schedule_csv": [("ftl.program", "write_schedule_csv")],
    "netlist.parse_blif": [("ftl.netlist", "parse_blif")],
    "netlist.enumerate_cuts": [("ftl.mapping", "enumerate_cuts")],
    "netlist.cut_function": [("ftl.mapping", "cut_function")],
    "netlist.Netlist.step": [("ftl.netlist.Netlist", "step")],
    "mapping.map_ftl": [("ftl.mapping", "map_ftl")],
    "mapping.verify_equivalence": [("ftl.mapping", "verify_equivalence")],
    "mapping.export_mapped_blif": [("ftl.mapping", "export_mapped_blif")],
    "mapping.write_cost_csv": [("ftl.mapping", "write_cost_csv")],
    "truthtable.to_positive_form": [("ftl.truthtable", "to_positive_form"),
                                    ("ftl.threshold", "to_positive_form"),
                                    ("ftl.mapping", "to_positive_form")],
}
COUNTED = {
    "device.evaluate": [("ftl.device", "evaluate"), ("ftl.train", "evaluate"),
                        ("ftl.analysis", "evaluate"),
                        ("ftl.mapping", "evaluate")],
}
ROOT = "bench.pass"


def _owner(path: str):
    if path.endswith(".Netlist"):
        return importlib.import_module(path.rsplit(".", 1)[0]).Netlist
    return importlib.import_module(path)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.spans: list[list] = []  # [name index, start, end, parent]
        self.stack: list[list] = []  # [span index, child seconds]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.extra: dict[str, float] = {}
        self.distinct_tables: set = set()
        self.absent: list[str] = []
        self._patched: list[tuple] = []

    # -- spans -------------------------------------------------------------
    def _enter(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
            self.total_s[name] = 0.0
        idx = len(self.spans)
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append([self.index[name], perf_counter(), 0.0, parent])
        self.stack.append([idx, 0.0])
        return idx

    def _exit(self, name: str) -> float:
        end = perf_counter()
        idx, child = self.stack.pop()
        span = self.spans[idx]
        span[2] = end
        dur = end - span[1]
        if self.stack:
            self.stack[-1][1] += dur
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self.total_s[name] += dur
        return dur

    @contextlib.contextmanager
    def root(self):
        """The span of a pass's timed section; its self time is the
        benchmark's own share."""
        self._enter(ROOT)
        try:
            yield
        finally:
            self._exit(ROOT)

    # -- wrappers ----------------------------------------------------------
    def _span_wrapper(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._enter(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                dur = tracer._exit(name)
            if ok:
                tracer._count(name, args, kwargs, result, dur)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn):
        cell = self.extra
        cell.setdefault(name + ".calls", 0)

        def wrapper(*args, **kwargs):
            cell[name + ".calls"] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value

    def _count(self, name, args, kwargs, result, dur) -> None:
        if name == "threshold.check_threshold":
            tt = args[0]
            self.distinct_tables.add((tt.n, tt.bits))
            if result is not None:
                self._add(name + ".accepted", 1)
                self._add(name + ".accept_s", dur)
            else:
                self._add(name + ".reject_s", dur)
            parent = self.spans[self.stack[-1][0]][0] if self.stack else -1
            if parent == self.index.get("mapping.map_ftl"):
                self._add("mapping.map_ftl.checks", 1)
        elif name == "analysis.yield_mc":
            self._add(name + ".trials", result.trials)
        elif name == "analysis.margin_schedule":
            self._add(name + ".levels", len(result))
        elif name == "train.train":
            self._add(name + ".iterations", result.iterations)
            self._add(name + ".epochs", result.epochs)
            self._add(name + ".converged", int(result.converged))
        elif name == "netlist.enumerate_cuts":
            self._add(name + ".cuts", len(result))
        elif name == "mapping.map_ftl":
            self._add(name + ".replacements", len(result.instances))
        elif name == "mapping.verify_equivalence":
            self._add(name + ".stimuli", result.cycles_checked)

    def install(self) -> None:
        for table, make in ((TARGETS, self._span_wrapper),
                            (COUNTED, self._count_wrapper)):
            for name, sites in table.items():
                found = False
                for path, attr in sites:
                    try:
                        owner = _owner(path)
                        original = getattr(owner, attr)
                    except (ImportError, AttributeError):
                        continue
                    found = True
                    setattr(owner, attr, make(name, original))
                    self._patched.append((owner, attr, original))
                if not found:
                    self.absent.append(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------
    def summary(self) -> dict:
        """Per-name calls, self and total seconds plus the extra counters;
        summed self time of the root and of every span equals the root's
        duration, since each span's self time excludes its children."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "extra": dict(self.extra),
            "distinct_tables": len(self.distinct_tables),
            "absent": list(self.absent),
            "spans": len(self.spans),
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as fp:
            json.dump({"names": self.names, "spans": self.spans}, fp)
