"""Mutation gate: every mutant below must be killed by the tests it names.

Each mutant is a source file, a snippet that must occur in it exactly
once, the snippet's replacement, and the test ids that must fail once it
is applied.  The script first runs every killing test on an unmutated
copy of the tree, where all must pass.  Then, for each mutant, it copies
the tree into a temporary directory, applies the replacement there and
runs only that mutant's killers with -x; a mutant whose killers pass has
survived, and the script exits 1.  A snippet that no longer occurs
exactly once also fails the gate, so a refactor that moves a checked line
must update this list.  The working tree is never modified.

Run from the repository root (not a test_* file, so Tier-1 skips it):

    python tests/mutants.py            # the unmutated run, then every mutant
    python tests/mutants.py NAME ...   # the unmutated run, then these
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    killers: tuple[str, ...]


T, M, D, R = ("tests/test_threshold.py", "tests/test_mapping.py",
              "tests/test_device.py", "tests/test_train.py")
TT, C = "tests/test_truthtable.py", "tests/test_cli.py"
N = "tests/test_netlist.py"

MUTANTS = [
    Mutant("name-threshold-shift-negative",
           "src/ftl/threshold.py",
           "tf.threshold - sum(w for w in tf.weights if w > 0))",
           "tf.threshold - sum(w for w in tf.weights if w < 0))",
           (f"{T}::test_catalog_equals_detection",
            f"{T}::test_catalog_entries_survive_np_transforms")),
    Mutant("name-weights-ascending",
           "src/ftl/threshold.py",
           "for w in tf.weights if w), reverse=True)),",
           "for w in tf.weights if w), reverse=False)),",
           (f"{T}::test_catalog_equals_detection",
            f"{T}::test_catalog_entries_survive_np_transforms")),
    Mutant("catalog-index-off-by-one",
           "src/ftl/mapping.py",
           "{(e.function.weights, e.function.threshold): e.index\n",
           "{(e.function.weights, e.function.threshold): e.index + 1\n",
           (f"{M}::test_f115_cone_replaced",)),
    Mutant("first-miss-onset-strict",
           "src/ftl/device.py",
           "            if not gap - margin >= eps:\n",
           "            if not gap - margin > eps:\n",
           (f"{D}::test_first_miss_equals_respond_at_window_edges",
            f"{D}::test_scalar_checks_equal_block_kernel")),
    Mutant("train-sums-never-rebuilt",
           "src/ftl/train.py",
           "                sums = input_sums(g, n, sums[:1 << low])\n",
           "                pass\n",
           (f"{R}::test_every_attempt_stops_for_a_proven_reason",
            f"{R}::test_matches_reference_catalog")),
    Mutant("train-moves-sides-swapped",
           "src/ftl/train.py",
           "for j, step in zip((n + w, n + 1 - w), up_down)]",
           "for j, step in zip((n + 1 - w, n + w), up_down)]",
           (f"{R}::test_matches_reference_catalog",)),
    Mutant("train-both-sides-move",
           "src/ftl/train.py",
           "                        break\n",
           "                        pass\n",
           (f"{R}::test_matches_reference_catalog",)),
    Mutant("worst-delay-largest-gap",
           "src/ftl/device.py",
           "np.subtract(*conductances(cell))).min()",
           "np.subtract(*conductances(cell))).max()",
           (f"{D}::test_table_checks_equal_per_minterm_evaluate",)),
    Mutant("map-ranking-reversed",
           "src/ftl/mapping.py",
           "sorted(ranked)",
           "sorted(ranked, reverse=True)",
           (f"{M}::test_map_equals_exhaustive_reference",)),
    Mutant("evaluate-mux-swapped",
           "src/ftl/netlist.py",
           "level = [lo ^ (lo ^ hi) & w\n",
           "level = [hi ^ (lo ^ hi) & w\n",
           (f"{N}::test_word_step_equals_scalar_steps",
            f"{N}::test_cone_order_gives_whole_netlist_order_table")),
    Mutant("evaluate-lookup-shifted",
           "src/ftl/netlist.py",
           "m |= values[x] << i\n",
           "m |= values[x] << (i ^ 1)\n",
           (f"{M}::test_verdicts_match_per_call_step",)),
    Mutant("latch-type-unchecked",
           "src/ftl/netlist.py",
           '                if rest[0] != "re":\n',
           "                if False:\n",
           (f"{N}::test_parse_rejects_latch_types_but_rising_edge",
            f"{C}::test_map_rejects_falling_edge_latch")),
    Mutant("export-pol-positive-weights",
           "src/ftl/mapping.py",
           "enumerate(inst.weights.weights) if w < 0)",
           "enumerate(inst.weights.weights) if w > 0)",
           (f"{M}::test_verdicts_match_per_call_step",)),
    Mutant("hex-digits-unchecked",
           "src/ftl/truthtable.py",
           "    if not all(c in string.hexdigits for c in spec):\n",
           "    if False:\n",
           (f"{TT}::test_parse_rejects_bad_input",
            f"{C}::test_train_spec_range")),
    # float_power -> power is left out: without AVX-512, np.power's float64
    # loop can be libm pow as well, and the mutant would survive there.
    Mutant("block-drive-unclamped",
           "src/ftl/device.py",
           "        drive = np.maximum(p.vgate - np.array(vts), 0.0)\n",
           "        drive = p.vgate - np.array(vts)\n",
           (f"{D}::test_conductances_equal_evaluate_bit_for_bit",)),
    Mutant("block-exponent-nudged",
           "src/ftl/device.py",
           "        return np.float_power(drive, ALPHA), sample.k_mult\n",
           "        return np.float_power(drive, ALPHA + 1e-15), sample.k_mult\n",
           (f"{D}::test_conductances_equal_evaluate_bit_for_bit",)),
    Mutant("block-sums-inputs-reversed",
           "src/ftl/device.py",
           "np.add(sums[:, :1 << i], g[:, i:i + 1], out=",
           "np.add(sums[:, :1 << i], g[:, n - 1 - i:n - i], out=",
           (f"{D}::test_input_sums_equal_ascending_loop",
            f"{D}::test_conductances_equal_evaluate_bit_for_bit")),
    Mutant("stream-holder-keeps-first-words",
           "src/ftl/device.py",
           "        holder.words = words\n",
           "        holder.words = getattr(holder, 'words', words)\n",
           (f"{D}::test_block_draw_equals_reference_stream",)),
    Mutant("params-no-finite-drive-check",
           "src/ftl/device.py",
           "        if not finite:\n",
           "        if False:\n",
           (f"{D}::test_params_validation",)),
    Mutant("check-threshold-t-plus-one",
           "src/ftl/threshold.py",
           "t + sum(min(w, 0) for w in weights))",
           "t + 1 + sum(min(w, 0) for w in weights))",
           (f"{T}::test_maj3_weights", f"{T}::test_f115_weights")),
    Mutant("catalog-realization-unchecked",
           "src/ftl/threshold.py",
           '            raise RuntimeError(f"catalog table {tt} lost its '
           'realization")\n',
           "            pass\n",
           (f"{T}::test_catalog_lost_realization_raises",)),
]


def _copy_tree(dest: Path) -> None:
    """The files the killing tests read: the package, the tests and the
    pytest configuration."""
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for sub in ("src", "tests"):
        shutil.copytree(ROOT / sub, dest / sub, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(tree: Path, killers) -> int:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *killers], cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def _run(mutant: Mutant | None, killers) -> str | None:
    """None if the run went as it must (unmutated: all pass; mutant:
    killed), else why not."""
    with tempfile.TemporaryDirectory(prefix="ftl-mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        if mutant is not None:
            source = tree / mutant.path
            text = source.read_text()
            count = text.count(mutant.snippet)
            if count != 1:
                return f"snippet occurs {count} times in {mutant.path}"
            source.write_text(text.replace(mutant.snippet,
                                           mutant.replacement))
        code = _pytest(tree, killers)
    if mutant is None:
        return None if code == 0 else f"killing tests fail (exit {code})"
    # pytest exits 1 when tests fail; any other code is an error, not a kill
    return {0: "survived", 1: None}.get(code, f"pytest exit {code}")


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    killers = sorted({k for m in chosen for k in m.killers})
    failed = 0
    for mutant in (None, *chosen):
        start = time.perf_counter()
        why = _run(mutant, mutant.killers if mutant else killers)
        label = mutant.name if mutant else "unmutated tree"
        verdict = "ok" if why is None else f"FAIL: {why}"
        print(f"{label}: {verdict} ({time.perf_counter() - start:.1f} s)")
        failed += why is not None
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
