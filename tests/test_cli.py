"""End-to-end CLI behavior: outputs, exit codes, reproducibility."""

import json

import pytest
from click.testing import CliRunner

from ftl import analysis
from ftl.cli import main
from ftl.device import DeviceParams
from ftl.mapping import map_ftl
from ftl.netlist import parse_blif
from ftl.threshold import build_catalog

CORPUS = "src/ftl/corpus"


@pytest.fixture()
def runner():
    return CliRunner()


def read(path):
    return path.read_text()


def test_catalog_n2(runner, tmp_path):
    r = runner.invoke(main, ["catalog", "--n-max", "2", "--out",
                             str(tmp_path)])
    assert r.exit_code == 0, r.output
    lines = read(tmp_path / "catalog.csv").strip().splitlines()
    assert len(lines) == 4  # header + 3 classes
    manifest = json.loads(read(tmp_path / "manifest.json"))
    assert manifest["n_max"] == 2


def test_catalog_n5(runner, tmp_path):
    r = runner.invoke(main, ["catalog", "--out", str(tmp_path)])
    assert r.exit_code == 0
    assert len(read(tmp_path / "catalog.csv").strip().splitlines()) == 118


def test_catalog_bad_path(runner, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    r = runner.invoke(main, ["catalog", "--out", str(blocker / "sub")])
    assert r.exit_code == 4


def test_train_and2(runner, tmp_path):
    r = runner.invoke(main, ["train", "hex:8:2", "--out", str(tmp_path)])
    assert r.exit_code == 0, r.output
    doc = json.loads(read(tmp_path / "cell.json"))
    assert doc["n"] == 2
    assert (tmp_path / "trace.csv").exists()


def test_train_xor_rejected(runner, tmp_path):
    r = runner.invoke(main, ["train", "hex:6:2", "--out", str(tmp_path)])
    assert r.exit_code == 3
    assert "not a threshold function" in r.output


def test_train_bad_spec(runner, tmp_path):
    r = runner.invoke(main, ["train", "hex:zz:2", "--out", str(tmp_path)])
    assert r.exit_code == 2


@pytest.mark.parametrize("spec, code", [
    ("cat:-1", 2), ("cat:117", 2), ("cat:116", 0),
    ("hex:" + "f" * 31 + "e:7", 2), ("hex:8" + "0" * 63 + ":8", 2),
    ("hex:+f:3", 2), ("hex: f:3", 2), ("hex:1_00:4", 2), ("hex:0xff:4", 2),
    ("hex:-001:4", 2), ("hex:ff:+3", 2), ("cat:+5", 2), ("cat: 5", 2),
    ("cat:\u0663", 2),
], ids=["cat-1", "cat117", "cat116", "hex7", "hex8", "hex-sign",
        "hex-space", "hex-underscore", "hex-0x", "hex-minus", "n-sign",
        "cat-sign", "cat-space", "cat-arabic-digit"])
def test_train_spec_range(runner, tmp_path, spec, code):
    """Catalog indices run 0..116 and the solver takes at most 6 inputs;
    anything outside is a validation error, not a traceback.  Digits,
    the n of a hex spec and a catalog index are ASCII digits only: no
    sign, space, "_", "0x" or other script's digit, all of which int()
    would take."""
    r = runner.invoke(main, ["train", spec, "--out", str(tmp_path)])
    assert r.exit_code == code, r.output
    assert (tmp_path / "cell.json").exists() == (code == 0)
    if code:
        assert "Error:" in r.output
        assert "out of range" not in r.output


def test_robust_flag_f115(runner, tmp_path):
    r = runner.invoke(main, ["train", "f115", "--robust", "--out",
                             str(tmp_path)])
    assert r.exit_code == 0, r.output
    doc = json.loads(read(tmp_path / "cell.json"))
    # --robust keeps the top level of the margin schedule.
    assert doc["achieved_margin"] == 0.2


TRAIN_F115, ITERATIONS = ["train", "f115"], ["experiments", "iterations"]


@pytest.mark.parametrize("command, vdd", [
    (TRAIN_F115, "0.03"), (ITERATIONS, "0.03"), (TRAIN_F115, "inf"),
    (ITERATIONS, "inf"), (TRAIN_F115, "1e300"), (ITERATIONS, "1e300"),
    (TRAIN_F115, "1e10"), (ITERATIONS, "1e10"),
], ids=["train", "experiments", "train-inf", "experiments-inf",
        "train-1e300", "experiments-1e300", "train-1e10", "experiments-1e10"])
def test_too_low_vdd_names_vdd(runner, tmp_path, command, vdd):
    """A supply below twice the Vt step or above VDD_MAX, where the
    trainer's walk would run for minutes, is a bad --vdd: exit 2, naming
    vdd and neither the Vt step nor vgate, which no flag sets.  No output
    directory is created."""
    out = tmp_path / "out"
    r = runner.invoke(main, [*command, "--vdd", vdd, "--out", str(out)])
    assert r.exit_code == 2, r.output
    assert "Error: vdd must" in r.output
    assert "delta" not in r.output and "vgate" not in r.output
    assert not out.exists()


def test_unknown_experiment(runner, tmp_path):
    r = runner.invoke(main, ["experiments", "nope", "--out", str(tmp_path)])
    assert r.exit_code == 2


@pytest.mark.parametrize("args", [["conductivity", "bogus", "extra"],
                                  ["vdd-sweep", "x"],
                                  ["timing-fix", "setup", "hold"]])
def test_extra_experiment_arguments_rejected(runner, tmp_path, args):
    r = runner.invoke(main, ["experiments", *args, "--out", str(tmp_path)])
    assert r.exit_code == 2
    assert "unexpected arguments" in r.output
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("command", [["experiments", "delay-hist"],
                                     ["map", f"{CORPUS}/fig2_hybrid.blif"]])
def test_negative_seed_rejected(runner, tmp_path, command):
    r = runner.invoke(main, [*command, "--seed", "-1", "--out",
                             str(tmp_path)])
    assert r.exit_code == 2
    assert "--seed" in r.output
    assert not (tmp_path / "manifest.json").exists()


def test_yield_sweep_monotone(runner, tmp_path):
    r = runner.invoke(main, ["experiments", "yield-sweep", "--trials", "500",
                             "--out", str(tmp_path)])
    assert r.exit_code == 0, r.output
    rows = read(tmp_path / "yield_sweep.csv").strip().splitlines()[1:]
    yields = [float(row.split(",")[-1]) for row in rows]
    assert yields == sorted(yields)


def test_timing_fix_setup(runner, tmp_path):
    r = runner.invoke(main, ["experiments", "timing-fix", "setup", "--out",
                             str(tmp_path)])
    assert r.exit_code == 0, r.output
    rows = read(tmp_path / "timing_fix_setup.csv").strip().splitlines()
    before, after = rows[1].split(","), rows[2].split(",")
    assert float(before[2]) < 0 and before[4] == "setup"
    assert float(after[2]) >= 0 and after[4] == "none"


@pytest.mark.parametrize("name", ["yield-sweep", "conductivity", "vdd-sweep",
                                  "delay-hist", "timing-fix"])
def test_schedule_experiments_exit_3_without_convergence(runner, tmp_path,
                                                         monkeypatch, name):
    """At a 0.44 V Vt step, F115's margin-0 training ends in a cycle."""
    monkeypatch.setattr(DeviceParams, "delta", 0.44)
    out = tmp_path / "out"
    r = runner.invoke(main, ["experiments", name, "--out", str(out)])
    assert r.exit_code == 3, r.output
    assert "margin-0 training did not converge (stopped on cycle)" in r.output
    assert not out.exists()


def test_unreachable_timing_fix_exits_3(runner, tmp_path, monkeypatch):
    monkeypatch.setitem(analysis.SCENARIOS, "setup",
                        analysis.Datapath(0.0, 1e-9, 67e-12, 80e-12, 1e-9))
    r = runner.invoke(main, ["experiments", "timing-fix", "setup", "--out",
                             str(tmp_path)])
    assert r.exit_code == 3, r.output
    assert "no margin level clears the setup violation" in r.output
    assert "closest achieved" in r.output


def test_map_hybrid(runner, tmp_path):
    r = runner.invoke(main, ["map", f"{CORPUS}/fig2_hybrid.blif", "--out",
                             str(tmp_path)])
    assert r.exit_code == 0, r.output
    assert "2 replacements, equivalence PASS" in r.output
    assert read(tmp_path / "mapped.blif").count(".subckt ftl5") == 2
    assert read(tmp_path / "equivalence.txt") == \
        "equivalent: True\nstimuli_checked: 128\nproved: True\n"


def test_map_xor_ring(runner, tmp_path):
    r = runner.invoke(main, ["map", f"{CORPUS}/xor_ring.blif", "--out",
                             str(tmp_path)])
    assert r.exit_code == 0, r.output
    assert "0 replacements, equivalence PASS" in r.output


def test_map_malformed_blif(runner, tmp_path):
    bad = tmp_path / "bad.blif"
    bad.write_text(".model x\n.inputs a\n.outputs y\n.frobnicate\n.end\n")
    r = runner.invoke(main, ["map", str(bad), "--out", str(tmp_path)])
    assert r.exit_code == 2


def test_map_latch_with_tokens_past_the_init(runner, tmp_path):
    """A .latch line ends at its init: a token after it exits 2, where it
    used to map with the token ignored."""
    text = open(f"{CORPUS}/f115_nandinv.blif").read().replace(
        ".latch f fq re clk 0", ".latch f fq re clk 1 extra")
    bad = tmp_path / "bad.blif"
    bad.write_text(text)
    r = runner.invoke(main, ["map", str(bad), "--out", str(tmp_path)])
    assert r.exit_code == 2
    assert "malformed .latch" in r.output


@pytest.mark.parametrize("text", ["", "\n  \n", "# no netlist here\n"])
def test_map_blif_without_directives(runner, tmp_path, text):
    """A file with no directive is no netlist: it exits 2, where it used
    to map as an empty design with equivalence PASS."""
    empty = tmp_path / "empty.blif"
    empty.write_text(text)
    r = runner.invoke(main, ["map", str(empty), "--out", str(tmp_path)])
    assert r.exit_code == 2, r.output
    assert "no BLIF directive" in r.output
    assert not (tmp_path / "equivalence.txt").exists()


# a * (b + c + d + e + f): a 6-input threshold cone in four gates
SIX_INPUT_CONE = """.model six
.inputs a b c d e f
.outputs q
.names b c t1
00 0
.names d e t2
00 0
.names t1 t2 f o
000 0
.names a o y
11 1
.latch y q re clk 0
.end
"""


@pytest.mark.parametrize("k", ["6", "0"])
def test_map_k_out_of_range(runner, tmp_path, k):
    blif = tmp_path / "six.blif"
    blif.write_text(SIX_INPUT_CONE)
    r = runner.invoke(main, ["map", str(blif), "--k", k, "--out",
                             str(tmp_path)])
    assert r.exit_code == 2
    assert "--k" in r.output


@pytest.mark.parametrize("k", [6, 0])
@pytest.mark.parametrize("with_catalog", [False, True])
def test_map_ftl_k_out_of_range(k, with_catalog):
    catalog = build_catalog(5) if with_catalog else None
    with pytest.raises(ValueError, match="k must lie in 1..5"):
        map_ftl(parse_blif(SIX_INPUT_CONE), k=k, catalog=catalog)


# Fixed ids keep each case's name stable as cases are added or removed.
@pytest.mark.parametrize("flag", [["--trials", "0"], ["--trials", "-5"],
                                  ["--trials", str(2**32 + 1)]],
                         ids=["flag0", "flag1", "flag5"])
def test_mc_flags_out_of_range(runner, tmp_path, flag):
    r = runner.invoke(main, ["experiments", "yield-sweep", *flag, "--out",
                             str(tmp_path)])
    assert r.exit_code == 2
    assert flag[0] in r.output


def test_map_non_utf8_file(runner, tmp_path):
    blif = tmp_path / "latin1.blif"
    blif.write_bytes(b".model caf\xe9\n.inputs a\n.outputs a\n.end\n")
    r = runner.invoke(main, ["map", str(blif), "--out", str(tmp_path)])
    assert r.exit_code == 2, r.output
    assert str(blif) in r.output and "not UTF-8" in r.output


def test_map_missing_file(runner, tmp_path):
    r = runner.invoke(main, ["map", str(tmp_path / "nope.blif"), "--out",
                             str(tmp_path)])
    assert r.exit_code == 4


def test_byte_identical_reruns(runner, tmp_path):
    """Two runs of one configuration differ only in run.json."""
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        r = runner.invoke(main, ["experiments", "yield-sweep", "--trials",
                                 "300", "--seed", "7", "--out", str(out)])
        assert r.exit_code == 0
        outs.append({f.name: read(f) for f in out.iterdir()})
    assert sorted(outs[0]) == ["manifest.json", "run.json", "yield_sweep.csv"]
    del outs[0]["run.json"], outs[1]["run.json"]
    assert outs[0] == outs[1]


def test_reports_have_no_header_and_run_json_holds_the_stamp(runner,
                                                            tmp_path):
    """A report starts with its column row; the time of the run goes to
    run.json, and the old --no-header flag is an unknown option."""
    r = runner.invoke(main, ["catalog", "--n-max", "2", "--out",
                             str(tmp_path)])
    assert r.exit_code == 0, r.output
    assert read(tmp_path / "catalog.csv").startswith(
        "index,n,canonical_hex,weights,threshold\n")
    assert "generated" in json.loads(read(tmp_path / "run.json"))
    r = runner.invoke(main, ["catalog", "--no-header", "--out",
                             str(tmp_path / "again")])
    assert r.exit_code == 2
    assert "--no-header" in r.output


@pytest.mark.parametrize("rows", ["", "1\n"], ids=["no-row", "one-row"])
def test_map_zero_input_names(runner, tmp_path, rows):
    """A constant .names is a validation error: exit 2, naming the net."""
    blif = tmp_path / "const.blif"
    blif.write_text(f".model c\n.inputs a\n.outputs y\n.names y\n{rows}.end\n")
    r = runner.invoke(main, ["map", str(blif), "--out", str(tmp_path)])
    assert r.exit_code == 2, r.output
    assert "constant .names for 'y'" in r.output
