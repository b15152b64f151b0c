"""Command-line surface: files, determinism, exit codes, report schema."""

import csv
import dataclasses
import io
import json
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gridcoreset import cli, solver
from gridcoreset.cli import (
    CSV_FIELDS,
    _parse_axes,
    generate_instance,
    instance_from_dict,
    load_instance,
    main,
    save_instance,
)
from gridcoreset.diagrams import check_compatibility
from gridcoreset.model import Instance, NormFamily

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = FIXTURES / "instances" / "gen_d1_rho3_k2_seed0.json"
GOLDEN_COARSE = FIXTURES / "instances" / "gen_d2_rho6x6_k2_seed0.json"  # plans tau = 4x4
# Anisotropic, so planned at epsilon/3: tau = 5x5, where epsilon itself plans 4x4.
GOLDEN_ANISO = FIXTURES / "instances" / "gen_d2_rho6x5_k2_seed3_aniso1x4.json"


def test_parse_axes_forms():
    assert _parse_axes("6,6") == (6, 6)
    assert _parse_axes("6x6") == (6, 6)
    assert _parse_axes("8") == (8,)
    assert _parse_axes("10x04,0") == (10, 4, 0)  # every all-digit form keeps its value
    assert _parse_axes("0" * 5000 + "21") == (21,)  # leading zeros past int()'s digit limit
    # An empty entry is an error, not skipped.  An entry is ASCII digits, so int()'s other
    # forms fail: underscores, signs, spaces, Arabic-Indic three and fullwidth four.
    for text in ("4,,4", "6,", "x6", "", "6;6", "1_0", " +4 ", "\u0663", "\uff14", "6, 6"):
        with pytest.raises(ValueError, match=re.escape(f"got {text!r}")):
            _parse_axes(text)


def test_gen_reproduces_golden_fixture(tmp_path):
    # Every committed instance, from gen with the options its name records; d is rho's length.
    cases = ((["--rho", "3", "--k", "2", "--seed", "0"], GOLDEN),
             (["--rho", "6,6", "--k", "2", "--seed", "0"], GOLDEN_COARSE),
             (["--rho", "6,5", "--k", "2", "--seed", "3", "--anisotropy", "1,4"], GOLDEN_ANISO))
    assert {g for _, g in cases} == set((FIXTURES / "instances").glob("*.json"))
    for argv, golden in cases:
        out = tmp_path / golden.name
        assert main(["gen", *argv, "--out", str(out)]) == 0
        assert out.read_bytes() == golden.read_bytes()


def test_gen_seed_sensitivity(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["gen", "--rho", "3,3", "--k", "3", "--seed", "7",
          "--out", str(a)])
    main(["gen", "--rho", "3,3", "--k", "3", "--seed", "8",
          "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()
    main(["gen", "--rho", "3,3", "--k", "3", "--seed", "7",
          "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_gen_anisotropy(tmp_path):
    out = tmp_path / "aniso.json"
    assert main(["gen", "--rho", "4,4", "--k", "2", "--seed", "1",
                 "--anisotropy", "1,4", "--out", str(out)]) == 0
    inst = load_instance(out)
    assert inst.norms is not None
    lo, hi = inst.norms.lambda_min, inst.norms.lambda_max
    assert 1.0 - 1e-9 <= lo <= hi <= 4.0 + 1e-9
    # A degenerate range yields exact multiples of the identity.
    main(["gen", "--rho", "4,4", "--k", "2", "--seed", "1",
          "--anisotropy", "2,2", "--out", str(out)])
    inst = load_instance(out)
    for mat in inst.norms.matrices:
        assert np.array_equal(mat, 2.0 * np.eye(2))


def test_save_load_roundtrip(tmp_path):
    inst = generate_instance((3, 3), 3, seed=9, anisotropy=(1.0, 3.0), epsilon=0.25)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    back = load_instance(path)
    assert back.k == inst.k and back.rho == inst.rho
    assert back.kappa == inst.kappa
    assert back.kappa_units == inst.kappa_units
    assert np.array_equal(back.sites, inst.sites)
    assert np.array_equal(back.norms.matrices, inst.norms.matrices)
    assert back.epsilon == inst.epsilon


def test_kappa_json_forms():
    pairs = instance_from_dict(
        {"rho": [2], "k": 2, "kappa": [[1, 4], [3, 4]], "sites": [[0.2], [0.8]]})
    decimals = instance_from_dict(
        {"rho": [2], "k": 2, "kappa": [0.25, 0.75], "sites": [[0.2], [0.8]]})
    assert pairs.kappa == decimals.kappa == (0.25, 0.75)
    with pytest.raises(ValueError):
        instance_from_dict(
            {"rho": [2], "k": 2, "kappa": [[1, 4, 9], [3, 4]],
             "sites": [[0.2], [0.8]]})


def test_solve_command(tmp_path, capsys):
    out = tmp_path / "clustering.json"
    assert main(["solve", str(GOLDEN), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "objective" in text and "duality_gap" in text
    doc = json.loads(out.read_text())
    assert doc["resolution"] == [3]
    assert doc["fractional_count"] <= 2
    total = sum(v for _, _, v in doc["entries"])
    assert abs(total - 8.0) <= 1e-12  # column sums over 8 points


def test_solve_at_tau_matches_coarsened_file(tmp_path, capsys):
    coarse = tmp_path / "coarse.json"
    assert main(["coarsen", str(GOLDEN), "--tau", "1", "--out",
                 str(coarse)]) == 0
    capsys.readouterr()
    assert main(["solve", str(coarse)]) == 0
    via_file = capsys.readouterr().out
    assert main(["solve", str(GOLDEN), "--tau", "1"]) == 0
    via_flag = capsys.readouterr().out
    pick = lambda txt: [l for l in txt.splitlines() if l.startswith("objective")]
    assert pick(via_file) == pick(via_flag)


@pytest.mark.parametrize("name, tau", [("golden", "1"), ("golden", "3"), ("coarse", "4,4"),
                                       ("coarse", "2,5"), ("dyadic", "3,4"), ("aniso", "3,4")])
def test_solve_at_tau_is_solve_of_coarsened_file(tmp_path, capsys, name, tau):
    # solve --tau solves the instance coarsen writes: every line but the time agrees.
    path = {"golden": GOLDEN, "coarse": GOLDEN_COARSE, "aniso": GOLDEN_ANISO}.get(name)
    if path is None:  # sites over 1/64: the exact path, whose cost unit follows tau
        doc = json.loads(GOLDEN_COARSE.read_text())
        doc["sites"] = [[round(v * 64) / 64 for v in site] for site in doc["sites"]]
        path = tmp_path / "dyadic.json"
        path.write_text(json.dumps(doc))
    coarse = tmp_path / "c.json"
    assert main(["coarsen", str(path), "--tau", tau, "--out", str(coarse)]) == 0
    capsys.readouterr()
    outputs = []
    for argv in (["solve", str(coarse)], ["solve", str(path), "--tau", tau]):
        assert main(argv) == 0
        outputs.append([line for line in capsys.readouterr().out.splitlines()
                        if not line.startswith("wall_time_s")])
    assert outputs[0] == outputs[1]
    assert f"exact_arithmetic {name == 'dyadic'}" in outputs[0]


@pytest.mark.parametrize("command", ["solve", "coarsen", "verify", "bench"])
@pytest.mark.parametrize("path, tau", [(GOLDEN, "0"), (GOLDEN_ANISO, "0,0")],
                         ids=["isotropic", "anisotropic"])
def test_tau_of_fewer_points_than_clusters_exits_2(tmp_path, capsys, command, path, tau):
    # The coarse problem is an Instance, so every command refuses a coarse grid
    # of fewer points than clusters as coarsen does, and writes no report.
    out = tmp_path / "out"
    assert main([command, str(path), "--tau", tau, "--out", str(out)]) == 2
    assert "cluster count 2 exceeds point count 1" in capsys.readouterr().err
    assert not out.exists()


def test_coarsen_reports_plan(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert main(["coarsen", str(GOLDEN), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "tau 3 (tau_star 4, clamped)" in text
    assert "delta 0.0" in text
    doc = json.loads(out.read_text())
    assert doc["plan"]["delta"] == [0, 1]
    assert doc["plan"]["tau"] == [3]


def test_verify_golden_csv_below_full_resolution(tmp_path):
    # The golden files were written before verify shared work between equal grids.
    inst = tmp_path / "gen_d2_rho6x6_k2_seed0.json"
    assert main(["gen", "--rho", "6,6", "--k", "2", "--seed", "0",
                 "--out", str(inst)]) == 0
    assert inst.read_bytes() == GOLDEN_COARSE.read_bytes()
    out = tmp_path / "r.csv"
    assert main(["verify", str(inst), "--trials", "3", "--seed", "4", "--out", str(out)]) == 0
    golden = FIXTURES / "verify" / "gen_d2_rho6x6_k2_seed0_trials3_seed4.csv"
    assert out.read_bytes() == golden.read_bytes()
    assert {r["resolution"] for r in _csv_rows(out)} == {"6x6", "4x4"}


def test_verify_golden_csv_anisotropic(tmp_path):
    inst = tmp_path / GOLDEN_ANISO.name
    assert main(["gen", "--rho", "6,5", "--k", "2", "--seed", "3",
                 "--anisotropy", "1,4", "--out", str(inst)]) == 0
    assert inst.read_bytes() == GOLDEN_ANISO.read_bytes()
    out = tmp_path / "r.csv"
    assert main(["verify", str(inst), "--trials", "3", "--seed", "4", "--out", str(out)]) == 0
    golden = FIXTURES / "verify" / "gen_d2_rho6x5_k2_seed3_aniso1x4_trials3_seed4.csv"
    assert out.read_bytes() == golden.read_bytes()


def test_planning_commands_agree_on_tau(tmp_path, capsys):
    coarse = tmp_path / "c.json"
    assert main(["coarsen", str(GOLDEN_ANISO), "--out", str(coarse)]) == 0
    assert "tau 5x5 (tau_star 5)" in capsys.readouterr().out
    doc = json.loads(coarse.read_text())
    assert doc["rho"] == doc["plan"]["tau"] == [5, 5]
    # The coarse file keeps the user's epsilon, and its plan block holds the plan's.
    assert doc["epsilon"] == 0.5 and doc["plan"]["epsilon"] == 1 / 6
    reports = {}
    for command in ("verify", "bench"):
        out = tmp_path / f"{command}.csv"
        assert main([command, str(GOLDEN_ANISO), "--trials", "1", "--out", str(out)]) == 0
        reports[command] = [r["resolution"] for r in _csv_rows(out)]
    assert reports == {"verify": ["5x5"], "bench": ["6x5", "5x5"]}


def test_coarsening_a_coarse_anisotropic_file_plans_the_same_tau(tmp_path, capsys):
    # The coarse file's epsilon is the user's, so planning it again divides by 3 once.
    coarse, again = tmp_path / "c.json", tmp_path / "c2.json"
    assert main(["coarsen", str(GOLDEN_ANISO), "--out", str(coarse)]) == 0
    assert main(["coarsen", str(coarse), "--out", str(again)]) == 0
    taus = [line for line in capsys.readouterr().out.splitlines() if line.startswith("tau ")]
    assert taus == ["tau 5x5 (tau_star 5)"] * 2
    docs = [json.loads(p.read_text()) for p in (coarse, again)]
    assert [d["epsilon"] for d in docs] == [0.5, 0.5]
    assert [(d["plan"]["tau"], d["plan"]["tau_star"]) for d in docs] == [([5, 5], 5)] * 2


@pytest.mark.parametrize("instance, calls", [(GOLDEN, 1), (GOLDEN_COARSE, 2)])
def test_verify_certifies_each_distinct_solve_once(tmp_path, monkeypatch, instance, calls):
    # GOLDEN plans tau = rho, so its fine and coarse solves are one result.
    seen = []

    def counting(*args, **kwargs):
        seen.append(args)
        return check_compatibility(*args, **kwargs)

    monkeypatch.setattr(cli, "check_compatibility", counting)
    out = tmp_path / "r.csv"
    assert main(["verify", str(instance), "--trials", "1", "--out", str(out)]) == 0
    assert len(seen) == calls
    rows = [r for r in _csv_rows(out) if r["check"] == "compatibility"]
    assert len(rows) == 2


def test_verify_deterministic_csv(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["verify", str(GOLDEN), "--trials", "3", "--seed", "4"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    # Byte-stable across commits, not only between two runs.
    golden = FIXTURES / "verify" / "gen_d1_rho3_k2_seed0_trials3_seed4.csv"
    assert a.read_bytes() == b.read_bytes() == golden.read_bytes()
    rows = _csv_rows(a)
    assert set(r["check"] for r in rows) == {
        "property_a", "property_b", "compatibility"}
    assert all(r["wall_time_s"] == "" for r in rows)
    assert all(r["seed"] == "4" for r in rows)
    header = a.read_text().splitlines()[0]
    assert header == ",".join(CSV_FIELDS)


def test_report_fields_keep_numpy_scalars_plain():
    # A numpy float64 field is written as its value, not as np.float64(...).
    reporter = cli._Reporter("inst", 4)
    reporter.add(cli.as_resolution((3,)), 0, "property_b",
                 margin=np.float64(0.1), objective=0.25, fractional_count=np.int64(2))
    out = io.StringIO()
    reporter.write(out)
    (row,) = csv.DictReader(io.StringIO(out.getvalue()))
    assert (row["margin"], row["objective"], row["fractional_count"]) == ("0.1", "0.25", "2")
    assert row["delta"] == "" and row["resolution"] == "3"


NAN = float("nan")
FAKE_SOLVE = SimpleNamespace(objective=0.5, fractional_count=0)


# property_b fails for real at tau = 1 with epsilon 0.01; the other checks are
# made to fail.  A margin of None is a real violation, below -1e-9; a NaN
# margin fails too.
@pytest.mark.parametrize("check, fake, margin", [
    ("property_a", ("verify_property_a", lambda *a: (np.float64(1.0), 0.0)), "1.0"),
    ("property_b", None, None),
    ("compatibility", ("check_compatibility",
                       lambda *a: SimpleNamespace(compatible=False, worst_violation=1.0)), "1.0"),
    ("transfer", ("transfer_bound", lambda *a: 0.5), None),
    ("property_a", ("verify_property_a", lambda *a: (NAN, 0.0)), "nan"),
    ("property_b", ("verify_property_b", lambda *a: (NAN, FAKE_SOLVE, FAKE_SOLVE)), "nan"),
    ("transfer", ("transfer_bound", lambda *a: NAN), "nan"),
], ids=["property_a", "property_b", "compatibility", "transfer",
        "property_a-nan", "property_b-nan", "transfer-nan"])
def test_verify_violation_exits_3(tmp_path, capsys, monkeypatch, check, fake, margin):
    path = tmp_path / "a,b.json"  # the stderr row quotes fields as the report does
    if check == "transfer":
        main(["gen", "--rho", "3,3", "--k", "2", "--seed", "3",
              "--anisotropy", "1,5", "--out", str(path)])
    else:
        path.write_text(GOLDEN.read_text())
    if fake is not None:
        monkeypatch.setattr(cli, *fake)
    tau = ["--tau", "1", "--epsilon", "0.01"] if check == "property_b" else []
    code = main(["verify", str(path), *tau, "--trials", "5", "--seed", "0"])
    assert code == 3
    (fields,) = csv.reader(capsys.readouterr().err.splitlines())
    assert len(fields) == len(CSV_FIELDS)
    assert fields[CSV_FIELDS.index("instance_id")] == "a,b"
    assert fields[CSV_FIELDS.index("check")] == check
    if margin is None:
        assert float(fields[CSV_FIELDS.index("margin")]) < -1e-9
    else:  # property_a's is a numpy float64, written as its value
        assert fields[CSV_FIELDS.index("margin")] == margin


def _trial_instance(tmp_path, anisotropic):
    if not anisotropic:
        return GOLDEN_COARSE
    path = tmp_path / "aniso.json"
    assert main(["gen", "--rho", "4,4", "--k", "2", "--seed", "3",
                 "--anisotropy", "1,5", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("anisotropic", [False, True], ids=["isotropic", "anisotropic"])
def test_adding_trials_keeps_earlier_rows(tmp_path, anisotropic):
    path = _trial_instance(tmp_path, anisotropic)
    two, three = tmp_path / "2.csv", tmp_path / "3.csv"
    for trials, out in (("2", two), ("3", three)):
        assert main(["verify", str(path), "--trials", trials, "--seed", "5",
                     "--out", str(out)]) == 0
    short, full = two.read_bytes(), three.read_bytes()
    assert len(full) > len(short) and full.startswith(short)


@pytest.mark.parametrize("anisotropic", [False, True], ids=["isotropic", "anisotropic"])
def test_bench_solves_the_sites_verify_draws(tmp_path, anisotropic):
    path = _trial_instance(tmp_path, anisotropic)
    reports = {}
    for command in ("verify", "bench"):
        out = tmp_path / f"{command}.csv"
        assert main([command, str(path), "--trials", "3", "--seed", "5", "--out", str(out)]) == 0
        reports[command] = _csv_rows(out)
    verified = [(r["trial"], r["objective"], r["resolution"]) for r in reports["verify"]
                if r["check"] in ("property_b", "transfer")]
    full, coarse = reports["bench"][::2], reports["bench"][1::2]
    assert [(r["trial"], r["objective"]) for r in full] == [v[:2] for v in verified]
    assert [r["resolution"] for r in coarse] == [v[2] for v in verified]
    assert [r["trial"] for r in full] == ["0", "1", "2"]


def test_verify_anisotropic_transfer(tmp_path):
    inst_path = tmp_path / "aniso.json"
    main(["gen", "--rho", "4,4", "--k", "2", "--seed", "3",
          "--anisotropy", "1,5", "--out", str(inst_path)])
    out = tmp_path / "rep.csv"
    assert main(["verify", str(inst_path), "--trials", "4", "--seed", "2",
                 "--out", str(out)]) == 0
    rows = _csv_rows(out)
    assert [r["check"] for r in rows] == ["transfer"] * 4
    assert all(float(r["margin"]) >= -1e-9 for r in rows)


def test_single_cluster_verify_passes(tmp_path):
    # With k=1 every coarse resolution is an exact coreset.
    for aniso in ([], ["--anisotropy", "1,3"]):
        inst_path = tmp_path / "k1.json"
        assert main(["gen", "--rho", "3,3", "--k", "1", "--seed", "4",
                     "--out", str(inst_path), *aniso]) == 0
        assert main(["verify", str(inst_path), "--trials", "3"]) == 0


def test_bench_schema(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    args = ["bench", str(GOLDEN), "--trials", "2", "--seed", "1"]
    assert main(args + ["--out", str(out)]) == 0
    rows = _csv_rows(out)
    assert len(rows) == 4  # full + coarse per trial
    capsys.readouterr()
    assert main(args) == 0  # without --out the report goes to stdout
    header, *data = csv.reader(io.StringIO(capsys.readouterr().out))
    assert header == CSV_FIELDS and len(data) == 4
    assert [r[CSV_FIELDS.index("resolution")] for r in data] == [r["resolution"] for r in rows]
    fine, coarse = rows[0], rows[1]
    assert fine["resolution"] == "3" and fine["wall_time_s"] != ""
    assert coarse["speedup"] != "" and coarse["delta"] != ""
    quality = float(coarse["quality_ratio"])
    assert 1.0 - 1e-9 <= quality <= 3.0 + 1e-9  # (1+eps)/(1-eps) at eps=1/2


def test_oracle_command(capsys):
    assert main(["oracle", "--rho", "4", "--k", "4"]) == 0
    text = capsys.readouterr().out
    assert "dp_cost 0.0048828125" in text
    assert "closed_form 0.0048828125" in text
    assert "lower_bound" in text


def test_validation_failures_exit_2(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad)]) == 2
    unbalanced = tmp_path / "unbalanced.json"
    unbalanced.write_text(json.dumps(
        {"rho": [2], "k": 2, "kappa": [0.5, 0.25], "sites": [[0.2], [0.8]]}))
    assert main(["verify", str(unbalanced)]) == 2
    # A JSON true or a string where a number belongs is rejected, not read as a number.
    aniso = json.loads(GOLDEN_ANISO.read_text())
    for field, doc in (("kappa", _golden_with(kappa=[[True, 2], [1, 2]])),
                       ("kappa", _k1_with(kappa=[True])),
                       ("sites", _golden_with(sites=[[True], [0.5]])),
                       ("matrices", _golden_with(matrices=[[[True]], [[1.0]]])),
                       ("epsilon", _golden_with(epsilon=True)),
                       ("epsilon", _golden_with(epsilon="0.25")),
                       ("sites", _golden_with(sites=[["0.5"], ["0.25"]])),
                       ("matrices", {**aniso, "matrices": json.loads(  # every entry a string
                           json.dumps(aniso["matrices"]), parse_float=str, parse_int=str)}),
                       ("kappa", _golden_with(kappa=["0.75", "0.25"]))):
        not_number = tmp_path / "not_number.json"
        not_number.write_text(json.dumps(doc))
        capsys.readouterr()
        for command in ("solve", "verify"):
            assert main([command, str(not_number)]) == 2
            assert f"{field} must hold numbers" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:  # the dimension is rho's length, not an option
        main(["gen", "--d", "2", "--rho", "3", "--k", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --d 2" in capsys.readouterr().err
    assert main(["gen", "--rho", "3,3", "--k", "0"]) == 2
    assert "error: cluster count must be >= 1, got 0" in capsys.readouterr().err
    for argv, text in ((["gen", "--rho", "4,,4", "--k", "2"], "4,,4"),
                       (["gen", "--rho", "6,", "--k", "2"], "6,"),
                       (["gen", "--rho", "", "--k", "2"], ""),
                       (["solve", str(GOLDEN), "--tau", "x6"], "x6"),
                       (["verify", str(GOLDEN), "--tau", "2,,"], "2,,"),
                       (["gen", "--rho", "1_0", "--k", "2"], "1_0"),
                       (["gen", "--rho", " +4 ", "--k", "2"], " +4 "),
                       (["gen", "--rho", "\u0663", "--k", "2"], "\u0663"),
                       (["solve", str(GOLDEN), "--tau", "\uff14"], "\uff14"),
                       (["verify", str(GOLDEN), "--tau", "6, 6"], "6, 6"),
                       # Past the cap by digit count, and past int()'s 4300-digit limit:
                       # this message, which names the range, not Python's advice.
                       (["gen", "--rho", "100", "--k", "2"], "100"),
                       (["gen", "--rho", "1" * 5000, "--k", "2"], "1" * 5000)):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and f"got {text!r}" in err
    report = tmp_path / "x.csv"
    for argv in (["verify", str(GOLDEN), "--trials", "-2", "--out", str(report)],
                 ["verify", str(GOLDEN), "--trials", "0"],
                 ["bench", str(GOLDEN), "--trials", "-1"]):
        with pytest.raises(SystemExit) as exc:  # a usage error, from argparse
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "argument --trials: must be at least 1" in err
    assert not report.exists()
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(GOLDEN), "--trials", "2.5"])
    assert exc.value.code == 2
    assert "argument --trials: invalid int value: '2.5'" in capsys.readouterr().err


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    # main builds its parser once per process; each call must behave as
    # with a parser built for it alone: options left out get their defaults
    # again, and usage errors and help exit as before.
    inst = tmp_path / "square.json"
    main(["gen", "--rho", "3,3", "--k", "3", "--seed", "5", "--out", str(inst)])
    verify = ["verify", str(GOLDEN), "--trials", "3", "--seed", "4"]
    calls = [verify + ["--out", "a.csv"], verify,
             ["solve", str(inst), "--tau", "2,2"], ["solve", str(inst)],
             ["solve", str(inst), "--no-such-flag"], ["--help"]]

    def run_all(workdir):
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        capsys.readouterr()
        results = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
            out, err = capsys.readouterr()
            out = [line for line in out.splitlines() if not line.startswith("wall_time_s")]
            files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
            results.append((code, out, err, files))
        return results

    assert cli.build_parser() is cli.build_parser()
    cached = run_all(tmp_path / "cached")
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    fresh = run_all(tmp_path / "fresh")
    assert cached == fresh
    assert [code for code, *_ in cached] == [0, 0, 0, 0, ("SystemExit", 2), ("SystemExit", 0)]
    golden = FIXTURES / "verify" / "gen_d1_rho3_k2_seed0_trials3_seed4.csv"
    assert cached[0][3] == {"a.csv": golden.read_bytes()}
    assert cached[1][1] == ["verified 3 trials (compatibility, property_a, property_b): "
                            "all passed"]
    assert cached[2][1][0] == "resolution 2x2" and cached[3][1][0] == "resolution 3x3"
    assert "unrecognized arguments: --no-such-flag" in cached[4][2]
    assert cached[5][1][0].startswith("usage: gridcoreset")


def _csv_rows(path):
    with path.open() as f:
        return list(csv.DictReader(f))


def _golden_with(**fields):
    doc = json.loads(GOLDEN.read_text())
    doc.update(fields)
    return doc


def _k1_with(**fields):  # a valid one-cluster file but for fields
    return _golden_with(**{"k": 1, "kappa": [[1, 1]], "sites": [[0.5]], **fields})


def _golden_without(key):
    doc = json.loads(GOLDEN.read_text())
    del doc[key]
    return doc


@pytest.mark.parametrize("doc", [
    [1, 2],
    "x",
    _golden_with(k=None),
    _golden_with(kappa=5),
    _golden_with(rho=None),
    _golden_with(epsilon=None),
    _golden_with(kappa=[[3, 0], [1, 4]]),
    _golden_with(matrices=[[[float("nan")]], [[1.0]]]),
    _golden_with(rho=[3.9]),
    _golden_with(k=2.7),
    _golden_with(k=2.0),
    _golden_with(d=1.5),
    _golden_with(kappa=[[2.5, 4], [2, 4]]),
    _golden_with(kappa=[[2**53 + 1, 2**54], [2**53 - 1, 2**54]]),
    _golden_with(kappa=[float("inf"), 0.5]),
    _golden_with(kappa=[10**400, 0.5]),
    _golden_without("rho"),
    _golden_without("kappa"),
    _k1_with(k=True),
    _k1_with(rho=[True, 5], d=2, sites=[[0.5, 0.5]]),
], ids=["list", "string", "k-null", "kappa-number", "rho-null", "epsilon-null",
        "kappa-over-0", "matrix-nan", "rho-float", "k-float", "k-integral-float",
        "d-float", "kappa-float-pair", "kappa-54-bits", "kappa-inf", "kappa-huge-int",
        "rho-missing", "kappa-missing", "k-true", "rho-true"])
def test_malformed_instance_files_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))  # Python's json writes and reads NaN
    with pytest.raises(ValueError):
        load_instance(path)
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    for key in ("rho", "kappa"):
        if isinstance(doc, dict) and key not in doc:
            assert err == f"error: malformed instance file {path}: missing key '{key}'\n"


D_MISMATCH = "d2.json"  # the golden file, rho with one axis, declaring d = 2


@pytest.mark.parametrize("argv, message", [
    (["solve", D_MISMATCH], "d = 2 does not match rho with 1 axes"),
    (["gen", "--rho", "2", "--k", "5"], "cluster count 5 exceeds point count 4"),
    (["gen", "--rho", "3", "--k", "8"], "no nonempty-cell draw in 100 attempts"),
    (["gen", "--rho", "3,3", "--k", "2", "--anisotropy", "3,1"],
     "anisotropy range must satisfy 0 < lo <= hi, got 3.0, 1.0"),
    # Checked before the 2^48-point coordinate array is asked for.
    (["gen", "--rho", "20,20,8", "--k", "2", "--anisotropy", "3,1"],
     "anisotropy range must satisfy 0 < lo <= hi, got 3.0, 1.0"),
    (["gen", "--rho", "3,3", "--k", "2", "--anisotropy", "1,inf"],
     "anisotropy range must be finite, got 1.0, inf"),
    # 2^48 points: numpy refuses the 6 PiB coordinate array at once, as it
    # exceeds any address space; never test a size a machine might fill.
    (["gen", "--rho", "20,20,8", "--k", "2"], "Unable to allocate"),
    (["gen", "--rho", "3,3", "--k", "2", "--anisotropy", "1"],
     "--anisotropy takes lo,hi, got '1'"),
    (["gen", "--rho", "3,3", "--k", "2", "--anisotropy", "1,2,3"],
     "--anisotropy takes lo,hi, got '1,2,3'"),
    # Checked before an anisotropic file's epsilon/3, so as for an isotropic file.
    (["coarsen", str(GOLDEN_ANISO), "--epsilon", "0.9", "--out", "c.json"],
     "epsilon must lie in (0, 1/2], got 0.9"),
    (["verify", str(GOLDEN_ANISO), "--epsilon", "1.2", "--out", "r.csv"],
     "epsilon must lie in (0, 1/2], got 1.2"),
], ids=["file-d-mismatch", "gen-k-above-n", "gen-draws-exhausted", "gen-anisotropy-reversed",
        "gen-anisotropy-reversed-past-memory", "gen-anisotropy-infinite", "gen-grid-past-memory",
        "gen-anisotropy-one-value", "gen-anisotropy-three-values", "coarsen-epsilon-above-half",
        "verify-epsilon-above-half"])
def test_rejected_inputs_exit_2(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / D_MISMATCH).write_text(json.dumps(_golden_with(d=2)))
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [D_MISMATCH]  # gen wrote nothing


def test_float_overflow_exits_2(tmp_path, capsys):
    big = tmp_path / "big.json"  # a valid file whose costs overflow float64
    far = tmp_path / "far.json"
    far.write_text(json.dumps(_golden_with(sites=[[1e200], [0.5]])))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["gen", "--rho", "3,3", "--k", "2",
                     "--anisotropy", "1e308,1e308", "--out", str(big)]) == 0
        for argv in (["solve", str(big)], ["verify", str(big), "--trials", "1"],
                     ["bench", str(big), "--trials", "1"], ["solve", str(far)]):
            capsys.readouterr()
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert err.startswith("error: costs overflow float64"), argv
            assert "objective" not in out and "all passed" not in out


def test_huge_finite_costs_solve_as_before(tmp_path, capsys):
    huge = tmp_path / "huge.json"
    near = tmp_path / "near.json"
    near.write_text(json.dumps(_golden_with(sites=[[1e150], [0.5]])))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["gen", "--rho", "3,3", "--k", "2",
                     "--anisotropy", "1e306,1e306", "--out", str(huge)]) == 0
        for path, objective in ((huge, "2.315852792735594e+305"),
                                (near, "7.499999999999999e+299")):
            capsys.readouterr()
            assert main(["solve", str(path)]) == 0
            assert f"objective {objective}\n" in capsys.readouterr().out


@pytest.mark.parametrize("k, message", [
    (0, "cluster count must be >= 1, got 0"),
    (5000, "cluster count 5000 exceeds point count 2048"),
    (2, "matrices not symmetric"),
], ids=["k-zero", "k-above-n", "k-valid"])
def test_instance_checks_k_before_matrices(tmp_path, capsys, k, message):
    # Instance checks its fields in order, so a bad k is named before bad matrices.
    path = tmp_path / "two_defects.json"
    doc = {**json.loads(GOLDEN_ANISO.read_text()), "k": k,
           "matrices": [[[1.0, 0.5], [0.0, 1.0]]] * 2}
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def _same_array(a, b):
    return (a.dtype, a.shape, a.flags.writeable, a.tobytes()) == \
        (b.dtype, b.shape, b.flags.writeable, b.tobytes())


def test_fixture_files_load_as_float64_fields():
    # The loader hands each field to Instance as read from JSON; the result
    # equals an Instance built from fields converted to float64 first.
    paths = sorted((FIXTURES / "instances").glob("*.json"))
    assert len(paths) == 3
    for path in paths:
        doc = json.loads(path.read_text())
        mats = doc["matrices"]
        built = Instance(k=doc["k"], rho=doc["rho"], kappa=cli._kappa_from_json(doc["kappa"]),
                         sites=np.asarray(doc["sites"], dtype=np.float64),
                         norms=None if mats is None else NormFamily(np.asarray(mats, np.float64)),
                         epsilon=float(doc["epsilon"]))
        loaded = load_instance(path)
        for field in dataclasses.fields(Instance):
            a, b = getattr(loaded, field.name), getattr(built, field.name)
            if field.name == "sites":
                assert _same_array(a, b), path
            elif field.name == "norms" and mats is not None:
                assert _same_array(a.matrices, b.matrices), path
                assert (a.lambda_min, a.lambda_max) == (b.lambda_min, b.lambda_max), path
            else:
                assert (type(a), a) == (type(b), b), (path, field.name)
    assert any(json.loads(p.read_text())["matrices"] is not None for p in paths)


def test_pivot_cap_exits_3(monkeypatch, capsys):
    def capped(*args, **kwargs):
        raise solver.PivotLimitError("network simplex exceeded 7 pivots")

    monkeypatch.setattr(cli, "solve_assignment", capped)
    assert main(["solve", str(GOLDEN)]) == 3
    assert capsys.readouterr().err == "error: network simplex exceeded 7 pivots\n"


def test_coarsen_tiny_epsilon(tmp_path, capsys, monkeypatch):
    # A valid epsilon whose size report overflows float64 along the old path.
    out = tmp_path / "tiny.coarse.json"
    assert main(["coarsen", str(GOLDEN_COARSE), "--epsilon", "1e-300", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "tau 6x6 (tau_star 668, clamped)" in text and "holds True" in text
    assert json.loads(out.read_text())["plan"]["tau_star"] == 668
    out.unlink()

    def fails(plan):
        raise ValueError("no report")

    monkeypatch.setattr(cli, "size_report", fails)  # the report comes before the file
    assert main(["coarsen", str(GOLDEN_COARSE), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: no report\n"
    assert not out.exists()


def test_coarsen_rejects_nan_site(tmp_path, capsys):
    doc = json.loads(GOLDEN.read_text())
    doc["sites"][0] = [float("nan")]
    src = tmp_path / "nan.json"
    src.write_text(json.dumps(doc))  # Python's json writes and reads NaN
    out = tmp_path / "nan.coarse.json"
    assert main(["coarsen", str(src), "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_console_script_runs():
    out = subprocess.run([sys.executable, "-c",
                          "from gridcoreset.cli import main; import sys; "
                          "sys.exit(main(['oracle', '--rho', '3', '--k', '2']))"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "dp_cost 0.01953125" in out.stdout


def test_module_runs_without_runpy_warning():
    # The package root must not import cli, or `python -m` warns that the
    # module is already in sys.modules before it runs as __main__.
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                          "gridcoreset.cli", "oracle", "--rho", "3", "--k", "2"],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "dp_cost 0.01953125" in out.stdout
