import json
import os

import numpy as np
import pytest

from hjkam.cli import main
from hjkam.flow import sigma_bound
from hjkam.hamiltonian import pendulum_model
from hjkam.laxoleinik import GridFunction


def run_cli(argv):
    return main(argv)


def test_gen_s_free(tmp_path):
    out = tmp_path / "o"
    code = run_cli(["gen-s", "--model", "free", "--t", "1", "--q0", "0",
                    "--q1", "1", "--sigma-eff", "1.5", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["S"] - 0.5) < 1e-9
    row = (out / "gen_s.csv").read_text().strip().split("\n")[1].split(",")
    assert abs(float(row[4]) - 0.5) < 1e-9
    meta = json.loads((out / "meta.json").read_text())
    assert meta["seed"] == 0 and "model_hash" in meta
    assert meta["sigma_policy"]["mode"] == "certified-override"


def test_default_window_is_certified(tmp_path):
    # without --sigma-eff the CLI certifies a working window by a twist scan,
    # not the formula bound m / (4 M^2)
    out = tmp_path / "g"
    assert run_cli(["gen-s", "--model", "free", "--t", "1", "--q0", "0", "--q1", "1",
                    "--out", str(out)]) == 0
    assert abs(json.loads((out / "summary.json").read_text())["S"] - 0.5) < 1e-9
    out = tmp_path / "a"
    assert run_cli(["alpha", "--model", "pendulum", "--grid", "32", "--out", str(out)]) == 0
    assert abs(json.loads((out / "summary.json").read_text())["alpha"] - 1.0) <= 1e-2
    policy = json.loads((out / "meta.json").read_text())["sigma_policy"]
    assert policy["mode"] == "certified-default" and policy["margin"] >= 0.0
    assert policy["t"] > 100 * sigma_bound(pendulum_model())


def test_check_pendulum_file(tmp_path):
    model_file = tmp_path / "pendulum.json"
    model_file.write_text(json.dumps({"family": "mechanical", "d": 1,
                                      "V_coeffs": [0.0, 1.0], "m": 1.0,
                                      "M": 40.0, "periodic": True}))
    out = tmp_path / "o"
    code = run_cli(["check", "--model", str(model_file), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "hypothesis_report.json").read_text())
    assert all(report["passes"].values())
    assert abs(report["M_emp"] - 4 * np.pi ** 2) < 1e-2


def test_check_reports_understated_M(tmp_path):
    # the declared M = 0.1 breaks H1; check must report it, not refuse the model
    model_file = tmp_path / "bad_M.json"
    model_file.write_text(json.dumps({"family": "mechanical", "V_coeffs": [0.0, 1.0],
                                      "M": 0.1}))
    out = tmp_path / "o"
    assert run_cli(["check", "--model", str(model_file), "--out", str(out)]) == 0
    report = json.loads((out / "hypothesis_report.json").read_text())
    assert report["passes"]["H1"] is False
    assert json.loads((out / "meta.json").read_text())["sigma_policy"]["mode"] == "formula"


def test_alpha_pendulum(tmp_path):
    out = tmp_path / "o"
    code = run_cli(["alpha", "--model", "pendulum", "--grid", "64", "--t-max", "6",
                    "--sigma-eff", "0.2", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["alpha"] - 1.0) <= 1e-2


def test_determinism_byte_identical(tmp_path):
    args = ["alpha", "--model", "pendulum", "--grid", "32", "--t-max", "3",
            "--sigma-eff", "0.2", "--seed", "7"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    for name in ("summary.json", "meta.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_flow_and_monodromy(tmp_path):
    out = tmp_path / "f"
    code = run_cli(["flow", "--model", "free", "--q0", "0", "--p0", "1",
                    "--t", "2", "--out", str(out)])
    assert code == 0
    lines = (out / "trajectory.csv").read_text().strip().split("\n")
    assert lines[0] == "t,q_0,p_0,H"
    assert abs(float(lines[-1].split(",")[1]) - 2.0) < 1e-12
    out2 = tmp_path / "m"
    code = run_cli(["monodromy", "--model", "free", "--q0", "0", "--p0", "1",
                    "--t", "0.3", "--out", str(out2)])
    assert code == 0
    mono = json.loads((out2 / "monodromy.json").read_text())
    assert abs(mono["blocks"]["dpQ"][0][0] - 0.3) < 1e-12


def test_action_lax_regularize_mane_aubry_calibrate(tmp_path):
    base = ["--model", "pendulum", "--grid", "32", "--sigma-eff", "0.2"]
    assert run_cli(["action", *base, "--t", "0.4", "--q0", "0.1", "--q1", "0.5",
                    "--out", str(tmp_path / "a")]) == 0
    assert run_cli(["lax", *base, "--t", "0.2", "--out", str(tmp_path / "l")]) == 0
    assert run_cli(["regularize", "--model", "free", "--grid", "32",
                    "--sigma-eff", "0.25", "--t", "0.5",
                    "--out", str(tmp_path / "r")]) == 0
    assert run_cli(["mane", *base, "--a", "1.0", "--out", str(tmp_path / "mn")]) == 0
    assert run_cli(["aubry", *base, "--out", str(tmp_path / "au")]) == 0
    mask = (tmp_path / "au" / "aubry_mask.csv").read_text().strip().split("\n")
    assert mask[0] == "node,q" and len(mask) >= 2
    assert run_cli(["weakkam", *base, "--out", str(tmp_path / "wk")]) == 0
    u = GridFunction.load(tmp_path / "wk" / "u.gridfn")
    assert u.n_per_dim == 32
    assert run_cli(["calibrate", *base, "--a", "1.0", "--q0", "0.15", "--q1", "0.45",
                    "--cap", "2.0", "--out", str(tmp_path / "c")]) == 0
    summary = json.loads((tmp_path / "c" / "summary.json").read_text())
    assert summary["energy_deviation"] <= 1e-4


def test_calibrate_forced_exits_1(tmp_path, capsys):
    desc = tmp_path / "forced.json"
    desc.write_text(json.dumps({"family": "forced", "V_coeffs": [0.0, 0.3]}))
    assert run_cli(["calibrate", "--model", str(desc), "--sigma-eff", "0.2", "--a", "1.5",
                    "--q0", "0.15", "--q1", "0.45", "--out", str(tmp_path / "c")]) == 1
    assert "energy level undefined" in capsys.readouterr().err


def test_config_errors_exit_1(tmp_path):
    assert run_cli(["alpha", "--bogus-flag"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"family": "mechanical", "junk": 1}))
    assert run_cli(["check", "--model", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert run_cli(["check", "--model", str(tmp_path / "missing.json"),
                    "--out", str(tmp_path / "o2")]) == 1


def test_unwritable_output_exits_1(tmp_path, capsys):
    # --out names an existing file, so the output directory cannot be made
    blocker = tmp_path / "taken"
    blocker.write_text("")
    assert run_cli(["check", "--model", "pendulum", "--out", str(blocker)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "taken" in err
    # an output file that is a directory cannot be written
    out = tmp_path / "o"
    (out / "hypothesis_report.json").mkdir(parents=True)
    assert run_cli(["check", "--model", "pendulum", "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["alpha", "--t-max", "0"], ["alpha", "--t-step", "0"],
                                  ["weakkam", "--t-step", "0"]])
def test_nonpositive_step_or_cap_exits_1(tmp_path, argv):
    assert run_cli(argv + ["--model", "pendulum", "--grid", "16", "--sigma-eff", "0.2",
                           "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("command", [["gen-s", "--t", "0.1"], ["action", "--t", "2"]])
def test_non_finite_endpoint_exits_1(tmp_path, capsys, command):
    out = tmp_path / "o"
    assert run_cli(command + ["--model", "pendulum", "--q0", "0.1", "--q1", "nan",
                              "--sigma-eff", "0.2", "--out", str(out)]) == 1
    assert "finite" in capsys.readouterr().err
    assert not (out / "gen_s.csv").exists()


@pytest.mark.parametrize("command", [
    ["action", "--t", "inf", "--q0", "0.1", "--q1", "0.5", "--sigma-eff", "0.2"],
    ["gen-s", "--t", "nan", "--q0", "0.1", "--q1", "0.3", "--sigma-eff", "0.2"],
    ["gen-s", "--t", "0.1", "--q0", "0.1", "--q1", "0.3", "--sigma-eff", "nan"],
    ["gen-s", "--t", "0.1", "--q0", "0.1", "--q1", "0.3", "--sigma-eff", "inf"],
    ["lax", "--t", "inf", "--grid", "16", "--sigma-eff", "0.2"],
], ids=["action-t-inf", "gen-s-t-nan", "gen-s-sigma-nan", "gen-s-sigma-inf", "lax-t-inf"])
def test_non_finite_horizon_or_window_exits_1(tmp_path, capsys, command):
    out = tmp_path / "o"
    assert run_cli(command + ["--model", "pendulum", "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    for name in ("gen_s.csv", "minimizer.csv", "u_out.gridfn"):
        assert not (out / name).exists()


@pytest.mark.parametrize("command", [
    ["gen-s", "--t", "0.1", "--q0", "0.1,0.2", "--q1", "0.3,0.4"],
    ["monodromy", "--t", "0.3", "--q0", "0.1,0.2", "--p0", "0.5,0.1"],
    ["flow", "--t", "1", "--q0", "0.1,0.2", "--p0", "0.5,0.1"],
    ["action", "--t", "2", "--q0", "0.1,0.2", "--q1", "0.3,0.4"],
    ["flow", "--t", "1", "--q0", "abc", "--p0", "0.5"],
], ids=["gen-s-pair", "monodromy-pair", "flow-pair", "action-pair", "flow-text"])
def test_point_option_not_one_number_exits_1(tmp_path, capsys, command):
    # the models have one coordinate: a point option is one float
    out = tmp_path / "o"
    assert run_cli(command + ["--model", "pendulum", "--sigma-eff", "0.2",
                              "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("q_base", ["nan", "inf"])
def test_non_finite_base_point_exits_1(tmp_path, capsys, q_base):
    out = tmp_path / "o"
    assert run_cli(["mane", "--a", "1.0", "--q-base", q_base, "--model", "pendulum",
                    "--grid", "16", "--sigma-eff", "0.2", "--out", str(out)]) == 1
    assert "config error: point must be finite" in capsys.readouterr().err
    assert not (out / "phi.gridfn").exists()


@pytest.mark.parametrize("level", ["nan", "inf"])
@pytest.mark.parametrize("command", [["mane"], ["calibrate", "--q0", "0.15", "--q1", "0.45"]],
                         ids=["mane", "calibrate"])
def test_non_finite_level_exits_1(tmp_path, capsys, command, level):
    out = tmp_path / "o"
    assert run_cli(command + ["--a", level, "--model", "pendulum", "--grid", "16",
                              "--sigma-eff", "0.2", "--out", str(out)]) == 1
    assert "config error: energy level must be finite" in capsys.readouterr().err
    for name in ("phi.gridfn", "calibrated.csv"):
        assert not (out / name).exists()


def test_solver_errors_exit_2(tmp_path):
    # generating value requested past the twist window
    code = run_cli(["gen-s", "--model", "pendulum", "--t", "0.5", "--q0", "0",
                    "--q1", "0.2", "--sigma-eff", "0.2",
                    "--out", str(tmp_path / "o")])
    assert code == 2


def test_invalid_invocation_exits_1(tmp_path, capsys):
    # an unknown command, a grid of one node and a non-positive tolerance
    for argv, message in [(["nope"], "invalid choice"),
                          (["alpha", "--model", "free", "--grid", "1"],
                           "grid_n must be at least 2"),
                          (["alpha", "--model", "free", "--tol", "tol_wk=-1"],
                           "tolerance 'tol_wk' must be positive")]:
        out = tmp_path / "o"
        assert run_cli(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not out.exists()


def test_unchecked_library_inputs_exit_1(tmp_path, capsys):
    # a regularization delta that is not positive and a non-finite alpha are
    # refused by name before any operator apply
    for argv, message in [(["regularize", "--t", "0.2", "--delta", "0"], "delta = 0.0"),
                          (["regularize", "--t", "0.2", "--delta", "-1"], "delta = -1.0"),
                          (["weakkam", "--alpha", "nan", "--grid", "16", "--sigma-eff", "0.2"],
                           "alpha = nan")]:
        assert run_cli(argv + ["--model", "pendulum", "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: need a finite ") and message in err


def test_failed_run_takes_back_the_directories_it_made(tmp_path, monkeypatch, capsys):
    # a run that fails before writing a file leaves no directory that it
    # made, nested ones included; a directory that already existed stays
    import hjkam.cli as cli
    for argv in (["weakkam", "--t-step", "0", "--grid", "16"],
                 ["regularize", "--t", "0.2", "--delta", "0"],
                 ["weakkam", "--alpha", "nan", "--grid", "16", "--sigma-eff", "0.2"]):
        argv = argv + ["--model", "pendulum"]
        assert run_cli(argv + ["--out", str(tmp_path / "a" / "b" / "c")]) == 1
        assert os.listdir(tmp_path) == []
        (tmp_path / "kept").mkdir()
        assert run_cli(argv + ["--out", str(tmp_path / "kept")]) == 1
        assert os.listdir(tmp_path) == ["kept"] and os.listdir(tmp_path / "kept") == []
        (tmp_path / "kept").rmdir()
    assert capsys.readouterr().err.count("config error") == 6
    # an --out that cannot be made exits 1 before anything runs
    (tmp_path / "taken").write_text("")
    monkeypatch.setattr(cli, "_run", lambda args: pytest.fail("ran past an unwritable --out"))
    assert run_cli(["weakkam", "--model", "pendulum", "--grid", "16",
                    "--out", str(tmp_path / "taken" / "o")]) == 1
    assert "config error: file error" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["taken"]


def test_tol_flag_parsing(tmp_path, capsys):
    # a given tolerance is recorded in meta.json; one that is left out is not
    out = tmp_path / "o"
    assert run_cli(["alpha", "--model", "free", "--grid", "16", "--tol", "tol_wk=1e-3",
                    "--out", str(out)]) == 0
    assert json.loads((out / "meta.json").read_text())["tolerances"] == {"tol_wk": 1e-3}
    assert run_cli(["alpha", "--model", "free", "--grid", "16", "--out", str(out)]) == 0
    assert json.loads((out / "meta.json").read_text())["tolerances"] == {}
    assert run_cli(["alpha", "--model", "free", "--tol", "oops",
                    "--out", str(tmp_path / "bad")]) == 1
    assert "expected NAME=VALUE" in capsys.readouterr().err


def test_unknown_tolerance_name_rejected(tmp_path, capsys):
    # only tol_alpha and tol_wk are read; a misspelt name would otherwise be
    # recorded in meta.json while the run used the default
    out = tmp_path / "o"
    assert run_cli(["alpha", "--model", "free", "--grid", "16",
                    "--tol", "tol_alpa=1e-9", "--out", str(out)]) == 1
    assert "config error: unknown tolerance 'tol_alpa'" in capsys.readouterr().err
    assert not (out / "meta.json").exists()


@pytest.mark.parametrize("argv", [
    ["accept", "--criteria", "x"],
    ["accept", "--criteria", "1,,2"],
    ["accept", "--criteria", "99"],
    ["check", "--model", "pendulum", "--seed", "-1"],
], ids=["criteria-text", "criteria-empty", "criteria-unknown", "seed-negative"])
def test_bad_criteria_or_seed_exits_1(tmp_path, capsys, argv):
    # a criterion list that is not numbers of criteria, or a seed numpy's
    # generator refuses, is a configuration error before anything runs
    out = tmp_path / "o"
    assert run_cli(argv + ["--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (out / "meta.json").exists()


@pytest.mark.parametrize("text, reason", [('{"family": "mechanical", "V_coeffs": [0.0, 1.0', "malformed"),
                                          ('{"family": "mechanical", "V_coeffs": "abc"}', "bad model"),
                                          ('[1, 2]', "JSON object")])
def test_malformed_model_file_exits_1(tmp_path, capsys, text, reason):
    # truncated JSON, a bad field value and a description that is not an object
    model_file = tmp_path / "model.json"
    model_file.write_text(text)
    assert run_cli(["check", "--model", str(model_file), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and reason in err


def test_accept_byte_identical(tmp_path):
    # acceptance.json holds no timings, so two identical runs write identical files
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert run_cli(["accept", "--criteria", "1,2", "--out", str(out)]) == 0
    criteria = json.loads((runs[0] / "acceptance.json").read_text())["criteria"]
    assert [c["number"] for c in criteria] == [1, 2] and all(c["passed"] for c in criteria)
    for name in ("acceptance.json", "meta.json"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()


def test_grid_function_csv(tmp_path):
    # T^t of zero on the free model is zero: one "q,value" row per node
    out = tmp_path / "o"
    assert run_cli(["lax", "--model", "free", "--grid", "4", "--t", "0.1",
                    "--sigma-eff", "0.25", "--out", str(out)]) == 0
    lines = (out / "u_out.csv").read_text().strip().split("\n")
    assert lines[0] == "q,value"
    assert len(lines) == 5
    assert all(line.endswith(",0") for line in lines[1:])


def test_import_loads_no_scipy():
    # scipy is imported inside the few functions that use it, so the package
    # and its CLI start without it
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, hjkam, hjkam.acceptance, hjkam.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "[]"
