import json
import os

import numpy as np
import pytest

from hjkam.cli import RunConfig, build_parser, config_from_args, export_dataset, main
from hjkam.errors import ConfigError
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


@pytest.mark.parametrize("argv", [["alpha", "--t-max", "0"], ["alpha", "--t-step", "0"],
                                  ["weakkam", "--t-step", "0"]])
def test_nonpositive_step_or_cap_exits_1(tmp_path, argv):
    assert run_cli(argv + ["--model", "pendulum", "--grid", "16", "--sigma-eff", "0.2",
                           "--out", str(tmp_path / "o")]) == 1


def test_solver_errors_exit_2(tmp_path):
    # generating value requested past the twist window
    code = run_cli(["gen-s", "--model", "pendulum", "--t", "0.5", "--q0", "0",
                    "--q1", "0.2", "--sigma-eff", "0.2",
                    "--out", str(tmp_path / "o")])
    assert code == 2


def test_runconfig_validation():
    with pytest.raises(ConfigError):
        RunConfig(command="nope", model_source="free", out_dir=".")
    with pytest.raises(ConfigError):
        RunConfig(command="alpha", model_source="free", out_dir=".", grid_n=1)
    with pytest.raises(ConfigError):
        RunConfig(command="alpha", model_source="free", out_dir=".",
                  tolerances={"tol_wk": -1.0})


def test_tol_flag_parsing():
    parser = build_parser()
    args = parser.parse_args(["alpha", "--model", "free", "--tol", "tol_wk=1e-3"])
    config = config_from_args(args)
    assert config.tolerances == {"tol_wk": 1e-3}
    with pytest.raises(ConfigError):
        config_from_args(parser.parse_args(["alpha", "--model", "free",
                                            "--tol", "oops"]))


def test_unknown_tolerance_name_rejected(tmp_path, capsys):
    # only tol_alpha and tol_wk are read; a misspelt name would otherwise be
    # recorded in meta.json while the run used the default
    with pytest.raises(ConfigError, match="tol_alpa"):
        RunConfig(command="alpha", model_source="free", out_dir=".",
                  tolerances={"tol_alpa": 1e-9})
    out = tmp_path / "o"
    assert run_cli(["alpha", "--model", "free", "--grid", "16",
                    "--tol", "tol_alpa=1e-9", "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (out / "meta.json").exists()


def test_export_dataset_gridfunction(tmp_path):
    u = GridFunction(1, 4, np.zeros(4))
    path = export_dataset(u, "csv", str(tmp_path / "u.csv"))
    lines = open(path).read().strip().split("\n")
    assert lines[0] == "q,value"
    assert len(lines) == 5
    assert all(line.endswith(",0") for line in lines[1:])
    with pytest.raises(ConfigError):
        export_dataset(u, "yaml", str(tmp_path / "u.yaml"))


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
