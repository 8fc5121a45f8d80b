"""Command-line front end: one command per object of the theory.

Every run writes a ``meta.json`` (model hash, twist-window policy,
tolerances, seed) next to its outputs so results are reproducible and
diffable; identical config and seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import ConfigError, HjkamError
from .flow import (PhaseState, certify_sigma, default_sigma_eff, integrate_flow,
                   monodromy, sigma_bound, write_csv)
from .generating import generating_S
from .hamiltonian import (HamiltonianModel, check_hypotheses, free_model,
                          model_from_dict, pendulum_model)
from .laxoleinik import GridFunction, apply_T, apply_T_dual, regularize_R
from .weakkam import (aubry_set, calibrated_curve, critical_value,
                      mane_potential, weak_kam_solve)

_BUILTIN_MODELS = {
    "free": free_model,
    "pendulum": pendulum_model,
}

_COMMANDS = ("check", "flow", "monodromy", "gen-s", "action", "lax", "regularize",
             "alpha", "weakkam", "mane", "aubry", "calibrate", "accept")
# commands that run no short-time solver: they record the formula bound and
# certify nothing, so that ``check`` still reports a model whose declared
# constants are wrong instead of failing on its twist scan
_WINDOWLESS = ("check", "flow", "monodromy", "accept")
# the tolerances that ``--tol NAME=VALUE`` sets, read by ``alpha`` and ``weakkam``
_TOLERANCES = ("tol_alpha", "tol_wk")


@dataclass
class RunConfig:
    """Validated invocation: command, model source, and knobs."""

    command: str
    model_source: object
    out_dir: str
    grid_n: int = 128
    seed: int = 0
    sigma_eff: float | None = None
    tolerances: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.grid_n < 2:
            raise ConfigError("grid_n must be at least 2")
        for name, val in self.tolerances.items():
            if name not in _TOLERANCES:
                raise ConfigError(f"unknown tolerance {name!r}; known: {', '.join(_TOLERANCES)}")
            if not (isinstance(val, (int, float)) and val > 0):
                raise ConfigError(f"tolerance {name!r} must be positive")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_json(path, payload):
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def export_dataset(result, fmt: str, path: str) -> str:
    """Write a result object as ``csv`` or ``json``; returns the path."""
    try:
        if fmt == "json":
            payload = result.to_dict() if hasattr(result, "to_dict") else result
            write_json(path, payload)
        elif fmt == "csv":
            if isinstance(result, GridFunction):
                write_csv(path, "q,value", np.column_stack([result.nodes, result.values]))
            elif hasattr(result, "to_csv"):
                result.to_csv(path)
            else:
                raise ConfigError(f"no CSV exporter for {type(result).__name__}")
        else:
            raise ConfigError(f"unknown export format {fmt!r}")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return path


def _load_model(source) -> tuple[HamiltonianModel, dict]:
    if isinstance(source, dict):
        return model_from_dict(source), source
    name = str(source)
    if name in _BUILTIN_MODELS:
        model = _BUILTIN_MODELS[name]()
        return model, {"family": model.family, "d": 1, "builtin": name}
    if not os.path.exists(name):
        raise ConfigError(f"model {name!r}: not a builtin and no such file")
    with open(name) as fh:
        raw = json.load(fh)
    return model_from_dict(raw), raw


def _model_hash(raw_desc: dict) -> str:
    blob = json.dumps(raw_desc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _sigma_policy(model, config: RunConfig):
    if config.sigma_eff is not None:
        t = float(config.sigma_eff)
        window = certify_sigma(model, t, seed=config.seed)
        return t, {"mode": "certified-override", **window.to_dict()}
    if config.command in _WINDOWLESS:
        return sigma_bound(model), {"mode": "formula", "value": sigma_bound(model)}
    window = default_sigma_eff(model, seed=config.seed)
    return window.t, {"mode": "certified-default", **window.to_dict()}


def _fvec(text: str) -> np.ndarray:
    return np.array([float(x) for x in str(text).split(",")], float)


def dispatch(config: RunConfig) -> int:
    """Run one command, writing a JSON summary plus datasets and meta.json."""
    os.makedirs(config.out_dir, exist_ok=True)
    model, raw_desc = _load_model(config.model_source)
    sigma, sigma_meta = _sigma_policy(model, config)
    opts = config.options
    out = lambda name: os.path.join(config.out_dir, name)
    summary = {"command": config.command, "seed": config.seed}
    files = []
    log_lines = [f"hjkam {config.command} (seed={config.seed}, grid={config.grid_n})"]

    if config.command == "check":
        report = check_hypotheses(model, n_samples=int(opts.get("samples", 400)),
                                  seed=config.seed)
        summary["report"] = report.to_dict()
        files.append(export_dataset(report, "json", out("hypothesis_report.json")))
        log_lines.append(f"passes: {report.passes}  m_emp={report.m_emp:.6g} "
                         f"M_emp={report.M_emp:.6g}")
    elif config.command == "flow":
        x0 = PhaseState(_fvec(opts["q0"]), _fvec(opts["p0"]))
        traj = integrate_flow(model, x0, float(opts.get("tau", 0.0)),
                              float(opts["t"]), step=opts.get("step"))
        files.append(export_dataset(traj, "csv", out("trajectory.csv")))
        summary["terminal_q"] = traj.Q[-1]
        summary["terminal_p"] = traj.P[-1]
        summary["energy_drift"] = traj.energy_drift()
        log_lines.append(f"terminal q={traj.Q[-1]} p={traj.P[-1]} "
                         f"drift={traj.energy_drift():.3e}")
    elif config.command == "monodromy":
        x0 = PhaseState(_fvec(opts["q0"]), _fvec(opts["p0"]))
        mono = monodromy(model, x0, float(opts.get("tau", 0.0)), float(opts["t"]))
        summary["blocks"] = {"dqQ": mono.dqQ, "dpQ": mono.dpQ,
                             "dqP": mono.dqP, "dpP": mono.dpP}
        summary["deviation"] = mono.deviation
        summary["symplectic_defect"] = mono.symplectic_defect()
        write_json(out("monodromy.json"), summary)
        files.append(out("monodromy.json"))
        log_lines.append(f"deviation={mono.deviation:.6g}")
    elif config.command == "gen-s":
        s = generating_S(model, float(opts.get("tau", 0.0)), float(opts["t"]),
                         _fvec(opts["q0"]), _fvec(opts["q1"]), sigma_eff=sigma)
        write_csv(out("gen_s.csv"), "tau,t,q0,q1,S,rho0,rho1,residual",
                  [[s.tau, s.t, s.q0[0], s.q1[0], s.S, s.rho0[0], s.rho1[0],
                    s.shoot_residual]])
        files.append(out("gen_s.csv"))
        summary.update({"S": s.S, "rho0": s.rho0, "rho1": s.rho1,
                        "residual": s.shoot_residual})
        log_lines.append(f"S={s.S:.12g}")
    elif config.command == "action":
        from .action import minimal_action
        A, path = minimal_action(model, float(opts.get("tau", 0.0)), float(opts["t"]),
                                 _fvec(opts["q0"]), _fvec(opts["q1"]),
                                 sigma_eff=sigma, seed=config.seed)
        files.append(export_dataset(path, "csv", out("minimizer.csv")))
        summary.update({"A": A, "segments": path.n,
                        "max_jump": float(np.max(path.momentum_jumps, initial=0.0))})
        log_lines.append(f"A={A:.12g} (n={path.n})")
    elif config.command in ("lax", "regularize"):
        if "u" in opts and opts["u"]:
            u = GridFunction.load(opts["u"])
        else:
            u = GridFunction(1, config.grid_n, np.zeros(config.grid_n))
        if config.command == "lax":
            op = apply_T_dual if opts.get("dual") else apply_T
            res = op(model, u, float(opts.get("tau", 0.0)), float(opts["t"]),
                     sigma_eff=sigma)
        else:
            res = regularize_R(model, u, float(opts.get("t0", 0.0)), float(opts["t"]),
                               delta=opts.get("delta"), sigma_eff=sigma)
        res.save(out("u_out.gridfn"))
        files.append(out("u_out.gridfn"))
        files.append(export_dataset(res, "csv", out("u_out.csv")))
        summary.update({"min": float(res.values.min()), "max": float(res.values.max()),
                        "lip_estimate": res.lip_estimate})
        log_lines.append(f"output range [{res.values.min():.6g}, {res.values.max():.6g}]")
    elif config.command == "alpha":
        res = critical_value(model, grid_n=config.grid_n,
                             t_step=float(opts.get("t_step", 0.2)),
                             t_max=float(opts.get("t_max", 8.0)), sigma_eff=sigma,
                             tol_alpha=config.tolerances.get("tol_alpha", 1e-2))
        summary.update(res.to_dict())
        log_lines.append(f"alpha={res.alpha:.8g}")
    elif config.command == "weakkam":
        res = weak_kam_solve(model, grid_n=config.grid_n,
                             alpha=opts.get("alpha"),
                             t_step=float(opts.get("t_step", 0.1)),
                             sigma_eff=sigma,
                             tol_wk=config.tolerances.get("tol_wk", 5e-3))
        res.u.save(out("u.gridfn"))
        files.append(out("u.gridfn"))
        summary.update(res.to_dict())
        log_lines.append(f"alpha={res.alpha:.8g} residual={res.residual:.3e}")
    elif config.command == "mane":
        res = mane_potential(model, float(opts["a"]), float(opts.get("q_base", 0.0)),
                             grid_n=config.grid_n, sigma_eff=sigma)
        res.phi.save(out("phi.gridfn"))
        files.append(out("phi.gridfn"))
        write_csv(out("mane.csv"), "q,phi,t_argmin",
                  np.column_stack([res.phi.nodes, res.phi.values, res.t_argmin]))
        files.append(out("mane.csv"))
        summary.update({"a": res.a, "q_base": res.q_base,
                        "phi_min": float(res.phi.values.min()),
                        "phi_max": float(res.phi.values.max())})
        log_lines.append(f"phi range [{res.phi.values.min():.6g}, "
                         f"{res.phi.values.max():.6g}]")
    elif config.command == "aubry":
        res = aubry_set(model, grid_n=config.grid_n, sigma_eff=sigma)
        write_csv(out("aubry_mask.csv"), "node,q",
                  [(i, i / config.grid_n) for i in res.marked_nodes()])
        files.append(out("aubry_mask.csv"))
        summary.update({"alpha": res.alpha, "marked": res.marked_nodes()})
        log_lines.append(f"alpha={res.alpha:.8g} marked={len(res.marked_nodes())}")
    elif config.command == "calibrate":
        traj = calibrated_curve(model, float(opts["a"]), float(opts["q0"]),
                                float(opts["q1"]),
                                horizon_cap=float(opts.get("cap", 4.0)),
                                sigma_eff=sigma)
        files.append(export_dataset(traj, "csv", out("calibrated.csv")))
        summary.update({"t_star": float(traj.times[-1]),
                        "energy_deviation": float(np.max(np.abs(traj.energy - float(opts["a"]))))})
        log_lines.append(f"t*={traj.times[-1]:.8g} "
                         f"|H-a|max={summary['energy_deviation']:.3e}")
    elif config.command == "accept":
        from .acceptance import run_all
        results = run_all(only=opts.get("criteria"))
        summary["criteria"] = [r.to_dict() for r in results]
        for r in results:
            line = f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}"
            log_lines.append(line)
            print(line)
        ok = all(r.passed for r in results)
        write_json(out("acceptance.json"), summary)
        _write_meta(config, raw_desc, sigma_meta, files + [out("acceptance.json")])
        return 0 if ok else 2

    write_json(out("summary.json"), summary)
    files.append(out("summary.json"))
    _write_meta(config, raw_desc, sigma_meta, files)
    with open(out("run.log"), "w", newline="") as fh:
        fh.write("\n".join(log_lines) + "\n")
    for line in log_lines:
        print(line)
    return 0


def _write_meta(config, raw_desc, sigma_meta, files):
    meta = {
        "version": __version__,
        "command": config.command,
        "model_hash": _model_hash(raw_desc),
        "model": raw_desc,
        "sigma_policy": sigma_meta,
        "tolerances": config.tolerances,
        "seed": config.seed,
        "grid_n": config.grid_n,
        "outputs": sorted(os.path.basename(f) for f in files),
    }
    write_json(os.path.join(config.out_dir, "meta.json"), meta)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hjkam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model_required=True):
        p.add_argument("--model", required=model_required, default="pendulum",
                       help="model JSON file or builtin name (free, pendulum)")
        p.add_argument("--out", default="hjkam-out", help="output directory")
        p.add_argument("--grid", type=int, default=128)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--sigma-eff", type=float, default=None,
                       help="working twist window (certified by a scan)")
        p.add_argument("--tol", action="append", default=[],
                       metavar="NAME=VALUE", help="tolerance override")

    p = sub.add_parser("check"); common(p)
    p.add_argument("--samples", type=int, default=400)

    p = sub.add_parser("flow"); common(p)
    p.add_argument("--q0", required=True); p.add_argument("--p0", required=True)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--step", type=float, default=None)

    p = sub.add_parser("monodromy"); common(p)
    p.add_argument("--q0", required=True); p.add_argument("--p0", required=True)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--t", type=float, required=True)

    p = sub.add_parser("gen-s"); common(p)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--q0", required=True); p.add_argument("--q1", required=True)

    p = sub.add_parser("action"); common(p)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--q0", required=True); p.add_argument("--q1", required=True)

    p = sub.add_parser("lax"); common(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--u", default=None, help="grid function file (default: zeros)")
    p.add_argument("--dual", action="store_true")

    p = sub.add_parser("regularize"); common(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--u", default=None)

    p = sub.add_parser("alpha"); common(p)
    p.add_argument("--t-step", type=float, default=0.2)
    p.add_argument("--t-max", type=float, default=8.0)

    p = sub.add_parser("weakkam"); common(p)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--t-step", type=float, default=0.1)

    p = sub.add_parser("mane"); common(p)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--q-base", type=float, default=0.0)

    p = sub.add_parser("aubry"); common(p)

    p = sub.add_parser("calibrate"); common(p)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--q0", type=float, required=True)
    p.add_argument("--q1", type=float, required=True)
    p.add_argument("--cap", type=float, default=4.0)

    p = sub.add_parser("accept"); common(p, model_required=False)
    p.add_argument("--criteria", default=None,
                   help="comma-separated criterion numbers to run")
    return parser


def config_from_args(args) -> RunConfig:
    tolerances = {}
    for item in getattr(args, "tol", []) or []:
        if "=" not in item:
            raise ConfigError(f"bad --tol {item!r}; expected NAME=VALUE")
        name, val = item.split("=", 1)
        try:
            tolerances[name] = float(val)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value in {item!r}") from exc
    skip = {"command", "model", "out", "grid", "seed", "sigma_eff", "tol"}
    options = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    if "criteria" in options:
        options["criteria"] = [int(x) for x in str(options["criteria"]).split(",")]
    return RunConfig(command=args.command, model_source=args.model, out_dir=args.out,
                     grid_n=args.grid, seed=args.seed,
                     sigma_eff=args.sigma_eff, tolerances=tolerances,
                     options=options)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = config_from_args(args)
        return dispatch(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except HjkamError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
