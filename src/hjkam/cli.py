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

import numpy as np

from . import __version__
from .acceptance import CRITERIA, run_all
from .action import minimal_action
from .errors import ConfigError, HjkamError
from .flow import (PhaseState, certify_sigma, default_sigma_eff, integrate_flow,
                   monodromy, sigma_bound, write_csv)
from .generating import generating_S
from .hamiltonian import (check_hypotheses, free_model, model_from_dict, pendulum_model,
                          read_model_file)
from .laxoleinik import GridFunction, apply_T, apply_T_dual, regularize_R
from .weakkam import (aubry_set, calibrated_curve, critical_value,
                      mane_potential, weak_kam_solve)

_BUILTIN_MODELS = {"free": free_model, "pendulum": pendulum_model}

# commands that run no short-time solver: they record the formula bound and
# certify nothing, so that ``check`` still reports a model whose declared
# constants are wrong instead of failing on its twist scan
_WINDOWLESS = ("check", "flow", "monodromy", "accept")
# the tolerances that ``--tol NAME=VALUE`` sets, read by ``alpha`` and ``weakkam``
_TOLERANCES = ("tol_alpha", "tol_wk")


def _json_default(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_json(path, payload):
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _load_model(name):
    if name in _BUILTIN_MODELS:
        model = _BUILTIN_MODELS[name]()
        return model, {"family": model.family, "d": 1, "builtin": name}
    if not os.path.exists(name):
        raise ConfigError(f"model {name!r}: not a builtin and no such file")
    raw = read_model_file(name)
    return model_from_dict(raw), raw


def _model_hash(raw_desc: dict) -> str:
    blob = json.dumps(raw_desc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _sigma_policy(model, args):
    if args.sigma_eff is not None:
        window = certify_sigma(model, args.sigma_eff, seed=args.seed)
        return args.sigma_eff, {"mode": "certified-override", **window.to_dict()}
    if args.command in _WINDOWLESS:
        return sigma_bound(model), {"mode": "formula", "value": sigma_bound(model)}
    window = default_sigma_eff(model, seed=args.seed)
    return window.t, {"mode": "certified-default", **window.to_dict()}


def _given(args, *names):
    """The keywords among ``names`` whose flags were given: a flag left out
    leaves the library's default in force."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def run(args) -> int:
    """Run the parsed command, writing a JSON summary plus datasets and meta.json.

    The output directory is made first, so an unwritable ``--out`` fails
    before any computation.  A run that raises takes back the directories it
    made while they are still empty; a directory that already existed stays.
    """
    made = []
    head = os.path.abspath(args.out)
    while not os.path.lexists(head):
        made.append(head)
        head = os.path.dirname(head)
    os.makedirs(args.out, exist_ok=True)
    try:
        return _run(args)
    except BaseException:
        for path in made:   # deepest first; one that holds a file stays, with its parents
            try:
                os.rmdir(path)
            except OSError:
                break
        raise


def _run(args) -> int:
    model, raw_desc = _load_model(args.model)
    sigma, sigma_meta = _sigma_policy(model, args)
    files = []

    def out(name):   # the path of an output file, recorded for meta.json
        files.append(os.path.join(args.out, name))
        return files[-1]

    command = args.command
    summary = {"command": command, "seed": args.seed}
    log_lines = [f"hjkam {command} (seed={args.seed}, grid={args.grid})"]

    if command == "check":
        report = check_hypotheses(model, seed=args.seed, **_given(args, "n_samples"))
        summary["report"] = report.to_dict()
        write_json(out("hypothesis_report.json"), summary["report"])
        log_lines.append(f"passes: {report.passes}  m_emp={report.m_emp:.6g} "
                         f"M_emp={report.M_emp:.6g}")
    elif command == "flow":
        traj = integrate_flow(model, PhaseState(args.q0, args.p0), args.tau, args.t,
                              **_given(args, "step"))
        traj.to_csv(out("trajectory.csv"))
        summary.update({"terminal_q": traj.Q[-1], "terminal_p": traj.P[-1],
                        "energy_drift": traj.energy_drift()})
        log_lines.append(f"terminal q={traj.Q[-1]} p={traj.P[-1]} "
                         f"drift={traj.energy_drift():.3e}")
    elif command == "monodromy":
        mono = monodromy(model, PhaseState(args.q0, args.p0), args.tau, args.t)
        summary.update({"blocks": {"dqQ": mono.dqQ, "dpQ": mono.dpQ,
                                   "dqP": mono.dqP, "dpP": mono.dpP},
                        "deviation": mono.deviation,
                        "symplectic_defect": mono.symplectic_defect()})
        write_json(out("monodromy.json"), summary)
        log_lines.append(f"deviation={mono.deviation:.6g}")
    elif command == "gen-s":
        s = generating_S(model, args.tau, args.t, args.q0, args.q1, sigma_eff=sigma)
        write_csv(out("gen_s.csv"), "tau,t,q0,q1,S,rho0,rho1,residual",
                  [[s.tau, s.t, s.q0[0], s.q1[0], s.S, s.rho0[0], s.rho1[0],
                    s.shoot_residual]])
        summary.update({"S": s.S, "rho0": s.rho0, "rho1": s.rho1,
                        "residual": s.shoot_residual})
        log_lines.append(f"S={s.S:.12g}")
    elif command == "action":
        A, path = minimal_action(model, args.tau, args.t, args.q0, args.q1,
                                 sigma_eff=sigma, seed=args.seed)
        path.to_csv(out("minimizer.csv"))
        summary.update({"A": A, "segments": path.n,
                        "max_jump": float(np.max(path.momentum_jumps, initial=0.0))})
        log_lines.append(f"A={A:.12g} (n={path.n})")
    elif command in ("lax", "regularize"):
        u = (GridFunction.load(args.u) if args.u
             else GridFunction(1, args.grid, np.zeros(args.grid)))
        if command == "lax":
            op = apply_T_dual if args.dual else apply_T
            res = op(model, u, args.tau, args.t, sigma_eff=sigma)
        else:
            res = regularize_R(model, u, args.t0, args.t, sigma_eff=sigma,
                               **_given(args, "delta"))
        res.save(out("u_out.gridfn"))
        write_csv(out("u_out.csv"), "q,value", np.column_stack([res.nodes, res.values]))
        summary.update({"min": float(res.values.min()), "max": float(res.values.max()),
                        "lip_estimate": res.lip_estimate})
        log_lines.append(f"output range [{res.values.min():.6g}, {res.values.max():.6g}]")
    elif command == "alpha":
        res = critical_value(model, grid_n=args.grid, sigma_eff=sigma,
                             **_given(args, "t_step", "t_max", "tol_alpha"))
        summary.update(res.to_dict())
        log_lines.append(f"alpha={res.alpha:.8g}")
    elif command == "weakkam":
        res = weak_kam_solve(model, grid_n=args.grid, sigma_eff=sigma,
                             **_given(args, "alpha", "t_step", "tol_wk"))
        res.u.save(out("u.gridfn"))
        summary.update(res.to_dict())
        log_lines.append(f"alpha={res.alpha:.8g} residual={res.residual:.3e}")
    elif command == "mane":
        res = mane_potential(model, args.a, args.q_base, grid_n=args.grid, sigma_eff=sigma)
        res.phi.save(out("phi.gridfn"))
        write_csv(out("mane.csv"), "q,phi,t_argmin",
                  np.column_stack([res.phi.nodes, res.phi.values, res.t_argmin]))
        summary.update({"a": res.a, "q_base": res.q_base,
                        "phi_min": float(res.phi.values.min()),
                        "phi_max": float(res.phi.values.max())})
        log_lines.append(f"phi range [{res.phi.values.min():.6g}, "
                         f"{res.phi.values.max():.6g}]")
    elif command == "aubry":
        res = aubry_set(model, grid_n=args.grid, sigma_eff=sigma)
        write_csv(out("aubry_mask.csv"), "node,q",
                  [(i, i / args.grid) for i in res.marked_nodes()])
        summary.update({"alpha": res.alpha, "marked": res.marked_nodes()})
        log_lines.append(f"alpha={res.alpha:.8g} marked={len(res.marked_nodes())}")
    elif command == "calibrate":
        traj = calibrated_curve(model, args.a, args.q0, args.q1, sigma_eff=sigma,
                                **_given(args, "horizon_cap"))
        traj.to_csv(out("calibrated.csv"))
        summary.update({"t_star": float(traj.times[-1]),
                        "energy_deviation": float(np.max(np.abs(traj.energy - args.a)))})
        log_lines.append(f"t*={traj.times[-1]:.8g} "
                         f"|H-a|max={summary['energy_deviation']:.3e}")
    elif command == "accept":
        results = run_all(**_given(args, "only"))
        summary["criteria"] = [r.to_dict() for r in results]
        for r in results:
            print(r.line())
        write_json(out("acceptance.json"), summary)
        _write_meta(args, raw_desc, sigma_meta, files)
        return 0 if all(r.passed for r in results) else 2

    write_json(out("summary.json"), summary)
    _write_meta(args, raw_desc, sigma_meta, files)
    with open(os.path.join(args.out, "run.log"), "w", newline="") as fh:
        fh.write("\n".join(log_lines) + "\n")
    for line in log_lines:
        print(line)
    return 0


def _write_meta(args, raw_desc, sigma_meta, files):
    meta = {
        "version": __version__,
        "command": args.command,
        "model_hash": _model_hash(raw_desc),
        "model": raw_desc,
        "sigma_policy": sigma_meta,
        "tolerances": _given(args, *_TOLERANCES),
        "seed": args.seed,
        "grid_n": args.grid,
        "outputs": sorted(os.path.basename(f) for f in files),
    }
    write_json(os.path.join(args.out, "meta.json"), meta)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _int_at_least(least, name):
    """An argument type: an integer of at least ``least``; ConfigError below."""
    def check(text):
        value = int(text)
        if value < least:
            raise ConfigError(f"{name} must be at least {least}")
        return value
    check.__name__ = "int"   # the name argparse gives for text that is no integer
    return check


class _Tolerance(argparse.Action):
    """``--tol NAME=VALUE`` sets the keyword NAME, one of ``_TOLERANCES``,
    to a positive VALUE."""

    def __call__(self, parser, namespace, item, option_string=None):
        name, eq, text = item.partition("=")
        if not eq:
            raise ConfigError(f"bad --tol {item!r}; expected NAME=VALUE")
        try:
            value = float(text)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value in {item!r}") from exc
        if name not in _TOLERANCES:
            raise ConfigError(f"unknown tolerance {name!r}; known: {', '.join(_TOLERANCES)}")
        if not value > 0:
            raise ConfigError(f"tolerance {name!r} must be positive")
        setattr(namespace, name, value)


def _criteria(text):
    """An argument type: comma-separated numbers of acceptance criteria."""
    numbers = [int(x) if x.strip().isdigit() else 0 for x in text.split(",")]
    if not all(1 <= k <= len(CRITERIA) for k in numbers):
        raise ConfigError(f"bad --criteria {text!r}; expected comma-separated "
                          f"criterion numbers from 1 to {len(CRITERIA)}")
    return numbers


def build_parser() -> argparse.ArgumentParser:
    """The ``hjkam`` parser.  A flag for a library keyword that has a default
    there is set only when given (``argparse.SUPPRESS``)."""
    parser = _Parser(prog="hjkam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    unset = argparse.SUPPRESS

    def command(name, *floats, horizon=False, model_required=True):
        """A subcommand with the common flags, the required float flags
        ``floats`` and, with ``horizon``, ``--tau`` and ``--t``."""
        p = sub.add_parser(name)
        p.add_argument("--model", required=model_required, default="pendulum",
                       help="model JSON file or builtin name (free, pendulum)")
        p.add_argument("--out", default="hjkam-out", help="output directory")
        p.add_argument("--grid", type=_int_at_least(2, "grid_n"), default=128)
        p.add_argument("--seed", type=_int_at_least(0, "seed"), default=0)
        p.add_argument("--sigma-eff", type=float, default=None,
                       help="working twist window (certified by a scan)")
        p.add_argument("--tol", action=_Tolerance, default=unset,
                       metavar="NAME=VALUE", help="tolerance override")
        for flag in floats:
            p.add_argument(flag, type=float, required=True)
        if horizon:
            p.add_argument("--tau", type=float, default=0.0)
            p.add_argument("--t", type=float, required=True)
        return p

    p = command("check")
    p.add_argument("--samples", type=int, dest="n_samples", metavar="SAMPLES", default=unset)
    p = command("flow", "--q0", "--p0", horizon=True)
    p.add_argument("--step", type=float, default=unset)
    command("monodromy", "--q0", "--p0", horizon=True)
    command("gen-s", "--q0", "--q1", horizon=True)
    command("action", "--q0", "--q1", horizon=True)
    p = command("lax", "--t")
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--u", default=None, help="grid function file (default: zeros)")
    p.add_argument("--dual", action="store_true")
    p = command("regularize", "--t")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=unset)
    p.add_argument("--u", default=None)
    p = command("alpha")
    p.add_argument("--t-step", type=float, default=unset)
    p.add_argument("--t-max", type=float, default=unset)
    p = command("weakkam")
    p.add_argument("--alpha", type=float, default=unset)
    p.add_argument("--t-step", type=float, default=unset)
    p = command("mane", "--a")
    p.add_argument("--q-base", type=float, default=0.0)
    command("aubry")
    p = command("calibrate", "--a", "--q0", "--q1")
    p.add_argument("--cap", type=float, dest="horizon_cap", metavar="CAP", default=unset)
    p = command("accept", model_required=False)
    p.add_argument("--criteria", type=_criteria, dest="only", metavar="CRITERIA",
                   default=unset, help="comma-separated criterion numbers to run")
    return parser


def main(argv=None) -> int:
    try:
        return run(build_parser().parse_args(argv))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:   # a file that cannot be made, written or read
        print(f"config error: file error: {exc}", file=sys.stderr)
        return 1
    except HjkamError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
