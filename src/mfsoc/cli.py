"""Command-line front end.

Subcommands: validate, solve-finite, solve-infinite, check, simulate, gap,
value, reproduce-paper.  Every run writes a manifest (all parameters plus
the content hash of the problem file); numeric outputs are formatted
deterministically so equal manifests yield byte-identical files.

Exit codes: 0 success, 2 validation failure, 3 solver failure,
4 simulation divergence, 64 usage error (a bad flag, a flag value out of
its range, which is refused with the flag's name before anything runs, or
a value the library refuses with ``ValueError``, such as more agents to
record than the population has).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .linalg import DEFAULT_TOL, Tolerance
from .model import ModelError, ProblemSpec, _check_count, _check_positive, validate
from .riccati import (
    SolverError,
    check_ranges,
    solve_are,
    solve_finite_N,
    solve_finite_limit,
)
from .simulator import DivergenceError, SimConfig, simulate_population
from .social import asymptotic_value, gap_curve
from .stability import _stability_report, _try_solve_are, stability_report
from .synthesis import build_law

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_DIVERGENCE = 4
EXIT_USAGE = 64

# reference root for the published scalar benchmark, used as a fallback
# when the individual algebraic equation has no solvable root of its own
_REFERENCE_P = 0.6808


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _checked(parse, check):
    """argparse type: parse the text, then apply the library's own check, so
    a refused value is reported with its flag before anything runs."""
    def convert(text):
        try:
            return check(parse(text), "value")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


_POSITIVE = _checked(float, _check_positive)
_COUNT = _checked(int, _check_count)


def _fmt(x) -> str:
    """Deterministic shortest-roundtrip decimal for a float."""
    return format(float(x), ".17g")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"not serializable: {type(obj)}")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _write_csv(path, header, rows, manifest_hash):
    with open(path, "w") as fh:
        fh.write(f"# manifest {manifest_hash}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_gap(path, curve, manifest_hash):
    rows = zip(curve.N_values, curve.decentralized, curve.centralized,
               curve.epsilon, curve.epsilon_se)
    _write_csv(path, ["N", "decentralized", "centralized", "epsilon", "stderr"],
               rows, manifest_hash)


def _value_payload(val, manifest_hash):
    return {
        "manifest_hash": manifest_hash,
        "value": val.value,
        "components": {
            "quad_spread": val.quad_spread, "quad_mean": val.quad_mean,
            "lin_offset": val.lin_offset, "m": val.m,
        },
        "tail_bound": val.tail_bound,
    }


def _manifest(args, command, extra=None):
    spec_path = getattr(args, "spec", None)
    digest = None
    if spec_path:
        with open(spec_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    man = {
        "tool_version": __version__,
        "command": command,
        "spec_path": str(spec_path) if spec_path else None,
        "spec_sha256": digest,
        "seed": getattr(args, "seed", None),
        "dt": getattr(args, "dt", None),
        "T_sim": getattr(args, "T", None),
        "replications": getattr(args, "reps", None),
        "thinning": getattr(args, "thinning", None),
        "rank_cutoff": DEFAULT_TOL.rank_cutoff,
        "residual_tol": DEFAULT_TOL.residual_tol,
        "ode_step": getattr(args, "step", None) or DEFAULT_TOL.ode_step,
        "outdir": str(getattr(args, "outdir", None)),
    }
    if extra:
        man.update(extra)
    blob = json.dumps(man, sort_keys=True).encode()
    man["manifest_hash"] = hashlib.sha256(blob).hexdigest()
    return man


def _outdir(args):
    out = args.outdir or os.environ.get("MFSOC_OUTDIR", "out")
    os.makedirs(out, exist_ok=True)
    args.outdir = out
    return out


def _load(args):
    spec = ProblemSpec.load(args.spec)
    violations = validate(spec)
    if violations:
        for v in violations:
            print(str(v), file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)
    return spec


def _tol(args):
    step = getattr(args, "step", None)
    if step is not None:
        return Tolerance(ode_step=float(step))
    return DEFAULT_TOL


def _cmd_validate(args):
    spec = ProblemSpec.load(args.spec)
    violations = validate(spec)
    if violations:
        for v in violations:
            print(str(v))
        return EXIT_VALIDATION
    print("valid")
    return EXIT_OK


def _cmd_solve_finite(args):
    spec = _load(args)
    tol = _tol(args)
    sol = solve_finite_N(spec, tol) if args.population else solve_finite_limit(spec, tol)
    out = _outdir(args)
    man = _manifest(args, "solve-finite", {"population": bool(args.population)})
    _write_json(os.path.join(out, "manifest.json"), man)
    n = spec.n
    header = (
        ["t"]
        + [f"P_{i}{j}" for i in range(n) for j in range(n)]
        + [f"K_{i}{j}" for i in range(n) for j in range(n)]
        + [f"s_{i}" for i in range(n)]
        + [f"upsilon_eig_{i}" for i in range(spec.r)]
    )
    rows = []
    stride = max(1, sol.grid.size // args.max_rows)
    for k in range(0, sol.grid.size, stride):
        eigs = np.sort(np.linalg.eigvalsh(sol.Upsilon[k]))
        rows.append(
            [sol.grid[k]] + list(sol.P[k].ravel()) + list(sol.K[k].ravel())
            + list(sol.s[k]) + list(eigs)
        )
    _write_csv(os.path.join(out, "riccati_finite.csv"), header, rows, man["manifest_hash"])
    print(f"residual {sol.residual:.3g}, min Upsilon eigenvalue {sol.min_upsilon_eig:.3g}")
    return EXIT_OK


def _cmd_solve_infinite(args):
    spec = _load(args)
    tol = _tol(args)
    pin = np.atleast_2d(args.pin_P) if args.pin_P is not None else None
    sol = solve_are(spec, tol, t_sim=args.T, pin_P=pin)
    out = _outdir(args)
    man = _manifest(args, "solve-infinite", {"pin_P": args.pin_P})
    _write_json(os.path.join(out, "manifest.json"), man)
    rep = check_ranges(sol, spec, tol)
    _write_json(os.path.join(out, "riccati.json"), {
        "manifest_hash": man["manifest_hash"],
        "P": sol.P, "Pi": sol.Pi, "Upsilon": sol.Upsilon,
        "residual_P": sol.residual_P, "residual_Pi": sol.residual_Pi,
        "closed_loop_abscissa": sol.closed_loop_abscissa,
        "range_conditions": {k: {"ok": ok, "residual": res}
                             for k, (ok, res) in rep.inclusions.items()},
    })
    stride = max(1, sol.grid.size // args.max_rows)
    rows = [
        [sol.grid[k]] + list(sol.s[k]) + list(sol.xbar[k])
        for k in range(0, sol.grid.size, stride)
    ]
    header = ["t"] + [f"s_{i}" for i in range(spec.n)] + [f"xbar_{i}" for i in range(spec.n)]
    _write_csv(os.path.join(out, "offset_meanfield.csv"), header, rows, man["manifest_hash"])
    print(f"P residual {sol.residual_P:.3g}, Pi residual {sol.residual_Pi:.3g}")
    return EXIT_OK


def _cmd_check(args):
    spec = _load(args)
    rep = stability_report(spec, _tol(args), t_sim=args.T)
    out = _outdir(args)
    man = _manifest(args, "check")
    _write_json(os.path.join(out, "manifest.json"), man)
    payload = {"manifest_hash": man["manifest_hash"]}
    payload.update(rep.to_json())
    _write_json(os.path.join(out, "check.json"), payload)
    print(json.dumps(rep.to_json(), indent=2, sort_keys=True, default=_json_default))
    return EXIT_OK


def _decentralized_law(spec, tol, t_sim, pin_P=None):
    if spec.infinite_horizon:
        sol = solve_are(spec, tol, t_sim=t_sim, pin_P=pin_P)
    else:
        sol = solve_finite_limit(spec, tol)
    return sol, build_law(sol, spec, tol)


def _cmd_simulate(args):
    spec = _load(args)
    tol = _tol(args)
    pin = np.atleast_2d(args.pin_P) if args.pin_P is not None else None
    T = args.T if spec.infinite_horizon else spec.horizon
    cfg = SimConfig(dt=args.dt, T_sim=T, replications=args.reps,
                    seed=args.seed, thinning=args.thinning)
    _, law = _decentralized_law(spec, tol, T, pin)
    N = spec.N if args.N is None else args.N
    out_sim = simulate_population(spec, law, cfg, N=N,
                                  collect_agents=args.agents)
    out = _outdir(args)
    man = _manifest(args, "simulate", {"N": N, "agents": args.agents, "pin_P": args.pin_P})
    _write_json(os.path.join(out, "manifest.json"), man)
    _write_json(os.path.join(out, "summary.json"), {
        "manifest_hash": man["manifest_hash"],
        "social_cost": out_sim.social_cost,
        "social_se": out_sim.social_se,
        "individual_costs": out_sim.individual_costs,
        "consistency_error": out_sim.consistency_error,
        "consistency_se": out_sim.consistency_se,
        "tail_bound": out_sim.tail_bound,
    })
    if args.agents:
        header = ["t", "agent"] + [f"x_{i}" for i in range(spec.n)] \
            + [f"u_{i}" for i in range(spec.r)]
        rows = []
        for a in range(args.agents):
            for k, t in enumerate(out_sim.grid):
                rows.append([t, a] + list(out_sim.trajectories[a, k])
                            + list(out_sim.controls[a, k]))
        _write_csv(os.path.join(out, "trajectories.csv"), header, rows, man["manifest_hash"])
    print(f"social cost {out_sim.social_cost:.6g} +- {out_sim.social_se:.3g}")
    return EXIT_OK


def _cmd_gap(args):
    spec = _load(args)
    tol = _tol(args)
    N_values = [int(v) for v in args.N_list.split(",")]
    T = args.T if spec.infinite_horizon else spec.horizon
    cfg = SimConfig(dt=args.dt, T_sim=T, replications=args.reps,
                    seed=args.seed, thinning=args.thinning)
    curve = gap_curve(spec, N_values, cfg, tol)
    out = _outdir(args)
    man = _manifest(args, "gap", {"N_list": N_values})
    _write_json(os.path.join(out, "manifest.json"), man)
    _write_gap(os.path.join(out, "gap.csv"), curve, man["manifest_hash"])
    print(f"epsilon: {[round(float(e), 6) for e in curve.epsilon]}")
    return EXIT_OK


def _cmd_value(args):
    spec = _load(args)
    tol = _tol(args)
    pin = np.atleast_2d(args.pin_P) if args.pin_P is not None else None
    sol = solve_are(spec, tol, t_sim=args.T, pin_P=pin)
    val = asymptotic_value(spec, sol, tol)
    out = _outdir(args)
    man = _manifest(args, "value", {"pin_P": args.pin_P})
    _write_json(os.path.join(out, "manifest.json"), man)
    _write_json(os.path.join(out, "value.json"), _value_payload(val, man["manifest_hash"]))
    print(f"asymptotic per-agent value {val.value:.6g}")
    return EXIT_OK


def _cmd_reproduce(args):
    spec = _load(args)
    tol = _tol(args)
    out = _outdir(args)
    man = _manifest(args, "reproduce-paper", {
        "N_list": args.N_list, "fig3_T": args.fig3_T, "reference_P": _REFERENCE_P,
    })
    _write_json(os.path.join(out, "manifest.json"), man)
    mh = man["manifest_hash"]

    # infinite-horizon solve; fall back to the published reference root when
    # the equation admits no root of its own (recorded in the output).  The
    # unpinned outcome is handed on to the stability battery.
    are = _try_solve_are(spec, tol, args.T)
    sol, _ = are
    pinned = sol is None
    if pinned:
        sol = solve_are(spec, tol, t_sim=args.T, pin_P=_REFERENCE_P * np.eye(spec.n))
    _write_json(os.path.join(out, "riccati.json"), {
        "manifest_hash": mh,
        "P": sol.P, "Pi": sol.Pi,
        "residual_P": sol.residual_P, "residual_Pi": sol.residual_Pi,
        "P_pinned_to_reference": pinned,
    })

    law = build_law(sol, spec, tol)
    cfg = SimConfig(dt=args.dt, T_sim=args.T, replications=1,
                    seed=args.seed, thinning=args.thinning)
    out_sim = simulate_population(spec, law, cfg, collect_agents=spec.N)

    # fig1: the first agents' paths; fig2: population average vs mean field
    n_show = min(30, spec.N)
    header = ["t"] + [f"agent_{a}" for a in range(n_show)]
    rows = [[out_sim.grid[k]] + [out_sim.trajectories[a, k, 0] for a in range(n_show)]
            for k in range(out_sim.grid.size)]
    _write_csv(os.path.join(out, "fig1.csv"), header, rows, mh)

    xhatN = out_sim.trajectories[:, :, 0].mean(axis=0)
    xbar = law.xbar_at(out_sim.grid)[:, 0]
    _write_csv(os.path.join(out, "fig2.csv"), ["t", "xhatN", "xbar"],
               [[out_sim.grid[k], xhatN[k], xbar[k]] for k in range(out_sim.grid.size)], mh)

    # gap curve on the matching finite-horizon problem (the centralized
    # benchmark needs a solvable population-N equation)
    fin = spec.with_horizon(args.fig3_T, H=np.eye(spec.n),
                            Gamma0=spec.Gamma, eta0=spec.eta(args.fig3_T))
    N_values = [int(v) for v in args.N_list.split(",")]
    cfg3 = SimConfig(dt=args.dt, T_sim=None, replications=args.reps,
                     seed=args.seed, thinning=args.thinning)
    curve = gap_curve(fin, N_values, cfg3, tol)
    _write_gap(os.path.join(out, "fig3.csv"), curve, mh)

    try:
        payload = _value_payload(asymptotic_value(spec, sol, tol), mh)
    except SolverError as exc:
        payload = {"manifest_hash": mh, "error": str(exc)}
    _write_json(os.path.join(out, "value.json"), payload)

    rep = _stability_report(spec, tol, are)
    check_payload = {"manifest_hash": mh}
    check_payload.update(rep.to_json())
    _write_json(os.path.join(out, "check.json"), check_payload)
    print(f"outputs written to {out}")
    return EXIT_OK


def _add_common(p, sim=False):
    p.add_argument("spec", help="problem JSON file")
    p.add_argument("--outdir", default=None, help="output directory (default $MFSOC_OUTDIR or ./out)")
    p.add_argument("--step", type=_POSITIVE, default=None, help="Riccati/ODE integration step")
    p.add_argument("--max-rows", dest="max_rows", type=_COUNT, default=2000)
    if sim:
        p.add_argument("--dt", type=_POSITIVE, default=1e-3)
        p.add_argument("--T", type=_POSITIVE, default=20.0, help="simulation/truncation horizon")
        p.add_argument("--reps", type=_COUNT, default=100)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--thinning", type=_COUNT, default=10)


def build_parser() -> _Parser:
    parser = _Parser(prog="mfsoc", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a problem file")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("solve-finite", help="finite-horizon backward triple")
    _add_common(p)
    p.add_argument("--population", action="store_true",
                   help="solve the population-N form instead of the limit form")
    p.set_defaults(func=_cmd_solve_finite)

    p = sub.add_parser("solve-infinite", help="algebraic equations + offset")
    _add_common(p)
    p.add_argument("--T", type=_POSITIVE, default=20.0)
    p.add_argument("--pin-P", dest="pin_P", type=float, default=None,
                   help="bypass the first equation with a given scalar value")
    p.set_defaults(func=_cmd_solve_infinite)

    p = sub.add_parser("check", help="stability/convexity battery")
    _add_common(p)
    p.add_argument("--T", type=_POSITIVE, default=20.0)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("simulate", help="closed-loop population simulation")
    _add_common(p, sim=True)
    p.add_argument("--N", type=_COUNT, default=None)
    p.add_argument("--agents", type=int, default=0, help="trajectories to export")
    p.add_argument("--pin-P", dest="pin_P", type=float, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("gap", help="decentralized vs centralized cost gap")
    _add_common(p, sim=True)
    p.add_argument("--N-list", dest="N_list", default="1,2,5,10,20,50")
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("value", help="asymptotic per-agent optimum")
    _add_common(p)
    p.add_argument("--T", type=_POSITIVE, default=20.0)
    p.add_argument("--pin-P", dest="pin_P", type=float, default=None)
    p.set_defaults(func=_cmd_value)

    p = sub.add_parser("reproduce-paper", help="full benchmark pipeline")
    _add_common(p, sim=True)
    p.add_argument("--N-list", dest="N_list", default="1,2,5,10,20,50")
    p.add_argument("--fig3-T", dest="fig3_T", type=_POSITIVE, default=0.2,
                   help="finite horizon used for the gap benchmark")
    p.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except np.linalg.LinAlgError:   # a ValueError, but a numerical failure
        raise
    except ModelError as exc:
        print(f"invalid problem: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
