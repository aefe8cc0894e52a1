"""Command-line front end.

Subcommands: validate, solve-finite, solve-infinite, check, simulate, gap,
value, reproduce-paper.  Each writing subcommand computes first and returns
its manifest extras, its files as ``{filename: payload}`` (a JSON dict or
CSV text) and its printed line; only then does one writer, ``_write``,
create ``--outdir`` and write the manifest (all parameters plus the content
hash of the problem file) and every file, each carrying the manifest hash.
A run that fails writes nothing into ``--outdir``, manifest included.
Numeric outputs are formatted deterministically so equal manifests yield
byte-identical files.

Exit codes: 0 success, 2 validation failure (a problem file that does not
parse into a problem, or whose problem is invalid), 3 solver failure (a
``SolverError``, or a ``numpy.linalg.LinAlgError`` from a numerical kernel,
reported on one line), 4 simulation divergence, 64 usage error (a bad flag, a problem file that
cannot be read, a flag value out of its range, which is refused with the
flag's name before anything runs, or a value the library refuses with
``ValueError``, such as more agents to record than the population has).
Ranges: --N, --reps, --thinning, --max-rows (solve-finite and
solve-infinite only) and every --N-list entry are integers >= 1; --seed
and --agents integers >= 0; --step, --dt, --T and --fig3-T positive finite
numbers, and --dt a divisor of the simulated horizon; --pin-P a finite number,
accepted for a 1-state problem only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .linalg import DEFAULT_TOL, Tolerance
from .model import (ModelError, ProblemSpec, _check_count, _check_finite, _check_natural,
                    _check_positive, validate)
from .riccati import (SolverError, check_ranges, solve_are, solve_finite_N,
                      solve_finite_limit)
from .simulator import DivergenceError, SimConfig, simulate_population
from .social import asymptotic_value, gap_curve
from .stability import stability_report
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
    def __init__(self, message, parser):
        super().__init__(message)
        self.parser = parser   # the (sub)command parser that refused the input


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message, self)

    def parse_known_args(self, args=None, namespace=None):
        # a subcommand refuses a flag it does not know itself, so the error
        # carries its usage rather than the root parser's
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


def _checked(parse, check):
    """argparse type: parse the text, then apply the library's own check, so
    a refused value is reported with its flag before anything runs."""
    def convert(text):
        try:
            return check(parse(text), "value")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _readable(path):
    """argparse type of the problem file: its path, refused unless it opens."""
    try:
        open(path).close()
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot read {path}: {exc.strerror}") from None
    return path


def _sizes(text, name="--N-list"):
    """The population sizes of an --N-list value, each an integer >= 1."""
    return [_check_count(int(v), name) for v in text.split(",")]


_POSITIVE = _checked(float, _check_positive)
_FINITE = _checked(float, _check_finite)
_COUNT = _checked(int, _check_count)
_NATURAL = _checked(int, _check_natural)
# kept as text: gap records the sizes, reproduce-paper the text itself
_N_LIST = _checked(str, lambda text, name: _sizes(text, name) and text)


def _fmt(x) -> str:
    """Deterministic shortest-roundtrip decimal for a float."""
    return format(float(x), ".17g")


def _json_default(obj):
    if isinstance(obj, complex):   # before np.generic: complex128 is a complex
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=_json_default)


def _csv(header, rows) -> str:
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _rows(size: int, max_rows: int) -> range:
    """The knots kept by the least uniform stride that keeps at most max_rows."""
    return range(0, size, -(-size // max_rows))


def _gap_csv(curve) -> str:
    return _csv(["N", "decentralized", "centralized", "epsilon", "stderr"],
                zip(curve.N_values, curve.decentralized, curve.centralized,
                    curve.epsilon, curve.epsilon_se))


def _value_payload(val):
    parts = ("quad_spread", "quad_mean", "lin_offset", "m")
    return {"value": val.value, "tail_bound": val.tail_bound,
            "components": {k: getattr(val, k) for k in parts}}


def _manifest(args, extra):
    with open(args.spec, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    man = {
        "tool_version": __version__,
        "command": args.command,
        "spec_path": str(args.spec),
        "spec_sha256": digest,
        "seed": getattr(args, "seed", None),
        "dt": getattr(args, "dt", None),
        "T_sim": getattr(args, "T", None),
        "replications": getattr(args, "reps", None),
        "thinning": getattr(args, "thinning", None),
        "rank_cutoff": DEFAULT_TOL.rank_cutoff,
        "residual_tol": DEFAULT_TOL.residual_tol,
        "ode_step": args.step or DEFAULT_TOL.ode_step,
        "outdir": str(args.outdir),
        **extra,
    }
    man["manifest_hash"] = hashlib.sha256(json.dumps(man, sort_keys=True).encode()).hexdigest()
    return man


def _write(args, extra, files, line):
    """Write a computed run into --outdir, the only code that creates it:
    manifest.json, then every file with the manifest hash (a
    "manifest_hash" key in JSON, a "# manifest" line above CSV).  Prints the
    run's line, or where the outputs went when it is None."""
    out = args.outdir = args.outdir or os.environ.get("MFSOC_OUTDIR", "out")
    man = _manifest(args, extra)
    mh = man["manifest_hash"]
    texts = {name: f"# manifest {mh}\n{payload}" if isinstance(payload, str)
             else _json({**payload, "manifest_hash": mh}) + "\n"
             for name, payload in {"manifest.json": man, **files}.items()}
    os.makedirs(out, exist_ok=True)
    for name, text in texts.items():
        with open(os.path.join(out, name), "w") as fh:
            fh.write(text)
    print(f"outputs written to {out}" if line is None else line)


def _load(args):
    spec = ProblemSpec.load(args.spec)
    violations = validate(spec)
    if violations:
        for v in violations:
            print(str(v), file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)
    return spec


def _tol(args):
    return DEFAULT_TOL if args.step is None else Tolerance(ode_step=float(args.step))


def _solve_are(spec, tol, args):
    """The algebraic solve over [0, --T], with P pinned to --pin-P if given."""
    if args.pin_P is not None and spec.n != 1:
        raise ValueError(f"--pin-P is one number, P of a 1-state problem; this problem has "
                         f"{spec.n} states")
    pin = None if args.pin_P is None else np.atleast_2d(args.pin_P)
    return solve_are(spec, tol, t_sim=args.T, pin_P=pin)


def _config(args, spec):
    """The simulation flags; --T is the horizon only of an infinite-horizon spec."""
    return SimConfig(dt=args.dt, T_sim=args.T if spec.infinite_horizon else None,
                     replications=args.reps, seed=args.seed, thinning=args.thinning)


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
    n = spec.n
    header = (["t"] + [f"{M}_{i}{j}" for M in "PK" for i in range(n) for j in range(n)]
              + [f"s_{i}" for i in range(n)] + [f"upsilon_eig_{i}" for i in range(spec.r)])
    rows = (
        [sol.grid[k]] + list(sol.P[k].ravel()) + list(sol.K[k].ravel())
        + list(sol.s[k]) + list(np.sort(np.linalg.eigvalsh(sol.Upsilon[k])))
        for k in _rows(sol.grid.size, args.max_rows)
    )
    return ({"population": bool(args.population)},
            {"riccati_finite.csv": _csv(header, rows)},
            f"residual {sol.residual:.3g}, min Upsilon eigenvalue {sol.min_upsilon_eig:.3g}")


def _cmd_solve_infinite(args):
    spec = _load(args)
    tol = _tol(args)
    sol = _solve_are(spec, tol, args)
    rep = check_ranges(sol, spec, tol)
    header = ["t"] + [f"s_{i}" for i in range(spec.n)] + [f"xbar_{i}" for i in range(spec.n)]
    rows = (
        [sol.grid[k]] + list(sol.s[k]) + list(sol.xbar[k])
        for k in _rows(sol.grid.size, args.max_rows)
    )
    return {"pin_P": args.pin_P}, {
        "riccati.json": {
            "P": sol.P, "Pi": sol.Pi, "Upsilon": sol.Upsilon,
            "residual_P": sol.residual_P, "residual_Pi": sol.residual_Pi,
            "closed_loop_abscissa": sol.closed_loop_abscissa,
            "range_conditions": {k: {"ok": ok, "residual": res}
                                 for k, (ok, res) in rep.inclusions.items()},
        },
        "offset_meanfield.csv": _csv(header, rows),
    }, f"P residual {sol.residual_P:.3g}, Pi residual {sol.residual_Pi:.3g}"


def _cmd_check(args):
    report = stability_report(_load(args), _tol(args), t_sim=args.T).to_json()
    return {}, {"check.json": report}, _json(report)


def _cmd_simulate(args):
    spec = _load(args)
    tol = _tol(args)
    cfg = _config(args, spec)
    sol = _solve_are(spec, tol, args) if spec.infinite_horizon else solve_finite_limit(spec, tol)
    N = spec.N if args.N is None else args.N
    sim = simulate_population(spec, build_law(sol, spec, tol), cfg, N=N,
                              collect_agents=args.agents)
    files = {"summary.json": {k: getattr(sim, k) for k in (
        "social_cost", "social_se", "individual_costs", "consistency_error",
        "consistency_se", "tail_bound")}}
    if args.agents:
        header = ["t", "agent"] + [f"x_{i}" for i in range(spec.n)] \
            + [f"u_{i}" for i in range(spec.r)]
        files["trajectories.csv"] = _csv(header, (
            [t, a] + list(sim.trajectories[a, k]) + list(sim.controls[a, k])
            for a in range(args.agents) for k, t in enumerate(sim.grid)))
    return ({"N": N, "agents": args.agents, "pin_P": args.pin_P}, files,
            f"social cost {sim.social_cost:.6g} +- {sim.social_se:.3g}")


def _cmd_gap(args):
    spec = _load(args)
    N_values = _sizes(args.N_list)
    curve = gap_curve(spec, N_values, _config(args, spec), _tol(args))
    return ({"N_list": N_values}, {"gap.csv": _gap_csv(curve)},
            f"epsilon: {[round(float(e), 6) for e in curve.epsilon]}")


def _cmd_value(args):
    spec = _load(args)
    tol = _tol(args)
    val = asymptotic_value(spec, _solve_are(spec, tol, args), tol)
    return ({"pin_P": args.pin_P}, {"value.json": _value_payload(val)},
            f"asymptotic per-agent value {val.value:.6g}")


def _cmd_reproduce(args):
    spec = _load(args)
    tol = _tol(args)
    # the stability battery makes the one unpinned infinite-horizon solve;
    # fall back to the published reference root when the equation admits no
    # root of its own (recorded in the output)
    check = stability_report(spec, tol, t_sim=args.T)
    sol = check.solution
    pinned = sol is None
    if pinned:
        sol = solve_are(spec, tol, t_sim=args.T, pin_P=_REFERENCE_P * np.eye(spec.n))

    law = build_law(sol, spec, tol)
    sim = simulate_population(spec, law, replace(_config(args, spec), replications=1),
                              collect_agents=spec.N)
    x = sim.trajectories[:, :, 0]

    # gap curve on the matching finite-horizon problem (the centralized
    # benchmark needs a solvable population-N equation)
    fin = spec.with_horizon(args.fig3_T, H=np.eye(spec.n),
                            Gamma0=spec.Gamma, eta0=spec.eta(args.fig3_T))
    curve = gap_curve(fin, _sizes(args.N_list), _config(args, fin), tol)

    try:
        value = _value_payload(asymptotic_value(spec, sol, tol))
    except SolverError as exc:
        value = {"error": str(exc)}

    n_show = min(30, spec.N)
    return {"N_list": args.N_list, "fig3_T": args.fig3_T, "reference_P": _REFERENCE_P}, {
        "riccati.json": {
            "P": sol.P, "Pi": sol.Pi,
            "residual_P": sol.residual_P, "residual_Pi": sol.residual_Pi,
            "P_pinned_to_reference": pinned,
        },
        # fig1: the first agents' paths; fig2: population average vs mean field
        "fig1.csv": _csv(["t"] + [f"agent_{a}" for a in range(n_show)],
                         np.column_stack([sim.grid, x[:n_show].T])),
        "fig2.csv": _csv(["t", "xhatN", "xbar"],
                         np.column_stack([sim.grid, x.mean(axis=0),
                                          law.xbar_at(sim.grid)[:, 0]])),
        "fig3.csv": _gap_csv(curve),
        "value.json": value,
        "check.json": check.to_json(),
    }, None


def _add_common(p, sim=False):
    p.add_argument("spec", type=_readable, help="problem JSON file")
    p.add_argument("--outdir", default=None, help="output directory (default $MFSOC_OUTDIR or ./out)")
    p.add_argument("--step", type=_POSITIVE, default=None, help="Riccati/ODE integration step")
    if sim:
        p.add_argument("--dt", type=_POSITIVE, default=1e-3, help="Euler step; must divide the horizon")
        p.add_argument("--T", type=_POSITIVE, default=20.0, help="simulation/truncation horizon")
        p.add_argument("--reps", type=_COUNT, default=100)
        p.add_argument("--seed", type=_NATURAL, default=0)
        p.add_argument("--thinning", type=_COUNT, default=10)


def build_parser() -> _Parser:
    parser = _Parser(prog="mfsoc", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a problem file")
    p.add_argument("spec", type=_readable)

    p = sub.add_parser("solve-finite", help="finite-horizon backward triple")
    _add_common(p)
    p.add_argument("--max-rows", dest="max_rows", type=_COUNT, default=2000)
    p.add_argument("--population", action="store_true",
                   help="solve the population-N form instead of the limit form")
    p.set_defaults(func=_cmd_solve_finite)

    p = sub.add_parser("solve-infinite", help="algebraic equations + offset")
    _add_common(p)
    p.add_argument("--max-rows", dest="max_rows", type=_COUNT, default=2000)
    p.add_argument("--T", type=_POSITIVE, default=20.0)
    p.add_argument("--pin-P", dest="pin_P", type=_FINITE, default=None,
                   help="pin P of a 1-state problem to this value, bypassing its equation")
    p.set_defaults(func=_cmd_solve_infinite)

    p = sub.add_parser("check", help="stability/convexity battery")
    _add_common(p)
    p.add_argument("--T", type=_POSITIVE, default=20.0)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("simulate", help="closed-loop population simulation")
    _add_common(p, sim=True)
    p.add_argument("--N", type=_COUNT, default=None)
    p.add_argument("--agents", type=_NATURAL, default=0, help="trajectories to export")
    p.add_argument("--pin-P", dest="pin_P", type=_FINITE, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("gap", help="decentralized vs centralized cost gap")
    _add_common(p, sim=True)
    p.add_argument("--N-list", dest="N_list", type=_N_LIST, default="1,2,5,10,20,50")
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("value", help="asymptotic per-agent optimum")
    _add_common(p)
    p.add_argument("--T", type=_POSITIVE, default=20.0)
    p.add_argument("--pin-P", dest="pin_P", type=_FINITE, default=None)
    p.set_defaults(func=_cmd_value)

    p = sub.add_parser("reproduce-paper", help="full benchmark pipeline")
    _add_common(p, sim=True)
    p.add_argument("--N-list", dest="N_list", type=_N_LIST, default="1,2,5,10,20,50")
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
        exc.parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        _write(args, *args.func(args))
        return EXIT_OK
    except SystemExit as exc:
        return int(exc.code or 0)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except np.linalg.LinAlgError as exc:    # a ValueError, but a numerical failure
        print(f"solver failure: linear algebra: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except ModelError as exc:
        print(f"invalid problem: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
