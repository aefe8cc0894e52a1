"""One benchmark workload in a fresh process: set up, run one pass, check outputs.

Run by ``perfbench/run.py``; prints its checked values as it goes and a JSON
record as its last line.  ``--setup-only`` stops after the set-up, which
``run.py`` uses to time the set-up several times per run.

The workload seed reaches the library only through ``SimConfig.seed`` and the
CLI's ``--seed``; everything else about the inputs is fixed, so a pass is the
time to a result of fixed accuracy.  A run makes exactly one pass, whatever
the machine's speed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"

PROBLEMS = {
    "finite_gap": "problems/sec6_finite.json",
    "mc_longrun": "problems/wellposed.json",
    "reproduce_sec6": "problems/sec6.json",
}

# exact gap at N = 5, 10, 20, 50 on sec6_finite, step 2e-4, at the seed commit
EXACT_EPS = {5: 1.30354718e-3, 10: 5.26967275e-4, 20: 2.29978446e-4, 50: 8.36258036e-5}
# standard error of the Monte Carlo gap at N = 5, 10, 20, 50 (400 replications,
# dt 1e-3): the root-mean-square deviation from EXACT_EPS over 265 seeds at the
# seed commit.  The per-replication gaps are strongly right-skewed, so a run
# that misses their rare large values reports a small mean and a small se at
# once; its own se alone gave |z| > 4 in 6 % of runs of a correct program.
GAP_SE = {5: 4.2e-3, 10: 1.8e-3, 20: 6.7e-4, 50: 2.1e-4}
REFERENCE_PI = 0.3290
REPRO_FILES = 7
Z_MAX = 4.0
LOOP_REFERENCE_S = 15e-3   # _interpreter_loop time that defines the reference speed


class Pass:
    """Operations of one pass: a top-level call plus its output checks.

    An operation fails when one of its checks fails or it was never checked;
    an exception anywhere in the pass fails every operation of the pass.
    """

    def __init__(self, ops):
        self.ops = list(ops)
        self.checked = set()
        self.bad = set()
        self.counts = {}

    def check(self, op, what, ok, detail):
        self.checked.add(op)
        if not ok:
            self.bad.add(op)
        print(f"  check {op} {what}: {detail} [{'ok' if ok else 'FAIL'}]")

    @property
    def failed(self):
        return sum(1 for op in self.ops if op not in self.checked or op in self.bad)


def _interpreter_loop():
    """Time a fixed pure-Python loop, the speed reference for one set-up.

    It needs no numpy, so it can run before the import that the set-up times.
    A set-up is mostly interpreter work (importing numpy and mfsoc), and on a
    shared host its time tracks this loop's from one process to the next.
    """
    t = time.perf_counter()
    s = 0
    for i in range(200_000):
        s += i * i
    return time.perf_counter() - t


def _z(estimate, se, target):
    return (estimate - target) / se if se > 0 else float("inf")


def finite_gap(p, spec, seed, outdir):
    from mfsoc import simulator, social

    Ns = [1, 2, 5, 10, 20, 50]
    cfg = simulator.SimConfig(dt=1e-3, replications=400, seed=seed)
    mc = social.gap_curve(spec, Ns, cfg)
    exact = social.gap_curve_exact(spec, sorted(EXACT_EPS), step=2e-4)
    for N, eps in zip(exact.N_values, exact.epsilon):
        rel = abs(eps / EXACT_EPS[N] - 1.0)
        p.check("gap_curve_exact", f"eps N={N}", rel <= 1e-6,
                f"{eps:.8e} vs {EXACT_EPS[N]:.8e}, rel err {rel:.1e} (<= 1e-6)")
    for j, N in enumerate(mc.N_values):
        if N not in EXACT_EPS:
            continue
        se = max(mc.epsilon_se[j], GAP_SE[N])
        z = _z(mc.epsilon[j], se, EXACT_EPS[N])
        p.check("gap_curve", f"eps N={N}", abs(z) <= Z_MAX,
                f"{mc.epsilon[j]:.4e}, run's se {mc.epsilon_se[j]:.1e}, z={z:+.2f} vs exact "
                f"with se {se:.1e} (|z| <= {Z_MAX:g}; plain z "
                f"{_z(mc.epsilon[j], mc.epsilon_se[j], EXACT_EPS[N]):+.2f})")


def mc_longrun(p, spec, seed, outdir):
    from mfsoc import riccati, simulator, social, synthesis

    sol = riccati.solve_are(spec, t_sim=15.0)
    res = max(sol.residual_P, sol.residual_Pi)
    p.check("solve_are", "residuals", res <= 1e-8,
            f"max(residual_P, residual_Pi) = {res:.2e} (<= 1e-8)")
    law = synthesis.build_law(sol, spec)
    p.check("build_law", "knots", len(law.grid) == len(sol.grid),
            f"{len(law.grid)} knots on a {len(sol.grid)}-point solution grid")
    val = social.asymptotic_value(spec, sol)
    p.check("asymptotic_value", "tail", val.tail_bound < 0.01 * abs(val.value),
            f"value {val.value:.6f}, tail bound {val.tail_bound:.1e} (< 1% of value)")
    N = 200
    cfg = simulator.SimConfig(dt=2e-3, T_sim=15.0, replications=60, seed=seed)
    pop = simulator.simulate_population(spec, law, cfg, N=N)
    z = _z(pop.social_cost / N, pop.social_se / N, val.value)
    p.check("simulate_population", "cost", abs(z) <= Z_MAX,
            f"{pop.social_cost / N:.5f} +- {pop.social_se / N:.1e}, z={z:+.2f} (|z| <= {Z_MAX:g})")
    cfg = simulator.SimConfig(dt=2e-3, T_sim=15.0, replications=2000, seed=seed)
    mf = simulator.simulate_meanfield_type(spec, law, cfg)
    z = _z(mf.social_cost, mf.social_se, val.value)
    p.check("simulate_meanfield_type", "cost", abs(z) <= Z_MAX,
            f"{mf.social_cost:.5f} +- {mf.social_se:.1e}, z={z:+.2f} (|z| <= {Z_MAX:g})")


def reproduce_sec6(p, spec, seed, outdir):
    from mfsoc import cli

    argv = ["reproduce-paper", PROBLEMS["reproduce_sec6"], "--outdir", str(outdir),
            "--N-list", "1,2,5", "--reps", "5", "--dt", "0.005", "--T", "6",
            "--seed", str(seed)]
    rc = cli.main(argv)
    p.check("cli.main", "exit code", rc == 0, f"{rc} (== 0)")
    files = {f.name: f.read_bytes() for f in sorted(outdir.iterdir())}
    p.counts["cli.output_bytes"] = sum(len(b) for b in files.values())
    p.check("cli.main", "files", len(files) == REPRO_FILES,
            f"{len(files)} written (== {REPRO_FILES}): {', '.join(files)}")
    ric = json.loads(files["riccati.json"]) if "riccati.json" in files else {}
    pi = ric.get("Pi", [[float("nan")]])[0][0]
    pinned = ric.get("P_pinned_to_reference")
    p.check("cli.main", "pinned Pi", pinned is True and abs(pi - REFERENCE_PI) <= 1e-3,
            f"Pi {pi:.6f} with P pinned: {pinned} (within 1e-3 of {REFERENCE_PI})")


# workload -> (pass function, operations per pass)
WORKLOADS = {
    "finite_gap": (finite_gap, ["gap_curve", "gap_curve_exact"]),
    "mc_longrun": (mc_longrun, ["solve_are", "build_law", "asymptotic_value",
                                "simulate_population", "simulate_meanfield_type"]),
    "reproduce_sec6": (reproduce_sec6, ["cli.main"]),
}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    before = _interpreter_loop()
    t0 = time.perf_counter()
    import mfsoc
    import mfsoc.cli  # noqa: F401  (the CLI entry module is part of the public surface)

    spec = mfsoc.ProblemSpec.load(PROBLEMS[args.workload])
    setup_s = time.perf_counter() - t0
    # the loops bracket the set-up on the same core, a moment apart
    setup = {"setup_s": setup_s,
             "setup_ref_s": setup_s * LOOP_REFERENCE_S / ((before + _interpreter_loop()) / 2)}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    import numpy
    import speed

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    fn, ops = WORKLOADS[args.workload]
    work = SCRATCH / f"work-{os.getpid()}"
    p = Pass(ops)
    # spans already time the traced run; the sampler would add to them
    sampler = speed.Sampler() if tracer is None else contextlib.nullcontext()
    cpu0 = time.process_time()
    try:
        with sampler:
            t = time.perf_counter()
            try:
                fn(p, spec, args.seed, work / "repro")
                failed = p.failed
            except Exception:
                print("  pass raised:\n" + traceback.format_exc())
                failed = len(ops)
            pass_s = time.perf_counter() - t
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        **setup,
        "pass_s": pass_s,
        "cpu_s": time.process_time() - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(ops),
        "failed": failed,
        "numpy": numpy.__version__,
    }
    if tracer is None:
        record["probes"] = len(sampler.samples)
        record["refusal"] = sampler.refusal()
        if record["refusal"] is None:
            record["pass_slowdown"] = sampler.slowdown()
            record["pass_ref_s"] = sampler.at_reference()
    else:
        SCRATCH.mkdir(exist_ok=True)
        spans = SCRATCH / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        layers = tracer.summary()
        layers["cli.output_bytes"] = (p.counts.get("cli.output_bytes", 0), "count")
        layers["trace.wall_s"] = (pass_s, "s")
        record["layers"] = layers
        record["absent"] = tracer.absent_metrics()
        record["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
