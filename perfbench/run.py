"""mfsoc benchmark: one workload per invocation, end-to-end or traced.

    python3 perfbench/run.py --workload finite_gap --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one process, no added threads):
  finite_gap      gap_curve (Monte Carlo, N = 1..50, 400 reps) then
                  gap_curve_exact at N = 5..50 on problems/sec6_finite.json;
                  exact moment propagation dominates.
  mc_longrun      solve_are, build_law, asymptotic_value, then
                  simulate_population (N = 200, 60 reps, T = 15) and
                  simulate_meanfield_type (2000 reps) on problems/wellposed.json;
                  the simulator's step kernel dominates.
  reproduce_sec6  ``mfsoc reproduce-paper problems/sec6.json`` through
                  mfsoc.cli.main into a scratch directory; infinite-horizon
                  Riccati solves and the stability battery dominate.

A run makes exactly one pass of fixed work, sized to take about
``run_seconds`` of ``BENCHMARK.json``; ``--seconds`` is accepted for the
benchmark's command line and does not change the work.  With ``--trace 0``
the workload runs in a fresh process and the result carries the end-to-end
metrics: ``wall_s`` (the pass time, scaled to the reference machine speed
that ``speed.py`` samples during the pass), ``setup_s`` (median of several
timed ``import mfsoc`` plus problem loads, each in a fresh process and scaled
by a pure-Python loop timed around it) and ``peak_rss_mb``.  The measured
times are printed too.  A pass that ``speed.py`` cannot scale, because it ran
work in parallel with the probe, fails the run.  With ``--trace 1`` the pass
has spans around mfsoc's public functions (see ``tracer.py``) and the result
carries the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "workload.py"
SETUP_PROBES = 6          # timed set-ups per run besides the workload's own
RUN_LIMIT_S = 175.0       # whole run, set-up probes included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _git_sha():
    if not (ROOT / ".git").exists():   # benchmark checkouts are plain trees
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _worker(args, env, deadline, relay):
    """Run workload.py in a fresh process; return its JSON record."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("run time limit reached before the workload started")
    proc = subprocess.run([sys.executable, str(WORKER)] + args, cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.splitlines()
    if relay:
        for line in lines[:-1]:
            print(line)
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    needed = [ROOT / "src" / "mfsoc" / "__init__.py", ROOT / "problems"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"error: not an mfsoc source tree, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    stamp = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "loadavg_start": _loadavg(),
    }
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    probes = 0 if args.trace else SETUP_PROBES

    def setup_probe():
        return _worker(common + ["--setup-only"], env, deadline, relay=False)

    try:
        # the untimed first probe compiles bytecode; half the timed set-ups run
        # before the workload and half after, so they sample two machine states
        setup_probe()
        setups = [setup_probe() for _ in range(probes // 2)]
        rec = _worker(common + ["--trace", str(args.trace)], env, deadline, relay=True)
        setups += [setup_probe() for _ in range(probes - probes // 2)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    stamp["loadavg_end"] = _loadavg()
    stamp["numpy"] = rec["numpy"]

    attempted, failed = rec["attempted"], rec["failed"]
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in rec["layers"].items()}
        print(f"spans written to {rec['spans_file']}")
        if rec["absent"]:
            print("absent, reported as 0 (function no longer in mfsoc): "
                  + ", ".join(rec["absent"]))
        for k, m in metrics.items():
            print(f"{k} = {m['value']:.6g} {m['unit']}")
    elif rec["refusal"] is not None:
        print(f"error: wall_s cannot be scaled: {rec['refusal']}. The scaling in "
              "perfbench/speed.py holds only for a single-threaded, single-process pass.",
              file=sys.stderr)
        return 1
    else:
        setups.append(rec)
        raw_setup = [r["setup_s"] for r in setups]
        metrics = {
            "wall_s": {"value": rec["pass_ref_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(r["setup_ref_s"] for r in setups), "unit": "s"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
        }
        print(f"pass: measured {rec['pass_s']:.3f} s, slowdown {rec['pass_slowdown']:.3f} "
              f"from {rec['probes']} probes")
        print("set-ups (measured s / scaled s): " + ", ".join(
            f"{r['setup_s']:.4f}/{r['setup_ref_s']:.4f}" for r in setups))
        for k, m in metrics.items():
            print(f"{k} = {m['value']:.6g} {m['unit']}")
        print(f"measured wall_s = {rec['pass_s']:.6g} s, "
              f"setup_s = {statistics.median(raw_setup):.6g} s (not scaled)")
        print(f"error_rate = {failed / attempted:.6g} fraction ({failed}/{attempted})")
        print(f"cpu_s = {rec['cpu_s']:.6g} s (recorded, not gated)")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
