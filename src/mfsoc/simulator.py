"""Euler-Maruyama simulation of the coupled N-agent closed loop.

The population is always propagated with the true empirical average in the
coupling (never the mean-field approximation), so consistency is measured
rather than assumed.  Noise streams are counter-based per (seed,
replication, agent): agent i's Brownian path is identical across control
strategies and across population sizes, which gives common random numbers
for cost comparisons by construction.  Each stream is the Philox generator
that SeedSequence(entropy=seed, spawn_key=(replication, agent)) seeds, but
a chunk derives all of its streams' keys in one vectorized pass of the
SeedSequence hash (`model.agent_rngs`), bit-identical to it and pinned by
an oracle test, rather than building one SeedSequence per stream.

The simulator runs a batch of (law, N) pairs, and `simulate_population` is
a batch of one.  Replications are stepped in chunks of at most _MAX_WIDTH
agents of the widest pair.  A chunk holds its noise in one knot-major
table, a column per stream: rows 0 .. n-1 hold its n initial normals and
row n + k % block knot k's increment, scaled by sqrt(dt) once per fill,
drawn into the step scratch (free between knots) a tile of whole streams
at a time.  If the whole horizon fits twice _BLOCK_ELEMS floats, the table
holds all of it and `model.agent_normals` fills it from one re-keyed
Philox, so no stream stays open.  A longer horizon builds the max(N)
streams of each replication once (`model.agent_rngs`), keeps them open and
refills the increment rows a time block at a time, so the table's size
does not depend on the horizon.  A stream drawn in pieces yields the same
normals as one draw, so the two draws are bit-identical.  Every pair steps
on the first N columns of each replication, so a gap curve draws each
shared stream once, in one pass.

Each knot runs only the state recursion: the live average (N > 1), the
drift and diffusion terms it drives and the Euler step, as broadcast
multiply-adds (`linalg.matvec`, without BLAS) on the pair's own
`synthesis._loop_tables`.  The new state goes into the pair's slab of S
knots, (S, n, replications, agents), where S is the pair's share of
_SLAB_STATES agent-states: 163 knots for a run of 50 agents, one for the
widest.  Everything read off the states is evaluated once per slab,
broadcast over its knots: the divergence test, the running cost, the
consistency error and the thinned moments and collected agents.  With
dev = X - ex and v = F ex + ou, so that U = F dev + v, the running cost is
one centred form per agent, dev'(Q + F'RF)dev + 2 dev'F'Rv, plus v'Rv once
per replication; v, Rv and 2F'Rv are affine in the average, rows of the
stacked w-term table, and U is formed only at the recorded knots.  The
per-element arithmetic is that of one knot, the sums add knot by knot in
time order, and every reduction over agents runs in fixed index order, so
outputs are bit-identical for a given configuration whatever S is; the
running cost is a plain sum over the interior knots plus the trapezoid's
endpoint halves.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import lift_msq, matvec, spectral_abscissa
from .model import (ProblemSpec, _check_count, _check_natural, _check_population,
                    _check_positive, _draw_rows, _is_integer, agent_normals, agent_rngs,
                    initial_chol)
from .synthesis import ControlLaw, _loop_tables

_MAX_WIDTH = 20000      # replications x agents stepped together
# noise floats per time block, the size of a chunk's one buffer when it
# draws from open streams.  A chunk whose whole horizon fits 2 _BLOCK_ELEMS
# floats draws it at once and opens no stream; at _MAX_WIDTH agents the open
# streams (about 780 B each) take about one block buffer, so the factor 2
# keeps the widest chunks' noise memory where it was
_BLOCK_ELEMS = 1 << 21
# agent-states in one pair's slab of knots.  The slab's evaluation costs a
# few dozen numpy calls whatever its length, so a narrow run (50 agents)
# pays them once per 163 knots; the shared step scratch, 4 floats per state
# of the widest slab, stays a small fraction of one block buffer, and is
# also the tile through which a chunk's noise is drawn
_SLAB_STATES = _BLOCK_ELEMS >> 8
_DIVERGE = 1e12
_max, _min = np.maximum.reduce, np.minimum.reduce


class DivergenceError(RuntimeError):
    def __init__(self, time, agent, replication):
        self.time = float(time)
        self.agent = int(agent)
        self.replication = int(replication)
        super().__init__(
            f"state diverged at t={time:.6g} (agent {agent}, replication {replication})"
        )


@dataclass
class SimConfig:
    dt: float = 1e-3
    T_sim: float | None = None   # defaults to the spec horizon when finite
    replications: int = 1
    seed: int = 0
    thinning: int = 10

    def __post_init__(self):
        _check_positive(self.dt, "dt")
        if self.T_sim is not None:
            _check_positive(self.T_sim, "T_sim")
        _check_count(self.replications, "replications")
        _check_natural(self.seed, "seed")
        _check_count(self.thinning, "thinning")

    def horizon_for(self, spec: ProblemSpec) -> float:
        """The simulated horizon, which dt must divide into whole steps."""
        if self.T_sim is None and spec.infinite_horizon:
            raise ValueError("T_sim required for infinite-horizon simulation")
        T = float(spec.horizon if self.T_sim is None else self.T_sim)
        if abs(round(T / self.dt) * self.dt - T) > 1e-9 * T:
            raise ValueError(f"dt = {self.dt:g} does not divide the horizon T = {T:g} "
                             "into whole steps")
        return T


@dataclass
class SimulationOutput:
    grid: np.ndarray                  # thinned time grid
    individual_costs: np.ndarray      # (N,) replication-averaged
    social_cost: float                # sum of individual_costs
    social_se: float                  # std error of the per-rep social cost
    rep_social: np.ndarray            # (replications,)
    consistency_error: float          # mean of int ||x^(N) - xbar||^2 dt
    consistency_se: float
    rep_consistency: np.ndarray
    state_second_moment: np.ndarray   # (m,) agent/rep-averaged ||x||^2
    control_second_moment: np.ndarray
    tail_bound: float
    trajectories: np.ndarray | None = None   # (agents, m, n), replication 0
    controls: np.ndarray | None = None       # (agents, m, r), replication 0
    # how the run was stepped: chunk_width (replications per chunk), chunks,
    # slab_knots (this pair's slab length), draw ("whole" or "open streams")
    # and the seconds of the whole batch spent on noise (stream set-up, draws
    # and scaling), on the recursion and on slab evaluation
    diagnostics: dict = field(default_factory=dict)


def _dot(a, b, out=None):
    """sum_i a_i b_i over the leading axis, in index order."""
    out = np.multiply(a[0], b[0], out=out)
    for i in range(1, len(a)):
        out += a[i] * b[i]
    return out


def _tail_bound(spec, run, integrand_end):
    """Truncation-error estimate: end integrand over twice the decay rate of
    the closed loop's last knot."""
    absc = spectral_abscissa(lift_msq(run.A[-1] + spec.G, run.C[-1]))
    if absc >= 0:
        return float("inf")
    return float(integrand_end / (-absc))


class _Run:
    """One (law, N) pair of a batch: its closed-loop tables, its accumulators
    over replications and, within a chunk, its slab of states.

    Slot s of the slab holds the state at knot k0 + s.  `knot` steps one
    knot; the knot that closes a slab, its S-th or the last, first
    evaluates it (`evaluate`) and then steps into slot 0, so no state is
    ever copied between slots and a slab of one knot steps in place.  The evaluation's tables (among them
    M = Q + F'RF for the centred cost) carry their knots on a middle axis,
    so a slab takes a plain slice.
    """

    def __init__(self, spec, law, N, tgrid, coupling, cfg, m_thin, collect_agents, slab):
        n, r = spec.n, spec.r
        self.A, self.C, F, W, o = _loop_tables(spec, law, tgrid, coupling)
        self.N, self.S, self.r = N, slab, r
        self.steps, self.dt, self.th, self.m_thin = tgrid.size - 1, cfg.dt, cfg.thinning, m_thin
        # the w-terms with their offsets as a last column: the step's dx, cx,
        # then the evaluation's ou, ex, v, Rv and 2F'Rv, which a slab of one
        # knot reads in place from the recursion and a longer one re-forms
        Wo = np.concatenate((W, o[..., None]), axis=2)
        v = F @ Wo[:, r + 2 * n:] + Wo[:, :r]
        Rv = spec.R @ v
        Wo = np.concatenate((Wo[:, r:r + 2 * n], Wo[:, :r], Wo[:, r + 2 * n:], v, Rv,
                             2 * F.transpose(0, 2, 1) @ Rv), axis=1)
        self.W, self.o = Wo[..., :n], Wo[..., n:]
        self.live = bool(np.any(self.W))
        self.dxo, self.cxo = self.o[:, :n, None], self.o[:, n:2 * n, None]
        self.We = np.moveaxis(self.W[:, 2 * n:], 0, 2)[..., None]   # (rows, n, t, 1)
        self.oe = self.o[:, 2 * n:].transpose(1, 0, 2)[..., None]   # (rows, t, 1, 1)
        e = (0, r, r + n, 2 * r + n, 3 * r + n, None)     # ou, ex, v, Rv, 2F'Rv
        self.cuts = [slice(a, b) for a, b in zip(e, e[1:])]
        self.M = np.moveaxis(spec.Q + F.transpose(0, 2, 1) @ spec.R @ F, 0, 2)[..., None, None]
        self.F = np.moveaxis(F, 0, 2)[..., None, None]          # (r, n, t, 1, 1)
        self.xb = law.xbar_at(tgrid).T[..., None]               # (n, t, 1)
        self.agent_cost = np.zeros(N)
        self.rep_social, self.rep_consist = np.empty(cfg.replications), np.empty(cfg.replications)
        self.sm_state, self.sm_ctrl = np.zeros(m_thin), np.zeros(m_thin)
        self.traj = np.zeros((collect_agents, m_thin, spec.n)) if collect_agents else None
        self.ctrls = np.zeros((collect_agents, m_thin, spec.r)) if collect_agents else None
        self.end_integrand = self.eval_s = 0.0

    def begin(self, X0, dws, bufs, collect):
        """Enter a chunk: slot 0 takes the first N agents of the shared
        (n, B, max N) initial state, the step reads its columns of the noise
        table's (block, B, max N) increment rows dws, and the step and
        evaluation scratch are leading slices of the shared flat buffers."""
        n, B, _ = X0.shape
        N, S = self.N, self.S
        self.Xs = np.empty((S, n, B, N))
        self.Xs[0] = X0[:, :, :N]
        self.k0 = self.latest = 0
        self.xav = self.Xs[..., 0] if N == 1 else np.empty((S, n, B))
        self.dws = dws[:, :, :N]
        self.cerr = np.empty((S + 1, B))      # row 0: the previous slab's last knot
        self.cost, self.l0 = np.zeros((B, N)), np.empty((B, N))
        self.consist = np.zeros(B)
        self.csum = np.zeros((B, 1))          # the interior knots' v'Rv
        self.collect = collect
        # the evaluation's dev, and M dev or U, share the step's scratch, as a
        # closing knot evaluates before it steps; wt: the current knot's w-terms
        self.drift, self.diff = (buf[:n * B * N].reshape(n, B, N) for buf in bufs[:2])
        self.wt = bufs[2][:self.W.shape[1] * B].reshape(-1, B)
        self.dx, self.cx = self.wt[:n, :, None], self.wt[n:2 * n, :, None]
        self.wk = [self.wt[2 * n:, None, :, None][c] for c in self.cuts]
        self.bufs, self.views = bufs[:2], {}

    def slab_views(self, m):
        """A slab of m knots' states, averages, scratch (the controls take M
        dev's buffer once the cost is read), each also with its knot axis
        second, and consistency rows; kept for the chunk's few slab lengths."""
        if m not in self.views:
            _, n, B, N = self.Xs.shape
            dev, Md, U = (buf[:k * m * B * N].reshape(m, k, B, N)
                          for buf, k in zip(self.bufs + self.bufs[1:], (n, n, self.r)))
            Xs, xav, c = self.Xs[:m], self.xav[:m], self.cerr
            self.views[m] = (Xs, xav, dev, U, *(a.swapaxes(0, 1) for a in (Xs, xav, dev, Md)),
                             c[:m], c[1:m + 1])
        return self.views[m]

    def knot(self, k, g):
        """Knot k: the live average and the step's w-terms, the slab's
        evaluation if k closes it, then the Euler step on the increments of
        row g of dws.  Returns True if the evaluated slab diverged."""
        s = k - self.k0
        X = self.Xs[s]
        if self.live:
            xk = self.xav[s]
            if self.N > 1:
                np.add.reduce(X, axis=2, out=xk)     # X.mean(axis=2), bit for bit
                xk /= self.N
            matvec(self.W[k], xk, self.wt)
            self.wt += self.o[k]
            dx, cx = self.dx, self.cx
        else:
            dx, cx = self.dxo[k], self.cxo[k]
        if s + 1 == self.S or k == self.steps:
            t = time.perf_counter()
            diverged = self.evaluate(k + 1)
            self.eval_s += time.perf_counter() - t
            if diverged or k == self.steps:
                return diverged
            nxt, self.k0 = self.Xs[0], k + 1
        else:
            nxt = self.Xs[s + 1]
        drift, diff = self.drift, self.diff
        matvec(self.A[k], X, drift)
        drift += dx
        drift *= self.dt
        matvec(self.C[k], X, diff)
        diff += cx
        diff *= self.dws[g]
        np.add(X, drift, out=nxt)
        nxt += diff
        self.latest = k + 1
        return False

    def evaluate(self, k1):
        """Everything read off the states of knots k0 .. k1 - 1: the
        divergence test first (True if it fails), then the running cost, the
        consistency error and the thinned records with their controls."""
        k0, m, N, steps, dt = self.k0, k1 - self.k0, self.N, self.steps, self.dt
        Xs, xav, dev, U, XT, xavT, devT, MdT, cprev, cnew = (
            self.views.get(m) or self.slab_views(m))
        first = 1 if k0 == 0 else 0       # the initial draw is not tested
        tested = Xs[first:]
        if tested.size and not (_max(tested, None) <= _DIVERGE
                                and _min(tested, None) >= -_DIVERGE):
            return True                       # also catches NaN
        if not self.live and N > 1:
            np.add.reduce(Xs, axis=3, out=xav)
            xav /= N
        inplace = self.live and m == 1       # the recursion formed this knot's w-terms
        w = self.wk if inplace else self.oe[:, k0:k1]
        if self.live and m > 1:
            w = matvec(self.We[:, :, k0:k1], xavT)[..., None] + w
        ou, ex, v, Rv, b2 = w if inplace else (w[c] for c in self.cuts)
        np.subtract(XT, ex, out=devT)
        matvec(self.M[:, :, k0:k1], devT, MdT)
        MdT += b2
        lrun = _dot(MdT, devT, MdT[0])    # (m, B, N)
        c = _dot(v, Rv)                   # (m, B or 1, 1)
        if k0 == 0:
            np.add(lrun[0], c[0], out=self.l0)
        # the knots between the endpoints are a plain sum; the trapezoid's
        # endpoint halves are added at the last knot
        for row, cr in zip(lrun[first:min(k1, steps) - k0], c[first:min(k1, steps) - k0]):
            self.cost += row
            self.csum += cr
        # the consistency error's trapezoid pairs each knot from knot 1 on with
        # the one before; row 0 of cerr holds the previous slab's last knot
        d = np.subtract(xavT, self.xb[:, k0:k1])
        _dot(d, d, cnew)
        pairs = cprev + cnew if k0 else cprev[1:] + cnew[1:]
        pairs *= 0.5 * dt
        for row in pairs:
            self.consist += row
        self.cerr[0] = cnew[-1]
        if k1 > steps:                    # before the controls take lrun's buffer
            lT = lrun[steps - k0]
            lT += c[steps - k0]
            self.end_integrand += float(np.mean(np.abs(lT))) * lT.shape[0]
            self.cost += self.csum
            self.cost *= dt
            lT += self.l0
            lT *= 0.5 * dt
            self.cost += lT
        for slots, rows in self.thinned(k0, k1):
            Xt, Ut = Xs[slots], U[slots]
            UtT = matvec(self.F[:, :, k0:k1][:, :, slots], XT[:, slots], Ut.swapaxes(0, 1))
            UtT += ou[:, slots]
            if self.collect:
                self.traj[:, rows] = Xt[:, :, 0, :self.collect].transpose(2, 0, 1)
                self.ctrls[:, rows] = Ut[:, :, 0, :self.collect].transpose(2, 0, 1)
            sq = np.multiply(Xt, Xt, out=dev[:len(Xt)])
            self.sm_state[rows] += np.add.reduce(sq.reshape(len(Xt), -1), axis=1) / N
            Ut *= Ut
            self.sm_ctrl[rows] += np.add.reduce(Ut.reshape(len(Ut), -1), axis=1) / N
        return False

    def thinned(self, k0, k1):
        """(slab slots, record rows) of the recorded knots in k0 .. k1 - 1:
        every th-th knot, and the last one."""
        th, steps, rec = self.th, self.steps, []
        first = -k0 % th
        if first < k1 - k0:
            rec.append((slice(first, k1 - k0, th), slice((k0 + first) // th, (k1 - 1) // th + 1)))
        if k1 > steps and steps % th:
            rec.append((slice(steps - k0, steps - k0 + 1), slice(self.m_thin - 1, self.m_thin)))
        return rec

    def first_divergence(self):
        """(knot, replication in the chunk, agent) of the first state of the
        current slab, the initial draw aside, beyond _DIVERGE or NaN; or None."""
        first = 1 if self.k0 == 0 else 0
        bad = ~(np.abs(self.Xs[first:self.latest - self.k0 + 1]) <= _DIVERGE).all(axis=1)
        if not bad.any():
            return None
        s, b, i = np.argwhere(bad)[0]
        return self.k0 + first + s, b, i


def simulate_population(spec: ProblemSpec, law: ControlLaw, cfg: SimConfig,
                        N: int | None = None, coupling: str = "empirical",
                        collect_agents: int = 0) -> SimulationOutput:
    """Simulate N agents under a feedback law.

    coupling="empirical": the dynamics/cost coupling term uses the live
    average x^(N).  coupling="xbar": the precomputed mean-field trajectory
    replaces it (the single-agent mean-field-type system).
    """
    return _simulate(spec, [(law, spec.N if N is None else N)], cfg, coupling,
                     collect_agents)[0]


def _simulate(spec: ProblemSpec, pairs, cfg: SimConfig, coupling: str = "empirical",
              collect_agents: int = 0) -> list[SimulationOutput]:
    """Simulate every (law, N) pair of pairs on one draw of the shared noise.

    Per chunk of replications each of the max(N) streams of each
    replication is drawn once, whole or a time block at a time; every pair
    steps its own slab of states on the first N columns of the increments,
    with its own closed-loop tables, so each pair's arithmetic is that of
    its call alone.  Chunks are sized by the widest pair, so a pair's sums over
    replications (its individual costs and second moments) move by rounding
    from its call alone only when that sizing splits its replications
    differently; per-replication results do not move.  coupling and
    collect_agents apply to every pair.  A divergence raises for the pair
    that diverges first in time (first in order at the same knot): when one
    slab fails its test, every pair's states not yet tested are tested too.
    """
    if coupling not in ("empirical", "xbar"):
        raise ValueError("coupling must be 'empirical' or 'xbar'")
    checked = []
    for law, N in pairs:
        if coupling == "xbar" and law.mf_source == "empirical":
            raise ValueError("coupling='xbar' needs a law with a stored mean-field path; "
                             "a centralized law (mf_source 'empirical') has none")
        N = _check_population(N)
        if not (_is_integer(collect_agents) and 0 <= collect_agents <= N):
            raise ValueError(f"collect_agents must be an integer in 0..N = {N}, "
                             f"got {collect_agents!r}")
        checked.append((law, N))
    if not checked:
        return []
    n, r = spec.n, spec.r
    T = cfg.horizon_for(spec)
    dt = cfg.dt
    steps = int(round(T / dt))
    tgrid = dt * np.arange(steps + 1)
    tgrid[-1] = T
    finite = not spec.infinite_horizon and abs(T - spec.horizon) <= 1e-9

    reps = cfg.replications
    N_max = max(N for _, N in checked)
    chunk = max(1, min(reps, _MAX_WIDTH // N_max))
    whole = chunk * N_max * (n + steps) <= 2 * _BLOCK_ELEMS
    block = steps if whole else max(1, min(steps, _BLOCK_ELEMS // (chunk * N_max)))
    L0 = initial_chol(spec)
    sqdt = np.sqrt(dt)

    thin_idx = np.arange(0, steps + 1, cfg.thinning)
    if thin_idx[-1] != steps:
        thin_idx = np.append(thin_idx, steps)
    runs = [_Run(spec, law, N, tgrid, coupling, cfg, thin_idx.size, collect_agents,
                 max(1, min(steps + 1, _SLAB_STATES // (chunk * N))))
            for law, N in checked]
    E = max(run.S * chunk * run.N for run in runs)
    scratch = np.empty((n + max(n, r)) * E)          # the step's, and the noise tile
    bufs = [scratch[:n * E], scratch[n * E:], np.empty((3 * r + 4 * n) * chunk)]
    table = np.empty((n + block) * chunk * N_max)     # a narrower last chunk takes a slice
    noise_s = loop_s = tail_s = 0.0

    done = 0
    while done < reps:
        B = min(chunk, reps - done)
        W = B * N_max
        t0 = time.perf_counter()               # the chunk's noise and loop
        # one stream per (replication, agent), column w = b max(N) + i; the
        # first fill takes every row, a later one (open streams only) the
        # next block's increment rows
        noise = table[:(n + block) * W].reshape(n + block, W)
        if whole:
            agent_normals(cfg.seed, range(done, done + B), range(N_max), n + steps,
                          noise.T, scratch)
        else:
            gens = None                     # the last chunk's streams go first
            gens = agent_rngs(cfg.seed, range(done, done + B), range(N_max))
            _draw_rows(gens, noise.T, scratch)
        noise[n:] *= sqdt
        noise_s += time.perf_counter() - t0
        X0 = (spec.x0_mean[:, None] + matvec(L0, noise[:n])).reshape(n, B, N_max)
        dws = noise[n:].reshape(block, B, N_max)
        for run in runs:
            run.begin(X0, dws, bufs, collect_agents if done == 0 else 0)

        with np.errstate(over="ignore", invalid="ignore"):   # a divergence raises below
            for k in range(steps + 1):
                if k % block == 0 and 0 < k < steps:
                    t1 = time.perf_counter()
                    rows = noise[n:n + min(block, steps - k)]
                    _draw_rows(gens, rows.T, scratch)
                    rows *= sqdt
                    noise_s += time.perf_counter() - t1
                for run in runs:
                    if run.knot(k, k % block):
                        found = [(d[0], j, d) for j, other in enumerate(runs)
                                 if (d := other.first_divergence()) is not None]
                        knot, _, (_, b, i) = min(found)
                        raise DivergenceError(tgrid[knot], i, done + b)
        loop_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        for run in runs:
            cost = run.cost
            if finite:
                X = run.Xs[steps - run.k0]
                xT = X.mean(axis=2) if coupling == "empirical" else run.xb[:, -1]
                devT = X - (matvec(spec.Gamma0, xT) + spec.eta0[:, None])[:, :, None]
                cost += _dot(matvec(spec.H, devT), devT)
            run.agent_cost += cost.sum(axis=0)
            run.rep_social[done:done + B] = cost.sum(axis=1)
            run.rep_consist[done:done + B] = run.consist
        tail_s += time.perf_counter() - t0
        done += B

    eval_s = sum(run.eval_s for run in runs)
    diagnostics = {"chunk_width": chunk, "chunks": math.ceil(reps / chunk),
                   "draw": "whole" if whole else "open streams", "noise_s": noise_s,
                   "recursion_s": loop_s - noise_s - eval_s, "evaluation_s": eval_s + tail_s}
    outs = []
    for run in runs:
        run.agent_cost /= reps
        run.sm_state /= reps
        run.sm_ctrl /= reps
        rep_social, rep_consist = run.rep_social, run.rep_consist
        outs.append(SimulationOutput(
            grid=tgrid[thin_idx],
            individual_costs=run.agent_cost,
            social_cost=float(run.agent_cost.sum()),
            social_se=float(rep_social.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0,
            rep_social=rep_social,
            consistency_error=float(rep_consist.mean()),
            consistency_se=float(rep_consist.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0,
            rep_consistency=rep_consist,
            state_second_moment=run.sm_state,
            control_second_moment=run.sm_ctrl,
            tail_bound=(_tail_bound(spec, run, run.end_integrand / reps)
                        if spec.infinite_horizon else 0.0),
            trajectories=run.traj,
            controls=run.ctrls,
            diagnostics={**diagnostics, "slab_knots": run.S},
        ))
    return outs


def simulate_meanfield_type(spec: ProblemSpec, law: ControlLaw, cfg: SimConfig) -> SimulationOutput:
    """Single-agent system whose coupling is the analytic mean trajectory.

    The mean of the closed-loop state coincides with the stored mean-field
    path, so the expectation in the dynamics/cost is replaced by it.
    """
    return simulate_population(spec, law, cfg, N=1, coupling="xbar")
