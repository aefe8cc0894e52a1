"""Problem definition: system/cost matrices, time-varying signals, and
structural validation.

A :class:`ProblemSpec` collects the constant matrices of the agent dynamics
dx_i = (A x_i + B u_i + G x^(N) + f) dt + (C x_i + D u_i + sigma) dW_i, the
quadratic weights (Q, R, Gamma, and the terminal triple H, Gamma0, eta0 for
finite horizons), the deterministic signals f, sigma, eta, the initial-state
law, and the population size.  Signals are closed-form descriptors rather
than opaque callbacks so problems round-trip through JSON.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import symmetrize


class ModelError(ValueError):
    """Structurally invalid problem data."""


_SIGNAL_KINDS = ("constant", "exponential", "rational", "sampled", "sum", "scaled")


@dataclass(frozen=True)
class Signal:
    """Vector-valued deterministic signal on [0, inf).

    Supported kinds:
      constant     value
      exponential  a * exp(b t)
      rational     a / (t + c), c > 0
      sampled      linear interpolation on a strictly increasing grid,
                   clamped outside the grid
      sum          pointwise sum of sub-signals
      scaled       matrix @ inner signal (used for derived weights)
    """

    kind: str
    value: np.ndarray | None = None
    a: np.ndarray | None = None
    b: float = 0.0
    c: float = 1.0
    times: np.ndarray | None = None
    values: np.ndarray | None = None
    terms: tuple["Signal", ...] = ()
    matrix: np.ndarray | None = None
    inner: "Signal | None" = None

    def __post_init__(self):
        if self.kind not in _SIGNAL_KINDS:
            raise ModelError(f"unknown signal kind {self.kind!r}")
        if self.kind == "rational" and not self.c > 0:
            raise ModelError("rational signal requires c > 0")
        if self.kind == "sampled":
            t = np.asarray(self.times, dtype=float)
            if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) <= 0):
                raise ModelError("sampled signal requires a strictly increasing grid")

    @property
    def dim(self) -> int:
        if self.kind == "constant":
            return np.atleast_1d(self.value).size
        if self.kind in ("exponential", "rational"):
            return np.atleast_1d(self.a).size
        if self.kind == "sampled":
            return np.atleast_2d(self.values).shape[-1] if np.asarray(self.values).ndim > 1 else 1
        if self.kind == "sum":
            return self.terms[0].dim
        return np.atleast_2d(self.matrix).shape[0]

    def __call__(self, t):
        """Evaluate at scalar t or a 1-d array of times.

        Returns shape (dim,) for scalar t, (len(t), dim) otherwise.  The ODE
        solvers tabulate a signal once on their stage grid with one call.
        """
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)
        if self.kind == "constant":
            out = np.broadcast_to(np.atleast_1d(self.value), (tt.size, self.dim)).copy()
        elif self.kind == "exponential":
            out = np.exp(self.b * tt)[:, None] * np.atleast_1d(self.a)[None, :]
        elif self.kind == "rational":
            out = (1.0 / (tt + self.c))[:, None] * np.atleast_1d(self.a)[None, :]
        elif self.kind == "sampled":
            grid = np.asarray(self.times, dtype=float)
            vals = np.atleast_2d(np.asarray(self.values, dtype=float))
            if vals.shape[0] != grid.size:
                vals = vals.T
            out = np.column_stack(
                [np.interp(tt, grid, vals[:, j]) for j in range(vals.shape[1])]
            )
        elif self.kind == "sum":
            out = sum(term(tt) for term in self.terms)
        else:  # scaled
            out = self.inner(tt) @ np.atleast_2d(self.matrix).T
        return out[0] if scalar else out

    # -- JSON round trip -------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "value": np.atleast_1d(self.value).tolist()}
        if self.kind == "exponential":
            return {"kind": "exponential", "a": np.atleast_1d(self.a).tolist(), "b": self.b}
        if self.kind == "rational":
            return {"kind": "rational", "a": np.atleast_1d(self.a).tolist(), "c": self.c}
        if self.kind == "sampled":
            return {
                "kind": "sampled",
                "times": np.asarray(self.times).tolist(),
                "values": np.asarray(self.values).tolist(),
            }
        if self.kind == "sum":
            return {"kind": "sum", "terms": [s.to_json() for s in self.terms]}
        raise ModelError("scaled signals are internal and not serialized")

    @staticmethod
    def from_json(obj) -> "Signal":
        if isinstance(obj, (int, float)):
            return Signal("constant", value=np.atleast_1d(float(obj)))
        kind = obj["kind"]
        if kind == "constant":
            return Signal("constant", value=np.atleast_1d(np.asarray(obj["value"], dtype=float)))
        if kind == "exponential":
            return Signal("exponential", a=np.atleast_1d(np.asarray(obj["a"], dtype=float)), b=float(obj["b"]))
        if kind == "rational":
            return Signal("rational", a=np.atleast_1d(np.asarray(obj["a"], dtype=float)), c=float(obj["c"]))
        if kind == "sampled":
            return Signal(
                "sampled",
                times=np.asarray(obj["times"], dtype=float),
                values=np.asarray(obj["values"], dtype=float),
            )
        if kind == "sum":
            return Signal("sum", terms=tuple(Signal.from_json(s) for s in obj["terms"]))
        raise ModelError(f"unknown signal kind {kind!r}")


def constant_signal(vec) -> Signal:
    return Signal("constant", value=np.atleast_1d(np.asarray(vec, dtype=float)))


def zero_signal(dim: int) -> Signal:
    return constant_signal(np.zeros(dim))


_SYM_SLACK = 1e-10


def _nearly_symmetric(M) -> bool:
    """Square with asymmetry at most 1e-10 relative to the norm."""
    return (M.shape[0] == M.shape[1]
            and np.max(np.abs(M - M.T)) <= _SYM_SLACK * (1.0 + np.linalg.norm(M)))


@dataclass
class ProblemSpec:
    """Full description of one mean-field social control problem.

    ``horizon`` is the terminal time T for finite-horizon problems and
    ``None`` for the infinite-horizon problem.  The terminal-cost data
    (H, Gamma0, eta0) are only consulted when the horizon is finite.
    """

    n: int
    r: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    G: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    Gamma: np.ndarray
    f: Signal
    sigma: Signal
    eta: Signal
    x0_mean: np.ndarray
    x0_cov: np.ndarray
    N: int
    horizon: float | None = None
    H: np.ndarray = None
    Gamma0: np.ndarray = None
    eta0: np.ndarray = None

    def __post_init__(self):
        for name in ("A", "B", "C", "D", "G", "Q", "R", "Gamma"):
            setattr(self, name, np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
        self.x0_mean = np.atleast_1d(np.asarray(self.x0_mean, dtype=float))
        self.x0_cov = np.atleast_2d(np.asarray(self.x0_cov, dtype=float))
        if self.H is None:
            self.H = np.zeros((self.n, self.n))
        if self.Gamma0 is None:
            self.Gamma0 = np.zeros((self.n, self.n))
        if self.eta0 is None:
            self.eta0 = np.zeros(self.n)
        self.H = np.atleast_2d(np.asarray(self.H, dtype=float))
        self.Gamma0 = np.atleast_2d(np.asarray(self.Gamma0, dtype=float))
        self.eta0 = np.atleast_1d(np.asarray(self.eta0, dtype=float))
        # weights symmetric up to the slack are stored exactly symmetric;
        # larger asymmetry is kept for validate() to report
        for name in ("Q", "R", "H", "x0_cov"):
            M = getattr(self, name)
            if _nearly_symmetric(M):
                setattr(self, name, symmetrize(M))

    @property
    def infinite_horizon(self) -> bool:
        return self.horizon is None

    def with_horizon(self, T: float | None, H=None, Gamma0=None, eta0=None) -> "ProblemSpec":
        terminal = {"H": H, "Gamma0": Gamma0, "eta0": eta0}
        return replace(self, horizon=T, **{k: v for k, v in terminal.items() if v is not None})

    # -- JSON round trip -------------------------------------------------

    def to_json(self) -> dict:
        horizon = "infinite" if self.infinite_horizon else {"finite": self.horizon}
        return {
            "n": self.n,
            "r": self.r,
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "C": self.C.tolist(),
            "D": self.D.tolist(),
            "G": self.G.tolist(),
            "Q": self.Q.tolist(),
            "R": self.R.tolist(),
            "Gamma": self.Gamma.tolist(),
            "Gamma0": self.Gamma0.tolist(),
            "H": self.H.tolist(),
            "f": self.f.to_json(),
            "sigma": self.sigma.to_json(),
            "eta": self.eta.to_json(),
            "eta0": self.eta0.tolist(),
            "x0_mean": self.x0_mean.tolist(),
            "x0_cov": self.x0_cov.tolist(),
            "N": self.N,
            "horizon": horizon,
        }

    @staticmethod
    def from_json(obj: dict) -> "ProblemSpec":
        horizon = obj.get("horizon", "infinite")
        if horizon == "infinite":
            T = None
        elif isinstance(horizon, dict) and "finite" in horizon:
            T = float(horizon["finite"])
        else:
            raise ModelError('horizon must be "infinite" or {"finite": T}')
        return ProblemSpec(
            n=int(obj["n"]),
            r=int(obj["r"]),
            A=obj["A"], B=obj["B"], C=obj["C"], D=obj["D"], G=obj["G"],
            Q=obj["Q"], R=obj["R"], Gamma=obj["Gamma"],
            Gamma0=obj.get("Gamma0"), H=obj.get("H"), eta0=obj.get("eta0"),
            f=Signal.from_json(obj["f"]),
            sigma=Signal.from_json(obj["sigma"]),
            eta=Signal.from_json(obj["eta"]),
            x0_mean=obj["x0_mean"],
            x0_cov=obj["x0_cov"],
            N=int(obj["N"]),
            horizon=T,
        )

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path) -> "ProblemSpec":
        with open(path) as fh:
            return ProblemSpec.from_json(json.load(fh))


@dataclass(frozen=True)
class Violation:
    code: str
    message: str

    def __str__(self):
        return f"[{self.code}] {self.message}"


def validate(spec: ProblemSpec) -> list[Violation]:
    """Check every structural invariant; returns an empty list when valid.

    A pure check: the spec is not modified.  Q, R, H and x0_cov with
    asymmetry above 1e-10 (relative) are reported; smaller asymmetry was
    already removed when the spec was constructed.
    """
    out: list[Violation] = []
    n, r = spec.n, spec.r
    shapes = {
        "A": (n, n), "C": (n, n), "G": (n, n), "Gamma": (n, n), "Gamma0": (n, n),
        "Q": (n, n), "H": (n, n), "B": (n, r), "D": (n, r), "R": (r, r),
        "x0_cov": (n, n),
    }
    for name, shape in shapes.items():
        M = getattr(spec, name)
        if M.shape != shape:
            out.append(Violation("dimension", f"{name} has shape {M.shape}, expected {shape}"))
            continue
        if not np.all(np.isfinite(M)):
            out.append(Violation("non_finite", f"{name} contains NaN/Inf"))
    for name, size in (("x0_mean", n), ("eta0", n)):
        v = getattr(spec, name)
        if v.shape != (size,):
            out.append(Violation("dimension", f"{name} has shape {v.shape}, expected ({size},)"))
    for name in ("f", "sigma", "eta"):
        sig = getattr(spec, name)
        if sig.dim != n:
            out.append(Violation("dimension", f"signal {name} has dim {sig.dim}, expected {n}"))
    for name in ("Q", "R", "H"):
        M = getattr(spec, name)
        if M.shape[0] == M.shape[1] and not _nearly_symmetric(M):
            skew = np.max(np.abs(M - M.T))
            out.append(Violation("asymmetry", f"{name} is asymmetric (max skew {skew:.3g})"))
    if spec.x0_cov.shape == (n, n):
        if not _nearly_symmetric(spec.x0_cov):
            out.append(Violation("asymmetry", "x0_cov is asymmetric"))
        elif np.min(np.linalg.eigvalsh(spec.x0_cov)) < -1e-10:
            out.append(Violation("not_psd", "x0_cov has a negative eigenvalue"))
    if spec.N < 1:
        out.append(Violation("population", f"N must be >= 1, got {spec.N}"))
    if spec.horizon is not None and not spec.horizon > 0:
        out.append(Violation("horizon", f"finite horizon must be positive, got {spec.horizon}"))
    return out


def require_valid(spec: ProblemSpec):
    violations = validate(spec)
    if violations:
        raise ModelError("; ".join(str(v) for v in violations))


def _check_count(x, name):
    """x itself, or ValueError unless it is an integer >= 1."""
    if not isinstance(x, numbers.Integral) or x < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {x!r}")
    return x


def _check_natural(x, name):
    """x itself, or ValueError unless it is an integer >= 0."""
    if not isinstance(x, numbers.Integral) or x < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {x!r}")
    return x


def _check_population(N):
    return _check_count(N, "population size")


def _check_positive(x, name):
    """x itself, or ValueError unless it is a positive finite number."""
    if not (isinstance(x, numbers.Real) and 0 < x < np.inf):
        raise ValueError(f"{name} must be a positive finite number, got {x!r}")
    return x


def _check_finite(x, name):
    """x itself, or ValueError unless it is a finite number."""
    if not (isinstance(x, numbers.Real) and -np.inf < x < np.inf):
        raise ValueError(f"{name} must be a finite number, got {x!r}")
    return x


@dataclass(frozen=True)
class DerivedWeights:
    """Weights induced by the mean-field coupling in the social cost.

    Q_Gamma  = Gamma' Q + Q Gamma - Gamma' Q Gamma
    eta_bar  = (I - Gamma)' Q eta(t)
    H_Gamma0 = Gamma0' H + H Gamma0 - Gamma0' H Gamma0
    eta0_bar = (I - Gamma0)' H eta0
    """

    Q_Gamma: np.ndarray
    H_Gamma0: np.ndarray
    eta_bar: Signal
    eta0_bar: np.ndarray


def derive_weights(spec: ProblemSpec) -> DerivedWeights:
    Q, G1 = spec.Q, spec.Gamma
    H, G0 = spec.H, spec.Gamma0
    Q_Gamma = symmetrize(G1.T @ Q + Q @ G1 - G1.T @ Q @ G1)
    H_Gamma0 = symmetrize(G0.T @ H + H @ G0 - G0.T @ H @ G0)
    eta_bar = Signal("scaled", matrix=(np.eye(spec.n) - G1).T @ Q, inner=spec.eta)
    eta0_bar = (np.eye(spec.n) - G0).T @ H @ spec.eta0
    return DerivedWeights(Q_Gamma, H_Gamma0, eta_bar, eta0_bar)


def initial_chol(spec: ProblemSpec) -> np.ndarray:
    """Factor L with L L' = x0_cov (eigen-based; tolerates PSD inputs)."""
    w, V = np.linalg.eigh(symmetrize(spec.x0_cov))
    if np.min(w) < -1e-10:
        raise ModelError("x0_cov is not positive semi-definite")
    return V * np.sqrt(np.clip(w, 0.0, None))


def agent_rng(seed: int, replication: int, agent: int) -> np.random.Generator:
    """Counter-style per-agent stream: deterministic in (seed, rep, agent).

    The same (seed, replication, agent) triple always yields the same
    stream, independent of how many agents or replications a run uses, so
    comparisons across strategies and population sizes share noise by
    construction.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(replication), int(agent)))
    return np.random.Generator(np.random.Philox(ss))
