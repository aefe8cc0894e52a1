"""Problem definition: system/cost matrices, time-varying signals, and
structural validation.

A :class:`ProblemSpec` collects the constant matrices of the agent dynamics
dx_i = (A x_i + B u_i + G x^(N) + f) dt + (C x_i + D u_i + sigma) dW_i, the
quadratic weights (Q, R, Gamma, and the terminal triple H, Gamma0, eta0 for
finite horizons), the deterministic signals f, sigma, eta, the initial-state
law, and the population size.  Signals are closed-form descriptors rather
than opaque callbacks so problems round-trip through JSON.  Each array
field's shape, the weights, the terminal data and each signal kind's
parameters are declared once, in tables read by construction (which also
takes JSON values), JSON and validate().  Data that does not parse into a
problem raises ModelError, naming the field.
"""

from __future__ import annotations

import functools
import json
import numbers
import operator
from dataclasses import dataclass, replace

import numpy as np

from .linalg import symmetrize


class ModelError(ValueError):
    """Structurally invalid problem data."""


# each signal kind and its parameters, in the order to_json writes them; the
# most axes each numeric parameter may have (the terms are signals)
_SIGNAL_KINDS = {"constant": ("value",), "exponential": ("a", "b"), "rational": ("a", "c"),
                 "sampled": ("times", "values"), "sum": ("terms",)}
_SIGNAL_AXES = {"value": 1, "a": 1, "b": 0, "c": 0, "times": 1, "values": 2}


def _signal_param(p, x):
    """Parameter p from Python or JSON: a float for b and c, else an array."""
    if x is None:
        raise ModelError("missing")
    if p == "terms":
        return tuple(t if isinstance(t, Signal) else Signal.from_json(t) for t in x)
    a = np.asarray(x, dtype=float)
    if a.ndim > _SIGNAL_AXES[p] or not np.all(np.isfinite(a)):
        raise ModelError(f"must be a finite {('number', 'vector', 'table')[_SIGNAL_AXES[p]]}")
    return np.atleast_1d(a) if _SIGNAL_AXES[p] else float(a)


@dataclass(frozen=True)
class Signal:
    """Vector-valued deterministic signal on [0, inf).

    Supported kinds:
      constant     value
      exponential  a * exp(b t)
      rational     a / (t + c), c > 0
      sampled      linear interpolation on a strictly increasing grid,
                   clamped outside the grid
      sum          pointwise sum of sub-signals of one dimension

    A parameter that is not finite, or does not fit, is a ModelError.
    """

    kind: str
    value: np.ndarray | None = None
    a: np.ndarray | None = None
    b: float = 0.0
    c: float = 1.0
    times: np.ndarray | None = None
    values: np.ndarray | None = None
    terms: tuple["Signal", ...] = ()

    def __post_init__(self):
        if self.kind not in _SIGNAL_KINDS:
            raise ModelError(f"unknown signal kind {self.kind!r}")
        for p in _SIGNAL_KINDS[self.kind]:
            try:
                object.__setattr__(self, p, _signal_param(p, getattr(self, p)))
            except (TypeError, ValueError) as exc:
                raise ModelError(f"{self.kind} signal parameter {p!r}: {exc}") from None
        if self.kind == "rational" and not self.c > 0:
            raise ModelError("rational signal requires c > 0")
        if self.kind == "sampled":
            if self.times.size < 2 or np.any(np.diff(self.times) <= 0):
                raise ModelError("sampled signal requires a strictly increasing grid")
            # stored one row per time; given so or transposed, or 1-d for dim 1
            rows = np.atleast_2d(self.values)
            rows = rows if rows.shape[0] == self.times.size else rows.T
            if rows.shape[0] != self.times.size:
                raise ModelError(f"{len(rows)} sampled values for {self.times.size} times")
            object.__setattr__(self, "values", rows)
        if self.kind == "sum" and len({t.dim for t in self.terms}) != 1:
            dims = [t.dim for t in self.terms]
            raise ModelError(f"sum signal needs one or more terms of one dim, got dims {dims}")

    @property
    def dim(self) -> int:
        return self(0.0).size

    def __call__(self, t):
        """Evaluate at scalar t or a 1-d array of times.

        Returns shape (dim,) for scalar t, (len(t), dim) otherwise.  The ODE
        solvers tabulate a signal once on their stage grid with one call.
        """
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)
        if self.kind == "constant":
            out = np.broadcast_to(self.value, (tt.size, self.value.size)).copy()
        elif self.kind == "exponential":
            out = np.exp(self.b * tt)[:, None] * self.a[None, :]
        elif self.kind == "rational":
            out = (1.0 / (tt + self.c))[:, None] * self.a[None, :]
        elif self.kind == "sampled":
            out = np.column_stack([np.interp(tt, self.times, self.values[:, j])
                                   for j in range(self.values.shape[1])])
        else:  # sum
            out = sum(term(tt) for term in self.terms)
        return out[0] if scalar else out

    # -- JSON round trip -------------------------------------------------

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        for p in _SIGNAL_KINDS[self.kind]:
            x = getattr(self, p)
            out[p] = [t.to_json() for t in x] if p == "terms" else np.asarray(x).tolist()
        return out

    @staticmethod
    def from_json(obj) -> "Signal":
        """A signal from its JSON object; a bare number is a constant."""
        if isinstance(obj, numbers.Real):
            return constant_signal(obj)
        if not isinstance(obj, dict):
            raise ModelError(f"a signal is a number or an object, got {type(obj).__name__}")
        kind = obj.get("kind")
        return Signal(kind, **{p: obj.get(p) for p in _SIGNAL_KINDS.get(kind, ())})


def constant_signal(vec) -> Signal:
    return Signal("constant", value=vec)


def zero_signal(dim: int) -> Signal:
    return constant_signal(np.zeros(dim))


def _nearly_symmetric(M) -> bool:
    """Square with asymmetry at most 1e-10 relative to the norm."""
    return (M.ndim == 2 and M.shape[0] == M.shape[1]
            and np.max(np.abs(M - M.T)) <= 1e-10 * (1.0 + np.linalg.norm(M)))


# each array field's shape in n and r, in the order validate() reports them;
# the weights, stored exactly symmetric within the slack; the terminal data,
# zero when missing
_ARRAYS = {"A": "nn", "C": "nn", "G": "nn", "Gamma": "nn", "Gamma0": "nn", "Q": "nn",
           "H": "nn", "B": "nr", "D": "nr", "R": "rr", "x0_cov": "nn", "x0_mean": "n",
           "eta0": "n"}
_WEIGHTS = ("Q", "R", "H", "x0_cov")
_TERMINAL = ("H", "Gamma0", "eta0")
_SIGNALS = ("f", "sigma", "eta")


def _is_integer(x) -> bool:
    """An integer, not a bool (JSON true would otherwise read as 1)."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _integral(x):
    """A number with an integer value as an int; anything else as it is."""
    return int(x) if isinstance(x, float) and x.is_integer() else x


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
        for name in (*_ARRAYS, *_SIGNALS):
            try:
                setattr(self, name, self._read(name, getattr(self, name)))
            except (TypeError, ValueError) as exc:
                raise ModelError(f"{name}: {exc}") from None

    def _read(self, name, x):
        if x is None and name not in _TERMINAL:
            raise ModelError("missing")
        if name in _SIGNALS:
            return x if isinstance(x, Signal) else Signal.from_json(x)
        if x is None:
            x = np.zeros(self._shape(name) or ())
        M = np.asarray(x, dtype=float)
        M = np.atleast_2d(M) if len(_ARRAYS[name]) == 2 else np.atleast_1d(M)
        # weights symmetric up to the slack are stored exactly symmetric;
        # larger asymmetry is kept for validate() to report
        return symmetrize(M) if name in _WEIGHTS and _nearly_symmetric(M) else M

    def _shape(self, name):
        """The shape of array field `name`; None while n or r is not an integer."""
        shape = tuple(getattr(self, axis) for axis in _ARRAYS[name])
        return shape if all(_is_integer(s) for s in shape) else None

    @property
    def infinite_horizon(self) -> bool:
        return self.horizon is None

    def with_horizon(self, T: float | None, H=None, Gamma0=None, eta0=None) -> "ProblemSpec":
        terminal = {"H": H, "Gamma0": Gamma0, "eta0": eta0}
        return replace(self, horizon=T, **{k: v for k, v in terminal.items() if v is not None})

    # -- JSON round trip -------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n, "r": self.r, "N": self.N,
            **{name: getattr(self, name).tolist() for name in _ARRAYS},
            **{name: getattr(self, name).to_json() for name in _SIGNALS},
            "horizon": "infinite" if self.infinite_horizon else {"finite": self.horizon},
        }

    @staticmethod
    def from_json(obj) -> "ProblemSpec":
        """A problem from its JSON object; a ModelError names what is wrong."""
        if not isinstance(obj, dict):
            raise ModelError(f"a problem is a JSON object, got {type(obj).__name__}")
        horizon = obj.get("horizon", "infinite")
        if horizon != "infinite" and not (isinstance(horizon, dict) and "finite" in horizon):
            raise ModelError('horizon must be "infinite" or {"finite": T}')
        T = None if horizon == "infinite" else horizon["finite"]
        return ProblemSpec(**{k: _integral(obj.get(k)) for k in ("n", "r", "N")},
                           **{k: obj.get(k) for k in (*_ARRAYS, *_SIGNALS)},
                           horizon=float(T) if isinstance(T, numbers.Real) else T)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path) -> "ProblemSpec":
        with open(path) as fh:
            try:
                return ProblemSpec.from_json(json.load(fh))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ModelError(f"{path} is not JSON: {exc}") from None


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
    for name in _ARRAYS:
        M, shape = getattr(spec, name), spec._shape(name)
        if shape is not None and M.shape != shape:
            out.append(Violation("dimension", f"{name} has shape {M.shape}, expected {shape}"))
        elif not np.all(np.isfinite(M)):
            out.append(Violation("non_finite", f"{name} contains NaN/Inf"))
    for name in _SIGNALS if _is_integer(spec.n) else ():
        sig = getattr(spec, name)
        if sig.dim != spec.n:
            out.append(Violation("dimension", f"signal {name} has dim {sig.dim}, expected {spec.n}"))
    for name in _WEIGHTS:
        M = getattr(spec, name)
        # a NaN/Inf weight is reported once, as non_finite, above
        if (M.ndim == 2 and M.shape[0] == M.shape[1] and np.all(np.isfinite(M))
                and not _nearly_symmetric(M)):
            skew = np.max(np.abs(M - M.T))
            out.append(Violation("asymmetry", f"{name} is asymmetric (max skew {skew:.3g})"))
    if (spec.x0_cov.shape == spec._shape("x0_cov") and _nearly_symmetric(spec.x0_cov)
            and np.min(np.linalg.eigvalsh(spec.x0_cov)) < -1e-10):
        out.append(Violation("not_psd", "x0_cov has a negative eigenvalue"))
    scalars = [("dimension", _check_count, spec.n, "n"), ("dimension", _check_count, spec.r, "r"),
               ("population", _check_count, spec.N, "N")]
    if spec.horizon is not None:
        scalars.append(("horizon", _check_positive, spec.horizon, "finite horizon"))
    for code, check, x, name in scalars:
        try:
            check(x, name)
        except ValueError as exc:
            out.append(Violation(code, str(exc)))
    return out


def require_valid(spec: ProblemSpec):
    violations = validate(spec)
    if violations:
        raise ModelError("; ".join(str(v) for v in violations))


def _checker(test, what):
    """A check(x, name): x itself, or ValueError naming x unless test(x)."""
    def check(x, name):
        if not test(x):
            raise ValueError(f"{name} must be {what}, got {x!r}")
        return x
    return check


_check_count = _checker(lambda x: _is_integer(x) and x >= 1, "an integer >= 1")
_check_natural = _checker(lambda x: _is_integer(x) and x >= 0, "an integer >= 0")
_check_positive = _checker(lambda x: isinstance(x, numbers.Real) and 0 < x < np.inf,
                           "a positive finite number")
_check_finite = _checker(lambda x: isinstance(x, numbers.Real) and -np.inf < x < np.inf,
                         "a finite number")


def _check_population(N):
    return _check_count(N, "population size")


@dataclass(frozen=True)
class DerivedWeights:
    """Weights induced by the mean-field coupling in the social cost.

    Q_Gamma  = Gamma' Q + Q Gamma - Gamma' Q Gamma
    eta_bar  = (I - Gamma)' Q eta(t), a method shaped like a signal's call
    H_Gamma0 = Gamma0' H + H Gamma0 - Gamma0' H Gamma0
    eta0_bar = (I - Gamma0)' H eta0
    """

    Q_Gamma: np.ndarray
    H_Gamma0: np.ndarray
    eta0_bar: np.ndarray
    eta: Signal
    eta_gain: np.ndarray   # (I - Gamma)' Q

    def eta_bar(self, t):
        out = self.eta(np.atleast_1d(t)) @ self.eta_gain.T
        return out[0] if np.ndim(t) == 0 else out


def derive_weights(spec: ProblemSpec) -> DerivedWeights:
    Q, G1 = spec.Q, spec.Gamma
    H, G0 = spec.H, spec.Gamma0
    Q_Gamma = symmetrize(G1.T @ Q + Q @ G1 - G1.T @ Q @ G1)
    H_Gamma0 = symmetrize(G0.T @ H + H @ G0 - G0.T @ H @ G0)
    eta0_bar = (np.eye(spec.n) - G0).T @ H @ spec.eta0
    return DerivedWeights(Q_Gamma, H_Gamma0, eta0_bar, spec.eta, (np.eye(spec.n) - G1).T @ Q)


def initial_chol(spec: ProblemSpec) -> np.ndarray:
    """Factor L with L L' = x0_cov (eigen-based; tolerates PSD inputs)."""
    w, V = np.linalg.eigh(symmetrize(spec.x0_cov))
    if np.min(w) < -1e-10:
        raise ModelError("x0_cov is not positive semi-definite")
    return V * np.sqrt(np.clip(w, 0.0, None))


# NumPy's SeedSequence hash (NEP 19) on a pool of 4 uint32 words
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R = np.uint32(0xca01f9dd), np.uint32(0x4973f715)
_XSHIFT = np.uint32(16)


def _philox_keys(seed, replications, agents):
    """(len(replications), len(agents), 2) uint64 Philox keys, equal word for
    word to SeedSequence(entropy=seed, spawn_key=(rep, agent))
    .generate_state(2, np.uint64), derived for every stream in one pass.

    The entropy is the seed's 32-bit words, padded with zeros to the pool
    size, then rep and agent (one word each, as every index is below 2**32).
    The hash constants do not depend on the data, so each step is a few
    uint32 array operations broadcast over the (rep, agent) grid; every
    operand is np.uint32, so products wrap modulo 2**32.
    """
    words = [seed >> k & _MASK32 for k in range(0, max(1, seed.bit_length()), 32)]
    words += [0] * (4 - len(words))
    entropy = [np.full((1, 1), w, np.uint32) for w in words]
    entropy += [replications[:, None], agents[None, :]]
    hc = _INIT_A

    def hashmix(v):
        nonlocal hc
        v = v ^ np.uint32(hc)
        hc = hc * _MULT_A & _MASK32
        v = v * np.uint32(hc)
        return v ^ (v >> _XSHIFT)

    def mix(x, y):
        v = _MIX_L * x - _MIX_R * y
        return v ^ (v >> _XSHIFT)

    pool = [hashmix(e) for e in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(e))
    hb = _INIT_B
    state = []
    for v in pool:
        v = v ^ np.uint32(hb)
        hb = hb * _MULT_B & _MASK32
        v = v * np.uint32(hb)
        state.append((v ^ (v >> _XSHIFT)).astype(np.uint64))
    # little-endian pairs of words
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=-1)


class _StreamKey:
    """A derived key posing as the SeedSequence it reproduces: Philox asks
    its seed for generate_state(2, np.uint64) and receives the key.  Unlike
    Philox(key=...), this draws no OS entropy."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


@functools.cache
def _philox():
    """Generator and Philox, with _StreamKey registered as an ISeedSequence.
    Imported on the first stream, so importing mfsoc leaves numpy.random
    unloaded."""
    from numpy.random import Generator, Philox
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_StreamKey)
    return Generator, Philox


def _indices(values, name):
    values = [operator.index(v) for v in values]
    if values and not (min(values) >= 0 and max(values) <= _MASK32):
        raise ValueError(f"{name} indices must lie in 0..2**32 - 1")
    return np.array(values, dtype=np.uint32)


def _stream_keys(seed, replications, agents):
    """The (streams, 2) Philox keys of every (seed, replication, agent) triple,
    replication-major, after checking the seed and the indices."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be an integer >= 0")
    return _philox_keys(seed, _indices(replications, "replication"),
                        _indices(agents, "agent")).reshape(-1, 2)


def agent_rngs(seed: int, replications, agents) -> list[np.random.Generator]:
    """The stream of every (seed, replication, agent) triple, replication-major.

    Stream (rep, agent) is Generator(Philox(SeedSequence(entropy=seed,
    spawn_key=(rep, agent)))) bit for bit, but the keys of all streams come
    from one vectorized pass of the SeedSequence hash (``_philox_keys``)
    instead of one SeedSequence object per stream.  Indices must be below
    2**32; the seed is any integer >= 0.  Each stream stays open, about
    780 bytes of heap: the simulator draws from these, a time block at a
    time through ``_draw_rows``, only when a chunk's horizon is too long to
    fill whole with ``agent_normals``.
    """
    keys = _stream_keys(seed, replications, agents)
    Generator, Philox = _philox()
    return [Generator(Philox(_StreamKey(key))) for key in keys]


def _draw_rows(gens, out, tile):
    """Fill row w of out, a view that need not be contiguous, with the next
    normals of stream w of gens (which may yield one re-keyed generator
    again and again) through the flat scratch tile: as many whole rows at a
    time as it holds, or a row longer than it in pieces, the same normals."""
    count, gens = out.shape[1], iter(gens)
    if count > tile.size:
        for row, gen in zip(out, gens):
            for c0 in range(0, count, tile.size):
                piece = tile[:min(tile.size, count - c0)]
                gen.standard_normal(out=piece)
                row[c0:c0 + piece.size] = piece
        return
    tile = tile[:tile.size // count * count].reshape(-1, count)
    views = list(tile)
    for w0 in range(0, len(out), len(tile)):
        m = min(len(tile), len(out) - w0)
        for view, gen in zip(views[:m], gens):
            gen.standard_normal(out=view)
        out[w0:w0 + m] = tile[:m]


def agent_normals(seed: int, replications, agents, count: int, out=None, tile=None) -> np.ndarray:
    """The first count standard normals of every stream of ``agent_rngs``.

    Row b * len(agents) + i of the (streams, count) result is what stream
    (replications[b], agents[i]) draws first, bit for bit, but no stream
    is kept open: one Generator(Philox) is re-keyed per stream through the
    public ``bit_generator.state`` setter, with the counter and buffer
    zeroed as in a fresh Philox, which costs a fraction of constructing
    one.  The result goes into ``out`` if given, which may be a
    non-contiguous view (the simulator's knot-major noise table,
    transposed), through the flat float scratch ``tile`` (one row by
    default) as ``_draw_rows`` fills it.  Same refusals as ``agent_rngs``.
    """
    keys = _stream_keys(seed, replications, agents)
    if out is None:
        out = np.empty((keys.shape[0], operator.index(count)))
    if out.shape != (keys.shape[0], count):
        raise ValueError(f"out has shape {out.shape}, not {(keys.shape[0], count)}")
    if not out.size:
        return out
    Generator, Philox = _philox()
    bitgen = Philox(_StreamKey(keys[0]))
    gen = Generator(bitgen)
    state = bitgen.state      # a fresh Philox's; as Python ints it sets faster
    state["state"]["counter"] = state["buffer"] = [0] * 4

    def rekeyed(key):
        state["state"]["key"] = key.tolist()
        bitgen.state = state
        return gen

    _draw_rows(map(rekeyed, keys), out, np.empty(count) if tile is None else tile)
    return out


def agent_rng(seed: int, replication: int, agent: int) -> np.random.Generator:
    """Counter-style per-agent stream: deterministic in (seed, rep, agent).

    The same (seed, replication, agent) triple always yields the same
    stream, independent of how many agents or replications a run uses, so
    comparisons across strategies and population sizes share noise by
    construction.  It is ``agent_rngs``'s batch of one: its key comes from
    one vectorized pass of the SeedSequence hash, bit-identical to
    Generator(Philox(SeedSequence(entropy=seed, spawn_key=(replication,
    agent)))), which an oracle test in tests/test_model.py pins.
    """
    return agent_rngs(seed, (replication,), (agent,))[0]
