import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from mfsoc.model import (
    ModelError,
    ProblemSpec,
    Signal,
    _philox_keys,
    agent_normals,
    agent_rng,
    agent_rngs,
    constant_signal,
    derive_weights,
    initial_chol,
    validate,
    zero_signal,
)


def test_signal_kinds():
    c = constant_signal([1.0, 2.0])
    np.testing.assert_array_equal(c(0.7), [1.0, 2.0])
    e = Signal("exponential", a=np.array([2.0]), b=-1.0)
    assert e(1.0)[0] == pytest.approx(2.0 * np.exp(-1.0))
    r = Signal("rational", a=np.array([1.0]), c=1.0)
    assert r(3.0)[0] == pytest.approx(0.25)
    s = Signal("sum", terms=(c, c))
    np.testing.assert_array_equal(s(0.0), [2.0, 4.0])


def test_signal_vector_time():
    e = Signal("exponential", a=np.array([1.0, -1.0]), b=0.5)
    t = np.array([0.0, 1.0, 2.0])
    out = e(t)
    assert out.shape == (3, 2)
    np.testing.assert_allclose(out[:, 0], np.exp(0.5 * t))
    # scalar and vector paths agree
    np.testing.assert_allclose(e(1.0), e(np.array([1.0]))[0])


def test_signal_sampled():
    sig = Signal("sampled", times=np.array([0.0, 1.0, 2.0]),
                 values=np.array([0.0, 2.0, 2.0]))
    assert sig(0.5)[0] == pytest.approx(1.0)
    assert sig(5.0)[0] == pytest.approx(2.0)  # clamped past the grid
    with pytest.raises(ModelError):
        Signal("sampled", times=np.array([0.0, 0.0]), values=np.array([1.0, 2.0]))


def test_signal_json_roundtrip():
    for sig in [
        constant_signal([1.0, -2.0]),
        Signal("exponential", a=np.array([0.5]), b=-0.5),
        Signal("rational", a=np.array([1.0]), c=2.0),
        Signal("sum", terms=(constant_signal([1.0]), Signal("rational", a=np.array([2.0]), c=1.0))),
        Signal("sampled", times=np.array([0.0, 1.0, 2.5]),
               values=np.array([[1.0, 0.0], [2.0, -1.0], [0.5, 3.0]])),
        # values given one column per time, and a 1-d table for dim 1
        Signal("sampled", times=np.array([0.0, 1.0, 2.5]),
               values=np.array([[1.0, 2.0, 0.5], [0.0, -1.0, 3.0]])),
        Signal("sampled", times=np.array([0.5, 2.0]), values=np.array([1.0, -1.0])),
    ]:
        back = Signal.from_json(sig.to_json())
        t = np.linspace(0.0, 3.0, 7)
        np.testing.assert_allclose(back(t), sig(t))
    # bare numbers are accepted as constants
    assert Signal.from_json(2.5)(0.0)[0] == 2.5


def test_signal_rejects_unknown_kind():
    with pytest.raises(ModelError):
        Signal("polynomial", a=np.array([1.0]))


@pytest.mark.parametrize("kind, params", [
    ("constant", {"value": [np.nan]}),
    ("exponential", {"a": [1.0], "b": np.inf}),
    ("exponential", {"a": [[1.0, 2.0], [3.0, 4.0]], "b": 1.0}),   # a is a vector
    ("rational", {"a": [1.0], "c": 0.0}),
    ("sum", {"terms": ()}),
    ("sum", {"terms": (constant_signal([1.0]), constant_signal([1.0, 2.0]))}),
    ("sampled", {"times": [0.0, 1.0, 2.0], "values": [1.0, 2.0]}),
    ("sampled", {"times": [0.0, 1.0], "values": [[[1.0]], [[2.0]]]}),
    ("constant", {}),
])
def test_signal_refuses_bad_parameters(kind, params):
    with pytest.raises(ModelError):
        Signal(kind, **params)


def test_spec_roundtrip(tmp_path, spec_sec6):
    path = tmp_path / "p.json"
    spec_sec6.save(path)
    back = ProblemSpec.load(path)
    np.testing.assert_array_equal(back.A, spec_sec6.A)
    np.testing.assert_array_equal(back.Gamma, spec_sec6.Gamma)
    assert back.infinite_horizon
    t = np.linspace(0.0, 2.0, 5)
    np.testing.assert_allclose(back.f(t), spec_sec6.f(t))
    assert validate(back) == []


def test_spec_with_horizon(spec_sec6):
    fin = spec_sec6.with_horizon(0.2, H=np.eye(1), Gamma0=spec_sec6.Gamma,
                                 eta0=spec_sec6.eta(0.2))
    assert not fin.infinite_horizon
    assert fin.horizon == pytest.approx(0.2)
    assert spec_sec6.infinite_horizon  # original untouched
    assert fin.eta0[0] == pytest.approx(1.0 / 1.2)


def test_validate_flags_problems(spec_sec6):
    bad = spec_sec6.with_horizon(-1.0)
    codes = {v.code for v in validate(bad)}
    assert "horizon" in codes

    bad2 = ProblemSpec.from_json(spec_sec6.to_json())
    bad2.B = np.ones((2, 2))
    codes = {v.code for v in validate(bad2)}
    assert "dimension" in codes

    bad3 = ProblemSpec.from_json(spec_sec6.to_json())
    bad3.x0_cov = np.array([[-1.0]])
    codes = {v.code for v in validate(bad3)}
    assert "not_psd" in codes


def test_validate_symmetrizes_small_skew(spec_sec6):
    spec = ProblemSpec.from_json(spec_sec6.to_json())
    spec.Q = np.array([[1.0]])
    assert validate(spec) == []
    two = ProblemSpec.from_json(spec_sec6.to_json())
    two.n = 2
    # asymmetric weight beyond the slack is a violation, not silently fixed
    two.Q = np.array([[1.0, 0.3], [0.0, 1.0]])
    two.A = np.zeros((2, 2))
    codes = {v.code for v in validate(two)}
    assert "asymmetry" in codes


def test_validate_is_pure(spec_sec6):
    # construction stores a weight with a 1e-12 skew exactly symmetric ...
    obj = {**spec_sec6.to_json(), "n": 2, "r": 2, "A": np.zeros((2, 2)).tolist()}
    for name in ("B", "C", "D", "G", "Gamma", "Gamma0", "H", "R", "x0_cov"):
        obj[name] = np.eye(2).tolist()
    obj["Q"] = [[1.0, 0.5 + 1e-12], [0.5, 1.0]]
    obj["x0_mean"] = obj["eta0"] = [0.0, 0.0]
    for name in ("f", "sigma", "eta"):
        obj[name] = {"kind": "constant", "value": [0.0, 0.0]}
    spec = ProblemSpec.from_json(obj)
    np.testing.assert_array_equal(spec.Q, spec.Q.T)
    # ... and validate() leaves a skew put in afterwards bit-unchanged
    for name in ("Q", "R", "H", "x0_cov"):
        getattr(spec, name)[0, 1] += 1e-12
    before = {name: getattr(spec, name).copy() for name in ("Q", "R", "H", "x0_cov")}
    assert validate(spec) == []
    for name, M in before.items():
        np.testing.assert_array_equal(getattr(spec, name), M)
        assert getattr(spec, name)[0, 1] != getattr(spec, name)[1, 0]


def test_derived_weights_scalar():
    # Gamma = -0.2, Q = 1:  2*g*q - g^2*q = -0.44; eta_bar = (1-g) q eta
    spec = ProblemSpec(
        n=1, r=1, A=0.0, B=1.0, C=0.0, D=1.0, G=0.0, Q=1.0, R=1.0,
        Gamma=-0.2, f=zero_signal(1), sigma=zero_signal(1),
        eta=constant_signal([1.0]), x0_mean=[0.0], x0_cov=[[0.0]], N=2,
    )
    dw = derive_weights(spec)
    assert dw.Q_Gamma[0, 0] == pytest.approx(-0.44)
    assert dw.eta_bar(0.0)[0] == pytest.approx(1.2)


def test_agent_rng_reproducible_and_distinct():
    a = agent_rng(7, 0, 3).standard_normal(5)
    b = agent_rng(7, 0, 3).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    c = agent_rng(7, 0, 4).standard_normal(5)
    d = agent_rng(7, 1, 3).standard_normal(5)
    assert not np.allclose(a, c)
    assert not np.allclose(a, d)


def _seed_sequence_rng(seed, replication, agent):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replication, agent))
    return np.random.Generator(np.random.Philox(ss))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**128 + 3, 2**200 + 7])
def test_stream_keys_match_seed_sequence(seed):
    # the vectorized hash is NumPy's SeedSequence word for word: seeds of one
    # to seven 32-bit words, indices at both ends of the one-word range
    rng = np.random.default_rng(seed % 2**32)
    reps = np.r_[0, 2**32 - 1, rng.integers(0, 2**32, 4)].astype(np.uint32)
    agents = np.r_[0, 2**32 - 1, rng.integers(0, 2**32, 5)].astype(np.uint32)
    keys = _philox_keys(seed, reps, agents)
    assert keys.shape == (reps.size, agents.size, 2) and keys.dtype == np.uint64
    for a, rep in enumerate(reps):
        for b, agent in enumerate(agents):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(int(rep), int(agent)))
            np.testing.assert_array_equal(keys[a, b], ss.generate_state(2, np.uint64))


def _open_stream_draws(seed, replications, agents, count):
    return [gen.standard_normal(count) for gen in agent_rngs(seed, replications, agents)]


# the simulator's two draws of a chunk's streams: from open streams, block by
# block, or each stream's whole draw from one re-keyed Philox
STREAM_DRAWS = (_open_stream_draws, agent_normals)


@pytest.mark.parametrize("seed", [0, 2**32, 2**200 + 7])
def test_agent_rngs_draw_the_seed_sequence_streams(seed):
    reps, agents = (3, 0, 2**32 - 1), (5, 2**32 - 1, 0, 1)
    pairs = [(rep, agent) for rep in reps for agent in agents]    # replication-major
    for draw in STREAM_DRAWS:
        rows = draw(seed, reps, agents, 300)
        assert len(rows) == len(reps) * len(agents)
        for row, (rep, agent) in zip(rows, pairs):
            want = _seed_sequence_rng(seed, rep, agent).standard_normal(300)
            np.testing.assert_array_equal(row, want)
    np.testing.assert_array_equal(agent_rng(seed, 7, 9).standard_normal(300),
                                  _seed_sequence_rng(seed, 7, 9).standard_normal(300))


def test_agent_rngs_refuse_two_word_indices():
    for draw in STREAM_DRAWS:
        for reps, agents in (([2**32], [0]), ([0], [1, 2**32]), ([-1], [0])):
            with pytest.raises(ValueError):
                draw(0, reps, agents, 1)
        with pytest.raises(ValueError):
            draw(-1, [0], [0], 1)
        with pytest.raises(TypeError):
            draw(0, [1.5], [0], 1)
    with pytest.raises(ValueError):
        agent_rng(-1, 0, 0)
    with pytest.raises(TypeError):
        agent_rng(0, 1.5, 0)


def test_import_leaves_numpy_random_unloaded():
    # numpy.random is loaded by the first stream, not by importing the library
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    code = "import sys, mfsoc, mfsoc.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_initial_chol_psd():
    spec = ProblemSpec(
        n=2, r=1, A=np.zeros((2, 2)), B=[[1.0], [0.0]], C=np.zeros((2, 2)),
        D=[[1.0], [0.0]], G=np.zeros((2, 2)), Q=np.eye(2), R=1.0,
        Gamma=np.zeros((2, 2)), f=zero_signal(2), sigma=zero_signal(2),
        eta=zero_signal(2), x0_mean=[0.0, 0.0],
        x0_cov=[[1.0, 1.0], [1.0, 1.0]], N=1,  # rank deficient, still PSD
    )
    L = initial_chol(spec)
    np.testing.assert_allclose(L @ L.T, spec.x0_cov, atol=1e-12)
    spec.x0_cov = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(ModelError):
        initial_chol(spec)
