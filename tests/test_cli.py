import json
import pathlib
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

import mfsoc.riccati
import mfsoc.stability
from mfsoc.cli import main

PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "problems"

SEC6 = str(PROBLEMS / "sec6.json")
SEC6_FIN = str(PROBLEMS / "sec6_finite.json")
EX1 = str(PROBLEMS / "example1.json")
EX1_LONG = str(PROBLEMS / "example1_long.json")
WELL = str(PROBLEMS / "wellposed.json")


def test_validate_ok():
    assert main(["validate", SEC6]) == 0


def test_validate_rejects_bad_spec(tmp_path):
    bad = json.loads(pathlib.Path(SEC6).read_text())
    bad["B"] = [[1.0], [2.0]]  # wrong shape
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert main(["validate", str(p)]) == 2
    # a file that does not parse into a problem is invalid too, not a crash
    bad["f"] = {"kind": "no-such-signal"}
    p.write_text(json.dumps(bad))
    assert main(["validate", str(p)]) == 2
    assert main(["simulate", str(p), "--outdir", str(tmp_path / "s")]) == 2


_NAN = float("nan")
_BASE = json.loads(pathlib.Path(SEC6_FIN).read_text())
_MALFORMED = {
    # name: (file content, a word the one message line must contain)
    "missing_key": ({k: v for k, v in _BASE.items() if k != "Q"}, "Q"),
    "top_level_list": ([_BASE], "object"),
    "empty_sum": ({**_BASE, "f": {"kind": "sum", "terms": []}}, "f"),
    "non_numeric_entry": ({**_BASE, "A": [["x"]]}, "A"),
    "not_json": ("{not json", "not_json.json"),
    "nan_x0_mean": ({**_BASE, "x0_mean": [_NAN]}, "x0_mean"),
    "nan_eta0": ({**_BASE, "eta0": [_NAN]}, "eta0"),
    "fractional_N": ({**_BASE, "N": 2.5}, "N"),
    "fractional_n": ({**_BASE, "n": 1.5}, "n"),
    "infinite_horizon_value": ({**_BASE, "horizon": {"finite": float("inf")}}, "horizon"),
    "nan_signal": ({**_BASE, "f": {"kind": "constant", "value": [_NAN]}}, "f"),
    "sum_of_two_dims": ({**_BASE, "f": {"kind": "sum", "terms": [1.0, {
        "kind": "constant", "value": [1.0, 2.0]}]}}, "f"),
    "sampled_count": ({**_BASE, "f": {"kind": "sampled", "times": [0.0, 1.0, 2.0],
                                      "values": [1.0, 2.0]}}, "f"),
    # a NaN weight is one violation, not also an asymmetric one
    "nan_Q": ({**_BASE, "Q": [[_NAN]]}, "Q"),
    "nan_x0_cov": ({**_BASE, "x0_cov": [[_NAN]]}, "x0_cov"),
    # JSON true is not the count 1
    "bool_N": ({**_BASE, "N": True}, "N"),
    "bool_n": ({**_BASE, "n": True}, "n"),
    "bool_r": ({**_BASE, "r": True}, "r"),
}


@pytest.mark.parametrize("command", ["validate", "solve-finite"])
@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_problem_exits_2_with_one_line(tmp_path, capsys, case, command):
    # a file that does not hold a valid problem is refused with exit 2 and one
    # line naming what is wrong (validate lists violations on stdout), never
    # with a traceback, and nothing is written
    content, word = _MALFORMED[case]
    path = tmp_path / f"{case}.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    out = tmp_path / "o"
    argv = [command, str(path)] + (["--outdir", str(out)] if command != "validate" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).splitlines()
    assert len(lines) == 1 and word in lines[0]
    if command != "validate":
        assert captured.err == lines[0] + "\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "solve-finite"])
def test_unreadable_problem_path_is_a_usage_error(tmp_path, capsys, command):
    missing = str(tmp_path / "no-such-problem.json")
    out = tmp_path / "o"
    argv = [command, missing] + (["--outdir", str(out)] if command != "validate" else [])
    assert main(argv) == 64
    first = capsys.readouterr().err.splitlines()[0]
    assert first.startswith("error: ") and missing in first
    assert not out.exists()


def _map_numbers(value, fn):
    """value with fn applied to every number in it (bools and text kept)."""
    if isinstance(value, dict):
        return {k: _map_numbers(v, fn) for k, v in value.items()}
    if isinstance(value, list):
        return [_map_numbers(v, fn) for v in value]
    return fn(value) if isinstance(value, (int, float)) and not isinstance(value, bool) else value


_CORRUPTIONS = {
    "drop": None,
    "nan": lambda v: _map_numbers(v, lambda x: _NAN),
    "stringify": json.dumps,
    "wrap": lambda v: [v],
    "double": lambda v: [v, v],
    "fractional": lambda v: _map_numbers(v, lambda x: x + 0.5),
}


@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(field="N", how="fractional")
@example(field="f", how="nan")
@example(field="horizon", how="nan")
@given(field=st.sampled_from(sorted(_BASE)), how=st.sampled_from(sorted(_CORRUPTIONS)))
def test_validate_fails_only_by_documented_exits(tmp_path, capsys, field, how):
    # one field of a valid problem file dropped, NaN'd, turned into text,
    # given an extra axis or made fractional: valid or invalid, never a crash
    problem = dict(_BASE)
    if how == "drop":
        del problem[field]
    else:
        problem[field] = _CORRUPTIONS[how](problem[field])
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    rc = main(["validate", str(path)])
    event(f"exit {rc}")
    assert rc in (0, 2)
    captured = capsys.readouterr()
    assert (captured.out == "valid\n") == (rc == 0)


def test_usage_errors():
    assert main(["no-such-command"]) == 64
    assert main(["solve-finite"]) == 64  # missing spec argument


@pytest.mark.parametrize("argv, usage", [
    (["reproduce-paper", SEC6, "--seed", "-1"], "usage: mfsoc reproduce-paper "),
    (["simulate"], "usage: mfsoc simulate "),
    (["gap", SEC6_FIN, "--no-such-flag", "1"], "usage: mfsoc gap "),
    (["no-such-command"], "usage: mfsoc [-h]"),
])
def test_usage_error_shows_the_refusing_parsers_usage(capsys, argv, usage):
    # a refused subcommand flag is explained by that subcommand's usage, which
    # lists the flag, not by the root parser's
    assert main(argv) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert usage in err


def test_solve_finite_outputs(tmp_path):
    out = tmp_path / "o"
    assert main(["solve-finite", EX1, "--outdir", str(out)]) == 0
    csv = (out / "riccati_finite.csv").read_text().splitlines()
    assert csv[0].startswith("# manifest ")
    assert csv[1].split(",")[0] == "t"
    man = json.loads((out / "manifest.json").read_text())
    assert man["command"] == "solve-finite"
    assert len(man["spec_sha256"]) == 64


@pytest.mark.parametrize("argv, max_rows", [
    (["solve-finite", SEC6_FIN], 7), (["solve-finite", SEC6_FIN], 100),
    (["solve-infinite", WELL, "--T", "10"], 300)])
def test_max_rows_is_a_maximum(tmp_path, argv, max_rows):
    # 201 and 10,001 knots, which none of these row bounds divides: every
    # stride-th knot from the first, and no more than max_rows of them
    out = tmp_path / "o"
    assert main(argv + ["--outdir", str(out), "--max-rows", str(max_rows)]) == 0
    name = "riccati_finite.csv" if argv[0] == "solve-finite" else "offset_meanfield.csv"
    ts = np.array([float(row.split(",")[0])
                   for row in (out / name).read_text().splitlines()[2:]])
    assert 1 < ts.size <= max_rows and ts[0] == 0.0
    np.testing.assert_allclose(np.diff(ts), ts[1], rtol=1e-9)


def test_solve_finite_escape_exits_3(tmp_path):
    assert main(["solve-finite", EX1_LONG, "--outdir", str(tmp_path / "o")]) == 3


def test_linalg_error_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    # a numpy LinAlgError from a numerical kernel is a solver failure: exit 3,
    # one line and no --outdir, not a traceback
    import mfsoc.cli

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(mfsoc.cli, "solve_finite_limit", singular)
    out = tmp_path / "o"
    rc = main(["solve-finite", EX1, "--outdir", str(out)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("solver failure: ") and "Singular matrix" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve-infinite", "value", "check"])
def test_growing_forcing_fails_without_a_traceback(tmp_path, capsys, command):
    # f = e^t: the offset integration blows up on its tail, at t = 52.1986;
    # solve-infinite and value exit 3 with one line naming the time and write
    # nothing, check records the failure as its A6 verdict
    spec = json.loads(pathlib.Path(WELL).read_text())
    spec["f"] = {"kind": "exponential", "a": [1.0], "b": 1.0}
    path = tmp_path / "growing.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "o"
    rc = main([command, str(path), "--outdir", str(out)])
    err = capsys.readouterr().err
    if command == "check":
        assert rc == 0 and err == ""
        a6 = json.loads((out / "check.json").read_text())["A6_holds"]
        assert a6[0] is False and "t=52.1986" in a6[1]
        return
    assert rc == 3
    assert err.startswith("solver failure: ") and "t=52.1986" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_finite_mean_field_blow_up_exits_3_with_one_line(tmp_path, capsys):
    # f = e^(200 t) with no state weight: the backward triple is zero and
    # solves, but the forward mean field leaves the finite range at t = 0.165.
    # build_law refuses with SolverError carrying that time; simulate exits 3
    # with one line and writes nothing
    from mfsoc.model import ProblemSpec
    from mfsoc.riccati import SolverError, solve_finite_limit
    from mfsoc.synthesis import build_law

    spec = json.loads(pathlib.Path(SEC6_FIN).read_text())
    spec.update(Q=[[0.0]], H=[[0.0]], R=[[1.0]],
                f={"kind": "exponential", "a": [1.0], "b": 200.0})
    path = tmp_path / "blow.json"
    path.write_text(json.dumps(spec))
    problem = ProblemSpec.from_json(spec)
    with pytest.raises(SolverError, match="mean-field integration blew up") as exc:
        build_law(solve_finite_limit(problem), problem)
    assert exc.value.escape_time == pytest.approx(0.165, abs=1e-12)
    out = tmp_path / "o"
    rc = main(["simulate", str(path), "--outdir", str(out), "--reps", "2", "--dt", "0.01"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("solver failure: ") and "t=0.165" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


_SCALAR_TRIPLES = {
    # name: (base file, changes, command, exit code)
    # the pair grows steeply and escapes at t = 5.34; check records it as its
    # convexity witness
    "steep_check": (WELL, {"A": [[3.0]], "G": [[3.0]], "horizon": {"finite": 8.0}}, "check", 0),
    # the solution escapes inside the horizon and the triple is refused
    "escape": (EX1_LONG, {}, "solve-finite", 3),
    # D = R = 0: Upsilon is 0 on every knot, and its pseudoinverse is 0
    "zero_upsilon": (SEC6_FIN, {"D": [[0.0]], "R": [[0.0]]}, "solve-finite", 0),
}


@pytest.mark.parametrize("case", sorted(_SCALAR_TRIPLES))
def test_scalar_triple_warns_nothing(tmp_path, capsys, case):
    # the scalar triple steps Python floats, which raise ZeroDivisionError
    # where numpy returns inf and warn of nothing: with warnings as errors
    # every run ends without a traceback, and stderr is empty on success and
    # one line on a refusal.  Decision: a warning on stderr breaks the
    # one-line contract, as a traceback does
    base, changes, command, code = _SCALAR_TRIPLES[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps({**json.loads(pathlib.Path(base).read_text()), **changes}))
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, str(path), "--outdir", str(out)])
    err = capsys.readouterr().err
    assert rc == code
    if code:
        assert err.startswith("solver failure: ") and len(err.splitlines()) == 1
        assert not out.exists()
    else:
        assert err == ""
    if case == "steep_check":
        assert json.loads((out / "check.json").read_text())["convexity"] == ["indeterminate", 5.34]
    if case == "zero_upsilon":
        csv = (out / "riccati_finite.csv").read_text().splitlines()
        assert {row.split(",")[-1] for row in csv[2:]} == {"0"}


def test_solve_infinite_and_pin(tmp_path):
    out = tmp_path / "a"
    assert main(["solve-infinite", WELL, "--outdir", str(out), "--T", "10"]) == 0
    payload = json.loads((out / "riccati.json").read_text())
    assert payload["residual_P"] < 1e-8
    assert all(v["ok"] for v in payload["range_conditions"].values())

    out2 = tmp_path / "b"
    assert main(["solve-infinite", SEC6, "--outdir", str(out2), "--T", "10",
                 "--pin-P", "0.6808"]) == 0
    payload2 = json.loads((out2 / "riccati.json").read_text())
    assert payload2["Pi"][0][0] == pytest.approx(0.3290, abs=1e-3)
    # honest reporting: the pinned value is not an actual root
    assert payload2["residual_P"] > 1.0

    # without the pin the equation has no root: solver failure
    assert main(["solve-infinite", SEC6, "--outdir", str(tmp_path / "c"),
                 "--T", "10"]) == 3


def test_simulate_summary(tmp_path):
    out = tmp_path / "s"
    rc = main(["simulate", SEC6_FIN, "--outdir", str(out), "--N", "5",
               "--reps", "3", "--dt", "0.002", "--agents", "2"])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["individual_costs"]) == 5
    traj = (out / "trajectories.csv").read_text().splitlines()
    assert traj[1].split(",")[:2] == ["t", "agent"]


@pytest.mark.parametrize("probe", [
    ("simulate", SEC6_FIN, ["--N", "0"]), ("simulate", SEC6_FIN, ["--N", "-2"]),
    ("simulate", SEC6_FIN, ["--step", "0"]), ("simulate", SEC6_FIN, ["--step", "-0.001"]),
    ("simulate", SEC6_FIN, ["--step", "nan"]),
    ("simulate", SEC6_FIN, ["--dt", "nan"]), ("simulate", SEC6_FIN, ["--dt", "0"]),
    # the horizon 0.2 is not a whole number of steps of 0.5 or 0.03
    ("simulate", SEC6_FIN, ["--dt", "0.5"]), ("simulate", SEC6_FIN, ["--dt", "0.03"]),
    ("gap", SEC6_FIN, ["--dt", "0.03"]), ("simulate", WELL, ["--T", "1.001"]),
    ("simulate", SEC6_FIN, ["--reps", "0"]), ("simulate", SEC6_FIN, ["--thinning", "0"]),
    ("simulate", WELL, ["--T", "-1"]),
    ("solve-infinite", WELL, ["--T", "0"]),
    ("simulate", SEC6_FIN, ["--agents", "100", "--N", "5"]),
    ("solve-finite", SEC6_FIN, ["--max-rows", "0"]),
    ("simulate", SEC6_FIN, ["--seed", "-1"]),
    ("reproduce-paper", SEC6, ["--seed", "-1", "--N-list", "1,2", "--T", "2"]),
    ("gap", SEC6_FIN, ["--N-list", "0,2"]), ("gap", SEC6_FIN, ["--N-list", "1,x"]),
    ("solve-infinite", SEC6, ["--pin-P", "nan", "--T", "10"]),
    ("simulate", SEC6_FIN, ["--agents", "-1"]),
    # --max-rows belongs to solve-finite and solve-infinite only
    ("gap", SEC6_FIN, ["--max-rows", "5"]), ("check", WELL, ["--max-rows", "5"]),
])
def test_simulate_refuses_bad_numbers_with_usage_exit(tmp_path, capsys, probe):
    # an out-of-range number is refused with a message that names its flag,
    # never replaced by a default and never left to fail inside the library
    command, problem, flags = probe
    base = ["--reps", "2", "--dt", "0.01"] if command in ("simulate", "reproduce-paper") else []
    rc = main([command, problem, "--outdir", str(tmp_path / "s")] + base + flags)
    assert rc == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert flags[0].lstrip("-") in err.splitlines()[0]
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("command", ["solve-infinite", "value", "simulate"])
def test_pin_P_is_refused_on_a_two_state_problem(tmp_path, capsys, command):
    # --pin-P is one number, P's value in a 1-state problem: on n = 2 the
    # run says so in one line instead of failing inside the matrix algebra
    problem = json.loads(pathlib.Path(WELL).read_text())   # two decoupled copies of it
    zero = {"kind": "constant", "value": [0.0, 0.0]}
    two = {k: np.kron(np.eye(2), problem[k]).tolist() for k in "A B C D G Q R Gamma x0_cov".split()}
    two.update(n=2, r=2, f=zero, sigma=zero, eta=zero, x0_mean=[0.0, 0.0], N=50,
               horizon="infinite")
    path = tmp_path / "two.json"
    path.write_text(json.dumps(two))
    base = ["--reps", "2", "--dt", "0.01", "--T", "1"] if command == "simulate" else []
    rc = main([command, str(path), "--outdir", str(tmp_path / "s"), "--pin-P", "0.5"] + base)
    assert rc == 64
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: --pin-P is one number, P of a 1-state problem; this problem has "
                   "2 states"]
    assert not (tmp_path / "s").exists()
    assert main(["validate", str(path)]) == 0


def test_check_encodes_a_complex_witness(tmp_path):
    # A has eigenvalues 0.5 +- i and B = 0, so (A + G, B) is not
    # stabilizable and its PBH witness is a complex eigenvalue
    zero = {"kind": "constant", "value": [0.0, 0.0]}
    problem = {
        "n": 2, "r": 1, "A": [[0.5, -1.0], [1.0, 0.5]], "B": [[0.0], [0.0]],
        "C": [[0.0, 0.0], [0.0, 0.0]], "D": [[0.0], [0.0]], "G": [[0.0, 0.0], [0.0, 0.0]],
        "Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]], "Gamma": [[0.0, 0.0], [0.0, 0.0]],
        "f": zero, "sigma": zero, "eta": zero, "x0_mean": [0.0, 0.0],
        "x0_cov": [[1.0, 0.0], [0.0, 1.0]], "N": 10, "horizon": "infinite",
    }
    path = tmp_path / "rotation.json"
    path.write_text(json.dumps(problem))
    out = tmp_path / "c"
    assert main(["check", str(path), "--outdir", str(out)]) == 0
    ok, witness = json.loads((out / "check.json").read_text())["pair_AG_B_stabilizable"]
    assert ok is False
    assert witness["re"] == 0.5 and abs(witness["im"]) == 1.0


def test_reproduce_solves_the_unpinned_pair_once(tmp_path, monkeypatch):
    # sec6's equation has no root: one unpinned solve, made by the stability
    # battery and handed on, then one pinned to the reference root
    calls = {"steady": 0, "stabilizable": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(mfsoc.riccati, "_solve_steady",
                        counted("steady", mfsoc.riccati._solve_steady))
    monkeypatch.setattr(mfsoc.stability, "check_stabilizable",
                        counted("stabilizable", mfsoc.stability.check_stabilizable))
    rc = main(["reproduce-paper", SEC6, "--outdir", str(tmp_path / "r"), "--N-list", "1,2,5",
               "--reps", "5", "--dt", "0.005", "--T", "6", "--seed", "3"])
    assert rc == 0
    assert calls == {"steady": 2, "stabilizable": 1}


def test_failed_reproduce_leaves_no_outdir(tmp_path, capsys):
    # the gap benchmark fails on a horizon past the convexity limit, after
    # the Riccati solve and the figures' simulation have run: nothing of
    # them is written, manifest included
    out = tmp_path / "r"
    rc = main(["reproduce-paper", SEC6, "--outdir", str(out), "--fig3-T", "5",
               "--N-list", "1,2", "--reps", "2", "--dt", "0.01", "--T", "2"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("solver failure: ")
    assert not out.exists()


_SIMULATE_FLAGS = {
    # flag: (valid value, 0, a negative value, then nan and inf for a float
    # flag or a fraction for an integer flag); sets, never ranges, so no draw
    # asks for an unbounded number of steps or agents
    "--N": ("3", "0", "-2", "1.5"),
    "--reps": ("2", "0", "-1", "2.5"),
    "--dt": ("0.01", "0", "-0.01", "nan", "inf"),
    "--step": ("0.001", "0", "-0.001", "nan", "inf"),
    "--thinning": ("5", "0", "-1", "0.5"),
    "--seed": ("7", "0", "-1", "1.5"),
    "--agents": ("1", "0", "-1", "0.5"),
}


@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(draw={flag: values[0] for flag, values in _SIMULATE_FLAGS.items()})
@given(draw=st.fixed_dictionaries({
    # the valid value is drawn about half the time, so that some runs get
    # past the parser and into the solver and the simulator
    flag: st.just(values[0]) | st.sampled_from(values)
    for flag, values in _SIMULATE_FLAGS.items()}))
def test_simulate_flags_fail_only_by_documented_exits(tmp_path, draw):
    out = tmp_path / "s"
    shutil.rmtree(out, ignore_errors=True)
    argv = ["simulate", SEC6_FIN, "--outdir", str(out)]
    for flag, value in draw.items():
        argv += [flag, value]
    rc = main(argv)
    event(f"exit {rc}")
    assert rc in (0, 2, 3, 4, 64)
    if rc == 64:
        assert not out.exists()
    if rc == 0:
        assert {"manifest.json", "summary.json"} <= {f.name for f in out.iterdir()}


def test_gap_csv(tmp_path):
    out = tmp_path / "g"
    rc = main(["gap", SEC6_FIN, "--outdir", str(out), "--N-list", "2,4",
               "--reps", "5", "--dt", "0.002"])
    assert rc == 0
    lines = (out / "gap.csv").read_text().splitlines()
    assert lines[1] == "N,decentralized,centralized,epsilon,stderr"
    assert len(lines) == 4


def test_value_json(tmp_path):
    out = tmp_path / "v"
    assert main(["value", WELL, "--outdir", str(out), "--T", "15"]) == 0
    payload = json.loads((out / "value.json").read_text())
    comp = payload["components"]
    total = sum(comp[k] for k in ("quad_spread", "quad_mean", "lin_offset", "m"))
    assert payload["value"] == pytest.approx(total)


def test_outputs_deterministic(tmp_path):
    # same arguments (including outdir) twice: every output byte-identical
    out = tmp_path / "r"
    args = ["simulate", SEC6_FIN, "--outdir", str(out), "--N", "4",
            "--reps", "3", "--dt", "0.002", "--seed", "11", "--agents", "2"]
    assert main(args) == 0
    first = {f.name: f.read_bytes() for f in out.iterdir()}
    assert main(args) == 0
    second = {f.name: f.read_bytes() for f in out.iterdir()}
    assert first == second
    assert "trajectories.csv" in first
