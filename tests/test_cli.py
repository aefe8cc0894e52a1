import json
import pathlib

import numpy as np
import pytest

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


def test_usage_errors():
    assert main(["no-such-command"]) == 64
    assert main(["solve-finite"]) == 64  # missing spec argument


def test_solve_finite_outputs(tmp_path):
    out = tmp_path / "o"
    assert main(["solve-finite", EX1, "--outdir", str(out)]) == 0
    csv = (out / "riccati_finite.csv").read_text().splitlines()
    assert csv[0].startswith("# manifest ")
    assert csv[1].split(",")[0] == "t"
    man = json.loads((out / "manifest.json").read_text())
    assert man["command"] == "solve-finite"
    assert len(man["spec_sha256"]) == 64


def test_solve_finite_escape_exits_3(tmp_path):
    assert main(["solve-finite", EX1_LONG, "--outdir", str(tmp_path / "o")]) == 3


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
    ["--N", "0"], ["--N", "-2"],
    ["--step", "0"], ["--step", "-0.001"], ["--step", "nan"],
    ["--dt", "nan"], ["--dt", "0"],
    ["--reps", "0"], ["--thinning", "0"],
])
def test_simulate_refuses_bad_numbers_with_usage_exit(tmp_path, capsys, probe):
    # an out-of-range number is refused with a message, never replaced by a
    # default and never left to fail inside the library
    rc = main(["simulate", SEC6_FIN, "--outdir", str(tmp_path / "s"), "--reps", "2",
               "--dt", "0.01"] + probe)
    assert rc == 64
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "s").exists()


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
