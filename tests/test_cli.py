"""End-to-end command line runs against temporary spec files."""

import json
import math
import threading
from pathlib import Path

import numpy as np
import pytest

from quasipot import cli

SPECS = Path(__file__).resolve().parent.parent / "specs"

#: V(0, x) of the unit OU process with jumps of size 0.4 at rate 0.8, from two
#: independent quadratures of the Hamiltonian's nonzero root (agreeing to 1e-15).
OU_JUMP_COSTS = {
    -1.0: 0.900964494971189,
    -0.5: 0.22352276801514132,
    0.5: 0.21955614458164532,
    1.0: 0.8691634068182839,
}


def write_spec(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


#: A short `validate` ladder for `fast_ou_spec`: 11,800 steps after burn-in.
SMALL_SIMULATION = {
    "n_values": [30],
    "dt": 0.01,
    "burn_in": 2.0,
    "horizon": 120.0,
    "seed": 5,
    "replicas": 8,
    "stride": 5,
    "bins": {"lower": [-0.9], "upper": [0.9], "count": 9},
}


def fast_ou_spec(**extra):
    spec = {
        "dimension": 1,
        "drift": {"kind": "polynomial", "coefficients": [0.0, -1.0]},
        "diffusion": [[1.0]],
        "box": {"lower": [-2.0], "upper": [2.0], "resolution": 9},
        "solver": {"t_sweep": [2.0, 6.0], "path_points": 80},
        "evaluation_points": [[0.8]],
    }
    spec.update(extra)
    return spec


def test_attractors_command(tmp_path):
    spec = write_spec(tmp_path, fast_ou_spec())
    out = tmp_path / "out"
    assert cli.main(["attractors", "--spec", spec, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["attractors"][0]["label"] == "a0"


def test_rates_command_writes_report_and_csv(tmp_path):
    spec = write_spec(tmp_path, fast_ou_spec())
    out = tmp_path / "out"
    assert cli.main(["rates", "--spec", spec, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["attractors"][0]["rate"] == 0
    lines = (out / "rates.csv").read_text().splitlines()
    assert lines[0] == "x0,rate"
    assert len(lines) == 2
    assert float(lines[1].split(",")[1]) == pytest.approx(0.64, rel=0.05)


@pytest.mark.parametrize("spec", sorted(SPECS.glob("*.json")), ids=lambda path: path.stem)
def test_shipped_spec_runs(tmp_path, spec):
    for command in ("attractors", "rates"):
        out = tmp_path / command
        assert cli.main([command, "--spec", str(spec), "--out", str(out)]) == 0
        assert (out / "report.json").is_file()
    want = 0 if "linear" in json.loads(spec.read_text()) else 2
    assert cli.main(["linear", "--spec", str(spec), "--out", str(tmp_path / "linear")]) == want


def test_missing_spec_file_is_exit_2(tmp_path):
    assert cli.main(["rates", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


def test_invalid_json_is_exit_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["rates", "--spec", str(path), "--out", str(tmp_path)]) == 2


def test_unknown_field_is_exit_2(tmp_path):
    spec = write_spec(tmp_path, fast_ou_spec(mystery=1))
    assert cli.main(["rates", "--spec", spec, "--out", str(tmp_path / "o")]) == 2


def test_no_equilibria_is_exit_3(tmp_path):
    spec = write_spec(
        tmp_path, fast_ou_spec(drift={"kind": "polynomial", "coefficients": [-1.0, 0.0]})
    )
    assert cli.main(["attractors", "--spec", spec, "--out", str(tmp_path / "o")]) == 3


def test_balance_violation_is_exit_4(tmp_path, monkeypatch):
    import quasipot.pipeline as pipeline

    monkeypatch.setattr(pipeline, "max_balance_residual", lambda *a, **k: 1.0)
    spec = write_spec(tmp_path, fast_ou_spec())
    assert cli.main(["rates", "--spec", spec, "--out", str(tmp_path / "o")]) == 4


def test_validate_without_simulation_is_exit_2(tmp_path):
    spec = write_spec(tmp_path, fast_ou_spec())
    assert cli.main(["validate", "--spec", spec, "--out", str(tmp_path / "o")]) == 2


def test_validate_command_writes_empirical_csv(tmp_path):
    payload = fast_ou_spec(
        evaluation_points=[],
        simulation=SMALL_SIMULATION,
    )
    spec = write_spec(tmp_path, payload)
    out = tmp_path / "out"
    assert cli.main(["validate", "--spec", spec, "--out", str(out)]) == 0
    lines = (out / "empirical.csv").read_text().splitlines()
    assert lines[0] == "n,c0,count,rate"
    assert len(lines) == 10
    report = json.loads((out / "report.json").read_text())
    assert len(report["validation"]["runs"]) == 1


def test_validate_seed_override_changes_empirical_only(tmp_path):
    payload = fast_ou_spec(
        evaluation_points=[],
        simulation=SMALL_SIMULATION,
    )
    spec = write_spec(tmp_path, payload)
    out_a, out_b, out_c = (tmp_path / x for x in ("a", "b", "c"))
    assert cli.main(["validate", "--spec", spec, "--out", str(out_a)]) == 0
    assert cli.main(["validate", "--spec", spec, "--out", str(out_b), "--seed", "99"]) == 0
    assert cli.main(["validate", "--spec", spec, "--out", str(out_c), "--seed", "5"]) == 0
    base = (out_a / "empirical.csv").read_text()
    assert (out_b / "empirical.csv").read_text() != base
    assert (out_c / "empirical.csv").read_text() == base
    # predictions do not depend on the seed
    assert (out_b / "rates.csv").read_text() == (out_a / "rates.csv").read_text()
    # the report names the seed the simulation used
    seeds = [json.loads((out / "report.json").read_text())["validation"]["seed"] for out in (out_a, out_b)]
    assert seeds == [SMALL_SIMULATION["seed"], 99]
    # no evaluation points still gives the coordinate columns
    assert (out_a / "rates.csv").read_text() == "x0,rate\n"


def test_linear_command_and_attractor_override(tmp_path):
    payload = {
        "dimension": 2,
        "drift": {"kind": "linear", "matrix": [[-1.0, 1.0], [0.0, -1.0]]},
        "diffusion": [[1.0, 0.0], [0.0, 1.0]],
        "box": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "resolution": 3},
        "linear": {
            "attractor_index": 0,
            "displacements": [[1.0, 0.0]],
            "horizon": 10.0,
            "samples": 40,
        },
    }
    spec = write_spec(tmp_path, payload)
    out = tmp_path / "out"
    assert cli.main(["linear", "--spec", spec, "--out", str(out)]) == 0
    lines = (out / "paths.csv").read_text().splitlines()
    assert lines[0] == "r_index,t,x0,x1"
    assert len(lines) == 42
    report = json.loads((out / "report.json").read_text())
    assert report["gramian"][0][0] == pytest.approx(0.75)
    # out-of-range override is a spec problem
    assert cli.main(["linear", "--spec", spec, "--out", str(out), "--attractor", "7"]) == 2


def test_overlong_linear_horizon_is_exit_2(tmp_path, capsys):
    payload = json.loads((SPECS / "double_well.json").read_text())
    payload["linear"]["horizon"] = 1000.0
    spec = write_spec(tmp_path, payload)
    assert cli.main(["linear", "--spec", spec, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("spec error: ")
    assert "overflow-safe maximum 350" in err


def test_too_many_attractors_is_exit_2_before_solving(tmp_path, capsys, monkeypatch):
    import quasipot.pipeline as pipeline

    def no_solve(*args, **kwargs):
        raise AssertionError("escape cost solved before the attractor count was checked")

    wells = [
        pipeline.Equilibrium(np.array([0.1 * k]), np.array([[-1.0]]), np.array([-1.0]), "stable")
        for k in range(pipeline.MAX_BALANCE_SIZE + 1)
    ]
    monkeypatch.setattr(pipeline, "find_equilibria", lambda *a, **k: wells)
    monkeypatch.setattr(pipeline, "quasipotential", no_solve)
    spec = write_spec(tmp_path, fast_ou_spec())
    assert cli.main(["rates", "--spec", spec, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "spec error: found 21 stable attractors; rates are supported for at most 20, "
        "the largest set the balance check accepts\n"
    )


@pytest.mark.parametrize(
    "edit",
    [
        {"evaluation_points": 5},
        {"jumps": 3},
        {"solver": {"t_sweep": 5}},
        {"diffusion": [["a"]]},
        {"drift": {"kind": "polynomial", "coefficients": ["x", 1]}},
        {
            "simulation": {
                "n_values": 20,
                "dt": 0.01,
                "burn_in": 1.0,
                "horizon": 10.0,
                "seed": 1,
                "bins": {"lower": [-1.0], "upper": [1.0], "count": 5},
            }
        },
        {"linear": {"attractor_index": 0, "displacements": [], "horizon": 5.0, "samples": 10}},
        {"simulation": {**SMALL_SIMULATION, "seed": -1}},
        {"simulation": {**SMALL_SIMULATION, "stride": 11_801}},
        {"simulation": {**SMALL_SIMULATION, "burn_in": float("nan")}},
        {"simulation": {**SMALL_SIMULATION, "dt": 1e-310}},
    ],
    ids=[
        "eval-points",
        "jumps",
        "t-sweep",
        "diffusion",
        "coefficients",
        "n-values",
        "displacements",
        "negative-seed",
        "stride-past-horizon",
        "nan-burn-in",
        "subnormal-dt",
    ],
)
def test_malformed_spec_is_exit_2(tmp_path, capsys, edit):
    spec = write_spec(tmp_path, fast_ou_spec(**edit))
    assert cli.main(["rates", "--spec", spec, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("spec error: ")


def test_negative_seed_override_is_exit_2_before_solving(tmp_path, capsys, monkeypatch):
    import quasipot.pipeline as pipeline

    def no_solve(*args, **kwargs):
        raise AssertionError("escape cost solved before the seed was checked")

    monkeypatch.setattr(pipeline, "quasipotential", no_solve)
    spec = write_spec(tmp_path, fast_ou_spec(evaluation_points=[], simulation=SMALL_SIMULATION))
    argv = ["validate", "--spec", spec, "--out", str(tmp_path / "o"), "--seed", "-1"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("spec error: ")


def test_validate_blowup_names_its_rung(tmp_path, capsys):
    payload = json.loads((SPECS / "ou1d.json").read_text())
    payload["simulation"]["dt"] = 2.5  # an unstable Euler step for the unit OU drift
    spec = write_spec(tmp_path, payload)
    assert cli.main(["validate", "--spec", spec, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (
        "solver error: simulation at n=20 failed: state magnitude exceeded 1e+06 at step 36 "
        "(time 90); the drift does not appear to confine the dynamics on this domain\n"
    )


@pytest.mark.filterwarnings("error")  # a warning would print to stderr before the error line
def test_validate_runaway_is_one_error_line(tmp_path, capsys):
    # an Euler step of 10 on the double well overshoots the wells and runs away
    payload = json.loads((SPECS / "double_well_mc.json").read_text())
    payload["simulation"].update(dt=10.0, burn_in=0.0, stride=1)
    spec = write_spec(tmp_path, payload)
    assert cli.main(["validate", "--spec", spec, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (
        "solver error: simulation at n=20 failed: state magnitude exceeded 1e+06 at step 4 "
        "(time 40); the drift does not appear to confine the dynamics on this domain\n"
    )


#: A 2-D diagonal linear drift whose noise drives only the first axis.
DEGENERATE_NOISE_SPEC = {
    "dimension": 2,
    "drift": {"kind": "linear", "matrix": [[-1.0, 0.0], [0.0, -2.0]]},
    "diffusion": [[1.0], [0.0]],
    "box": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "resolution": 3},
    "evaluation_points": [[0.5, 0.5]],
    "linear": {"attractor_index": 0, "displacements": [[0.5, 0.5]], "horizon": 5.0, "samples": 10},
}


@pytest.mark.parametrize(
    "jumps",
    [[], [{"rate": 1.0, "vector": [1.0, 0.0], "matrix": [[0.1, 0.0], [0.0, 0.0]]}]],
    ids=["convex-dual", "minimum-action"],
)
def test_degenerate_noise_is_exit_2(tmp_path, capsys, jumps):
    # Neither the noise nor the jumps reach the second axis: the action is
    # not defined there, whichever route solves the escape costs, and the
    # linear closed forms have no positive definite covariance.
    spec = write_spec(tmp_path, {**DEGENERATE_NOISE_SPEC, "jumps": jumps})
    for command in ("rates", "linear"):
        assert cli.main([command, "--spec", spec, "--out", str(tmp_path / command)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("spec error: ") and "degenerate" in err
        assert err.count("\n") == 1


def test_linear_and_rates_agree_on_controllable_singular_noise(tmp_path):
    # The noise drives only the second axis, and the drift carries it into the
    # first: c is singular, the Gramian is not, and both routes answer.
    payload = json.loads((SPECS / "nonnormal2d.json").read_text())
    payload["diffusion"] = [[0.0], [1.0]]
    payload["linear"]["displacements"] = [[0.5, 0.5]]
    spec = write_spec(tmp_path, payload)
    rates = {}
    for command in ("rates", "linear"):
        assert cli.main([command, "--spec", spec, "--out", str(tmp_path / command)]) == 0
        rates[command] = json.loads((tmp_path / command / "report.json").read_text())
    # both routes take the Gramian from the same Lyapunov solve
    got = rates["linear"]["displacements"][0]["rate"]
    assert abs(got - rates["rates"]["evaluation"][0]["rate"]) <= 2 * math.ulp(0.5)
    assert abs(got - 0.5) <= 2 * math.ulp(0.5)


@pytest.mark.parametrize(
    "edit, message",
    [
        # b = -x + x^3 leaves every compact set: no invariant measure
        ({"drift": {"kind": "polynomial", "coefficients": [0.0, -1.0, 0.0, 1.0]}}, "degree 3 and leading coefficient 1;"),
        ({"drift": {"kind": "polynomial", "coefficients": [1.0, 0.0, -1.0]}}, "degree 2 and leading coefficient -1;"),
        ({"drift": {"kind": "polynomial", "coefficients": [-1.0, 0.0]}}, "degree 0 and leading coefficient -1;"),
        # the well at -1 carries half the measure but lies outside the box
        ({"box": {"lower": [0.2], "upper": [2.0], "resolution": 13}}, "stable equilibrium at -1, outside the search box [0.2, 2];"),
    ],
    ids=["no-invariant-measure", "even-degree", "constant", "attractor-outside-box"],
)
@pytest.mark.parametrize("command, base", [("rates", "double_well"), ("validate", "double_well_mc")])
def test_drift_outside_the_stationary_theory_is_exit_2(tmp_path, capsys, monkeypatch, edit, message, command, base):
    import quasipot.pipeline as pipeline

    def no_solve(*args, **kwargs):
        raise AssertionError("escape cost solved before the drift was checked")

    monkeypatch.setattr(pipeline, "quasipotential", no_solve)
    payload = json.loads((SPECS / f"{base}.json").read_text())
    spec = write_spec(tmp_path, {**payload, **edit})
    assert cli.main([command, "--spec", spec, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("spec error: the drift has ") and message in err
    assert err.count("\n") == 1


def test_out_naming_a_file_is_exit_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli.main(["attractors", "--spec", str(SPECS / "ou1d.json"), "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"spec error: cannot create output directory {taken}: ")
    assert err.count("\n") == 1


def test_seed_is_a_validate_option_only(tmp_path):
    spec = write_spec(tmp_path, fast_ou_spec())
    with pytest.raises(SystemExit) as exc:
        cli.main(["rates", "--spec", spec, "--out", str(tmp_path / "o"), "--seed", "3"])
    assert exc.value.code == 2


def test_solves_run_on_the_calling_thread_in_task_order(tmp_path, monkeypatch):
    import quasipot.pipeline as pipeline

    solve = pipeline.quasipotential
    calls = []

    def recording(model, attractor, target, **kwargs):
        calls.append((threading.get_ident(), attractor.tolist(), target.tolist()))
        return solve(model, attractor, target, **kwargs)

    monkeypatch.setattr(pipeline, "quasipotential", recording)
    payload = json.loads((SPECS / "double_well.json").read_text())
    spec = write_spec(tmp_path, payload)
    out = tmp_path / "out"
    assert cli.main(["rates", "--spec", spec, "--out", str(out), "--threads", "4"]) == 0
    report = json.loads((out / "report.json").read_text())
    a = [att["position"] for att in report["attractors"]]
    points = payload["evaluation_points"]
    expected = [(a[i], a[j]) for i in range(len(a)) for j in range(len(a)) if i != j]
    expected += [(a[i], x) for i in range(len(a)) for x in points]
    assert [(src, dst) for _, src, dst in calls] == expected
    assert {ident for ident, _, _ in calls} == {threading.get_ident()}


def test_repeated_runs_are_byte_identical(tmp_path):
    spec = write_spec(tmp_path, fast_ou_spec())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cli._build_parser.cache_clear()
    assert cli.main(["rates", "--spec", spec, "--out", str(out_a)]) == 0
    assert cli.main(["rates", "--spec", spec, "--out", str(out_b), "--threads", "3"]) == 0
    # one parser serves both calls: it is built on the first
    assert cli._build_parser.cache_info().misses == 1
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert (out_a / "rates.csv").read_bytes() == (out_b / "rates.csv").read_bytes()


def test_repeated_convex_dual_runs_are_byte_identical(tmp_path):
    payload = {
        "dimension": 2,
        "drift": {"kind": "linear", "matrix": [[-1.0, 3.0], [0.0, -2.0]]},
        "diffusion": [[0.6, 0.0], [0.2, 0.5]],
        "jumps": [{"rate": 1.0, "vector": [0.3, 0.2]}, {"rate": 0.6, "vector": [-0.1, 0.35]}],
        "box": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "resolution": 3},
        "evaluation_points": [[0.2, -0.7], [0.5, 0.5], [-0.3, 0.1]],
    }
    spec = write_spec(tmp_path, payload)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["rates", "--spec", spec, "--out", str(out_a)]) == 0
    assert cli.main(["rates", "--spec", spec, "--out", str(out_b)]) == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert (out_a / "rates.csv").read_bytes() == (out_b / "rates.csv").read_bytes()
    report = json.loads((out_a / "report.json").read_text())
    assert report["provenance"]["escape_cost_method"] == "convex_dual"
    assert report["solver_runs"] == {"total": 3, "unconverged": 0}


def test_rates_on_one_dimensional_jump_spec(tmp_path):
    payload = json.loads((SPECS / "ou1d.json").read_text())
    payload["jumps"] = [{"rate": 0.8, "vector": [0.4]}]
    spec = write_spec(tmp_path, payload)
    out = tmp_path / "out"
    assert cli.main(["rates", "--spec", spec, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["solver_runs"] == {"total": 4, "unconverged": 0}
    assert report["provenance"]["escape_cost_method"] == "hamiltonian_quadrature"
    for entry in report["evaluation"]:
        want = OU_JUMP_COSTS[entry["point"][0]]
        assert entry["costs_from_attractors"][0] == pytest.approx(want, abs=1e-10)
        assert entry["rate"] == pytest.approx(want, abs=1e-10)


def test_double_well_equilibria_and_gramian_rates_are_exact(tmp_path):
    # b = y - y^3 has roots -1, 0, 1 and b' = -2, 1, -2 there; the Gramian
    # rate of b' = -2, c = 1 is 2 r^2.  The exact Jacobian and Newton's
    # polishing reproduce all of them to the last bit.
    spec = str(SPECS / "double_well.json")
    assert cli.main(["attractors", "--spec", spec, "--out", str(tmp_path / "a")]) == 0
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert [e["position"] for e in report["equilibria"]] == [[-1.0], [0.0], [1.0]]
    assert [e["jacobian"] for e in report["equilibria"]] == [[[-2.0]], [[1.0]], [[-2.0]]]
    assert cli.main(["linear", "--spec", spec, "--out", str(tmp_path / "l")]) == 0
    report = json.loads((tmp_path / "l" / "report.json").read_text())
    assert [d["rate"] for d in report["displacements"]] == [0.18, 0.72]
