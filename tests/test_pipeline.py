"""Problem-spec parsing, report assembly, and deterministic serialization."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import RotatedAffineJumps, chain_rate
from quasipot.pipeline import (
    BalanceError,
    SolverError,
    SpecError,
    dump_json,
    parse_problem_spec,
    run_attractors,
    run_linear,
    run_rates,
    run_validate,
    validation_dict,
    write_csv,
)
from quasipot.simulate import SimConfig


def ou_spec_dict(**extra):
    spec = {
        "dimension": 1,
        "drift": {"kind": "polynomial", "coefficients": [0.0, -1.0]},
        "diffusion": [[1.0]],
        "box": {"lower": [-2.0], "upper": [2.0], "resolution": 9},
        "solver": {"t_sweep": [2.0, 5.0, 10.0], "path_points": 120},
        "evaluation_points": [[-1.0], [0.5]],
    }
    spec.update(extra)
    return spec


SMALL_LADDER = {
    "n_values": [30],
    "dt": 0.01,
    "burn_in": 2.0,
    "horizon": 150.0,
    "seed": 3,
    "replicas": 8,
    "stride": 5,
    "bins": {"lower": [-0.9], "upper": [0.9], "count": 9},
}


def test_parse_round_trip_of_valid_spec():
    spec = parse_problem_spec(ou_spec_dict())
    assert spec.dimension == 1
    assert spec.drift_kind == "polynomial"
    assert spec.solver.t_sweep == (2.0, 5.0, 10.0)
    assert spec.evaluation_points.shape == (2, 1)
    assert spec.simulation is None and spec.linear is None


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(surprise=1),
        lambda d: d["drift"].update(extra=2),
        lambda d: d["box"].update(shape="round"),
        lambda d: d.update(solver={"t_sweep": [1.0], "typo": 3}),
        lambda d: d.update(tolerances={"failure_quota": 0.5, "unknown": 1}),
        # the solver tolerances are module constants, not spec fields
        lambda d: d.update(tolerances={"root": 1e-9}),
        lambda d: d.update(tolerances={"equilibrium": 1e-6}),
        lambda d: d.update(tolerances={"balance": 1e-9}),
        lambda d: d.update(tolerances={"margin": 1e-6}),
        lambda d: d.update(solver={"max_iterations": 2000}),
    ],
)
def test_unknown_fields_rejected_everywhere(mutate):
    raw = ou_spec_dict()
    mutate(raw)
    with pytest.raises(SpecError, match="unknown"):
        parse_problem_spec(raw)


def test_missing_required_fields_rejected():
    raw = ou_spec_dict()
    del raw["diffusion"]
    with pytest.raises(SpecError, match="missing"):
        parse_problem_spec(raw)


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: d.update(dimension=0), "dimension"),
        (lambda d: d.update(drift={"kind": "mystery"}), "drift kind"),
        (lambda d: d.update(drift={"kind": "polynomial", "coefficients": [1.0]}), "coefficients"),
        (lambda d: d.update(diffusion=[[1.0], [2.0]]), "diffusion"),
        (lambda d: d.update(jumps=[{"rate": -1.0, "vector": [0.1]}]), "rate"),
        (lambda d: d.update(jumps=[{"rate": 1.0, "vector": [0.1, 0.2]}]), "vector"),
        (lambda d: d.update(box={"lower": [2.0], "upper": [-2.0], "resolution": 5}), "box"),
        (lambda d: d.update(tolerances={"failure_quota": 1.5}), "failure_quota"),
        (lambda d: d.update(solver={"t_sweep": []}), "t_sweep"),
        (lambda d: d.update(solver={"path_points": 4}), "path_points"),
        (lambda d: d.update(evaluation_points=[[1.0, 2.0]]), "evaluation_points"),
        (lambda d: d.update(evaluation_points=5), "evaluation_points must be a list"),
        (lambda d: d.update(jumps=3), "jumps must be a list"),
        (lambda d: d.update(solver={"t_sweep": 5}), "t_sweep must be a nonempty list"),
        (lambda d: d.update(simulation={**SMALL_LADDER, "n_values": 20}), "n_values"),
        (
            lambda d: d.update(
                linear={"attractor_index": 0, "displacements": [], "horizon": 5.0, "samples": 10}
            ),
            "displacements",
        ),
        (lambda d: d.update(diffusion=[["a"]]), "diffusion must hold numbers"),
        (
            lambda d: d.update(drift={"kind": "polynomial", "coefficients": ["x", 1]}),
            "drift.coefficients",
        ),
    ],
)
def test_invalid_values_rejected(mutate, needle):
    raw = ou_spec_dict()
    mutate(raw)
    with pytest.raises(SpecError, match=needle):
        parse_problem_spec(raw)


def test_polynomial_drift_requires_dimension_one():
    raw = ou_spec_dict()
    raw["dimension"] = 2
    raw["diffusion"] = [[1.0, 0.0], [0.0, 1.0]]
    raw["box"] = {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "resolution": 5}
    raw["evaluation_points"] = []
    with pytest.raises(SpecError, match="dimension 1"):
        parse_problem_spec(raw)


def test_simulation_section_validation():
    raw = ou_spec_dict()
    raw["simulation"] = {
        "n_values": [40, 20],
        "dt": 0.01,
        "burn_in": 1.0,
        "horizon": 10.0,
        "seed": 1,
        "bins": {"lower": [-1.0], "upper": [1.0], "count": 5},
    }
    with pytest.raises(SpecError, match="increasing"):
        parse_problem_spec(raw)
    raw["simulation"]["n_values"] = [20, 40]
    raw["simulation"]["burn_in"] = 10.0
    with pytest.raises(SpecError, match="burn_in"):
        parse_problem_spec(raw)


#: Simulation values `SimConfig` refuses; SMALL_LADDER records 14,800 steps after burn-in.
REFUSED_SIMULATION_VALUES = {
    "negative-seed": {"seed": -1},
    "stride-past-horizon": {"stride": 14_801},
    "nan-burn-in": {"burn_in": float("nan")},
    "subnormal-dt": {"dt": 1e-310},
    "no-replicas": {"replicas": 0},
    "burn-in-at-horizon": {"burn_in": 150.0},
}


@pytest.mark.parametrize(
    "edit", REFUSED_SIMULATION_VALUES.values(), ids=REFUSED_SIMULATION_VALUES.keys()
)
def test_simulation_values_are_refused_by_simconfig_and_the_parser(edit):
    fields = {**SMALL_LADDER, **edit}
    del fields["bins"]
    with pytest.raises(ValueError):
        SimConfig(**fields, initial=np.zeros(1))
    with pytest.raises(SpecError, match="simulation"):
        parse_problem_spec(ou_spec_dict(simulation={**SMALL_LADDER, **edit}))


def test_drift_catalog_evaluation():
    lin = parse_problem_spec(
        {
            "dimension": 2,
            "drift": {"kind": "linear", "matrix": [[-1.0, 1.0], [0.0, -1.0]]},
            "diffusion": [[1.0, 0.0], [0.0, 1.0]],
            "box": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "resolution": 3},
        }
    ).build_model()
    y = np.array([[1.0, 2.0]])
    np.testing.assert_allclose(lin.drift_at(y), [[-1.0 + 2.0, -2.0]])

    grad = parse_problem_spec(
        {
            "dimension": 1,
            "drift": {"kind": "gradient_polynomial", "coefficients": [0.0, 0.0, -0.5, 0.0, 0.25]},
            "diffusion": [[1.0]],
            "box": {"lower": [-2.0], "upper": [2.0], "resolution": 5},
        }
    ).build_model()
    xs = np.array([[-1.5], [0.3], [2.0]])
    np.testing.assert_allclose(grad.drift_at(xs), xs - xs**3, atol=1e-14)
    # stored as the coefficients of -U', the drift equals -polyval(y, U') exactly
    ys = np.linspace(-3.0, 3.0, 6001)[:, None]
    dU = np.polynomial.polynomial.polyder([0.0, 0.0, -0.5, 0.0, 0.25])
    assert np.array_equal(grad.drift_at(ys), -np.polynomial.polynomial.polyval(ys, dU))


def test_jump_channels_built_from_spec():
    raw = ou_spec_dict(
        jumps=[
            {"rate": 0.5, "vector": [0.2]},
            {"rate": 1.5, "vector": [0.0], "matrix": [[0.1]]},
        ]
    )
    model = parse_problem_spec(raw).build_model()
    assert model.jump_rates.tolist() == [0.5, 1.5]
    vals = model.jump_values(np.array([[2.0]]))
    np.testing.assert_allclose(vals[0, 0], [0.2])
    np.testing.assert_allclose(vals[0, 1], [0.2])  # 0 + 0.1 * 2


def test_run_attractors_report():
    out = run_attractors(parse_problem_spec(ou_spec_dict()))
    assert len(out["attractors"]) == 1
    assert out["attractors"][0]["label"] == "a0"
    assert out["attractors"][0]["classification"] == "stable"
    assert abs(out["attractors"][0]["position"][0]) < 1e-6
    assert out["provenance"]["drift_kind"] == "polynomial"


def test_provenance_records_the_solver_constants():
    prov = run_attractors(parse_problem_spec(ou_spec_dict()))["provenance"]
    assert prov["max_iterations"] == 2000
    assert prov["tolerances"] == {
        "root": 1e-9,
        "equilibrium": 1e-6,
        "balance": 1e-9,
        "margin": 1e-6,
        "failure_quota": 0.25,
    }


def test_run_attractors_no_equilibria_is_solver_error():
    raw = ou_spec_dict(drift={"kind": "polynomial", "coefficients": [-1.0, 0.0]})
    with pytest.raises(SolverError, match="no equilibria"):
        run_attractors(parse_problem_spec(raw))


def test_run_rates_ou_quadratic():
    report = run_rates(parse_problem_spec(ou_spec_dict()))
    assert report.labels == ("a0",)
    assert report.rates.rates.tolist() == [0.0]
    assert report.balance_residual == 0.0
    # I(x) = x^2 for the unit OU process
    assert report.evaluation_rates[0] == pytest.approx(1.0, rel=0.02)
    assert report.evaluation_rates[1] == pytest.approx(0.25, rel=0.02)
    d = report.to_dict()
    assert d["cost_matrix"]["labels"] == ["a0"]
    assert d["solver_runs"]["unconverged"] == 0


def test_balance_error_raised_when_residual_above_tolerance(monkeypatch):
    import quasipot.pipeline as pipeline

    monkeypatch.setattr(pipeline, "max_balance_residual", lambda *a, **k: 1.0)
    with pytest.raises(BalanceError, match="residual"):
        run_rates(parse_problem_spec(ou_spec_dict()))


def test_failure_quota_trips_solver_error(monkeypatch):
    import quasipot.action as action
    import quasipot.pipeline as pipeline

    real = pipeline.quasipotential

    def sabotaged(*args, **kwargs):
        res = real(*args, **kwargs)
        return action.ActionValue(res.value, res.dual_iterations, False, res.failed_segments)

    monkeypatch.setattr(pipeline, "quasipotential", sabotaged)
    raw = ou_spec_dict(tolerances={"failure_quota": 0.1})
    with pytest.raises(SolverError, match="quota"):
        run_rates(parse_problem_spec(raw))


def test_failure_quota_counts_bin_center_solves(monkeypatch):
    import quasipot.action as action
    import quasipot.pipeline as pipeline

    real = pipeline.quasipotential
    centers = np.linspace(-0.8, 0.8, 9)

    def sabotaged(model, source, target, *args, **kwargs):
        res = real(model, source, target, *args, **kwargs)
        if not np.isclose(centers, target[0]).any():
            return res
        return action.ActionValue(res.value, res.dual_iterations, False, res.failed_segments)

    monkeypatch.setattr(pipeline, "quasipotential", sabotaged)
    raw = ou_spec_dict(tolerances={"failure_quota": 0.1}, simulation=SMALL_LADDER)
    with pytest.raises(SolverError, match="9 of 11"):
        run_validate(parse_problem_spec(raw))


def double_well_spec_dict(**extra):
    return ou_spec_dict(
        drift={"kind": "gradient_polynomial", "coefficients": [0.0, 0.0, -0.5, 0.0, 0.25]},
        **extra,
    )


def record_solves(monkeypatch) -> list:
    """Replace every solve by a cheap stand-in; return the (source, target) log."""
    import quasipot.action as action
    import quasipot.pipeline as pipeline

    calls = []

    def fake(model, source, target, *args, **kwargs):
        calls.append((np.array(source), np.array(target)))
        return action.ActionValue(float(np.sum((target - source) ** 2)), 0, True, ())

    monkeypatch.setattr(pipeline, "quasipotential", fake)
    return calls


def test_every_solve_goes_through_quasipotential_once(monkeypatch):
    calls = record_solves(monkeypatch)
    spec = parse_problem_spec(double_well_spec_dict(simulation=SMALL_LADDER))
    n, points, bins = 2, 2, 9

    report = run_rates(spec)
    assert len(report.attractors) == n
    assert len(calls) == n * (n - 1) + n * points
    assert report.to_dict()["solver_runs"]["total"] == len(calls)

    rates_calls = len(calls)
    report, _, _ = run_validate(spec)
    assert len(calls) - rates_calls == n * (n - 1) + n * points + n * bins
    assert report.to_dict()["solver_runs"]["total"] == len(calls) - rates_calls
    # The n(n-1) attractor-to-attractor solves come first and never start at
    # their target.  The later solves go to evaluation points and bin
    # centers, which may sit exactly on an attractor (here -1.0 on a0): such
    # a solve is legitimate and costs 0.
    pairs = n * (n - 1)
    for run in (calls[:rates_calls], calls[rates_calls:]):
        same = [k for k, (source, target) in enumerate(run) if np.array_equal(source, target)]
        assert all(k >= pairs for k in same)


@pytest.mark.parametrize("runner", [run_rates, run_validate])
def test_too_many_attractors_refused_before_solving(monkeypatch, runner):
    import quasipot.pipeline as pipeline

    real = pipeline.find_equilibria
    monkeypatch.setattr(pipeline, "find_equilibria", lambda *a, **k: real(*a, **k) * 21)
    calls = record_solves(monkeypatch)
    spec = parse_problem_spec(ou_spec_dict(simulation=SMALL_LADDER))
    with pytest.raises(SpecError, match="found 21 stable attractors.*at most 20"):
        runner(spec)
    assert calls == []


PLANE_SPEC = {
    "dimension": 2,
    "drift": {"kind": "linear", "matrix": [[-1.0, 0.0], [0.0, -1.0]]},
    "diffusion": [[1.0, 0.0], [0.0, 1.0]],
    "box": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "resolution": 3},
    "evaluation_points": [[0.5, 0.0]],
}


AFFINE_JUMP_PLANE_SPEC = {
    **PLANE_SPEC,
    "jumps": [{"rate": 0.5, "vector": [0.2, 0.0], "matrix": [[0.1, 0.0], [0.0, 0.0]]}],
}


class MinimizerReached(Exception):
    pass


def test_one_dimensional_solves_skip_the_minimizer(monkeypatch):
    import quasipot.action as action

    def refuse(*args, **kwargs):
        raise MinimizerReached

    monkeypatch.setattr(action, "quasipotential", refuse)
    spec = parse_problem_spec(double_well_spec_dict(simulation=SMALL_LADDER))
    report = run_rates(spec)
    assert report.unconverged == 0
    # I(0.5) = 2 (U(0.5) - U(1)) = 9/32 exactly
    assert report.evaluation_rates[1] == pytest.approx(9 / 32, abs=1e-10)
    assert report.to_dict()["provenance"]["escape_cost_method"] == "hamiltonian_quadrature"
    report, results, _ = run_validate(spec)
    assert report.unconverged == 0 and len(results) == 1
    assert report.provenance["escape_cost_method"] == "hamiltonian_quadrature"
    # linear drift without jump matrices takes the convex dual: I(r) = |r|^2
    report = run_rates(parse_problem_spec(PLANE_SPEC))
    assert report.provenance["escape_cost_method"] == "convex_dual"
    assert report.evaluation_rates[0] == pytest.approx(0.25, abs=1e-14)
    with pytest.raises(MinimizerReached):
        run_rates(parse_problem_spec(AFFINE_JUMP_PLANE_SPEC))


def test_provenance_names_the_minimizer_beyond_one_dimension(monkeypatch):
    record_solves(monkeypatch)
    report = run_rates(parse_problem_spec(AFFINE_JUMP_PLANE_SPEC))
    assert report.to_dict()["provenance"]["escape_cost_method"] == "minimum_action"
    report = run_rates(parse_problem_spec(PLANE_SPEC))
    assert report.to_dict()["provenance"]["escape_cost_method"] == "convex_dual"


def test_minimum_action_route_matches_the_rotated_affine_jump_oracle():
    oracle = RotatedAffineJumps()
    points = [[1.0, 0.5], [-0.8, 1.2], [1.5, -1.0], [0.3, 0.3]]
    spec = parse_problem_spec(
        {
            **oracle.spec_fields(),
            "box": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "resolution": 3},
            "solver": {"path_points": 100},
            "evaluation_points": points,
        }
    )
    report = run_rates(spec)
    assert report.provenance["escape_cost_method"] == "minimum_action"
    assert report.unconverged == 0
    for x, rate in zip(points, report.evaluation_rates):
        assert abs(rate - oracle.cost(x)) <= 1e-5


def test_a_convex_dual_rates_run_builds_its_tables_once():
    # the jump-2d benchmark's model and points: the rotated oracle with constant jumps
    from quasipot import action

    oracle = RotatedAffineJumps(mu=(0.0, 0.0))
    angle = oracle.theta + math.pi / 4 + math.pi / 2 * np.arange(4)
    radius = np.array([0.4, 0.6, 0.8, 1.0])
    spec = parse_problem_spec(
        {
            **oracle.spec_fields(),
            "box": {"lower": [-1.2, -1.2], "upper": [1.2, 1.2], "resolution": 5},
            "evaluation_points": np.column_stack([radius * np.cos(angle), radius * np.sin(angle)]).tolist(),
        }
    )
    action._flow_quadrature.cache_clear()
    report = run_rates(spec)
    assert report.provenance["escape_cost_method"] == "convex_dual"
    assert report.total_runs == 4
    info = action._flow_quadrature.cache_info()
    assert (info.hits, info.misses) == (3, 1)
    assert not any(table.flags.writeable for table in action._dual_tables(spec.build_model()))


SHIPPED_METHODS = {
    "affine_jumps2d": "minimum_action",
    "asym_double_well": "hamiltonian_quadrature",
    "double_well": "hamiltonian_quadrature",
    "double_well_mc": "hamiltonian_quadrature",
    "nonnormal2d": "convex_dual",
    "ou1d": "hamiltonian_quadrature",
}


TILTED_WELL = [0.0, 0.1, -0.5, 0.0, 0.25]  # U = x^4/4 - x^2/2 + 0.1 x


def test_rates_with_an_upward_jump_match_the_discretized_generator():
    # The chain's law is exact at each n, with no Monte Carlo noise; its error
    # I_n - I is c(x)/n plus a grid term, and 2 I_2n - I_n leaves a grid floor
    # that falls as 1/k^2 (1.6e-4 at k = 4, 4.0e-5 at 8, 1.0e-5 at 16).  Removing
    # the compensator -p f from the Hamiltonian moves the rates by 0.55.
    points = np.linspace(-1.6, 1.6, 17)
    box = (-2.2, 1.7)
    # the oracle itself, without jumps: the Gibbs rate 2 (U - min U) / sigma^2
    potential = np.polynomial.Polynomial(TILTED_WELL)
    gibbs = 2.0 * (potential(points) - potential(potential.deriv().roots().real).min())
    assert np.abs(chain_rate(TILTED_WELL, 1.0, 0.0, 0.3, 100, 16, points, box) - gibbs).max() < 1e-7
    spec = {
        "dimension": 1,
        "drift": {"kind": "gradient_polynomial", "coefficients": TILTED_WELL},
        "diffusion": [[1.0]],
        "jumps": [{"rate": 0.5, "vector": [0.3]}],
        "box": {"lower": [-2.0], "upper": [2.0], "resolution": 13},
        "evaluation_points": points[:, None].tolist(),
    }
    report = run_rates(parse_problem_spec(spec))
    assert report.unconverged == 0
    coarse, fine = (chain_rate(TILTED_WELL, 1.0, 0.5, 0.3, n, 16, points, box) for n in (200, 400))
    assert np.abs(2.0 * fine - coarse - report.evaluation_rates).max() < 5e-5



def test_rates_with_a_downward_jump_match_the_mirrored_generator():
    # x -> -x turns the downward jump into an upward one and U(x) into U(-x),
    # so chain_rate runs unchanged on the mirror image, at the mirrored points
    # and box.  The tilt makes the well asymmetric: the rates with the jump
    # flipped upward sit 0.04 away.  Removing the compensator -p f from the
    # Hamiltonian moves them by 0.76.
    points = np.linspace(-1.6, 1.6, 17)
    mirrored = [c * (-1) ** k for k, c in enumerate(TILTED_WELL)]
    spec = {
        "dimension": 1,
        "drift": {"kind": "gradient_polynomial", "coefficients": TILTED_WELL},
        "diffusion": [[1.0]],
        "jumps": [{"rate": 0.5, "vector": [-0.3]}],
        "box": {"lower": [-2.0], "upper": [2.0], "resolution": 13},
        "evaluation_points": points[:, None].tolist(),
    }
    report = run_rates(parse_problem_spec(spec))
    assert report.unconverged == 0
    coarse, fine = (chain_rate(mirrored, 1.0, 0.5, 0.3, n, 16, -points, (-2.2, 1.7)) for n in (200, 400))
    assert np.abs(2.0 * fine - coarse - report.evaluation_rates).max() < 5e-5

def test_shipped_specs_pin_their_escape_cost_method(monkeypatch):
    record_solves(monkeypatch)
    specs = Path(__file__).resolve().parents[1] / "specs"
    assert sorted(p.stem for p in specs.glob("*.json")) == sorted(SHIPPED_METHODS)
    for name, method in SHIPPED_METHODS.items():
        report = run_rates(parse_problem_spec(json.loads((specs / f"{name}.json").read_text())))
        assert report.provenance["escape_cost_method"] == method, name


def test_run_validate_requires_simulation_section():
    with pytest.raises(SpecError, match="simulation"):
        run_validate(parse_problem_spec(ou_spec_dict()))


def test_run_validate_small_ladder():
    raw = ou_spec_dict(evaluation_points=[], simulation=SMALL_LADDER)
    spec = parse_problem_spec(raw)
    report, results, seed = run_validate(spec)
    assert len(results) == 1
    run = results[0]
    assert run.n == 30
    assert run.sup_error < 0.12
    payload = validation_dict(report, results, seed)
    assert seed == payload["validation"]["seed"] == SMALL_LADDER["seed"]
    assert payload["validation"]["runs"][0]["n"] == 30
    assert payload["validation"]["monotone_trend"] is True


def test_run_validate_simulates_the_ladder_in_one_call(monkeypatch):
    # per-layer tracing wraps `pipeline.simulate` as `(model, config)`
    import quasipot.pipeline as pipeline

    real = pipeline.simulate
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "simulate", recording)
    ladder = dict(SMALL_LADDER, n_values=[20, 30])
    spec = parse_problem_spec(ou_spec_dict(evaluation_points=[], simulation=ladder))
    _, results, _ = run_validate(spec)
    assert len(calls) == 1
    args, kwargs = calls[0]
    assert kwargs == {} and len(args) == 2
    model, config = args
    assert model.dim == 1
    assert config.n_values == spec.simulation.n_values == (20, 30)
    assert [r.n for r in results] == [20, 30]


def test_run_linear_report():
    raw = {
        "dimension": 2,
        "drift": {"kind": "linear", "matrix": [[-1.0, 1.0], [0.0, -1.0]]},
        "diffusion": [[1.0, 0.0], [0.0, 1.0]],
        "box": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "resolution": 3},
        "linear": {
            "attractor_index": 0,
            "displacements": [[1.0, 0.0], [0.0, 1.0]],
            "horizon": 12.0,
            "samples": 60,
        },
    }
    result = run_linear(parse_problem_spec(raw))
    report = result["report"]
    np.testing.assert_allclose(report["gramian"], [[0.75, 0.25], [0.25, 0.5]], atol=1e-10)
    rates = [d["rate"] for d in report["displacements"]]
    assert rates[0] == pytest.approx(0.8)
    assert rates[1] == pytest.approx(1.2)
    assert len(result["paths"]) == 2
    assert result["paths"][0].num_segments == 60


def test_run_linear_refuses_unstable_equilibrium():
    raw = {
        "dimension": 1,
        "drift": {"kind": "gradient_polynomial", "coefficients": [0.0, 0.0, -0.5, 0.0, 0.25]},
        "diffusion": [[1.0]],
        "box": {"lower": [-2.0], "upper": [2.0], "resolution": 9},
        "linear": {
            "attractor_index": 1,
            "displacements": [[0.1]],
            "horizon": 5.0,
            "samples": 20,
        },
    }
    with pytest.raises(SolverError, match="stable"):
        run_linear(parse_problem_spec(raw))
    # explicit override picks the deep well instead
    out = run_linear(parse_problem_spec(raw), attractor_index=0)
    assert out["report"]["attractor"]["classification"] == "stable"


# -- serialization ------------------------------------------------------------


def test_writers_spell_non_finite_floats(tmp_path):
    values = [float("inf"), float("-inf"), float("nan"), 0.5]
    assert dump_json(values) == "[Infinity, -Infinity, NaN, 0.5]\n"
    path = tmp_path / "t.csv"
    write_csv(str(path), ["a", "b", "c", "d"], [values])
    assert path.read_text() == "a,b,c,d\ninf,-inf,nan,0.5\n"


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_writers_round_trip_every_finite_float(tmp_path, x):
    back = json.loads(dump_json({"x": x, "np": np.float64(x), "arr": np.array([x])}))
    path = tmp_path / "x.csv"
    write_csv(str(path), ["x"], [[x]])
    with open(path, newline="") as handle:
        (cell,) = list(csv.reader(handle))[1]
    for v in (back["x"], back["np"], back["arr"][0], float(cell)):
        # equal, with the sign of zero kept
        assert v == x and math.copysign(1.0, v) == math.copysign(1.0, x)


def test_dump_json_keeps_integral_floats_floats():
    back = json.loads(dump_json({"h": 10.0, "z": np.float64(0.0), "a": np.array([-0.0, 2.0])}))
    assert type(back["h"]) is float and back["h"] == 10.0
    assert type(back["z"]) is float and type(back["a"][1]) is float
    assert math.copysign(1.0, back["a"][0]) == -1.0


def test_dump_json_is_sorted_and_json_readable():
    payload = {"b": [1.0, float("inf")], "a": {"z": float("nan"), "y": np.arange(3.0)}}
    text = dump_json(payload)
    assert text.index('"a"') < text.index('"b"')
    back = json.loads(text)
    assert back["b"][1] == float("inf")
    assert back["a"]["y"] == [0.0, 1.0, 2.0]
    assert text == dump_json(payload)


def test_dump_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        dump_json({"x": object()})


class SimulationReached(Exception):
    pass


def simulated_config(monkeypatch, raw) -> SimConfig:
    """The config `run_validate` passes to `simulate`, which then stops the run."""
    import quasipot.pipeline as pipeline

    configs = []

    def capture(model, config):
        configs.append(config)
        raise SimulationReached

    monkeypatch.setattr(pipeline, "simulate", capture)
    record_solves(monkeypatch)
    with pytest.raises(SimulationReached):
        run_validate(parse_problem_spec(raw))
    return configs[0]


def test_initial_rows_are_cycled_over_the_replicas(monkeypatch):
    ladder = {**SMALL_LADDER, "replicas": 5, "initial": [[-0.5], [0.25]]}
    config = simulated_config(monkeypatch, ou_spec_dict(simulation=ladder))
    assert config.initial.tolist() == [[-0.5], [0.25], [-0.5], [0.25], [-0.5]]


def test_more_initial_rows_than_replicas_is_a_spec_error():
    ladder = {k: v for k, v in SMALL_LADDER.items() if k != "replicas"}
    ladder["initial"] = [[-1.0], [1.0]]
    with pytest.raises(SpecError, match=r"simulation\.initial has 2 rows .*simulation\.replicas is 1"):
        parse_problem_spec(ou_spec_dict(simulation=ladder))


def test_attractors_are_cycled_over_the_replicas_by_default(monkeypatch):
    ladder = {**SMALL_LADDER, "replicas": 5}
    config = simulated_config(monkeypatch, double_well_spec_dict(simulation=ladder))
    np.testing.assert_allclose(config.initial, [[-1.0], [1.0], [-1.0], [1.0], [-1.0]], atol=1e-9)
