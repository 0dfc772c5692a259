"""End-to-end runs driven by a JSON problem specification.

A problem spec describes one jump-diffusion model (drift from a small
catalog, constant diffusion matrix, jump channels), a search box for
attractors, solver settings, evaluation points, and optional simulation and
linearization sections.  The runners here turn a spec into structured
reports:

- :func:`run_attractors`: equilibria and their classification.
- :func:`run_rates`: stationary rates on the attractors and the rate
  function on the requested evaluation points.
- :func:`run_validate`: the same predictions compared against direct
  simulation across a ladder of noise scales.
- :func:`run_linear`: closed-form Gramian quasipotentials at one attractor.

All outputs are deterministic: no timestamps, keys sorted, and floats in
Python's shortest round-trip form (``repr``), written by the standard
``json`` and ``csv`` modules.  Non-finite floats are ``Infinity``,
``-Infinity`` and ``NaN`` in JSON and ``inf``, ``-inf`` and ``nan`` in CSV;
``json.loads`` and ``float`` read them back.  Escape-cost solves run one
after another, in a fixed task order, in the calling thread.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import __version__
from . import action
from .action import (
    EQUILIBRIUM_TOL,
    MAX_ITERATIONS,
    ActionValue,
    quasipotential_1d,
)
from .attractors import (
    CLASSIFICATION_MARGIN,
    ROOT_TOL,
    Equilibrium,
    SearchBox,
    _classify,
    find_equilibria,
    stable_attractors,
)
from .linear import (
    LinearModel,
    escape_profile_limit,
    finite_horizon_gramian,
    finite_horizon_path,
    lyapunov_gramian,
    quadratic_rate,
)
from .maxplus import (
    MAX_BALANCE_SIZE,
    CostMatrix,
    StationaryRates,
    evaluate_rate,
    max_balance_residual,
    shortest_path_closure,
    stationary_rates,
)
from .models import DegenerateCovariance, JumpAtom, LinearDrift, LocalModel, PolynomialDrift
from .simulate import (
    SimConfig,
    SimulationBlowup,
    ValidationReport,
    bin_centers,
    empirical_rate,
    simulate,
    validation_report,
)


class SpecError(ValueError):
    """The problem specification is malformed or inconsistent."""


class SolverError(RuntimeError):
    """A numerical stage failed to produce a trustworthy result."""


class BalanceError(RuntimeError):
    """Computed stationary rates violate the flux balance tolerance."""


#: Largest flux balance residual the stationary rates of `rates` may leave.
BALANCE_TOL = 1e-9


# ---------------------------------------------------------------------------
# Spec parsing


def _require_mapping(obj, ctx: str) -> dict:
    if not isinstance(obj, dict):
        raise SpecError(f"{ctx} must be an object, got {type(obj).__name__}")
    return obj


def _check_fields(d: dict, ctx: str, required: Sequence[str], optional: Sequence[str] = ()) -> None:
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise SpecError(f"unknown fields in {ctx}: {sorted(unknown)}")
    missing = set(required) - set(d)
    if missing:
        raise SpecError(f"missing fields in {ctx}: {sorted(missing)}")


def _as_float(v, ctx: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SpecError(f"{ctx} must be a number, got {v!r}")
    return float(v)


def _as_positive(v, ctx: str) -> float:
    x = _as_float(v, ctx)
    if not (x > 0) or math.isinf(x):
        raise SpecError(f"{ctx} must be positive and finite, got {x}")
    return x


def _as_int(v, ctx: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise SpecError(f"{ctx} must be an integer, got {v!r}")
    return v


def _as_list(v, ctx: str, *, nonempty: bool = False) -> list:
    if not isinstance(v, list) or (nonempty and not v):
        raise SpecError(f"{ctx} must be a {'nonempty ' if nonempty else ''}list, got {v!r}")
    return v


def _as_array(v, ctx: str) -> np.ndarray:
    try:
        return np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        raise SpecError(f"{ctx} must hold numbers only, got {v!r}") from None


def _as_vector(v, dim: int, ctx: str) -> np.ndarray:
    arr = _as_array(v, ctx)
    if arr.shape != (dim,):
        raise SpecError(f"{ctx} must be a vector of length {dim}")
    if not np.isfinite(arr).all():
        raise SpecError(f"{ctx} must be finite")
    return arr


def _as_matrix(v, rows: int, cols: int | None, ctx: str) -> np.ndarray:
    arr = _as_array(v, ctx)
    if arr.ndim != 2 or arr.shape[0] != rows or (cols is not None and arr.shape[1] != cols):
        want = f"{rows}x{cols}" if cols is not None else f"{rows}xM"
        raise SpecError(f"{ctx} must be a {want} matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise SpecError(f"{ctx} must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class SolverSettings:
    # Accepted and recorded in provenance, but ignored: no route has a horizon.
    t_sweep: tuple[float, ...] = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)
    path_points: int = 400


@dataclass(frozen=True, eq=False)
class LinearSpec:
    attractor_index: int
    displacements: np.ndarray
    horizon: float
    samples: int


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    dimension: int
    drift_kind: str
    drift: LinearDrift | PolynomialDrift
    diffusion: np.ndarray
    jumps: tuple[JumpAtom, ...]
    box: SearchBox
    failure_quota: float
    solver: SolverSettings
    evaluation_points: np.ndarray
    simulation: SimConfig | None
    bin_edges: list[np.ndarray] | None
    linear: LinearSpec | None

    def build_model(self) -> LocalModel:
        return LocalModel(self.dimension, self.drift, self.diffusion, self.jumps)


def parse_problem_spec(raw: dict) -> ProblemSpec:
    """Validate a decoded JSON object and build a :class:`ProblemSpec`.

    Every unknown field anywhere in the document is an error: silently
    ignored settings are the classic way to run a different experiment than
    the one described.
    """
    top = _require_mapping(raw, "problem spec")
    _check_fields(
        top,
        "problem spec",
        required=["dimension", "drift", "diffusion", "box"],
        optional=[
            "jumps",
            "tolerances",
            "solver",
            "evaluation_points",
            "simulation",
            "linear",
        ],
    )
    dim = _as_int(top["dimension"], "dimension")
    if dim < 1:
        raise SpecError(f"dimension must be positive, got {dim}")

    drift_raw = _require_mapping(top["drift"], "drift")
    kind = drift_raw.get("kind")
    if kind == "linear":
        _check_fields(drift_raw, "drift", required=["kind", "matrix"])
        drift = LinearDrift(_as_matrix(drift_raw["matrix"], dim, dim, "drift.matrix"))
    elif kind in ("polynomial", "gradient_polynomial"):
        _check_fields(drift_raw, "drift", required=["kind", "coefficients"])
        if dim != 1:
            raise SpecError(f"drift kind {kind!r} requires dimension 1, got {dim}")
        coeffs = _as_array(drift_raw["coefficients"], "drift.coefficients")
        if coeffs.ndim != 1 or coeffs.size < 2 or not np.isfinite(coeffs).all():
            raise SpecError("drift.coefficients must be a finite vector with at least 2 entries")
        if kind == "gradient_polynomial":
            # b = -U' for the polynomial potential U given by its coefficients.
            coeffs = -np.polynomial.polynomial.polyder(coeffs)
        drift = PolynomialDrift(coeffs)
    else:
        raise SpecError(f"unknown drift kind {kind!r}")

    diffusion = _as_matrix(top["diffusion"], dim, None, "diffusion")

    jumps = []
    for i, item in enumerate(_as_list(top.get("jumps", []), "jumps")):
        j = _require_mapping(item, f"jumps[{i}]")
        _check_fields(j, f"jumps[{i}]", required=["rate", "vector"], optional=["matrix"])
        rate = _as_positive(j["rate"], f"jumps[{i}].rate")
        vector = _as_vector(j["vector"], dim, f"jumps[{i}].vector")
        matrix = None
        if "matrix" in j:
            matrix = _as_matrix(j["matrix"], dim, dim, f"jumps[{i}].matrix")
        jumps.append(JumpAtom(rate, vector, matrix))

    box_raw = _require_mapping(top["box"], "box")
    _check_fields(box_raw, "box", required=["lower", "upper", "resolution"])
    try:
        box = SearchBox(
            _as_vector(box_raw["lower"], dim, "box.lower"),
            _as_vector(box_raw["upper"], dim, "box.upper"),
            _as_int(box_raw["resolution"], "box.resolution"),
        )
    except ValueError as exc:
        raise SpecError(f"invalid box: {exc}") from None

    tol_raw = _require_mapping(top.get("tolerances", {}), "tolerances")
    _check_fields(tol_raw, "tolerances", required=[], optional=["failure_quota"])
    failure_quota = _as_float(tol_raw.get("failure_quota", 0.25), "tolerances.failure_quota")
    if not (0.0 <= failure_quota <= 1.0):
        raise SpecError(f"tolerances.failure_quota must lie in [0, 1], got {failure_quota}")

    sol_raw = _require_mapping(top.get("solver", {}), "solver")
    _check_fields(sol_raw, "solver", required=[], optional=["t_sweep", "path_points"])
    sol_kwargs = {}
    if "t_sweep" in sol_raw:
        sweep = _as_list(sol_raw["t_sweep"], "solver.t_sweep", nonempty=True)
        sol_kwargs["t_sweep"] = tuple(_as_positive(t, "solver.t_sweep entry") for t in sweep)
    if "path_points" in sol_raw:
        npts = _as_int(sol_raw["path_points"], "solver.path_points")
        if npts < 8:
            raise SpecError(f"solver.path_points must be at least 8, got {npts}")
        sol_kwargs["path_points"] = npts
    solver = SolverSettings(**sol_kwargs)

    eval_raw = _as_list(top.get("evaluation_points", []), "evaluation_points")
    evaluation = np.reshape(
        [_as_vector(p, dim, f"evaluation_points[{i}]") for i, p in enumerate(eval_raw)],
        (-1, dim),
    )

    simulation = bin_edges = None
    if "simulation" in top:
        s = _require_mapping(top["simulation"], "simulation")
        _check_fields(
            s,
            "simulation",
            required=["n_values", "dt", "burn_in", "horizon", "seed", "bins"],
            optional=["replicas", "stride", "initial"],
        )
        n_raw = _as_list(s["n_values"], "simulation.n_values")
        n_values = tuple(_as_int(n, "simulation.n_values entry") for n in n_raw)
        if any(b <= a for a, b in zip(n_values, n_values[1:])):
            raise SpecError("simulation.n_values must be strictly increasing")
        bins = _require_mapping(s["bins"], "simulation.bins")
        _check_fields(bins, "simulation.bins", required=["lower", "upper", "count"])
        bin_lower = _as_vector(bins["lower"], dim, "simulation.bins.lower")
        bin_upper = _as_vector(bins["upper"], dim, "simulation.bins.upper")
        if not (bin_lower < bin_upper).all():
            raise SpecError("simulation.bins must have lower < upper on every axis")
        bin_count = _as_int(bins["count"], "simulation.bins.count")
        if bin_count < 2:
            raise SpecError("simulation.bins.count must be at least 2")
        bin_edges = [np.linspace(lo, hi, bin_count + 1) for lo, hi in zip(bin_lower, bin_upper)]
        initial = None
        if "initial" in s:
            states = _as_list(s["initial"], "simulation.initial", nonempty=True)
            initial = np.stack([_as_vector(p, dim, f"simulation.initial[{i}]") for i, p in enumerate(states)])
        fields = dict(
            n_values=n_values,
            dt=_as_float(s["dt"], "simulation.dt"),
            burn_in=_as_float(s["burn_in"], "simulation.burn_in"),
            horizon=_as_float(s["horizon"], "simulation.horizon"),
            seed=_as_int(s["seed"], "simulation.seed"),
            initial=initial,
            replicas=_as_int(s.get("replicas", 1), "simulation.replicas"),
            stride=_as_int(s.get("stride", 1), "simulation.stride"),
        )
        try:
            simulation = SimConfig(**fields)
        except ValueError as exc:
            raise SpecError(f"invalid simulation: {exc}") from None

    linear = None
    if "linear" in top:
        ls = _require_mapping(top["linear"], "linear")
        _check_fields(
            ls,
            "linear",
            required=["attractor_index", "displacements", "horizon", "samples"],
        )
        rows = _as_list(ls["displacements"], "linear.displacements", nonempty=True)
        displacements = np.stack(
            [_as_vector(r, dim, f"linear.displacements[{i}]") for i, r in enumerate(rows)]
        )
        samples = _as_int(ls["samples"], "linear.samples")
        if samples < 2:
            raise SpecError("linear.samples must be at least 2")
        linear = LinearSpec(
            attractor_index=_as_int(ls["attractor_index"], "linear.attractor_index"),
            displacements=displacements,
            horizon=_as_positive(ls["horizon"], "linear.horizon"),
            samples=samples,
        )

    return ProblemSpec(
        dimension=dim,
        drift_kind=kind,
        drift=drift,
        diffusion=diffusion,
        jumps=tuple(jumps),
        box=box,
        failure_quota=failure_quota,
        solver=solver,
        evaluation_points=evaluation,
        simulation=simulation,
        bin_edges=bin_edges,
        linear=linear,
    )


# ---------------------------------------------------------------------------
# Deterministic serialization


def _plain(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json(obj) -> str:
    """JSON text with sorted keys, shortest round-trip floats and an LF newline."""
    return json.dumps(obj, sort_keys=True, default=_plain) + "\n"


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    """CSV with LF line endings; floats in shortest round-trip form."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Runners


def _equilibrium_dict(eq: Equilibrium) -> dict:
    return {
        "position": eq.position,
        "classification": eq.classification,
        "jacobian": eq.jacobian,
        "eigenvalues_real": eq.eigenvalues.real,
        "eigenvalues_imag": eq.eigenvalues.imag,
    }


def _provenance(spec: ProblemSpec) -> dict:
    return {
        "package_version": __version__,
        "drift_kind": spec.drift_kind,
        "dimension": spec.dimension,
        "t_sweep": list(spec.solver.t_sweep),
        "path_points": spec.solver.path_points,
        "max_iterations": MAX_ITERATIONS,
        "tolerances": {
            "root": ROOT_TOL,
            "equilibrium": EQUILIBRIUM_TOL,
            "balance": BALANCE_TOL,
            "margin": CLASSIFICATION_MARGIN,
            "failure_quota": spec.failure_quota,
        },
    }


def _find_attractors(spec: ProblemSpec, model: LocalModel) -> tuple[list[Equilibrium], list[Equilibrium]]:
    equilibria = find_equilibria(model.drift, spec.box)
    if not equilibria:
        raise SolverError("no equilibria found in the search box")
    try:
        stable = stable_attractors(equilibria)
    except ValueError as exc:
        raise SolverError(str(exc)) from None
    return equilibria, stable


def run_attractors(spec: ProblemSpec) -> dict:
    """Equilibrium search only; the report carries every equilibrium found."""
    model = spec.build_model()
    equilibria, stable = _find_attractors(spec, model)
    labels = [f"a{i}" for i in range(len(stable))]
    return {
        "equilibria": [_equilibrium_dict(e) for e in equilibria],
        "attractors": [
            {"label": lab, **_equilibrium_dict(eq)} for lab, eq in zip(labels, stable)
        ],
        "provenance": _provenance(spec),
    }


@dataclass(frozen=True, eq=False)
class RateReport:
    """Everything `rates` computes, ready for serialization."""

    labels: tuple[str, ...]
    attractors: list[Equilibrium]
    equilibria: list[Equilibrium]
    costs_raw: CostMatrix
    costs_closed: CostMatrix
    rates: StationaryRates
    balance_residual: float
    evaluation_points: np.ndarray
    evaluation_costs: np.ndarray
    evaluation_rates: np.ndarray
    unconverged: int
    total_runs: int
    provenance: dict

    def to_dict(self) -> dict:
        return {
            "attractors": [
                {
                    "label": lab,
                    "rate": float(self.rates.rates[i]),
                    **_equilibrium_dict(eq),
                }
                for i, (lab, eq) in enumerate(zip(self.labels, self.attractors))
            ],
            "equilibria": [_equilibrium_dict(e) for e in self.equilibria],
            "cost_matrix": {
                "labels": list(self.labels),
                "raw": self.costs_raw.entries,
                "closed": self.costs_closed.entries,
            },
            "balance_residual_max": self.balance_residual,
            "evaluation": [
                {
                    "point": self.evaluation_points[i],
                    "rate": float(self.evaluation_rates[i]),
                    "costs_from_attractors": self.evaluation_costs[i],
                }
                for i in range(self.evaluation_points.shape[0])
            ],
            "solver_runs": {"total": self.total_runs, "unconverged": self.unconverged},
            "provenance": self.provenance,
        }


def _escape_cost_method(model: LocalModel) -> str:
    """Name of the method :func:`quasipotential` uses for ``model``."""
    if model.dim == 1:
        return "hamiltonian_quadrature"
    if isinstance(model.drift, LinearDrift) and not model.jump_matrices.any():
        return "convex_dual"
    return "minimum_action"


def quasipotential(
    model: LocalModel,
    attractor: np.ndarray,
    target: np.ndarray,
    *,
    equilibria: Sequence[Equilibrium],
    num_segments: int,
) -> ActionValue:
    """One escape-cost solve of the pipeline; every solve calls this name.

    The method is :func:`_escape_cost_method` of the model.
    ``hamiltonian_quadrature`` (one dimension) is the exact
    :func:`~quasipot.action.quasipotential_1d`, split at the ``equilibria``.
    ``convex_dual`` (linear drift, constant jump vectors) is the exact
    :func:`~quasipot.action.quasipotential_dual`.  Both ignore
    ``num_segments``.  ``minimum_action`` minimizes the geometric action over
    paths of ``num_segments`` chords with :func:`quasipot.action.quasipotential`.
    """
    method = _escape_cost_method(model)
    if method == "hamiltonian_quadrature":
        return quasipotential_1d(
            model,
            attractor,
            target,
            breakpoints=[eq.position[0] for eq in equilibria],
        )
    if method == "convex_dual":
        return action.quasipotential_dual(model, attractor, target)
    return action.quasipotential(model, attractor, target, num_segments=num_segments)


def _escape_costs(
    spec: ProblemSpec,
    model: LocalModel,
    equilibria: list[Equilibrium],
    sources: Sequence[np.ndarray],
    targets: np.ndarray,
    tasks: list[tuple[int, int]],
) -> tuple[np.ndarray, int]:
    """Quasipotentials from ``sources[i]`` to ``targets[k]`` for every task ``(i, k)``.

    Every solve of the pipeline runs here, in task order, through the
    module-level :func:`quasipotential` looked up at call time, with the
    ``equilibria`` as the 1-D quadrature's breakpoints.  Returns
    ``costs[k, i]`` (zero where no task asked) and the number of unconverged
    solves; raises :class:`SolverError` when that number exceeds the spec's
    failure quota as a fraction of all tasks, and :class:`SpecError` when the
    covariance is degenerate, where the action is not defined.
    """
    try:
        results = [
            quasipotential(
                model,
                sources[i],
                targets[k],
                equilibria=equilibria,
                num_segments=spec.solver.path_points,
            )
            for i, k in tasks
        ]
    except DegenerateCovariance as exc:
        raise SpecError(str(exc)) from None
    unconverged = sum(not res.converged for res in results)
    if tasks and unconverged / len(tasks) > spec.failure_quota:
        raise SolverError(
            f"{unconverged} of {len(tasks)} escape-cost solves failed to "
            f"converge, above the failure quota {spec.failure_quota:g}"
        )
    costs = np.zeros((targets.shape[0], len(sources)))
    for (i, k), res in zip(tasks, results):
        costs[k, i] = res.value
    return costs, unconverged


def _check_confining(spec: ProblemSpec) -> None:
    """Raise :class:`SpecError` for a 1-D polynomial drift outside the stationary theory.

    The stationary rates need an invariant probability measure, and every
    attractor that carries it.  A polynomial drift confines the process only
    with odd degree and a negative leading coefficient, and every real root
    that :func:`find_equilibria` would classify stable (``b' < 0`` beyond the
    classification margin) must lie in the search box.  The drift alone is
    checked, whatever the jumps.
    """
    if not isinstance(spec.drift, PolynomialDrift):
        return
    coeffs = np.polynomial.polynomial.polytrim(spec.drift.coefficients)
    degree, lead = coeffs.size - 1, coeffs[-1]
    if degree % 2 == 0 or lead >= 0:
        raise SpecError(
            f"the drift has degree {degree} and leading coefficient {lead:g}; it has no "
            "invariant measure unless its degree is odd and its leading coefficient negative"
        )
    roots = np.polynomial.polynomial.polyroots(coeffs)
    real = roots.real[roots.imag == 0][:, None]
    stable = np.array(
        [_classify(np.linalg.eigvals(jac)) == "stable" for jac in spec.drift.jacobian(real)],
        dtype=bool,
    )
    outside = real[stable & ~spec.box.contains(real), 0]
    if outside.size:
        raise SpecError(
            f"the drift has a stable equilibrium at {outside[0]:.6g}, outside the search box "
            f"[{spec.box.lower[0]:g}, {spec.box.upper[0]:g}]; the stationary rates need every "
            "attractor inside it"
        )


def _solve_rates(
    spec: ProblemSpec, extra_points: np.ndarray
) -> tuple[RateReport, LocalModel, np.ndarray]:
    """The `rates` report, its model, and the rate function at ``extra_points``.

    All escape costs, between attractors and from every attractor to the
    evaluation points and then to ``extra_points``, are one batch of solves
    that shares the failure quota.  A 1-D polynomial drift must pass
    :func:`_check_confining` first.
    """
    _check_confining(spec)
    model = spec.build_model()
    equilibria, stable = _find_attractors(spec, model)
    n_att = len(stable)
    if n_att > MAX_BALANCE_SIZE:
        raise SpecError(
            f"found {n_att} stable attractors; rates are supported for at most "
            f"{MAX_BALANCE_SIZE}, the largest set the balance check accepts"
        )
    labels = tuple(f"a{i}" for i in range(n_att))
    positions = [eq.position for eq in stable]
    n_eval = spec.evaluation_points.shape[0]
    targets = np.concatenate([np.stack(positions), spec.evaluation_points, extra_points])
    tasks = [(i, j) for i in range(n_att) for j in range(n_att) if i != j]
    tasks += [(i, k) for i in range(n_att) for k in range(n_att, n_att + n_eval)]
    tasks += [(i, k) for i in range(n_att) for k in range(n_att + n_eval, targets.shape[0])]
    costs, unconverged = _escape_costs(spec, model, equilibria, positions, targets, tasks)

    costs_raw = CostMatrix(labels, costs[:n_att].T)
    costs_closed = shortest_path_closure(costs_raw)
    try:
        rates = stationary_rates(costs_closed)
        residual = max_balance_residual(rates, costs_closed)
    except ValueError as exc:
        raise SolverError(str(exc)) from None
    if residual > BALANCE_TOL:
        raise BalanceError(
            f"max flux balance residual {residual:.3g} exceeds tolerance {BALANCE_TOL:g}"
        )

    point_costs = costs[n_att:]
    point_rates = np.array([evaluate_rate(rates, row) for row in point_costs])
    report = RateReport(
        labels=labels,
        attractors=stable,
        equilibria=equilibria,
        costs_raw=costs_raw,
        costs_closed=costs_closed,
        rates=rates,
        balance_residual=float(residual),
        evaluation_points=spec.evaluation_points,
        evaluation_costs=point_costs[:n_eval],
        evaluation_rates=point_rates[:n_eval],
        unconverged=unconverged,
        total_runs=len(tasks),
        provenance={
            **_provenance(spec),
            "escape_cost_method": _escape_cost_method(model),
        },
    )
    return report, model, point_rates[n_eval:]


def run_rates(spec: ProblemSpec) -> RateReport:
    """Stationary rates and the rate function at the evaluation points.

    Raises :class:`SpecError` when more than ``MAX_BALANCE_SIZE`` stable
    attractors are found, :class:`SolverError` when attractor search fails
    or too many escape-cost solves do not converge, and
    :class:`BalanceError` when the computed rates do not satisfy flux
    balance within ``BALANCE_TOL``.
    """
    return _solve_rates(spec, np.zeros((0, spec.dimension)))[0]


def rates_csv_rows(report: RateReport) -> tuple[list[str], list[list[object]]]:
    d = report.evaluation_points.shape[1]
    header = [f"x{i}" for i in range(d)] + ["rate"]
    rows = []
    for k in range(report.evaluation_points.shape[0]):
        rows.append(
            [float(v) for v in report.evaluation_points[k]]
            + [float(report.evaluation_rates[k])]
        )
    return header, rows


def run_validate(
    spec: ProblemSpec, seed: int | None = None
) -> tuple[RateReport, list[ValidationReport], int]:
    """Predictions from :func:`run_rates` against a simulation ladder.

    ``seed`` overrides ``simulation.seed`` and passes the same check, before
    any solve; the seed the simulation used is returned last.  The
    bin-center escape costs join the batch of solves of the `rates` report,
    so they count toward its failure quota and ``solver_runs``.  Replicas
    start from the spec's ``simulation.initial`` rows or else from the
    first ``replicas`` stable attractors, in turn (:class:`SimConfig`).
    One :func:`simulate` call runs the whole ``simulation.n_values``
    ladder; each rung's sample cloud gives an empirical rate estimate on
    the spec bins, compared against the predicted rate at the populated bin
    centers.
    """
    if spec.simulation is None:
        raise SpecError("validate requires a 'simulation' section in the problem spec")
    config = spec.simulation
    if seed is not None:
        try:
            config = replace(config, seed=seed)
        except ValueError as exc:
            raise SpecError(str(exc)) from None
    report, model, predicted = _solve_rates(spec, bin_centers(spec.bin_edges))
    if config.initial is None:
        attractors = np.stack([eq.position for eq in report.attractors])
        config = replace(config, initial=attractors[: config.replicas])
    try:
        ladder = simulate(model, config)
    except SimulationBlowup as exc:
        raise SolverError(f"simulation at n={exc.n} failed: {exc}") from exc
    results = []
    for n, samples in zip(config.n_values, ladder):
        try:
            emp = empirical_rate(samples, spec.bin_edges, n)
        except ValueError as exc:
            # too few samples is a sizing problem in the simulation section
            raise SpecError(str(exc)) from None
        results.append(validation_report(predicted, emp))
    return report, results, config.seed


def validation_dict(report: RateReport, results: list[ValidationReport], seed: int) -> dict:
    sups = [r.sup_error for r in results]
    out = report.to_dict()
    out["validation"] = {
        "seed": seed,
        "runs": [
            {
                "n": r.n,
                "sup_error": r.sup_error,
                "bins_compared": int(r.predicted.shape[0]),
                "censored_bins": r.censored_bins,
                "degenerate": r.empirical.degenerate,
            }
            for r in results
        ],
        "sup_errors": sups,
        "monotone_trend": all(b <= a for a, b in zip(sups, sups[1:])),
    }
    return out


def empirical_csv_rows(results: list[ValidationReport]) -> tuple[list[str], list[list[object]]]:
    d = results[0].empirical.centers.shape[1]
    header = ["n"] + [f"c{i}" for i in range(d)] + ["count", "rate"]
    rows: list[list[object]] = []
    for res in results:
        emp = res.empirical
        for k in range(emp.centers.shape[0]):
            rows.append(
                [res.n]
                + [float(v) for v in emp.centers[k]]
                + [int(emp.counts[k]), float(emp.rates[k])]
            )
    return header, rows


def run_linear(spec: ProblemSpec, attractor_index: int | None = None) -> dict:
    """Closed-form Gramian quasipotential report at one stable attractor.

    The chosen equilibrium must be classified stable; marginal ones are
    refused because the Gramian does not exist at a neutral linearization.
    A degenerate covariance at the attractor is a :class:`SpecError`, and so
    is a horizon past the overflow-safe maximum for the drift found there;
    that message names the maximum.
    """
    if spec.linear is None:
        raise SpecError("linear requires a 'linear' section in the problem spec")
    ls = spec.linear
    idx = ls.attractor_index if attractor_index is None else attractor_index
    model = spec.build_model()
    equilibria, _stable = _find_attractors(spec, model)
    if not (0 <= idx < len(equilibria)):
        raise SpecError(
            f"attractor index {idx} out of range; found {len(equilibria)} equilibria"
        )
    eq = equilibria[idx]
    if eq.classification != "stable":
        raise SolverError(
            f"equilibrium {idx} is {eq.classification}; the Gramian quasipotential "
            "needs a strictly stable linearization"
        )
    cov = model.local_covariance(eq.position)
    try:
        lin = LinearModel(eq.jacobian, cov)
    except DegenerateCovariance as exc:
        raise SpecError(str(exc)) from None
    except ValueError as exc:
        raise SolverError(str(exc)) from None
    gram = lyapunov_gramian(lin)
    gram_t = finite_horizon_gramian(lin, ls.horizon)
    entries = []
    paths = []
    for r_idx in range(ls.displacements.shape[0]):
        r = ls.displacements[r_idx]
        rate = quadratic_rate(lin, r)
        try:
            path = finite_horizon_path(lin, r, ls.horizon, ls.samples)
        except ValueError as exc:
            raise SpecError(f"linear.horizon: {exc}") from None
        t_grid = path.times
        limit = escape_profile_limit(lin, r, t_grid)
        entries.append(
            {
                "displacement": r,
                "rate": rate,
                "finite_horizon_rate": 0.5 * float(r @ np.linalg.solve(gram_t, r)),
                "limit_profile_backward_times": t_grid,
                "limit_profile": limit + eq.position,
            }
        )
        paths.append(path)
    report = {
        "attractor": {"index": idx, **_equilibrium_dict(eq)},
        "drift_matrix": eq.jacobian,
        "covariance": cov,
        "gramian": gram,
        "finite_horizon_gramian": gram_t,
        "horizon": ls.horizon,
        "displacements": entries,
        "provenance": _provenance(spec),
    }
    return {"report": report, "paths": paths, "origin": eq.position}


def linear_paths_csv_rows(result: dict) -> tuple[list[str], list[list[object]]]:
    paths = result["paths"]
    origin = result["origin"]
    d = origin.shape[0]
    header = ["r_index", "t"] + [f"x{i}" for i in range(d)]
    rows = [
        [r_idx, t, *p]
        for r_idx, path in enumerate(paths)
        for t, p in zip(path.times.tolist(), (path.points + origin).tolist())
    ]
    return header, rows
