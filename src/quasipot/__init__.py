"""Large-deviation rate functions of invariant measures of small-noise jump diffusions.

The package is organized around the cost-form (min-plus) calculus of escape
costs between attractors of the zero-noise flow:

- :mod:`quasipot.maxplus`: cost matrices, their min-plus closure, the
  unique balanced stationary rates by min-plus state elimination, the flux
  balance check and rate evaluation on a finite attractor set.
- :mod:`quasipot.models`: jump-diffusion model containers.
- :mod:`quasipot.action`: the path action functional and its minimization,
  giving inter-attractor quasipotentials, their exact one-dimensional
  form by Hamiltonian quadrature, and their exact form for linear drift
  with constant jumps by convex duality.
- :mod:`quasipot.linear`: closed forms for linear drift (Gramian
  quasipotentials, finite-horizon optimal paths, escape profiles).
- :mod:`quasipot.attractors`: equilibrium search and classification.
- :mod:`quasipot.simulate`: direct simulation and empirical rate estimates.
- :mod:`quasipot.pipeline`: end-to-end runs driven by a JSON problem spec.
"""

__version__ = "0.1.0"

from .maxplus import (
    CostMatrix,
    StationaryRates,
    evaluate_rate,
    shortest_path_closure,
    stationary_rates,
)
from .models import JumpAtom, LinearDrift, LocalModel, Path, PolynomialDrift
from .action import (
    ActionValue,
    local_lagrangian,
    minimize_action,
    path_action,
    quasipotential,
    quasipotential_1d,
    quasipotential_dual,
)
from .linear import (
    LinearModel,
    escape_profile_limit,
    finite_horizon_gramian,
    finite_horizon_path,
    lyapunov_gramian,
    quadratic_rate,
)
from .attractors import Equilibrium, SearchBox, find_equilibria, stable_attractors
from .simulate import EmpiricalRate, SimConfig, ValidationReport, empirical_rate, simulate, validation_report

__all__ = [
    "ActionValue",
    "CostMatrix",
    "EmpiricalRate",
    "Equilibrium",
    "JumpAtom",
    "LinearDrift",
    "LinearModel",
    "LocalModel",
    "Path",
    "PolynomialDrift",
    "SearchBox",
    "SimConfig",
    "StationaryRates",
    "ValidationReport",
    "empirical_rate",
    "escape_profile_limit",
    "evaluate_rate",
    "find_equilibria",
    "finite_horizon_gramian",
    "finite_horizon_path",
    "local_lagrangian",
    "lyapunov_gramian",
    "minimize_action",
    "path_action",
    "quadratic_rate",
    "quasipotential",
    "quasipotential_1d",
    "quasipotential_dual",
    "shortest_path_closure",
    "simulate",
    "stable_attractors",
    "stationary_rates",
    "validation_report",
]
