"""The benchmark's oracles checked against each other.

Run with ``python3 -m pytest -q perfbench``.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import oracles

SPECS = Path(__file__).resolve().parent.parent / "specs"


def _potential(spec_name: str) -> list[float]:
    spec = json.loads((SPECS / spec_name).read_text())
    assert spec["drift"]["kind"] == "gradient_polynomial"
    return spec["drift"]["coefficients"]


@pytest.mark.parametrize("x", [-1.9, -1.5, -1.0, -0.5, 0.0, 0.3, 0.5, 1.0, 1.5, 2.0])
def test_quadrature_matches_gradient_closed_form_on_double_well(x):
    potential = _potential("double_well.json")
    model = oracles.gradient_model(potential)
    minima = oracles.polynomial_minima(potential)
    assert minima.tolist() == pytest.approx([-1.0, 1.0])
    # equal-depth wells: both stationary rates are 0, so the rate is the
    # cheaper of the two escape costs
    rate = min(oracles.quadrature_cost(model, a, x) for a in minima)
    assert rate == pytest.approx(oracles.gradient_rate(potential, x), abs=1e-12)


def test_quadrature_crosses_the_saddle_at_twice_the_barrier():
    potential = _potential("double_well.json")
    model = oracles.gradient_model(potential)
    # U = -x^2/2 + x^4/4: barrier 1/4 from either well, and descent is free
    assert oracles.quadrature_cost(model, -1.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert oracles.quadrature_cost(model, 1.0, -1.5) == pytest.approx(
        0.5 + oracles.gradient_rate(potential, -1.5), abs=1e-12
    )


@pytest.mark.parametrize("x", [-1.0, -0.5, 0.5, 1.0, 1.7])
def test_quadrature_is_x_squared_on_ou1d(x):
    spec = json.loads((SPECS / "ou1d.json").read_text())
    coeffs = spec["drift"]["coefficients"]
    assert spec["drift"]["kind"] == "polynomial" and coeffs == [0.0, -1.0]
    model = oracles.Model1D(lambda y: float(np.polynomial.polynomial.polyval(y, coeffs)), 1.0, (), (0.0,))
    assert oracles.quadrature_cost(model, 0.0, x) == pytest.approx(x * x, abs=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.6, 2.0])
def test_rotated_separable_sum_equals_gramian_rate_without_jumps(theta):
    model = oracles.RotatedSeparable(theta, k=(1.0, 0.5), s=(1.0, 0.7), c=(0.4, -0.3), nu=(0.0, 0.0))
    cov = model.diffusion() @ model.diffusion().T
    for angle in np.linspace(0.0, 2 * math.pi, 7):
        x = 0.8 * np.array([math.cos(angle), math.sin(angle)])
        want = oracles.gramian_rate(model.drift_matrix(), cov, x)
        assert oracles.rotated_separable_cost(model, x) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("b", [-1.3, -0.2, 0.4, 2.0])
def test_hamiltonian_root_solves_h_with_jumps(b):
    rates, sizes = (0.8, 0.5), (0.4, -0.3)
    p = oracles.hamiltonian_root(b, 0.49, rates, sizes)
    h = p * b + 0.5 * 0.49 * p * p + sum(nu * (math.expm1(p * f) - p * f) for nu, f in zip(rates, sizes))
    assert p * b < 0
    assert abs(h) <= 1e-12 * max(1.0, abs(p))


def test_jumps_lower_the_escape_cost():
    gaussian = oracles.Model1D(lambda y: -y, 1.0, (), (0.0,))
    jumpy = oracles.Model1D(lambda y: -y, 1.0, ((0.8, 0.4),), (0.0,))
    for x in (-1.0, -0.4, 0.4, 1.0):
        assert oracles.quadrature_cost(jumpy, 0.0, x) < oracles.quadrature_cost(gaussian, 0.0, x)
