"""Reference quasipotentials computed without the package's solver.

Three independent routes, each exact for the models the benchmark runs:

- :func:`quadrature_cost`: 1-D Hamiltonian quadrature, with or without jump
  channels.  ``V(a, x) = int_a^x max(0, +-p*(y)) dy`` where ``p*(y)`` is the
  nonzero root of ``H(y, p) = p b(y) + sigma^2 p^2 / 2
  + sum_j nu_j (e^{p f_j} - 1 - p f_j)``.
- :func:`gradient_rate`: the closed form ``2 (U(x) - min U) / sigma^2`` of
  a 1-D gradient drift ``b = -U'``.
- :func:`gramian_rate`: ``r^T S^{-1} r / 2`` with ``A S + S A^T + C = 0``
  for linear drift ``A`` and covariance ``C``.

:func:`rotated_separable_cost` combines quadratures for a rotated product of
1-D models.  Nothing here imports :mod:`quasipot`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.optimize


def _expm1_minus_z_over_z(z: np.ndarray) -> np.ndarray:
    """``(e^z - 1 - z) / z``, continuous through ``z = 0``."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1e-4
    safe = np.where(small, 1.0, z)
    series = z / 2.0 + z * z / 6.0 + z**3 / 24.0
    return np.where(small, series, (np.expm1(safe) - safe) / safe)


def hamiltonian_root(b: float, sigma2: float, rates: Sequence[float] = (), sizes: Sequence[float] = ()) -> float:
    """Nonzero root of ``H(p)``, or 0 where ``b = 0``.

    ``H`` is convex with ``H(0) = 0`` and ``H'(0) = b``, so ``H(p) / p`` is
    increasing and crosses zero once, on the side of ``-b``.
    """
    if b == 0.0:
        return 0.0
    nu = np.asarray(rates, dtype=float)
    f = np.asarray(sizes, dtype=float)

    def slope(p: float) -> float:
        return b + 0.5 * sigma2 * p + float(np.sum(nu * f * _expm1_minus_z_over_z(p * f)))

    direction = -math.copysign(1.0, b)
    reach = 1.0
    for _ in range(200):
        if direction * slope(direction * reach) > 0.0:
            break
        reach *= 2.0
    else:
        raise ValueError(f"no root of H bracketed for b={b}")
    lo, hi = sorted((0.0, direction * reach))
    return scipy.optimize.brentq(slope, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)


@dataclass(frozen=True)
class Model1D:
    """A 1-D jump diffusion: drift, noise variance and ``(rate, size)`` channels.

    ``breakpoints`` lists the zeros of the drift, where the quadrature
    integrand has kinks.
    """

    drift: Callable[[float], float]
    sigma2: float
    jumps: tuple[tuple[float, float], ...] = ()
    breakpoints: tuple[float, ...] = ()

    def momentum(self, y: float) -> float:
        rates = [nu for nu, _ in self.jumps]
        sizes = [f for _, f in self.jumps]
        return hamiltonian_root(float(self.drift(y)), self.sigma2, rates, sizes)


def quadrature_cost(model: Model1D, a: float, x: float) -> float:
    """Quasipotential ``V(a, x)`` of a 1-D model by Hamiltonian quadrature."""
    if x == a:
        return 0.0
    sign = 1.0 if x > a else -1.0
    lo, hi = sorted((a, x))
    inside = sorted(p for p in model.breakpoints if lo < p < hi)
    value, _ = scipy.integrate.quad(
        lambda y: max(0.0, sign * model.momentum(y)),
        lo,
        hi,
        points=inside or None,
        limit=200,
        epsabs=1e-13,
        epsrel=1e-12,
    )
    return value


def polynomial_critical_points(potential: Sequence[float]) -> np.ndarray:
    """Real zeros of ``U'`` for ``U`` given by ascending coefficients."""
    dcoeffs = np.polynomial.polynomial.polyder(np.asarray(potential, dtype=float))
    roots = np.polynomial.polynomial.polyroots(dcoeffs)
    return np.sort(roots[np.abs(roots.imag) < 1e-12].real)


def polynomial_minima(potential: Sequence[float]) -> np.ndarray:
    """Local minima of ``U``: the stable equilibria of ``b = -U'``."""
    crit = polynomial_critical_points(potential)
    d2 = np.polynomial.polynomial.polyder(np.asarray(potential, dtype=float), 2)
    return crit[np.polynomial.polynomial.polyval(crit, d2) > 0]


def gradient_model(potential: Sequence[float], sigma2: float = 1.0, jumps=()) -> Model1D:
    """1-D model with drift ``-U'`` for ``U`` given by ascending coefficients."""
    dcoeffs = np.polynomial.polynomial.polyder(np.asarray(potential, dtype=float))
    return Model1D(
        drift=lambda y: -float(np.polynomial.polynomial.polyval(y, dcoeffs)),
        sigma2=sigma2,
        jumps=tuple(jumps),
        breakpoints=tuple(polynomial_critical_points(potential)),
    )


def gradient_rate(potential: Sequence[float], x: float, sigma2: float = 1.0) -> float:
    """Closed-form rate function ``2 (U(x) - min U) / sigma^2``."""
    coeffs = np.asarray(potential, dtype=float)
    floor = float(np.polynomial.polynomial.polyval(polynomial_critical_points(coeffs), coeffs).min())
    return 2.0 * (float(np.polynomial.polynomial.polyval(x, coeffs)) - floor) / sigma2


def gramian_rate(drift_matrix: np.ndarray, covariance: np.ndarray, displacement: np.ndarray) -> float:
    """Stationary Gaussian rate ``r^T S^{-1} r / 2`` of a linear model."""
    gram = scipy.linalg.solve_continuous_lyapunov(np.asarray(drift_matrix, float), -np.asarray(covariance, float))
    r = np.asarray(displacement, dtype=float)
    return 0.5 * float(r @ np.linalg.solve(gram, r))


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class RotatedSeparable:
    """Rotated product of 1-D OU processes with one constant jump per axis.

    In coordinates ``y = Q^T x`` axis ``i`` has drift ``-k_i y_i``, noise
    ``s_i`` and jumps of size ``c_i`` at rate ``nu_i``.  In ``x``: drift
    ``Q diag(-k) Q^T``, diffusion ``Q diag(s)``, jump vectors ``c_i Q e_i``.
    """

    theta: float
    k: tuple[float, ...]
    s: tuple[float, ...]
    c: tuple[float, ...]
    nu: tuple[float, ...]

    @property
    def q(self) -> np.ndarray:
        return rotation(self.theta)

    def drift_matrix(self) -> np.ndarray:
        return self.q @ np.diag(-np.asarray(self.k)) @ self.q.T

    def diffusion(self) -> np.ndarray:
        return self.q @ np.diag(self.s)

    def jump_vectors(self) -> list[np.ndarray]:
        return [ci * self.q[:, i] for i, ci in enumerate(self.c)]

    def axis_model(self, i: int) -> Model1D:
        ki = self.k[i]
        jumps = ((self.nu[i], self.c[i]),) if self.nu[i] > 0 else ()
        return Model1D(lambda y: -ki * y, self.s[i] ** 2, jumps, (0.0,))


def rotated_separable_cost(model: RotatedSeparable, x: np.ndarray) -> float:
    """``V(0, x) = sum_i V_i((Q^T x)_i)``: the Hamiltonian separates by axis."""
    y = model.q.T @ np.asarray(x, dtype=float)
    return sum(quadrature_cost(model.axis_model(i), 0.0, float(y[i])) for i in range(len(y)))
