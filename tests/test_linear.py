"""Gramian quasipotentials for linearized dynamics.

Dual routes checked against each other:

- the Kronecker-solve Lyapunov Gramian against a long quadrature of the
  covariance integral,
- the finite-horizon Gramian, from the exact reachability identity
  G_T = G - e^{A T} G e^{A^T T}, against an adaptive quadrature of its
  defining integral,
- the matrix exponential against a plain Taylor series on small matrices,
  and the package's own exponential against scipy's, bit for bit.

Scalar oracle: for dX = -k X dt + s dW the Gramian is s^2 / (2 k) and the
quadratic rate at r is k r^2 / s^2.
"""

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from scipy.linalg import expm

from quasipot.action import path_action
from quasipot.linear import (
    MAX_LYAPUNOV_DIM,
    LinearModel,
    _expm,
    escape_profile_limit,
    finite_horizon_gramian,
    finite_horizon_path,
    lyapunov_gramian,
    quadratic_rate,
)
from quasipot.models import DegenerateCovariance, LinearDrift, LocalModel


def random_stable_model(rng, dim):
    a = rng.normal(size=(dim, dim))
    drift = a - (np.max(np.abs(np.linalg.eigvals(a)).real) + 0.5) * np.eye(dim)
    b = rng.normal(size=(dim, dim))
    cov = b @ b.T + 0.1 * np.eye(dim)
    return LinearModel(drift, cov)


def test_model_validation():
    with pytest.raises(ValueError, match="Hurwitz"):
        LinearModel(np.array([[1.0]]), np.eye(1))
    with pytest.raises(ValueError, match="symmetric"):
        LinearModel(-np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="definite"):
        LinearModel(-np.eye(2), np.zeros((2, 2)))
    model = LinearModel(-2.0 * np.eye(3), np.eye(3))
    assert model.dim == 3
    assert model.decay_rate == pytest.approx(2.0)


def test_covariance_must_be_semidefinite_and_gramian_definite():
    db = np.array([[-1.0, 1.0], [0.0, -1.0]])
    # A negative noise variance on the first axis; the Gramian would still be
    # positive definite (G11 = 1/4 - 0.005), so c itself must be refused.
    with pytest.raises(DegenerateCovariance, match="negative eigenvalue"):
        LinearModel(db, np.diag([-0.01, 1.0]))
    # Noise on the second axis only: the coupling carries it into the first.
    model = LinearModel(db, np.diag([0.0, 1.0]))
    assert np.linalg.eigvalsh(lyapunov_gramian(model)).min() > 0
    # Noise on the first axis only: nothing carries it into the second.
    with pytest.raises(DegenerateCovariance, match="Gramian is degenerate"):
        LinearModel(db, np.diag([1.0, 0.0]))


def test_dimension_cap():
    n = MAX_LYAPUNOV_DIM + 1
    with pytest.raises(ValueError, match="limited"):
        lyapunov_gramian(LinearModel(-np.eye(n), np.eye(n)))


def test_scalar_gramian_and_rate():
    k, s = 2.0, 0.7
    model = LinearModel(np.array([[-k]]), np.array([[s * s]]))
    gram = lyapunov_gramian(model)
    assert gram[0, 0] == pytest.approx(s * s / (2 * k), rel=1e-14)
    r = np.array([0.9])
    assert quadratic_rate(model, r) == pytest.approx(k * 0.81 / s**2, rel=1e-12)


def test_gramian_is_solved_once_and_read_only():
    model = LinearModel(np.array([[-1.0, 1.0], [0.0, -1.0]]), np.eye(2))
    gram = lyapunov_gramian(model)
    assert lyapunov_gramian(model) is gram
    assert not gram.flags.writeable


def test_nonnormal_gramian_known_values():
    model = LinearModel(np.array([[-1.0, 1.0], [0.0, -1.0]]), np.eye(2))
    gram = lyapunov_gramian(model)
    np.testing.assert_allclose(gram, [[0.75, 0.25], [0.25, 0.5]], atol=1e-12)
    assert quadratic_rate(model, np.array([1.0, 0.0])) == pytest.approx(0.8)
    assert quadratic_rate(model, np.array([0.0, 1.0])) == pytest.approx(1.2)


def test_lyapunov_equation_residual():
    rng = np.random.default_rng(11)
    for _ in range(20):
        model = random_stable_model(rng, int(rng.integers(1, 7)))
        gram = lyapunov_gramian(model)
        res = model.drift_matrix @ gram + gram @ model.drift_matrix.T + model.covariance
        assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(model.covariance)
        np.testing.assert_allclose(gram, gram.T, atol=1e-12)


def test_gramian_matches_long_quadrature():
    rng = np.random.default_rng(2)
    for _ in range(5):
        model = random_stable_model(rng, int(rng.integers(1, 5)))
        gram = lyapunov_gramian(model)
        horizon = 40.0 / model.decay_rate
        approx = finite_horizon_gramian(model, horizon)
        np.testing.assert_allclose(approx, gram, atol=1e-8 * np.linalg.norm(gram))


def test_finite_horizon_gramian_reachability_identity():
    rng = np.random.default_rng(9)
    for _ in range(8):
        model = random_stable_model(rng, int(rng.integers(1, 5)))
        gram = lyapunov_gramian(model)

        def integrand(s):
            e = expm(model.drift_matrix * s)
            return e @ model.covariance @ e.T

        for horizon in (1e-6, 1e-3, float(rng.uniform(0.2, 3.0)), 30.0):
            via_quadrature, _err = scipy.integrate.quad_vec(
                integrand, 0.0, horizon, epsabs=0.0, epsrel=1e-12
            )
            # G - e^{AT} G e^{A^T T} cancels to rounding of |G|, which
            # dominates the relative error of short horizons
            atol = 64 * np.finfo(float).eps * np.abs(gram).max()
            np.testing.assert_allclose(
                finite_horizon_gramian(model, horizon), via_quadrature, rtol=1e-12, atol=atol
            )


def test_expm_against_taylor_series():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = rng.normal(size=(3, 3)) * 0.3
        series = np.eye(3)
        term = np.eye(3)
        for k in range(1, 25):
            term = term @ a / k
            series = series + term
        np.testing.assert_allclose(expm(a), series, atol=1e-12)


def test_expm_helper_equals_scipy_bit_for_bit():
    times = np.array([0.0, 0.25, 1.0, 7.5, 40.0])
    scalar = np.multiply.outer(np.concatenate([times, -times[1:]]), np.array([[-1.3]]))
    generic = np.multiply.outer(times, np.array([[-1.0, 0.4], [-0.7, -0.5]]))
    triangular = np.multiply.outer(times, np.array([[-1.0, 1.0], [0.0, -1.0]]))
    for stack in (scalar, generic, triangular):
        assert np.array_equal(_expm(stack), expm(stack))


def test_flow_tables_are_kept_per_grid_and_read_only():
    model = LinearModel(np.array([[-1.0, 1.0], [0.0, -1.0]]), np.eye(2))
    times = np.linspace(0.0, 6.0, 121)
    table = model.flow(times, transpose=True)
    assert model.flow(times.copy(), transpose=True) is table
    assert not table.flags.writeable
    assert model.flow(times) is not table
    # a second displacement on the same grids reads the kept tables and gets
    # the same bits as a model that computes them afresh
    r = np.array([0.8, -0.4])
    finite_horizon_path(model, np.array([1.0, 0.0]), 6.0, 120)
    escape_profile_limit(model, np.array([1.0, 0.0]), times)
    fresh = LinearModel(model.drift_matrix, model.covariance)
    assert np.array_equal(
        finite_horizon_path(model, r, 6.0, 120).points, finite_horizon_path(fresh, r, 6.0, 120).points
    )
    fresh = LinearModel(model.drift_matrix, model.covariance)
    assert np.array_equal(escape_profile_limit(model, r, times), escape_profile_limit(fresh, r, times))


def test_finite_horizon_path_shape_and_endpoints():
    model = LinearModel(np.array([[-1.0, 1.0], [0.0, -1.0]]), np.eye(2))
    r = np.array([1.0, 0.0])
    path = finite_horizon_path(model, r, 6.0, 120)
    assert path.num_segments == 120
    assert path.horizon == 6.0
    np.testing.assert_allclose(path.points[0], 0.0, atol=1e-8)
    np.testing.assert_allclose(path.points[-1], r, atol=1e-9)


def test_finite_horizon_path_action_matches_quadratic_cost():
    # the closed-form minimizer, priced with the generic midpoint action
    # under the matching local model, must reproduce r^T G_T^{-1} r / 2
    model = LinearModel(np.array([[-1.0, 0.3], [0.0, -0.5]]), np.eye(2))
    r = np.array([0.8, -0.4])
    horizon = 4.0
    path = finite_horizon_path(model, r, horizon, 600)
    gram_t = finite_horizon_gramian(model, horizon)
    want = 0.5 * r @ np.linalg.solve(gram_t, r)
    local = LocalModel(2, LinearDrift(model.drift_matrix), np.eye(2))
    got = path_action(local, path)
    assert got.converged
    assert got.value == pytest.approx(want, rel=1e-3)


def test_escape_profile_limit_starts_at_displacement():
    model = LinearModel(np.array([[-1.0, 1.0], [0.0, -1.0]]), np.eye(2))
    r = np.array([0.3, 0.7])
    np.testing.assert_allclose(escape_profile_limit(model, r, 0.0), r, atol=1e-14)
    far = escape_profile_limit(model, r, 30.0)
    assert np.linalg.norm(far) < 1e-9


def test_escape_profile_limit_on_an_array_equals_scalar_calls():
    model = LinearModel(np.array([[-1.0, 1.0], [0.0, -1.0]]), np.eye(2))
    r = np.array([0.3, 0.7])
    times = np.linspace(0.0, 8.0, 81)
    rows = escape_profile_limit(model, r, times)
    assert rows.shape == (81, 2)
    want = np.stack([escape_profile_limit(model, r, float(t)) for t in times])
    np.testing.assert_allclose(rows, want, rtol=1e-14, atol=0)


def per_sample_path(model, r, horizon, num_segments):
    """Reference: ``X_s = G_s e^{Db^T (T - s)} G_T^{-1} r`` evaluated one sample at a time."""
    db, gram = model.drift_matrix, lyapunov_gramian(model)

    def gramian_interval(s):
        e = expm(db * s)
        return gram - e @ gram @ e.T

    coeff = np.linalg.solve(gramian_interval(horizon), r)
    times = np.linspace(0.0, horizon, num_segments + 1)
    return np.array([gramian_interval(s) @ expm(db.T * (horizon - s)) @ coeff for s in times])


def test_finite_horizon_path_equals_the_per_sample_loop():
    model = LinearModel(np.array([[-1.0, 1.0], [0.0, -1.0]]), np.eye(2))
    r = np.array([0.8, -0.4])
    path = finite_horizon_path(model, r, 6.0, 120)
    np.testing.assert_allclose(path.points, per_sample_path(model, r, 6.0, 120), rtol=1e-14, atol=0)


@pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
def test_escape_profile_limit_refuses_a_bad_time_in_an_array(bad):
    model = LinearModel(np.array([[-1.0, 1.0], [0.0, -1.0]]), np.eye(2))
    with pytest.raises(ValueError, match="nonnegative and finite"):
        escape_profile_limit(model, np.array([1.0, 0.0]), np.array([0.0, bad, 1.0]))


def profile_sup_distance(model, r, horizon):
    """Criterion 7's measure: the path's largest distance from the profile over the last 5 time units."""
    path = finite_horizon_path(model, r, horizon, 400)
    back = horizon - path.times
    last = back <= 5.0
    return float(np.max(np.abs(path.points[last] - escape_profile_limit(model, r, back[last]))))


def test_escape_profile_solves_its_ode():
    # phi(tau) = G e^{Db^T tau} G^{-1} r solves dphi/dtau = -(Db + c G^{-1}) phi,
    # because Db G + G Db^T + c = 0; G here is scipy's Lyapunov solution.
    db, c = np.array([[-1.0, 1.0], [0.0, -1.0]]), np.eye(2)
    model = LinearModel(db, c)
    r = np.array([1.0, 0.0])
    gram = scipy.linalg.solve_continuous_lyapunov(db, -c)
    rhs = -(db + c @ np.linalg.inv(gram))
    taus = np.linspace(0.0, 5.0, 51)
    sol = scipy.integrate.solve_ivp(
        lambda _t, y: rhs @ y, (0.0, 5.0), r, t_eval=taus, method="DOP853", rtol=1e-12, atol=1e-14
    )
    assert sol.success
    np.testing.assert_allclose(escape_profile_limit(model, r, taus), sol.y.T, rtol=0, atol=1e-8)


def test_profile_distance_is_visible_at_moderate_horizons():
    # At horizon 40 the distance rounds to 0; at 8 and 12 it
    # is positive, shrinks as the horizon grows, and is already small.
    model = LinearModel(np.array([[-1.0, 1.0], [0.0, -1.0]]), np.eye(2))
    r = np.array([1.0, 0.0])
    short, longer = profile_sup_distance(model, r, 8.0), profile_sup_distance(model, r, 12.0)
    assert 0.0 < longer < short <= 1e-3


def test_horizon_overflow_guard():
    model = LinearModel(np.array([[-1.0]]), np.eye(1))
    with pytest.raises(ValueError, match="overflow-safe"):
        finite_horizon_path(model, np.array([1.0]), 1e4, 10)


def test_path_argument_validation():
    model = LinearModel(-np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        finite_horizon_path(model, np.array([1.0]), 1.0, 10)  # wrong dim
    with pytest.raises(ValueError):
        finite_horizon_path(model, np.array([1.0, 0.0]), -2.0, 10)
    with pytest.raises(ValueError):
        finite_horizon_path(model, np.array([1.0, 0.0]), 1.0, 1)
