"""Running cost, path action, and the variational escape cost.

Frozen oracles used here:

- Pure Gaussian case: L(y, v) = (v - b)^T (sigma sigma^T)^{-1} (v - b) / 2
  in closed form.
- One jump channel with w = 0.7, c = 0.25, nu = 2, f = 0.4: a dense grid
  over the scalar dual variable puts the supremum at 0.39353323285 (grid
  resolution 5e-6 brackets it to ~2e-13); the damped Newton solve must
  reproduce it.
- Straight path x(t) = t on [0, 1] under b = -x, sigma = 1: the exact
  action is 7/6, and the midpoint rule converges to it at second order.
- Symmetric double well b = x - x^3: the escape cost from a well to the
  saddle is 2 * (barrier height) = 1/2 exactly (time-reversed descent
  path), attained in the long-horizon limit.
- OU b = -y, sigma = 1 with one jump channel of size 0.4 at rate 0.8: the
  escape cost from 0 to 0.8 is 0.55864329896102.  Two independent
  quadratures of the Hamiltonian's nonzero root agree on it to 1e-15:
  brentq roots under adaptive ``quad``, and 200-step vectorized bisection
  under composite Simpson on 200001 nodes.
- Linear drift with constant jumps: without jumps the escape cost is the
  Gramian rate r^T G^{-1} r / 2; a rotated product of 1-D OU processes with
  one jump channel per axis separates into a sum of 1-D costs, each a
  quadrature of the axis Hamiltonian's nonzero root written here, and so
  does a diagonal drift driven by jumps alone; at a fixed horizon the cost
  is ``conftest.finite_horizon_dual``.  The flow quadrature's channels for
  unit jumps e_1, e_2 integrate to the Lyapunov Gramian of (B, I).
"""

import json
import math
import pathlib
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.optimize
from conftest import RotatedAffineJumps, finite_horizon_dual, quasipotential_1d_quad
from hypothesis import given, settings
from hypothesis import strategies as st

from quasipot.action import (
    ActionValue,
    _dual_tables,
    _excess,
    _flow_quadrature,
    local_lagrangian,
    minimize_action,
    path_action,
    quasipotential,
    quasipotential_1d,
    quasipotential_dual,
)
from quasipot.attractors import find_equilibria, stable_attractors
from quasipot.linear import MAX_LYAPUNOV_DIM, solve_lyapunov
from quasipot.models import JumpAtom, LinearDrift, LocalModel, Path, PolynomialDrift
from quasipot.pipeline import parse_problem_spec

JUMP_DUAL_ORACLE = 0.39353323285015607
JUMP_OU_ORACLE = 0.55864329896102
DOUBLE_WELL = [0.0, 0.0, -0.5, 0.0, 0.25]
DECAY = LinearDrift([[-1.0]])
STILL = LinearDrift([[0.0]])


def gaussian_model(dim=1, sigma=None):
    sig = np.eye(dim) if sigma is None else np.asarray(sigma, dtype=float)
    return LocalModel(dim, LinearDrift(-np.eye(dim)), sig)


def test_lagrangian_zero_at_drift_velocity():
    model = gaussian_model(2)
    y = np.array([0.3, -1.2])
    res = local_lagrangian(model, y, -y)
    assert res.value == 0.0
    assert res.converged


def test_lagrangian_gaussian_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(25):
        d = int(rng.integers(1, 5))
        a = rng.normal(size=(d, d))
        sig = a + d * np.eye(d)  # comfortably nonsingular
        model = gaussian_model(d, sig)
        y = rng.normal(size=d)
        v = rng.normal(size=d)
        w = v + y
        exact = 0.5 * w @ np.linalg.solve(sig @ sig.T, w)
        got = local_lagrangian(model, y, v)
        assert got.converged
        assert got.value == pytest.approx(exact, abs=1e-10, rel=1e-10)


def test_lagrangian_jump_dual_matches_grid_oracle():
    model = LocalModel(
        1,
        STILL,
        np.array([[0.5]]),
        (JumpAtom(2.0, [0.4]),),
    )
    res = local_lagrangian(model, np.zeros(1), np.array([0.7]))
    assert res.converged
    assert res.value == pytest.approx(JUMP_DUAL_ORACLE, abs=1e-9)
    # independent route: dense grid over the scalar dual variable
    lam = np.linspace(-5.0, 5.0, 400_001)
    g = lam * 0.7 - 0.5 * 0.25 * lam**2 - 2.0 * (np.expm1(lam * 0.4) - lam * 0.4)
    assert res.value >= g.max() - 1e-9
    assert res.value == pytest.approx(g.max(), abs=1e-6)


def test_lagrangian_requires_nondegenerate_covariance():
    flat = LocalModel(1, STILL, np.array([[0.0]]))
    with pytest.raises(ValueError, match="degenerate"):
        local_lagrangian(flat, np.zeros(1), np.ones(1))


def test_action_value_clamps_tiny_negative():
    res = ActionValue(-1e-13, 3, True, ())
    assert res.value == 0.0
    with pytest.raises(ValueError):
        ActionValue(-1e-6, 3, True, ())


def test_path_action_linear_drift_oracle():
    model = gaussian_model(1)
    exact = 7.0 / 6.0
    errors = []
    for segments in (25, 50, 100):
        t = np.linspace(0.0, 1.0, segments + 1)
        path = Path(1.0, t[:, None])
        res = path_action(model, path)
        assert res.converged
        errors.append(abs(res.value - exact))
    # midpoint rule: quartering the step quarters the error
    assert errors[2] < errors[0] / 8.0
    assert errors[2] < 2e-5


def test_path_action_flags_are_plumbed():
    model = gaussian_model(1)
    path = Path(1.0, np.linspace(0.0, 1.0, 51)[:, None])
    res = path_action(model, path)
    assert res.failed_segments == ()
    assert res.dual_iterations == 0  # no jumps: the Gaussian start is exact


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=60, deadline=None)
def test_lagrangian_convex_in_velocity(seed, v1, v2):
    rng = np.random.default_rng(seed)
    model = LocalModel(
        1,
        DECAY,
        np.array([[float(rng.uniform(0.5, 2.0))]]),
        (JumpAtom(float(rng.uniform(0.1, 2.0)), [float(rng.uniform(-1, 1)) or 0.3]),),
    )
    y = rng.normal(size=1)
    a = local_lagrangian(model, y, np.array([v1])).value
    b = local_lagrangian(model, y, np.array([v2])).value
    mid = local_lagrangian(model, y, np.array([0.5 * (v1 + v2)])).value
    assert mid <= 0.5 * (a + b) + 1e-12


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_extra_jump_channel_never_increases_cost(seed):
    rng = np.random.default_rng(seed)
    sig = np.array([[float(rng.uniform(0.5, 2.0))]])
    base = LocalModel(1, DECAY, sig)
    f = float(rng.uniform(0.05, 1.5)) * (1 if rng.random() < 0.5 else -1)
    atom = JumpAtom(float(rng.uniform(0.1, 3.0)), [f])
    richer = LocalModel(1, DECAY, sig, (atom,))
    y = rng.normal(size=1)
    v = rng.normal(size=1) * 2.0
    lo = richer.local_covariance(y)
    assert np.linalg.det(lo) > 0
    assert (
        local_lagrangian(richer, y, v).value
        <= local_lagrangian(base, y, v).value + 1e-12
    )


GRADIENT_MODELS = {
    "ou-constant-jump": LocalModel(1, DECAY, np.array([[0.8]]), (JumpAtom(0.7, [0.5]),)),
    "cubic-affine-jump": LocalModel(
        1,
        PolynomialDrift([0.0, 1.0, 0.0, -1.0]),
        np.array([[0.8]]),
        (JumpAtom(0.7, [0.5], [[0.3]]),),
    ),
    "nonnormal-2d": LocalModel(
        2,
        LinearDrift([[-1.0, 3.0], [0.0, -2.0]]),
        np.array([[0.6, 0.0], [0.2, 0.5]]),
        (JumpAtom(1.0, [0.3, 0.2], [[0.1, -0.2], [0.05, 0.15]]), JumpAtom(0.6, [-0.1, 0.35])),
    ),
}


@pytest.mark.parametrize("name", list(GRADIENT_MODELS))
def test_gradient_matches_finite_differences(name):
    from quasipot.action import _value_and_gradient

    model = GRADIENT_MODELS[name]
    d = model.dim
    rng = np.random.default_rng(3)
    pts = np.cumsum(rng.normal(scale=0.2, size=(9, d)), axis=0)
    dt = 0.25
    val, grad = _value_and_gradient(model, pts, dt)
    for k in range(1, 8):
        for i in range(d):
            step = np.zeros_like(pts)
            step[k, i] = 1e-6
            up, _ = _value_and_gradient(model, pts + step, dt)
            dn, _ = _value_and_gradient(model, pts - step, dt)
            fd = (up - dn) / 2e-6
            assert grad[k, i] == pytest.approx(fd, abs=5e-7, rel=5e-5)


def test_minimize_action_straight_line_is_optimal_for_free_motion():
    # zero drift: cheapest way between points at fixed horizon is constant
    # velocity, costing |x1 - x0|^2 / (2 T)
    model = LocalModel(1, STILL, np.eye(1))
    path, res = minimize_action(model, [0.0], [2.0], horizon=4.0, num_segments=64)
    assert res.converged
    assert res.value == pytest.approx(4.0 / 8.0, rel=1e-6)
    np.testing.assert_allclose(path.points[:, 0], np.linspace(0, 2, 65), atol=1e-4)


def test_minimize_action_ou_quadratic():
    model = gaussian_model(1)
    for r in (0.5, 1.0):
        best = np.inf
        for horizon in (2.0, 5.0, 10.0):
            _, res = minimize_action(model, [0.0], [r], horizon=horizon, num_segments=150)
            best = min(best, res.value)
        assert best == pytest.approx(r * r, rel=0.02)


def test_minimize_action_rejects_bad_arguments():
    model = gaussian_model(1)
    with pytest.raises(ValueError):
        minimize_action(model, [0.0], [1.0], horizon=-1.0, num_segments=16)
    with pytest.raises(ValueError):
        minimize_action(model, [0.0], [1.0], horizon=1.0, num_segments=2)
    with pytest.raises(ValueError):
        minimize_action(model, [0.0, 0.0], [1.0], horizon=1.0, num_segments=16)
    warm = Path(1.0, np.linspace(0.0, 1.0, 17)[:, None])
    for horizon, segments in ((2.0, 16), (1.0, 32)):
        with pytest.raises(ValueError, match="warm start"):
            minimize_action(model, [0.0], [1.0], horizon=horizon, num_segments=segments, init=warm)


def test_minimize_action_warm_start_only_improves():
    model = gaussian_model(1)
    cold_path, cold = minimize_action(model, [0.0], [1.0], horizon=5.0, num_segments=80)
    _, warm = minimize_action(
        model, [0.0], [1.0], horizon=5.0, num_segments=80, init=cold_path
    )
    assert warm.value <= cold.value + 1e-12


ESCAPE_SOLVERS = pytest.mark.parametrize(
    "solve",
    [quasipotential, quasipotential_1d, quasipotential_dual],
    ids=["quasipotential", "quasipotential_1d", "quasipotential_dual"],
)


@ESCAPE_SOLVERS
def test_quasipotential_requires_equilibrium_start(solve):
    with pytest.raises(ValueError, match="equilibrium"):
        solve(gaussian_model(1), [0.5], [1.0])


@ESCAPE_SOLVERS
def test_quasipotential_rejects_bad_shapes(solve):
    with pytest.raises(ValueError, match="vectors of dimension 1"):
        solve(gaussian_model(1), [0.0, 0.0], [1.0])
    with pytest.raises(ValueError, match="vectors of dimension 1"):
        solve(gaussian_model(1), [0.0], 1.0)


def test_quasipotential_at_the_attractor_is_zero():
    model = gaussian_model(1)
    res = quasipotential(model, [0.0], [0.0], num_segments=16)
    assert res.value <= 1e-8


def test_quasipotential_double_well_barrier():
    model = LocalModel(1, PolynomialDrift([0.0, 1.0, 0.0, -1.0]), np.eye(1))
    res = quasipotential(model, [-1.0], [0.0], num_segments=200)
    assert res.converged
    # exact long-horizon limit is 2 * (U(0) - U(-1)) = 1/2
    assert res.value == pytest.approx(0.5, abs=0.01)
    # beyond the saddle the descent is free: same cost to the far well
    res2 = quasipotential(model, [-1.0], [1.0], num_segments=200)
    assert res2.value == pytest.approx(res.value, rel=0.05)


# -- exact one-dimensional escape costs --------------------------------------


def double_well_model():
    drift = PolynomialDrift(-np.polynomial.polynomial.polyder(DOUBLE_WELL))
    return LocalModel(1, drift, np.eye(1))


def jump_ou_model(sigma=1.0, size=0.4):
    atom = JumpAtom(0.8, [size])
    return LocalModel(1, DECAY, np.array([[sigma]]), (atom,))


@pytest.mark.parametrize("x", [-1.3, 0.5, 2.0])
def test_quasipotential_1d_ou_closed_form(x):
    res = quasipotential_1d(gaussian_model(1), [0.0], [x])
    assert res.converged
    assert res.value == pytest.approx(x * x, abs=1e-10)
    # a 1 x 2 diffusion matrix enters through c = sum of squares
    wide = gaussian_model(1, [[1.0, 0.5]])
    assert quasipotential_1d(wide, [0.0], [x]).value == pytest.approx(x * x / 1.25, abs=1e-10)


@pytest.mark.parametrize("breakpoints", [(), (-1.0, 0.0, 1.0)])
def test_quasipotential_1d_double_well_exact(breakpoints):
    def potential(x):
        return np.polynomial.polynomial.polyval(x, DOUBLE_WELL)

    model = double_well_model()
    to_saddle = quasipotential_1d(model, [-1.0], [0.0], breakpoints=breakpoints)
    assert to_saddle.converged
    assert to_saddle.value == pytest.approx(0.5, abs=1e-10)
    # climbs -1 -> 0 and 1 -> 1.5; the descent 0 -> 1 is free
    across = quasipotential_1d(model, [-1.0], [1.5], breakpoints=breakpoints)
    climbs = 2 * (potential(0.0) - potential(-1.0)) + 2 * (potential(1.5) - potential(1.0))
    assert across.converged
    assert across.value == pytest.approx(climbs, abs=1e-10)


def test_quasipotential_1d_at_the_attractor_is_zero():
    res = quasipotential_1d(jump_ou_model(), [0.0], [0.0])
    assert res.value == 0.0
    assert res.converged


def test_quasipotential_1d_rejects_bad_arguments():
    with pytest.raises(ValueError, match="dimension 1"):
        quasipotential_1d(gaussian_model(2), [0.0, 0.0], [1.0, 0.0])


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_quasipotential_1d_extra_jump_channel_never_increases_cost(seed):
    rng = np.random.default_rng(seed)
    sigma = float(rng.uniform(0.5, 2.0))
    size = float(rng.uniform(0.05, 1.5)) * (1 if rng.random() < 0.5 else -1)
    target = [float(rng.uniform(-2.0, 2.0))]
    base = quasipotential_1d(gaussian_model(1, [[sigma]]), [0.0], target)
    richer = quasipotential_1d(jump_ou_model(sigma, size), [0.0], target)
    assert base.converged and richer.converged
    assert richer.value <= base.value + 1e-12


def test_quasipotential_1d_unreachable_target_is_infinite():
    # Without diffusion the jumps (+0.5 at rate 0.8) are the only way left;
    # they hold the state against the drift -y only while |y| < 0.4.
    model = jump_ou_model(sigma=0.0, size=0.5)
    beyond = quasipotential_1d(model, [0.0], [-0.5])
    assert beyond.value == np.inf
    assert beyond.converged
    assert np.isfinite(quasipotential_1d(model, [0.0], [-0.3]).value)
    assert np.isfinite(quasipotential_1d(model, [0.0], [0.5]).value)


def test_momentum_newton_starts_at_the_second_moment_bound():
    # c = 0 and a jump along the motion: near the attractor p* ~ -2b / (nu f^2),
    # which the bound's root meets, while doubling from |p| = 1 took 25 steps
    cost, iterations, converged = _excess(jump_ou_model(sigma=0.0, size=0.5), 1.0, np.array([1e-6]))
    assert converged and np.isfinite(cost).all()
    assert iterations <= 5


def test_quasipotential_1d_jump_oracle():
    res = quasipotential_1d(jump_ou_model(), [0.0], [0.8], breakpoints=(0.0,))
    assert res.converged
    assert res.value == pytest.approx(JUMP_OU_ORACLE, abs=1e-12)


def affine_two_channel_model():
    # double-well drift, a constant channel up and an affine channel down
    atoms = (JumpAtom(0.5, [0.3]), JumpAtom(0.3, [-0.2], [[0.1]]))
    return LocalModel(1, double_well_model().drift, np.eye(1), atoms)


SPECS = pathlib.Path(__file__).resolve().parents[1] / "specs"


@pytest.mark.parametrize("name", ["double_well", "asym_double_well", "ou1d", "double_well_mc"])
def test_quasipotential_1d_is_quad_bit_for_bit_on_the_shipped_specs(name):
    # without jumps the dqk21 panels are QUADPACK's own and every root is -2b/c,
    # so each escape cost the pipeline asks for is quad's over brentq, bit for bit
    spec = parse_problem_spec(json.loads((SPECS / f"{name}.json").read_text()))
    model = spec.build_model()
    equilibria = find_equilibria(model.drift, spec.box)
    breakpoints = [eq.position[0] for eq in equilibria]
    targets = np.union1d(np.linspace(-2.2, 2.2, 400), [spec.box.lower[0], spec.box.upper[0]])
    for attractor in stable_attractors(equilibria):
        for x in targets:
            new = quasipotential_1d(model, attractor.position, [x], breakpoints=breakpoints)
            ref = quasipotential_1d_quad(model, attractor.position, [x], breakpoints=breakpoints)
            assert (new.value, new.converged) == (ref.value, ref.converged), (attractor.position, x)


# (model factory, breakpoints, (attractor, target) pairs)
JUMP_CASES = {
    "jump_ou": (jump_ou_model, (0.0,), [(0.0, 0.8), (0.0, -0.6), (0.0, 1.2), (0.0, 0.4)]),
    # c = 0: unreachable past -0.4, reachable inside it and upward
    "unreachable": (lambda: jump_ou_model(sigma=0.0, size=0.5), (0.0,), [(0.0, -0.5), (0.0, -0.3), (0.0, 0.5)]),
    # c = 9e-4: e^{p f} overflows at the Gaussian root -2b/c past y = 0.32
    "small_noise": (lambda: jump_ou_model(sigma=0.03, size=1.0), (0.0,), [(0.0, 0.5), (0.0, 2.0), (0.0, -1.0)]),
    "affine_two_channel": (
        affine_two_channel_model,
        (-1.0, 0.0, 1.0),
        [(-1.0, 0.0), (1.0, -1.5), (-1.0, 1.5), (1.0, 0.3), (-1.0, -2.2), (1.0, 2.2)],
    ),
}


@pytest.mark.parametrize("case", JUMP_CASES)
def test_quasipotential_1d_with_jumps_matches_the_quad_reference(case):
    # Newton's roots and the bisected panels move last digits only
    make, breakpoints, pairs = JUMP_CASES[case]
    model = make()
    for a, x in pairs:
        new = quasipotential_1d(model, [a], [x], breakpoints=breakpoints)
        ref = quasipotential_1d_quad(model, [a], [x], breakpoints=breakpoints)
        assert new.converged and ref.converged
        assert new.value == pytest.approx(ref.value, rel=1e-14, abs=1e-15), (a, x)


def test_jump_dual_converges_at_rounding():
    # Rows whose Newton gain is below the dual's rounding error count as
    # converged instead of stalling in the line search.  The value is the
    # midpoint action the solver gave before that rule, to rounding.
    model = jump_ou_model()
    res = path_action(model, Path(5.0, np.linspace(0.0, 0.8, 101)[:, None]))
    assert res.failed_segments == ()
    assert res.converged
    assert res.value == pytest.approx(0.8049878947994937, abs=1e-12)
    for y in np.linspace(-1.0, 1.0, 9):
        for v in np.linspace(-2.0, 2.0, 9):
            assert local_lagrangian(model, [y], [v]).converged, (y, v)


@pytest.fixture(scope="module")
def jump_ou_minimized():
    return quasipotential(jump_ou_model(), [0.0], [0.8], num_segments=100)


def test_quasipotential_with_jumps_matches_quadrature(jump_ou_minimized):
    assert jump_ou_minimized.value == pytest.approx(JUMP_OU_ORACLE, abs=1e-4)


def test_quasipotential_with_jumps_converges(jump_ou_minimized):
    assert jump_ou_minimized.converged


def test_retired_dual_rows_reach_the_maximizer():
    # A row retired by the rounding rule takes its last Newton step, so the
    # maximizer is exact and the envelope gradient with it.
    from quasipot.action import _chords, _dual_batch, _value_and_gradient

    model = GRADIENT_MODELS["ou-constant-jump"]
    pts = np.cumsum(np.random.default_rng(3).normal(scale=0.2, size=(9, 1)), axis=0)
    dt = 0.25
    y, v = _chords(pts, dt)
    w, cov, nu, f = v - model.drift_at(y), model.noise_cov, model.jump_rates, model.jump_values(y)
    _, lam, _, converged = _dual_batch(w, cov, nu, f)
    jumps = np.expm1(np.einsum("mjd,md->mj", f, lam))
    dual_grad = w - np.einsum("de,me->md", cov, lam) - np.einsum("j,mj,mjd->md", nu, jumps, f)
    assert converged.all() and len(converged) == 8
    assert np.abs(dual_grad).max() <= 1e-10
    _, grad = _value_and_gradient(model, pts, dt)
    h = 1e-5
    step = np.zeros_like(pts)
    step[1, 0] = h
    up, down = (_value_and_gradient(model, pts + sign * step, dt)[0] for sign in (1, -1))
    fd = (up - down) / (2 * h)
    assert abs(grad[1, 0] - fd) <= 1e-9


# -- exact escape costs of linear drift by convex duality ---------------------

NONNORMAL_JUMPS = GRADIENT_MODELS["nonnormal-2d"]
NONNORMAL_CONSTANT_JUMPS = LocalModel(
    2,
    NONNORMAL_JUMPS.drift,
    NONNORMAL_JUMPS.diffusion,
    (JumpAtom(1.0, [0.3, 0.2]), JumpAtom(0.6, [-0.1, 0.35])),
)
NONNORMAL_TARGET = [0.2, -0.7]


def axis_cost(k, s, c, nu, y):
    """``V(0, y)`` of ``dY = -k Y dt + s dW`` plus jumps ``c`` at rate ``nu``.

    The integral from 0 to ``y`` of the nonzero root, on the side of ``u``,
    of ``H(u, p) / p = -k u + s^2 p / 2 + nu (e^{p c} - 1 - p c) / p``.
    """

    def root(u):
        def slope(p):
            if p == 0.0:
                return -k * u
            return -k * u + 0.5 * s * s * p + nu * (math.expm1(p * c) - p * c) / p

        if u == 0.0:
            return 0.0
        sign, reach = math.copysign(1.0, u), 1.0
        while sign * slope(sign * reach) <= 0.0:
            reach *= 2.0
        lo, hi = sorted((0.0, sign * reach))
        return scipy.optimize.brentq(slope, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)

    return scipy.integrate.quad(root, 0.0, y, epsabs=1e-14, epsrel=1e-13)[0]


# non-normal, stiff (|lambda| ratio 50) and oscillating (|Im| / |Re| = 20) drifts
GRAMIAN_CASES = {
    "nonnormal": (NONNORMAL_JUMPS.drift.matrix, NONNORMAL_JUMPS.diffusion),
    "stiff": (np.diag([-1.0, -50.0]), np.eye(2)),
    "oscillating": (np.array([[-1.0, 20.0], [-20.0, -1.0]]), np.diag([1.0, math.sqrt(0.1)])),
}


@pytest.mark.parametrize("case", sorted(GRAMIAN_CASES))
def test_dual_matches_the_gramian_without_jumps(case):
    b, sigma = GRAMIAN_CASES[case]
    model = LocalModel(2, LinearDrift(b), sigma)
    gram = scipy.linalg.solve_continuous_lyapunov(b, -sigma @ sigma.T)
    for x in ([0.2, -0.7], [1.5, 0.3], [-2.0, 1.0], [0.0, 0.05], [0.0, 0.1]):
        x = np.array(x)
        res = quasipotential_dual(model, [0.0, 0.0], x)
        assert res.converged
        assert res.value == pytest.approx(0.5 * x @ np.linalg.solve(gram, x), abs=1e-12)


@pytest.mark.parametrize("case", sorted(GRAMIAN_CASES))
def test_flow_quadrature_panels_integrate_the_gramian(case):
    # unit jumps e_1, e_2 at rate 1 have second moments I: their channels
    # must integrate e^{Bs} e^{B^T s} to the Lyapunov Gramian of (B, I)
    b, sigma = GRAMIAN_CASES[case]
    unit_jumps = (JumpAtom(1.0, [1.0, 0.0]), JumpAtom(1.0, [0.0, 1.0]))
    _, rates, pushed = _dual_tables(LocalModel(2, LinearDrift(b), sigma, unit_jumps))
    want = solve_lyapunov(b, np.eye(2))
    got = np.einsum("k,kd,ke->de", rates, pushed, pushed)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_dual_matches_a_rotated_separable_quadrature_sum():
    angle, k, s, c, nu = 0.6, (1.0, 0.5), (1.0, 0.7), (0.4, -0.3), (0.8, 0.5)
    q = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    model = LocalModel(
        2,
        LinearDrift(q @ np.diag(-np.array(k)) @ q.T),
        q @ np.diag(s),
        tuple(JumpAtom(nu[i], c[i] * q[:, i]) for i in range(2)),
    )
    for radius in (0.4, 0.6, 0.8, 1.0, 1.5):
        for turn in range(4):
            phase = angle + math.pi / 4 + math.pi / 2 * turn + 0.3 * radius
            x = radius * np.array([math.cos(phase), math.sin(phase)])
            y = q.T @ x
            want = sum(axis_cost(k[i], s[i], c[i], nu[i], float(y[i])) for i in range(2))
            res = quasipotential_dual(model, [0.0, 0.0], x)
            assert res.converged
            assert res.value == pytest.approx(want, abs=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="the flow quadrature's panels follow the spectrum of B, not the growth of theta.e^{Bs}f "
    "far out along a jump: relative errors 2.0e-11, 8.8e-11 and 3.6e-10, all flagged converged",
)
@pytest.mark.parametrize("radius", [8.0, 12.0, 20.0])
def test_dual_keeps_its_digits_far_out_along_a_constant_jump(radius):
    oracle = RotatedAffineJumps(mu=(0.0, 0.0))
    model = oracle.model()
    x = radius * oracle.rotation[:, 0]
    res = quasipotential_dual(model, [0.0, 0.0], x)
    assert res.converged
    assert res.value == pytest.approx(oracle.cost(x), rel=1e-12, abs=0)


@pytest.mark.parametrize("x", [0.8, -1.3, 2.0])
def test_dual_in_one_dimension_matches_the_quadrature(x):
    res = quasipotential_dual(jump_ou_model(), [0.0], [x])
    assert res.converged
    assert res.value == pytest.approx(quasipotential_1d(jump_ou_model(), [0.0], [x]).value, abs=1e-10)


def test_dual_without_noise_matches_the_axis_quadratures():
    # c = 0: the Gramian is 0 and the jumps alone span the plane, a model
    # LinearModel would refuse as degenerate
    model = LocalModel(
        2,
        LinearDrift(np.diag([-1.0, -2.0])),
        np.zeros((2, 2)),
        (JumpAtom(1.0, [0.3, 0.0]), JumpAtom(0.5, [-0.3, 0.0]), JumpAtom(0.8, [0.0, 0.5]), JumpAtom(0.6, [0.0, -0.5])),
    )
    axes = [
        LocalModel(1, LinearDrift([[-1.0]]), [[0.0]], (JumpAtom(1.0, [0.3]), JumpAtom(0.5, [-0.3]))),
        LocalModel(1, LinearDrift([[-2.0]]), [[0.0]], (JumpAtom(0.8, [0.5]), JumpAtom(0.6, [-0.5]))),
    ]
    for x in ([0.4, -0.3], [-0.5, 0.6], [1.0, 0.2], [-0.2, -0.8]):
        res = quasipotential_dual(model, [0.0, 0.0], x)
        want = sum(quasipotential_1d(axes[i], [0.0], [x[i]]).value for i in range(2))
        assert res.converged
        assert res.value == pytest.approx(want, abs=1e-10)


@pytest.fixture
def fresh_quadratures():
    # the table cache is keyed on the model, not on the panel constants
    yield
    _flow_quadrature.cache_clear()


JUMPS = NONNORMAL_CONSTANT_JUMPS.jumps


@pytest.mark.parametrize(
    "model",
    [
        NONNORMAL_CONSTANT_JUMPS,
        LocalModel(2, LinearDrift(GRAMIAN_CASES["stiff"][0]), np.eye(2), JUMPS),
        LocalModel(2, LinearDrift(GRAMIAN_CASES["oscillating"][0]), GRAMIAN_CASES["oscillating"][1], JUMPS),
    ],
    ids=["nonnormal", "stiff", "oscillating"],
)
def test_dual_is_stable_under_panel_doubling(model, monkeypatch, fresh_quadratures):
    import quasipot.action as action

    values, channels = [], []
    for refine in (1, 2):
        monkeypatch.setattr(action, "_FLOW_PANELS", 60 * refine)
        monkeypatch.setattr(action, "_FLOW_PANELS_PER_RATE", 1.0 * refine)
        _flow_quadrature.cache_clear()
        values.append(quasipotential_dual(model, [0.0, 0.0], NONNORMAL_TARGET).value)
        # one (node, jump) channel per entry: the solve above used these tables
        channels.append(_dual_tables(model)[1].size)
        assert _flow_quadrature.cache_info().misses == 1
    assert channels[1] > channels[0]
    assert abs(values[1] - values[0]) <= 1e-11


def test_dual_tables_are_keyed_on_the_whole_model(fresh_quadratures):
    # the same B with another noise or other jumps must not reuse the tables
    _flow_quadrature.cache_clear()
    drift, sigma = NONNORMAL_CONSTANT_JUMPS.drift, NONNORMAL_CONSTANT_JUMPS.diffusion
    for model in (
        NONNORMAL_CONSTANT_JUMPS,
        LocalModel(2, drift, 2.0 * sigma, JUMPS),
        LocalModel(2, drift, sigma, JUMPS[:1]),
        LocalModel(2, drift, sigma, (JumpAtom(2.0, JUMPS[0].vector), JUMPS[1])),
    ):
        quasipotential_dual(model, [0.0, 0.0], NONNORMAL_TARGET)
        quasipotential_dual(model, [0.0, 0.0], [0.5, 0.1])
    assert _flow_quadrature.cache_info()[:2] == (4, 4)  # hits, misses


def test_dual_refusals():
    sigma = np.eye(2)
    unstable = LocalModel(2, LinearDrift([[0.1, 0.0], [0.0, -1.0]]), sigma)
    with pytest.raises(ValueError, match="Hurwitz"):
        quasipotential_dual(unstable, [0.0, 0.0], [1.0, 0.0])
    marginal = LocalModel(2, LinearDrift([[0.0, 1.0], [0.0, -1.0]]), sigma)
    with pytest.raises(ValueError, match="Hurwitz"):
        quasipotential_dual(marginal, [0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError, match="constant jump vectors"):
        quasipotential_dual(NONNORMAL_JUMPS, [0.0, 0.0], NONNORMAL_TARGET)
    # the Gramian's dense Lyapunov solve caps the dimension
    d = MAX_LYAPUNOV_DIM + 1
    with pytest.raises(ValueError, match="limited to dimension 20"):
        quasipotential_dual(LocalModel(d, LinearDrift(-np.eye(d)), np.eye(d)), np.zeros(d), np.full(d, 0.1))


def test_dual_far_target_is_infinite_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in ([1e8, 0.0], [-1e8, 3e7], [1e300, 1e300]):
            res = quasipotential_dual(NONNORMAL_CONSTANT_JUMPS, [0.0, 0.0], x)
            assert res.value == math.inf and res.converged
        assert quasipotential_dual(NONNORMAL_CONSTANT_JUMPS, [0.0, 0.0], [30.0, 20.0]).value < 1e3


def test_minimize_action_approaches_the_finite_horizon_dual():
    # Each grid starts from the previous optimum, interpolated.
    want = finite_horizon_dual(NONNORMAL_CONSTANT_JUMPS, NONNORMAL_TARGET, 5.0)
    errors, init = [], None
    for segments in (100, 200, 400):
        if init is not None:
            t = np.linspace(0.0, 5.0, segments + 1)
            init = Path(5.0, np.column_stack([np.interp(t, init.times, init.points[:, i]) for i in range(2)]))
        init, res = minimize_action(
            NONNORMAL_CONSTANT_JUMPS, [0.0, 0.0], NONNORMAL_TARGET, 5.0, segments, init=init
        )
        assert res.converged
        errors.append(abs(res.value - want))
    assert errors[2] < errors[1] < errors[0]
    assert errors[2] <= 1e-4


def test_quasipotential_error_shrinks_threefold_per_segment_doubling():
    # each doubling of the segments cuts the error against the exact oracle at least 3x
    oracle = RotatedAffineJumps()
    model = oracle.model()
    for x in ([1.0, 0.5], [0.3, 0.3]):
        errors = []
        for segments in (50, 100, 200):
            res = quasipotential(model, [0.0, 0.0], x, num_segments=segments)
            assert res.converged
            errors.append(abs(res.value - oracle.cost(x)))
        assert errors[1] * 3 <= errors[0] and errors[2] * 3 <= errors[1], (x, errors)


def test_quasipotential_reaches_the_stationary_dual():
    want = quasipotential_dual(NONNORMAL_CONSTANT_JUMPS, [0.0, 0.0], NONNORMAL_TARGET).value
    res = quasipotential(NONNORMAL_CONSTANT_JUMPS, [0.0, 0.0], NONNORMAL_TARGET, num_segments=100)
    assert res.converged
    assert res.value == pytest.approx(want, abs=1e-4)


def test_quasipotential_crosses_a_weak_double_well():
    # criterion 8's model, b(y) = 0.15 (y - y^3) with sigma = 1, to its outermost bin center
    model = LocalModel(1, PolynomialDrift([0.0, 0.15, 0.0, -0.15]), np.eye(1))
    want = quasipotential_1d(model, [-1.0], [2.1405], breakpoints=[-1.0, 0.0, 1.0]).value
    res = quasipotential(model, [-1.0], [2.1405], num_segments=160)
    assert res.converged
    assert res.value == pytest.approx(want, abs=1e-3)
