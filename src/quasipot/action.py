"""Path action functional for jump diffusions and its minimization.

The running cost of moving at velocity ``v`` through state ``y`` is the
Legendre-type dual

``L(y, v) = sup_l [ l . (v - b(y)) - 0.5 |sigma(y)^T l|^2
                    - sum_j nu_j (e^{l . f_j(y)} - 1 - l . f_j(y)) ]``

which is finite, convex in ``v``, and zero exactly when ``v = b(y)``.  The
action of a path is the time integral of ``L`` along it, discretized here
with the midpoint rule on uniform grids.  Quasipotentials between states are
infima of the action over paths and over all horizons; :func:`quasipotential`
takes both at once by the geometric minimum action method.

The inner sup is a smooth strictly concave maximization solved by damped
Newton iterations started from the Gaussian maximizer; with no jump
channels that start is already exact.

In one dimension the infimum has a closed form as a quadrature over the
Hamiltonian's nonzero root, :func:`quasipotential_1d`, which needs neither
paths nor horizons, nor scipy.  Its panels run between the equilibria and
take QUADPACK's 21-point Gauss-Kronrod rule, with every node's root solved
in one array computation: ``-2 b / c`` without jumps, monotone Newton from
there with them.  The sums run in QUADPACK's order, so without jumps each
cost is ``scipy.integrate.quad``'s over ``brentq`` roots bit for bit.
``converged`` reports the roots and QUADPACK's accuracy test, and
``dual_iterations`` the Newton count, 0 without jumps.

For linear drift ``b(y) = B y`` with constant jump vectors the running
cost is ``L(y, v) = ell(v - B y)`` with ``ell`` convex, so the escape cost
from the origin is convex too and equals its convex dual (Freidlin &
Wentzell 2012 for the Gaussian case; Rockafellar, *Convex Analysis*, 1970):

``V(x) = sup_theta [ theta . x - Phi(theta) ]``,
``Phi(theta) = int_0^inf K(e^{B^T s} theta) ds``,

with ``K`` the cumulant ``theta^T c theta / 2 + sum_j nu_j (e^{theta . f_j}
- 1 - theta . f_j)``.  The Gaussian part of ``Phi`` is ``theta^T G theta
/ 2``, with ``G`` the Lyapunov Gramian of :mod:`quasipot.linear`, solved
exactly; only its jump part is a fixed quadrature.
:func:`quasipotential_dual` maximizes by Newton's method, again without
paths or horizons.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .linear import _expm, solve_lyapunov
from .models import DegenerateCovariance, LinearDrift, LocalModel, Path

#: Action values at or above this are reported as unreachable (infinite).
COST_CAP = 1e6

#: Largest drift speed ``|b(a)|`` at which an escape's start ``a`` counts as
#: an equilibrium.
EQUILIBRIUM_TOL = 1e-6

#: Iteration cap of each :func:`minimize_action` (L-BFGS; function
#: evaluations are capped at ten times this) and of each descent of
#: :func:`quasipotential`.
MAX_ITERATIONS = 2000

# Dual Newton solve: iteration cap, and the max-norm gradient that converges a row.
_DUAL_MAX_ITER = 50
_DUAL_GRAD_TOL = 1e-10
# minimize_action: max-norm gradient tolerance.
_MINIMIZE_GRAD_TOL = 1e-6
# quasipotential: relative tolerance of the root s, and the relative change of S that is rounding.
_ROOT_RTOL = 1e-8
_ROUNDING = 16 * np.finfo(float).eps
# Convex dual: Gauss-Legendre nodes per panel; the decay factor of a mode
# e^{lambda s} of B at which the quadrature drops it; the fewest panels over
# the whole range; and the panels per unit of |lambda| s while mode lambda lives.
_FLOW_NODES = 8
_FLOW_DECAY = 1e17
_FLOW_PANELS = 60
_FLOW_PANELS_PER_RATE = 1.0


@dataclass(frozen=True)
class ActionValue:
    """Outcome of an action or Lagrangian evaluation.

    ``value`` is the cost; ``dual_iterations`` the largest inner Newton
    iteration count encountered; ``converged`` whether every inner problem
    (and, for minimization, the outer descent) met its tolerance;
    ``failed_segments`` the indices of path segments whose inner solve did
    not converge.
    """

    value: float
    dual_iterations: int
    converged: bool
    failed_segments: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if math.isnan(self.value):
            raise ValueError("action value must not be NaN")
        if self.value < 0 and self.value > -1e-12:
            # Tiny negative values are roundoff from the dual; clamp them.
            object.__setattr__(self, "value", 0.0)
        if self.value < 0:
            raise ValueError(f"action value must be nonnegative, got {self.value}")


def _jump_cumulant(nu: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``sum_j nu_j (e^{z_j} - 1 - z_j)`` over the last axis of ``z``."""
    with np.errstate(over="ignore"):
        return (nu * (np.expm1(z) - z)).sum(axis=-1)


def _dual_value(
    lam: np.ndarray, w: np.ndarray, cov: np.ndarray, nu: np.ndarray, f: np.ndarray
) -> np.ndarray:
    """``l . w - l^T c l / 2 - sum_j nu_j (e^{l . f_j} - 1 - l . f_j)``, the dual, per row."""
    val = np.einsum("md,md->m", lam, w) - 0.5 * np.einsum("md,de,me->m", lam, cov, lam)
    if len(nu):
        val = val - _jump_cumulant(nu, np.einsum("mjd,md->mj", f, lam))
    return val


def _dual_hessian(cov: np.ndarray, nu: np.ndarray, f: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``c + sum_j nu_j e^{z_j} f_j f_j^T`` per row, ``z_j = l . f_j``: minus the dual's Hessian."""
    return cov + np.einsum("j,mj,mjd,mje->mde", nu, np.exp(np.minimum(z, 700.0)), f, f)


def _dual_batch(
    w: np.ndarray, cov: np.ndarray, nu: np.ndarray, f: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Maximize the dual for a batch of (state, velocity) pairs.

    ``w``: (M, d) velocity minus drift; ``cov``: the (d, d) diffusion
    covariance, shared by every row; ``nu``: (J,) jump rates; ``f``: (M, J, d)
    jump sizes.  Returns (values, maximizers, iterations used, per-row
    convergence).  Raises :class:`~quasipot.models.DegenerateCovariance` when
    ``cov`` plus the jump covariance is singular.

    A row converges when its max-norm gradient is at most ``_DUAL_GRAD_TOL``,
    or when its Newton gain ``g^T H^{-1} g / 2`` is below the rounding error
    of the dual's own terms, so that no step can raise the value measurably
    (the Newton-decrement stopping rule, Boyd & Vandenberghe 2004, 9.5); such
    a row takes that last Newton step undamped.
    """
    M, d = w.shape

    # Gaussian maximizer as the starting point.  If the diffusion block is
    # singular the full covariance (the Hessian at 0) is used instead.
    try:
        lam = np.linalg.solve(cov, w[..., None])[..., 0]
    except np.linalg.LinAlgError:
        try:
            lam = np.linalg.solve(_dual_hessian(cov, nu, f, np.zeros(f.shape[:-1])), w[..., None])[..., 0]
        except np.linalg.LinAlgError:
            raise DegenerateCovariance("the covariance is degenerate; the action is not defined there") from None
    val = _dual_value(lam, w, cov, nu, f)
    # The dual is 0 at lam = 0, so the sup is never negative.  Rows where the
    # Gaussian start lands below that (strong jump terms) or overflows restart
    # from 0; Newton then climbs monotonically, keeping every value >= 0.
    bad = ~np.isfinite(val) | (val < 0.0)
    if bad.any():
        lam[bad] = 0.0
        val[bad] = 0.0
    stalled = np.zeros(M, dtype=bool)
    retired = np.zeros(M, dtype=bool)
    iters = 0

    def gradient(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The dual's gradient, with ``z = f . l`` and ``e^z - 1`` it was built from."""
        z = np.einsum("mjd,md->mj", f, lam)
        with np.errstate(over="ignore"):
            ez = np.expm1(z)
        return w - np.einsum("de,me->md", cov, lam) - np.einsum("j,mj,mjd->md", nu, ez, f), z, ez

    for _ in range(_DUAL_MAX_ITER):
        grad, z, ez = gradient(lam)
        gnorm = np.abs(grad).max(axis=1)
        active = (gnorm > _DUAL_GRAD_TOL) & ~stalled & ~retired & np.isfinite(gnorm)
        if not active.any():
            break
        iters += 1
        hess = _dual_hessian(cov, nu, f, z)
        delta = np.zeros_like(lam)
        rows = np.where(active)[0]
        try:
            delta[rows] = np.linalg.solve(hess[rows], grad[rows][..., None])[..., 0]
        except np.linalg.LinAlgError:
            for r in rows:
                try:
                    delta[r] = np.linalg.solve(hess[r], grad[r])
                except np.linalg.LinAlgError:
                    stalled[r] = True
            rows = np.where(active & ~stalled)[0]
        # An overflowed Hessian gives no usable step.
        usable = np.isfinite(delta[rows]).all(axis=1)
        stalled[rows[~usable]] = True
        rows = rows[usable]
        # Retire rows whose Newton gain is below the rounding error of the
        # dual's terms: the line search could only stall on them.
        lam_r = lam[rows]
        gain = 0.5 * np.einsum("md,md->m", grad[rows], delta[rows])
        with np.errstate(over="ignore"):
            noise = (
                np.abs(np.einsum("md,md->m", lam_r, w[rows]))
                + 0.5 * np.abs(np.einsum("md,de,me->m", lam_r, cov, lam_r))
                + (nu * (np.abs(ez[rows]) + np.abs(z[rows]))).sum(axis=1)
            )
        done = gain <= 4.0 * np.finfo(float).eps * noise
        # A retiring row still takes its undamped step: the value cannot
        # tell it apart, but the maximizer, which the envelope gradient
        # uses, gains its last digits from it.
        fin = rows[done]
        lam[fin] += delta[fin]
        val[fin] = _dual_value(lam[fin], w[fin], cov, nu, f[fin])
        retired[fin] = True
        rows = rows[~done]
        if rows.size == 0:
            continue
        # Damped step: halve until the concave objective strictly improves.
        # A row whose halved step no longer moves it has stalled.
        step = np.ones(rows.size)
        pending = np.ones(rows.size, dtype=bool)
        while pending.any():
            sub = rows[pending]
            trial = lam[sub] + step[pending, None] * delta[sub]
            tval = _dual_value(trial, w[sub], cov, nu, f[sub])
            good = np.isfinite(tval) & (tval > val[sub])
            stuck = ~good & (trial == lam[sub]).all(axis=1)
            take = sub[good]
            lam[take] = trial[good]
            val[take] = tval[good]
            stalled[sub[stuck]] = True
            pending[np.where(pending)[0][good | stuck]] = False
            step[pending] *= 0.5

    grad = gradient(lam)[0]
    converged = retired | (np.abs(grad).max(axis=1) <= _DUAL_GRAD_TOL)
    return val, lam, iters, converged


def _chords(points: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints and chord velocities of the segments of a discrete path."""
    return 0.5 * (points[:-1] + points[1:]), (points[1:] - points[:-1]) / dt


def _action(model: LocalModel, y: np.ndarray, v: np.ndarray, dt: float) -> ActionValue:
    """``dt * sum_k L(y_k, v_k)``, with the rows whose dual solve did not converge."""
    w = v - model.drift_at(y)
    val, _, iters, conv = _dual_batch(w, model.noise_cov, model.jump_rates, model.jump_values(y))
    failed = tuple(int(k) for k in np.where(~conv)[0])
    return ActionValue(float((dt * val).sum()), iters, not failed, failed)


def local_lagrangian(model: LocalModel, y: Sequence[float], v: Sequence[float]) -> ActionValue:
    """The running cost ``L(y, v)``.

    Requires the local covariance at ``y`` to be positive definite.
    """
    y = np.asarray(y, dtype=float).reshape(1, -1)
    v = np.asarray(v, dtype=float).reshape(1, -1)
    if y.shape[1] != model.dim or v.shape != y.shape:
        raise ValueError(f"state and velocity must have dimension {model.dim}")
    model.assert_nondegenerate(y)
    return _action(model, y, v, 1.0)


def path_action(model: LocalModel, path: Path) -> ActionValue:
    """Midpoint-rule action of a discrete path.

    Each segment contributes ``dt * L(midpoint, chord velocity)``.  Requires
    nondegenerate local covariance at every segment midpoint.
    """
    if path.dim != model.dim:
        raise ValueError(f"path dimension {path.dim} does not match model {model.dim}")
    y, v = _chords(path.points, path.dt)
    model.assert_nondegenerate(y)
    return _action(model, y, v, path.dt)


def _hamiltonian_state_gradient(model: LocalModel, y: np.ndarray, lam: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``dH/dy = J_b^T l + sum_j nu_j expm1(l . f_j) M_j^T l`` per row, ``f`` the jump vectors at ``y``.

    The constant diffusion adds no term.
    """
    out = np.einsum("mde,md->me", model.drift.jacobian(y), lam)
    if model.jump_matrices.any():
        with np.errstate(over="ignore"):
            weight = model.jump_rates * np.expm1(np.einsum("mjd,md->mj", f, lam))
        out += np.einsum("mj,jde,md->me", weight, model.jump_matrices, lam)
    return out


def _value_and_gradient(
    model: LocalModel, points: np.ndarray, dt: float
) -> tuple[float, np.ndarray]:
    """Discrete action and its gradient with respect to interior nodes.

    One inner dual solve per call: at the maximizer ``l*`` the dual is
    stationary in ``l``, so derivatives pass through it (envelope argument).
    ``dL/dv = l*`` exactly, and ``dL/dy = -dH/dy`` at fixed ``l*``.  Interior
    node ``k`` enters segment ``k - 1`` through its right endpoint and
    segment ``k`` through its left one, each contributing half the midpoint
    sensitivity plus the chord-velocity term.
    """
    y, v = _chords(points, dt)
    f = model.jump_values(y)
    val, lam, _, _ = _dual_batch(v - model.drift_at(y), model.noise_cov, model.jump_rates, f)
    dldy = -_hamiltonian_state_gradient(model, y, lam, f)
    grad = np.zeros_like(points)
    grad[1:-1] = 0.5 * dt * (dldy[:-1] + dldy[1:]) + (lam[:-1] - lam[1:])
    return float(dt * val.sum()), grad


def minimize_action(
    model: LocalModel,
    x0: Sequence[float],
    x1: Sequence[float],
    horizon: float,
    num_segments: int,
    init: Path | None = None,
) -> tuple[Path, ActionValue]:
    """Minimize the discrete action over paths from ``x0`` to ``x1``.

    Starts from the better of the straight line and the optional warm start
    (on the same horizon and grid, with endpoints forced), then runs
    L-BFGS-B over the interior nodes, for at most ``MAX_ITERATIONS``
    iterations, with the envelope gradient of :func:`_value_and_gradient`.
    The output is the best path seen, so the value never exceeds the
    straight-line action.

    Convergence means either: the max-norm gradient fell below
    ``_MINIMIZE_GRAD_TOL``, or the optimizer's own relative-reduction test
    fired.
    """
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    if x0.shape != (model.dim,) or x1.shape != (model.dim,):
        raise ValueError(f"endpoints must be vectors of dimension {model.dim}")
    if not (horizon > 0) or not np.isfinite(horizon):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if num_segments < 4:
        raise ValueError("need at least 4 segments to have interior nodes to move")
    dt = horizon / num_segments
    d = model.dim

    straight = np.linspace(0.0, 1.0, num_segments + 1)[:, None] * (x1 - x0) + x0
    candidates = [straight]
    if init is not None:
        if init.num_segments != num_segments or init.horizon != horizon:
            raise ValueError(
                f"warm start has horizon {init.horizon} and {init.num_segments} segments, "
                f"expected {horizon} and {num_segments}"
            )
        warm = init.points.copy()
        warm[0] = x0
        warm[-1] = x1
        candidates.append(warm)

    model.assert_nondegenerate(0.5 * (straight[:-1] + straight[1:]))

    def assemble(z: np.ndarray) -> np.ndarray:
        pts = np.empty((num_segments + 1, d))
        pts[0] = x0
        pts[-1] = x1
        pts[1:-1] = z.reshape(num_segments - 1, d)
        return pts

    def fun(z: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = _value_and_gradient(model, assemble(z), dt)
        return value, grad[1:-1].ravel()

    start_vals = [fun(c[1:-1].ravel())[0] for c in candidates]
    pick = int(np.argmin(start_vals))
    z0 = candidates[pick][1:-1].ravel()

    from scipy.optimize import minimize

    result = minimize(
        fun,
        z0,
        jac=True,
        method="L-BFGS-B",
        options={
            "maxiter": MAX_ITERATIONS,
            "maxfun": 10 * MAX_ITERATIONS,
            "gtol": _MINIMIZE_GRAD_TOL,
            "ftol": 1e-14,
            "maxcor": 30,
        },
    )
    if np.isfinite(result.fun) and result.fun <= start_vals[pick]:
        best = assemble(result.x)
    else:
        best = candidates[pick]
    converged = bool(result.success) or float(np.abs(result.jac).max()) <= _MINIMIZE_GRAD_TOL

    info = _action(model, *_chords(best, dt), dt)
    return Path(horizon, best), replace(info, converged=converged and info.converged)


def _geometric_cost(model: LocalModel, points: np.ndarray):
    """Geometric action ``S = sum_k ell(midpoint_k, chord_k)`` of a discrete path.

    ``ell(y, u) = sup {u . l : H(y, l) <= 0}``.  With ``l(s)`` the dual's
    maximizer at velocity ``s u``, ``g(s) = H(y, l(s)) = s u . l - L(y, s u)``
    increases in ``s`` with slope ``s u^T H_ll^{-1} u``; its root is found by
    Newton steps kept inside a bracket, started from the Gaussian guess
    ``s = |b|_{c^-1} / |u|_{c^-1}`` (``c`` the local covariance).  Then
    ``ell = L(y, s u) / s``, which is stationary in ``s``, so the root needs
    only half the digits.  A chord with ``b(y) = 0`` costs 0, with ``l = 0``
    and ``s = 0``.  By the envelope argument ``d ell / du = l`` and
    ``d ell / dy = -(dH/dy) / s``; the interior nodes get them by
    :func:`_value_and_gradient`'s stencil.

    Returns ``S``, its gradient at the interior nodes, the per-chord ``s``
    and ``H_ll``, the largest inner iteration count and the indices of the
    chords whose local solve did not converge.
    """
    y, u = 0.5 * (points[:-1] + points[1:]), np.diff(points, axis=0)
    b, cov = model.drift_at(y), model.noise_cov
    nu, f = model.jump_rates, model.jump_values(y)
    hess = model.local_covariance(y)
    cb = np.linalg.solve(hess, b[..., None])[..., 0]
    cu = np.linalg.solve(hess, u[..., None])[..., 0]
    s = np.sqrt(np.einsum("md,md->m", b, cb) / np.einsum("md,md->m", u, cu))
    lo, hi = np.zeros_like(s), np.full_like(s, np.inf)
    val, lam, converged = np.zeros_like(s), np.zeros_like(u), np.ones(s.shape, dtype=bool)
    active, iterations = s > 0, 0
    for _ in range(_DUAL_MAX_ITER):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        sr, ur = s[rows], u[rows]
        val[rows], lam[rows], its, converged[rows] = _dual_batch(sr[:, None] * ur - b[rows], cov, nu, f[rows])
        iterations = max(iterations, its)
        hess[rows] = _dual_hessian(cov, nu, f[rows], np.einsum("mjd,md->mj", f[rows], lam[rows]))
        g = sr * np.einsum("md,md->m", ur, lam[rows]) - val[rows]
        slope = sr * np.einsum("md,md->m", ur, np.linalg.solve(hess[rows], ur[..., None])[..., 0])
        lo[rows], hi[rows] = np.where(g < 0, sr, lo[rows]), np.where(g > 0, sr, hi[rows])
        step = sr - g / slope
        step = np.where((step > lo[rows]) & (step < hi[rows]), step, 0.5 * (lo[rows] + hi[rows]))
        done = (np.abs(step - sr) <= _ROOT_RTOL * sr) | (g == 0)
        active[rows[done]] = False
        s[rows[~done]] = step[~done]
    moving = (s > 0)[:, None]
    cost = np.divide(val, s, out=np.zeros_like(s), where=moving[:, 0])
    dldy = -np.divide(_hamiltonian_state_gradient(model, y, lam, f), s[:, None], out=np.zeros_like(u), where=moving)
    grad = 0.5 * (dldy[:-1] + dldy[1:]) + (lam[:-1] - lam[1:])
    failed = tuple(int(k) for k in np.flatnonzero(~(converged & ~active)))
    return float(cost.sum()), grad, s, hess, iterations, failed


def _equal_arclength(points: np.ndarray) -> np.ndarray:
    """Nodes spaced at equal arclength along the polyline through ``points``."""
    arc = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(points, axis=0), axis=1))])
    grid = np.linspace(0.0, arc[-1], points.shape[0])
    return np.column_stack([np.interp(grid, arc, points[:, i]) for i in range(points.shape[1])])


def quasipotential(
    model: LocalModel,
    attractor: Sequence[float],
    target: Sequence[float],
    num_segments: int = 400,
) -> ActionValue:
    """Escape cost from an attractor to a target state, over all paths and horizons.

    The geometric minimum action method (Heymann & Vanden-Eijnden, *CPAM*
    61, 2008) has no horizon: it minimizes :func:`_geometric_cost` over
    paths of ``num_segments`` chords of equal arclength, from the straight
    line.  Each step follows the flow ``-s H_ll grad S`` at the interior
    nodes (``s`` and ``H_ll`` averaged over a node's two chords, ``grad S``
    cut to its part normal to the path, since respacing undoes tangential
    moves), its stiff part ``s (s_i (x_{i+1} - x_i) - s_{i-1} (x_i -
    x_{i-1}))`` taken implicitly by one tridiagonal solve.  A step that does
    not lower ``S`` is halved; one that does is kept, respaced to equal
    arclength and doubled.  The gain is taken before respacing, which moves
    ``S`` by a discretization amount of its own.  Converged means 3 steps in
    a row gained at most the rounding of ``S``; after ``MAX_ITERATIONS``
    steps the descent stops unconverged.  Values reaching ``COST_CAP`` are
    reported as infinite.  The start must be an equilibrium of the drift
    within ``EQUILIBRIUM_TOL``.
    """
    a, x = _escape_endpoints(model, attractor, target)
    if num_segments < 2:
        raise ValueError("need at least 2 segments to have an interior node to move")
    if np.array_equal(a, x):
        return ActionValue(0.0, 0, True)
    points = np.linspace(0.0, 1.0, num_segments + 1)[:, None] * (x - a) + a
    model.assert_nondegenerate(0.5 * (points[:-1] + points[1:]))
    value, grad, s, hess, iterations, failed = _geometric_cost(model, points)
    if value == 0.0:  # S is never negative: the straight line is optimal
        return ActionValue(0.0, iterations, not failed, failed)
    from scipy.linalg import solve_banded

    tau = (num_segments / s.max()) ** 2
    quiet = 0
    for _ in range(MAX_ITERATIONS):
        tangent = points[2:] - points[:-2]
        tangent /= np.linalg.norm(tangent, axis=1, keepdims=True)
        normal = grad - np.einsum("md,md->m", grad, tangent)[:, None] * tangent
        node_s = 0.5 * (s[:-1] + s[1:])
        flow = -node_s[:, None] * np.einsum("mde,me->md", 0.5 * (hess[:-1] + hess[1:]), normal)
        left, right = tau * node_s * s[:-1], tau * node_s * s[1:]
        bands = np.zeros((3, num_segments - 1))
        bands[0, 1:], bands[1], bands[2, :-1] = -right[:-1], 1.0 + left + right, -left[1:]
        trial = points.copy()
        trial[1:-1] += solve_banded((1, 1), bands, tau * flow)
        gain = value - _geometric_cost(model, trial)[0]
        quiet = quiet + 1 if abs(gain) <= _ROUNDING * value else 0
        if quiet == 3:
            break
        if gain > 0:
            points = _equal_arclength(trial)
            value, grad, s, hess, iterations, failed = _geometric_cost(model, points)
            tau *= 2.0
        else:
            tau *= 0.5
    if value >= COST_CAP:
        value = math.inf
    return ActionValue(value, iterations, quiet == 3 and not failed, failed)


def _escape_endpoints(
    model: LocalModel, attractor: Sequence[float], target: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Attractor and target as state vectors; the attractor must be an equilibrium."""
    a = np.asarray(attractor, dtype=float)
    x = np.asarray(target, dtype=float)
    if a.shape != (model.dim,) or x.shape != (model.dim,):
        raise ValueError(f"attractor and target must be vectors of dimension {model.dim}")
    speed = float(np.linalg.norm(model.drift_at(a[None, :])[0]))
    if speed > EQUILIBRIUM_TOL:
        raise ValueError(
            f"|b(attractor)| = {speed:.3g} exceeds equilibrium tolerance {EQUILIBRIUM_TOL:.3g}"
        )
    return a, x


#: Largest momentum bracketed before a state counts as impassable.
_MOMENTUM_REACH = 2.0**200
# Momentum roots with jumps: Newton iteration cap, and the relative step that is rounding.
_NEWTON_MAX_ITER = 100
_NEWTON_RTOL = 4 * np.finfo(float).eps
# 1-D quadrature: the tolerances and panel limit of QUADPACK's qagse and qagpe
# as ``quad`` ran them, and QUADPACK's machine constants d1mach(4) and d1mach(1).
_QUAD_EPSABS = 1e-13
_QUAD_EPSREL = 1e-12
_QUAD_LIMIT = 200
_EPMACH = np.finfo(float).eps
_UFLOW = np.finfo(float).tiny
# QUADPACK's dqk21 (Piessens et al., *QUADPACK*, Springer 1983), per row: a
# 21-point Kronrod abscissa on [0, 1], largest first and the centre last, its
# weight, and its 10-point Gauss weight (abscissae 2, 4, ..., 10 from 1).
_XGK, _WGK, _WG = np.array([
    [0.995657163025808080735527280689003, 0.011694638867371874278064396062192, 0.0],
    [0.973906528517171720077964012084452, 0.032558162307964727478818972459390, 0.066671344308688137593568809893332],
    [0.930157491355708226001207180059508, 0.054755896574351996031381300244580, 0.0],
    [0.865063366688984510732096688423493, 0.075039674810919952767043140916190, 0.149451349150580593145776339657697],
    [0.780817726586416897063717578345042, 0.093125454583697605535065465083366, 0.0],
    [0.679409568299024406234327365114874, 0.109387158802297641899210590325805, 0.219086362515982043995534934228163],
    [0.562757134668604683339000099272694, 0.123491976262065851077958109831074, 0.0],
    [0.433395394129247190799265943165784, 0.134709217311473325928054001771707, 0.269266719309996355091226921569469],
    [0.294392862701460198131126603103866, 0.142775938577060080797094273138717, 0.0],
    [0.148874338981631210884826001129720, 0.147739104901338491374841515972068, 0.295524224714752870173892994651338],
    [0.0, 0.149445554002916905664936468389821, 0.0],
]).T
# A panel's 21 nodes in half-lengths from its centre: the centre and the right
# node of each pair in dqk21's order, Gauss nodes first, then the left ones;
# the weights of the centre and the pair sums in the Kronrod, Gauss and
# |f| sums; and the order of dqk21's last sum, of |f - mean|, with its weights.
_GK_PAIRS = [10, 1, 3, 5, 7, 9, 0, 2, 4, 6, 8]
_GK_NODES = np.concatenate((_XGK[_GK_PAIRS], -_XGK[_GK_PAIRS[1:]]))
_GK_WEIGHTS = np.stack([_WGK[_GK_PAIRS], _WG[_GK_PAIRS], _WGK[_GK_PAIRS]])[:, None]
_GK_NATURAL = np.argsort([-1, *_GK_PAIRS[1:]])
_WGK_NATURAL = _WGK[[10, *range(10)]]


def _excess(model: LocalModel, sign: float, y: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """``max(0, s p*(y))`` at the states ``y``, Newton's iteration count, and whether every root converged.

    ``p*`` is the nonzero root of ``H(p)`` of :func:`quasipotential_1d`
    where the drift opposes the motion ``s = sign``; elsewhere the cost is 0.
    Without jumps ``p* = -2 b / c``.  With jumps ``H`` there is the jump
    cumulant, never negative, so Newton starts at the first ``|p| = 1, 2,
    4, ...`` with ``H > 0`` or at the Gaussian root, whichever is nearer:
    within twice ``|p*|``, where ``e^{p f}`` stays in range for small
    ``c``.  ``H`` is convex, so Newton falls monotonically to ``p*``.  The
    cost is infinite where no start is found up to ``_MOMENTUM_REACH``
    (only with ``c = 0``), and, unconverged, where ``H`` overflows.
    """
    b = model.drift_at(y[:, None])[:, 0]
    opposed = sign * b < 0.0
    c = float(model.noise_cov[0, 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        p = -2.0 * b / c
    if not model.jump_rates.size:
        # with c = 0 the cost is infinite: H = p b has no nonzero root
        return np.where(opposed, sign * p, 0.0), 0, True
    rows = np.flatnonzero(opposed)
    b, p, nu = b[rows], p[rows], model.jump_rates
    f = model.jump_values(y[rows, None])[:, :, 0]

    def hamiltonian(p: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``H`` and Newton's step ``H / (dH/dp)`` at momenta ``p`` of the rows ``at``."""
        z = p[:, None] * f[at]
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.expm1(z)
            h = p * (b[at] + 0.5 * c * p) + (nu * (e - z)).sum(axis=1)
            return h, h / (b[at] + c * p + (nu * f[at] * e).sum(axis=1))

    gauss = np.abs(p)
    reach = np.ones_like(p)
    closed = reach >= gauss
    while not closed.all() and reach.max() <= _MOMENTUM_REACH:
        at = np.flatnonzero(~closed)
        closed[at] = hamiltonian(sign * reach[at], at)[0] > 0.0
        at = at[~closed[at]]
        reach[at] *= 2.0
        closed[at] = reach[at] >= gauss[at]
    p = sign * np.minimum(reach, gauss)
    active, iterations = np.flatnonzero(closed), 0
    while active.size and iterations < _NEWTON_MAX_ITER:
        iterations += 1
        step = hamiltonian(p[active], active)[1]
        # a step that stops moving toward 0 (H <= 0) sits at the root to rounding
        moving = sign * step > 0.0
        p[active[moving]] -= step[moving]
        # a step that is not finite leaves nan, and the row unconverged
        p[active[~np.isfinite(step)]] = np.nan
        active = active[moving & (np.abs(step) > _NEWTON_RTOL * np.abs(p[active]))]
    cost = np.zeros_like(y)
    cost[rows] = np.where(closed & np.isfinite(p), sign * p, math.inf)
    converged = not active.size and bool(np.isfinite(p[closed]).all())
    return cost, iterations, converged


def _gk21(fv: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """QUADPACK's dqk21 on panels of half-length ``half``, from ``fv`` at their ``_GK_NODES``.

    Returns each panel's result, error estimate, and dqk21's ``resabs`` and
    ``resasc``.  Every sum runs in dqk21's order, so each is QUADPACK's bit
    for bit.
    """
    both = np.stack((fv, np.abs(fv)))
    # the centre, then f(c + h x_k) + f(c - h x_k) per pair: of f and of |f|
    sums = both[:, :, :11].copy()
    sums[:, :, 1:] += both[:, :, 11:]
    resk, resg, resabs = np.add.accumulate(sums[[0, 0, 1]] * _GK_WEIGHTS, axis=2)[:, :, -1]
    dev = np.abs(fv - 0.5 * resk[:, None])
    dev[:, 1:11] += dev[:, 11:]
    resasc = np.add.accumulate(dev[:, _GK_NATURAL] * _WGK_NATURAL, axis=1)
    resabs, resasc = resabs * half, resasc[:, -1] * half
    err = np.abs((resk - resg) * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    err = np.where(resabs > _UFLOW / (50.0 * _EPMACH), np.maximum((_EPMACH * 50.0) * resabs, err), err)
    return resk * half, err, resabs, resasc


def quasipotential_1d(
    model: LocalModel,
    attractor: Sequence[float],
    target: Sequence[float],
    *,
    breakpoints: Sequence[float] = (),
) -> ActionValue:
    """Exact escape cost of a one-dimensional model by Hamiltonian quadrature.

    ``V(a, x) = int max(0, s p*(y)) dy`` over the segment from ``a`` to
    ``x``, with ``s = sign(x - a)`` and ``p*(y)`` the nonzero root of
    ``H(y, p) = p b + c p^2 / 2 + sum_j nu_j (e^{p f_j} - 1 - p f_j)``, where
    ``c = sigma sigma^T`` and ``f_j = f_j(y)``.  ``H`` is convex in ``p``
    with ``H(y, 0) = 0`` and slope ``b`` there, so ``H / p`` is increasing
    and vanishes on the side of ``-b``: only stretches where the drift
    opposes the motion cost anything.  Without jumps the root is
    ``-2 b / c``; with jumps Newton's method refines it (:func:`_excess`).
    Where ``H / p`` never changes sign in the direction of motion no path
    passes, and the cost is infinite.

    ``breakpoints`` (the equilibria, where the integrand has kinks) and the
    ends split the segment into panels.  Each panel takes QUADPACK's 21-point
    Gauss-Kronrod rule (dqk21), every node's root solved in one array
    computation with the far end's, and the panels are added left to right:
    bit for bit what ``scipy.integrate.quad`` returns with these
    ``points``, ``epsabs=1e-13`` and ``epsrel=1e-12`` when its first pass
    meets QUADPACK's own accuracy test.  If it does not, the panels of
    largest error estimate are bisected, level by level, until the
    estimates sum to within the tolerance, up to ``quad``'s limit of 200
    panels.

    ``converged`` means that every root converged, the quadrature met its
    tolerance within 200 panels, and QUADPACK's first-pass roundoff test did
    not fire; ``dual_iterations`` is the largest Newton iteration count, 0
    without jumps.  Values reaching ``COST_CAP`` are reported as infinite.
    The starting point must be an equilibrium of the drift within
    ``EQUILIBRIUM_TOL``.
    """
    if model.dim != 1:
        raise ValueError(f"quadrature escape costs need dimension 1, got {model.dim}")
    a, x = _escape_endpoints(model, attractor, target)
    start, end = float(a[0]), float(x[0])
    sign = 1.0 if end >= start else -1.0
    lo, hi = sorted((start, end))
    edges = np.array([lo, *sorted({float(p) for p in breakpoints if lo < p < hi}), hi])
    iterations, converged = 0, True

    def rule(lefts: np.ndarray, rights: np.ndarray, *extra: float) -> tuple[np.ndarray, ...] | None:
        """:func:`_gk21` on each panel, one root solve for its nodes and ``extra``; ``None`` if one is impassable."""
        nonlocal iterations, converged
        half = 0.5 * (rights - lefts)
        nodes = (0.5 * (lefts + rights)[:, None] + half[:, None] * _GK_NODES).ravel()
        cost, newton, roots_converged = _excess(model, sign, np.append(nodes, extra))
        iterations, converged = max(iterations, newton), converged and roots_converged
        if not np.isfinite(cost).all():
            return None
        return _gk21(cost[: nodes.size].reshape(-1, 21), half)

    lefts, rights = edges[:-1], edges[1:]
    # The far end rides along: a target past the last passable state is
    # unreachable even if no quadrature node lands beyond that state.
    first = rule(lefts, rights, end)
    if first is None:
        return ActionValue(math.inf, iterations, converged)
    result, err, resabs, resasc = first
    total, abserr, absum = np.add.accumulate(np.stack([result, err, resabs]), axis=1)[:, -1]
    bound = max(_QUAD_EPSABS, _QUAD_EPSREL * abs(total))
    # QUADPACK's tests of the first pass: qagse's for one panel, qagpe's for more
    roundoff = abserr <= 100.0 * _EPMACH * absum and abserr > bound
    converged = converged and not roundoff
    done = roundoff or abserr <= bound and (len(result) > 1 or abserr != resasc[0]) or abserr == 0.0
    panels = np.column_stack((lefts, rights, result, err))
    while not done:
        # bisect the panels of largest error until the rest hold half the bound
        order = np.argsort(panels[:, 3])
        split = order[np.cumsum(panels[order, 3]) > 0.5 * bound]
        if len(panels) + len(split) > _QUAD_LIMIT:
            converged = False
            break
        left, right = panels[split, 0], panels[split, 1]
        mid = 0.5 * (left + right)
        lefts, rights = np.append(left, mid), np.append(mid, right)
        halves = rule(lefts, rights)
        if halves is None:
            return ActionValue(math.inf, iterations, converged)
        children = np.column_stack((lefts, rights, *halves[:2]))
        panels = np.concatenate((np.delete(panels, split, axis=0), children))
        panels = panels[np.argsort(panels[:, 0])]
        total = np.add.accumulate(panels[:, 2])[-1]
        bound = max(_QUAD_EPSABS, _QUAD_EPSREL * abs(total))
        done = panels[:, 3].sum() <= bound
    value = float(total)
    if value >= COST_CAP:
        value = math.inf
    return ActionValue(value, iterations, converged)


@functools.lru_cache(maxsize=16)
def _flow_quadrature(
    dim: int, matrix: bytes, cov: bytes, vectors: bytes, rates: bytes
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The convex dual's tables of one model: its Gramian, and jump channels along ``e^{B s}``.

    The arguments are the bytes of the model's float arrays: the Hurwitz
    ``(dim, dim)`` drift matrix ``B``, the noise covariance ``c``, the
    ``(J, dim)`` constant jump vectors ``f_j`` and the ``(J,)`` rates
    ``nu_j``.  They are the key of the cache, so the tables are built once
    per model and shared by all of its solves.  The Gramian ``S`` is
    :func:`~quasipot.linear.solve_lyapunov` of ``(B, c)``, which raises
    ``ValueError`` unless ``B`` is Hurwitz.  The jump channels come from a
    quadrature with nodes ``s_k`` and weights ``w_k`` of composite
    Gauss-Legendre panels on ``[0, ln(1e17) / min |Re lambda(B)|]``.  The
    mode of eigenvalue ``lambda`` lives until it has decayed by ``1e17``;
    while it lives the panels are at most ``1 / |lambda|`` wide, which
    resolves fast and oscillating modes as well as slow ones.  There are at
    least 60 panels; without jumps there is no quadrature.

    Returns read-only arrays: ``S`` (d, d), and the jump channels of all
    nodes, their rates ``w_k nu_j`` (K J,) and vectors ``e^{B s_k} f_j``
    (K J, d).
    """
    b = np.frombuffer(matrix).reshape(dim, dim)
    gram = solve_lyapunov(b, np.frombuffer(cov).reshape(dim, dim))
    nu, f = np.frombuffer(rates), np.frombuffer(vectors).reshape(-1, dim)
    if not len(nu):
        return gram, nu, f
    eig = np.linalg.eigvals(b)
    lifetimes = math.log(_FLOW_DECAY) / -eig.real
    horizon = lifetimes.max()
    cuts = np.unique(np.append(0.0, lifetimes))
    edges = [np.zeros(1)]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        fastest = np.abs(eig[lifetimes > lo]).max()
        per_time = max(_FLOW_PANELS / horizon, _FLOW_PANELS_PER_RATE * fastest)
        edges.append(np.linspace(lo, hi, math.ceil((hi - lo) * per_time) + 1)[1:])
    edges = np.concatenate(edges)
    unit, unit_weights = np.polynomial.legendre.leggauss(_FLOW_NODES)
    half = 0.5 * np.diff(edges)[:, None]
    nodes = (edges[:-1, None] + half * (unit + 1.0)).ravel()
    weights = (half * unit_weights).ravel()
    pushed = np.einsum("kde,je->kjd", _expm(nodes[:, None, None] * b), f).reshape(-1, dim)
    nu = np.outer(weights, nu).ravel()
    for arr in (nu, pushed):
        arr.flags.writeable = False
    return gram, nu, pushed


def _dual_tables(model: LocalModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_flow_quadrature` of a model with linear drift and constant jump vectors."""
    arrays = (model.drift.matrix, model.noise_cov, model.jump_values(np.zeros(model.dim)), model.jump_rates)
    return _flow_quadrature(model.dim, *(np.ascontiguousarray(a, dtype=float).tobytes() for a in arrays))


def quasipotential_dual(model: LocalModel, attractor: Sequence[float], target: Sequence[float]) -> ActionValue:
    """Exact escape cost of a linear drift with constant jumps, by convex duality.

    ``V(a, x) = sup_theta [theta . r - Phi(theta)]`` with ``r = x - a`` and
    ``Phi(theta) = int_0^inf K(e^{B^T s} theta) ds`` (module docstring).
    ``Phi`` is the Gaussian part ``theta^T S theta / 2``, with ``S`` the
    Lyapunov Gramian of ``(B, c)`` from
    :func:`~quasipot.linear.solve_lyapunov`, plus the jump part, integrated
    by a fixed quadrature along the flow: on its nodes ``s_k`` with weights
    ``w_k``, one jump channel per node and jump ``j``, of rate ``w_k nu_j``
    and vector ``e^{B s_k} f_j``.  Those tables depend on the model alone:
    :func:`_flow_quadrature` builds them once per model, and every target
    reuses them.  The cost is the local dual with covariance ``S``,
    maximized by the same Newton solve as the Lagrangian; without jumps
    ``V = r^T S^{-1} r / 2``.  ``S`` need not be definite when the jumps
    span the space (``c = 0`` included).  Values reaching ``COST_CAP`` are
    reported as infinite.

    Requires a :class:`~quasipot.models.LinearDrift` whose matrix is Hurwitz
    (else ``ValueError``), jump vectors that do not depend on the state, and
    an equilibrium start within ``EQUILIBRIUM_TOL``.  The Gramian's dense
    solve limits the dimension to ``MAX_LYAPUNOV_DIM`` (20; ``ValueError``
    above it).
    """
    if not isinstance(model.drift, LinearDrift) or model.jump_matrices.any():
        raise ValueError("the convex dual needs a LinearDrift and constant jump vectors")
    gram, rates, pushed = _dual_tables(model)
    a, x = _escape_endpoints(model, attractor, target)
    r = x - a
    with np.errstate(over="ignore", invalid="ignore"):
        val, _, iterations, converged = _dual_batch(r[None], gram, rates, pushed[None])
    if val[0] >= COST_CAP:
        return ActionValue(math.inf, iterations, True)
    return ActionValue(float(val[0]), iterations, bool(converged[0]))
