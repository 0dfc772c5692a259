"""Shared test helpers and the brute-force reference oracles.

``AnalyticDrift`` pairs a test's drift function with its analytic Jacobian,
for fields that are neither linear nor one-dimensional polynomials, or that
must keep one exact floating-point expression.

The oracles are the direct loop forms of what ``src/`` computes faster:
``max_balance_residual_loop`` enumerates every bipartition and prices both
fluxes with ``cost_flux``, and ``min_in_tree_cost_bruteforce`` enumerates
every in-tree.  They stay here, out of the package, as the references for
``maxplus.max_balance_residual`` and ``maxplus.stationary_rates``, whose
rates are the in-tree totals minus their minimum.

``finite_horizon_dual`` is the exact fixed-horizon escape cost of a linear
drift with constant jumps, the reference for ``action.minimize_action``.
``RotatedAffineJumps.cost`` is the exact escape cost of a rotated product
of 1-D OU processes with one affine jump per axis, the reference for the
pipeline's ``minimum_action`` route.

``quasipotential_1d_quad`` is the 1-D escape cost as ``action`` computed
it before its numpy Gauss-Kronrod route: ``scipy.integrate.quad`` over
``brentq`` roots, memoized per model.  Without jumps the package's route
must equal it bit for bit.

``chain_rate`` is ``-(1/n) log`` of the exact stationary law of a
discretized 1-D generator with one constant upward jump, a check of the
``hamiltonian_quadrature`` route with jumps that shares no code with it:
no ``quad``, no ``brentq`` and no Hamiltonian.
"""

import itertools
import math
import weakref
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.optimize

from quasipot.action import COST_CAP, ActionValue, _escape_endpoints, _jump_cumulant, quasipotential_1d
from quasipot.maxplus import CostMatrix, StationaryRates
from quasipot.models import JumpAtom, LinearDrift, LocalModel

@dataclass(frozen=True)
class AnalyticDrift:
    """A batched drift ``(..., d) -> (..., d)`` with its Jacobian ``(..., d, d)`` and ``into``."""

    field: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return self.field(y)

    def into(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        out[...] = self.field(y)


def finite_horizon_dual(model, target: Sequence[float], horizon: float) -> float:
    """Cheapest action from 0 to ``target`` in time ``horizon``, by convex duality.

    For ``b(y) = B y``, constant ``c = sigma sigma^T`` and constant jump
    vectors ``f_j`` the fixed-horizon cost is
    ``sup_theta [theta . x - int_0^T K(e^{B^T s} theta) ds]`` with
    ``K(z) = z^T c z / 2 + sum_j nu_j (e^{z . f_j} - 1 - z . f_j)``.  The
    integral is 50 panels of 8-node Gauss-Legendre with one ``expm`` per node,
    and scipy's ``trust-exact`` maximizes the concave objective.
    """
    b = model.drift.matrix
    cov = model.diffusion @ model.diffusion.T
    nu = model.jump_rates
    f = model.jump_values(np.zeros(model.dim))
    unit, unit_w = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(0.0, horizon, 51)
    half = 0.5 * np.diff(edges)
    nodes = np.concatenate([lo + h * (unit + 1.0) for lo, h in zip(edges[:-1], half)])
    weights = np.concatenate([h * unit_w for h in half])
    flows_t = np.array([scipy.linalg.expm(b.T * s) for s in nodes])  # e^{B^T s}
    x = np.asarray(target, dtype=float)

    def negated(theta):
        z = flows_t @ theta
        jz = z @ f.T
        phi = weights @ (0.5 * np.einsum("kd,de,ke->k", z, cov, z) + (np.expm1(jz) - jz) @ nu)
        dk = z @ cov + (np.expm1(jz) * nu) @ f
        hk = cov + np.einsum("kj,jd,je->kde", np.exp(jz) * nu, f, f)
        grad = np.einsum("k,kdi,kd->i", weights, flows_t, dk)
        hess = np.einsum("k,kdi,kde,kej->ij", weights, flows_t, hk, flows_t)
        return phi - theta @ x, grad - x, hess

    res = scipy.optimize.minimize(
        lambda t: negated(t)[:2], np.zeros(model.dim), jac=True,
        hess=lambda t: negated(t)[2], method="trust-exact", options={"gtol": 1e-12},
    )
    # trust-exact may stop at rounding short of its gtol; the gradient decides
    assert np.abs(res.jac).max() <= 1e-9, res.message
    return -float(res.fun)


class _NoRoot(Exception):
    """``H(y, p) / p`` keeps one sign in the direction of motion."""


#: Largest momentum bracketed before a state counts as impassable.
_MOMENTUM_REACH = 2.0**200

#: Per model object, :func:`_momentum_root` by ``(sign, y)``; an entry dies with its model.
_MOMENTUM_ROOTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _momentum_root(model: LocalModel, sign: float, y: float) -> tuple[float, int, bool] | None:
    """``max(0, s p*(y))`` of :func:`quasipotential_1d_quad`, its ``brentq`` iterations and convergence.

    ``None`` where ``H(y, p) / p`` has no root in the direction ``s = sign``
    up to ``|p| = _MOMENTUM_REACH``.  Where the drift does not oppose the
    motion the cost is 0 and no root is solved.
    """
    state = np.array([[y]])
    b = float(model.drift_at(state)[0, 0])
    if sign * b >= 0.0:
        return 0.0, 0, True
    c, nu = float(model.noise_cov[0, 0]), model.jump_rates
    f = model.jump_values(state)[0, :, 0] if nu.size else None

    def slope(p: float) -> float:
        """``H(y, p) / p``."""
        if p == 0.0:
            return b
        # with no channels the cumulant is exactly 0.0: same float, no numpy call
        jumps = float(_jump_cumulant(nu, p * f)) if nu.size else 0.0
        return b + 0.5 * c * p + jumps / p

    reach = 1.0
    while sign * slope(sign * reach) <= 0.0:
        reach *= 2.0
        if reach > _MOMENTUM_REACH:
            return None
    lo, hi = sorted((0.0, sign * reach))
    root, info = scipy.optimize.brentq(
        slope, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps, full_output=True, disp=False
    )
    return sign * root, info.iterations, info.converged


def quasipotential_1d_quad(
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
    opposes the motion cost anything, and the root is bracketed there and
    refined by ``brentq``.  Where ``H / p`` never changes sign in the
    direction of motion no path passes, and the cost is infinite.

    The integrand depends on the model and ``s`` alone, not on the target,
    and ``quad`` places the same nodes on every shared subinterval between
    breakpoints.  So each root, with its iteration count and convergence,
    is memoized per model object and ``(s, y)`` for as long as the model
    lives: every solve on one model reuses it, and a new model (one per CLI
    command) starts empty.  Each solve folds the memoized counts in as if
    it had solved the roots, so the result is the same bit for bit.  A
    model with no jump channels evaluates ``H / p`` in plain floats; with
    channels the cumulant stays on numpy's ``expm1``, whose last bit
    differs from :func:`math.expm1` on some arguments.

    ``breakpoints`` (the equilibria, where the integrand has kinks) split
    the quadrature.  ``converged`` means that every root solve converged
    and the quadrature raised no warning; ``dual_iterations`` is the largest
    root-solver iteration count.  Values reaching ``COST_CAP`` are reported
    as infinite.  The starting point must be an equilibrium of the drift
    within ``EQUILIBRIUM_TOL``.
    """
    if model.dim != 1:
        raise ValueError(f"quadrature escape costs need dimension 1, got {model.dim}")
    a, x = _escape_endpoints(model, attractor, target)
    start, end = float(a[0]), float(x[0])
    sign = 1.0 if end >= start else -1.0
    roots = _MOMENTUM_ROOTS.setdefault(model, {})
    iterations, roots_converged = 0, True

    def excess(y: float) -> float:
        """``max(0, s p*(y))``: the cost per unit length at ``y``."""
        nonlocal iterations, roots_converged
        key = (sign, y)
        if key not in roots:
            roots[key] = _momentum_root(model, sign, y)
        found = roots[key]
        if found is None:
            raise _NoRoot
        cost, root_iterations, root_converged = found
        iterations = max(iterations, root_iterations)
        roots_converged = roots_converged and root_converged
        return cost

    lo, hi = sorted((start, end))
    inside = sorted({float(p) for p in breakpoints if lo < p < hi})
    try:
        # The far end first: a target past the last passable state is
        # unreachable even if no quadrature node lands beyond that state.
        excess(end)
        value, _abserr, _info, *warning = scipy.integrate.quad(
            excess,
            lo,
            hi,
            points=inside or None,
            limit=200,
            epsabs=1e-13,
            epsrel=1e-12,
            full_output=1,
        )
    except _NoRoot:
        return ActionValue(math.inf, iterations, roots_converged)
    if value >= COST_CAP:
        value = math.inf
    return ActionValue(value, iterations, roots_converged and not warning)


@dataclass(frozen=True)
class RotatedAffineJumps:
    """A rotated product of 1-D OU processes with one affine jump channel per axis.

    In coordinates ``y = R^T x``, with ``R`` the rotation by ``theta``, axis
    ``i`` has drift ``-k_i y_i``, noise ``sigma_i`` and jumps of size
    ``alpha_i + mu_i y_i`` along the axis at rate ``nu_i``.  In ``x`` the
    drift is ``R diag(-k) R^T``, the diffusion ``R diag(sigma)``, and channel
    ``i`` jumps by ``alpha_i R e_i + mu_i R e_i e_i^T R^T x``.  The
    Hamiltonian separates by axis, so ``V(0, x) = sum_i V_i((R^T x)_i)``
    with each ``V_i`` the exact 1-D quadrature ``quasipotential_1d``.
    """

    theta: float = 0.6
    k: tuple[float, float] = (1.0, 0.5)
    sigma: tuple[float, float] = (1.0, 0.7)
    alpha: tuple[float, float] = (0.4, -0.3)
    mu: tuple[float, float] = (0.3, -0.2)
    nu: tuple[float, float] = (0.8, 0.5)

    @property
    def rotation(self) -> np.ndarray:
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c, -s], [s, c]])

    def spec_fields(self) -> dict:
        """The ``dimension``, ``drift``, ``diffusion`` and ``jumps`` of a problem spec."""
        r = self.rotation
        return {
            "dimension": 2,
            "drift": {"kind": "linear", "matrix": (r @ np.diag(-np.array(self.k)) @ r.T).tolist()},
            "diffusion": (r @ np.diag(self.sigma)).tolist(),
            "jumps": [
                {
                    "rate": self.nu[i],
                    "vector": (self.alpha[i] * r[:, i]).tolist(),
                    "matrix": (self.mu[i] * np.outer(r[:, i], r[:, i])).tolist(),
                }
                for i in range(2)
            ],
        }

    def model(self) -> LocalModel:
        """The model of :meth:`spec_fields`."""
        fields = self.spec_fields()
        return LocalModel(
            2,
            LinearDrift(fields["drift"]["matrix"]),
            fields["diffusion"],
            tuple(JumpAtom(j["rate"], j["vector"], j["matrix"]) for j in fields["jumps"]),
        )

    def cost(self, x: Sequence[float]) -> float:
        """Exact escape cost from the origin to ``x``."""
        y = self.rotation.T @ np.asarray(x, dtype=float)
        total = 0.0
        for i in range(2):
            axis = LocalModel(
                1,
                LinearDrift([[-self.k[i]]]),
                [[self.sigma[i]]],
                (JumpAtom(self.nu[i], [self.alpha[i]], [[self.mu[i]]]),),
            )
            res = quasipotential_1d(axis, [0.0], [y[i]], breakpoints=[0.0])
            assert res.converged
            total += res.value
        return total


def chain_rate(
    potential: Sequence[float],
    sigma: float,
    rate: float,
    size: float,
    n: int,
    cells_per_jump: int,
    points: np.ndarray,
    box: tuple[float, float],
) -> np.ndarray:
    """``I_n(x) = -(1/n) log pi_n(x) - min``, from the generator of a grid chain at scale ``n``.

    The process is ``dX = b dt + n^{-1/2} sigma dW`` plus compensated jumps
    of ``size / n > 0`` at rate ``n rate``, with ``b = -U'`` for the
    polynomial ``U`` of ascending ``potential`` coefficients.  On the grid of
    step ``h = size / (n k)``, ``k = cells_per_jump``, over ``box``:

    - drift and diffusion move one cell by the Scharfetter-Gummel rates
      (*IEEE Trans. Electron Devices* 16, 1969) of the compensated drift
      ``b - rate * size`` at the edge midpoint and ``D = sigma^2 / (2n)``:
      ``D/h^2 B(-z)`` up and ``D/h^2 B(z)`` down, ``z = (b - rate size) h / D``,
      ``B(z) = z / (e^z - 1)``; without jumps their ratio ``e^z`` is the
      exact Gibbs ratio of a piecewise constant drift;
    - each jump moves ``k`` cells up; past the top cell it lands there.

    The chain moves down one cell at a time, so across the cut between
    cells ``i`` and ``i + 1`` the stationary law balances exactly:
    ``pi_{i+1} down_i = pi_i up_i + n rate sum_{m=i-k+1}^{i} pi_m``.  That
    is the Grassmann-Taksar-Heyman elimination (*Oper. Res.* 33, 1985) in
    closed form, run upward from the bottom cell in log space, with O(N k)
    work and no linear solve or underflow.  The law below a cell does not
    depend on the cells above it.  ``I_n`` is linearly interpolated at
    ``points``.  A downward jump makes the chain's lower bandwidth ``k`` and
    breaks the recursion; a jump size that varies with the state does not
    land on whole cells.  Neither is covered.
    """
    h = size / (n * cells_per_jump)
    lower, upper = box
    x = lower + h * np.arange(math.ceil((upper - lower) / h) + 1)
    slope = np.polynomial.polynomial.polyder(potential)
    drift = -np.polynomial.polynomial.polyval(x[:-1] + 0.5 * h, slope) - rate * size
    diffusion = sigma**2 / (2 * n)
    z = drift * h / diffusion

    def bernoulli(t: np.ndarray) -> np.ndarray:
        out = np.ones_like(t)
        return np.divide(t, np.expm1(t), out=out, where=t != 0.0)

    up = (diffusion / h**2 * bernoulli(-z)).tolist()
    log_down = np.log(diffusion / h**2 * bernoulli(z)).tolist()
    jump = n * rate
    log_pi = [0.0]
    for i, (u, ld) in enumerate(zip(up, log_down)):
        here = log_pi[i]
        window = sum(math.exp(q - here) for q in log_pi[max(0, i - cells_per_jump + 1) :])
        log_pi.append(here + math.log(u + jump * window) - ld)
    log_pi = np.array(log_pi)
    return np.interp(points, x, (log_pi.max() - log_pi) / n)


#: Largest attractor set for which exhaustive in-tree enumeration is allowed
#: (the count grows like ``n**(n-1)`` candidate parent maps).
MAX_ENUMERATION_SIZE = 7


def make_cost_matrix(rng: np.random.Generator, size: int, inf_prob: float = 0.0) -> CostMatrix:
    """Random nonnegative cost matrix with an optional unreachable pattern.

    Every row keeps at least one finite off-diagonal entry so that states
    can always leave; that makes fully-degenerate instances (every root
    unreachable) vanishingly rare even with aggressive ``inf_prob``.
    """
    entries = rng.uniform(0.05, 3.0, size=(size, size))
    if inf_prob > 0.0:
        mask = rng.random((size, size)) < inf_prob
        entries[mask] = np.inf
    np.fill_diagonal(entries, 0.0)
    for i in range(size):
        off = [j for j in range(size) if j != i]
        if off and not np.isfinite(entries[i, off]).any():
            entries[i, off[int(rng.integers(len(off)))]] = float(rng.uniform(0.05, 3.0))
    return CostMatrix(tuple(f"a{k}" for k in range(size)), entries)


@pytest.fixture
def cost_factory():
    return make_cost_matrix


def is_closed(costs: CostMatrix, tol: float = 0.0) -> bool:
    """Whether every entry already satisfies the triangle inequality."""
    a = costs.entries
    # Index layout: [i, k, j] -> a[i, k] + a[k, j], minimized over k.
    two_step = np.min(a[:, :, None] + a[None, :, :], axis=1)
    # two_step[i, j] <= a[i, j] always holds (take k = i), so closedness is
    # the reverse inequality; inf <= inf holds for unreachable pairs.
    return bool(np.all(a <= two_step + tol))


def cost_flux(
    rates: StationaryRates,
    costs: CostMatrix,
    source: Sequence[str],
    target: Sequence[str],
) -> float:
    """Cheapest escape flux ``min_{a in source} (rate(a) + min_{b in target} I(a, b))``."""
    src = [costs.index(lab) for lab in source]
    tgt = [costs.index(lab) for lab in target]
    if not src or not tgt:
        raise ValueError("source and target sets must be nonempty")
    if set(src) & set(tgt):
        raise ValueError("source and target sets must be disjoint")
    block = costs.entries[np.ix_(src, tgt)]
    per_source = block.min(axis=1)
    return float(np.min(rates.rates[src] + per_source))


def max_balance_residual_loop(rates: StationaryRates, costs: CostMatrix) -> float:
    """Largest flux balance residual, one bipartition at a time.

    Pinning ``labels[0]`` to the left side visits each of the
    ``2**(n-1) - 1`` unordered bipartitions exactly once.  Two infinite
    fluxes balance (residual 0).
    """
    labels = costs.labels
    rest = labels[1:]
    worst = 0.0
    for k in range(len(rest)):
        for combo in itertools.combinations(rest, k):
            left = (labels[0],) + combo
            right = tuple(lab for lab in rest if lab not in combo)
            fwd = cost_flux(rates, costs, left, right)
            bwd = cost_flux(rates, costs, right, left)
            resid = 0.0 if math.isinf(fwd) and math.isinf(bwd) else abs(fwd - bwd)
            worst = max(worst, resid)
    return worst


def _parent_maps(labels: tuple[str, ...], root: str) -> tuple[list[int], Iterator[tuple[int, ...]]]:
    """The non-root indices, and every parent map on them in lexicographic order.

    Entry ``k`` of a map is the parent index of ``children[k]``; maps with
    cycles are included.
    """
    if root not in labels:
        raise ValueError(f"root {root!r} is not among the labels")
    if len(labels) > MAX_ENUMERATION_SIZE:
        raise ValueError(
            f"refusing to enumerate in-trees on more than "
            f"{MAX_ENUMERATION_SIZE} labels (got {len(labels)})"
        )
    n = len(labels)
    children = [c for c, lab in enumerate(labels) if lab != root]
    return children, itertools.product(*([p for p in range(n) if p != c] for c in children))


def _is_in_tree(children: list[int], parents: tuple[int, ...], root: int) -> bool:
    """Whether every chain of ``children[k] -> parents[k]`` reaches ``root``."""
    parent = dict(zip(children, parents))
    for start in children:
        node = start
        for _ in range(len(children)):
            if node == root:
                break
            node = parent[node]
        if node != root:
            return False
    return True


def enumerate_in_trees(labels: tuple[str, ...], root: str) -> Iterator[dict[str, str]]:
    """Yield every in-tree on ``labels`` rooted at ``root`` exactly once.

    A tree is its parent map, child label to parent label, and following
    parents from any label reaches ``root``.  Trees appear in lexicographic
    order of their parent map read along the non-root labels in the order
    given.  Sets larger than ``MAX_ENUMERATION_SIZE`` are refused.
    """
    children, maps = _parent_maps(labels, root)
    r = labels.index(root)
    for parents in maps:
        if _is_in_tree(children, parents, r):
            yield {labels[c]: labels[p] for c, p in zip(children, parents)}


def min_in_tree_cost_bruteforce(costs: CostMatrix, root: str) -> float:
    """Exact minimum in-tree total cost by exhaustive enumeration.

    Each total sums ``I(child, parent)`` in sorted child-label order; it is
    ``inf`` when no in-tree rooted at ``root`` has finite cost.  Only a map
    that would improve on the best total is checked for cycles.
    """
    labels = costs.labels
    children, maps = _parent_maps(labels, root)
    rows = costs.entries.tolist()
    order = sorted(range(len(children)), key=lambda k: labels[children[k]])
    r = labels.index(root)
    best = math.inf
    for parents in maps:
        total = 0.0
        for k in order:
            total += rows[children[k]][parents[k]]
        if total < best and _is_in_tree(children, parents, r):
            best = total
    return best
