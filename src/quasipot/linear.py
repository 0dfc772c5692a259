"""Closed forms for linear drift: Gramian quasipotentials and escape paths.

For a stable linear drift ``b(x) = Db x`` with constant local covariance
``c`` (diffusion plus jump second moments), the quasipotential from the
origin is the explicit quadratic ``I(r) = 0.5 r^T G^{-1} r`` where ``G``
solves the continuous Lyapunov equation ``Db G + G Db^T + c = 0``,
equivalently ``G = int_0^inf e^{Db t} c e^{Db^T t} dt``.  Finite-horizon
versions replace ``G`` by the truncated integral ``G_T``, and the optimal
path reaching ``r`` at time ``T`` is ``X_s = G_s e^{Db^T (T - s)} G_T^{-1} r``.

This parametrization only involves decaying matrix exponentials, so it is
numerically stable for large horizons, unlike the equivalent form that
propagates ``e^{-Db t}`` forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .models import DegenerateCovariance, Path

#: Largest state dimension for the dense Kronecker Lyapunov solve.
MAX_LYAPUNOV_DIM = 20

#: Relative Frobenius residual allowed for the Lyapunov solution.
LYAPUNOV_RESIDUAL_TOL = 1e-10

#: Matrix exponents beyond this would overflow double precision.
MAX_EXPONENT = 700.0


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Linearized dynamics at an attractor: stable ``Db`` and covariance ``c``.

    ``Db`` must be Hurwitz (all eigenvalue real parts strictly negative),
    ``c`` symmetric positive semidefinite, and the Lyapunov Gramian positive
    definite; all three are validated on construction, and a failed
    semidefinite or definite test raises :class:`DegenerateCovariance`.  The
    first two tests belong to :func:`solve_lyapunov`, which the convex dual
    shares; the definite test is the closed forms' own.  A singular ``c``
    passes when the drift carries the noise into every direction (``(Db,
    c)`` controllable).  The Gramian is kept, read-only; so is each table of
    :meth:`flow`.
    """

    drift_matrix: np.ndarray
    covariance: np.ndarray
    _flows: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        db = np.asarray(self.drift_matrix, dtype=float)
        c = np.asarray(self.covariance, dtype=float)
        if db.ndim != 2 or db.shape[0] != db.shape[1]:
            raise ValueError(f"drift matrix must be square, got shape {db.shape}")
        d = db.shape[0]
        if c.shape != (d, d):
            raise ValueError(f"covariance must be {d}x{d}, got shape {c.shape}")
        if not (np.isfinite(db).all() and np.isfinite(c).all()):
            raise ValueError("matrices must be finite")
        if not np.allclose(c, c.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(c).max())):
            raise ValueError("covariance must be symmetric")
        c = 0.5 * (c + c.T)
        db = db.copy()
        db.flags.writeable = False
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "drift_matrix", db)
        object.__setattr__(self, "covariance", c)
        try:
            np.linalg.cholesky(self.gramian)
        except np.linalg.LinAlgError:
            raise DegenerateCovariance(
                "the Lyapunov Gramian is degenerate: the drift does not carry the noise into "
                "every direction, and the closed forms need it positive definite"
            ) from None

    @property
    def dim(self) -> int:
        return self.drift_matrix.shape[0]

    @property
    def decay_rate(self) -> float:
        """Slowest decay rate ``min |Re eigenvalue|`` of the drift."""
        return float(-np.linalg.eigvals(self.drift_matrix).real.max())

    @cached_property
    def gramian(self) -> np.ndarray:
        """The Gramian of :func:`solve_lyapunov`, solved once per model."""
        return solve_lyapunov(self.drift_matrix, self.covariance)

    def flow(self, s, *, transpose: bool = False) -> np.ndarray:
        """``e^{Db s}``, or ``e^{Db^T s}``: ``(d, d)`` at one time, ``(K, d, d)`` at ``K``.

        Each time grid is exponentiated once per model and kept, read-only:
        ``run_linear`` evaluates every displacement on the same grids.
        """
        s = np.asarray(s, dtype=float)
        key = (transpose, s.shape, s.tobytes())
        table = self._flows.get(key)
        if table is None:
            db = self.drift_matrix.T if transpose else self.drift_matrix
            table = _expm(np.multiply.outer(s, db))
            table.flags.writeable = False
            self._flows[key] = table
        return table


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of each matrix in a ``(..., d, d)`` stack.

    A ``1 x 1`` exponential is the scalar one, which is exactly what
    ``scipy.linalg.expm`` returns for that shape; only larger matrices load
    scipy.
    """
    if a.shape[-2:] == (1, 1):
        return np.exp(a)
    import scipy.linalg

    return scipy.linalg.expm(a)


def solve_lyapunov(db: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Controllability Gramian ``G`` with ``Db G + G Db^T + c = 0``, read-only.

    Raises ``ValueError`` unless ``Db`` is Hurwitz, and
    :class:`DegenerateCovariance` if ``c`` has a negative eigenvalue.
    Solved densely through the Kronecker lift (a ``d^2 x d^2`` linear
    system), which is exact up to roundoff for the moderate dimensions this
    package targets; above ``MAX_LYAPUNOV_DIM`` it raises ``ValueError``.
    The residual is verified against ``LYAPUNOV_RESIDUAL_TOL`` relative to
    ``|c|_F`` (else ``ArithmeticError``).  A singular ``c``, even ``0``, is
    solved: whether ``G`` is definite is for the caller to decide.
    """
    alpha = np.linalg.eigvals(db).real.max()
    if not alpha < 0:
        raise ValueError(f"drift matrix must be Hurwitz; largest eigenvalue real part is {alpha:.3g}")
    if np.linalg.eigvalsh(c).min() < -1e-12 * max(1.0, np.abs(c).max()):
        raise DegenerateCovariance("the covariance has a negative eigenvalue")
    d = db.shape[0]
    if d > MAX_LYAPUNOV_DIM:
        raise ValueError(f"dense Lyapunov solve limited to dimension {MAX_LYAPUNOV_DIM}, got {d}")
    eye = np.eye(d)
    lift = np.kron(db, eye) + np.kron(eye, db)
    g = np.linalg.solve(lift, -c.reshape(-1)).reshape(d, d)
    g = 0.5 * (g + g.T)
    residual = np.linalg.norm(db @ g + g @ db.T + c, "fro")
    scale = np.linalg.norm(c, "fro")
    if residual > LYAPUNOV_RESIDUAL_TOL * scale:
        raise ArithmeticError(
            f"Lyapunov residual {residual:.3g} exceeds {LYAPUNOV_RESIDUAL_TOL:.0e} * |c|_F"
        )
    g.flags.writeable = False
    return g


def lyapunov_gramian(model: LinearModel) -> np.ndarray:
    """:func:`solve_lyapunov` of the model, solved once: every call returns the same array."""
    return model.gramian


def quadratic_rate(model: LinearModel, displacement) -> float:
    """Quasipotential ``0.5 r^T G^{-1} r`` of a displacement from the attractor."""
    r = np.asarray(displacement, dtype=float)
    if r.shape != (model.dim,):
        raise ValueError(f"displacement must be a vector of dimension {model.dim}")
    g = lyapunov_gramian(model)
    return 0.5 * float(r @ np.linalg.solve(g, r))


def finite_horizon_gramian(model: LinearModel, horizon: float) -> np.ndarray:
    """Truncated Gramian ``G_T = int_0^T e^{Db s} c e^{Db^T s} ds``.

    Computed by the exact identity of :func:`_gramian_interval` from the
    Lyapunov Gramian; the exponential decays, so no overflow protection is
    needed.
    """
    if not (horizon > 0) or not math.isfinite(horizon):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    out = _gramian_interval(model, lyapunov_gramian(model), horizon)
    return 0.5 * (out + out.T)


def _gramian_interval(model: LinearModel, gram: np.ndarray, s) -> np.ndarray:
    """``G_s`` from the exact identity ``G_s = G - e^{Db s} G e^{Db^T s}``.

    ``s`` is one time, giving ``(d, d)``, or an array of ``K`` times, giving
    ``(K, d, d)``.
    """
    e = model.flow(s)
    return gram - e @ gram @ np.swapaxes(e, -1, -2)


def finite_horizon_path(
    model: LinearModel, displacement, horizon: float, num_segments: int
) -> Path:
    """Action-minimizing path from the attractor to ``r`` in time ``T``.

    Sampled at ``num_segments + 1`` uniform times as
    ``X_s = G_s e^{Db^T (T - s)} G_T^{-1} r``; the endpoint equals ``r`` up
    to a single linear solve.  Horizons with ``max |Re lambda(Db)| * T``
    beyond the double-precision exponent range are refused with a suggested
    maximum: the fastest mode, not the slowest ``decay_rate``, is the one
    whose ``e^{-Db t}`` overflows first, and results there could not be
    validated against the unstable propagated form.
    """
    r = np.asarray(displacement, dtype=float)
    if r.shape != (model.dim,):
        raise ValueError(f"displacement must be a vector of dimension {model.dim}")
    if not (horizon > 0) or not math.isfinite(horizon):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if num_segments < 2:
        raise ValueError("need at least two segments")
    rho = float(np.abs(np.linalg.eigvals(model.drift_matrix).real).max())
    if rho * horizon > MAX_EXPONENT:
        raise ValueError(
            f"horizon {horizon:g} exceeds the overflow-safe maximum "
            f"{MAX_EXPONENT / rho:.6g} for this drift"
        )
    gram = lyapunov_gramian(model)
    coeff = np.linalg.solve(_gramian_interval(model, gram, horizon), r)
    times = np.linspace(0.0, horizon, num_segments + 1)
    back = model.flow(horizon - times, transpose=True)
    return Path(horizon, _gramian_interval(model, gram, times) @ back @ coeff)


def escape_profile_limit(model: LinearModel, displacement, backward_time) -> np.ndarray:
    """Infinite-horizon escape profile ``t`` time units before arrival at ``r``.

    The finite-horizon optimizers, reindexed by time before arrival,
    converge to ``phi(t) = G e^{Db^T t} G^{-1} r`` as the horizon grows.
    ``phi(0) = r`` and the profile decays to the attractor as ``t`` grows.
    One time gives shape ``(d,)``; an array of ``K`` times gives ``(K, d)``.
    """
    r = np.asarray(displacement, dtype=float)
    if r.shape != (model.dim,):
        raise ValueError(f"displacement must be a vector of dimension {model.dim}")
    t = np.asarray(backward_time, dtype=float)
    if not np.all((t >= 0) & np.isfinite(t)):
        raise ValueError(f"backward time must be nonnegative and finite, got {backward_time}")
    gram = lyapunov_gramian(model)
    return gram @ model.flow(t, transpose=True) @ np.linalg.solve(gram, r)
