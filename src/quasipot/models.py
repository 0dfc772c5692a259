"""Containers for small-noise jump-diffusion models and discrete paths.

A model is a drift field ``b``, a constant ``(d, m)`` diffusion matrix
``sigma`` and a finite family of jump channels, each with a constant
arrival rate and a state-dependent jump vector.  Drift and jump maps must
accept batched input: an array of shape ``(..., d)`` maps to ``(..., d)``.

The local covariance ``c(y) = sigma sigma^T + sum_j nu_j f_j f_j^T`` governs
nondegeneracy: every routine that inverts it checks positive definiteness
first and raises a clear error instead of propagating a numerical one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

Field = Callable[[np.ndarray], np.ndarray]


def constant_jump(vector: Sequence[float]) -> Field:
    """Jump map returning the same vector at every state."""
    vec = np.asarray(vector, dtype=float)
    if vec.ndim != 1:
        raise ValueError("jump vector must be one-dimensional")

    def f(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return np.broadcast_to(vec, y.shape).copy()

    return f


def affine_jump(vector: Sequence[float], matrix: Sequence[Sequence[float]]) -> Field:
    """Jump map ``y -> vector + matrix @ y``."""
    vec = np.asarray(vector, dtype=float)
    mat = np.asarray(matrix, dtype=float)
    if vec.ndim != 1 or mat.shape != (vec.shape[0], vec.shape[0]):
        raise ValueError("need a d-vector and a d x d matrix")

    def f(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return vec + y @ mat.T

    return f


@dataclass(frozen=True)
class JumpAtom:
    """One jump channel: constant arrival rate and state-dependent size."""

    rate: float
    jump: Field

    def __post_init__(self) -> None:
        if not (self.rate > 0) or not np.isfinite(self.rate):
            raise ValueError(f"jump rate must be positive and finite, got {self.rate}")


@dataclass(frozen=True, eq=False)
class LocalModel:
    """Jump diffusion ``dX = b dt + n^{-1/2} sigma dW + jump noise``.

    ``drift`` maps ``(..., d) -> (..., d)``.  ``diffusion`` is a constant
    ``(d, m)`` matrix; it is stored read-only together with ``sigma sigma^T``.
    Jump channels fire at rate ``n * nu_j`` with increments ``f_j(X) / n``,
    so drift, diffusion and jumps all contribute at the same exponential
    order as the scale parameter ``n`` grows.
    """

    dim: int
    drift: Field
    diffusion: np.ndarray
    jumps: tuple[JumpAtom, ...] = ()
    _noise_cov: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        if callable(self.diffusion):
            raise ValueError("diffusion must be a constant (d, m) matrix, not a callable")
        sig = np.array(self.diffusion, dtype=float)
        if sig.ndim != 2 or sig.shape[0] != self.dim:
            raise ValueError(f"diffusion must be a ({self.dim}, m) matrix, got shape {sig.shape}")
        cov = sig @ sig.T
        sig.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "diffusion", sig)
        object.__setattr__(self, "_noise_cov", cov)
        object.__setattr__(self, "jumps", tuple(self.jumps))

    # -- evaluation helpers ------------------------------------------------

    def drift_at(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        out = np.asarray(self.drift(y), dtype=float)
        if out.shape != y.shape:
            raise ValueError(f"drift returned shape {out.shape}, expected {y.shape}")
        return out

    def diffusion_at(self, y: np.ndarray) -> np.ndarray:
        """``sigma`` at ``y``: a read-only view of shape ``(..., d, m)``."""
        return np.broadcast_to(self.diffusion, np.shape(y)[:-1] + self.diffusion.shape)

    def jump_values(self, y: np.ndarray) -> np.ndarray:
        """Stacked jump sizes, shape ``(..., n_jumps, d)``."""
        y = np.asarray(y, dtype=float)
        if not self.jumps:
            return np.zeros(y.shape[:-1] + (0, self.dim))
        vals = [np.asarray(atom.jump(y), dtype=float) for atom in self.jumps]
        for v in vals:
            if v.shape != y.shape:
                raise ValueError(f"jump map returned shape {v.shape}, expected {y.shape}")
        return np.stack(vals, axis=-2)

    @property
    def jump_rates(self) -> np.ndarray:
        return np.array([atom.rate for atom in self.jumps])

    def noise_covariance(self, y: np.ndarray) -> np.ndarray:
        """``sigma sigma^T`` at ``y``: a read-only view of shape ``(..., d, d)``."""
        return np.broadcast_to(self._noise_cov, np.shape(y)[:-1] + self._noise_cov.shape)

    def jump_covariance(self, y: np.ndarray) -> np.ndarray:
        """``sum_j nu_j f_j f_j^T`` at ``y``, shape ``(..., d, d)``."""
        y = np.asarray(y, dtype=float)
        f = self.jump_values(y)
        if f.shape[-2] == 0:
            return np.zeros(y.shape[:-1] + (self.dim, self.dim))
        nu = self.jump_rates
        return np.einsum("...jk,...jl,j->...kl", f, f, nu)

    def local_covariance(self, y: np.ndarray) -> np.ndarray:
        """Total second-order coefficient ``c(y)``."""
        return self.noise_covariance(y) + self.jump_covariance(y)

    def assert_nondegenerate(self, y: np.ndarray) -> None:
        """Raise unless ``c(y)`` is positive definite at every given state."""
        c = self.local_covariance(np.asarray(y, dtype=float))
        flat = c.reshape(-1, self.dim, self.dim)
        for k, mat in enumerate(flat):
            try:
                np.linalg.cholesky(mat)
            except np.linalg.LinAlgError:
                raise ValueError(
                    "local covariance is degenerate at a requested state "
                    f"(index {k} of the batch); the action is not defined there"
                ) from None


@dataclass(frozen=True, eq=False)
class Path:
    """A discrete path: ``N + 1`` states at uniform times on ``[0, horizon]``."""

    horizon: float
    points: np.ndarray

    def __post_init__(self) -> None:
        if not (self.horizon > 0) or not np.isfinite(self.horizon):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"points must be (N+1, d), got shape {pts.shape}")
        if pts.shape[0] < 3:
            raise ValueError("need at least two segments (three points)")
        if not np.isfinite(pts).all():
            raise ValueError("path points must be finite")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def num_segments(self) -> int:
        return self.points.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def dt(self) -> float:
        return self.horizon / self.num_segments

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.points.shape[0])
