"""Containers for small-noise jump-diffusion models and discrete paths.

A model is a drift field ``b``, a constant ``(d, m)`` diffusion matrix
``sigma`` and a finite family of jump channels, each with a constant
arrival rate and an affine jump vector ``f_j(y) = a_j + M_j y``.  The drift
is a :class:`LinearDrift` or :class:`PolynomialDrift`: batched, ``(..., d)``
to ``(..., d)``, with its exact ``jacobian``, ``(..., d)`` to ``(..., d, d)``.

The local covariance ``c(y) = sigma sigma^T + sum_j nu_j f_j f_j^T`` governs
nondegeneracy: every routine that inverts it checks positive definiteness
first and raises :class:`DegenerateCovariance` instead of a numerical error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np
from numpy.polynomial import polynomial as P


@dataclass(frozen=True, eq=False)
class LinearDrift:
    """Linear drift ``b(y) = matrix @ y``, whose Jacobian is ``matrix`` everywhere.

    The square matrix is stored read-only.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"drift matrix must be square, got shape {mat.shape}")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(y, dtype=float) @ self.matrix.T

    def jacobian(self, y: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.matrix, np.shape(y)[:-1] + self.matrix.shape)


@dataclass(frozen=True, eq=False)
class PolynomialDrift:
    """One-dimensional drift ``b(y) = sum_k coefficients[k] y^k``.

    Coefficients are in ascending order.  They and the derivative's
    coefficients, computed once, are stored read-only.
    """

    coefficients: np.ndarray
    _derivative: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        coeffs = np.array(self.coefficients, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError(f"coefficients must be a nonempty vector, got shape {coeffs.shape}")
        deriv = P.polyder(coeffs)
        for name, arr in (("coefficients", coeffs), ("_derivative", deriv)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return P.polyval(y[..., 0], self.coefficients)[..., None]

    def jacobian(self, y: np.ndarray) -> np.ndarray:
        return P.polyval(np.asarray(y, dtype=float)[..., 0], self._derivative)[..., None, None]


Drift = LinearDrift | PolynomialDrift


@dataclass(frozen=True, eq=False)
class JumpAtom:
    """One jump channel: arrival rate ``nu`` and jump vector ``f(y) = vector + matrix @ y``.

    ``matrix=None`` is a constant jump and is stored as zeros.  Both arrays
    are stored read-only.
    """

    rate: float
    vector: np.ndarray
    matrix: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not (self.rate > 0) or not np.isfinite(self.rate):
            raise ValueError(f"jump rate must be positive and finite, got {self.rate}")
        vec = np.array(self.vector, dtype=float)
        if vec.ndim != 1:
            raise ValueError(f"jump vector must be one-dimensional, got shape {vec.shape}")
        d = vec.shape[0]
        mat = np.zeros((d, d)) if self.matrix is None else np.array(self.matrix, dtype=float)
        if mat.shape != (d, d):
            raise ValueError(f"jump matrix must be ({d}, {d}), got shape {mat.shape}")
        vec.flags.writeable = False
        mat.flags.writeable = False
        object.__setattr__(self, "vector", vec)
        object.__setattr__(self, "matrix", mat)


class DegenerateCovariance(ValueError):
    """The covariance is singular where the action needs it: the action is not defined there."""


@dataclass(frozen=True, eq=False)
class LocalModel:
    """Jump diffusion ``dX = b dt + n^{-1/2} sigma dW + jump noise``.

    ``drift`` maps ``(..., d) -> (..., d)`` and has a ``jacobian``; ``diffusion``
    is a constant ``(d, m)`` matrix, stored read-only with ``noise_cov = sigma sigma^T``.
    Jump channels fire at rate ``n * nu_j`` with increments ``f_j(X) / n``,
    so drift, diffusion and jumps all contribute at the same exponential
    order as the scale parameter ``n`` grows.  The channels' rates ``(J,)``,
    vectors ``(J, d)`` and matrices ``(J, d, d)`` are stacked once, read-only.
    """

    dim: int
    drift: Drift
    diffusion: np.ndarray
    jumps: tuple[JumpAtom, ...] = ()
    noise_cov: np.ndarray = field(init=False, repr=False)
    jump_rates: np.ndarray = field(init=False, repr=False)
    _jump_vectors: np.ndarray = field(init=False, repr=False)
    jump_matrices: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        if not callable(getattr(self.drift, "jacobian", None)):
            raise ValueError("drift must carry its Jacobian, as LinearDrift and PolynomialDrift do")
        if callable(self.diffusion):
            raise ValueError("diffusion must be a constant (d, m) matrix, not a callable")
        sig = np.array(self.diffusion, dtype=float)
        if sig.ndim != 2 or sig.shape[0] != self.dim:
            raise ValueError(f"diffusion must be a ({self.dim}, m) matrix, got shape {sig.shape}")
        jumps = tuple(self.jumps)
        j, d = len(jumps), self.dim
        for atom in jumps:
            if atom.vector.shape != (d,):
                raise ValueError(f"jump vector must have length {d}, got shape {atom.vector.shape}")
        stored = {
            "diffusion": sig,
            "noise_cov": sig @ sig.T,
            "jump_rates": np.array([atom.rate for atom in jumps], dtype=float),
            "_jump_vectors": np.array([atom.vector for atom in jumps]).reshape(j, d),
            "jump_matrices": np.array([atom.matrix for atom in jumps]).reshape(j, d, d),
        }
        for name, arr in stored.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "jumps", jumps)

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
        """Stacked jump vectors ``f_j(y)``, shape ``(..., n_jumps, d)``."""
        y = np.asarray(y, dtype=float)
        j, d = self._jump_vectors.shape
        # one product for all channels: bit-identical to ``a_j + y @ M_j.T`` per channel, unlike einsum
        maps = y @ self.jump_matrices.reshape(j * d, d).T
        return self._jump_vectors + maps.reshape(y.shape[:-1] + (j, d))

    def jump_covariance(self, y: np.ndarray) -> np.ndarray:
        """``sum_j nu_j f_j f_j^T`` at ``y``, shape ``(..., d, d)``."""
        f = self.jump_values(y)
        return np.einsum("...jk,...jl,j->...kl", f, f, self.jump_rates)

    def local_covariance(self, y: np.ndarray) -> np.ndarray:
        """Total second-order coefficient ``c(y)``."""
        return self.noise_cov + self.jump_covariance(y)

    def assert_nondegenerate(self, y: np.ndarray) -> None:
        """Raise unless ``c(y)`` is positive definite at every given state."""
        c = self.local_covariance(np.asarray(y, dtype=float))
        flat = c.reshape(-1, self.dim, self.dim)
        for k, mat in enumerate(flat):
            try:
                np.linalg.cholesky(mat)
            except np.linalg.LinAlgError:
                raise DegenerateCovariance(
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
