"""Containers for small-noise jump-diffusion models and discrete paths.

A model is a drift field ``b``, a constant ``(d, m)`` diffusion matrix
``sigma`` and a finite family of jump channels, each with a constant
arrival rate and an affine jump vector ``f_j(y) = a_j + M_j y``.  The drift
is a :class:`LinearDrift` or :class:`PolynomialDrift`.  Both keep one protocol:
``drift(y)`` maps ``(..., d)`` to ``(..., d)``; ``drift.jacobian(y)`` is its exact
Jacobian, ``(..., d)`` to ``(..., d, d)``; and ``drift.into(y, out)`` writes ``drift(y)``,
bit for bit, into a preallocated ``out`` of ``y``'s shape.  ``out`` must not
alias ``y``: the Horner steps read ``y`` after the first write to ``out``.

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

    def into(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        return np.matmul(y, self.matrix.T, out)

    def jacobian(self, y: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.matrix, np.shape(y)[:-1] + self.matrix.shape)


def _horner_plan(coefficients: np.ndarray) -> tuple[float, tuple[float | None, ...]]:
    """``P.polyval(x, coefficients)`` as ``(start, steps)`` for :func:`_horner`, in plain floats.

    polyval forms ``c[-1] + x*0``, then ``c[k] + acc*x`` for ``k = n-2, ..., 0``.  The plan
    keeps that order but drops two kinds of step that change no float on finite input: it
    starts from ``x * c[-1]`` if ``c[-1] != 0``, and it never adds ``-0.0``.
    """
    *rest, lead = map(float, coefficients)
    start, steps = (lead, [rest.pop()]) if rest and lead else (0.0, [lead])
    for a in reversed(rest):
        steps += [None, a]
    return start, tuple(a for a in steps if a is None or a or not np.signbit(a))


def _horner(x: np.ndarray, plan: tuple, out: np.ndarray) -> np.ndarray:
    """For ``plan = (start, steps)``: ``out = x * start``, then ``out *= x`` for None, ``out += a`` for ``a``."""
    multiply, add = np.multiply, np.add
    start, steps = plan
    multiply(x, start, out)
    for a in steps:
        if a is None:
            multiply(out, x, out)
        else:
            add(out, a, out)
    return out


@dataclass(frozen=True, eq=False)
class PolynomialDrift:
    """One-dimensional drift ``b(y) = sum_k coefficients[k] y^k``.

    Coefficients are in ascending order and stored read-only.  The drift and its
    derivative equal ``P.polyval`` bit for bit on finite input, by one Horner plan
    each, made once, that skips polyval's ``c[-1] + x*0`` start where ``c[-1] != 0``
    and every addition of ``-0.0``, the zero that ``gradient_polynomial`` makes.
    """

    coefficients: np.ndarray
    _value_plan: tuple = field(init=False, repr=False)
    _slope_plan: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        coeffs = np.array(self.coefficients, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError(f"coefficients must be a nonempty vector, got shape {coeffs.shape}")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "_value_plan", _horner_plan(coeffs))
        object.__setattr__(self, "_slope_plan", _horner_plan(P.polyder(coeffs)))

    def __call__(self, y: np.ndarray) -> np.ndarray:
        x = np.asarray(y, dtype=float)[..., :1]
        return _horner(x, self._value_plan, np.empty_like(x))

    def into(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        return _horner(y, self._value_plan, out)

    def jacobian(self, y: np.ndarray) -> np.ndarray:
        x = np.asarray(y, dtype=float)[..., :1]
        return _horner(x, self._slope_plan, np.empty_like(x))[..., None]


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


def stacked_linalg(op, *stacks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``op(*stacks)`` in one stacked LAPACK call, and which matrices it took.

    ``op`` is a stacked ``numpy.linalg`` routine whose result has its last
    operand's shape, as ``solve`` and ``cholesky`` do.  Only if LAPACK refuses
    the stack does it go matrix by matrix: a refused matrix's result is zero
    and its flag ``False``.  Each accepted result equals ``op`` on that matrix
    alone, bit for bit.
    """
    try:
        return op(*stacks), np.ones(len(stacks[0]), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    out, ok = np.zeros(stacks[-1].shape), np.zeros(len(stacks[0]), dtype=bool)
    for i, operands in enumerate(zip(*stacks)):
        try:
            out[i], ok[i] = op(*operands), True
        except np.linalg.LinAlgError:
            pass
    return out, ok


@dataclass(frozen=True, eq=False)
class LocalModel:
    """Jump diffusion ``dX = b dt + n^{-1/2} sigma dW + jump noise``.

    ``drift`` maps ``(..., d) -> (..., d)`` and has a ``jacobian`` and ``into``; ``diffusion``
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
        if not all(callable(getattr(self.drift, name, None)) for name in ("jacobian", "into")):
            raise ValueError("drift must carry its Jacobian and `into`, as LinearDrift and PolynomialDrift do")
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
        ok = stacked_linalg(np.linalg.cholesky, c.reshape(-1, self.dim, self.dim))[1]
        if not ok.all():
            raise DegenerateCovariance(
                "local covariance is degenerate at a requested state "
                f"(index {ok.argmin()} of the batch); the action is not defined there"
            )


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
