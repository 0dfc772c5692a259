"""Equilibria of the zero-noise drift: search, classification, labeling.

Equilibria are located by Newton iterations seeded from a regular grid over
a user-supplied box, deduplicated, classified by the eigenvalues of the
drift's exact Jacobian, and sorted lexicographically by position so that
labels are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .models import Drift

#: Eigenvalue real parts within this margin of zero make an equilibrium
#: "marginal": the linearization is too close to neutral to classify.
CLASSIFICATION_MARGIN = 1e-6

#: Default max-norm drift residual at which a Newton root is accepted.
ROOT_TOL = 1e-9

#: Hard cap on the number of Newton seeds a search box may generate.
MAX_SEEDS = 200_000

#: Roots this far outside a search box still count as inside it.
_BOX_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class SearchBox:
    """Axis-aligned box with a per-axis seed resolution."""

    lower: np.ndarray
    upper: np.ndarray
    resolution: int

    def __post_init__(self) -> None:
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("lower and upper must be vectors of equal length")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError("box bounds must be finite")
        if not (lower < upper).all():
            raise ValueError("box must have positive extent on every axis")
        if self.resolution < 2:
            raise ValueError("resolution must be at least 2 seeds per axis")
        if self.resolution ** lower.shape[0] > MAX_SEEDS:
            raise ValueError(
                f"{self.resolution}^{lower.shape[0]} seeds exceed the cap of {MAX_SEEDS}"
            )
        lower = lower.copy()
        lower.flags.writeable = False
        upper = upper.copy()
        upper.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def seeds(self) -> np.ndarray:
        """Regular grid of Newton starting points, shape (resolution^d, d)."""
        axes = [np.linspace(lo, hi, self.resolution) for lo, hi in zip(self.lower, self.upper)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def contains(self, point: np.ndarray) -> bool:
        return bool(
            (point >= self.lower - _BOX_SLACK).all() and (point <= self.upper + _BOX_SLACK).all()
        )


@dataclass(frozen=True, eq=False)
class Equilibrium:
    """A drift zero with its linearization and stability tag."""

    position: np.ndarray
    jacobian: np.ndarray
    eigenvalues: np.ndarray
    classification: str

    def __post_init__(self) -> None:
        pos = np.asarray(self.position, dtype=float)
        jac = np.asarray(self.jacobian, dtype=float)
        eig = np.asarray(self.eigenvalues, dtype=complex)
        d = pos.shape[0]
        if jac.shape != (d, d) or eig.shape != (d,):
            raise ValueError("inconsistent shapes for position, jacobian, eigenvalues")
        if self.classification not in ("stable", "unstable", "marginal"):
            raise ValueError(f"unknown classification {self.classification!r}")
        for name, arr in (("position", pos), ("jacobian", jac)):
            a = arr.copy()
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        eig = eig.copy()
        eig.flags.writeable = False
        object.__setattr__(self, "eigenvalues", eig)


def _classify(eigenvalues: np.ndarray) -> str:
    real = eigenvalues.real
    if (np.abs(real) <= CLASSIFICATION_MARGIN).any():
        return "marginal"
    if (real < 0).all():
        return "stable"
    return "unstable"


def _newton(drift: Drift, seed: np.ndarray, root_tol: float) -> np.ndarray | None:
    """Damped Newton for one seed; None when it fails to reach ``root_tol``.

    Steps continue past ``root_tol``, within 60 iterations, until the
    residual is 0 or no full or damped step lowers it strictly: an accepted
    root sits at the rounding floor of the drift, not just inside the tolerance.
    """
    x = seed.astype(float).copy()
    fx = drift(x[None, :])[0]
    res = np.abs(fx).max()
    for _ in range(60):
        if res == 0.0:
            break
        try:
            step = np.linalg.solve(drift.jacobian(x[None, :])[0], fx)
        except np.linalg.LinAlgError:
            break
        for t in 0.5 ** np.arange(14):  # damped down to 2^-13, the last halving above 1e-4
            x_new = x - t * step
            f_new = drift(x_new[None, :])[0]
            if np.abs(f_new).max() < res:
                x, fx, res = x_new, f_new, np.abs(f_new).max()
                break
        else:
            break
    return x if res <= root_tol else None


def find_equilibria(drift: Drift, box: SearchBox, root_tol: float = ROOT_TOL) -> list[Equilibrium]:
    """All drift zeros inside the box found from grid-seeded Newton runs.

    Roots closer than ``10 * root_tol`` are treated as duplicates (first
    find wins), roots that leave the box are discarded, and the survivors
    are sorted lexicographically by coordinates so the output order does
    not depend on the seed that found them.  An equilibrium with an
    eigenvalue real part within ``CLASSIFICATION_MARGIN`` of zero is
    classified "marginal".
    """
    if not (root_tol > 0):
        raise ValueError("root tolerance must be positive")
    roots: list[np.ndarray] = []
    dedup = 10.0 * root_tol
    for seed in box.seeds():
        x = _newton(drift, seed, root_tol)
        if x is None or not box.contains(x):
            continue
        if any(np.abs(x - r).max() <= dedup for r in roots):
            continue
        roots.append(x)
    roots.sort(key=lambda r: tuple(r))
    out = []
    for x in roots:
        jac = drift.jacobian(x[None, :])[0]
        eig = np.linalg.eigvals(jac)
        out.append(Equilibrium(x, jac, np.sort_complex(eig), _classify(eig)))
    return out


def stable_attractors(equilibria: Sequence[Equilibrium]) -> list[Equilibrium]:
    """The stable equilibria, in the given (position-sorted) order.

    Raises when there is none: the stationary theory needs at least one
    attractor to carry the invariant measure.
    """
    stable = [e for e in equilibria if e.classification == "stable"]
    if not stable:
        raise ValueError("no stable attractor found in the search box")
    return stable
