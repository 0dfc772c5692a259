"""Equilibria of the zero-noise drift: search, classification, labeling.

Equilibria are located by one damped Newton search that steps every seed of
a regular grid over a user-supplied box as one batch, deduplicated in grid
order, classified by the eigenvalues of the drift's exact Jacobian, and
sorted lexicographically by position so that labels are reproducible across
runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .models import Drift, stacked_linalg

#: Eigenvalue real parts within this margin of zero make an equilibrium
#: "marginal": the linearization is too close to neutral to classify.
CLASSIFICATION_MARGIN = 1e-6

#: Max-norm drift residual at which a Newton root is accepted.
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

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Whether each point of a ``(..., d)`` array lies in the box, within ``_BOX_SLACK``."""
        return ((points >= self.lower - _BOX_SLACK) & (points <= self.upper + _BOX_SLACK)).all(axis=-1)


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


def _newton(drift: Drift, seeds: np.ndarray, root_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton from every seed at once: the final states ``(S, d)``, and which reached ``root_tol``.

    Every live seed steps in one ``(S, d)`` batch with one stacked solve, and
    its line search halves ``t`` from 1 to ``2**-13`` per row.  A seed
    keeps stepping past ``root_tol``, within 60 iterations, until its
    residual is 0, no full or damped step lowers it strictly, or its
    Jacobian is singular: an accepted root sits at the rounding floor of
    the drift, not just inside the tolerance.  Each row takes the steps a
    one-seed search would take; only a drift whose batched evaluation
    rounds differently from a one-row one (a matrix product) can move
    the last bits.
    """
    x = np.array(seeds, dtype=float)
    fx = drift(x)
    res = np.abs(fx).max(axis=1)
    live = np.ones(x.shape[0], dtype=bool)
    for _ in range(60):
        live &= res != 0.0
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        step, solved = stacked_linalg(np.linalg.solve, drift.jacobian(x[rows]), fx[rows][..., None])
        live[rows[~solved]] = False
        rows, step = rows[solved], step[solved, :, 0]
        for t in 0.5 ** np.arange(14):  # damped down to 2^-13, the last halving above 1e-4
            x_new = x[rows] - t * step
            f_new = drift(x_new)
            r_new = np.abs(f_new).max(axis=1)
            better = r_new < res[rows]
            took = rows[better]
            x[took], fx[took], res[took] = x_new[better], f_new[better], r_new[better]
            rows, step = rows[~better], step[~better]
            if rows.size == 0:
                break
        live[rows] = False
    return x, res <= root_tol


def find_equilibria(drift: Drift, box: SearchBox) -> list[Equilibrium]:
    """All drift zeros inside the box found from grid-seeded Newton runs.

    One batched :func:`_newton` search runs from every seed of the grid and
    accepts the roots whose residual is at most ``ROOT_TOL``.  Roots closer
    than ``10 * ROOT_TOL`` are treated as duplicates (the first seed in grid
    order wins), roots that leave the box are discarded, and the survivors
    are sorted lexicographically by coordinates so the output order does not
    depend on the seed that found them.  An
    equilibrium with an eigenvalue real part within
    ``CLASSIFICATION_MARGIN`` of zero is classified "marginal".
    """
    found, ok = _newton(drift, box.seeds(), ROOT_TOL)
    found = found[ok & box.contains(found)]
    roots: list[np.ndarray] = []
    while found.shape[0]:  # keep the first seed's root, drop its duplicates
        roots.append(found[0])
        found = found[np.abs(found - found[0]).max(axis=1) > 10.0 * ROOT_TOL]
    roots.sort(key=tuple)
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
