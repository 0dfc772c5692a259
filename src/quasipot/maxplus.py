"""Cost-form calculus on a finite attractor set.

Transition weights of the underlying multiplicative theory live in (0, 1];
we work with costs ``I = -ln w`` in ``[0, inf]`` instead.  Under that map
suprema become minima and products become sums, so every quantity here is a
min-plus expression.  ``math.inf`` is the explicit "unreachable" element:
IEEE arithmetic makes it absorbing under ``+`` and neutral under ``min``,
which is exactly the algebra we need, so no sentinel bookkeeping appears
anywhere.

The central objects are a matrix of pairwise escape costs between
attractors, a vector of stationary rates on the attractors, and the balance
equations coupling them: for every bipartition of the attractor set the
cheapest flux crossing it one way must equal the cheapest flux crossing it
back.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: Largest attractor set for which the exhaustive balance check is allowed.
MAX_BALANCE_SIZE = 20


def _as_label_tuple(labels: Iterable[str]) -> tuple[str, ...]:
    out = tuple(str(lab) for lab in labels)
    if len(set(out)) != len(out):
        raise ValueError("labels must be distinct")
    if not out:
        raise ValueError("label set must be nonempty")
    return out


def _check_cost_array(entries: np.ndarray) -> np.ndarray:
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {arr.shape}")
    if np.isnan(arr).any():
        raise ValueError("cost matrix entries must not be NaN")
    if (arr < 0).any():
        raise ValueError("cost matrix entries must be nonnegative")
    if (np.diag(arr) != 0).any():
        raise ValueError("cost matrix diagonal must be exactly zero")
    return arr


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Pairwise escape costs ``entries[i, j] = I(labels[i], labels[j])``.

    Entries are nonnegative, the diagonal is exactly zero, and ``inf`` marks
    an unreachable target.  The matrix is *not* required to satisfy the
    triangle inequality on construction; :func:`shortest_path_closure`
    produces the closed version.
    """

    labels: tuple[str, ...]
    entries: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", _as_label_tuple(self.labels))
        arr = _check_cost_array(self.entries)
        if arr.shape[0] != len(self.labels):
            raise ValueError(
                f"got {len(self.labels)} labels but a {arr.shape[0]}x{arr.shape[1]} matrix"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown attractor label {label!r}") from None

    def cost(self, source: str, target: str) -> float:
        return float(self.entries[self.index(source), self.index(target)])

    def is_closed(self, tol: float = 0.0) -> bool:
        """Whether every entry already satisfies the triangle inequality."""
        a = self.entries
        # Index layout: [i, k, j] -> a[i, k] + a[k, j], minimized over k.
        two_step = np.min(a[:, :, None] + a[None, :, :], axis=1)
        # two_step[i, j] = min_k a[i, k] + a[k, j] <= a[i, j] always holds
        # (take k = i), so closedness is the reverse inequality.  inf <= inf
        # is true in IEEE terms, which is the wanted behaviour for
        # unreachable pairs.
        return bool(np.all(a <= two_step + tol))


@dataclass(frozen=True, eq=False)
class StationaryRates:
    """Per-attractor stationary rates, normalized so the minimum is 0.

    ``inf`` entries are legal and mark attractors that carry no stationary
    mass at any exponential order (they are unreachable from the support).
    """

    labels: tuple[str, ...]
    rates: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", _as_label_tuple(self.labels))
        arr = np.asarray(self.rates, dtype=float)
        if arr.shape != (len(self.labels),):
            raise ValueError(f"expected {len(self.labels)} rates, got shape {arr.shape}")
        if np.isnan(arr).any():
            raise ValueError("rates must not be NaN")
        if (arr < 0).any():
            raise ValueError("rates must be nonnegative")
        if arr.min() != 0.0:
            raise ValueError("rates must attain 0 exactly at their minimum")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "rates", arr)


@dataclass(frozen=True)
class Partition:
    """An ordered bipartition of the attractor labels."""

    left: tuple[str, ...]
    right: tuple[str, ...]

    def __post_init__(self) -> None:
        left = tuple(self.left)
        right = tuple(self.right)
        if not left or not right:
            raise ValueError("both sides of a partition must be nonempty")
        if set(left) & set(right):
            raise ValueError("partition sides must be disjoint")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


def _check_same_labels(rates: StationaryRates, costs: CostMatrix) -> None:
    if rates.labels != costs.labels:
        raise ValueError(
            f"rates are over {rates.labels} but costs are over {costs.labels}"
        )


def cost_flux(
    rates: StationaryRates,
    costs: CostMatrix,
    source: Sequence[str],
    target: Sequence[str],
) -> float:
    """Cheapest escape flux from the ``source`` set into the ``target`` set.

    In cost form the flux is ``min_{a in source} (rate(a) +
    min_{a' in target} I(a, a'))``.  Returns ``inf`` when no source attractor
    can reach any target attractor with finite combined cost.
    """
    _check_same_labels(rates, costs)
    src = [costs.index(lab) for lab in source]
    tgt = [costs.index(lab) for lab in target]
    if not src or not tgt:
        raise ValueError("source and target sets must be nonempty")
    if set(src) & set(tgt):
        raise ValueError("source and target sets must be disjoint")
    block = costs.entries[np.ix_(src, tgt)]
    per_source = block.min(axis=1)
    return float(np.min(rates.rates[src] + per_source))


def balance_residuals(
    rates: StationaryRates, costs: CostMatrix
) -> list[tuple[Partition, float]]:
    """Residual of the flux balance equation for every bipartition.

    For each of the ``2**(n-1) - 1`` unordered bipartitions ``(S, S^c)`` the
    residual is ``|flux(S -> S^c) - flux(S^c -> S)|``, with the convention
    that two infinite fluxes balance exactly (residual 0): a cut no flux ever
    crosses is trivially balanced.  A finite flux against an infinite one
    yields an infinite residual.

    The enumeration is exponential, so sets larger than
    ``MAX_BALANCE_SIZE`` are refused.
    """
    _check_same_labels(rates, costs)
    labels = costs.labels
    n = len(labels)
    if n < 2:
        return []
    if n > MAX_BALANCE_SIZE:
        raise ValueError(
            f"balance check enumerates 2**({n}-1)-1 partitions; "
            f"refusing sets larger than {MAX_BALANCE_SIZE}"
        )
    out: list[tuple[Partition, float]] = []
    rest = labels[1:]
    # Pinning labels[0] to the left side enumerates each unordered
    # bipartition exactly once.
    for k in range(len(rest) + 1):
        for combo in itertools.combinations(rest, k):
            left = (labels[0],) + combo
            right = tuple(lab for lab in rest if lab not in combo)
            if not right:
                continue
            fwd = cost_flux(rates, costs, left, right)
            bwd = cost_flux(rates, costs, right, left)
            if math.isinf(fwd) and math.isinf(bwd):
                resid = 0.0
            else:
                resid = abs(fwd - bwd)
            out.append((Partition(left, right), resid))
    return out


def max_balance_residual(rates: StationaryRates, costs: CostMatrix) -> float:
    """Largest residual over all bipartitions; 0.0 for a singleton set."""
    residuals = balance_residuals(rates, costs)
    if not residuals:
        return 0.0
    return max(r for _, r in residuals)


def evaluate_rate(rates: StationaryRates, costs_to_point: Sequence[float]) -> float:
    """Rate at a state ``x`` given the escape costs ``I(a, x)`` per attractor.

    ``I(x) = min_a (I(a) + I(a, x))``.  Returns ``inf`` when ``x`` is
    unreachable from every attractor with finite stationary rate.
    """
    arr = np.asarray(costs_to_point, dtype=float)
    if arr.shape != rates.rates.shape:
        raise ValueError(
            f"expected {rates.rates.shape[0]} costs, got shape {arr.shape}"
        )
    if np.isnan(arr).any():
        raise ValueError("costs must not be NaN")
    if (arr < 0).any():
        raise ValueError("costs must be nonnegative")
    return float(np.min(rates.rates + arr))


def shortest_path_closure(costs: CostMatrix) -> CostMatrix:
    """Min-plus transitive closure of a cost matrix.

    Floyd-Warshall over the (min, +) semiring: the closed entry ``(i, j)``
    is the cheapest total cost of any attractor chain from ``i`` to ``j``.
    The result satisfies the triangle inequality and the map is idempotent.
    """
    a = costs.entries.copy()
    n = a.shape[0]
    for k in range(n):
        # inf + inf = inf and inf never wins a minimum over a finite path,
        # so no masking is needed.
        np.minimum(a, a[:, k, None] + a[None, k, :], out=a)
    return CostMatrix(costs.labels, a)
