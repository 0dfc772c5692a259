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
back.  :func:`stationary_rates` finds the unique rates that satisfy them, the
cheapest in-tree totals, by eliminating attractors one at a time, and
:func:`max_balance_residual` checks all of them at once, as arrays indexed
by the bitmask of one side of the cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: Largest attractor set the balance check accepts; its arrays have 2**n entries.
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


def _check_same_labels(rates: StationaryRates, costs: CostMatrix) -> None:
    if rates.labels != costs.labels:
        raise ValueError(
            f"rates are over {rates.labels} but costs are over {costs.labels}"
        )


def max_balance_residual(rates: StationaryRates, costs: CostMatrix) -> float:
    """Largest flux balance residual over all bipartitions; 0.0 for a singleton set.

    For a label set ``S`` the flux out of it is ``min_{a in S} (rate(a) +
    min_{b not in S} I(a, b))``, and the residual of the cut ``(S, S^c)`` is
    ``|flux(S -> S^c) - flux(S^c -> S)|``.  Two infinite fluxes balance
    exactly (residual 0): a cut no flux ever crosses is trivially balanced.
    A finite flux against an infinite one yields an infinite residual.

    Every label set is a bitmask, and both fluxes of all ``2**n`` sets come
    from one table per label, ``best_a[C] = min_{b in C} (rate(a) + I(a, b))``,
    built by doubling over the bits.  Each cut appears twice, as ``S`` and as
    ``S^c`` with its fluxes swapped, which leaves the maximum unchanged.
    Rounding is monotone, so adding the rate before taking the minimum
    changes no bit of the result.  Time grows like ``n * 2**n`` and memory
    like ``2**n``, so sets larger than ``MAX_BALANCE_SIZE`` are refused.
    """
    _check_same_labels(rates, costs)
    n = costs.size
    if n > MAX_BALANCE_SIZE:
        raise ValueError(
            f"balance check enumerates 2**({n}-1)-1 partitions; "
            f"refusing sets larger than {MAX_BALANCE_SIZE}"
        )
    size = 1 << n
    fwd = np.full(size, math.inf)  # fwd[S] = flux(S -> S^c)
    bwd = np.full(size, math.inf)  # bwd[S] = flux(S^c -> S)
    best = np.empty(size)
    best[0] = math.inf
    for a in range(n):
        step = rates.rates[a] + costs.entries[a]
        for b in range(n):
            np.minimum(best[: 1 << b], step[b], out=best[1 << b : 2 << b])
        # Axis 1 of this view is bit a: index 1 holds the sets that contain a.
        # best[::-1][S] is best[S^c], since S^c = (size - 1) - S.
        split = (-1, 2, 1 << a)
        inside = fwd.reshape(split)[:, 1]
        np.minimum(inside, best[::-1].reshape(split)[:, 1], out=inside)
        outside = bwd.reshape(split)[:, 0]
        np.minimum(outside, best.reshape(split)[:, 0], out=outside)
    # Equal fluxes, two infinite ones included, leave the residual at 0.
    diff = np.subtract(fwd, bwd, out=np.zeros(size), where=fwd != bwd)
    return float(np.abs(diff).max())


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


def stationary_rates(costs: CostMatrix) -> StationaryRates:
    """Unique balanced stationary rates, by min-plus state elimination.

    The rate of attractor ``a`` is ``W(a) - min W``, where ``W(a)`` is the
    cheapest total cost of an in-tree rooted at ``a`` (every other attractor
    pointing along cost edges toward ``a``).  ``W`` comes from the small-noise
    limit of the Grassmann-Taksar-Heyman state reduction of a chain with
    transition rates ``exp(-I / eps)``.  That reduction only adds, multiplies
    and divides positive numbers, so its limit is exact and each step is one
    min-plus update.

    Attractors are eliminated in the order of ``costs.labels``.  Eliminating
    ``k``, with cheapest exit ``m_k = min_{l alive, l != k} I(k, l)``, reroutes
    every alive pair through it:
    ``I(i, j) <- min(I(i, j), I(i, k) + I(k, j) - m_k)``.  An
    attractor with no finite exit is skipped; it never gains one.  The one
    attractor left has ``W = 0``, and back-substitution in reverse order sets
    ``W(k) = min_i (W(i) + I(i, k)) - m_k`` over the attractors alive when
    ``k`` was eliminated, with the column ``I(., k)`` kept from that moment.
    At least one rate is exactly 0.  Raises when two attractors are left,
    which happens exactly when every in-tree total is infinite: the cost
    graph splits into parts that cannot reach each other at all.
    """
    c = costs.entries.copy()
    alive = np.ones(costs.size, dtype=bool)
    steps = []  # (k, alive others, their kept column I(., k), m_k)
    for k in range(costs.size):
        alive[k] = False
        others = np.flatnonzero(alive)
        exit_cost = c[k, others].min(initial=math.inf)
        if math.isinf(exit_cost):
            alive[k] = True
            continue
        column = c[others, k]
        block = np.ix_(others, others)
        c[block] = np.minimum(c[block], (column[:, None] + c[k, others][None, :]) - exit_cost)
        steps.append((k, others, column, exit_cost))
    if np.count_nonzero(alive) > 1:
        raise ValueError(
            "every root has infinite in-tree cost; the attractor graph is "
            "disconnected in both directions and stationary rates are not defined"
        )
    w = np.where(alive, 0.0, math.inf)
    for k, others, column, exit_cost in reversed(steps):
        w[k] = np.min(w[others] + column) - exit_cost
    return StationaryRates(costs.labels, w - w.min())
