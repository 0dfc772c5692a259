"""Shared test helpers and the brute-force reference oracles.

``AnalyticDrift`` pairs a test's drift function with its analytic Jacobian,
for fields that are neither linear nor one-dimensional polynomials, or that
must keep one exact floating-point expression.

The oracles are the direct loop forms of what ``src/`` computes faster:
``max_balance_residual_loop`` enumerates every bipartition and prices both
fluxes with ``cost_flux``, and ``min_in_tree_cost_bruteforce`` enumerates
every in-tree.  They stay here, out of the package, as the references for
``maxplus.max_balance_residual`` and ``trees.min_arborescence``.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np
import pytest

from quasipot.maxplus import CostMatrix, StationaryRates
from quasipot.trees import InTree, TreeCost, tree_total

@dataclass(frozen=True)
class AnalyticDrift:
    """A batched drift ``(..., d) -> (..., d)`` with its Jacobian ``(..., d, d)``."""

    field: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return self.field(y)


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


def enumerate_in_trees(labels: tuple[str, ...], root: str) -> Iterator[InTree]:
    """Yield every in-tree on ``labels`` rooted at ``root`` exactly once.

    Trees appear in lexicographic order of their parent map read along the
    non-root labels in the order given.  Sets larger than
    ``MAX_ENUMERATION_SIZE`` are refused.
    """
    children, maps = _parent_maps(labels, root)
    r = labels.index(root)
    for parents in maps:
        if _is_in_tree(children, parents, r):
            yield InTree(root, {labels[c]: labels[p] for c, p in zip(children, parents)})


def min_in_tree_cost_bruteforce(costs: CostMatrix, root: str) -> TreeCost:
    """Exact minimum in-tree cost by exhaustive enumeration.

    Each total sums ``I(child, parent)`` in sorted child-label order, as
    :func:`tree_total` does, so the totals are equal to its.  Ties resolve to
    the first tree :func:`enumerate_in_trees` yields.  Only a map that would
    improve on the best total is checked for cycles, and only the winner is
    built as an :class:`InTree`.
    """
    labels = costs.labels
    children, maps = _parent_maps(labels, root)
    rows = costs.entries.tolist()
    order = sorted(range(len(children)), key=lambda k: labels[children[k]])
    r = labels.index(root)
    best = None
    for parents in maps:
        total = 0.0
        for k in order:
            total += rows[children[k]][parents[k]]
        if (best is None or total < best[0]) and _is_in_tree(children, parents, r):
            best = (total, parents)
    total, parents = best
    return TreeCost(InTree(root, {labels[c]: labels[p] for c, p in zip(children, parents)}), total)
