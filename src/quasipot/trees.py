"""Stationary rates on attractors via minimum-cost in-trees.

The stationary rate of attractor ``a`` equals the cheapest total cost of an
in-tree rooted at ``a`` (every other attractor pointing along cost edges
toward ``a``), minus the cheapest such total over all roots.  This module
finds those totals with a Chu-Liu/Edmonds minimum-arborescence solver; the
tests check it against exhaustive in-tree enumeration on small sets.

An in-tree rooted at ``a`` in the cost matrix is exactly a minimum spanning
arborescence rooted at ``a`` in the edge-reversed graph, which is how
:func:`min_arborescence` finds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .maxplus import CostMatrix, StationaryRates


@dataclass(frozen=True)
class InTree:
    """A spanning in-tree: every non-root label maps to its parent.

    Edges point from child to parent, and following parents from any label
    reaches ``root``.
    """

    root: str
    parents: Mapping[str, str]

    def __post_init__(self) -> None:
        parents = dict(self.parents)
        if self.root in parents:
            raise ValueError("the root must not have a parent")
        if not set(parents.values()) <= (set(parents) | {self.root}):
            raise ValueError("parent values must be labels of the tree")
        for start in parents:
            seen = set()
            node = start
            while node != self.root:
                if node in seen:
                    raise ValueError(f"parent map has a cycle through {start!r}")
                seen.add(node)
                if node not in parents:
                    raise ValueError(f"label {node!r} has no path to the root")
                node = parents[node]
        object.__setattr__(self, "parents", parents)

    def edges(self) -> list[tuple[str, str]]:
        """Child-to-parent edges in sorted child order."""
        return sorted(self.parents.items())


@dataclass(frozen=True)
class TreeCost:
    """An in-tree together with its total edge cost."""

    tree: InTree
    total: float

    def __post_init__(self) -> None:
        if math.isnan(self.total):
            raise ValueError("tree cost must not be NaN")
        if self.total < 0:
            raise ValueError("tree cost must be nonnegative")


def tree_total(costs: CostMatrix, tree: InTree) -> float:
    """Sum of edge costs ``I(child, parent)`` over the tree."""
    total = 0.0
    for child, parent in tree.edges():
        total += costs.cost(child, parent)
    return total


def _find_cycle(parent: dict[int, int], nodes: list[int]) -> list[int] | None:
    """A cycle in the functional graph ``v -> parent[v]``, if any."""
    color = {v: 0 for v in nodes}  # 0 unvisited, 1 on stack, 2 done
    for start in nodes:
        if color[start] != 0:
            continue
        stack = []
        node = start
        while node in parent and color[node] == 0:
            color[node] = 1
            stack.append(node)
            node = parent[node]
        if node in color and color[node] == 1:
            # Found a cycle: slice it from the stack.
            idx = stack.index(node)
            for v in stack:
                color[v] = 2
            return stack[idx:]
        for v in stack:
            color[v] = 2
    return None


def _edmonds(nodes: list[int], edges: list[tuple[int, int, float, object]], root: int):
    """Chu-Liu/Edmonds on explicit node ids.

    ``edges`` entries are ``(tail, head, weight, token)`` with opaque tokens
    tracing back to original edges.  Returns a dict ``head -> token`` of the
    chosen incoming edges, or None when some node cannot reach the root.
    """
    best: dict[int, tuple[float, int, object, tuple[int, int, float, object]]] = {}
    for tail, head, weight, token in edges:
        if head == root or tail == head or not math.isfinite(weight):
            continue
        cur = best.get(head)
        if cur is None or weight < cur[0]:
            best[head] = (weight, tail, token, (tail, head, weight, token))
    for v in nodes:
        if v != root and v not in best:
            return None
    parent = {v: rec[1] for v, rec in best.items()}
    cycle = _find_cycle(parent, [v for v in nodes if v != root])
    if cycle is None:
        return {v: rec[2] for v, rec in best.items()}

    cyc_set = set(cycle)
    super_node = max(nodes) + 1
    new_edges: list[tuple[int, int, float, object]] = []
    for rec in edges:
        tail, head, weight, _token = rec
        if tail in cyc_set and head in cyc_set:
            continue
        if head in cyc_set:
            # Entering the cycle displaces that node's internal edge.
            new_edges.append((tail, super_node, weight - best[head][0], rec))
        elif tail in cyc_set:
            new_edges.append((super_node, head, weight, rec))
        else:
            new_edges.append((tail, head, weight, rec))
    new_nodes = [v for v in nodes if v not in cyc_set] + [super_node]
    sub = _edmonds(new_nodes, new_edges, root)
    if sub is None:
        return None

    chosen: dict[int, object] = {}
    entry: int | None = None
    for head, rec in sub.items():
        tail0, head0, _w0, token0 = rec  # the pre-contraction edge
        chosen[head0] = token0
        if head == super_node:
            entry = head0
    assert entry is not None
    for v in cycle:
        if v != entry:
            chosen[v] = best[v][2]
    return chosen


def min_arborescence(costs: CostMatrix, root: str) -> TreeCost:
    """Minimum-cost in-tree rooted at ``root`` via Chu-Liu/Edmonds.

    Runs on the edge-reversed cost graph, where an in-tree rooted at
    ``root`` becomes a spanning arborescence out of ``root``.  The total is
    re-summed from the original matrix entries, so no contraction arithmetic
    leaks into the reported cost.  When some label cannot reach the root at
    finite cost the star tree pointing at the root with total ``inf`` is
    returned.  Tie-breaking is deterministic (first minimal incoming edge in
    matrix scan order) but not necessarily the lexicographically smallest
    parent map.
    """
    labels = costs.labels
    n = len(labels)
    r = costs.index(root)
    if n == 1:
        return TreeCost(InTree(root, {}), 0.0)
    # Reversed graph: original cost I(child, parent) becomes an edge
    # parent -> child, so arborescence edges out of the root are exactly
    # in-tree edges into it.
    edges = []
    for tail in range(n):
        for head in range(n):
            if tail == head:
                continue
            w = float(costs.entries[head, tail])
            if math.isfinite(w):
                edges.append((tail, head, w, (head, tail)))
    chosen = _edmonds(list(range(n)), edges, r)
    if chosen is None:
        parents = {lab: root for lab in labels if lab != root}
        return TreeCost(InTree(root, parents), math.inf)
    parents = {labels[child]: labels[parent] for child, parent in chosen.values()}
    tree = InTree(root, parents)
    return TreeCost(tree, tree_total(costs, tree))


def stationary_rates(costs: CostMatrix) -> StationaryRates:
    """Unique balanced stationary rates from per-root minimum in-trees.

    ``rate(a) = minimum in-tree total rooted at a, minus the smallest such
    total over all roots``.  At least one rate is exactly 0 by construction.
    Raises when every root total is infinite, which happens only when the
    cost graph splits into parts that cannot reach each other at all.
    """
    totals = np.array([min_arborescence(costs, lab).total for lab in costs.labels])
    base = totals.min()
    if math.isinf(base):
        raise ValueError(
            "every root has infinite in-tree cost; the attractor graph is "
            "disconnected in both directions and stationary rates are not defined"
        )
    rates = totals - base
    return StationaryRates(costs.labels, rates)
