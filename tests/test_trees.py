"""Minimum in-trees: the exhaustive oracle in ``conftest`` against Chu-Liu/Edmonds.

The 3x3 worked example matches the one in test_maxplus: in-tree totals
(3, 4, 5) on the closed matrix, hence stationary rates (0, 1, 2).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    MAX_ENUMERATION_SIZE,
    enumerate_in_trees,
    make_cost_matrix,
    min_in_tree_cost_bruteforce,
)
from quasipot.maxplus import CostMatrix, max_balance_residual, shortest_path_closure
from quasipot.trees import InTree, min_arborescence, stationary_rates, tree_total

WORKED_CLOSED = CostMatrix(
    ("a0", "a1", "a2"),
    np.array([[0.0, 2.0, 5.0], [1.0, 0.0, 3.0], [3.0, 2.0, 0.0]]),
)


def test_in_tree_validation():
    InTree("r", {"x": "r", "y": "x"})
    InTree("r", {})  # single-node tree: legal for singleton attractor sets
    with pytest.raises(ValueError):
        InTree("r", {"x": "y", "y": "x"})  # cycle never reaches the root
    with pytest.raises(ValueError):
        InTree("r", {"r": "x", "x": "r"})  # root must not have a parent
    with pytest.raises(ValueError):
        InTree("r", {"x": "ghost"})  # parent must be a spanned label


def test_tree_total_worked_example():
    tree = InTree("a0", {"a1": "a0", "a2": "a1"})
    assert tree_total(WORKED_CLOSED, tree) == 1.0 + 2.0
    star = InTree("a2", {"a0": "a2", "a1": "a2"})
    assert tree_total(WORKED_CLOSED, star) == 5.0 + 3.0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_enumeration_count(n):
    # n^(n-2) spanning in-trees on the complete graph with a fixed root
    labels = tuple(f"v{i}" for i in range(n))
    count = sum(1 for _ in enumerate_in_trees(labels, labels[0]))
    assert count == n ** (n - 2)


def test_enumeration_size_cap():
    labels = tuple(f"v{i}" for i in range(MAX_ENUMERATION_SIZE + 1))
    with pytest.raises(ValueError, match="refus"):
        next(enumerate_in_trees(labels, labels[0]))


def test_enumeration_trees_are_distinct():
    labels = ("a", "b", "c", "d")
    seen = set()
    for tree in enumerate_in_trees(labels, "b"):
        key = tuple(sorted(tree.parents.items()))
        assert key not in seen
        seen.add(key)
        assert tree.root == "b"


def test_bruteforce_worked_example():
    totals = [min_in_tree_cost_bruteforce(WORKED_CLOSED, lab).total for lab in WORKED_CLOSED.labels]
    assert totals == [3.0, 4.0, 5.0]


def test_arborescence_worked_example():
    for lab, want in zip(WORKED_CLOSED.labels, [3.0, 4.0, 5.0]):
        got = min_arborescence(WORKED_CLOSED, lab)
        assert got.total == want
        assert got.tree.root == lab


def test_arborescence_matches_bruteforce_randomized():
    rng = np.random.default_rng(7)
    for trial in range(80):
        n = int(rng.integers(2, 7))
        costs = make_cost_matrix(rng, n, inf_prob=0.35 if trial % 2 else 0.0)
        for root in costs.labels:
            exact = min_in_tree_cost_bruteforce(costs, root)
            fast = min_arborescence(costs, root)
            if np.isinf(exact.total):
                assert np.isinf(fast.total)
            else:
                assert abs(fast.total - exact.total) <= 1e-12
                assert abs(tree_total(costs, fast.tree) - fast.total) <= 1e-12


def test_unreachable_root_gives_infinite_total():
    entries = np.array([[0.0, 1.0], [np.inf, 0.0]])
    costs = CostMatrix(("p", "q"), entries)
    assert np.isinf(min_arborescence(costs, "p").total)
    assert min_arborescence(costs, "q").total == 1.0


def test_stationary_rates_worked_example():
    rates = stationary_rates(WORKED_CLOSED)
    assert rates.rates.tolist() == [0.0, 1.0, 2.0]


def test_stationary_rates_all_unreachable_raises():
    entries = np.array(
        [
            [0.0, np.inf, 1.0],
            [np.inf, 0.0, 1.0],
            [np.inf, np.inf, 0.0],
        ]
    )
    # only the third column is reachable, but a2 cannot reach anything, so
    # a0 and a1 are cut off from each other: every root total is infinite
    # except a2's... which is finite, so this must succeed:
    rates = stationary_rates(CostMatrix(("a0", "a1", "a2"), entries))
    assert rates.rates[2] == 0.0
    assert np.isinf(rates.rates[0]) and np.isinf(rates.rates[1])

    isolated = np.full((2, 2), np.inf)
    np.fill_diagonal(isolated, 0.0)
    with pytest.raises(ValueError):
        stationary_rates(CostMatrix(("u", "v"), isolated))


def test_rates_balance_on_random_closures():
    rng = np.random.default_rng(21)
    for trial in range(40):
        n = int(rng.integers(2, 7))
        costs = shortest_path_closure(make_cost_matrix(rng, n, inf_prob=0.3))
        try:
            rates = stationary_rates(costs)
        except ValueError:
            continue
        assert max_balance_residual(rates, costs) <= 1e-9


@given(
    st.integers(min_value=2, max_value=5),
    st.floats(min_value=0.0, max_value=4.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_uniform_shift_moves_totals_not_rates(n, shift, seed):
    # adding a constant to every off-diagonal entry adds (n-1) * shift to
    # every spanning in-tree, so rate differences cancel exactly
    rng = np.random.default_rng(seed)
    base = make_cost_matrix(rng, n)
    shifted = base.entries + shift
    np.fill_diagonal(shifted, 0.0)
    shifted = CostMatrix(base.labels, shifted)
    for root in base.labels:
        before = min_in_tree_cost_bruteforce(base, root).total
        after = min_in_tree_cost_bruteforce(shifted, root).total
        assert after == pytest.approx(before + (n - 1) * shift, abs=1e-9)
    np.testing.assert_allclose(
        stationary_rates(base).rates, stationary_rates(shifted).rates, atol=1e-9
    )
