"""Stationary rates by state elimination against the exhaustive in-tree oracle.

The rates are the minimum in-tree totals per root, found by enumeration in
``conftest``, minus their minimum.  The 3x3 worked example matches the one
in test_maxplus: in-tree totals (3, 4, 5) on the closed matrix, hence
stationary rates (0, 1, 2).
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
from quasipot.maxplus import (
    CostMatrix,
    max_balance_residual,
    shortest_path_closure,
    stationary_rates,
)

WORKED_CLOSED = CostMatrix(
    ("a0", "a1", "a2"),
    np.array([[0.0, 2.0, 5.0], [1.0, 0.0, 3.0], [3.0, 2.0, 0.0]]),
)


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
    for parents in enumerate_in_trees(labels, "b"):
        key = tuple(sorted(parents.items()))
        assert key not in seen
        seen.add(key)
        assert sorted(parents) == ["a", "c", "d"]


def test_bruteforce_worked_example():
    totals = [min_in_tree_cost_bruteforce(WORKED_CLOSED, lab) for lab in WORKED_CLOSED.labels]
    assert totals == [3.0, 4.0, 5.0]


def check_against_bruteforce(costs: CostMatrix) -> bool:
    """Check the rates against the in-tree totals; True when every total is infinite.

    The rates must be the totals minus their minimum to 1e-12, with the same
    infinite entries, and ``stationary_rates`` must raise exactly when every
    total is infinite.
    """
    totals = np.array([min_in_tree_cost_bruteforce(costs, root) for root in costs.labels])
    if np.isinf(totals).all():
        with pytest.raises(ValueError, match="infinite in-tree cost"):
            stationary_rates(costs)
        return True
    want = totals - totals.min()
    got = stationary_rates(costs).rates
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    assert np.abs(got[finite] - want[finite]).max() <= 1e-12
    return False


def test_arborescence_matches_bruteforce_randomized():
    rng = np.random.default_rng(7)
    for trial in range(80):
        n = int(rng.integers(2, 7))
        costs = make_cost_matrix(rng, n, inf_prob=0.35 if trial % 2 else 0.0)
        if trial % 4 >= 2:
            costs = shortest_path_closure(costs)
        assert not check_against_bruteforce(costs)


def test_elimination_raises_exactly_when_every_in_tree_is_infinite():
    # no row is forced to keep a finite exit here, so about a third of
    # these sets split into parts that cannot reach each other
    rng = np.random.default_rng(8)
    raised = 0
    for trial in range(150):
        n = int(rng.integers(2, 6))
        entries = rng.uniform(0.05, 3.0, size=(n, n))
        entries[rng.random((n, n)) < 0.6] = np.inf
        np.fill_diagonal(entries, 0.0)
        raised += check_against_bruteforce(CostMatrix(tuple(f"a{k}" for k in range(n)), entries))
    assert 0 < raised < 150  # both branches ran


def test_two_attractor_rates_are_the_closed_form_bit_for_bit():
    rng = np.random.default_rng(2)
    pairs = rng.uniform(0.0, 5.0, size=(2000, 2)).tolist()
    pairs += [[1.0, np.inf], [np.inf, 2.5], [0.7, 0.7], [0.1, 0.3]]
    for c01, c10 in pairs:
        costs = CostMatrix(("a0", "a1"), np.array([[0.0, c01], [c10, 0.0]]))
        assert stationary_rates(costs).rates.tolist() == [max(0.0, c10 - c01), max(0.0, c01 - c10)]


def test_unreachable_root_gives_infinite_total():
    entries = np.array([[0.0, 1.0], [np.inf, 0.0]])
    costs = CostMatrix(("p", "q"), entries)
    assert np.isinf(min_in_tree_cost_bruteforce(costs, "p"))
    assert min_in_tree_cost_bruteforce(costs, "q") == 1.0
    assert stationary_rates(costs).rates.tolist() == [np.inf, 0.0]


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
    # a2 cannot reach anything, so only in-trees rooted at a2 are finite,
    # and every other attractor carries no stationary mass
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
        before = min_in_tree_cost_bruteforce(base, root)
        after = min_in_tree_cost_bruteforce(shifted, root)
        assert after == pytest.approx(before + (n - 1) * shift, abs=1e-9)
    np.testing.assert_allclose(
        stationary_rates(base).rates, stationary_rates(shifted).rates, atol=1e-9
    )
