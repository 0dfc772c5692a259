"""Cost matrices, min-plus closure, and the flux balance check.

The worked 3x3 example used throughout was derived by hand: enumerating all
three in-trees per root gives totals (3, 4, 5), hence rates (0, 1, 2), and
every one of the three bipartition fluxes balances exactly.  The array form
of the balance check is compared bit for bit with the per-bipartition loop
in ``conftest``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cost_flux, is_closed, make_cost_matrix, max_balance_residual_loop
from quasipot.maxplus import (
    MAX_BALANCE_SIZE,
    CostMatrix,
    StationaryRates,
    evaluate_rate,
    max_balance_residual,
    shortest_path_closure,
    stationary_rates,
)
from quasipot.pipeline import BALANCE_TOL

WORKED = np.array([[0.0, 2.0, 5.0], [1.0, 0.0, 3.0], [4.0, 2.0, 0.0]])
WORKED_CLOSED = np.array([[0.0, 2.0, 5.0], [1.0, 0.0, 3.0], [3.0, 2.0, 0.0]])
LABELS = ("a0", "a1", "a2")


def test_cost_matrix_rejects_nonzero_diagonal():
    entries = WORKED.copy()
    entries[1, 1] = 0.1
    with pytest.raises(ValueError, match="diagonal"):
        CostMatrix(LABELS, entries)


def test_cost_matrix_rejects_negative_and_nan():
    bad = WORKED.copy()
    bad[0, 1] = -0.5
    with pytest.raises(ValueError):
        CostMatrix(LABELS, bad)
    bad = WORKED.copy()
    bad[0, 1] = np.nan
    with pytest.raises(ValueError):
        CostMatrix(LABELS, bad)


def test_cost_matrix_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        CostMatrix(("a", "a", "b"), WORKED)


def test_cost_lookup():
    costs = CostMatrix(LABELS, WORKED)
    assert costs.cost("a1", "a2") == 3.0
    assert costs.index("a2") == 2
    with pytest.raises(KeyError):
        costs.index("missing")


def test_entries_are_read_only():
    costs = CostMatrix(LABELS, WORKED)
    with pytest.raises(ValueError):
        costs.entries[0, 1] = 9.0


def test_closure_worked_example():
    closed = shortest_path_closure(CostMatrix(LABELS, WORKED))
    assert np.array_equal(closed.entries, WORKED_CLOSED)
    assert is_closed(closed)


def test_closure_with_unreachable_entries():
    entries = np.array([[0.0, 1.0, np.inf], [np.inf, 0.0, 2.0], [np.inf, np.inf, 0.0]])
    closed = shortest_path_closure(CostMatrix(("x", "y", "z"), entries))
    assert closed.cost("x", "z") == 3.0
    assert np.isinf(closed.cost("z", "x"))


def test_worked_example_rates_balance():
    closed = CostMatrix(LABELS, WORKED_CLOSED)
    rates = StationaryRates(LABELS, np.array([0.0, 1.0, 2.0]))
    assert max_balance_residual(rates, closed) == 0.0


def test_balance_detects_wrong_rates():
    closed = CostMatrix(LABELS, WORKED_CLOSED)
    rates = StationaryRates(LABELS, np.array([0.0, 1.5, 2.0]))
    assert max_balance_residual(rates, closed) > 0.4


def test_balance_singleton_is_trivial():
    rates = StationaryRates(("only",), np.array([0.0]))
    costs = CostMatrix(("only",), np.zeros((1, 1)))
    assert max_balance_residual(rates, costs) == 0.0


def test_balance_size_cap():
    n = MAX_BALANCE_SIZE + 1
    labels = tuple(f"a{i}" for i in range(n))
    entries = np.ones((n, n))
    np.fill_diagonal(entries, 0.0)
    rates = StationaryRates(labels, np.zeros(n))
    with pytest.raises(ValueError, match="refusing"):
        max_balance_residual(rates, CostMatrix(labels, entries))


def test_infinite_against_infinite_flux_is_balanced():
    # both directions unreachable: |inf - inf| counts as zero
    entries = np.array([[0.0, np.inf], [np.inf, 0.0]])
    costs = CostMatrix(("u", "v"), entries)
    rates = StationaryRates(("u", "v"), np.array([0.0, 0.0]))
    assert max_balance_residual(rates, costs) == 0.0


def test_finite_against_infinite_flux_is_not():
    entries = np.array([[0.0, 1.0], [np.inf, 0.0]])
    costs = CostMatrix(("u", "v"), entries)
    rates = StationaryRates(("u", "v"), np.array([0.0, 0.0]))
    assert np.isinf(max_balance_residual(rates, costs))


def test_cost_flux_block_minimum():
    costs = CostMatrix(LABELS, WORKED_CLOSED)
    rates = StationaryRates(LABELS, np.array([0.0, 1.0, 2.0]))
    flux = cost_flux(rates, costs, ("a0", "a1"), ("a2",))
    # min(I(a0)+C(a0,a2), I(a1)+C(a1,a2)) = min(0+5, 1+3)
    assert flux == 4.0
    with pytest.raises(ValueError, match="disjoint"):
        cost_flux(rates, costs, ("a0", "a1"), ("a1",))


def test_balance_matches_loop_oracle():
    # seeded closed matrices with unreachable pairs, at the computed rates
    # and at perturbed ones: the array form must equal the loop bit for bit
    rng = np.random.default_rng(11)
    checked = 0
    for trial in range(66):
        n = 2 + trial % 11
        costs = shortest_path_closure(make_cost_matrix(rng, n, inf_prob=(0.0, 0.3, 0.6)[trial % 3]))
        try:
            rates = stationary_rates(costs)
        except ValueError:
            continue
        perturbed = rates.rates + rng.uniform(-0.05, 0.05, size=n)
        for vec in (rates.rates, perturbed - perturbed.min()):
            candidate = StationaryRates(costs.labels, vec)
            assert max_balance_residual(candidate, costs) == max_balance_residual_loop(
                candidate, costs
            )
            checked += 1
    assert checked >= 100


def test_balance_at_size_cap():
    rng = np.random.default_rng(20)
    costs = shortest_path_closure(make_cost_matrix(rng, MAX_BALANCE_SIZE, inf_prob=0.3))
    assert max_balance_residual(stationary_rates(costs), costs) <= BALANCE_TOL


def test_rates_min_must_be_zero():
    with pytest.raises(ValueError, match="minimum"):
        StationaryRates(("a", "b"), np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        StationaryRates(("a", "b"), np.array([np.nan, 0.0]))
    rates = StationaryRates(("a", "b"), np.array([0.0, np.inf]))
    assert np.isinf(rates.rates[1])


def test_evaluate_rate():
    rates = StationaryRates(LABELS, np.array([0.0, 1.0, 2.0]))
    assert evaluate_rate(rates, np.array([0.7, 0.1, 3.0])) == 0.7
    assert evaluate_rate(rates, np.array([np.inf, 0.1, 3.0])) == 1.1
    assert np.isinf(evaluate_rate(rates, np.full(3, np.inf)))


@st.composite
def small_costs(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    vals = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0),
            min_size=n * n,
            max_size=n * n,
        )
    )
    entries = np.array(vals).reshape(n, n)
    np.fill_diagonal(entries, 0.0)
    return CostMatrix(tuple(f"a{k}" for k in range(n)), entries)


@given(small_costs())
@settings(max_examples=80, deadline=None)
def test_closure_is_idempotent_and_dominated(costs):
    closed = shortest_path_closure(costs)
    again = shortest_path_closure(closed)
    # re-closing may re-associate a path sum and move an entry by an ulp,
    # so idempotence is exact on the infinity pattern and ulp-tight on values
    finite = np.isfinite(closed.entries)
    assert np.array_equal(finite, np.isfinite(again.entries))
    assert np.allclose(closed.entries[finite], again.entries[finite], rtol=1e-12, atol=0.0)
    assert np.all(closed.entries <= costs.entries)
    assert is_closed(closed, tol=1e-9)


@given(small_costs())
@settings(max_examples=80, deadline=None)
def test_closure_satisfies_triangle_inequality(costs):
    a = shortest_path_closure(costs).entries
    n = a.shape[0]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert a[i, j] <= a[i, k] + a[k, j] + 1e-9
