import numpy as np
import pytest

from conftest import AnalyticDrift
from quasipot.attractors import (
    SearchBox,
    find_equilibria,
    stable_attractors,
)
from quasipot.models import PolynomialDrift

double_well = PolynomialDrift([0.0, 1.0, 0.0, -1.0])


def test_search_box_validation():
    with pytest.raises(ValueError):
        SearchBox(np.array([1.0]), np.array([0.0]), 5)
    with pytest.raises(ValueError):
        SearchBox(np.array([0.0]), np.array([1.0]), 1)
    with pytest.raises(ValueError):
        SearchBox(np.array([0.0, 0.0]), np.array([1.0]), 5)


def test_search_box_seed_grid():
    box = SearchBox(np.array([0.0, -1.0]), np.array([1.0, 1.0]), 3)
    seeds = box.seeds()
    assert seeds.shape == (9, 2)
    assert seeds[0].tolist() == [0.0, -1.0]
    assert seeds[-1].tolist() == [1.0, 1.0]
    assert box.contains(np.array([0.5, 0.0]))
    assert not box.contains(np.array([1.5, 0.0]))
    # boundary roots within slack still count as inside
    assert box.contains(np.array([1.0 + 1e-10, 0.0]))


def test_seed_budget_cap():
    with pytest.raises(ValueError, match="seed"):
        SearchBox(np.zeros(4), np.ones(4), 50)


def test_double_well_equilibria():
    box = SearchBox(np.array([-2.0]), np.array([2.0]), 9)
    eqs = find_equilibria(double_well, box, root_tol=1e-12)
    assert [round(float(e.position[0]), 9) for e in eqs] == [-1.0, 0.0, 1.0]
    assert [e.classification for e in eqs] == ["stable", "unstable", "stable"]
    stable = stable_attractors(eqs)
    assert len(stable) == 2
    # eigenvalues of the 1x1 jacobian: -2 at the wells, +1 at the saddle
    assert eqs[0].eigenvalues.real[0] == pytest.approx(-2.0, abs=1e-6)
    assert eqs[1].eigenvalues.real[0] == pytest.approx(1.0, abs=1e-6)


def test_duplicate_roots_are_merged():
    box = SearchBox(np.array([-2.0]), np.array([2.0]), 41)
    eqs = find_equilibria(double_well, box, root_tol=1e-12)
    assert len(eqs) == 3


def test_roots_outside_box_are_dropped():
    # roots at 0 and 4; the box only covers the first
    field = PolynomialDrift([0.0, 4.0, -1.0])
    box = SearchBox(np.array([-1.0]), np.array([1.0]), 9)
    eqs = find_equilibria(field, box, root_tol=1e-10)
    assert len(eqs) == 1
    assert eqs[0].position[0] == pytest.approx(0.0, abs=1e-9)


def test_marginal_classification():
    field = PolynomialDrift([0.0, 0.0, 0.0, -1.0])
    box = SearchBox(np.array([-1.0]), np.array([1.0]), 5)
    eqs = find_equilibria(field, box, root_tol=1e-10)
    assert eqs[0].classification == "marginal"
    with pytest.raises(ValueError, match="stable"):
        stable_attractors(eqs)


def test_two_dimensional_system():
    def field(y):
        y = np.asarray(y, dtype=float)
        return np.stack([-y[..., 0] + y[..., 1] ** 2, -2.0 * y[..., 1]], axis=-1)

    def jacobian(y):
        y = np.asarray(y, dtype=float)
        jac = np.zeros(y.shape + (2,))
        jac[..., 0, 0] = -1.0
        jac[..., 0, 1] = 2.0 * y[..., 1]
        jac[..., 1, 1] = -2.0
        return jac

    box = SearchBox(np.array([-1.5, -1.5]), np.array([1.5, 1.5]), 7)
    eqs = find_equilibria(AnalyticDrift(field, jacobian), box, root_tol=1e-12)
    assert len(eqs) == 1
    np.testing.assert_allclose(eqs[0].position, [0.0, 0.0], atol=1e-10)
    np.testing.assert_allclose(eqs[0].jacobian, [[-1.0, 0.0], [0.0, -2.0]], atol=1e-5)
    assert eqs[0].classification == "stable"


def test_results_sorted_by_position():
    box = SearchBox(np.array([-2.0]), np.array([2.0]), 17)
    eqs = find_equilibria(double_well, box)
    positions = [float(e.position[0]) for e in eqs]
    assert positions == sorted(positions)
