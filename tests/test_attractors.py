import tracemalloc

import numpy as np
import pytest

from conftest import AnalyticDrift
from quasipot.attractors import (
    ROOT_TOL,
    SearchBox,
    _classify,
    _newton,
    find_equilibria,
    stable_attractors,
)
from quasipot.models import LinearDrift, PolynomialDrift

double_well = PolynomialDrift([0.0, 1.0, 0.0, -1.0])


def one_seed_newton(drift, seed, root_tol):
    """The reference search: damped Newton from one seed, None when it fails ``root_tol``."""
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
        for t in 0.5 ** np.arange(14):
            x_new = x - t * step
            f_new = drift(x_new[None, :])[0]
            if np.abs(f_new).max() < res:
                x, fx, res = x_new, f_new, np.abs(f_new).max()
                break
        else:
            break
    return x if res <= root_tol else None


def one_seed_equilibria(drift, box, root_tol):
    """``(position, classification)`` of each root, one seed at a time, first seed wins."""
    roots = []
    for seed in box.seeds():
        x = one_seed_newton(drift, seed, root_tol)
        if x is not None and box.contains(x) and not any(np.abs(x - r).max() <= 10 * root_tol for r in roots):
            roots.append(x)
    roots.sort(key=tuple)
    return [(x, _classify(np.linalg.eigvals(drift.jacobian(x[None])[0]))) for x in roots]


def _quadratic_field(y):
    y = np.asarray(y, dtype=float)
    return np.stack([-y[..., 0] + y[..., 1] ** 2, y[..., 0] * y[..., 1] - 0.5 * y[..., 1] + 0.1], axis=-1)


def _quadratic_jacobian(y):
    y = np.asarray(y, dtype=float)
    jac = np.zeros(y.shape + (2,))
    jac[..., 0, 0] = -1.0
    jac[..., 0, 1] = 2.0 * y[..., 1]
    jac[..., 1, 0] = y[..., 1]
    jac[..., 1, 1] = y[..., 0] - 0.5
    return jac


@pytest.mark.parametrize(
    "drift, box",
    [
        (double_well, SearchBox(np.array([-2.0]), np.array([2.0]), 41)),
        (PolynomialDrift([0.1, 1.0, 0.3, -1.0, 0.0, 0.02]), SearchBox(np.array([-3.0]), np.array([7.0]), 60)),
        (PolynomialDrift([-1.0, 0.0, 1.0]), SearchBox(np.array([-2.0]), np.array([2.0]), 9)),
        (AnalyticDrift(_quadratic_field, _quadratic_jacobian), SearchBox(-2.0 * np.ones(2), 2.0 * np.ones(2), 15)),
    ],
    ids=["double-well", "quintic", "singular-seed", "quadratic-2d"],
)
def test_batched_search_matches_one_seed_search_bit_for_bit(drift, box):
    seeds = box.seeds()
    found, ok = _newton(drift, seeds, 1e-12)
    for seed, x, hit in zip(seeds, found, ok):
        want = one_seed_newton(drift, seed, 1e-12)
        assert hit == (want is not None)
        if hit:
            assert x.tobytes() == want.tobytes()
    eqs = find_equilibria(drift, box)
    want = one_seed_equilibria(drift, box, ROOT_TOL)
    assert [e.position.tobytes() for e in eqs] == [x.tobytes() for x, _ in want]
    assert [e.classification for e in eqs] == [c for _, c in want]


def _random_linear_drift(rng, kind):
    basis = rng.normal(size=(2, 2))
    if kind == "singular":
        # one zero column: exactly singular, with the seeds on that axis as its roots
        basis[:, rng.integers(2)] = 0.0
        return basis
    eigs = -rng.uniform(0.2, 3.0, size=2)
    if kind == "saddle":
        eigs[0] = -eigs[0]
    return basis @ np.diag(eigs) @ np.linalg.inv(basis)


@pytest.mark.parametrize("kind", ["hurwitz", "saddle", "singular"])
def test_batched_search_on_linear_drifts_matches_one_seed_search(kind):
    # A batched matrix product may round differently from a one-row one, so
    # roots agree within ROOT_TOL rather than bit for bit.
    rng = np.random.default_rng(["hurwitz", "saddle", "singular"].index(kind))
    box = SearchBox(np.array([-1.2, -0.5]), np.array([1.2, 1.5]), 5)
    for _ in range(20):
        drift = LinearDrift(_random_linear_drift(rng, kind))
        eqs = find_equilibria(drift, box)
        want = one_seed_equilibria(drift, box, ROOT_TOL)
        assert len(eqs) == len(want) >= 1
        for eq, (x, cls) in zip(eqs, want):
            np.testing.assert_allclose(eq.position, x, rtol=0, atol=ROOT_TOL)
            assert eq.classification == cls


def test_singular_seed_does_not_stop_the_others():
    # b = x^2 - 1 has b' = 0 at the seed 0: that seed fails, the others still converge.
    drift = PolynomialDrift([-1.0, 0.0, 1.0])
    found, ok = _newton(drift, np.array([[0.0], [0.5], [-3.0]]), 1e-12)
    assert ok.tolist() == [False, True, True]
    assert found[1:, 0].tolist() == [1.0, -1.0]
    eqs = find_equilibria(drift, SearchBox(np.array([-1.0]), np.array([1.0]), 3))
    assert [e.position.tolist() for e in eqs] == [[-1.0], [1.0]]


def test_fine_grid_search_runs_in_memory_linear_in_the_seeds():
    # 50,000 seeds that nearly all converge in the box: the dedup compares
    # each root with the kept roots only, never all pairs of seeds.
    box = SearchBox(np.array([-2.0]), np.array([2.0]), 50_000)
    tracemalloc.start()
    try:
        eqs = find_equilibria(double_well, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * box.seeds().nbytes  # 16 MB; all seed pairs would take 20 GB
    want = one_seed_equilibria(double_well, SearchBox(np.array([-2.0]), np.array([2.0]), 41), ROOT_TOL)
    assert len(eqs) == len(want) == 3
    for eq, (x, cls) in zip(eqs, want):
        np.testing.assert_allclose(eq.position, x, rtol=0, atol=ROOT_TOL)
        assert eq.classification == cls


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
    eqs = find_equilibria(double_well, box)
    assert [round(float(e.position[0]), 9) for e in eqs] == [-1.0, 0.0, 1.0]
    assert [e.classification for e in eqs] == ["stable", "unstable", "stable"]
    stable = stable_attractors(eqs)
    assert len(stable) == 2
    # eigenvalues of the 1x1 jacobian: -2 at the wells, +1 at the saddle
    assert eqs[0].eigenvalues.real[0] == pytest.approx(-2.0, abs=1e-6)
    assert eqs[1].eigenvalues.real[0] == pytest.approx(1.0, abs=1e-6)


def test_duplicate_roots_are_merged():
    box = SearchBox(np.array([-2.0]), np.array([2.0]), 41)
    eqs = find_equilibria(double_well, box)
    assert len(eqs) == 3


def test_roots_outside_box_are_dropped():
    # roots at 0 and 4; the box only covers the first
    field = PolynomialDrift([0.0, 4.0, -1.0])
    box = SearchBox(np.array([-1.0]), np.array([1.0]), 9)
    eqs = find_equilibria(field, box)
    assert len(eqs) == 1
    assert eqs[0].position[0] == pytest.approx(0.0, abs=1e-9)


def test_marginal_classification():
    field = PolynomialDrift([0.0, 0.0, 0.0, -1.0])
    box = SearchBox(np.array([-1.0]), np.array([1.0]), 5)
    eqs = find_equilibria(field, box)
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
    eqs = find_equilibria(AnalyticDrift(field, jacobian), box)
    assert len(eqs) == 1
    np.testing.assert_allclose(eqs[0].position, [0.0, 0.0], atol=1e-10)
    np.testing.assert_allclose(eqs[0].jacobian, [[-1.0, 0.0], [0.0, -2.0]], atol=1e-5)
    assert eqs[0].classification == "stable"


def test_results_sorted_by_position():
    box = SearchBox(np.array([-2.0]), np.array([2.0]), 17)
    eqs = find_equilibria(double_well, box)
    positions = [float(e.position[0]) for e in eqs]
    assert positions == sorted(positions)
