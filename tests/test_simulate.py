"""Euler-Maruyama with compensated Poisson jumps, and empirical rates.

Statistical checks use generous tolerances so they stay deterministic in
practice: the OU stationary variance at scale n is sigma^2 / (2 k n), and a
15 percent band around it is many standard errors wide at the sample sizes
used here.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quasipot.models import JumpAtom, LinearDrift, LocalModel, PolynomialDrift
from quasipot.pipeline import parse_problem_spec
from quasipot.simulate import (
    _BLOCK,
    _CHUNK,
    MIN_SAMPLES,
    EmpiricalRate,
    SimConfig,
    SimulationBlowup,
    empirical_rate,
    simulate,
    validation_report,
)


def ou_model(k=1.0, s=1.0):
    return LocalModel(1, LinearDrift([[-k]]), np.array([[s]]))


def base_config(**overrides):
    kwargs = dict(
        n_values=(50,),
        dt=0.01,
        burn_in=2.0,
        horizon=80.0,
        seed=11,
        initial=np.zeros(1),
        replicas=4,
        stride=5,
    )
    kwargs.update(overrides)
    return SimConfig(**kwargs)


def test_config_validation():
    with pytest.raises(ValueError):
        base_config(n_values=(0,))
    with pytest.raises(ValueError):
        base_config(n_values=())
    with pytest.raises(ValueError):
        base_config(dt=-0.1)
    with pytest.raises(ValueError):
        base_config(burn_in=100.0)  # not before the horizon
    with pytest.raises(ValueError):
        base_config(burn_in=np.nan)
    with pytest.raises(ValueError):
        base_config(dt=1e-310)  # horizon / dt overflows to inf steps
    with pytest.raises(ValueError):
        base_config(replicas=0)
    with pytest.raises(ValueError):
        base_config(stride=0)
    with pytest.raises(ValueError):
        base_config(initial=np.zeros((3, 1)))  # neither (d,) nor (replicas, d)


def test_simulate_refuses_unset_initial_states():
    cfg = base_config(initial=None)  # left for the caller to fill in
    with pytest.raises(ValueError, match="initial"):
        simulate(ou_model(), cfg)


def test_sample_count_arithmetic():
    cfg = base_config()
    x = simulate(ou_model(), cfg)[0]
    steps = int(round(cfg.horizon / cfg.dt))
    burn = int(round(cfg.burn_in / cfg.dt))
    per_replica = (steps - burn) // cfg.stride
    assert x.shape == (cfg.replicas * per_replica, 1)


def test_simulation_is_deterministic():
    cfg = base_config()
    a = simulate(ou_model(), cfg)[0]
    b = simulate(ou_model(), cfg)[0]
    np.testing.assert_array_equal(a, b)


def test_replica_streams_are_keyed_not_positional():
    # the first replicas of a wider run reproduce the narrower run exactly
    wide = simulate(ou_model(), base_config(replicas=6))[0]
    narrow = simulate(ou_model(), base_config(replicas=3))[0]
    per = narrow.shape[0] // 3
    np.testing.assert_array_equal(wide[: 3 * per], narrow)


def test_seed_changes_output():
    a = simulate(ou_model(), base_config(seed=1))[0]
    b = simulate(ou_model(), base_config(seed=2))[0]
    assert not np.array_equal(a, b)


def test_ou_stationary_variance_scaling():
    k, s = 1.0, 1.0
    for n in (20, 80):
        cfg = base_config(n_values=(n,), horizon=300.0, burn_in=5.0, replicas=8, seed=4)
        x = simulate(ou_model(k, s), cfg)[0]
        target = s * s / (2 * k * n)
        assert x.var() == pytest.approx(target, rel=0.15)


def test_jump_channel_compensation():
    # compensated jumps leave the mean at the drift fixed point
    atom = JumpAtom(3.0, [0.2])
    model = LocalModel(1, LinearDrift([[-1.0]]), np.array([[0.5]]), (atom,))
    x = simulate(model, base_config(n_values=(40,), horizon=200.0, replicas=6, seed=9))[0]
    assert abs(x.mean()) < 0.01


def test_blowup_is_reported():
    model = LocalModel(1, PolynomialDrift([0.0, 0.0, 1.0]), np.eye(1))
    cfg = base_config(dt=0.5, initial=np.array([10.0]), horizon=400.0)
    with pytest.raises(SimulationBlowup, match="exceeded"):
        simulate(model, cfg)


def test_blowup_names_its_rung():
    # every rung leaves the region at the same step: the lowest index is named
    runaway = LocalModel(1, PolynomialDrift([0.0, 0.0, 1.0]), np.eye(1))
    cfg = base_config(n_values=(50, 20), dt=0.5, initial=np.array([10.0]), horizon=400.0)
    with pytest.raises(SimulationBlowup) as info:
        simulate(runaway, cfg)
    assert info.value.n == 50
    # an unstable linear step from 0: the noisier rung, n = 20, leaves first
    cfg = base_config(n_values=(80, 20), dt=2.5, horizon=400.0)
    with pytest.raises(SimulationBlowup) as info:
        simulate(ou_model(), cfg)
    assert info.value.n == 20


def test_blowup_mid_chunk_in_a_later_block_names_its_first_step():
    # noiseless exponential growth crosses the limit just past the first draw
    # block, inside a chunk; every rung crosses together, so the first is named
    lam, dt = 0.0843, 0.01
    model = LocalModel(1, LinearDrift([[lam]]), np.zeros((1, 1)))
    cfg = base_config(n_values=(50, 20), dt=dt, burn_in=0.0, horizon=200.0, initial=np.ones(1), replicas=2)
    x, expected = 1.0, 0
    while abs(x) <= 1e6:  # the simulator's float recurrence: x + (x * lam) * dt
        x, expected = x + x * lam * dt, expected + 1
    assert _BLOCK < expected < _BLOCK + _CHUNK and expected % _CHUNK
    with pytest.raises(SimulationBlowup, match=rf"at step {expected} \(time ") as info:
        simulate(model, cfg)
    assert info.value.n == 50


def reference_euler(model, cfg, n):
    """One rung at scale ``n``: Euler-Maruyama with ``sigma(X) xi`` evaluated at every step."""
    seeds = [np.random.SeedSequence((cfg.seed, r)) for r in range(cfg.replicas)]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    nu = model.jump_rates
    m = model.diffusion.shape[1]
    x = cfg.initial.copy()
    samples = []
    for start in range(0, cfg.num_steps, _BLOCK):
        block = min(_BLOCK, cfg.num_steps - start)
        normals = np.stack([rng.standard_normal((block, m)) for rng in rngs])
        if len(nu):
            counts = np.stack([rng.poisson(n * nu * cfg.dt, (block, len(nu))) for rng in rngs])
        for k in range(block):
            sig = model.diffusion_at(x)
            incr = model.drift_at(x) * cfg.dt + np.sqrt(cfg.dt / n) * np.einsum(
                "rdm,rm->rd", sig, normals[:, k]
            )
            if len(nu):
                weights = counts[:, k].astype(float) / n - nu * cfg.dt
                incr = incr + np.einsum("rj,rjd->rd", weights, model.jump_values(x))
            x = x + incr
            step = start + k + 1
            if step > cfg.burn_steps and (step - cfg.burn_steps) % cfg.stride == 0:
                samples.append(x.copy())
    return np.stack(samples).transpose(1, 0, 2).reshape(-1, model.dim)


def rotated_jump_model():
    atoms = (
        JumpAtom(0.7, [0.3, -0.1]),
        JumpAtom(1.3, [0.05, 0.0], [[-0.2, 0.1], [0.0, -0.3]]),
    )
    matrix = np.array([[-1.0, 0.4], [-0.3, -1.5]])
    sigma = np.array([[0.9, 0.3], [-0.2, 1.1]])
    return LocalModel(2, LinearDrift(matrix), sigma, atoms)


def double_well_mc_model():
    """The model of ``specs/double_well_mc.json``: a ``gradient_polynomial`` drift with -0.0 coefficients."""
    spec = Path(__file__).resolve().parent.parent / "specs" / "double_well_mc.json"
    return parse_problem_spec(json.loads(spec.read_text())).build_model()


REFERENCE_CASES = [
    (ou_model(k=0.7, s=1.3), np.zeros(1)),
    (rotated_jump_model(), np.array([0.2, -0.1])),
    (double_well_mc_model(), np.array([-1.0])),
]
REFERENCE_MODELS = pytest.mark.parametrize(
    "model, initial", REFERENCE_CASES, ids=["1d-no-jumps", "2d-m2-jumps", "1d-double-well"]
)


@pytest.mark.parametrize(
    "model, initial, steps, burn, stride",
    [
        *[(*case, _BLOCK + 500, 100, 7) for case in REFERENCE_CASES],
        (*REFERENCE_CASES[0], 9 * _CHUNK + 3, 0, _CHUNK + 13),
        (*REFERENCE_CASES[0], 7 * _CHUNK + 5, 2 * _CHUNK + 3, 1),
    ],
    ids=["1d-no-jumps", "2d-m2-jumps", "1d-double-well", "1d-stride-past-chunk", "1d-ragged-steps-and-burn-in"],
)
def test_simulate_matches_per_step_reference_bitwise(model, initial, steps, burn, stride):
    # the first three cross one draw-block boundary, so per-block scaling is exercised twice;
    # the last two put the stride, the step count and the burn-in off the chunk grid
    cfg = base_config(
        n_values=(30,), horizon=steps * 0.01, burn_in=burn * 0.01, stride=stride, initial=initial, replicas=3
    )
    assert (cfg.num_steps, cfg.burn_steps) == (steps, burn)
    np.testing.assert_array_equal(simulate(model, cfg)[0], reference_euler(model, cfg, 30))


@REFERENCE_MODELS
def test_ladder_rows_match_one_rung_reference_bitwise(model, initial):
    # the rungs step as one batch, yet each row is the one-rung run at its n
    horizon = (_BLOCK + 500) * 0.01
    cfg = base_config(
        n_values=(20, 30, 45), horizon=horizon, burn_in=1.0, stride=7, initial=initial, replicas=3
    )
    ladder = simulate(model, cfg)
    assert ladder.shape[0] == 3
    for row, n in zip(ladder, cfg.n_values):
        assert np.array_equal(row, reference_euler(model, cfg, n))


def test_draw_buffers_are_allocated_once():
    # 2.5 draw blocks: a block's draws must reuse the previous block's buffers, not sit beside them
    cfg = base_config(horizon=2.5 * _BLOCK * 0.01, burn_in=0.0, replicas=32, stride=_BLOCK // 4)
    block_kicks = cfg.replicas * _BLOCK * 8
    tracemalloc.start()
    try:
        samples = simulate(ou_model(), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * block_kicks + samples.nbytes


def test_per_replica_initial_states():
    init = np.array([[-1.0], [1.0]])
    cfg = base_config(replicas=2, initial=init, horizon=3.0, burn_in=0.0, stride=1)
    x = simulate(ou_model(k=1e-9, s=1e-9), cfg)[0]
    per = x.shape[0] // 2
    # with negligible drift and noise each replica stays near its own start
    assert np.allclose(x[:per], -1.0, atol=1e-3)
    assert np.allclose(x[per:], 1.0, atol=1e-3)


# -- empirical rates ---------------------------------------------------------


def test_empirical_rate_requires_enough_samples():
    with pytest.raises(ValueError, match="sample"):
        empirical_rate(np.zeros((MIN_SAMPLES - 1, 1)), [np.linspace(-1, 1, 5)], 10)
    with pytest.raises(ValueError, match="shape"):
        empirical_rate(np.zeros(MIN_SAMPLES), [np.linspace(-1, 1, 5)], 10)


def test_empirical_rate_minimum_is_zero_and_censoring_marked():
    rng = np.random.default_rng(0)
    samples = rng.normal(scale=0.1, size=(20_000, 1))
    edges = [np.linspace(-1.0, 1.0, 21)]
    emp = empirical_rate(samples, edges, n=30)
    populated = ~np.isnan(emp.rates)
    assert np.nanmin(emp.rates) == 0.0
    assert (emp.counts[~populated] == 0).all()
    assert not emp.degenerate
    assert emp.centers.shape == (20, 1)
    # the mode sits at the origin, so the zero-rate bin is central
    assert abs(emp.centers[np.nanargmin(emp.rates), 0]) < 0.1


def test_empirical_rate_flags_degenerate_histogram():
    samples = np.full((MIN_SAMPLES, 1), 0.5)
    edges = [np.linspace(0.0, 1.0, 5)]
    emp = empirical_rate(samples, edges, n=10)
    assert emp.degenerate
    assert (emp.counts > 0).sum() == 1


def test_empirical_rate_two_dimensional():
    rng = np.random.default_rng(1)
    samples = rng.normal(scale=0.3, size=(40_000, 2))
    edges = [np.linspace(-1, 1, 7), np.linspace(-1, 1, 7)]
    emp = empirical_rate(samples, edges, n=25)
    assert emp.centers.shape == (36, 2)
    assert emp.counts.sum() <= 40_000
    assert np.nanmin(emp.rates) == 0.0


def test_validation_report_alignment_and_sup():
    centers = np.linspace(-1.0, 1.0, 9)[:, None]
    counts = np.full(9, 2000)
    rates = centers[:, 0] ** 2
    emp = EmpiricalRate(centers, counts, rates, n=20, degenerate=False)
    predicted = centers[:, 0] ** 2 + 0.3  # constant offset must not matter
    rep = validation_report(predicted, emp)
    assert rep.sup_error == pytest.approx(0.0, abs=1e-12)
    assert rep.censored_bins == 0


def test_validation_report_rejects_bad_predictions():
    centers = np.linspace(-1.0, 1.0, 5)[:, None]
    emp = EmpiricalRate(centers, np.full(5, 100), centers[:, 0] ** 2, 20, False)
    with pytest.raises(ValueError, match="NaN"):
        validation_report(np.full(5, np.nan), emp)
    with pytest.raises(ValueError):
        validation_report(np.full(5, np.inf), emp)
    with pytest.raises(ValueError, match="shape"):
        validation_report(np.zeros(4), emp)


def test_validation_report_skips_censored_bins():
    centers = np.linspace(-1.0, 1.0, 5)[:, None]
    rates = np.array([0.0, 1.0, np.nan, 1.0, 0.0])
    counts = np.array([100, 10, 0, 10, 100])
    emp = EmpiricalRate(centers, counts, rates, 20, False)
    rep = validation_report(np.zeros(5), emp)
    assert rep.censored_bins == 1
    assert rep.predicted.shape[0] == 4
