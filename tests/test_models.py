import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import AnalyticDrift
from quasipot.models import DegenerateCovariance, JumpAtom, LinearDrift, LocalModel, Path, PolynomialDrift, stacked_linalg

DECAY2 = LinearDrift(-np.eye(2))


def make_toy_model(jumps=()):
    return LocalModel(2, DECAY2, np.array([[1.0, 0.0], [0.5, 2.0]]), jumps)


def test_constant_jump_broadcasts():
    model = make_toy_model((JumpAtom(1.0, [1.0, -2.0]),))
    out = model.jump_values(np.random.default_rng(0).normal(size=(4, 3, 2)))
    assert out.shape == (4, 3, 1, 2)
    assert np.all(out[..., 0] == 1.0) and np.all(out[..., 1] == -2.0)


def test_affine_jump():
    model = make_toy_model((JumpAtom(1.0, [1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]]),))
    got = model.jump_values(np.array([[2.0, 3.0]]))
    np.testing.assert_allclose(got[:, 0], [[1.0 + 3.0, 2.0]])


def test_jump_atom_rejects_bad_rate():
    for rate in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            JumpAtom(rate, [1.0])


def test_jump_shapes_are_checked():
    # a jump vector shorter than the model used to broadcast silently
    with pytest.raises(ValueError, match="length 2"):
        LocalModel(2, DECAY2, np.eye(2), (JumpAtom(1.0, [0.5]),))
    with pytest.raises(ValueError, match="matrix"):
        JumpAtom(1.0, [0.5, 0.0], np.eye(3))
    with pytest.raises(ValueError, match="one-dimensional"):
        JumpAtom(1.0, [[0.5, 0.0]])


@pytest.mark.parametrize("batch", [(), (100,), (3, 4)], ids=["point", "rows", "grid"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_jump_values_match_per_channel_formulas_bitwise(d, batch):
    rng = np.random.default_rng(d)
    atoms = (
        JumpAtom(0.7, rng.normal(size=d)),
        JumpAtom(1.3, rng.normal(size=d), rng.normal(size=(d, d))),
        JumpAtom(0.4, rng.normal(size=d), rng.normal(size=(d, d))),
    )
    y = rng.normal(size=batch + (d,))
    # constant channel: ``broadcast_to(vector)``; affine channel: ``vector + y @ matrix.T``
    want = np.stack(
        [np.broadcast_to(atoms[0].vector, y.shape)]
        + [atom.vector + y @ atom.matrix.T for atom in atoms[1:]],
        axis=-2,
    )
    for j in range(4):
        model = LocalModel(d, LinearDrift(-np.eye(d)), np.eye(d), atoms[:j])
        got = model.jump_values(y)
        assert got.shape == batch + (j, d)
        assert np.array_equal(got, want[..., :j, :])


def test_drift_shape_check():
    def first_axis(y):
        return np.asarray(y)[..., :1]

    def jacobian(y):
        return np.broadcast_to([[1.0, 0.0]], np.shape(y)[:-1] + (1, 2))

    model = LocalModel(2, AnalyticDrift(first_axis, jacobian), np.eye(2))
    with pytest.raises(ValueError, match="drift returned"):
        model.drift_at(np.zeros(2))


def test_drift_records_evaluate_as_the_spec_closures_bitwise():
    rng = np.random.default_rng(7)
    matrix = rng.normal(size=(3, 3))
    coeffs = rng.normal(size=5)
    for y in (rng.normal(size=(40, 3)), rng.normal(size=(4, 5, 3)), rng.normal(size=3)):
        assert np.array_equal(LinearDrift(matrix)(y), np.asarray(y, float) @ matrix.T)
    for y in (np.linspace(-3.0, 3.0, 601)[:, None], rng.normal(size=(4, 5, 1))):
        want = np.polynomial.polynomial.polyval(y[..., 0], coeffs)[..., None]
        assert np.array_equal(PolynomialDrift(coeffs)(y), want)


#: Coefficients with signed zeros mixed in, among them a zero leading one and a single one.
POLY_COEFFS = st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-10.0, 10.0), min_size=1, max_size=7)
#: Finite states with signed zeros and NaN mixed in, as (1,), (k, 1) or (r, k, 1) arrays.
POLY_STATES = st.sampled_from([(1,), (5, 1), (2, 3, 1)]).flatmap(
    lambda shape: hnp.arrays(
        float, shape, elements=st.sampled_from([0.0, -0.0, np.nan]) | st.floats(allow_infinity=False)
    )
)


@given(POLY_COEFFS, POLY_STATES)
@example([-0.0, 0.15, -0.0, -0.15], np.array([[-0.0], [0.0], [np.nan], [1.3]]))
@example([0.0, 2.0, -0.0], np.array([-0.0]))
@example([-0.0], np.array([[[1.0]], [[np.nan]]]))
@settings(max_examples=300, deadline=None)
def test_polynomial_drift_equals_polyval_bitwise(coeffs, y):
    """The drift and its derivative are ``P.polyval`` bit for bit, signed zeros and NaN alike.

    Infinite states are excluded: there polyval's start ``c[-1] + x*0`` is
    NaN and the short start ``x * c[-1]`` is infinite.  ``simulate`` never
    keeps a step taken from an infinite state.
    """
    drift = PolynomialDrift(coeffs)
    poly = np.polynomial.polynomial
    with np.errstate(over="ignore", invalid="ignore"):
        pairs = (
            (drift(y), poly.polyval(y[..., 0], coeffs)[..., None]),
            (drift.jacobian(y), poly.polyval(y[..., 0], poly.polyder(coeffs))[..., None, None]),
        )
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


#: Finite entries with signed zeros mixed in.
SIGNED_FLOATS = st.sampled_from([0.0, -0.0]) | st.floats(-10.0, 10.0)
#: A ``LinearDrift`` of dimension 1 to 5 with a state of shape (d,), (k, d) or (r, k, d).
LINEAR_CASES = st.sampled_from([1, 2, 3, 5]).flatmap(
    lambda d: st.tuples(
        hnp.arrays(float, (d, d), elements=SIGNED_FLOATS).map(LinearDrift),
        hnp.arrays(float, st.sampled_from([(d,), (7, d), (2, 3, d)]), elements=SIGNED_FLOATS | st.just(np.nan)),
    )
)


@given(st.tuples(POLY_COEFFS.map(PolynomialDrift), POLY_STATES) | LINEAR_CASES)
@example((PolynomialDrift([-0.0, 0.15, -0.0, -0.15]), np.r_[np.linspace(-2.2, 2.2, 45), -0.0, np.nan][:, None]))
@example((LinearDrift([[-1.0, 0.4], [-0.3, -1.5]]), np.random.default_rng(5).normal(size=(384, 2))))
@settings(max_examples=300, deadline=None)
def test_drift_into_equals_call_bitwise(case):
    """``into`` writes what ``__call__`` returns, bit for bit, signed zeros and NaN alike."""
    drift, y = case
    out = np.full_like(y, 7.0)  # stale contents must not leak into the result
    with np.errstate(over="ignore", invalid="ignore"):
        want = drift(y)
        drift.into(y, out)
    assert np.array_equal(out, want, equal_nan=True)
    assert np.array_equal(np.signbit(out), np.signbit(want))


@pytest.mark.parametrize(
    "drift, d",
    [
        (LinearDrift([[-1.0, 3.0], [0.5, -2.0]]), 2),
        (PolynomialDrift([0.3, 1.0, -0.5, -1.0]), 1),
    ],
    ids=["linear", "polynomial"],
)
def test_drift_jacobian_matches_central_differences(drift, d):
    y = np.random.default_rng(3).normal(size=(6, d))
    jac = drift.jacobian(y)
    assert jac.shape == (6, d, d)
    h = 1e-6
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        np.testing.assert_allclose(jac[..., i], (drift(y + e) - drift(y - e)) / (2 * h), atol=1e-8)


def test_drift_records_are_validated_and_read_only():
    with pytest.raises(ValueError, match="Jacobian"):
        LocalModel(1, lambda y: -np.asarray(y, float), np.eye(1))
    with pytest.raises(ValueError, match="square"):
        LinearDrift(np.ones((2, 3)))
    with pytest.raises(ValueError, match="nonempty vector"):
        PolynomialDrift([[1.0, 2.0]])
    poly = PolynomialDrift([0.0, 1.0, 0.0, -1.0])
    for arr in (DECAY2.matrix, poly.coefficients, make_toy_model().jump_matrices):
        assert not arr.flags.writeable


def test_diffusion_is_a_constant_matrix():
    sig = np.array([[1.0, 0.0], [0.5, 2.0]])
    with pytest.raises(ValueError, match="constant"):
        LocalModel(2, DECAY2, lambda y: sig)
    model = LocalModel(2, DECAY2, sig)
    y = np.random.default_rng(0).normal(size=(5, 3, 2))
    sig_at = model.diffusion_at(y)
    assert sig_at.shape == (5, 3, 2, 2) and model.noise_cov.shape == (2, 2)
    assert not sig_at.flags.writeable and not model.noise_cov.flags.writeable
    np.testing.assert_array_equal(sig_at, np.broadcast_to(sig, (5, 3, 2, 2)))
    np.testing.assert_array_equal(model.noise_cov, sig @ sig.T)
    assert np.shares_memory(sig_at, model.diffusion)


def test_noise_covariance_formula():
    model = make_toy_model()
    sig = np.array([[1.0, 0.0], [0.5, 2.0]])
    np.testing.assert_allclose(model.noise_cov, sig @ sig.T)


def test_jump_covariance_formula():
    atoms = (
        JumpAtom(0.5, [1.0, 0.0]),
        JumpAtom(2.0, [0.0, 3.0]),
    )
    model = make_toy_model(atoms)
    got = model.jump_covariance(np.zeros(2))
    want = 0.5 * np.outer([1, 0], [1, 0]) + 2.0 * np.outer([0, 3], [0, 3])
    np.testing.assert_allclose(got, want)
    np.testing.assert_allclose(
        model.local_covariance(np.zeros(2)),
        model.noise_cov + want,
    )


def test_jump_values_stacking():
    atoms = (
        JumpAtom(1.0, [1.0, 0.0]),
        JumpAtom(1.0, [0.0, 0.0], np.eye(2)),
    )
    model = make_toy_model(atoms)
    y = np.array([[2.0, -1.0], [0.0, 4.0]])
    vals = model.jump_values(y)
    assert vals.shape == (2, 2, 2)
    np.testing.assert_allclose(vals[:, 0], [[1.0, 0.0], [1.0, 0.0]])
    np.testing.assert_allclose(vals[:, 1], y)
    assert model.jump_rates.tolist() == [1.0, 1.0]


def test_no_jumps_edge_case():
    model = make_toy_model()
    assert model.jump_values(np.zeros((3, 2))).shape == (3, 0, 2)
    np.testing.assert_array_equal(model.jump_covariance(np.zeros(2)), np.zeros((2, 2)))


def test_assert_nondegenerate():
    good = make_toy_model()
    good.assert_nondegenerate(np.zeros((3, 2)))
    flat = LocalModel(2, DECAY2, np.array([[1.0], [0.0]]))
    with pytest.raises(ValueError, match="degenerate"):
        flat.assert_nondegenerate(np.zeros(2))


def test_assert_nondegenerate_names_the_degenerate_state():
    # the jump (0, y2) fills the missing direction except where y2 = 0
    atom = JumpAtom(1.0, [0.0, 0.0], [[0.0, 0.0], [0.0, 1.0]])
    model = LocalModel(2, DECAY2, np.array([[1.0], [0.0]]), (atom,))
    y = np.array([[0.0, 1.0], [0.5, -2.0], [1.0, 0.0], [0.0, 3.0]])
    with pytest.raises(DegenerateCovariance, match="index 2 of the batch"):
        model.assert_nondegenerate(y)
    model.assert_nondegenerate(y[[0, 1, 3]])


def test_stacked_solve_zeroes_and_flags_only_the_singular_matrix():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(5, 3, 3)), rng.normal(size=(5, 3, 1))
    a[2, :, 0] = 0.0
    out, ok = stacked_linalg(np.linalg.solve, a, b)
    assert ok.tolist() == [True, True, False, True, True]
    assert not out[2].any()
    for k in (0, 1, 3, 4):
        assert out[k].tobytes() == np.linalg.solve(a[k], b[k]).tobytes()


def test_degenerate_diffusion_fixed_by_jump():
    # a jump channel can restore full rank by itself
    atom = JumpAtom(1.0, [0.0, 1.0])
    model = LocalModel(2, DECAY2, np.array([[1.0], [0.0]]), (atom,))
    model.assert_nondegenerate(np.zeros(2))


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_local_covariance_is_psd(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    sig = rng.normal(size=(d, int(rng.integers(1, 4))))
    atoms = tuple(
        JumpAtom(float(rng.uniform(0.1, 2.0)), rng.normal(size=d))
        for _ in range(int(rng.integers(0, 3)))
    )
    model = LocalModel(d, LinearDrift(-np.eye(d)), sig, atoms)
    c = model.local_covariance(rng.normal(size=(5, d)))
    eigs = np.linalg.eigvalsh(c)
    assert (eigs >= -1e-12).all()
    np.testing.assert_allclose(c, np.swapaxes(c, -1, -2), atol=1e-14)


# -- discrete paths ---------------------------------------------------------


def test_path_validation():
    with pytest.raises(ValueError, match="three points"):
        Path(1.0, np.zeros((2, 1)))
    with pytest.raises(ValueError, match="horizon"):
        Path(0.0, np.zeros((5, 1)))
    with pytest.raises(ValueError, match="finite"):
        Path(1.0, np.array([[0.0], [np.inf], [1.0]]))


def test_path_geometry():
    pts = np.array([[0.0], [1.0], [4.0], [9.0]])
    path = Path(3.0, pts)
    assert path.num_segments == 3
    assert path.dim == 1
    assert path.dt == 1.0
    np.testing.assert_allclose(path.times, [0.0, 1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        path.points[0, 0] = 5.0
