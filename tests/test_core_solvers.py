"""Tests for coordinate descent (MCP/Lasso/elastic net) and ridge."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import coordinate_descent, lambda_max, lambda_path, ridge_fit
from repro.core.mcp import mcp_prox, soft_threshold
from repro.core.solvers import _prox_update, precompute, Standardizer
from repro.errors import PowerModelError

INF, NAN = float("inf"), float("nan")
#: Inputs where NumPy's conventions differ from naive float code: signed
#: zeros, infinities, NaN of either sign, and the smallest subnormal.
EDGE_FLOATS = [0.0, -0.0, INF, -INF, NAN, -NAN, 5e-324, -5e-324]


def _sparse_problem(n=400, m=60, k=5, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, size=(n, m)).astype(np.float64)
    w_true = np.zeros(m)
    support = rng.choice(m, size=k, replace=False)
    w_true[support] = rng.uniform(2.0, 5.0, size=k)
    y = X @ w_true + 1.5 + noise * rng.standard_normal(n)
    return X, y, w_true, support


def test_lambda_max_zeroes_everything():
    X, y, _w, _s = _sparse_problem()
    fit = coordinate_descent(
        X, y, lam=lambda_max(*_standardized(X, y)) * 1.01, penalty="lasso"
    )
    assert fit.n_nonzero == 0


def _standardized(X, y):
    std = Standardizer(X)
    return std.transform(X), y - y.mean()


def test_lambda_path_is_decreasing():
    path = lambda_path(1.0, n=10)
    assert np.all(np.diff(path) < 0)
    with pytest.raises(PowerModelError):
        lambda_path(0.0)


@pytest.mark.parametrize("penalty", ["mcp", "lasso", "elasticnet"])
def test_support_recovery(penalty):
    X, y, w_true, support = _sparse_problem()
    fit = coordinate_descent(X, y, lam=0.3, penalty=penalty)
    assert fit.converged
    got = set(fit.nonzero.tolist())
    assert set(support.tolist()) <= got
    # not wildly dense
    assert len(got) < 25


def test_mcp_weights_nearly_unbiased_lasso_shrunk():
    """Fig. 13's mechanism: at equal lambda, MCP keeps large weights."""
    X, y, w_true, support = _sparse_problem(noise=0.01)
    lam = 0.4
    w_mcp = coordinate_descent(X, y, lam=lam, penalty="mcp").weights
    w_lasso = coordinate_descent(X, y, lam=lam, penalty="lasso").weights
    err_mcp = np.abs(w_mcp[support] - w_true[support]).mean()
    err_lasso = np.abs(w_lasso[support] - w_true[support]).mean()
    assert err_mcp < err_lasso
    assert np.abs(w_mcp).sum() > np.abs(w_lasso).sum()


def test_warm_start_converges_faster():
    X, y, _w, _s = _sparse_problem()
    pre = precompute(X, y)
    cold = coordinate_descent(X, y, lam=0.3, _precomputed=pre)
    warm = coordinate_descent(
        X, y, lam=0.25, warm_start=cold.weights_std, _precomputed=pre
    )
    assert warm.converged
    assert warm.n_iter <= cold.n_iter + 5


def test_prediction_quality():
    X, y, _w, _s = _sparse_problem(noise=0.01)
    fit = coordinate_descent(X, y, lam=0.1, penalty="mcp")
    p = fit.predict(X)
    resid = np.sqrt(((y - p) ** 2).mean())
    assert resid < 0.2


def test_intercept_recovered():
    X, y, _w, _s = _sparse_problem(noise=0.0)
    fit = coordinate_descent(X, y, lam=0.05, penalty="mcp")
    assert fit.intercept == pytest.approx(1.5, abs=0.3)


def test_constant_columns_never_selected():
    X, y, _w, _s = _sparse_problem()
    X[:, 0] = 1.0
    X[:, 1] = 0.0
    fit = coordinate_descent(X, y, lam=0.2, penalty="mcp")
    assert 0 not in fit.nonzero
    assert 1 not in fit.nonzero


def test_shape_validation():
    with pytest.raises(PowerModelError):
        coordinate_descent(np.zeros((5, 3)), np.zeros(4), lam=0.1)
    with pytest.raises(PowerModelError):
        coordinate_descent(np.zeros((1, 3)), np.zeros(1), lam=0.1)
    with pytest.raises(PowerModelError):
        coordinate_descent(
            np.random.rand(10, 3), np.random.rand(10), lam=0.1,
            penalty="bogus",
        )


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


@given(
    z=st.floats(allow_nan=False) | st.sampled_from(EDGE_FLOATS),
    lam=st.floats(0.0, 1e6) | st.sampled_from([0.0, 5e-324, INF]),
    gamma=st.floats(1.0, 1e6, exclude_min=True) | st.just(INF),
    alpha=st.floats(0.0, 1.0),
)
@settings(max_examples=400, deadline=None)
@np.errstate(all="ignore")  # inf - inf and friends are part of the domain
def test_float_prox_bit_identical_to_array_prox(z, lam, gamma, alpha):
    """The solver's scalar prox equals the vectorized reference API bit
    for bit, at ``z`` and around the MCP breakpoint ``gamma * lam``."""
    gl = gamma * lam
    near = [gl, np.nextafter(gl, -INF), np.nextafter(gl, INF)]
    for zz in [z, *near, *(-x for x in near)]:
        zz = float(zz)
        assert _bits(_prox_update(zz, "mcp", lam, gamma, alpha)) == _bits(
            mcp_prox(zz, lam, gamma)
        )
        assert _bits(_prox_update(zz, "lasso", lam, gamma, alpha)) == _bits(
            soft_threshold(zz, lam)
        )
        enet = soft_threshold(zz, lam * alpha) / (1.0 + lam * (1.0 - alpha))
        assert _bits(
            _prox_update(zz, "elasticnet", lam, gamma, alpha)
        ) == _bits(enet)


def test_solver_validates_penalty_parameters():
    X, y, _w, _s = _sparse_problem(n=50, m=8)
    with pytest.raises(PowerModelError):
        coordinate_descent(X, y, lam=-0.1, penalty="mcp")
    with pytest.raises(PowerModelError):
        coordinate_descent(X, y, lam=0.1, penalty="mcp", gamma=1.0)
    with pytest.raises(PowerModelError):
        coordinate_descent(X, y, lam=0.1, penalty="elasticnet", alpha=1.5)


def test_ridge_matches_lstsq_at_tiny_lambda():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((200, 8))
    w_true = rng.standard_normal(8)
    y = X @ w_true + 0.7
    w, b = ridge_fit(X, y, lam=1e-10)
    np.testing.assert_allclose(w, w_true, atol=1e-6)
    assert b == pytest.approx(0.7, abs=1e-6)


def test_ridge_shrinks_with_lambda():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((100, 5))
    y = X @ np.ones(5)
    w_small, _ = ridge_fit(X, y, lam=1e-6)
    w_big, _ = ridge_fit(X, y, lam=10.0)
    assert np.abs(w_big).sum() < np.abs(w_small).sum()


def test_ridge_no_intercept():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((100, 4))
    y = X @ np.array([1.0, 2.0, 3.0, 4.0])
    w, b = ridge_fit(X, y, lam=1e-9, fit_intercept=False)
    assert b == 0.0
    np.testing.assert_allclose(w, [1, 2, 3, 4], atol=1e-5)


def test_ridge_shape_validation():
    with pytest.raises(PowerModelError):
        ridge_fit(np.zeros((4, 2)), np.zeros(5))


def test_converged_flag_reset_each_iteration():
    """Stale-flag regression: a *tentative* active-set convergence must
    not survive into the result when the confirming full sweep still
    moves weights and the iteration budget runs out."""
    rng = np.random.default_rng(9)
    n, m = 80, 30
    X = rng.standard_normal((n, m))
    # Strongly correlated columns make the active set miss coordinates,
    # so active-set sweeps stall below tol while full sweeps still move.
    X[:, 1] = X[:, 0] * 0.98 + 0.02 * X[:, 1]
    w_true = np.zeros(m)
    w_true[[0, 3, 5]] = [2.0, -1.5, 1.0]
    y = X @ w_true + 0.2 * rng.standard_normal(n)

    res = coordinate_descent(X, y, lam=0.05, tol=1e-3, max_iter=5)
    assert res.n_iter == 5
    assert not res.converged

    # With budget to finish, the same problem genuinely converges: a
    # warm restart's first full sweep stays below tolerance.
    full = coordinate_descent(X, y, lam=0.05, tol=1e-3, max_iter=200)
    assert full.converged
    again = coordinate_descent(
        X, y, lam=0.05, tol=1e-3, max_iter=1, warm_start=full.weights_std
    )
    assert again.converged
