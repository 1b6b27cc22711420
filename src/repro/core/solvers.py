"""Penalized least-squares solvers: coordinate descent and ridge.

One engine covers MCP, Lasso, and elastic net — exactly the solver family
the paper's comparisons need (APOLLO vs Pagliari-Lasso vs Simmani's elastic
net).  Features are standardized internally (zero mean, unit variance), the
standard setting for sparsity-inducing penalties; fitted weights are mapped
back to the original feature scale and an intercept absorbs the centering.

For speed the solver uses *covariance updates*: after one pass computing
``G = X'X / N`` and ``c = X'y / N``, each coordinate step is O(M), making
warm-started lambda paths over thousands of candidates cheap.  An active-set
strategy (full sweeps only when the active set stabilizes) gives the usual
further speedup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PowerModelError
from repro.obs.trace import NULL_TRACER
from repro.core.mcp import _check as check_mcp_params

__all__ = [
    "CdResult",
    "coordinate_descent",
    "lambda_max",
    "lambda_path",
    "ridge_fit",
    "Standardizer",
]


class Standardizer:
    """Column standardization that tolerates constant columns.

    Constant columns get scale 1 and end up with weight 0 (their centered
    values are identically zero), so they can never be selected — matching
    the intuition that a never/always-toggling signal carries no per-cycle
    information (the intercept absorbs it).
    """

    def __init__(self, X: np.ndarray) -> None:
        X = np.asarray(X, dtype=np.float64)
        self.mean = X.mean(axis=0)
        sd = X.std(axis=0)
        self.constant = sd <= 1e-12
        self.scale = np.where(self.constant, 1.0, sd)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.mean) / self.scale

    def unstandardize_weights(
        self, w_std: np.ndarray, y_mean: float
    ) -> tuple[np.ndarray, float]:
        """Map standardized-space weights to raw-space (weights, intercept)."""
        w = np.where(self.constant, 0.0, w_std / self.scale)
        intercept = float(y_mean - w @ self.mean)
        return w, intercept


@dataclass
class CdResult:
    """Result of one coordinate-descent fit (raw feature space)."""

    weights: np.ndarray
    intercept: float
    weights_std: np.ndarray
    lam: float
    n_iter: int
    converged: bool

    @property
    def nonzero(self) -> np.ndarray:
        return np.nonzero(self.weights_std != 0.0)[0]

    @property
    def n_nonzero(self) -> int:
        return int(np.count_nonzero(self.weights_std))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.weights + self.intercept


def _soft(z: float, t: float) -> float:
    """Scalar :func:`~repro.core.mcp.soft_threshold`, bit for bit: signed
    zeros, NaN propagation and NaN payloads follow NumPy's array path."""
    m = abs(z) - t
    if not m > 0.0 and m == m:
        m = 0.0
    if z > 0.0:
        return m
    return -1.0 * m if z < 0.0 else 0.0 * m


def _prox_update(
    z: float, penalty: str, lam: float, gamma: float, alpha: float
) -> float:
    """One coordinate's proximal step on plain floats, bit-identical to
    :func:`~repro.core.mcp.mcp_prox` and the array elastic-net formula."""
    if penalty == "mcp":
        if abs(z) <= gamma * lam:
            return _soft(z, lam) / (1.0 - 1.0 / gamma)
        return z
    if penalty == "lasso":
        return _soft(z, lam)
    return _soft(z, lam * alpha) / (1.0 + lam * (1.0 - alpha))


def lambda_max(Xs: np.ndarray, y_centered: np.ndarray) -> float:
    """Smallest lambda with an all-zero Lasso/MCP solution."""
    n = Xs.shape[0]
    return float(np.abs(Xs.T @ y_centered).max() / n)


def lambda_path(
    lam_hi: float, lam_lo_frac: float = 1e-3, n: int = 60
) -> np.ndarray:
    """Log-spaced decreasing lambda path."""
    if lam_hi <= 0:
        raise PowerModelError("lambda_max must be positive")
    return np.geomspace(lam_hi, lam_hi * lam_lo_frac, n)


def coordinate_descent(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    penalty: str = "mcp",
    gamma: float = 10.0,
    alpha: float = 0.5,
    max_iter: int = 200,
    tol: float = 1e-6,
    warm_start: np.ndarray | None = None,
    _precomputed: tuple | None = None,
    tracer=None,
) -> CdResult:
    """Solve ``min_w 1/(2N) ||y - Xw - b||^2 + sum P(w_j)``.

    Parameters mirror the paper: ``gamma=10`` is the unpenalized-weight
    threshold used in §7.1; the regressor "converges within 200 iterations"
    — ``max_iter`` defaults accordingly.

    ``_precomputed`` lets the path driver share the standardizer and Gram
    matrix across lambda values.  With an enabled ``tracer`` each fit
    becomes a ``solver.cd`` span carrying the per-iteration residual
    (max coordinate delta) history alongside the convergence outcome.
    """
    tracer = tracer or NULL_TRACER
    if penalty not in ("mcp", "lasso", "elasticnet"):
        raise PowerModelError(f"unknown penalty {penalty!r}")
    if penalty == "mcp":
        check_mcp_params(lam, gamma)
    elif penalty == "elasticnet" and (lam < 0 or not 0 <= alpha <= 1):
        raise PowerModelError(f"need lam >= 0, alpha in [0, 1]: {lam}, {alpha}")
    if _precomputed is None:
        _precomputed = precompute(X, y)
    std, G, c, y_mean = _precomputed
    m = G.shape[0]

    w = (
        warm_start.astype(np.float64).copy()
        if warm_start is not None
        else np.zeros(m)
    )
    if w.shape != (m,):
        raise PowerModelError("warm_start has wrong shape")
    Gw = G @ w if w.any() else np.zeros(m)
    # The coordinate loop runs on plain floats (NumPy scalars are slower).
    c_list = c.tolist()
    prox_args = (penalty, float(lam), float(gamma), float(alpha))

    converged = False
    it = 0
    active: np.ndarray | None = None
    # Residual history is only materialized when tracing is on, so the
    # disabled-by-default path stays allocation-free.
    history: list[float] | None = [] if tracer.enabled else None
    with tracer.span(
        "solver.cd", penalty=penalty, lam=float(lam)
    ) as sp:
        for it in range(1, max_iter + 1):
            # An active-set sweep below tolerance only *tentatively*
            # converges (pending the confirming full sweep), so the flag
            # must not survive into an iteration whose sweep still moves
            # weights.
            converged = False
            # Alternate full sweeps with active-set sweeps.
            full_sweep = active is None or (it % 10 == 1)
            idx = range(m) if full_sweep else active.tolist()
            max_delta = 0.0
            for j in idx:
                wj = w.item(j)
                wj_new = _prox_update(
                    c_list[j] - Gw.item(j) + wj, *prox_args
                )
                delta = wj_new - wj
                if delta != 0.0:
                    Gw += G[:, j] * delta
                    w[j] = wj_new
                    max_delta = max(max_delta, abs(delta))
            if history is not None:
                history.append(max_delta)
            if full_sweep:
                active = np.nonzero(w != 0.0)[0]
            if max_delta < tol:
                converged = True
                if full_sweep:
                    break
                active = None  # confirm with one final full sweep

        if sp:
            sp.set(
                n_iter=it,
                converged=converged,
                n_nonzero=int(np.count_nonzero(w)),
                residual_history=history,
            )

    weights, intercept = std.unstandardize_weights(w, y_mean)
    return CdResult(
        weights=weights,
        intercept=intercept,
        weights_std=w,
        lam=lam,
        n_iter=it,
        converged=converged,
    )


def precompute(
    X: np.ndarray, y: np.ndarray
) -> tuple[Standardizer, np.ndarray, np.ndarray, float]:
    """Standardize and form the Gram matrix / correlation vector.

    Returns ``(std, G, c, y_mean)`` — exactly what the coordinate-
    descent hot path consumes.  The centered target is cheap to rebuild
    (``y - y_mean``) where a caller needs it (e.g. ``lambda_max``), so
    it is not carried in the tuple.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise PowerModelError(
            f"bad shapes X{X.shape} y{y.shape} for regression"
        )
    n = X.shape[0]
    if n < 2:
        raise PowerModelError("need at least 2 samples")
    std = Standardizer(X)
    Xs = std.transform(X)
    y_mean = float(y.mean())
    G = (Xs.T @ Xs) / n
    c = (Xs.T @ (y - y_mean)) / n
    return std, G, c, y_mean


def ridge_fit(
    X: np.ndarray,
    y: np.ndarray,
    lam: float = 1e-3,
    fit_intercept: bool = True,
) -> tuple[np.ndarray, float]:
    """Closed-form ridge regression (the relaxation step of §4.4).

    Returns raw-space ``(weights, intercept)``.  ``lam`` is relative to the
    standardized scale, "much weaker" than the selection penalty.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] != y.shape[0]:
        raise PowerModelError("X and y disagree on sample count")
    n, m = X.shape
    if fit_intercept:
        xm = X.mean(axis=0)
        ym = float(y.mean())
        Xc = X - xm
        yc = y - ym
    else:
        xm = np.zeros(m)
        ym = 0.0
        Xc, yc = X, y
    A = (Xc.T @ Xc) / n + lam * np.eye(m)
    b = (Xc.T @ yc) / n
    w = np.linalg.solve(A, b)
    intercept = ym - float(w @ xm) if fit_intercept else 0.0
    return w, intercept
