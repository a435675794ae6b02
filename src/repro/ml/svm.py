"""Kernel support-vector regression (SVR).

The paper evaluates Support Vector Machines as one of the three models
(Section III.B / VI.B).  scikit-learn is not available offline, so this
module implements epsilon-insensitive kernel SVR trained in the *primal*
using the representer theorem: the prediction function is expanded as

    f(x) = sum_i beta_i K(x_i, x) + b

and the coefficients ``beta`` are found by minimising the regularised
(smoothed) epsilon-insensitive loss with L-BFGS.  For the dataset sizes
used in this study (a few hundred samples) this is fast, deterministic
and numerically robust.

A target matrix ``(n, R)`` fits R models on one Gram matrix: L-BFGS runs
once per column, exactly as a 1-D fit on that column runs it, and
``predict`` makes one kernel-times-coefficients product per column, so
every output column is bit-identical to its own single-output model.
scipy's optimiser loads on the first fit, not with ``import repro``.
Each fit adds its columns' L-BFGS iterations to the ``ml.svr_iterations``
counter and the columns whose optimiser stopped at its iteration limit
(``max_iter``), not at convergence, to ``ml.svr_capped_fits``.
"""

from __future__ import annotations

from typing import Any, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.ml.base import (
    ArrayLike,
    Regressor,
    as_2d_array,
    as_target_array,
    check_consistent_length,
)
from repro.ml.kernels import gamma_scale, rbf_kernel
from repro.telemetry import get_telemetry


def _smoothed_epsilon_insensitive(residual: np.ndarray, epsilon: float, delta: float) -> tuple:
    """Huber-smoothed epsilon-insensitive loss and its derivative.

    The plain epsilon-insensitive loss ``max(0, |r| - epsilon)`` is not
    differentiable at the hinge, which makes L-BFGS stall; a small
    quadratic smoothing region of width ``delta`` around the hinge keeps
    the optimiser stable without materially changing the solution.
    With ``pos = max(|r| - epsilon, 0)`` the loss is ``pos - delta / 2``
    past ``delta`` and ``pos**2 / (2 delta)`` below it, and the
    derivative is ``min(pos / delta, 1) * sign(r)``.
    """
    pos = np.abs(residual)
    pos -= epsilon
    np.maximum(pos, 0.0, out=pos)
    loss = np.square(pos)
    loss *= 0.5
    loss /= delta
    np.subtract(pos, 0.5 * delta, out=loss, where=pos > delta)
    grad = pos / delta
    np.minimum(grad, 1.0, out=grad)
    # grad >= 0, so this is grad * sign(r).
    np.copysign(grad, residual, out=grad)
    return loss, grad


class SVR(Regressor):
    """Epsilon-insensitive RBF-kernel support-vector regression.

    Parameters mirror the conventional SVR interface: ``C`` trades the
    data-fit term against the RKHS-norm regulariser, ``epsilon`` is the
    width of the insensitive tube and ``gamma`` the RBF width
    (``"scale"`` uses the usual 1/(n_features * Var(X)) heuristic).
    """

    def __init__(
        self,
        C: float = 10.0,
        epsilon: float = 0.01,
        gamma: Union[str, float] = "scale",
        max_iter: int = 500,
        smoothing: float = 1e-3,
    ) -> None:
        if C <= 0:
            raise ConfigurationError("C must be positive")
        if epsilon < 0:
            raise ConfigurationError("epsilon must be non-negative")
        if not smoothing > 0:
            # A zero-width hinge is the non-differentiable loss L-BFGS stalls on.
            raise ConfigurationError("smoothing must be positive")
        self.C = C
        self.epsilon = epsilon
        self.gamma = gamma
        self.max_iter = max_iter
        self.smoothing = smoothing

    # ------------------------------------------------------------------
    def _kernel_matrix(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return rbf_kernel(A, B, gamma=self.gamma_)

    def fit(self, X: ArrayLike, y: ArrayLike) -> "SVR":
        X_arr, y_arr = as_2d_array(X), as_target_array(y)
        check_consistent_length(X_arr, y_arr)
        self.X_train_ = X_arr
        if self.gamma == "scale":
            self.gamma_ = gamma_scale(X_arr)
        else:
            self.gamma_ = float(self.gamma)

        K = self._kernel_matrix(X_arr, X_arr)
        n = X_arr.shape[0]
        jitter = 1e-10 * np.eye(n)
        K_reg = K + jitter
        results = [
            self._minimize(K_reg, column)
            for column in np.ascontiguousarray(y_arr.reshape(n, -1).T)
        ]
        beta = np.stack([result.x[:n] for result in results], axis=1)
        intercept = np.array([result.x[n] for result in results])
        n_iter = np.array([result.nit for result in results])
        telemetry = get_telemetry()
        if telemetry.enabled:
            # L-BFGS-B's status 1 says it stopped at its iteration (or
            # evaluation) limit instead of converging; count those, rather
            # than let an unconverged fit pass silently.
            telemetry.incr("ml.svr_iterations", int(n_iter.sum()))
            telemetry.incr(
                "ml.svr_capped_fits", sum(int(result.status == 1) for result in results)
            )
        one_column = y_arr.ndim == 1
        self.beta_ = beta[:, 0] if one_column else beta
        self.intercept_ = float(intercept[0]) if one_column else intercept
        self.n_iter_ = int(n_iter[0]) if one_column else n_iter
        # Support vectors: samples whose coefficient is non-negligible in
        # any output column.
        self.support_ = np.flatnonzero((np.abs(beta) > 1e-8).any(axis=1))
        return self

    def _minimize(self, K_reg: np.ndarray, y_arr: np.ndarray) -> Any:
        """L-BFGS on the smoothed primal for one target column."""
        from scipy.optimize import minimize

        n = K_reg.shape[0]
        delta = self.smoothing

        def objective(params: np.ndarray):
            beta = params[:n]
            # K_reg @ beta serves the fit, the regulariser and its gradient.
            k_beta = K_reg @ beta
            residual = k_beta + params[n]
            residual -= y_arr
            loss, dloss = _smoothed_epsilon_insensitive(residual, self.epsilon, delta)
            value = self.C * loss.sum() + 0.5 * beta @ k_beta
            # The gradient: C * (K_reg @ dloss) + k_beta, then C * sum(dloss).
            grad = np.empty(n + 1)
            grad_beta = np.matmul(K_reg, dloss, out=grad[:n])
            grad_beta *= self.C
            grad_beta += k_beta
            grad[n] = self.C * dloss.sum()
            return value, grad

        x0 = np.zeros(n + 1)
        x0[n] = float(np.mean(y_arr))
        return minimize(
            objective,
            x0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )

    def _predict(self, X_arr: np.ndarray) -> np.ndarray:
        self._check_fitted("beta_")
        K = self._kernel_matrix(X_arr, self.X_train_)
        # One matrix-vector product per output column; a 1-D fit is the
        # one-column case.
        beta = np.reshape(self.beta_, (len(self.X_train_), -1))
        prediction = np.stack([
            K @ column + intercept
            for column, intercept in zip(
                np.ascontiguousarray(beta.T), np.atleast_1d(self.intercept_)
            )
        ], axis=1)
        return prediction[:, 0] if np.ndim(self.beta_) == 1 else prediction
