"""Shared numerical machinery: damped least squares and the real form of a
complex Jacobian."""

from __future__ import annotations

import numpy as np


def levenberg_marquardt(
    residual,
    jacobian,
    x0,
    *,
    max_iter: int = 80,
    stop_norm: float = 0.0,
):
    """Minimize sum(residual(x)**2) with Levenberg-Marquardt damping.

    residual(x) -> (m,) array, jacobian(x) -> (m, n) array, x0 (n,) array of
    real unknowns.  Returns (x, r, converged) where converged means the
    max-abs residual fell at or below stop_norm.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(residual(x), dtype=float)
    cost = float(r @ r)
    lam = 1e-3
    for _ in range(max_iter):
        if np.max(np.abs(r)) <= stop_norm:
            return x, r, True
        J = np.asarray(jacobian(x), dtype=float)
        g = J.T @ r
        H = J.T @ J
        accepted = False
        for _ in range(25):
            try:
                step = np.linalg.solve(H + lam * np.eye(H.shape[0]), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_try = x + step
            r_try = np.asarray(residual(x_try), dtype=float)
            cost_try = float(r_try @ r_try)
            if cost_try < cost or not np.isfinite(cost):
                x, r, cost = x_try, r_try, cost_try
                lam = max(lam * 0.3, 1e-14)
                accepted = True
                break
            lam *= 7.0
            if lam > 1e14:
                break
        if not accepted:
            break
        if np.linalg.norm(step) < 1e-14 * (1.0 + np.linalg.norm(x)):
            break
    return x, r, bool(np.max(np.abs(r)) <= stop_norm)


def complex_jacobian_to_real(dF: np.ndarray) -> np.ndarray:
    """Expand a complex Jacobian dF/dz (m x n) to the real (2m x 2n) Jacobian
    of the interleaved real system, assuming F is complex-analytic in z."""
    m, n = dF.shape
    out = np.zeros((2 * m, 2 * n))
    re = np.real(dF)
    im = np.imag(dF)
    out[0::2, 0::2] = re
    out[0::2, 1::2] = -im
    out[1::2, 0::2] = im
    out[1::2, 1::2] = re
    return out
