"""Shared numerical machinery: damped least squares and the real form of a
complex Jacobian."""

from __future__ import annotations

import numpy as np


def _rowdot(u, v):
    """u[i] @ v[i] for each row; stacked matmul gives the bits of the 1-D product."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _solve_rows(A, B):
    """Solutions of A[i] s = B[i] and a mask of the rows that are not
    singular (their solution is left zero).  When the stacked solve meets a
    singular row, each row is solved on its own."""
    try:
        return np.linalg.solve(A, B[..., None])[..., 0], np.ones(len(A), dtype=bool)
    except np.linalg.LinAlgError:
        out, ok = np.zeros_like(B), np.ones(len(A), dtype=bool)
        for i in range(len(A)):
            try:
                out[i] = np.linalg.solve(A[i], B[i])
            except np.linalg.LinAlgError:
                ok[i] = False
        return out, ok


def levenberg_marquardt(
    residual,
    jacobian,
    x0,
    *,
    max_iter: int = 80,
    stop_norm: float = 0.0,
):
    """Minimize sum(residual(x)**2) with Levenberg-Marquardt damping from
    each row of x0, a (b, n) stack of starts.

    residual maps a (k, n) stack of rows to their (k, m) residuals, and
    jacobian to their (k, m, n) Jacobians.  Returns (x, r, converged)
    stacked the same way, converged a tuple of bools: the row's max-abs
    residual fell at or below stop_norm.

    The rows run in lockstep.  Each round, every live row takes one damped
    trial: rows at the top of an iteration first take the stop test and a
    new Jacobian, then all live rows solve, evaluate and accept or reject
    together.  Damping, try count (at most 25 per iteration) and iteration
    count are kept per row.  The stacked products and solves give each row
    the bits of the plain one-start loop, which tests/test_numerics.py
    keeps as the oracle.
    """
    x = np.array(x0, dtype=float)
    b, n = x.shape
    r = np.asarray(residual(x), dtype=float)
    cost = _rowdot(r, r)
    lam = np.full(b, 1e-3)
    iters = np.zeros(b, dtype=int)   # iterations begun
    tries = np.zeros(b, dtype=int)   # trials in the current iteration
    live = np.ones(b, dtype=bool)
    top = np.ones(b, dtype=bool)     # due for the stop test and a new Jacobian
    g = np.empty((b, n))
    H = np.empty((b, n, n))
    eye = np.eye(n)
    while True:
        t = np.flatnonzero(live & top)
        if t.size:
            done = (iters[t] >= max_iter) | (np.max(np.abs(r[t]), axis=1) <= stop_norm)
            live[t[done]] = False
            t = t[~done]
        if t.size:
            J = np.asarray(jacobian(x[t]), dtype=float)
            Jt = J.transpose(0, 2, 1)
            g[t] = (Jt @ r[t][:, :, None])[:, :, 0]
            H[t] = Jt @ J
            iters[t] += 1
            tries[t] = 0
            top[t] = False
        rows = np.flatnonzero(live)
        if not rows.size:
            break
        step, solved = _solve_rows(H[rows] + lam[rows, None, None] * eye, -g[rows])
        tries[rows] += 1
        singular = rows[~solved]
        lam[singular] *= 10.0
        rows, step = rows[solved], step[solved]
        if rows.size:
            x_try = x[rows] + step
            r_try = np.asarray(residual(x_try), dtype=float)
            cost_try = _rowdot(r_try, r_try)
            acc = (cost_try < cost[rows]) | ~np.isfinite(cost[rows])
            up, down = rows[acc], rows[~acc]
            x[up], r[up], cost[up] = x_try[acc], r_try[acc], cost_try[acc]
            lam[up] = np.maximum(lam[up] * 0.3, 1e-14)
            s = step[acc]
            small = np.sqrt(_rowdot(s, s)) < 1e-14 * (1.0 + np.sqrt(_rowdot(x[up], x[up])))
            live[up[small]] = False
            top[up] = True
            lam[down] *= 7.0
            live[down[lam[down] > 1e14]] = False
        live &= top | (tries < 25)
    conv = np.max(np.abs(r), axis=1) <= stop_norm
    return x, r, tuple(bool(c) for c in conv)


def complex_jacobian_to_real(dF: np.ndarray) -> np.ndarray:
    """Expand a complex Jacobian dF/dz (m x n, or a stack of them) to the real
    (2m x 2n) Jacobian of the interleaved real system, assuming F is
    complex-analytic in z."""
    *lead, m, n = dF.shape
    out = np.zeros((*lead, 2 * m, 2 * n))
    re = np.real(dF)
    im = np.imag(dF)
    out[..., 0::2, 0::2] = re
    out[..., 0::2, 1::2] = -im
    out[..., 1::2, 0::2] = im
    out[..., 1::2, 1::2] = re
    return out
