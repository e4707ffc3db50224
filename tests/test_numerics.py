import numpy as np
import pytest

from evoalg.numerics import _rowdot, levenberg_marquardt

# Test problems written with elementwise numpy only, so that a (k, n) stack
# of points gives, row by row, the bits that each (n,) point gives alone.


def _one_start_lm(residual, jacobian, x0, *, max_iter=80, stop_norm=0.0):
    """The reference loop: Levenberg-Marquardt from one (n,) start, as
    levenberg_marquardt ran it before its rows ran in lockstep.  Every row
    of the lockstep loop must give these bits."""
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


def rosenbrock_r(x):
    x0, x1 = x[..., 0], x[..., 1]
    return np.stack([10.0 * (x1 - x0 * x0), 1.0 - x0], axis=-1)


def rosenbrock_j(x):
    x0 = x[..., 0]
    z = np.zeros_like(x0)
    return np.stack([np.stack([-20.0 * x0, z + 10.0], -1), np.stack([z - 1.0, z], -1)], -2)


def overshoot(scale):
    """r = scale*x in one unknown.  Above x = 0.1 the Jacobian is 10*scale,
    so each step takes a tenth off x and the damping falls to its floor.
    At or below 0.1 it is 1, so a step overshoots until the damping passes
    scale/2: with scale 1e7 that takes 26 tries from the floor, one more
    than allowed, and with scale 4e14 the first damping above 1e14."""

    def residual(x):
        return scale * x

    def jacobian(x):
        return np.where(x > 0.1, 10.0 * scale, 1.0)[..., None]

    return residual, jacobian


def singular_r(x):
    # above x1 = 5 the Jacobian row is [1e10, 1e10], so H + lam*I is exactly
    # singular in floating point until lam reaches the spacing of 1e20
    x0, x1 = x[..., 0], x[..., 1]
    line = np.stack([1e10 * (x0 + x1) - 1.4e11, np.zeros_like(x0)], axis=-1)
    return np.where((x1 > 5.0)[..., None], line, rosenbrock_r(x))


def singular_j(x):
    line = np.zeros(x.shape[:-1] + (2, 2))
    line[..., 0, :] = 1e10
    return np.where((x[..., 1] > 5.0)[..., None, None], line, rosenbrock_j(x))


_rng = np.random.default_rng(5)
CASES = {
    "max-iter": (rosenbrock_r, rosenbrock_j, _rng.uniform(-2, 2, (40, 2)), 8, 1e-10),
    "try-cap": (*overshoot(1e7), _rng.uniform(0.01, 2, (20, 1)), 160, 0.0),
    "lam-limit": (*overshoot(4e14), _rng.uniform(0.01, 0.09, (10, 1)), 160, 0.0),
    "singular": (singular_r, singular_j,
                 np.concatenate([_rng.uniform(-2, 2, (10, 2)), _rng.uniform(6, 8, (10, 2))]),
                 80, 1e-10),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_lockstep_rows_equal_one_start_runs(case, monkeypatch):
    residual, jacobian, X0, max_iter, stop_norm = CASES[case]
    singular = []
    solve = np.linalg.solve

    def counting_solve(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            singular.append(np.ndim(a))
            raise

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    X, R, conv = levenberg_marquardt(residual, jacobian, X0, max_iter=max_iter,
                                     stop_norm=stop_norm)
    stacked_singular = singular.count(3)
    assert isinstance(conv, tuple) and len(conv) == len(X0)

    ends = []
    for i, x0 in enumerate(X0):
        calls = []

        def res1(x):
            calls.append("r")
            return residual(x)

        def jac1(x):
            calls.append("J")
            return jacobian(x)

        x, r, ok = _one_start_lm(res1, jac1, x0, max_iter=max_iter, stop_norm=stop_norm)
        assert x.tobytes() == X[i].tobytes()
        assert r.tobytes() == R[i].tobytes()
        assert ok is conv[i]
        log = "".join(calls)
        # (iterations, residual evaluations after the last Jacobian, converged)
        ends.append((log.count("J"), len(log) - log.rfind("J") - 1, ok))

    # each case reaches the exit it is named for, so the parity covers it
    if case == "max-iter":
        assert any(its == max_iter and not ok for its, _, ok in ends)
        assert any(ok for _, _, ok in ends)
    elif case == "try-cap":
        assert any(trials == 25 for _, trials, _ in ends)
    elif case == "lam-limit":
        assert all(its == 1 and trials == 21 for its, trials, _ in ends)
    else:
        assert stacked_singular > 0


def test_lockstep_single_row_and_empty_budget():
    X0 = np.array([[-1.2, 1.0]])
    X, R, conv = levenberg_marquardt(rosenbrock_r, rosenbrock_j, X0, max_iter=0)
    assert X.tobytes() == X0.tobytes() and conv == (False,)
    X, R, conv = levenberg_marquardt(rosenbrock_r, rosenbrock_j, X0, stop_norm=1e-12)
    x, r, ok = _one_start_lm(rosenbrock_r, rosenbrock_j, X0[0], stop_norm=1e-12)
    assert X[0].tobytes() == x.tobytes() and R[0].tobytes() == r.tobytes()
    assert conv == (ok,) == (True,)


def test_stacked_distances_are_norm_bits():
    # rbo search dedupes with sqrt(_rowdot(d, d)) from a representative to
    # all points left; each entry must be np.linalg.norm of its pair, bit for
    # bit, so that the clusters stay the same
    rng = np.random.default_rng(3)
    for k in (0, 1, 7, 40):
        for mag in (1e-9, 1e-3, 1.0, 4.0):
            R = rng.uniform(-2.0, 2.0, (k, 8)) * mag
            x = rng.uniform(-2.0, 2.0, 8) * mag
            d = x - R
            got = np.sqrt(_rowdot(d, d))
            want = np.array([np.linalg.norm(x - r) for r in R])
            assert got.tobytes() == want.tobytes()
