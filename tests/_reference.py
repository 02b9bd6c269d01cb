"""Independent reference implementations used as test oracles.

Everything here is written directly from the definition of the penalized
least-squares criterion, using plain loops, dense grids, or one-shot linear
algebra. Nothing is shared with the package's own numerics, so agreement
between the two is evidence rather than tautology.
"""

from __future__ import annotations

import math

import numpy as np


def brute_objective(y, X, beta, lam1, lam2, weights, group_sizes) -> float:
    """Half squared error plus both penalties, accumulated with plain loops."""
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    beta = np.asarray(beta, dtype=float)
    n, p = X.shape
    rss = 0.0
    for i in range(n):
        pred = 0.0
        for j in range(p):
            pred += float(X[i, j]) * float(beta[j])
        rss += (float(y[i]) - pred) ** 2
    total = 0.5 * rss
    start = 0
    for w, size in zip(weights, group_sizes):
        sq = 0.0
        for j in range(start, start + size):
            sq += float(beta[j]) ** 2
        total += float(lam1) * float(w) * math.sqrt(sq)
        start += size
    for j in range(p):
        total += float(lam2) * abs(float(beta[j]))
    return total


def lasso_cd(y, X, lam, tol: float = 1e-13, max_iter: int = 200000) -> np.ndarray:
    """Textbook coordinate descent for the one-norm-penalized half squared
    error: cyclic soft-threshold updates until the largest move is below tol.
    ``lam`` may be a scalar or a per-coordinate vector."""
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (p,))
    colsq = (X * X).sum(axis=0)
    beta = np.zeros(p)
    res = y.copy()
    for _ in range(max_iter):
        delta = 0.0
        for j in range(p):
            if colsq[j] == 0.0:
                continue
            old = beta[j]
            rho = float(X[:, j] @ res) + colsq[j] * old
            new = math.copysign(max(abs(rho) - lam[j], 0.0), rho) / colsq[j]
            if new != old:
                res -= X[:, j] * (new - old)
                delta = max(delta, abs(new - old))
                beta[j] = new
        if delta <= tol:
            break
    return beta


def least_squares(y, X) -> np.ndarray:
    return np.linalg.lstsq(np.asarray(X, dtype=float), np.asarray(y, dtype=float), rcond=None)[0]


def dense_scan(f, lower: float, upper: float, num: int = 2_000_001):
    """Argmin and value of a vectorized scalar function over a uniform grid."""
    grid = np.linspace(lower, upper, num)
    values = f(grid)
    k = int(np.argmin(values))
    return float(grid[k]), float(values[k])


def coordinate_restriction(Z, r_j, theta, j, lam1w, lam2):
    """The block criterion as a vectorized function of coordinate ``j`` alone,
    the other coordinates held at ``theta`` (``r_j`` excludes j's contribution)."""
    Z = np.asarray(Z, dtype=float)
    r_j = np.asarray(r_j, dtype=float)
    theta = np.asarray(theta, dtype=float)
    others = np.delete(theta, j)
    csq = float(others @ others)
    l1_rest = float(np.abs(others).sum())
    col = Z[:, j]
    colsq = float(col @ col)
    b = float(col @ r_j)
    r0 = float(r_j @ r_j)

    def f(t):
        t = np.asarray(t, dtype=float)
        return (
            0.5 * r0
            - b * t
            + 0.5 * colsq * t * t
            + lam1w * np.sqrt(csq + t * t)
            + lam2 * (l1_rest + np.abs(t))
        )

    return f


def box_grid_min(a, lam2, num: int = 201) -> float:
    """min over the [-1,1]^k grid of sum_j (a_j - lam2*t_j)^2, by exhaustive
    enumeration (k is expected to be at most 3)."""
    a = np.asarray(a, dtype=float)
    axis = np.linspace(-1.0, 1.0, num)
    grids = np.meshgrid(*([axis] * a.size), indexing="ij")
    total = np.zeros_like(grids[0])
    for j, t in enumerate(grids):
        total += (a[j] - lam2 * t) ** 2
    return float(total.min())


def closed_form_block(c, lam1w: float, lam2: float) -> np.ndarray:
    """Block minimizer for an orthonormal block: elementwise soft threshold
    by lam2, then scale the survivor vector by (1 - lam1w/||g||), or zero it
    when ||g|| is inside that radius."""
    c = np.asarray(c, dtype=float)
    g = np.sign(c) * np.maximum(np.abs(c) - lam2, 0.0)
    gnorm = float(np.linalg.norm(g))
    if gnorm <= lam1w:
        return np.zeros_like(c)
    return (1.0 - lam1w / gnorm) * g


def ridge_fixed_point_gap(y, X, beta, group_sizes, weights, lam) -> float:
    """Largest coefficient distance, over active blocks, between the block
    solution and the ridge system it must solve at its own norm."""
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    beta = np.asarray(beta, dtype=float)
    res = y - X @ beta
    worst = 0.0
    start = 0
    for size, w in zip(group_sizes, weights):
        sl = slice(start, start + size)
        start += size
        bl = beta[sl]
        norm = float(np.linalg.norm(bl))
        if norm == 0.0:
            continue
        Z = X[:, sl]
        r_block = res + Z @ bl
        lhs = Z.T @ Z + (float(lam) * float(w) / norm) * np.eye(size)
        fixed_point = np.linalg.solve(lhs, Z.T @ r_block)
        worst = max(worst, float(np.abs(fixed_point - bl).max()))
    return worst


def random_problem(rng, n, group_sizes, weight_mode="unit", snr=2.0, sparsity=0.5):
    """A random dense problem with a planted sparse signal; returns the
    built GroupedProblem."""
    from sgl import build_problem

    sizes = [int(s) for s in group_sizes]
    p = sum(sizes)
    X = rng.standard_normal((int(n), p))
    beta = rng.standard_normal(p) * (rng.random(p) < sparsity)
    signal = X @ beta
    scale = float(np.std(signal)) or 1.0
    y = signal + (scale / snr) * rng.standard_normal(int(n))
    return build_problem(y, X, sizes, weight_mode=weight_mode)


def kkt_reference(y, X, beta, group_sizes, weights, lam1, lam2):
    """First-order optimality violations of ``beta``, one group at a time.

    Same definitions as the package's report: an active block gives the sup
    norm of its stationarity residual, with the best feasible one-norm
    multiplier at its zero coordinates; a zero block gives how far its
    soft-thresholded gradient sticks out of the ball of radius lam1 * w (its
    sup norm when that radius is zero). Returns (per_group, per_coordinate,
    active, worst).
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    beta = np.asarray(beta, dtype=float)
    res = y - X @ beta
    per_group = np.zeros(len(group_sizes))
    per_coord = np.zeros(beta.size)
    active = np.zeros(len(group_sizes), dtype=bool)
    start = 0
    for ell, (size, w) in enumerate(zip(group_sizes, weights)):
        idx = range(start, start + size)
        start += size
        radius = float(lam1) * float(w)
        grad = [float(X[:, j] @ res) for j in idx]
        coefs = [float(beta[j]) for j in idx]
        if any(c != 0.0 for c in coefs):
            active[ell] = True
            norm = math.sqrt(sum(c * c for c in coefs))
            for j, g, c in zip(idx, grad, coefs):
                stat = g - radius * c / norm if radius > 0.0 else g
                if c != 0.0:
                    per_coord[j] = abs(stat - math.copysign(lam2, c))
                else:
                    per_coord[j] = max(abs(stat) - lam2, 0.0)
            per_group[ell] = max(per_coord[j] for j in idx)
        else:
            shrunk = [math.copysign(max(abs(g) - lam2, 0.0), g) for g in grad]
            if radius > 0.0:
                per_group[ell] = max(0.0, math.sqrt(sum(s * s for s in shrunk)) - radius)
            else:
                per_group[ell] = max(abs(s) for s in shrunk)
    return per_group, per_coord, active, float(per_group.max())
