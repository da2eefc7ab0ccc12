#!/usr/bin/env python3
"""Checking the analytic objective gradient coordinate by coordinate.

Builds one random two-output training problem on the 3-torus, evaluates the
closed-form gradient of the log marginal likelihood in the unconstrained
coordinates, and prints it against central finite differences. Then runs
the ascent from a default start and shows the accepted objective trace.

Run:  python3 demos/gradient_check.py
"""

import numpy as np

from torusgp import hyperopt, kernels, manifold
from torusgp.hyperopt import _Problem


def main():
    rng = np.random.default_rng(123)
    n, m, d = 14, 3, 2
    ang = rng.uniform(0.0, 2.0 * np.pi, (n, m))
    X = manifold.embed_angles(ang)
    Z = rng.standard_normal((n, d))
    ds = hyperopt.Dataset.from_data(X, Z)

    kern = kernels.ExpLinearKernel("hvm", 3, (1.2, 0.7, 1.1, 0.4, 0.2, 0.05, 0.3))
    A = rng.standard_normal((d, d))
    G = np.linalg.cholesky(A @ A.T + d * np.eye(d))
    sigma = np.array([0.4, 0.3])

    prob = _Problem(ds, kern)
    phi = prob.pack(kern, G, sigma)
    F, grad = prob.value_and_grad(phi)

    print("=" * 60)
    print(f"objective at the probe point: {F:.6f}")
    print("=" * 60)
    print(f"{'coordinate':>12s} {'analytic':>14s} {'central FD':>14s} {'rel err':>10s}")
    names = list(kern.theta_names) + ["g_11", "g_21", "g_22", "sigma_1", "sigma_2"]
    h = 1e-6
    worst = 0.0
    for i, name in enumerate(names):
        step = np.zeros_like(phi)
        step[i] = h
        F_plus, F_minus = prob.value_and_grad(phi + step)[0], prob.value_and_grad(phi - step)[0]
        fd = (F_plus - F_minus) / (2.0 * h)
        rel = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1.0)
        worst = max(worst, rel)
        print(f"{name:>12s} {grad[i]:14.6f} {fd:14.6f} {rel:10.2e}")
    print(f"\nworst relative error: {worst:.2e}")

    print()
    print("running the monotone ascent from the data-driven default start:")
    res = hyperopt.optimize(ds, "hvm", budget=60, restarts=2, seed=5)
    print(
        f"  stop: {res.stop_reason} after {res.iterations} iterations "
        f"({res.evaluations} objective evaluations, {res.backtracks} step halvings), "
        f"converged = {res.converged}, final grad norm {res.grad_norm:.3e}"
    )
    trace = res.trace
    shown = trace if len(trace) <= 12 else trace[:6] + ["..."] + trace[-5:]
    print("  accepted objective trace:")
    for v in shown:
        print(f"    {v}" if isinstance(v, str) else f"    {v:.6f}")
    diffs = np.diff(np.asarray(trace))
    print(f"  nondecreasing: {bool(np.all(diffs >= 0.0))}")


if __name__ == "__main__":
    main()
