#!/usr/bin/env python3
"""Regression on a circle: why the input geometry matters.

Draws noisy samples of a bimodal density on S^1, fits two single-output
GPs (a circular von Mises kernel and a chart-based squared-exponential
kernel), and prints what each one believes near the chart seam at 0/2pi.
The circular model returns the same answer for theta and theta + 2pi; the
chart model tears the circle open and disagrees with itself at the seam.

Run:  python3 demos/circular_regression.py
"""

import numpy as np

from torusgp import gp, hyperopt, simulator
from torusgp.manifold import embed_angles


def main():
    print("=" * 64)
    print("circular regression: von Mises kernel vs chart kernel")
    print("=" * 64)

    rng = simulator.rng_for(7, 0)
    n_train = 40
    thetas = rng.uniform(0.0, 2.0 * np.pi, n_train)
    z = simulator.case_study_1_observe(thetas, rng)
    print(f"training set: {n_train} noisy density readings on the circle")

    ds = hyperopt.Dataset.from_data(embed_angles(thetas[:, None]), z)
    models = {}
    for label, family in (("circular", "hvm"), ("chart", "pse")):
        res = hyperopt.optimize(ds, family, budget=100, restarts=2, seed=7)
        models[label] = gp.fit(ds.inputs, ds.obs, res.kernel, res.noise_var)
        print(
            f"  fitted {label:8s} kernel: objective {res.objective:9.3f}, "
            f"{res.iterations} iterations, stop: {res.stop_reason}"
        )

    print()
    print("posterior mean at probe angles (degrees), truth alongside:")
    probe = np.deg2rad(np.array([0.0, 45.0, 120.0, 240.0, 330.0]))
    truth = simulator.DEFAULT_DENSITY.mean_value(probe)
    for label in ("circular", "chart"):
        mean, _ = gp.predict(models[label], embed_angles(probe[:, None]))
        row = "  ".join(f"{v:7.3f}" for v in mean)
        print(f"  {label:8s}  {row}")
    print(f"  {'truth':8s}  " + "  ".join(f"{v:7.3f}" for v in truth))

    print()
    print("seam behavior: the SAME circle point written as 0 and as 2pi")
    for label in ("circular", "chart"):
        edge, _ = gp.predict(models[label], embed_angles(np.array([[0.0], [2.0 * np.pi]])))
        gap = abs(edge[0] - edge[1])
        print(
            f"  {label:8s}  mean(0) = {edge[0]:8.4f}   "
            f"mean(2pi) = {edge[1]:8.4f}   gap = {gap:.2e}"
        )
    print()
    print("the circular kernel closes the seam; the chart kernel does not.")


if __name__ == "__main__":
    main()
