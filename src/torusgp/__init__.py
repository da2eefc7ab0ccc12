"""Gaussian-process regression on products of unit circles.

The package provides torus-valued input handling (manifold), circle-aware
kernels with analytic hyperparameter derivatives (kernels), exact GP
inference with a jittered factorization policy and multi-output mixing (gp),
monotone gradient-ascent hyperparameter fitting (hyperopt), a ranging
sensor-network simulator with closed ground-truth trajectories (simulator),
and a GP-reweighted particle filter with a Monte Carlo campaign driver
(tracking). The cli module wires the stages into reproducible, manifest-
tracked runs.
"""

__version__ = "0.1.0"

from . import gp, hyperopt, kernels, manifold, simulator, tracking
