"""Covariance functions on hypertori.

Every kernel here is K = omega^2 exp(sum_f c_f F_f): one feature F_f per
coordinate of theta after omega, with a coefficient c_f that depends on that
coordinate alone. D^s holds the embedded inner products u_s . v_s on circle
s. hvm, pvm and pprd are bilinear in a lift of each point (D^s = u_s . v_s
and D^i D^j = (u_i (x) u_j) . (v_i (x) v_j)), so their exponent is
lift(A) diag(w) lift(B)^T + e0, with w each c_f repeated over its block:

    family  features F_f                   c_f                lift (width)
    hvm     D^s, then D^i D^j (pair order)  lam_s, 2 corr_t    u_s, u_i (x) u_j (2m + 4m(m-1)/2)
    pvm     D^s                             lam_s              u_s (2m)
    pprd    D^s - 1                         ell_s^-2           u_s (2m), e0 = -sum c_f
    pse     -(chart difference)^2 / 2       ell_s^-2           chart angles (m)

hvm is the coupled kernel omega^2 exp(lam . d + d^T Lam d), Lam hollow and
symmetric with the pair weights corr >= 0 off the diagonal, in the pair
order (1,2), (2,3), ..., (m-1,m), (1,3), ...; with corr = 0 it is pvm, a
product of von Mises kernels. pprd is exp(-2 sin^2((a - b)/2) / l^2). pse
keeps the chart-difference form, aperiodic across the chart seam by design:
lifted, (a - b)^2 = a^2 - 2ab + b^2 with angles up to 2 pi would lose digits
and the diagonal would no longer be exactly 0. dK/d omega = (2/omega) K and
dK/d theta_f = c_f' K F_f.

For hvm, pvm and pprd every Gram, gram(A, B) and the self-Gram gram(A)
alike, is one GEMM Psi(A) Psi(B)^T with Psi = lift diag(sqrt w) (every
weight is nonnegative), then one in-place exp. The self-Gram is symmetric: each entry is its
mirror's sum of the same products, in the same order. Its diagonal is set
to the coincident exponent sum_f c_f F_f(x, x) in theta order: k(x, x) is
the same for every x, and prior_variance() returns it. gram_lifted()
takes lifts made once, as gp.fit and the optimizer keep for the training
inputs; feature_sums() gives the optimizer's sum_ij W_ij F_f(x_i, x_j), the
block sums of diag(lift^T W lift).

A kernel is named by its family, m and theta alone; the optimizer, model
files and the case-2 parameter sets all carry that form.
"""

from functools import lru_cache, reduce
from math import inf
from operator import add

import numpy as np

from .manifold import chart_angles

__all__ = [
    "pair_order",
    "ExpLinearKernel",
    "kernel_from_family",
]


def pair_order(m: int) -> list:
    """Canonical circle-pair order: adjacent pairs first, then wider gaps.

    For m=3 this is [(0, 1), (1, 2), (0, 2)] (zero-based).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return [(i, i + g) for g in range(1, m) for i in range(m - g)]


# family -> (per-circle coordinate, its default value): "lam" enters the
# exponent linearly, "ell" as ell^-2; only hvm adds pair weights, from 0.1.
_FAMILIES = {"hvm": ("lam", 1.0), "pvm": ("lam", 1.0), "pprd": ("ell", 1.0), "pse": ("ell", 2.0)}


@lru_cache
def _layout(family: str, m: int):
    """Per (family, m): the pairs, block widths and starts in the lift, each
    lift column's block, the "lam" slopes dc_f/dtheta_f."""
    pairs = tuple(pair_order(m)) if family == "hvm" else ()
    widths, slopes = np.array([2] * m + [4] * len(pairs)), np.array([1.0] * m + [2.0] * len(pairs))
    block = np.repeat(np.arange(widths.size), widths)
    widths.flags.writeable = slopes.flags.writeable = block.flags.writeable = False
    return pairs, widths, np.cumsum(widths) - widths, block, slopes


class ExpLinearKernel:
    """Trainable kernel omega^2 * exp(sum_f c_f(theta) F_f) of one family.

    theta is [omega, per-circle coordinates, pair weights (hvm only)] in the
    order of theta_names; omega must be positive, concentrations and pair
    weights nonnegative, length scales positive.
    """

    def __init__(self, family: str, m: int, theta):
        if family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {family!r}")
        self.family = family
        self.m = int(m)
        self._scale = _FAMILIES[family][0]
        self._pairs, self._widths, self._starts, block, slopes = _layout(family, self.m)
        theta = np.array(theta, dtype=float).ravel()
        if theta.size != 1 + self.m + len(self._pairs):
            raise ValueError(
                f"{family} on T^{self.m} takes {1 + self.m + len(self._pairs)} "
                f"coordinates, got {theta.size}"
            )
        k = 1 + self.m if self._scale == "ell" else 1  # omega and length scales are positive
        # a chained comparison on the Python floats: a NaN fails both, and theta
        # is a handful of numbers, which numpy reductions would cost more to check
        coords = theta.tolist()
        if not (all(0.0 < v < inf for v in coords[:k]) and all(0.0 <= v < inf for v in coords[k:])):
            raise ValueError(
                f"{family}: coordinates must be finite and nonnegative, omega"
                f"{' and ell' if self._scale == 'ell' else ''} positive; got {coords}"
            )
        theta.flags.writeable = False
        self.theta = theta
        t, lam = theta[1:], self._scale == "lam"
        self._c, self._dc = (slopes * t, slopes) if lam else (1.0 / t**2, -2.0 / t**3)
        if family != "pse":  # c_f over its block of the lift, rooted
            self._root_w = np.sqrt(self._c)[block]

    @property
    def theta_names(self) -> tuple:
        names = ["omega"] + [f"{self._scale}_{s + 1}" for s in range(self.m)]
        names += [f"corr_{i + 1}{j + 1}" for (i, j) in self._pairs]
        return tuple(names)

    def with_theta(self, theta) -> "ExpLinearKernel":
        return ExpLinearKernel(self.family, self.m, theta)

    def coefficients(self):
        """Exponent coefficients c_f and their derivatives dc_f / dtheta_f."""
        return self._c, self._dc

    def lift(self, A: np.ndarray) -> np.ndarray:
        """The lift of (n, m, 2) inputs: (n, width) rows, the (n, m) chart angles for pse."""
        if A.shape[1] != self.m:
            raise ValueError(f"{self.family} kernel on T^{self.m} got inputs with {A.shape[1]} circles")
        if self.family == "pse":
            return chart_angles(A)
        i, j = np.array(self._pairs, dtype=int).reshape(-1, 2).T
        pairs = A[:, i, :, None] * A[:, j, None, :]  # u_i (x) u_j, pair by pair
        return np.concatenate([A.reshape(len(A), -1), pairs.reshape(len(A), -1)], axis=1)

    def _coincident_exponent(self) -> float:
        """sum_f c_f F_f(x, x), summed in theta order: F_f(x, x) is 1 for hvm/pvm, 0 for pprd/pse."""
        return 0.0 if self._scale == "ell" else reduce(add, self._c.tolist(), 0.0)

    def _chart_term(self, LA: np.ndarray, LB: np.ndarray, s: int, c_s: float, out=None) -> np.ndarray:
        """c_s * -(a_s - b_s)^2 / 2 between the chart angles of two lifts."""
        F = np.subtract(LA[:, s, None], LB[None, :, s], out=out)
        F *= F
        F *= -0.5 * c_s
        return F

    def gram_lifted(self, LA: np.ndarray, LB: np.ndarray | None = None) -> np.ndarray:
        """Kernel matrix between lifted inputs; LB = None gives the self-Gram of LA."""
        own, LB = LB is None, LA if LB is None else LB
        if self.family == "pse":
            E = self._chart_term(LA, LB, 0, self._c[0])
            F = np.empty_like(E) if self.m > 1 else None
            for s in range(1, self.m):
                E += self._chart_term(LA, LB, s, self._c[s], out=F)
        else:  # two distinct factors, so a self-Gram takes the same GEMM as a cross-Gram
            E = (LA * self._root_w) @ (LB * self._root_w).T
            if self.family == "pprd":
                E -= np.sum(self._c)
            if own:  # pse's diagonal is exactly 0 already
                E.flat[:: E.shape[0] + 1] = self._coincident_exponent()
        np.exp(E, out=E)
        E *= self.theta[0] ** 2
        return E

    def gram(self, A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
        """Kernel matrix between two input sets; gram(A) or gram(A, A) is A's self-Gram."""
        return self.gram_lifted(self.lift(A), None if B is None or B is A else self.lift(B))

    def _features(self, L: np.ndarray) -> list:
        """The (n, n) feature matrices F_f between the lifted points, in theta order."""
        if self.family == "pse":
            return [self._chart_term(L, L, s, 1.0) for s in range(self.m)]
        blocks = [L[:, a : a + w] for a, w in zip(self._starts, self._widths)]
        return [b @ b.T - (1.0 if self.family == "pprd" else 0.0) for b in blocks]

    def feature_sums(self, L: np.ndarray, W: np.ndarray) -> np.ndarray:
        """sum_ij W_ij F_f(x_i, x_j) for every feature f, from the lift L of the x_i."""
        if self.family == "pse":  # every circle's squared chart differences, one (m, n, n) stack
            D2 = np.subtract(L.T[:, :, None], L.T[:, None, :], order="C") ** 2
            return -0.5 * (D2.reshape(self.m, -1) @ W.ravel())
        sums = np.add.reduceat((L * (W @ L)).sum(axis=0), self._starts)
        return sums - np.sum(W) if self.family == "pprd" else sums

    def gram_and_partials(self, X: np.ndarray):
        """Gram matrix and its derivatives in theta order, as a stack."""
        L = self.lift(X)
        K = self.gram_lifted(L)
        parts = [(2.0 / self.theta[0]) * K] + [dc * K * F for dc, F in zip(self._dc, self._features(L))]
        return K, np.stack(parts)

    def prior_variance(self) -> float:
        """k(x, x), identical for every x, and the diagonal of every self-Gram."""
        return float(np.exp(self._coincident_exponent()) * self.theta[0] ** 2)


def kernel_from_family(family: str, m: int) -> ExpLinearKernel:
    """Unit-parameter kernel of the given family on T^m (template for inits)."""
    family = family.lower()
    if family not in _FAMILIES:
        raise ValueError(f"unknown kernel family {family!r}")
    q = m * (m - 1) // 2 if family == "hvm" else 0
    return ExpLinearKernel(family, m, [1.0] + [_FAMILIES[family][1]] * m + [0.1] * q)
