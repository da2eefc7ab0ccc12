"""Points on the unit circle and on products of circles.

Inputs live on the m-torus, embedded componentwise in the plane: a point on
T^m is stored as m unit 2-vectors. Keeping the embedding (rather than angles)
makes the componentwise similarity a plain dot product and removes angle
wrapping from everything downstream. Angles act as a chart, used when
constructing points and by the chart-based baseline kernels.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CirclePoint",
    "TorusPoint",
    "embed_angles",
    "torus_metric",
    "aoa_embedding",
    "aoa_embedding_batch",
    "aoa_directions",
    "as_input_array",
    "chart_angles",
    "UNIT_NORM_TOL",
    "AOA_SINGULARITY_TOL",
]

# Embedded components must sit on the unit circle to this absolute tolerance.
UNIT_NORM_TOL = 1e-12

# Positions closer than this (in metres) to a reference node have no defined
# direction and are rejected.
AOA_SINGULARITY_TOL = 1e-9


@dataclass(frozen=True)
class CirclePoint:
    """A point on the unit circle S^1, stored as its planar embedding."""

    e1: float
    e2: float

    def __post_init__(self):
        if not (np.isfinite(self.e1) and np.isfinite(self.e2)):
            raise ValueError("circle point components must be finite")
        norm_err = abs(self.e1 * self.e1 + self.e2 * self.e2 - 1.0)
        if norm_err > UNIT_NORM_TOL:
            raise ValueError(
                f"circle point ({self.e1}, {self.e2}) is off the unit circle "
                f"by {norm_err:.3e} (tolerance {UNIT_NORM_TOL:.0e})"
            )

    @classmethod
    def from_angle(cls, theta: float) -> "CirclePoint":
        theta = float(theta)
        if not np.isfinite(theta):
            raise ValueError("angle must be finite")
        return cls(float(np.cos(theta)), float(np.sin(theta)))

    @property
    def array(self) -> np.ndarray:
        return np.array([self.e1, self.e2])

    @property
    def angle(self) -> float:
        """Chart angle in [0, 2*pi)."""
        return float(np.mod(np.arctan2(self.e2, self.e1), 2.0 * np.pi))


@dataclass(frozen=True)
class TorusPoint:
    """A point on T^m: an ordered tuple of circle points."""

    components: tuple

    def __post_init__(self):
        if len(self.components) == 0:
            raise ValueError("torus point needs at least one circle component")
        for c in self.components:
            if not isinstance(c, CirclePoint):
                raise TypeError("torus components must be CirclePoint instances")

    @classmethod
    def from_angles(cls, thetas) -> "TorusPoint":
        return cls(tuple(CirclePoint.from_angle(t) for t in np.atleast_1d(thetas)))

    @classmethod
    def from_array(cls, arr) -> "TorusPoint":
        arr = np.asarray(arr, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"expected an (m, 2) array, got shape {arr.shape}")
        return cls(tuple(CirclePoint(float(r[0]), float(r[1])) for r in arr))

    @property
    def m(self) -> int:
        return len(self.components)

    @property
    def array(self) -> np.ndarray:
        """(m, 2) array of the embedded components."""
        return np.array([[c.e1, c.e2] for c in self.components])

    @property
    def angles(self) -> np.ndarray:
        """Chart angles of all components, each in [0, 2*pi)."""
        return np.array([c.angle for c in self.components])


def embed_angles(angles) -> np.ndarray:
    """Embed an (..., m) array of angles (radians) as its (..., m, 2) points (cos, sin)."""
    theta = np.asarray(angles, dtype=float)
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def torus_metric(u: TorusPoint, v: TorusPoint) -> np.ndarray:
    """Componentwise similarity vector d with d_s = u_s . v_s, in [-1, 1]^m.

    d_s = 1 iff the s-th components coincide; d_s = cos of the angular gap.
    """
    if u.m != v.m:
        raise ValueError(f"torus dimensions differ: {u.m} vs {v.m}")
    d = np.sum(u.array * v.array, axis=1)
    # dot products of unit vectors; clip pure roundoff spill
    return np.clip(d, -1.0, 1.0)


def aoa_embedding(position, references) -> TorusPoint:
    """Angle-of-arrival embedding of a planar position.

    Maps a position x to the torus point whose s-th component is the unit
    vector pointing from x toward the s-th reference node.

    Parameters
    ----------
    position : (2,) array_like
    references : (m, 2) array_like

    Raises
    ------
    ValueError
        If the position is within AOA_SINGULARITY_TOL of any reference.
    """
    arr = aoa_embedding_batch(np.asarray(position, dtype=float)[None, :], references)
    return TorusPoint.from_array(arr[0])


def aoa_embedding_batch(positions, references) -> np.ndarray:
    """Vectorized angle-of-arrival embedding.

    Parameters
    ----------
    positions : (n, 2) array_like
    references : (m, 2) array_like

    Returns
    -------
    (n, m, 2) array of unit vectors (references - position, normalized).
    """
    units, dist = aoa_directions(positions, references)
    if np.any(dist < AOA_SINGULARITY_TOL):
        i, s = np.argwhere(dist < AOA_SINGULARITY_TOL)[0]
        raise ValueError(
            f"position {np.asarray(positions, dtype=float)[i]} coincides with reference {s} "
            f"within {AOA_SINGULARITY_TOL} m; direction undefined"
        )
    return units


def aoa_directions(positions, references):
    """Unit vectors from each position toward each reference, and the distances.

    Returns the (n, m, 2) directions and the (n, m) distances. Directions at
    a distance below AOA_SINGULARITY_TOL are undefined: callers mask them by
    the distance (aoa_embedding_batch raises instead).
    """
    pos = np.asarray(positions, dtype=float)
    refs = np.asarray(references, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ValueError(f"positions must be (n, 2), got {pos.shape}")
    if refs.ndim != 2 or refs.shape[1] != 2:
        raise ValueError(f"references must be (m, 2), got {refs.shape}")
    diff = refs[None, :, :] - pos[:, None, :]
    dist = np.linalg.norm(diff, axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return diff / dist[:, :, None], dist


def as_input_array(inputs, m: int | None = None) -> np.ndarray:
    """Normalize GP inputs to an (n, m, 2) float array.

    Accepts a single TorusPoint, a sequence of TorusPoint, or an already
    stacked (n, m, 2) array. Unit norms are validated to UNIT_NORM_TOL, and a
    NaN or infinite component fails that check.
    """
    if isinstance(inputs, TorusPoint):
        arr = inputs.array[None, :, :]
    elif isinstance(inputs, np.ndarray) and inputs.ndim == 3:
        arr = np.asarray(inputs, dtype=float)
    else:
        pts = list(inputs)
        if len(pts) == 0:
            raise ValueError("need at least one input point")
        if isinstance(pts[0], TorusPoint):
            ms = {p.m for p in pts}
            if len(ms) != 1:
                raise ValueError(f"inconsistent torus dimensions {sorted(ms)}")
            arr = np.stack([p.array for p in pts])
        else:
            arr = np.asarray(pts, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError(f"inputs must have shape (n, m, 2), got {arr.shape}")
    if m is not None and arr.shape[1] != m:
        raise ValueError(f"expected m={m} circles, got {arr.shape[1]}")
    norm_err = np.abs(np.sum(arr * arr, axis=2) - 1.0)
    if not np.max(norm_err) <= UNIT_NORM_TOL:
        raise ValueError(
            f"input components off the unit circle by up to {np.max(norm_err):.3e}"
        )
    return arr


def chart_angles(arr: np.ndarray) -> np.ndarray:
    """Canonical chart angles in [0, 2*pi) of an (..., 2) embedded array."""
    arr = np.asarray(arr, dtype=float)
    return np.mod(np.arctan2(arr[..., 1], arr[..., 0]), 2.0 * np.pi)
