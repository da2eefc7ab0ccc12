"""Torus-valued GP inputs as arrays of per-circle (cos, sin) embeddings.

A point on the m-torus is stored as m unit 2-vectors, and n points as one
(n, m, 2) float array; that array is the only form of a torus point in the
package. Keeping the embedding (rather than angles) makes the componentwise
similarity a plain dot product and removes angle wrapping from everything
downstream. embed_angles builds inputs from angles, aoa_embedding_batch from
planar positions (angle-of-arrival directions toward reference nodes),
chart_angles reads the angles back in [0, 2*pi) for the chart-based baseline
kernel, and as_input_array checks an input array's shape and unit norms.
GeometryError is the ValueError raised for scenario geometry that has no
embedding, a position on a reference.
"""

import numpy as np

__all__ = [
    "embed_angles",
    "aoa_embedding_batch",
    "aoa_directions",
    "as_input_array",
    "chart_angles",
    "UNIT_NORM_TOL",
    "AOA_SINGULARITY_TOL",
    "GeometryError",
]

# Embedded components must sit on the unit circle to this absolute tolerance.
UNIT_NORM_TOL = 1e-12

# Positions closer than this (in metres) to a reference node have no defined
# direction and are rejected.
AOA_SINGULARITY_TOL = 1e-9


class GeometryError(ValueError):
    """Scenario geometry the embedding or the simulator refuses."""


def embed_angles(angles) -> np.ndarray:
    """Embed an (..., m) array of angles (radians) as its (..., m, 2) points (cos, sin)."""
    theta = np.asarray(angles, dtype=float)
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def aoa_embedding_batch(positions, references) -> np.ndarray:
    """Angle-of-arrival embedding of planar positions.

    Parameters
    ----------
    positions : (n, 2) array_like
    references : (m, 2) array_like

    Returns
    -------
    (n, m, 2) array of unit vectors (references - position, normalized).

    Raises
    ------
    GeometryError
        If a position is within AOA_SINGULARITY_TOL of any reference.
    """
    units, dist = aoa_directions(positions, references)
    if np.any(dist < AOA_SINGULARITY_TOL):
        i, s = np.argwhere(dist < AOA_SINGULARITY_TOL)[0]
        raise GeometryError(
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
    """GP inputs as an (n, m, 2) float array of unit 2-vectors, checked.

    Accepts anything np.asarray turns into that shape: a stacked array (not
    copied when already float) or nested lists. Rejects zero points or zero
    circles, a circle count other than m when m is given, and components off
    the unit circle by more than UNIT_NORM_TOL; a NaN or infinite component
    fails that check.
    """
    arr = np.asarray(inputs, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError(f"inputs must have shape (n, m, 2), got {arr.shape}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"inputs need at least one point and one circle, got shape {arr.shape}")
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
