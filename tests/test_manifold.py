import re

import numpy as np
import pytest
from kernel_oracles import component_distances

from torusgp.manifold import (
    GeometryError,
    aoa_directions,
    aoa_embedding_batch,
    as_input_array,
    chart_angles,
    embed_angles,
)


def test_circle_point_roundtrip():
    p = embed_angles(0.7)
    assert chart_angles(p) == pytest.approx(0.7, abs=1e-14)
    assert np.hypot(*p) == pytest.approx(1.0, abs=1e-15)


def test_circle_point_angle_wraps_to_canonical_range():
    angle = chart_angles(embed_angles(-0.5))
    assert 0.0 <= angle < 2.0 * np.pi
    assert angle == pytest.approx(2.0 * np.pi - 0.5, abs=1e-12)


def test_circle_point_rejects_off_circle():
    with pytest.raises(ValueError):
        as_input_array([[[1.0, 1.0]]])
    with pytest.raises(ValueError):
        as_input_array([[[np.nan, 0.0]]])


def test_torus_point_from_angles():
    arr = embed_angles([0.0, np.pi / 2, np.pi])
    assert arr.shape == (3, 2)
    assert np.allclose(arr[0], [1.0, 0.0], atol=1e-15)
    assert np.allclose(arr[1], [0.0, 1.0], atol=1e-15)
    assert np.allclose(arr[2], [-1.0, 0.0], atol=1e-15)


def test_torus_metric_known_values():
    u = embed_angles([[0.0, 0.0]])
    v = embed_angles([[np.pi / 2, np.pi / 3]])
    d = component_distances(u, v)[:, 0, 0]
    assert d == pytest.approx([0.0, 0.5], abs=1e-12)


def test_torus_metric_bounds_and_mismatch():
    rng = np.random.default_rng(5)
    A = embed_angles(rng.uniform(0, 2 * np.pi, (50, 3)))
    B = embed_angles(rng.uniform(0, 2 * np.pi, (50, 3)))
    D = component_distances(A, B)
    assert np.all(D >= -1.0) and np.all(D <= 1.0)
    with pytest.raises(ValueError, match="1 and 2 circles"):
        component_distances(embed_angles([[0.0]]), embed_angles([[0.0, 0.0]]))


def test_aoa_embedding_normalizes_direction():
    # reference offset (3, 4) from the position has distance 5
    refs = np.array([[3.0, 4.0], [10.0, 0.0]])
    t = aoa_embedding_batch(np.zeros((1, 2)), refs)[0]
    assert np.allclose(t[0], [0.6, 0.8], atol=1e-15)
    assert np.allclose(t[1], [1.0, 0.0], atol=1e-15)


def test_aoa_embedding_batch_matches_single():
    rng = np.random.default_rng(11)
    refs = rng.uniform(0, 30, (3, 2))
    pos = rng.uniform(0, 30, (20, 2))
    batch = aoa_embedding_batch(pos, refs)
    assert batch.shape == (20, 3, 2)
    for i in range(20):
        single = aoa_embedding_batch(pos[i : i + 1], refs)[0]
        assert np.allclose(batch[i], single, atol=1e-14)


def test_aoa_embedding_batch_rejects_reference_collision():
    refs = np.array([[5.0, 5.0], [25.0, 5.0]])
    pos = np.array([[5.0, 5.0]])
    with pytest.raises(GeometryError, match="coincides with reference 0") as err:
        aoa_embedding_batch(pos, refs)
    assert isinstance(err.value, ValueError)


def test_as_input_array_accepts_points_and_arrays():
    arr = as_input_array(embed_angles([[0.1, 0.2], [1.0, 2.0]]).tolist())
    assert arr.shape == (2, 2, 2)
    # a float array passes through without a copy
    assert as_input_array(arr) is arr
    assert as_input_array(arr[:1]).shape == (1, 2, 2)
    with pytest.raises(ValueError, match=r"shape \(n, m, 2\)"):
        as_input_array(arr[0])
    for empty in (arr[:0], arr[:, :0]):
        with pytest.raises(ValueError, match="at least one point and one circle"):
            as_input_array(empty)


def test_as_input_array_validates_norms():
    bad = np.zeros((2, 2, 2))
    with pytest.raises(ValueError):
        as_input_array(bad)
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError):
            as_input_array(np.array([[[value, 0.0]]]))


@pytest.mark.parametrize("shape", [(7, 1), (5, 3)], ids=["n-by-1", "n-by-m"])
def test_embed_angles_matches_circle_points_bit_for_bit(shape):
    theta = np.random.default_rng(8).uniform(-10, 10, shape)
    emb = embed_angles(theta)
    assert emb.shape == (*shape, 2)
    for idx in np.ndindex(*shape):
        assert emb[idx][0] == np.cos(theta[idx]) and emb[idx][1] == np.sin(theta[idx])


def test_chart_angles_range_and_inverse():
    rng = np.random.default_rng(3)
    theta = rng.uniform(-10, 10, 100)
    arr = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    ang = chart_angles(arr)
    assert np.all(ang >= 0.0) and np.all(ang < 2.0 * np.pi)
    assert np.allclose(np.cos(ang), np.cos(theta), atol=1e-12)
    assert np.allclose(np.sin(ang), np.sin(theta), atol=1e-12)


@pytest.mark.parametrize(
    "positions, references, message",
    [
        (np.zeros(2), np.zeros((3, 2)), "positions must be (n, 2), got (2,)"),
        (np.zeros((4, 2)), np.zeros((3, 3)), "references must be (m, 2), got (3, 3)"),
    ],
    ids=["positions", "references"],
)
def test_aoa_directions_refuses_bad_shapes(positions, references, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        aoa_directions(positions, references)


def test_as_input_array_refuses_another_circle_count():
    with pytest.raises(ValueError, match="^expected m=3 circles, got 2$"):
        as_input_array(embed_angles(np.zeros((4, 2))), m=3)
