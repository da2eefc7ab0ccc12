import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusgp import simulator
from torusgp.kernels import kernel_from_family
from torusgp.manifold import GeometryError
from torusgp.simulator import (
    CASE2_PARAM_SETS,
    CircularDensity,
    DEFAULT_DENSITY,
    ScenarioConfig,
    build_training_set,
    case_study_1_observe,
    case_study_2_sweep,
    load_trajectory,
    load_training_set,
    measure_range,
    range_function,
    rng_for,
    save_trajectory,
    save_training_set,
    simulate_dynamics,
    training_grid,
    trajectory,
)
def test_range_function_pythagorean():
    refs = np.array([[3.0, 4.0], [6.0, 8.0]])
    h = range_function(np.zeros(2), refs)
    assert h == pytest.approx([5.0, 10.0], abs=1e-12)
    batch = range_function(np.zeros((2, 2)), refs)
    assert batch.shape == (2, 2)


def test_measure_range_applies_relative_offset():
    cfg = ScenarioConfig(references=((3.0, 4.0), (20.0, 5.0), (15.0, 25.0)), noise_xi=1e-12)
    rng = rng_for(0, 0)
    z = measure_range(np.zeros(2), cfg, rng)
    assert z[0] == pytest.approx(5.25, abs=1e-9)


def test_batched_measure_range_is_the_per_position_stream():
    cfg = ScenarioConfig()
    positions = np.random.default_rng(6).uniform(1.0, 29.0, (9, 2))
    batch = measure_range(positions, cfg, rng_for(3, 1))
    rng = rng_for(3, 1)
    one_by_one = np.array([measure_range(x, cfg, rng) for x in positions])
    assert batch.shape == (9, cfg.m)
    assert np.array_equal(batch, one_by_one)


def test_measurement_noise_variance():
    cfg = ScenarioConfig(noise_xi=0.01)
    rng = rng_for(123, 0)
    x = np.array([10.0, 10.0])
    zs = np.array([measure_range(x, cfg, rng) for _ in range(20000)])
    h = range_function(x, cfg.references_array)
    resid = zs - 1.05 * h
    assert np.mean(resid) == pytest.approx(0.0, abs=1e-3)
    assert np.var(resid) == pytest.approx(1e-4, rel=0.05)


def test_training_grid_is_cell_centered():
    cfg = ScenarioConfig()
    grid = training_grid(cfg)
    assert grid.shape == (240, 2)
    assert grid[0] == pytest.approx([0.625, 1.5], abs=1e-12)
    assert grid[-1] == pytest.approx([29.375, 28.5], abs=1e-12)
    # x varies fastest
    assert grid[1] == pytest.approx([0.625 + 1.25, 1.5], abs=1e-12)
    assert len({tuple(p) for p in grid}) == 240


def test_build_training_set_reproducible():
    cfg = ScenarioConfig(seed=5)
    a = build_training_set(cfg)
    b = build_training_set(cfg)
    assert np.array_equal(a.obs, b.obs)
    assert np.array_equal(a.inputs, b.inputs)
    assert a.inputs.shape == (240, 3, 2)
    norms = np.linalg.norm(a.inputs, axis=2)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_simulate_dynamics_covariance():
    cfg = ScenarioConfig(process_cov=((0.16, 0.0), (0.0, 0.16)))
    rng = rng_for(9, 0)
    x = np.zeros((20000, 2))
    moved = simulate_dynamics(x, cfg, rng)
    d = moved - x
    assert np.cov(d.T)[0, 0] == pytest.approx(0.16, rel=0.05)
    assert np.cov(d.T)[1, 1] == pytest.approx(0.16, rel=0.05)


@pytest.mark.parametrize("name", ["T1", "T2", "T3"])
def test_trajectories_stay_in_arena_with_uniform_steps(name):
    cfg = ScenarioConfig(trajectory=name, steps=400)
    traj = trajectory(cfg)
    pos = traj.positions
    assert pos.shape == (400, 2)
    assert np.all(pos >= 0.0) and np.all(pos <= 30.0)
    inc = np.linalg.norm(np.diff(pos, axis=0), axis=1)
    # uniform arc-length sampling: every step advances by about the same amount
    assert inc.max() < 1.5 * inc.min() + 1e-9
    refs = cfg.references_array
    dmin = min(np.min(np.linalg.norm(pos - r, axis=1)) for r in refs)
    assert dmin > 1e-3


@pytest.mark.parametrize(
    "name, arena, references, message",
    [
        ("T1", (20.0, 20.0), ((5.0, 5.0), (15.0, 5.0), (10.0, 15.0)), "leaves the arena"),
        ("T3", (30.0, 24.0), ((5.0, 5.0), (25.0, 5.0), (15.0, 20.0)), "leaves the arena"),
        ("T1", (30.0, 30.0), ((5.0, 5.0), (25.0, 5.0), (24.0, 15.0)), "passes through a reference"),
    ],
    ids=["T1-leaves-arena", "T3-leaves-arena", "T1-meets-a-reference"],
)
def test_trajectory_refuses_scenario_geometry(name, arena, references, message):
    cfg = ScenarioConfig(arena=arena, references=references, trajectory=name)
    with pytest.raises(GeometryError, match=f"trajectory {name} {message}") as err:
        trajectory(cfg)
    assert isinstance(err.value, ValueError)


def test_circle_trajectory_geometry():
    cfg = ScenarioConfig(trajectory="T1", steps=360)
    pos = trajectory(cfg).positions
    radii = np.linalg.norm(pos - np.array([15.0, 15.0]), axis=1)
    assert np.allclose(radii, 9.0, atol=1e-6)


def test_rounded_rectangle_step_length_matches_perimeter():
    steps = 500
    cfg = ScenarioConfig(trajectory="T3", steps=steps)
    pos = trajectory(cfg).positions
    perimeter = 4 * 16.0 + 2 * np.pi * 2.0
    inc = np.linalg.norm(np.diff(pos, axis=0), axis=1)
    assert np.median(inc) == pytest.approx(perimeter / steps, rel=1e-3)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), max_size=40))
def test_rounded_rectangle_points_lie_at_the_corner_radius(extra):
    """Every T3 point is r = 2 from the inner square [7, 23]^2, on the straights
    and the arcs alike; a swapped leg or arc puts points elsewhere."""
    t = np.concatenate([np.linspace(0.0, 1.0, 20001), extra])
    pts = simulator._curve_points("T3", t)
    gap = np.maximum(np.maximum(7.0 - pts, pts - 23.0), 0.0)
    assert np.max(np.abs(np.hypot(gap[:, 0], gap[:, 1]) - 2.0)) <= 1e-12


def _four_leg_rounded_rectangle(lo, hi, r, t):
    """T3 written out leg by leg: the oracle for simulator._rounded_rectangle."""
    side = hi - lo - 2.0 * r
    arc = 0.5 * np.pi * r
    total = 4.0 * (side + arc)
    s = np.asarray(t, dtype=float) * total
    # walk counterclockwise from (lo + r, lo): bottom, right, top, left,
    # with a quarter arc after each straight
    leg, rem = np.divmod(s % total, side + arc)
    line = rem < side
    a = (rem - side) / r
    rs, rc = r * np.sin(a), r * np.cos(a)
    legs = [leg == 0, leg == 1, leg == 2]  # anything else walks the left leg
    x = np.select(
        legs,
        [
            np.where(line, lo + r + rem, hi - r + rs),
            np.where(line, hi, hi - r + rc),
            np.where(line, hi - r - rem, lo + r - rs),
        ],
        np.where(line, lo, lo + r - rc),
    )
    y = np.select(
        legs,
        [
            np.where(line, lo, lo + r - rc),
            np.where(line, lo + r + rem, hi - r + rs),
            np.where(line, hi, hi - r + rc),
        ],
        np.where(line, hi - r - rem, lo + r - rs),
    )
    return np.column_stack([x, y])


@pytest.mark.parametrize("lo, hi, r", [(5.0, 25.0, 2.0), (0.0, 10.0, 1.5), (3.3, 17.1, 0.7)])
def test_rounded_rectangle_equals_the_four_leg_oracle(lo, hi, r):
    """The leg table walks T3 bit for bit as the four hand-written legs do, on a
    dense grid, at random t, and at 0, 1 and either side of every leg and arc start."""
    leg_len = hi - lo - 2.0 * r + 0.5 * np.pi * r
    starts = np.array([k * leg_len + d for k in range(4) for d in (0.0, leg_len - 0.5 * np.pi * r)])
    starts = starts / (4.0 * leg_len)
    edges = np.concatenate([[0.0, 1.0], starts, np.nextafter(starts, -1.0), np.nextafter(starts, 2.0)])
    for t in (np.linspace(0.0, 1.0, 100001), rng_for(7, 0).uniform(0.0, 1.0, 20000), edges):
        want = _four_leg_rounded_rectangle(lo, hi, r, t)
        assert np.array_equal(simulator._rounded_rectangle(lo, hi, r, t), want)


def test_each_mixture_component_integrates_to_its_weight():
    # Quadrature oracle for the I0 normalizers: every von Mises bump and the
    # axial bump is a density on the circle, so alone it integrates to its
    # weight. The second density reaches I0 at 0.5, 3 and -0.5.
    t = np.linspace(0.0, 2 * np.pi, 200001)
    other = CircularDensity(
        vm_components=((0.3, 0.5), (2.0, 3.0)),
        vm_weights=(0.25, 0.75),
        axial_conc=-1.0,
        axial_weight=0.5,
    )
    for dens in (DEFAULT_DENSITY, other):
        k = len(dens.vm_weights)
        for i, w in enumerate(dens.vm_weights):
            alone = CircularDensity(
                vm_components=dens.vm_components,
                vm_weights=tuple(w if j == i else 0.0 for j in range(k)),
                axial_weight=0.0,
            )
            assert np.trapezoid(alone.mean_value(t), t) == pytest.approx(w, abs=1e-10)
        axial = CircularDensity(
            vm_components=dens.vm_components,
            vm_weights=(0.0,) * k,
            axial_angle=dens.axial_angle,
            axial_conc=dens.axial_conc,
            axial_weight=dens.axial_weight,
        )
        assert np.trapezoid(axial.mean_value(t), t) == pytest.approx(
            dens.axial_weight, abs=1e-10
        )


def test_vm_component_mode_value():
    # single bump, concentration 2, evaluated at its mode
    d = CircularDensity(
        vm_components=((0.0, 2.0),), vm_weights=(1.0,), axial_weight=0.0
    )
    assert d.mean_value(0.0) == pytest.approx(0.5158854120190137, abs=1e-12)


def test_default_density_integrates_to_component_mass():
    # three pdf bumps at weight 1/3 plus one pdf bump at weight 1
    t = np.linspace(0.0, 2 * np.pi, 200001)
    total = np.trapezoid(DEFAULT_DENSITY.mean_value(t), t)
    assert total == pytest.approx(2.0, abs=1e-9)


def test_density_mean_is_periodic():
    rng = np.random.default_rng(17)
    theta = rng.uniform(-10, 10, 100)
    a = DEFAULT_DENSITY.mean_value(theta)
    b = DEFAULT_DENSITY.mean_value(theta + 2 * np.pi)
    assert np.max(np.abs(a - b)) < 1e-12


def test_case1_observation_noise():
    rng = rng_for(31, 0)
    theta = np.zeros(100000)
    z = case_study_1_observe(theta, rng)
    resid = z - DEFAULT_DENSITY.mean_value(0.0)
    assert np.var(resid) == pytest.approx(0.0025, rel=0.05)


def test_case2_grid_is_inclusive_and_contains_zero():
    grid, values = case_study_2_sweep(CASE2_PARAM_SETS[0], resolution=181)
    assert grid[0] == -np.pi
    assert grid[-1] == np.pi
    assert np.any(grid == 0.0)
    assert values.shape == (181, 181)


def test_case2_maximum_at_origin_all_sets():
    for kernel in CASE2_PARAM_SETS:
        grid, values = case_study_2_sweep(kernel, resolution=61)
        idx = np.unravel_index(np.argmax(values), values.shape)
        assert grid[idx[0]] == 0.0
        assert grid[idx[1]] == 0.0


def test_case2_zero_interaction_sets_factorize():
    for kernel in (CASE2_PARAM_SETS[0], CASE2_PARAM_SETS[2]):
        grid, values = case_study_2_sweep(kernel, resolution=41)
        lam = kernel.theta[1:3]
        f = np.exp(lam[0] * np.cos(grid))
        g = np.exp(lam[1] * np.cos(grid))
        assert np.max(np.abs(values - np.outer(f, g))) < 1e-12


def test_case2_set2_corner_value():
    _, values = case_study_2_sweep(CASE2_PARAM_SETS[1], resolution=41)
    # at (pi, pi) the linear terms cancel against the pair term exactly
    assert values[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_case2_point_symmetry():
    for kernel in CASE2_PARAM_SETS:
        _, values = case_study_2_sweep(kernel, resolution=41)
        assert np.max(np.abs(values - values[::-1, ::-1])) < 1e-12


def _crlf_copy(path):
    """The same table with CRLF line ends, as csv.writer writes it."""
    crlf = path.with_name("crlf_" + path.name)
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    return crlf


def test_training_set_file_roundtrip(tmp_path):
    """The file ends its lines with LF; it and a CRLF copy load exactly."""
    cfg = ScenarioConfig(grid=(5, 4), seed=2)
    ts = build_training_set(cfg)
    path = tmp_path / "ts.csv"
    save_training_set(ts, path)
    assert b"\r" not in path.read_bytes()
    for back in (load_training_set(path), load_training_set(_crlf_copy(path))):
        assert np.array_equal(ts.positions, back.positions)
        assert np.array_equal(ts.inputs, back.inputs)
        assert np.array_equal(ts.obs, back.obs)


def test_trajectory_file_roundtrip(tmp_path):
    """The file ends its lines with LF; it and a CRLF copy load exactly."""
    cfg = ScenarioConfig(trajectory="T2", steps=77)
    traj = trajectory(cfg)
    path = tmp_path / "traj.csv"
    save_trajectory(traj, path)
    assert b"\r" not in path.read_bytes()
    for back in (load_trajectory(path, "T2"), load_trajectory(_crlf_copy(path), "T2")):
        assert np.array_equal(traj.positions, back.positions)


def test_rng_for_is_stable_and_key_sensitive():
    a = rng_for(4, 1).standard_normal(3)
    b = rng_for(4, 1).standard_normal(3)
    c = rng_for(4, 2).standard_normal(3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(references=((5.0, 5.0), (5.0, 5.0), (15.0, 25.0)))
    with pytest.raises(ValueError):
        ScenarioConfig(trajectory="T9")
    with pytest.raises(ValueError):
        ScenarioConfig(noise_xi=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(process_cov=((1.0, 2.0), (0.0, 1.0)))


def test_write_csv_writes_every_cell_type_exactly(tmp_path):
    """str and int cells, bool included, are written by str and every other
    cell by repr(float(cell)), in all-float and mixed columns alike."""
    rows = [
        ("a", 3, True, np.int64(7), np.float64(0.1), -0.0),
        ("b", np.float64(2.5), False, 1e-300, float("nan"), float("inf")),
        (4, np.float32(0.1), np.bool_(True), -np.inf, np.float64(-1e300), 1),
    ]
    path = tmp_path / "cells.csv"
    simulator.write_csv(path, ["c1", "c2", "c3", "c4", "c5", "c6"], iter(rows))
    assert path.read_bytes() == (
        b"c1,c2,c3,c4,c5,c6\n"
        b"a,3,True,7.0,0.1,-0.0\n"
        b"b,2.5,False,1e-300,nan,inf\n"
        b"4,0.10000000149011612,1.0,-inf,-1e+300,1\n"
    )
    simulator.write_csv(path, ["x"], [])
    assert path.read_bytes() == b"x\n"


def test_write_csv_refuses_a_row_of_another_width(tmp_path):
    with pytest.raises(ValueError, match="header's 2 cells"):
        simulator.write_csv(tmp_path / "t.csv", ["a", "b"], [(1.0, 2.0), (3.0,)])


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"arena": (0.0, 30.0)}, "arena sides must be positive"),
        ({"references": ((5.0, 5.0, 1.0), (25.0, 5.0, 1.0))}, "references must be (m, 2)"),
        ({"references": ((5.0, 5.0), (25.0, 35.0))}, "references must lie inside the arena"),
        ({"steps": 1}, "steps must be >= 2"),
        ({"offset_ratio": -0.05}, "offset_ratio must be nonnegative"),
        ({"process_cov": ((0.16, 0.0), (0.0, -0.01))}, "process_cov must be positive semidefinite"),
        ({"grid": (24, 0)}, "grid must have at least one cell per axis"),
        ({"particles": 0}, "particles must be >= 1"),
    ],
    ids=["arena", "reference-shape", "reference-outside", "steps", "offset", "cov-not-psd", "grid",
         "particles"],
)
def test_scenario_config_refuses_each_bad_field(fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ScenarioConfig(**fields)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"vm_weights": (0.5, 0.5)}, "one weight per von Mises component"),
        ({"axial_conc": 0.0}, "axial concentration must be negative"),
        ({"noise_var": 0.0}, "noise_var must be positive"),
    ],
    ids=["weight-count", "axial-conc", "noise-var"],
)
def test_circular_density_refuses_each_bad_field(fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        CircularDensity(**fields)


@pytest.mark.parametrize(
    "kernel, resolution, message",
    [
        (kernel_from_family("hvm", 3), 13, "the sweep is defined on two circles"),
        (CASE2_PARAM_SETS[0], 1, "resolution must be >= 2"),
    ],
    ids=["three-circles", "resolution-1"],
)
def test_case2_sweep_refuses_its_bad_arguments(kernel, resolution, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        case_study_2_sweep(kernel, resolution=resolution)


def test_loaders_refuse_an_empty_training_set_and_a_foreign_trajectory_header(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match=f"^{re.escape(str(empty))}: empty training-set file$"):
        load_training_set(empty)
    foreign = tmp_path / "foreign.csv"
    foreign.write_text("step,x,y\n0,1.0,2.0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(foreign))}: unexpected trajectory header$"):
        load_trajectory(foreign)


# Each edit turns the lines of a table that simulate wrote into a malformed table.
MALFORMED_TABLES = {
    "header-only": lambda lines: lines[:1],
    "one-cell-more": lambda lines: lines[:1] + [line + ",1.0" for line in lines[1:]],
    "one-cell-fewer": lambda lines: lines[:1] + [line.rsplit(",", 1)[0] for line in lines[1:]],
    "one-row-ragged": lambda lines: lines[:2] + [lines[2] + ",1.0"] + lines[3:],
}


@pytest.mark.parametrize("edit", MALFORMED_TABLES)
@pytest.mark.parametrize("table", ["training-set", "trajectory"])
def test_loaders_refuse_a_malformed_table_naming_the_file(tmp_path, table, edit):
    """A header alone, rows one cell wider or narrower than the header (four-
    and two-cell trajectory rows), or one ragged row: a ValueError naming the file."""
    cfg = ScenarioConfig(grid=(3, 2), steps=5)
    path = tmp_path / f"{table}.csv"
    if table == "training-set":
        save_training_set(build_training_set(cfg), path)
        load, width = load_training_set, 11
    else:
        save_trajectory(trajectory(cfg), path)
        load, width = load_trajectory, 3
    bad = tmp_path / f"{edit}.csv"
    bad.write_text("".join(line + "\n" for line in MALFORMED_TABLES[edit](path.read_text().splitlines())))
    reason = f"every row must have the header's {width} cells"
    if edit == "header-only":
        reason = f"empty {table} file"
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: {re.escape(reason)}$"):
        load(bad)
