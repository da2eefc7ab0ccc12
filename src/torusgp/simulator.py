"""Ranging sensor-network scenario and the two closed-form study setups.

An agent moves in a rectangular arena watched by m reference nodes. Every
step it receives one range measurement per reference,

    z = (1 + c) * h(x) + v,     h_s(x) = |ref_s - x|,   v ~ N(0, xi^2 I_m),

where c is a fixed relative range offset (a miscalibrated gain the tracker
does not know about). Positions map onto T^m through the angle-of-arrival
embedding, which is where the GP regression lives.

Also in this module: the circular mixture density used for scalar regression
on S^1 (three von Mises bumps plus one antipodally symmetric bump and
Gaussian observation noise), and the sweep of four coupled (hvm) kernels
over two circles, evaluated on a symmetric angle grid.

Every table the package writes goes through write_csv: a header, then rows of
its width, floats at full precision, LF line ends. The training set and
trajectory load back through one reader that refuses any other shape and a
NaN or infinite cell. Model files, reports and manifests go through write_json.
"""

import csv
import json
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import islice

import numpy as np

from .kernels import ExpLinearKernel
from .manifold import AOA_SINGULARITY_TOL, GeometryError, aoa_directions, aoa_embedding_batch
from .manifold import as_input_array, embed_angles

__all__ = [
    "ScenarioConfig",
    "TrainingSet",
    "Trajectory",
    "CircularDensity",
    "range_function",
    "simulate_dynamics",
    "measure_range",
    "training_grid",
    "build_training_set",
    "trajectory",
    "case_study_1_observe",
    "case_study_2_sweep",
    "CASE2_PARAM_SETS",
    "TRAJECTORY_NAMES",
    "rng_for",
    "save_training_set",
    "load_training_set",
    "save_trajectory",
    "load_trajectory",
    "write_csv",
    "write_json",
]

TRAJECTORY_NAMES = ("T1", "T2", "T3")


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for a (seed, purpose...) tuple."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(key)))


@dataclass(frozen=True)
class ScenarioConfig:
    """Arena, sensing, and motion constants.

    Defaults describe a 30 x 30 m arena with three references, a random-walk
    process model with per-axis variance 0.16 m^2, a 5 % relative range
    offset, and a 24 x 10 training grid (cell-centered, half-cell margins).
    The references array and process noise root are computed once, read-only.
    Grid and trajectory refuse a point within manifold.AOA_SINGULARITY_TOL of a reference.
    """

    arena: tuple = (30.0, 30.0)
    references: tuple = ((5.0, 5.0), (25.0, 5.0), (15.0, 25.0))
    trajectory: str = "T1"
    steps: int = 1000
    process_cov: tuple = ((0.16, 0.0), (0.0, 0.16))
    noise_xi: float = 0.01
    offset_ratio: float = 0.05
    grid: tuple = (24, 10)
    particles: int = 100
    seed: int = 0

    def __post_init__(self):
        for name, value in (("arena", self.arena), ("grid", self.grid)):
            if len(value) != 2:
                raise ValueError(f"{name} must have 2 entries, got {len(value)}")
        W, H = self.arena
        if not (W > 0 and H > 0):
            raise ValueError("arena sides must be positive")
        refs = np.asarray(self.references, dtype=float)
        if refs.ndim != 2 or refs.shape[1] != 2:
            raise ValueError("references must be (m, 2)")
        if np.any(refs < 0) or np.any(refs > [W, H]):
            raise ValueError("references must lie inside the arena")
        if len({tuple(r) for r in self.references}) != len(self.references):
            raise ValueError("references must be distinct")
        if self.trajectory not in TRAJECTORY_NAMES:
            raise ValueError(f"trajectory must be one of {TRAJECTORY_NAMES}")
        if self.steps < 2:
            raise ValueError("steps must be >= 2")
        if not self.noise_xi > 0:
            raise ValueError("noise_xi must be positive")
        if not self.offset_ratio >= 0:
            raise ValueError("offset_ratio must be nonnegative")
        Q = np.asarray(self.process_cov, dtype=float)
        if Q.shape != (2, 2) or not np.allclose(Q, Q.T):
            raise ValueError("process_cov must be a symmetric 2x2 matrix")
        if np.any(np.linalg.eigvalsh(Q) < 0):
            raise ValueError("process_cov must be positive semidefinite")
        gx, gy = self.grid
        if gx < 1 or gy < 1:
            raise ValueError("grid must have at least one cell per axis")
        if self.particles < 1:
            raise ValueError("particles must be >= 1")

    @property
    def m(self) -> int:
        return len(self.references)

    @cached_property
    def references_array(self) -> np.ndarray:
        return _read_only(np.array(self.references, dtype=float))

    @cached_property
    def process_noise_root(self) -> np.ndarray:
        """Symmetric square root S of process_cov (S S^T = Q), singular Q included."""
        w, V = np.linalg.eigh(np.asarray(self.process_cov, dtype=float))
        return _read_only((V * np.sqrt(np.clip(w, 0.0, None))) @ V.T)

    def with_(self, **kw) -> "ScenarioConfig":
        return replace(self, **kw)


def range_function(x, references) -> np.ndarray:
    """Distances from position(s) x to every reference, from aoa_directions: (m,) or (n, m)."""
    x = np.asarray(x, dtype=float)
    h = aoa_directions(np.atleast_2d(x), references)[1]
    return h[0] if x.ndim == 1 else h


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def simulate_dynamics(x, cfg: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """One random-walk step x_next = x + w, w ~ N(0, cfg.process_cov). x may be (2,) or (n, 2)."""
    x = np.asarray(x, dtype=float)
    return x + rng.standard_normal(x.shape) @ cfg.process_noise_root.T


def measure_range(x, cfg: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Offset, noisy ranges z = (1 + c) h(x) + v: (m,) at one position, (n, m) for (n, 2).

    The noise is drawn with the shape of h, row by row, so a batch takes the
    same stream as one call per position in order.
    """
    h = range_function(x, cfg.references_array)
    return (1.0 + cfg.offset_ratio) * h + cfg.noise_xi * rng.standard_normal(h.shape)


def training_grid(cfg: ScenarioConfig) -> np.ndarray:
    """Cell-centered uniform grid over the arena, x index fastest.

    With grid (gx, gy) and arena (W, H), positions are
    ((j + 1/2) W / gx, (k + 1/2) H / gy); margins are half a cell wide.
    """
    gx, gy = cfg.grid
    W, H = cfg.arena
    xs = (np.arange(gx) + 0.5) * (W / gx)
    ys = (np.arange(gy) + 0.5) * (H / gy)
    XX, YY = np.meshgrid(xs, ys)
    return np.column_stack([XX.ravel(), YY.ravel()])


@dataclass
class TrainingSet:
    """Grid positions with their torus embeddings and offset noisy ranges."""

    positions: np.ndarray
    inputs: np.ndarray
    obs: np.ndarray

    @property
    def n(self) -> int:
        return self.positions.shape[0]


def build_training_set(cfg: ScenarioConfig, rng: np.random.Generator | None = None) -> TrainingSet:
    """Sample one observation per grid position (seeded from cfg by default).

    The observations are one batched measure_range over the grid.
    """
    if rng is None:
        rng = rng_for(cfg.seed, 0)
    pos = training_grid(cfg)
    inputs = aoa_embedding_batch(pos, cfg.references_array)
    return TrainingSet(positions=pos, inputs=inputs, obs=measure_range(pos, cfg, rng))


# ---------------------------------------------------------------------------
# Trajectories: closed curves sampled at uniform arc increments.
# ---------------------------------------------------------------------------


@dataclass
class Trajectory:
    """Agent ground truth: (steps, 2) positions along a closed curve."""

    name: str
    positions: np.ndarray

    @property
    def steps(self) -> int:
        return self.positions.shape[0]


def _curve_points(name: str, t: np.ndarray) -> np.ndarray:
    """Closed parametric curves on t in [0, 1]."""
    if name == "T1":
        # circle of radius 9 around the arena center
        ang = 2.0 * np.pi * t
        return np.column_stack([15.0 + 9.0 * np.cos(ang), 15.0 + 9.0 * np.sin(ang)])
    if name == "T2":
        # 1:2 figure-eight spanning [6, 24]^2
        ang = 2.0 * np.pi * t
        return np.column_stack([15.0 + 9.0 * np.sin(ang), 15.0 + 9.0 * np.sin(2.0 * ang)])
    if name == "T3":
        # rounded-rectangle perimeter of [5, 25]^2, corner radius 2
        return _rounded_rectangle(5.0, 25.0, 2.0, t)
    raise ValueError(f"unknown trajectory {name!r}")


def _rounded_rectangle(lo: float, hi: float, r: float, t: np.ndarray) -> np.ndarray:
    side = hi - lo - 2.0 * r
    arc = 0.5 * np.pi * r
    total = 4.0 * (side + arc)
    s = np.asarray(t, dtype=float) * total
    # walk counterclockwise from (lo + r, lo): bottom, right, top, left, with
    # a quarter arc after each straight; one row per leg gives its start, its
    # heading and the centre of its arc
    near, far = lo + r, hi - r
    legs = np.array(
        [
            [near, lo, 1.0, 0.0, far, near],
            [hi, near, 0.0, 1.0, far, far],
            [far, hi, -1.0, 0.0, near, far],
            [lo, far, 0.0, -1.0, near, near],
        ]
    )
    leg, rem = np.divmod(s % total, side + arc)
    start, heading, centre = np.split(legs[np.minimum(leg, 3).astype(int)], 3, axis=1)
    rem = rem[:, None]
    # on its arc the walker is r sin(a) along the heading and r cos(a) to the right of the centre
    a = (rem - side) / r
    right = heading[:, ::-1] * [1.0, -1.0]
    on_arc = centre + r * np.sin(a) * heading + r * np.cos(a) * right
    return np.where(rem < side, start + rem * heading, on_arc)


_DENSE_SAMPLES = 20000


def trajectory(cfg: ScenarioConfig) -> Trajectory:
    """Sample cfg.trajectory at cfg.steps uniform arc-length increments.

    The curve is traversed exactly once; the implied per-step path length is
    (total curve length / steps). A position outside the arena or within
    manifold.AOA_SINGULARITY_TOL of a reference raises GeometryError.
    """
    name = cfg.trajectory
    t_dense = np.linspace(0.0, 1.0, _DENSE_SAMPLES + 1)
    dense = _curve_points(name, t_dense)
    seg = np.linalg.norm(np.diff(dense, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    s_targets = np.arange(cfg.steps) * (total / cfg.steps)
    xs = np.interp(s_targets, cum, dense[:, 0])
    ys = np.interp(s_targets, cum, dense[:, 1])
    pos = np.column_stack([xs, ys])
    W, H = cfg.arena
    if np.any(pos < -1e-9) or np.any(pos[:, 0] > W + 1e-9) or np.any(pos[:, 1] > H + 1e-9):
        raise GeometryError(f"trajectory {name} leaves the arena")
    dist = range_function(pos, cfg.references_array)
    if np.min(dist) < AOA_SINGULARITY_TOL:
        raise GeometryError(f"trajectory {name} passes through a reference")
    return Trajectory(name=name, positions=pos)


# ---------------------------------------------------------------------------
# Scalar study on S^1: circular mixture density with Gaussian readout noise.
# ---------------------------------------------------------------------------


def _vm_pdf(theta, mu: float, kappa: float):
    return np.exp(kappa * np.cos(theta - mu)) / (2.0 * np.pi * np.i0(kappa))


@dataclass(frozen=True)
class CircularDensity:
    """Mixture on S^1: weighted von Mises bumps plus one axial bump.

    The axial component is antipodally symmetric: density proportional to
    exp(conc * sin^2(theta - axis)) with conc < 0, i.e. concentrated along
    the axis direction and its antipode. Observations of the density value
    carry additive Gaussian noise with variance noise_var.
    """

    vm_components: tuple = ((0.0, 2.0), (0.5 * np.pi, 4.0), (4.0, 1.0))
    vm_weights: tuple = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    axial_angle: float = 1.0
    axial_conc: float = -3.0
    axial_weight: float = 1.0
    noise_var: float = 0.0025

    def __post_init__(self):
        if len(self.vm_components) != len(self.vm_weights):
            raise ValueError("one weight per von Mises component")
        if not self.axial_conc < 0:
            raise ValueError("axial concentration must be negative")
        if not self.noise_var > 0:
            raise ValueError("noise_var must be positive")

    def mean_value(self, theta):
        """Noiseless mixture value at angle(s) theta."""
        theta = np.asarray(theta, dtype=float)
        out = np.zeros_like(theta, dtype=float)
        for (mu, kappa), w in zip(self.vm_components, self.vm_weights):
            out = out + w * _vm_pdf(theta, mu, kappa)
        # exp(conc sin^2 u) = exp(conc/2) exp(-(conc/2) cos 2u); normalizer
        # over the circle is 2 pi exp(conc/2) I0(conc/2)
        half = 0.5 * self.axial_conc
        axial = np.exp(-half * np.cos(2.0 * (theta - self.axial_angle))) / (
            2.0 * np.pi * np.i0(half)
        )
        return out + self.axial_weight * axial


DEFAULT_DENSITY = CircularDensity()


def case_study_1_observe(theta, rng: np.random.Generator, density: CircularDensity = DEFAULT_DENSITY):
    """Noisy observation(s) of the circular mixture at angle(s) theta."""
    theta = np.asarray(theta, dtype=float)
    noise = rng.standard_normal(theta.shape) if theta.shape else float(rng.standard_normal())
    return density.mean_value(theta) + np.sqrt(density.noise_var) * noise


# ---------------------------------------------------------------------------
# Kernel sweep on T^2: similarity against a fixed point over an angle grid.
# ---------------------------------------------------------------------------

# Four hvm kernels on two circles, theta = (omega, lam_1, lam_2, corr_12):
# concentrations only (sets 1, 3) and the same concentrations with a pairwise
# interaction weight added (sets 2, 4).
CASE2_PARAM_SETS = (
    ExpLinearKernel("hvm", 2, (1.0, 0.3, 0.3, 0.0)),
    ExpLinearKernel("hvm", 2, (1.0, 0.3, 0.3, 0.3)),
    ExpLinearKernel("hvm", 2, (1.0, 1.0, 1.0, 0.0)),
    ExpLinearKernel("hvm", 2, (1.0, 1.0, 1.0, 1.0)),
)


def case_study_2_sweep(kernel: ExpLinearKernel, resolution: int = 181):
    """Evaluate k(u0, v(alpha, beta)) on a symmetric angle grid: (grid, values).

    kernel is any kernel on two circles (the study uses CASE2_PARAM_SETS).
    u0 is the torus point at angles (0, 0); the grid is the inclusive
    symmetric linspace over [-pi, pi] per axis (odd resolutions contain 0).
    values[i, j] is the kernel at alpha = grid[i], beta = grid[j].
    """
    if kernel.m != 2:
        raise ValueError("the sweep is defined on two circles")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    grid = np.linspace(-np.pi, np.pi, resolution)
    A, Bm = np.meshgrid(grid, grid, indexing="ij")
    pts = embed_angles(np.column_stack([A.ravel(), Bm.ravel()]))
    u0 = embed_angles(np.zeros((1, 2)))
    vals = kernel.gram(pts, u0)[:, 0].reshape(resolution, resolution)
    return grid, vals


# ---------------------------------------------------------------------------
# File formats: headed CSV and JSON, full float precision.
# ---------------------------------------------------------------------------


def write_json(path, doc, indent=None) -> None:
    """Write doc as JSON text, indented as json.dumps takes indent, ending in a newline."""
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=indent) + "\n")


# write_csv formats this many rows at a time, so the per-column text lists stay
# small; formatting a whole table's columns at once held about 0.3 MB more at
# the peak of 40 case-1 runs
_CSV_BLOCK_ROWS = 64


def write_csv(path, header, rows) -> None:
    """Write a headed CSV table whose lines end with LF on every platform.

    Every row has the header's width. str and Python int cells are written
    as they are, every other cell as repr(float(cell)), which reads back to
    the same float. Rows are formatted a block at a time, column by column,
    and the file is written only once every cell is formatted.
    """
    rows, parts = iter(rows), [",".join(header) + "\n"]
    while block := list(islice(rows, _CSV_BLOCK_ROWS)):
        _refuse_ragged(path, header, block)
        columns = [_column_text(col) for col in zip(*block)]
        parts.append("\n".join(map(",".join, zip(*columns))) + "\n")
    with open(path, "w", newline="") as fh:
        fh.write("".join(parts))


def _column_text(cells) -> list:
    """The text of one column's cells; a column with no str or int cell is converted in one pass."""
    if any(issubclass(t, (str, int)) for t in set(map(type, cells))):
        return [str(c) if isinstance(c, (str, int)) else repr(float(c)) for c in cells]
    return list(map(repr, map(float, cells)))


def _refuse_ragged(path, header, rows) -> None:
    """The table rule both ways: every row has the header's width."""
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path}: every row must have the header's {len(header)} cells")


def _read_table(path, header_of, what) -> np.ndarray:
    """The data rows of a headed CSV table, LF or CRLF, as an (n, width) float array.

    A file with no data row, a header other than header_of(width), a row of
    another width or a NaN or infinite cell raises a ValueError naming the file.
    """
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh)) or [[]]
    if not rows:
        raise ValueError(f"{path}: empty {what} file")
    if header != header_of(len(header)):
        raise ValueError(f"{path}: unexpected {what} header")
    _refuse_ragged(path, header, rows)
    data = np.array(rows, dtype=float)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: a cell is NaN or infinite")
    return data


def _training_header(m: int) -> list:
    """Position, the m AoA components, then one range column per reference."""
    aoa = [f"aoa{s}_e{k}" for s in range(1, m + 1) for k in (1, 2)]
    return ["x_m", "y_m", *aoa, *(f"range{s}_m" for s in range(1, m + 1))]


_TRAJECTORY_HEADER = ["step", "x_m", "y_m"]


def save_training_set(ts: TrainingSet, path) -> None:
    n, m = ts.inputs.shape[:2]
    rows = np.column_stack([ts.positions, ts.inputs.reshape(n, -1), ts.obs])
    write_csv(path, _training_header(m), rows)


def load_training_set(path) -> TrainingSet:
    data = _read_table(path, lambda width: _training_header((width - 2) // 3), "training-set")
    m = (data.shape[1] - 2) // 3
    pos, aoa, obs = np.split(data, [2, 2 + 2 * m], axis=1)
    return TrainingSet(positions=pos, inputs=as_input_array(aoa.reshape(-1, m, 2), m), obs=obs)


def save_trajectory(traj: Trajectory, path) -> None:
    write_csv(path, _TRAJECTORY_HEADER, ((i, x, y) for i, (x, y) in enumerate(traj.positions)))


def load_trajectory(path, name: str = "file") -> Trajectory:
    data = _read_table(path, lambda width: _TRAJECTORY_HEADER, "trajectory")
    return Trajectory(name=name, positions=data[:, 1:3])
