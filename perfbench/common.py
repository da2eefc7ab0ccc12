"""Shared set-up for the benchmark scripts: thread pins, import path, inputs.

Import this module before NumPy: it pins every BLAS pool to one thread and
puts the checkout's ``src/`` first on the import path, so the benchmark runs
the program from source without an install.
"""

import hashlib
import json
import os
import platform
import sys
from pathlib import Path

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
HYPERPARAMS = BENCH_DIR / "desk_hyperparams.json"

if not (SRC / "torusgp" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program source at {SRC / 'torusgp'}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from torusgp import kernels, simulator, tracking  # noqa: E402

# Desk scale, as criteria 7 and 8 of the acceptance suite run it.
DESK_STEPS = 200
DESK_PARTICLES = 100
DESK_BUDGET = 100
DESK_RESTARTS = 2
CAMPAIGN_SEED = 1234
FAMILY_OF = tracking.GP_FAMILIES  # GP method name -> kernel family
GP_METHODS = tuple(FAMILY_OF)


def desk_config() -> simulator.ScenarioConfig:
    return simulator.ScenarioConfig(steps=DESK_STEPS, particles=DESK_PARTICLES)


def desk_training_set() -> simulator.TrainingSet:
    """The training set tracking.campaign(seed=1234) draws for its noise level 0."""
    cfg = desk_config().with_(seed=CAMPAIGN_SEED)
    return simulator.build_training_set(cfg, simulator.rng_for(CAMPAIGN_SEED, 0, 0))


def load_hyperparams() -> dict:
    with open(HYPERPARAMS) as fh:
        return json.load(fh)


def kernel_from_entry(entry: dict, m: int):
    """Rebuild a trained kernel from a stored (family, theta) entry."""
    kern = kernels.kernel_from_family(entry["family"], m)
    if tuple(kern.theta_names) != tuple(entry["theta_names"]):
        raise ValueError(f"stored coordinates {entry['theta_names']} do not match {kern.theta_names}")
    return kern.with_theta(np.asarray(entry["theta"], dtype=float))


def source_fingerprint() -> str:
    """Hash of the program's source files, so stored results are compared per code version."""
    h = hashlib.sha256()
    for path in sorted((SRC / "torusgp").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _blas(module) -> str:
    info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{info['name']} {info.get('version')}"


def environment() -> dict:
    """Machine, library versions and thread pins, for the run report."""
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_blas": _blas(np),
        "scipy": scipy.__version__,
        "scipy_blas": _blas(scipy),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def digest(*arrays) -> str:
    """Bit-exact digest of float arrays and plain values."""
    h = hashlib.sha256()
    for a in arrays:
        if isinstance(a, (str, bytes)):
            h.update(a.encode() if isinstance(a, str) else a)
        else:
            h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()
