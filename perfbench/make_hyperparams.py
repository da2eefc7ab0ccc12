"""Regenerate desk_hyperparams.json from the program's own training.

    python3 perfbench/make_hyperparams.py [--out perfbench/desk_hyperparams.json]

Each GP method is trained with tracking.train_method at desk budget (100
iterations, 2 restarts) on the training set tracking.campaign(seed=1234)
draws, with the training seed campaign derives for that method, so the
stored models are exactly the ones the desk campaign trains. The desk_track
workload conditions its models on these values instead of optimizing.
"""

import argparse
import json
import time

import common
import numpy as np
from torusgp import tracking


def train_seed(method_index: int) -> int:
    """The seed tracking.campaign passes to train_method for method i at noise level 0."""
    ss = np.random.SeedSequence(entropy=common.CAMPAIGN_SEED, spawn_key=(1, 0, method_index))
    return int(ss.generate_state(1)[0])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(common.HYPERPARAMS))
    args = parser.parse_args(argv)
    cfg = common.desk_config()
    ts = common.desk_training_set()
    doc = {
        "command": "python3 perfbench/make_hyperparams.py",
        "campaign_seed": common.CAMPAIGN_SEED,
        "budget": common.DESK_BUDGET,
        "restarts": common.DESK_RESTARTS,
        "methods": {},
    }
    for mi, method in enumerate(tracking.METHODS):
        if method not in common.GP_METHODS:
            continue
        seed = train_seed(mi)
        t0 = time.perf_counter()
        tm = tracking.train_method(
            ts,
            method,
            cfg.references_array,
            budget=common.DESK_BUDGET,
            restarts=common.DESK_RESTARTS,
            seed=seed,
        )
        res = tm.opt
        doc["methods"][method] = {
            "family": tm.gp.kernel.family,
            "train_seed": seed,
            "theta_names": list(res.kernel.theta_names),
            "theta": res.kernel.theta.tolist(),
            "coreg": res.coreg.tolist(),
            "noise_var": np.asarray(res.noise_var).tolist(),
            "objective": res.objective,
            "iterations": res.iterations,
            "stop_reason": res.stop_reason,
        }
        print(f"{method}: F = {res.objective:.6f}, {res.iterations} iterations, "
              f"{time.perf_counter() - t0:.1f} s", flush=True)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
