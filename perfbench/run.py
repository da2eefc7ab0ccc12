"""torusgp benchmark: one command for every workload.

    python3 perfbench/run.py --workload desk_campaign --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selfcheck

Runs from the root of a checkout: the program is imported from ``src/``,
every BLAS pool is pinned to one thread, and all work happens in this one
process. After set-up (repeated, median reported) the workload's round is
repeated whole while the next round still ends within --seconds (at least
once); every round must reproduce the first bit-exactly. The last line of standard output is one JSON object:
correct, attempted, failed and the metrics (end-to-end ones with --trace 0,
per-layer ones with --trace 1). Reports and span traces go to
perfbench/results/. See perfbench/README.md.
"""

import argparse
import json
import resource
import statistics
import sys
import time

import common  # first: pins threads and sets the import path
import probes
import workloads
from tracer import LAYERS, Tracer

SETUP_REPEATS = 5
STORE = common.RESULTS / "store.jsonl"


def _store_records(wl, key, fingerprint):
    if not STORE.exists():
        return []
    out = []
    for line in STORE.read_text().splitlines():
        rec = json.loads(line)
        if (rec["workload"], rec["input_key"], rec["fingerprint"]) == (wl.name, key, fingerprint):
            out.append(rec)
    return out


def _timed_round(wl, state, tracer=None):
    t0 = time.perf_counter()
    try:
        if tracer is None:
            output = wl.run_round(state)
        else:
            with tracer.span("round"):
                output = wl.run_round(state)
    except Exception as exc:  # the whole round failed; examine() counts it
        output = exc
    return time.perf_counter() - t0, output


def run(args) -> dict:
    wl = workloads.WORKLOADS[args.workload]()
    common.RESULTS.mkdir(parents=True, exist_ok=True)
    fingerprint = common.source_fingerprint()
    key = wl.input_key(args.seed)
    earlier = _store_records(wl, key, fingerprint)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = wl.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)

    rounds = []  # (seconds, Round)
    output = None
    tracer = None
    if not args.trace:
        # whole rounds only: stop before a round that would end past --seconds
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start + rounds[-1][0] <= args.seconds:
            dt, output = _timed_round(wl, state)
            rounds.append((dt, wl.examine(state, output)))
    else:
        untraced = [r["run_s"] for r in earlier if not r["trace"]]
        if untraced:
            baseline = statistics.median(untraced)
        else:
            dt, output = _timed_round(wl, state)
            rounds.append((dt, wl.examine(state, output)))
            baseline = dt
        tracer = Tracer().install()
        dt, output = _timed_round(wl, state, tracer)
        rounds.append((dt, wl.examine(state, output)))

    last = rounds[-1][1]
    checks = wl.final_checks(state, output, last)
    problems = [p for _, r in rounds for p in r.problems]
    digests = {r.digest for _, r in rounds if r.failed == 0} | {
        rec["digest"] for rec in earlier if rec.get("failed") == 0
    }
    if len(digests) > 1:
        problems.append("seeded outputs differ between repeats with the same inputs and code")
    run_s = statistics.median(dt for dt, _ in rounds) if not args.trace else rounds[-1][0]

    report = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": int(args.trace),
        "rounds": len(rounds),
        "round_s": [dt for dt, _ in rounds],
        "setup_s": setup_times,
        "checks": checks,
        "problems": problems,
        "digest": last.digest,
        "environment": common.environment(),
    }
    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (run_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "hvm_rmse": (last.quality, "m_or_1/rad"),
        }
        extra = wl.report(state, last, run_s)
    else:
        root = next(i for i, s in enumerate(tracer.spans) if s[0] == "round")
        layer_s = tracer.layer_self_seconds(root)
        with tracer.span("probe"):
            metrics = probes.run(tracer)
        tracer.uninstall()
        for fam in workloads.FAMILIES:
            metrics[f"hyperopt.iterations.{fam}"] = (last.iterations[fam], "count")
        metrics["hyperopt.restart_failures"] = (last.restart_failures, "count")
        metrics["tracking.diverged_runs"] = (last.diverged_runs, "count")
        for layer in LAYERS:
            metrics[f"{layer}.self_pct"] = (100.0 * layer_s[layer] / run_s, "%")
        metrics["trace.overhead_pct"] = (100.0 * (run_s - baseline) / baseline, "%")
        extra = {f"{layer}.self_s": (v, "s") for layer, v in layer_s.items()}
        extra["trace.run_s"] = (run_s, "s")
        extra["trace.untraced_run_s"] = (baseline, "s")
        for i in tracer.descendants(root):
            name = tracer.spans[i][0]
            if name.startswith("tracking.train_method["):
                method = name[len("tracking.train_method["):-1]
                fam = common.FAMILY_OF.get(method)
                if fam:
                    extra[f"hyperopt.fit_s.{fam}"] = (tracer.duration(i), "s")
        trace_path = common.RESULTS / f"trace-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        report["trace_file"] = str(trace_path.relative_to(common.ROOT))

    attempted = sum(r.attempted for _, r in rounds)
    failed = sum(r.failed for _, r in rounds)
    report.update(metrics={k: v for k, (v, _) in metrics.items()}, extra={k: v for k, (v, _) in extra.items()})
    with open(common.RESULTS / f"{wl.name}-seed{args.seed}-trace{int(args.trace)}.json", "w") as fh:
        json.dump(report, fh, indent=1, default=float)
    with open(STORE, "a") as fh:
        fh.write(json.dumps({"workload": wl.name, "input_key": key, "fingerprint": fingerprint,
                             "trace": int(args.trace), "run_s": run_s, "digest": last.digest,
                             "failed": failed}) + "\n")

    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print(f"{name:36s} {value:.6g} {unit}")
    for name, value in checks.items():
        print(f"check {name:30s} {value:.3g}")
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="torusgp benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true", help="check the oracles on small problems and exit")
    args = parser.parse_args(argv)
    if args.selfcheck:
        import selfcheck

        return selfcheck.main()
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
