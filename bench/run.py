"""Benchmark of focalclass: CLI sessions, dense classification, F_p(t) walks.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_session, classify_dense, radical_walk (see bench/README.md).
Each run sets up (several times, reporting the median), then runs whole
rounds of a fixed operation set, one operation at a time, until ``--seconds``
have passed, the workload's fewest rounds are done and the tail percentile
has ten operations beyond it.  Human
lines come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  ``--trace 1`` adds a profiled round
after every plain round and reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from core import (  # noqa: E402
    ROOT,
    median,
    min_samples,
    normalise,
    percentile,
    require_program,
)

WORKLOADS = ("cli_session", "classify_dense", "radical_walk")
SETUP_REPEATS = 3


def load_workload(name: str):
    if name == "cli_session":
        import cli_session as mod
    elif name == "classify_dense":
        import classify_dense as mod
    else:
        import radical_walk as mod
    return mod.Workload


def latency(record) -> float:
    return normalise(record["seconds"], record["ref_s"])


def ok_latencies(rounds, normalised=True):
    return [latency(r) if normalised else r["seconds"]
            for rnd in rounds for r in rnd["records"] if not r["failed"]]


def run_total(rounds) -> float:
    """Time to finish the operation set once: the sum over operations of
    each one's median normalised latency across the rounds."""
    per_op = zip(*(rnd["records"] for rnd in rounds))
    return sum(median([latency(r) for r in recs])
               for recs in per_op if not any(r["failed"] for r in recs))


def per_operation(rounds) -> dict:
    """Median normalised latency of each operation of the set, for reading."""
    return {recs[0]["name"]: median([latency(r) for r in recs])
            for recs in zip(*(rnd["records"] for rnd in rounds))}


def measure(workload, seconds: float, trace: bool) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    workload.start()
    startup = None
    if trace:
        import layers
        startup = layers.startup_metrics(workload.pycache)
    rounds, traced = [], []
    need = min_samples(workload.TAIL)
    t_end = time.perf_counter() + seconds
    while True:
        rounds.append(workload.round(False))
        if trace:
            traced.append(workload.round(True))
        if time.perf_counter() >= t_end and (trace or (
                len(rounds) >= workload.MIN_ROUNDS and len(ok_latencies(rounds)) >= need)):
            break
    return {"setups": setups, "rounds": rounds, "traced": traced, "startup": startup}


def end_to_end(workload, data) -> dict:
    lat = ok_latencies(data["rounds"])
    if len(lat) < min_samples(workload.TAIL):
        raise RuntimeError(f"{len(lat)} operations are too few for p{workload.TAIL:g}")
    return {
        "latency_p50_ref": (median(lat), "ref"),
        "latency_tail_ref": (percentile(lat, workload.TAIL), "ref"),
        "total_ref": (run_total(data["rounds"]), "ref"),
        "setup_s": (median(data["setups"]), "s"),
        "peak_rss_mb": (median([r["maxrss_mb"] for r in data["rounds"]]), "MB"),
    }


def per_layer(data) -> dict:
    import layers
    out = {}
    for name in layers.PROFILE_METRICS:
        unit = "count" if name.endswith(".calls") else "ref"
        out[name] = (median([r["layers"][name] for r in data["traced"]]), unit)
    for name in layers.STARTUP_METRICS:
        out[name] = (data["startup"][name], "us" if name.endswith("_us") else "ref")
    refs = [r["ref_s"] for rnd in data["rounds"] for r in rnd["records"]]
    out["ref.ms"] = (median(refs) * 1000, "ms")
    out["wall.latency_p50_ms"] = (median(ok_latencies(data["rounds"], False)) * 1000, "ms")
    out["trace.overhead"] = (run_total(data["traced"]) / run_total(data["rounds"]), "x")
    return out


def report(name, seed, data, metrics) -> tuple[bool, int, int]:
    """Print the human lines; return (correct, attempted, failed)."""
    records = [r for rnd in data["rounds"] + data["traced"] for r in rnd["records"]]
    wrong = [r for r in records if r["wrong"]]
    failed = [r for r in records if r["failed"]]
    print(f"{name} seed={seed}: {len(records)} operations in {len(data['rounds'])} plain"
          f" and {len(data['traced'])} traced rounds, {len(failed)} failed,"
          f" {len(wrong)} wrong")
    print("  set-ups " + " ".join(f"{t:.3f}" for t in data["setups"]) + " s")
    lat_ms = ok_latencies(data["rounds"], False)
    if lat_ms:
        print(f"  raw latency p50 {median(lat_ms) * 1000:.2f} ms,"
              f" reference loop {median([r['ref_s'] for r in records]) * 1000:.3f} ms")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:36s} {value:14.4f} {unit}")
    seen = set()
    for r in failed:
        if r["name"] not in seen and not r["wrong"]:
            seen.add(r["name"])
            print(f"  FAILED (known fault) {r['name']}: {r['note']}")
    for r in wrong[:20]:
        print(f"  WRONG {r['name']}: {r['wrong']}")
    return not wrong, len(records), len(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_program()
    work = ROOT / ".bench_work"
    rundir = work / f"run-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        workload = load_workload(args.workload)(rundir, args.seed)
        data = measure(workload, args.seconds, bool(args.trace))
        metrics = per_layer(data) if args.trace else end_to_end(workload, data)
        correct, attempted, failed = report(args.workload, args.seed, data, metrics)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail = dict(result, operations=per_operation(data["rounds"]))
    out.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
