#!/usr/bin/env python3
"""Measure the benchmark's spread and record its baseline.

Usage (from the repository root)::

    python3 perfbench/prove.py --runs 10 --first-seed 1 --out perfbench/baseline.json

Makes two sets of runs of every workload named in ``BENCHMARK.json``,
one after the other; a set runs each workload ``--runs`` times, one seed
per run, interleaving the workloads so that drift on the host touches
all of them alike.  For each end-to-end metric and set it reports the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median,
and then the gap between the two sets' medians, as a share of the first.
It exits 1 if a spread or a gap exceeds the metric's bound from
``BENCHMARK.json``.  With ``--out`` it then runs the held-out seed once
per workload and one traced run per workload for the layer shares, and
writes everything, with a manifest of the host and software, there.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Seed kept out of every bound and baseline, for later claims.
HELD_OUT_SEED = 9001


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with "
                         f"{done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
    return result


def spread_table(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def manifest(argv: list[str], seeds: list[int]) -> dict:
    import numpy

    sys.path.insert(0, str(ROOT / "src"))
    import repro

    return {"argv": argv, "seeds": seeds, "held_out_seed": HELD_OUT_SEED,
            "package_version": getattr(repro, "__version__", "unknown"),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "date": time.strftime("%Y-%m-%d")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None,
                        help="write the baseline JSON here (adds the "
                             "held-out and traced runs)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    seconds = spec["run_seconds"]
    sets: list[dict[str, list[dict]]] = []
    for number in (1, 2):
        runs: dict[str, list[dict]] = {n: [] for n in names}
        for seed in seeds:
            for name in names:
                t = time.perf_counter()
                runs[name].append(run_once(name, seed, seconds, 0))
                print(f"set {number} {name} seed {seed}: "
                      f"{time.perf_counter() - t:.1f} s", file=sys.stderr)
        sets.append(runs)

    report: dict = {"manifest": manifest(sys.argv, seeds),
                    "run_seconds": seconds, "workloads": {}}
    ok = True
    for name in names:
        cls = WORKLOADS[name]
        entry = {"why": cls.why, "params": cls.params,
                 "bound_seeds": seeds, "metrics": {}}
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            first, second = (spread_table([r["metrics"][key]["value"]
                                           for r in runs[name]])
                             for runs in sets)
            gap = abs(second["median"] - first["median"]) / first["median"]
            entry["metrics"][key] = {"unit": metric["unit"],
                                     "sets": [first, second], "gap": gap}
            worst = max(first["spread"], second["spread"], gap)
            flag = ""
            if worst > bound:
                flag, ok = "  OVER BOUND", False
            elif worst > bound / 3:
                flag = "  over a third of the bound"
            print(f"{name:20s} {key:24s} medians {first['median']:12.4f} "
                  f"{second['median']:12.4f} spreads "
                  f"{first['spread']:7.4f} {second['spread']:7.4f} gap "
                  f"{gap:7.4f} bound {bound:.2f}{flag}")
        if args.out:
            held = run_once(name, HELD_OUT_SEED, seconds, 0)
            entry["held_out"] = {k: v["value"]
                                 for k, v in held["metrics"].items()}
            traced = run_once(name, seeds[0], seconds, 1)["metrics"]
            layers = {k: v["value"] for k, v in traced.items()
                      if k.endswith("_s") and "busy" not in k}
            total = sum(layers.values())
            entry["layer_shares"] = {k: round(v / total, 4)
                                     for k, v in sorted(layers.items())
                                     if v / total >= 0.005}
            entry["trace"] = {k: traced[k]["value"] for k in
                              ("trace.overhead_pct",
                               "trace.unattributed_pct")}
        report["workloads"][name] = entry

    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
