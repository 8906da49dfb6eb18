#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_vpu8 --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric named in ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric from a span-traced run.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
correctness check exits with status 1 and prints no metrics; a checkout
without the program's sources exits with status 2.

Set-up time is measured from the top of this file (before any import of
the program) to the point where the first request could be offered.  The
runner itself is one sample; ``--role setup`` children, each a fresh
process, give the others (three to nine), and ``setup_s`` is their
median.  Host times are scaled to a nominal host speed with the
reference loop in ``hostspeed.py``; the unscaled medians are printed on
the comment line.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One thread of load: BLAS must not fan out across the host's cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh-process set-ups per run (the runner's own plus children):
#: at least the minimum, and more while they add up to under
#: ``SETUP_SECONDS``, so that short set-ups get a steadier median.
SETUP_SAMPLES = (3, 9)
SETUP_SECONDS = 2.0
#: Child processes must finish well inside the 180 s run budget.
CHILD_TIMEOUT_S = 150


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _child(args: argparse.Namespace, role: str) -> dict:
    """Run this script in a fresh process in *role*; its JSON line."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--role", role]
    if args.size is not None:
        cmd += ["--size", str(args.size)]
    done = subprocess.run(cmd, cwd=os.getcwd(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{role} child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _print_metrics(metrics: dict, declared: list) -> None:
    for m in declared:
        value = metrics[m["name"]]["value"]
        print(f"{m['name']:28s} {value:>16.6f} {m['unit']:8s} "
              f"({m['better']} is better)")


def _setup_sample() -> dict:
    """This process's set-up time, raw and at nominal host speed."""
    from hostspeed import REFERENCE_S, reference_seconds

    raw = time.perf_counter() - _T0
    return {"setup_s": raw * REFERENCE_S / reference_seconds(3),
            "raw_s": raw}


def _end_to_end(args: argparse.Namespace, workload) -> tuple[dict, int]:
    from hostspeed import REFERENCE_S, reference_seconds

    setup = [_setup_sample()]
    fewest, most = SETUP_SAMPLES
    while len(setup) < fewest or (len(setup) < most and sum(
            s["raw_s"] for s in setup) < SETUP_SECONDS):
        setup.append(_child(args, "setup"))
    workload.check(workload.unit(workload.warm_size))

    rates, raw_rates, attempted, first = [], [], 0, None
    reference = reference_seconds()
    start = time.perf_counter()
    while True:
        # Collect the last repeat's garbage outside the timed region,
        # so neither collector pauses nor a second live outcome depend
        # on how many repeats fit.
        gc.collect()
        t = time.perf_counter()
        outcome = workload.unit()
        elapsed = time.perf_counter() - t
        # The host's speed over the repeat: the reference loop timed
        # just before and just after it.
        before, reference = reference, reference_seconds()
        nominal = elapsed * REFERENCE_S / (0.5 * (before + reference))
        workload.check(outcome)
        sim = workload.sim_metrics(outcome)
        if first is None:
            first, first_outcome = sim, outcome
        elif sim != first:
            raise SystemExit(f"{workload.name}: simulated results changed "
                             f"between repeats of one seed: {sim} vs "
                             f"{first}")
        rates.append(workload.items(outcome) / nominal)
        raw_rates.append(workload.items(outcome) / elapsed)
        attempted += workload.offered(outcome)
        del outcome
        if time.perf_counter() - start >= args.seconds:
            break

    values = dict(first)
    values["setup_s"] = statistics.median(s["setup_s"] for s in setup)
    values["host_items_per_s"] = statistics.median(rates)
    values["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["paper_latency_err_pct"] = workload.paper_error(first_outcome)
    values["sim_img_per_s"] = workload.campaign_img_per_s(first_outcome)
    samples = ", ".join(f"{s['setup_s']:.3f}" for s in setup)
    print(f"# {workload.name} seed {args.seed}: {len(rates)} timed "
          f"repeats, {int(first['samples'])} latency samples per repeat, "
          f"set-up samples {samples} s; unscaled set-up "
          f"{statistics.median(s['raw_s'] for s in setup):.3f} s, "
          f"host rate {statistics.median(raw_rates):.2f} items/s")
    accuracy = getattr(workload, "last_accuracy", None)
    if accuracy:
        print("# accuracy: " + ", ".join(f"{k} {v:.4f}"
                                         for k, v in accuracy.items()))
    return values, attempted


def _per_layer(args: argparse.Namespace, workload, tracer) -> tuple[dict,
                                                                   int]:
    from tracing import layer_table, traced
    from workloads import RESULT_METRICS

    workload.check(workload.unit(workload.warm_size))
    untraced_s = _child(args, "unit")["unit_s"]
    tables, attempted = [], 0
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        outcome = traced(tracer, workload.unit)
        elapsed = time.perf_counter() - t
        workload.check(outcome)
        table = layer_table(tracer)
        table.update(dict.fromkeys(RESULT_METRICS, 0.0))
        table.update(workload.layer_metrics(outcome))
        table["trace.overhead_pct"] = (elapsed / untraced_s - 1.0) * 100.0
        in_forward, compute = tracer.forward_accounting()
        tables.append(table)
        attempted += workload.offered(outcome)
        if time.perf_counter() - start >= args.seconds:
            break
    print(f"# {workload.name} seed {args.seed}: {len(tables)} traced "
          f"repeats; untraced unit {untraced_s:.3f} s; Network.forward "
          f"{in_forward:.3f} s of which nn/tensors/numerics self "
          f"{compute:.3f} s")
    keys = set().union(*tables)
    return {k: statistics.median(t.get(k, 0.0) for t in tables)
            for k in keys}, attempted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("run", "setup", "unit"),
                        default="run", help=argparse.SUPPRESS)
    # Requests per unit, for the self-test only.
    parser.add_argument("--size", type=int, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, CheckFailed

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = _spec()
    declared = spec["per_layer" if args.trace else "end_to_end"]

    tracer = None
    if args.trace and args.role == "run":
        from tracing import SpanTracer, install

        tracer = SpanTracer()
        install(tracer)
    workload = WORKLOADS[args.workload](args.size)
    try:
        workload.setup(args.seed)
        if args.role == "setup":
            print(json.dumps(_setup_sample()))
            return 0
        if args.role == "unit":
            workload.check(workload.unit(workload.warm_size))
            t = time.perf_counter()
            workload.check(workload.unit())
            print(json.dumps({"unit_s": time.perf_counter() - t}))
            return 0
        if tracer is None:
            values, attempted = _end_to_end(args, workload)
        else:
            values, attempted = _per_layer(args, workload, tracer)
    except CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": float(values[m["name"]]),
                           "unit": m["unit"]} for m in declared}
    _print_metrics(metrics, declared)
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
