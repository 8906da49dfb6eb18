"""Command-line interface: regenerate any paper artefact from a shell.

::

    python -m repro list
    python -m repro fig6a --images 160 --trace /tmp/fig6a.json
    python -m repro fig7a --scale default
    python -m repro headline
    python -m repro report --scale smoke     # everything
    python -m repro profile --model googlenet-mini
    python -m repro profile-run --target vpu8 --trace /tmp/run.json
    python -m repro chaos-run --devices 8 --kill-at 0.5 --kind death

``--trace out.json`` on any experiment records a span timeline into
a Chrome/Perfetto ``trace_event`` file (open at
https://ui.perfetto.dev) and prints the per-device utilisation
report; ``profile-run`` does one instrumented run and reports even
without ``--trace``.

Every device configuration is named with one backend grammar
(:func:`parse_backends`).  Exit status: 0 on success, 1 when the run
failed, lost work or failed its gate, 2 on bad input — reported as
one ``repro <command>: <ErrorType>: <message>`` line.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.errors import ConfigError, ObservabilityError, ReproError
from repro.harness import figures
from repro.harness.ascii_plot import bar_chart, line_chart
from repro.harness.experiment import (
    paper_timing_graph,
    paper_timing_network,
    parallel_map,
)
from repro.harness.tables import render_comparison, render_figure_table
from repro.ncsw import IntelCPU, IntelVPU, NCSw, NvGPU, SyntheticSource

_FIGURES: dict[str, tuple[str, Callable]] = {
    "fig6a": ("throughput per subset (batch 8)",
              lambda args, obs=None: figures.fig6a_throughput_per_subset(
                  images_per_subset=args.images, obs=obs,
                  jobs=args.jobs)),
    "fig6b": ("normalized scaling vs batch size",
              lambda args, obs=None: figures.fig6b_normalized_scaling(
                  images=args.images, obs=obs, jobs=args.jobs)),
    "fig7a": ("top-1 error per subset (FP32 vs FP16)",
              lambda args, obs=None: figures.fig7a_top1_error(
                  scale=args.scale, obs=obs, jobs=args.jobs)),
    "fig7b": ("confidence difference per subset",
              lambda args, obs=None: figures.fig7b_confidence_difference(
                  scale=args.scale, obs=obs, jobs=args.jobs)),
    "fig8a": ("throughput per Watt",
              lambda args, obs=None: figures.fig8a_throughput_per_watt(
                  images=args.images, obs=obs, jobs=args.jobs)),
    "fig8b": ("projected throughput to 16 VPUs",
              lambda args, obs=None: figures.fig8b_projected_throughput(
                  images=args.images, obs=obs, jobs=args.jobs)),
}


# -- backend grammar ------------------------------------------------------------

@dataclass(frozen=True)
class BackendSpec:
    """One parsed backend token.

    ``front`` is ``cpu``, ``gpu`` or ``vpu``; ``back`` is set only for
    a split placement; ``sticks`` is the VPU stick count (None for a
    host-only device).
    """

    token: str
    front: str
    back: Optional[str] = None
    sticks: Optional[int] = None

    @property
    def is_vpu(self) -> bool:
        """A plain multi-stick VPU target (the fault-plan carrier)."""
        return self.front == "vpu" and self.back is None


def parse_backends(spec: str, flag: str = "--backends"
                   ) -> list[BackendSpec]:
    """Parse a comma list of backend tokens.

    Tokens: ``cpu``, ``gpu``, ``vpuN`` (N sticks, 1-8), or a split
    placement ``<front>+<back>`` with exactly one VPU side
    (``vpu4+cpu``, ``cpu+vpu2``) — the latency-optimal cut of the
    paper network pipelined across the two tiers.  Raises
    :class:`ConfigError` naming *flag* on a malformed token.
    """
    def side(part: str, token: str) -> tuple[str, Optional[int]]:
        if part in ("cpu", "gpu"):
            return part, None
        if part.startswith("vpu") and part[3:].isdecimal():
            sticks = int(part[3:])
            if not 1 <= sticks <= 8:
                raise ConfigError(
                    f"{flag}: {token!r} needs 1-8 VPU sticks")
            return "vpu", sticks
        raise ConfigError(
            f"{flag}: unknown token {token!r} "
            "(expected cpu, gpu, vpuN or front+back)")

    specs = []
    for token in (t.strip() for t in spec.split(",")):
        if not token:
            continue
        parts = token.split("+")
        if len(parts) == 1:
            front, sticks = side(token, token)
            specs.append(BackendSpec(token, front, sticks=sticks))
            continue
        if len(parts) != 2:
            raise ConfigError(
                f"{flag}: split token {token!r} must be <front>+<back>")
        (front, n_front), (back, n_back) = (side(parts[0], token),
                                            side(parts[1], token))
        if (front == "vpu") == (back == "vpu"):
            raise ConfigError(
                f"{flag}: split token {token!r} needs exactly one vpu "
                "side and one of cpu/gpu (e.g. vpu4+cpu, cpu+vpu2)")
        specs.append(BackendSpec(token, front, back, n_front or n_back))
    if not specs:
        raise ConfigError(f"{flag}: no backends given")
    return specs


def _build_target(spec: BackendSpec, *, fault_plan=None,
                  call_timeout=None):
    """A fresh timing-only target on the paper-scale GoogLeNet.

    A fault plan / call timeout applies to plain VPU targets only.
    """
    if spec.back is not None:
        from repro.split import build_split_target

        return build_split_target(
            paper_timing_network(), graph=paper_timing_graph(),
            front=spec.front, back=spec.back, num_sticks=spec.sticks,
            functional=False)
    if spec.is_vpu:
        return IntelVPU(graph=paper_timing_graph(),
                        num_devices=spec.sticks, functional=False,
                        fault_plan=fault_plan, call_timeout=call_timeout)
    host = IntelCPU if spec.front == "cpu" else NvGPU
    return host(paper_timing_network(), functional=False)


def _closed_loop_rate(spec: BackendSpec) -> tuple[float, int]:
    """Closed-loop throughput of one fresh target (a short batch
    campaign) and the batch size it ran at — the capacity unit that
    brackets the sweeps and sizes the autoscale day."""
    target = _build_target(spec)
    fw = NCSw()
    fw.add_source("synthetic", SyntheticSource(64))
    fw.add_target(spec.token, target)
    batch = max(1, target.preferred_batch_size)
    rate = fw.run("synthetic", spec.token, batch_size=batch).throughput()
    return rate, batch


# -- shared checks and plumbing ---------------------------------------------

def _check_kill_at(value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"--kill-at must be in [0, 1], got {value}")


def _check_index(flag: str, value: int, count: int) -> None:
    """Fail before the baseline run, not after it has printed."""
    if not 0 <= value < count:
        raise ConfigError(
            f"{flag} must be in [0, {count - 1}], got {value}")


def _parse_list(flag: str, text: str, cast: Callable) -> list:
    try:
        values = [cast(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ConfigError(f"{flag}: bad list {text!r}") from None
    if not values:
        raise ConfigError(f"{flag}: no values given")
    return values


def _obs_from_args(args: argparse.Namespace):
    """An ObsSession when --trace or --metrics was given, else None."""
    trace = getattr(args, "trace", None)
    metrics = getattr(args, "metrics", None)
    if trace is None and metrics is None:
        return None
    if trace is not None:
        _check_trace_path(trace)
    if metrics is not None:
        _check_trace_path(metrics, "--metrics")
    from repro.obs import ObsSession

    return ObsSession()


def _check_trace_path(trace: str, flag: str = "--trace") -> None:
    """Fail before the run, not after: the trace file is written last,
    and a bad path would discard minutes of simulation."""
    from pathlib import Path

    parent = Path(trace).resolve().parent
    if not parent.is_dir():
        raise ObservabilityError(
            f"{flag}: directory {parent} does not exist")


def _finish_trace(args: argparse.Namespace, obs) -> None:
    """Print the utilisation report and write the trace file."""
    if obs is None:
        return
    from repro.harness.export import save_trace_json
    from repro.obs import utilisation_report

    print(utilisation_report(obs))
    if getattr(args, "trace", None) is not None:
        path = save_trace_json(obs, args.trace)
        print(f"wrote trace {path} "
              "(open in https://ui.perfetto.dev)")
    if getattr(args, "metrics", None) is not None:
        from repro.obs import write_metrics_jsonl

        path = write_metrics_jsonl(obs, args.metrics)
        print(f"wrote metrics {path} (analyze with "
              f"`python -m repro trace-analyze {path}`)")


def _print_report(args: argparse.Namespace, obs, result, render,
                  workload, *, alerts: bool = True) -> None:
    """Print a serving report, then the observability tail: SLO alerts
    inside the report, the first sampled request's waterfall, the
    utilisation report and the trace/metrics files."""
    kwargs = {}
    if obs is not None and alerts:
        from repro.obs import default_policy, serve_alerts

        kwargs = {"alerts": serve_alerts(result, session=obs),
                  "policy": default_policy(result.wall_seconds)}
    print(render(result, workload=workload.describe(), **kwargs))
    if obs is None:
        return
    print()
    from repro.obs import render_waterfall

    done = [t for t in obs.reqtrace.traces() if t.completed]
    if done:
        print(render_waterfall(obs.reqtrace, done[0].trace_id))
        print()
    _finish_trace(args, obs)


def _serving_kwargs(args: argparse.Namespace) -> dict:
    """Constructor arguments every serving tier shares, from the
    serving parent's flags (milliseconds become seconds)."""
    return {
        "queue_depth": args.queue_depth,
        "admission": args.admission,
        "max_wait_s": args.max_wait / 1000.0,
        "slo_seconds": args.slo / 1000.0,
        "deadline_seconds": (args.deadline / 1000.0
                             if args.deadline is not None else None),
        "warmup": args.warmup,
    }


_BAR_FIGURES = {"fig6a", "fig7a"}


# -- paper artefacts ------------------------------------------------------------

def _cmd_list(args: argparse.Namespace) -> int:
    print("available commands:")
    for name, parser in args.commands.items():
        if name != "list":
            print(f"  {name:<16} {parser.description}")
    return 0


def _render(name: str, result) -> None:
    print(render_figure_table(result))
    print()
    if name in _BAR_FIGURES:
        print(bar_chart(result))
    else:
        print(line_chart(result))
    print()


def _save_figure_json(args: argparse.Namespace, name: str, result):
    """Write *result* under ``--json-dir``; returns the path or None."""
    if not getattr(args, "json_dir", None):
        return None
    from pathlib import Path

    from repro.harness.export import save_figure_json

    out = Path(args.json_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_figure_json(result, out / f"{name}.json")
    return out / f"{name}.json"


def _cmd_figure(args: argparse.Namespace) -> int:
    name = args.command
    obs = _obs_from_args(args)
    result = _FIGURES[name][1](args, obs)
    _render(name, result)
    _finish_trace(args, obs)
    path = _save_figure_json(args, name, result)
    if path is not None:
        print(f"saved {path}")
    return 0


def _print_headline(args: argparse.Namespace, obs):
    """Print the paper-vs-measured headline table; returns its rows."""
    scale = None if args.scale in (None, "none") else args.scale
    rows = figures.headline_table(images=args.images, error_scale=scale,
                                  obs=obs, jobs=args.jobs)
    print(render_comparison(rows, title="headline: paper vs measured"))
    return rows


def _cmd_headline(args: argparse.Namespace) -> int:
    obs = _obs_from_args(args)
    _print_headline(args, obs)
    _finish_trace(args, obs)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    results = {}
    obs = _obs_from_args(args)
    skip_functional = args.scale in (None, "none")
    names = [n for n in _FIGURES
             if not (skip_functional and n in ("fig7a", "fig7b"))]
    for name in names:
        print("=" * 72)
        results[name] = _FIGURES[name][1](args, obs)
        _render(name, results[name])
        _save_figure_json(args, name, results[name])
    print("=" * 72)
    rows = _print_headline(args, obs)
    _finish_trace(args, obs)

    if getattr(args, "markdown", None):
        from pathlib import Path

        from repro.harness.tables import (
            render_comparison_markdown,
            render_figure_markdown,
        )

        md_sections = [render_figure_markdown(results[n])
                       for n in names]
        md = ("# Reproduction report\n\n"
              + render_comparison_markdown(rows) + "\n"
              + "\n".join(md_sections))
        Path(args.markdown).write_text(md)
        print(f"wrote {args.markdown}")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.harness.claims import (
        render_audit,
        verify_claims,
        verify_functional_claims,
    )

    obs = _obs_from_args(args)
    results = verify_claims(images=args.images, obs=obs)
    if args.scale not in (None, "none"):
        results = results + verify_functional_claims(scale=args.scale)
    print(render_audit(results))
    _finish_trace(args, obs)
    return 0 if all(r.passed for r in results) else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.nn import get_model
    from repro.nn.weights import initialize_network
    from repro.vpu import compile_graph
    from repro.vpu.compiler import per_layer_report

    net = get_model(args.model)
    initialize_network(net)
    graph = compile_graph(net, num_shaves=args.shaves)
    print(per_layer_report(graph, top=args.top))
    return 0


def _cmd_profile_run(args: argparse.Namespace) -> int:
    from repro.harness.figures import _timing_framework
    from repro.obs import ObsSession, utilisation_report

    if args.trace:
        _check_trace_path(args.trace)
    obs = ObsSession()
    fw = _timing_framework(args.images, obs=obs)
    run = fw.run("synthetic", args.target, batch_size=args.batch)
    print(run.summary())
    print()
    print(utilisation_report(obs, run.wall_seconds))
    if args.trace:
        from repro.harness.export import save_trace_json

        path = save_trace_json(obs, args.trace)
        print(f"wrote trace {path} (open in https://ui.perfetto.dev)")
    return 0


# -- chaos ----------------------------------------------------------------------

def _chaos_point(point: tuple[int, int, int, float, object], obs=None):
    """One chaos-run run: a fresh (fault-tolerant, given a plan) rig.

    Each plan gets its own framework and simulation environment, so
    the runs are independent and the seeded plans make them
    deterministic — fanning them across processes returns the same
    :class:`RunResult` values as the serial sweep.
    """
    images, devices, batch, timeout, plan = point
    fw = NCSw(obs=obs)
    fw.add_source("synthetic", SyntheticSource(images))
    fw.add_target("vpu", IntelVPU(
        graph=paper_timing_graph(), num_devices=devices,
        functional=False, fault_plan=plan, call_timeout=timeout))
    return fw.run("synthetic", "vpu", batch_size=batch)


def _cmd_chaos_run(args: argparse.Namespace) -> int:
    """Deterministic chaos sweep: kill stick k at t, for each k.

    Runs a healthy baseline first, then one fault-tolerant run per
    victim stick with a seeded :class:`FaultPlan` that fails it at
    ``--kill-at`` of the baseline wall time.  A run passes when every
    non-abandoned image still comes back classified; the command
    exits non-zero if any run loses work it should have saved.
    ``--jobs N`` fans the per-victim runs across processes (tracing
    keeps the sweep serial).
    """
    from repro.ncsw import FaultPlan
    from repro.ncsw.faults import BUSY

    _check_kill_at(args.kill_at)
    if args.kill_stick is not None:
        _check_index("--kill-stick", args.kill_stick, args.devices)
    obs = _obs_from_args(args)
    rig = (args.images, args.devices, args.batch)
    base = _chaos_point(rig + (None, None))
    t_start = min(r.t_submit for r in base.records)
    kill_time = t_start + args.kill_at * base.wall_seconds
    max_latency = max(r.latency for r in base.records)
    # A hung call can only be detected by deadline; several healthy
    # inference times of slack keeps false positives at zero.
    timeout = (args.timeout if args.timeout is not None
               else max(4.0 * max_latency, 0.05))
    busy_duration = 0.1 * base.wall_seconds
    baseline_tput = base.throughput()
    print(f"baseline: {base.summary()}")
    print(f"chaos: kind={args.kind} kill_at={kill_time * 1000:.2f} ms "
          f"(t0+{args.kill_at:.0%} of wall) call_timeout={timeout:.3f} s "
          f"seed={args.seed}")

    if args.random_plans > 0:
        # Seeded random schedules: plan i draws its victim and kill
        # time from seed+i.  Same seed -> same sweep, byte for byte.
        plans = [(f"seed {args.seed + i}",
                  FaultPlan.seeded(
                      args.seed + i, args.devices,
                      horizon=base.wall_seconds, start=t_start,
                      kinds=(args.kind,), busy_duration=busy_duration))
                 for i in range(args.random_plans)]
    else:
        victims = ([args.kill_stick] if args.kill_stick is not None
                   else list(range(args.devices)))
        plans = [(f"kill vpu{victim}",
                  FaultPlan.kill(
                      victim, kill_time, kind=args.kind,
                      duration=(busy_duration if args.kind == BUSY
                                else 0.0)))
                 for victim in victims]
    points = [rig + (timeout, plan) for _, plan in plans]
    if obs is None:
        runs = parallel_map(_chaos_point, points, jobs=args.jobs)
    else:
        runs = [_chaos_point(point, obs) for point in points]
    failed = False
    for (label, plan), res in zip(plans, runs):
        ok = res.images == args.images - res.abandoned
        failed = failed or not ok
        # Post-fault throughput over the survivors only.
        fault_time = min((f.at for f in plan.faults),
                         default=kill_time)
        after = [r for r in res.records if r.t_complete > fault_time]
        tput = ""
        if after:
            window = max(r.t_complete for r in after) - fault_time
            if window > 0:
                tput = (f" post-fault {len(after) / window:.1f} img/s "
                        f"({len(after) / window / baseline_tput:.0%} "
                        "of baseline)")
        print(f"  {label}: {'ok' if ok else 'LOST WORK'} | "
              f"{res.images}/{args.images} classified, "
              f"{res.reassigned} reassigned, {res.abandoned} "
              f"abandoned, {len(res.failures)} failure event(s)"
              + tput)
    _finish_trace(args, obs)
    if failed:
        print("chaos-run: FAILED (work lost without being abandoned)")
        return 1
    print("chaos-run: all victims survived with full accounting")
    return 0


# -- single-server serving ------------------------------------------------------

def _cmd_split_sweep(args: argparse.Namespace) -> int:
    """Map the split-placement design space of one device pairing."""
    from repro.split import (
        SplitPlanner,
        render_split_table,
        single_device_points,
    )

    specs = parse_backends(args.devices, "--devices")
    if len(specs) != 1 or specs[0].back is None:
        raise ConfigError(
            f"--devices: expected one <front>+<back> placement, got "
            f"{args.devices!r}")
    spec = specs[0]
    if args.smoke:
        from repro.nn.zoo import get_model
        from repro.vpu.compiler.compile import compile_graph
        network = get_model("googlenet-micro")
        graph = compile_graph(network)
    else:
        network = paper_timing_network()
        graph = paper_timing_graph()
    planner = SplitPlanner(network, graph=graph, front=spec.front,
                           back=spec.back, num_sticks=spec.sticks)
    plans = planner.sweep()
    if not plans:
        print(f"split-sweep: {network.name} has no valid cuts")
        return 1
    singles = single_device_points(network, graph,
                                   num_sticks=spec.sticks)
    print(render_split_table(plans, singles,
                             objective=args.objective), end="")
    return 0


def _serve_workload(args: argparse.Namespace):
    """Build the arrival process selected by --workload."""
    from repro.serve import (
        BurstyWorkload,
        DiurnalWorkload,
        PoissonWorkload,
        TraceWorkload,
    )

    if args.workload == "poisson":
        return PoissonWorkload(rate=args.rate, seed=args.seed)
    if args.workload == "bursty":
        burst = (args.burst_rate if args.burst_rate is not None
                 else 4.0 * args.rate)
        return BurstyWorkload(base_rate=args.rate, burst_rate=burst,
                              seed=args.seed)
    if args.workload == "diurnal":
        return DiurnalWorkload(peak_rate=args.rate,
                               period_s=args.period, seed=args.seed)
    # replay
    if args.replay is None:
        raise ConfigError("--workload replay needs --replay PATH")
    return TraceWorkload.from_file(args.replay)


def _serve_server(args: argparse.Namespace, specs, *, fault_plan=None,
                  call_timeout=None, obs=None):
    """An InferenceServer with one fresh target per backend token."""
    from repro.serve import InferenceServer

    server = InferenceServer(max_batch_size=args.max_batch,
                             policy=args.route, obs=obs,
                             **_serving_kwargs(args))
    for spec in specs:
        server.add_target(spec.token, _build_target(
            spec, fault_plan=fault_plan, call_timeout=call_timeout))
    return server


def _cmd_serve_run(args: argparse.Namespace) -> int:
    """One open-loop serving run with a full SLO report.

    With ``--kill-stick`` a healthy baseline runs first to locate the
    serving window, then the measured run fails that stick at
    ``--kill-at`` of the baseline's serving wall time — the serving
    analogue of ``chaos-run``.  Exits non-zero when nothing completes.
    """
    from repro.serve import render_slo_report

    # One target per distinct token: a repeated token names the same
    # backend.
    specs = list({s.token: s
                  for s in parse_backends(args.backends)}.values())
    workload = _serve_workload(args)
    _check_kill_at(args.kill_at)
    obs = _obs_from_args(args)

    fault_plan = None
    call_timeout = None
    if args.kill_stick is not None:
        from repro.ncsw import FaultPlan

        for spec in specs:
            if spec.is_vpu:
                _check_index("--kill-stick", args.kill_stick,
                             spec.sticks)
        base = _serve_server(args, specs).run(workload, args.requests)
        kill_time = (base.prepare_seconds
                     + args.kill_at * base.wall_seconds)
        fault_plan = FaultPlan.kill(args.kill_stick, kill_time,
                                    kind=args.kind)
        call_timeout = args.timeout
        print(f"baseline: {base.summary()}")
        print(f"chaos: kill stick {args.kill_stick} ({args.kind}) at "
              f"{kill_time * 1000:.2f} ms "
              f"(serving start + {args.kill_at:.0%} of wall)")
        print()

    result = _serve_server(args, specs, fault_plan=fault_plan,
                           call_timeout=call_timeout,
                           obs=obs).run(workload, args.requests)
    _print_report(args, obs, result, render_slo_report, workload)
    return 0 if result.completed > 0 else 1


def _sweep_point(args: argparse.Namespace, spec: BackendSpec):
    """Worker for one serve-sweep configuration.

    Estimates the closed-loop capacity, then bisects the maximum
    sustainable arrival rate.  Every probe builds a fresh server and
    reseeds the workload, so configurations are independent of each
    other and the sweep fans across processes without changing any
    probe's outcome.  Returns ``(capacity, SweepResult)``.
    """
    from repro.serve import PoissonWorkload, find_max_rate

    capacity, _ = _closed_loop_rate(spec)

    def run_at(rate: float):
        return _serve_server(args, [spec]).run(
            PoissonWorkload(rate=rate, seed=args.seed), args.requests)

    sweep = find_max_rate(run_at, slo_seconds=args.slo / 1000.0,
                          hi=2.0 * capacity, steps=args.steps,
                          label=spec.token)
    return capacity, sweep


def _print_sweeps(outcomes) -> None:
    from repro.serve import render_sweep_table

    for capacity, sweep in outcomes:
        print(f"{sweep.summary()} "
              f"(closed-loop capacity {capacity:.1f} img/s)")
    print()
    print(render_sweep_table([sweep for _, sweep in outcomes]))


def _cmd_serve_sweep(args: argparse.Namespace) -> int:
    """Bisect the max sustainable arrival rate per configuration.

    Each ``--configs`` token becomes one single-backend configuration
    (e.g. ``vpu1,vpu2,vpu4,vpu8`` sweeps the paper's stick scaling in
    the serving regime).  The starting bracket is twice the measured
    closed-loop throughput of each configuration.  ``--jobs N`` fans
    the configurations across processes; output is collected and
    printed in configuration order either way.
    """
    from functools import partial

    specs = parse_backends(args.configs, "--configs")
    _print_sweeps(parallel_map(partial(_sweep_point, args), specs,
                               jobs=args.jobs))
    return 0


# -- workflows ------------------------------------------------------------------

def _flow_coordinator(args: argparse.Namespace, wf, obs=None):
    """A FlowCoordinator wired from the workflow-* CLI flags."""
    from repro.flow import FlowCoordinator

    return FlowCoordinator(wf, seed=args.seed, obs=obs,
                           **_serving_kwargs(args))


def _cmd_workflow_run(args: argparse.Namespace) -> int:
    """One open-loop run of a built-in workflow DAG.

    Prints the compiled graph (groups, edges, fan-out regions), then
    the workflow report: per-stage serving tables, fan-out accounting
    and the workflow-level SLO roll-up.  Exits non-zero when nothing
    completes.
    """
    from repro.flow import build_workflow, render_workflow_report
    from repro.serve import PoissonWorkload

    if args.smoke:
        args.requests = min(args.requests, 40)
        args.rate = min(args.rate, 80.0)
        args.devices = min(args.devices, 2)

    kwargs = {"vpu_devices": args.devices}
    if args.workflow == "cascade" and args.stage_slo is not None:
        kwargs["stage_slo_seconds"] = args.stage_slo / 1000.0
    wf = build_workflow(args.workflow, args.scale, **kwargs)
    obs = _obs_from_args(args)
    workload = PoissonWorkload(rate=args.rate, seed=args.seed)
    result = _flow_coordinator(args, wf, obs=obs).run(
        workload, args.requests)
    print(wf.describe())
    print()
    _print_report(args, obs, result, render_workflow_report, workload,
                  alerts=False)
    return 0 if result.completed > 0 else 1


def _cmd_workflow_sweep(args: argparse.Namespace) -> int:
    """Cascade vs monolithic classify at matched offered rates.

    At each rate the same Poisson arrival process drives both the
    detect→crop→classify cascade and a single monolithic classify
    stage, so the table isolates what the extra pipeline stages cost
    (fan-out multiplies backend load; the join stretches the tail).
    """
    from repro.flow import build_workflow
    from repro.serve import PoissonWorkload

    if args.smoke:
        args.requests = min(args.requests, 30)
        if args.rates is None:
            args.rates = "20,40"
        args.devices = min(args.devices, 2)
    if args.rates is None:
        args.rates = "20,40,80"
    rates = _parse_list("--rates", args.rates, float)

    print(f"== cascade vs monolithic (scale {args.scale}, "
          f"{args.requests} workflows per point, SLO "
          f"{args.slo:.0f} ms) ==")
    print(f"{'rate wf/s':>9}  {'workflow':<12} {'done':>9} "
          f"{'sub-req':>7} {'p50 ms':>9} {'p99 ms':>9} "
          f"{'SLO att':>8} {'goodput':>8}")
    worst_loss = 0.0
    for rate in rates:
        for name in ("cascade", "monolithic"):
            wf = build_workflow(name, args.scale,
                                vpu_devices=args.devices)
            result = _flow_coordinator(args, wf).run(
                PoissonWorkload(rate=rate, seed=args.seed),
                args.requests)
            worst_loss = max(worst_loss, result.loss_rate)
            done = f"{result.completed}/{result.offered}"
            try:
                p50 = f"{result.p50 * 1000:9.3f}"
                p99 = f"{result.p99 * 1000:9.3f}"
            except ValueError:
                p50 = f"{'-':>9}"
                p99 = f"{'-':>9}"
            print(f"{rate:>9.1f}  {name:<12} {done:>9} "
                  f"{result.sub_requests_spawned:>7} {p50} {p99} "
                  f"{result.slo_attainment:>7.1%} "
                  f"{result.goodput:>8.2f}")
    print()
    print(f"worst-case workflow loss across the sweep: "
          f"{worst_loss:.1%}")
    return 0


# -- clusters -------------------------------------------------------------------

def _cluster_server(args: argparse.Namespace, hosts: int, specs, *,
                    host_faults=None, autoscaler=None, obs=None):
    """A ClusterServer over *hosts* fresh targets.

    Backend tokens cycle across the hosts, so ``--hosts 4
    --host-backends vpu2,cpu`` alternates VPU and CPU hosts.  Every
    host gets its own target instance — cluster hosts share nothing
    but the simulated interconnect.
    """
    from repro.cluster import ClusterServer

    targets = [_build_target(specs[i % len(specs)])
               for i in range(hosts)]
    return ClusterServer(
        targets,
        window=args.window,
        spill_threshold=args.spill_threshold,
        max_batch_size=args.max_batch,
        host_faults=host_faults,
        autoscaler=autoscaler,
        obs=obs,
        **_serving_kwargs(args))


def _cmd_cluster_run(args: argparse.Namespace) -> int:
    """One sharded cluster serving run with a full roll-up report.

    With ``--kill-host`` a healthy baseline runs first to locate the
    serving window, then the measured run kills that whole rank at
    ``--kill-at`` of the baseline's serving wall time — the cluster
    analogue of ``serve-run --kill-stick``, except an entire host
    (channel, queue, batcher, backends) dies and its owned requests
    re-shard to the survivors.  Exits non-zero when nothing completes.
    """
    from repro.cluster import render_cluster_report
    from repro.serve import PoissonWorkload

    specs = parse_backends(args.host_backends, "--host-backends")
    _check_kill_at(args.kill_at)
    if args.kill_host is not None:
        _check_index("--kill-host", args.kill_host, args.hosts)
    workload = PoissonWorkload(rate=args.rate, seed=args.seed)
    obs = _obs_from_args(args)

    host_faults = None
    if args.kill_host is not None:
        from repro.ncsw import FaultPlan

        base = _cluster_server(args, args.hosts, specs).run(
            workload, args.requests)
        kill_time = (base.prepare_seconds
                     + args.kill_at * base.wall_seconds)
        host_faults = FaultPlan.kill(args.kill_host, kill_time)
        print(f"baseline: {base.summary()}")
        print(f"chaos: kill host {args.kill_host} (whole rank "
              f"{args.kill_host + 1}) at {kill_time * 1000:.2f} ms "
              f"(serving start + {args.kill_at:.0%} of wall)")
        print()

    result = _cluster_server(args, args.hosts, specs,
                             host_faults=host_faults,
                             obs=obs).run(workload, args.requests)
    _print_report(args, obs, result, render_cluster_report, workload)
    return 0 if result.completed > 0 else 1


def _cluster_sweep_point(args: argparse.Namespace, specs, hosts: int):
    """Worker for one cluster-sweep host count.

    The bracket is twice the summed closed-loop capacity of the host
    targets (each unique backend token measured once).  Every probe
    builds a fresh cluster and reseeds the workload, mirroring
    ``serve-sweep``'s independence contract, so host counts fan
    across processes without changing any probe's outcome.  Returns
    ``(capacity, SweepResult)``.
    """
    from repro.serve import PoissonWorkload, find_max_rate

    per_token: dict[str, float] = {}
    capacity = 0.0
    for i in range(hosts):
        spec = specs[i % len(specs)]
        if spec.token not in per_token:
            per_token[spec.token] = _closed_loop_rate(spec)[0]
        capacity += per_token[spec.token]

    def run_at(rate: float):
        return _cluster_server(args, hosts, specs).run(
            PoissonWorkload(rate=rate, seed=args.seed), args.requests)

    sweep = find_max_rate(run_at, slo_seconds=args.slo / 1000.0,
                          hi=2.0 * capacity, steps=args.steps,
                          label=f"hosts={hosts}")
    return capacity, sweep


def _cmd_cluster_sweep(args: argparse.Namespace) -> int:
    """Max sustainable arrival rate per cluster size.

    The cluster analogue of ``serve-sweep``: each ``--hosts`` count
    becomes one sharded-cluster configuration and the sweep bisects
    its maximum sustainable arrival rate under the shared SLO — the
    hosts-scaling curve (how close does N hosts get to N times one
    host's rate).  ``--smoke`` shrinks everything to CI size.
    """
    from functools import partial

    specs = parse_backends(args.host_backends, "--host-backends")
    if args.smoke:
        args.requests = min(args.requests, 96)
        args.steps = min(args.steps, 3)
        if args.hosts is None:
            args.hosts = "1,2"
    if args.hosts is None:
        args.hosts = "1,2,4,8"
    counts = _parse_list("--hosts", args.hosts, int)
    if any(n < 1 for n in counts):
        raise ConfigError(
            f"--hosts: host counts must be >= 1, got {args.hosts!r}")
    _print_sweeps(parallel_map(partial(_cluster_sweep_point, args,
                                       specs), counts, jobs=args.jobs))
    return 0


def _autoscale_setup(args: argparse.Namespace):
    """Shared autoscale-run/-sweep setup: the backend specs, the
    diurnal day trace and the per-host capacity estimate of the first
    ``--host-backends`` token.  Returns ``(specs, workload, host_rate,
    floor_s)`` — the last is the per-request service-latency floor
    (one calibration batch) the fluid model attributes to every
    completion."""
    from repro.serve import DiurnalWorkload

    if args.smoke:
        args.requests = min(args.requests, 120)
        args.pool = min(args.pool, 3)
    if args.pool < 1:
        raise ConfigError(f"--pool: need at least 1 slot, got "
                          f"{args.pool}")
    specs = parse_backends(args.host_backends, "--host-backends")
    host_rate, batch = _closed_loop_rate(specs[0])
    peak = (args.peak_rate if args.peak_rate is not None
            else 2.5 * host_rate)
    workload = DiurnalWorkload(peak_rate=peak, period_s=args.period,
                               floor_frac=args.floor, seed=args.seed)
    return specs, workload, host_rate, batch / host_rate


def _fluid_cluster(args: argparse.Namespace, workload,
                   host_rate: float, floor_s: float, *,
                   pool: int, autoscaler=None):
    """Build the hybrid fluid model mirroring the DES campaign args."""
    from repro.sim.fluid import FluidCluster

    return FluidCluster(
        workload, host_rate=host_rate, pool=pool,
        autoscaler=autoscaler,
        slo_seconds=args.slo / 1000.0,
        service_floor_s=floor_s,
        seed=args.seed)


def _autoscaler_from_args(args: argparse.Namespace, workload,
                          host_rate: float, kind: str):
    from repro.cluster import (
        Autoscaler,
        PredictivePolicy,
        ReactivePolicy,
    )

    if kind == "predictive":
        policy = PredictivePolicy(workload, host_rate=host_rate,
                                  lead_s=args.lead / 1000.0,
                                  utilization=args.utilization)
    else:
        policy = ReactivePolicy(high_water=args.high_water,
                                low_water=args.low_water)
    max_hosts = args.max_hosts if args.max_hosts is not None \
        else args.pool
    return Autoscaler(policy,
                      min_hosts=args.min_hosts,
                      max_hosts=max_hosts,
                      interval_s=args.interval / 1000.0,
                      cooldown_s=args.cooldown / 1000.0,
                      warm_pool=args.warm_pool)


def _cmd_autoscale_run(args: argparse.Namespace) -> int:
    """One elastic cluster run over a diurnal day trace.

    A pool of ``--pool`` host slots sits behind the frontend; the
    chosen policy (reactive by default) scales the live set against
    the modelled day.  Exits non-zero when any request was lost —
    elastic scaling must never drop work.
    """
    from repro.cluster import render_cluster_report

    specs, workload, host_rate, floor_s = _autoscale_setup(args)
    if args.fluid or args.fluid_gate:
        return _autoscale_run_fluid(args, specs, workload, host_rate,
                                    floor_s)
    autoscaler = _autoscaler_from_args(args, workload, host_rate,
                                       args.policy)
    obs = _obs_from_args(args)
    result = _cluster_server(args, args.pool, specs,
                             autoscaler=autoscaler,
                             obs=obs).run(workload, args.requests)
    print(f"policy: {autoscaler.policy.describe()} "
          f"(~{host_rate:.1f} req/s/host closed loop)")
    print()
    _print_report(args, obs, result, render_cluster_report, workload)
    lost = result.offered - result.completed
    if lost:
        print()
        print(f"LOST {lost} requests across scale events")
    return 0 if result.completed > 0 and lost == 0 else 1


def _autoscale_run_fluid(args: argparse.Namespace, specs, workload,
                         host_rate: float, floor_s: float) -> int:
    """Hybrid fluid run of the elastic day (``--fluid``).

    ``--fluid-gate`` additionally runs the pure-DES cluster on the
    same configuration and asserts fluid/DES agreement; the command
    exits non-zero when the equivalence gate fails.
    """
    from repro.sim.fluid import equivalence_gate

    autoscaler = _autoscaler_from_args(args, workload, host_rate,
                                       args.policy)
    fluid = _fluid_cluster(args, workload, host_rate, floor_s,
                           pool=args.pool,
                           autoscaler=autoscaler).run(args.requests)
    print(f"policy: {autoscaler.policy.describe()} "
          f"(~{host_rate:.1f} req/s/host closed loop)")
    print(f"fluid: {fluid.summary()}")
    print(f"scale events: {len(fluid.scale_events)}")
    if not args.fluid_gate:
        return 0
    des_autoscaler = _autoscaler_from_args(args, workload, host_rate,
                                           args.policy)
    result = _cluster_server(
        args, args.pool, specs,
        autoscaler=des_autoscaler).run(workload, args.requests)
    print(f"des:   {result.summary()}")
    print()
    report = equivalence_gate(fluid, result)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_autoscale_sweep(args: argparse.Namespace) -> int:
    """The cost-vs-SLO frontier: elastic policies vs fixed-N.

    Runs the same diurnal day trace through every fixed host count
    (1..pool) and both autoscale policies, then renders host-seconds
    against SLO attainment — the economics table: how much capacity
    does tracking the day shape save at equal service quality.
    """
    from repro.cluster import cost_point, render_cost_table

    specs, workload, host_rate, floor_s = _autoscale_setup(args)
    print(f"calibrated: ~{host_rate:.1f} req/s/host closed-loop "
          f"capacity, day peak {workload.peak_rate:.4g} req/s")

    def run(label: str, pool: int, autoscaler=None) -> None:
        if args.fluid:
            result = _fluid_cluster(
                args, workload, host_rate, floor_s, pool=pool,
                autoscaler=autoscaler).run(args.requests)
        else:
            result = _cluster_server(
                args, pool, specs,
                autoscaler=autoscaler).run(workload, args.requests)
        points.append(cost_point(label, result))
        print(f"{label}: {result.summary()}")

    points = []
    for n in range(1, args.pool + 1):
        run(f"fixed-{n}", n)
    for kind in ("reactive", "predictive"):
        run(kind, args.pool,
            _autoscaler_from_args(args, workload, host_rate, kind))
    print()
    print(render_cost_table(points, slo_seconds=args.slo / 1000.0))
    return 0


# -- offline analysis and perf --------------------------------------------------

def _cmd_trace_analyze(args: argparse.Namespace) -> int:
    """Offline analysis of a recorded metrics JSONL dump.

    Loads a file written by ``serve-run --metrics`` / ``cluster-run
    --metrics`` (or :func:`repro.obs.write_metrics_jsonl` directly)
    and prints the windowed timeline, per-request waterfalls, and the
    burn-rate / anomaly alerts recomputed from the recorded events —
    no re-simulation required.
    """
    from repro.obs import (
        burn_rate_alerts,
        dead_rank_alerts,
        default_policy,
        load_metrics_jsonl,
        outcomes_from_traces,
        queue_slope_alerts,
        render_alerts,
        render_timeline,
        render_waterfall,
    )

    session = load_metrics_jsonl(args.path)
    width = args.window / 1000.0
    timeline = render_timeline(session, width=width)
    extent = session.tracer.extent
    traces = session.reqtrace.traces()
    print(f"trace analysis of {args.path}")
    print(f"  extent : {extent * 1000:.1f} ms simulated")
    print(f"  traces : {len(traces)} sampled requests")
    print()
    print(timeline)
    shown = 0
    for trace in traces:
        if shown >= args.waterfalls:
            break
        if trace.completed:
            print()
            print(render_waterfall(session.reqtrace, trace.trace_id))
            shown += 1
    alerts = []
    policy = None
    if traces and extent > 0:
        policy = default_policy(extent)
        outcomes = outcomes_from_traces(session.reqtrace,
                                        args.slo / 1000.0)
        alerts.extend(burn_rate_alerts(outcomes, extent, policy))
    if extent > 0:
        alerts.extend(queue_slope_alerts(session, width=width,
                                         end=extent))
    alerts.extend(dead_rank_alerts(session))
    alerts.sort(key=lambda a: (a.at, a.kind, a.metric))
    print()
    print(render_alerts(alerts, policy=policy))
    return 0


def _cmd_perf_run(args: argparse.Namespace) -> int:
    """Time the wall-clock perf suite; write and/or check BENCH json.

    ``--check FILE`` is the CI regression gate: the fresh numbers are
    compared against the committed file after rescaling for machine
    speed, and any workload more than ``--tolerance`` slower fails
    the command.
    """
    from repro.harness import perf

    mode = "smoke" if args.smoke else "full"
    samples = perf.run_suite(mode)
    baseline = (perf.load_bench(args.baseline)
                if args.baseline else None)
    print(perf.render_perf_table(
        samples, (baseline or {}).get("modes"), mode=mode))
    if args.out:
        modes = {mode: samples}
        other = "smoke" if mode == "full" else "full"
        modes[other] = perf.run_suite(other)
        path = perf.write_bench(args.out, modes, baseline=baseline)
        print(f"wrote {path}")
    if args.check:
        committed = perf.load_bench(args.check)
        failures = perf.check_regression(
            samples, committed, mode=mode, tolerance=args.tolerance)
        if failures:
            for line in failures:
                print(f"PERF REGRESSION: {line}")
            return 1
        print(f"perf check passed (mode={mode}, tolerance "
              f"{args.tolerance:.0%})")
    return 0


# -- parser ---------------------------------------------------------------------

_ADMISSION = ["block", "shed-oldest", "reject-newest"]
_FAULT_KINDS = ["death", "hang", "thermal", "busy"]


def _serving_options(*, max_batch: bool = True
                     ) -> argparse.ArgumentParser:
    """The serving parent: queueing, batching and SLO flags.

    Built fresh per subcommand — argparse parents share their action
    objects, so one instance would let a subcommand's ``set_defaults``
    leak into every other subcommand built from it.
    """
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--requests", type=int, default=200,
                   help="requests per run (default %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed (same seed -> byte-identical run)")
    p.add_argument("--slo", type=float, default=500.0, metavar="MS",
                   help="p99 end-to-end latency objective in ms "
                        "(default %(default)s)")
    p.add_argument("--deadline", type=float, default=None, metavar="MS",
                   help="per-request queue deadline in ms (default: "
                        "none)")
    p.add_argument("--queue-depth", type=int, default=64,
                   help="admission queue bound per queue (default 64)")
    p.add_argument("--admission", default="reject-newest",
                   choices=_ADMISSION,
                   help="overload policy at the admission queue")
    if max_batch:
        p.add_argument("--max-batch", type=int, default=None,
                       help="batch size cap (default: backend "
                            "preference)")
    p.add_argument("--max-wait", type=float, default=2.0, metavar="MS",
                   help="dynamic batcher window in ms (default 2)")
    p.add_argument("--warmup", type=int, default=0,
                   help="leading completions excluded from latency "
                        "stats")
    return p


def _cluster_options() -> argparse.ArgumentParser:
    """The serving parent plus the cluster fabric flags."""
    p = argparse.ArgumentParser(add_help=False,
                                parents=[_serving_options()])
    p.add_argument("--host-backends", default="vpu2", metavar="SPEC",
                   help="comma list of per-host backend tokens, cycled "
                        "across hosts (default vpu2)")
    p.add_argument("--window", type=int, default=8,
                   help="per-shard stream window (default 8)")
    p.add_argument("--spill-threshold", type=int, default=None,
                   metavar="N",
                   help="outstanding requests before a shard spills to "
                        "the least-loaded host (default: window + queue "
                        "depth)")
    return p


def _flow_options() -> argparse.ArgumentParser:
    """The serving parent (no batch cap) plus the workflow flags."""
    p = argparse.ArgumentParser(
        add_help=False, parents=[_serving_options(max_batch=False)])
    p.add_argument("--scale", default="micro", choices=["micro", "mini"],
                   help="workflow model scale (default micro)")
    p.add_argument("--devices", type=int, default=4,
                   help="NCS sticks behind each VPU stage (default 4)")
    p.add_argument("--smoke", action="store_true",
                   help="CI-sized run (40 workflows, 2 sticks)")
    return p


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func: Callable, help: str,
                parents: Sequence[argparse.ArgumentParser] = (),
                **defaults) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, description=help,
                           parents=list(parents))
        p.set_defaults(func=func, **defaults)
        return p

    trace = argparse.ArgumentParser(add_help=False)
    trace.add_argument("--trace", default=None, metavar="PATH",
                       help="record a Perfetto trace_event JSON here and "
                            "print the utilisation report")
    obs = argparse.ArgumentParser(add_help=False, parents=[trace])
    obs.add_argument("--metrics", default=None, metavar="PATH",
                     help="dump the metric/trace events as JSONL for "
                          "offline trace-analyze")
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="fan independent runs across N processes "
                           "(results identical to --jobs 1; tracing and "
                           "jitter keep the run serial)")

    # ``sub.choices`` fills in as the commands below register.
    command("list", _cmd_list, "list the available commands",
            commands=sub.choices)

    common = argparse.ArgumentParser(add_help=False,
                                     parents=[trace, jobs])
    common.add_argument("--images", type=int, default=160,
                        help="timing images per measurement")
    common.add_argument("--scale", default="default",
                        help="functional scale: smoke|default|paper")
    common.add_argument("--json-dir", default=None,
                        help="also save each figure as JSON here")
    for name, (desc, _) in _FIGURES.items():
        command(name, _cmd_figure, desc, [common])
    command("headline", _cmd_headline,
            "headline paper-vs-measured table", [common])
    report = command("report", _cmd_report, "regenerate everything",
                     [common])
    report.add_argument("--markdown", default=None,
                        help="write the full report as markdown here")
    command("audit", _cmd_audit, "verify every quantitative claim",
            [common])

    profile = command("profile", _cmd_profile,
                      "per-layer VPU timing report")
    profile.add_argument("--model", default="googlenet-mini")
    profile.add_argument("--shaves", type=int, default=12)
    profile.add_argument("--top", type=int, default=None)

    profile_run = command(
        "profile-run", _cmd_profile_run,
        "one instrumented run + per-device utilisation report", [trace])
    profile_run.add_argument(
        "--target", default="vpu8",
        choices=["cpu", "gpu", "vpu1", "vpu2", "vpu4", "vpu8"])
    profile_run.add_argument("--images", type=int, default=160)
    profile_run.add_argument("--batch", type=int, default=8)

    chaos = command(
        "chaos-run", _cmd_chaos_run,
        "seeded fault-injection sweep over the multi-VPU rig",
        [trace, jobs])
    chaos.add_argument("--devices", type=int, default=8,
                       help="NCS sticks to drive (1-8)")
    chaos.add_argument("--images", type=int, default=160)
    chaos.add_argument("--batch", type=int, default=8)
    chaos.add_argument("--kill-stick", type=int, default=None,
                       metavar="K",
                       help="fail only stick K (default: sweep all)")
    chaos.add_argument("--kill-at", type=float, default=0.5,
                       metavar="FRAC",
                       help="fault time as a fraction of the healthy "
                            "run's wall time (default 0.5)")
    chaos.add_argument("--kind", default="death", choices=_FAULT_KINDS)
    chaos.add_argument("--seed", type=int, default=0,
                       help="base seed for --random-plans schedules")
    chaos.add_argument("--random-plans", type=int, default=0,
                       metavar="N",
                       help="run N seeded random schedules instead of "
                            "the per-stick sweep")
    chaos.add_argument("--timeout", type=float, default=None,
                       help="per-call NCAPI deadline in seconds "
                            "(default: 4x the healthy max latency)")

    serve_run = command(
        "serve-run", _cmd_serve_run,
        "one open-loop serving run with a full SLO report",
        [_serving_options(), obs])
    serve_sweep = command(
        "serve-sweep", _cmd_serve_sweep,
        "bisect the max sustainable arrival rate per config",
        [_serving_options(), jobs])
    for p in (serve_run, serve_sweep):
        p.add_argument(
            "--route", default="round-robin",
            choices=["round-robin", "least-outstanding", "latency-ewma"],
            help="backend routing policy")
    serve_run.add_argument(
        "--backends", default="vpu8",
        help="comma list of backend tokens: cpu, gpu, vpuN or a split "
             "placement like vpu4+cpu (default vpu8)")
    serve_run.add_argument(
        "--workload", default="poisson",
        choices=["poisson", "bursty", "diurnal", "replay"])
    serve_run.add_argument(
        "--rate", type=float, default=50.0,
        help="arrival rate in req/s: poisson rate, bursty base rate, "
             "diurnal peak rate (default 50)")
    serve_run.add_argument(
        "--burst-rate", type=float, default=None,
        help="bursty peak rate (default: 4x --rate)")
    serve_run.add_argument(
        "--period", type=float, default=10.0,
        help="diurnal period in seconds (default 10)")
    serve_run.add_argument(
        "--replay", default=None, metavar="PATH",
        help="arrival-offsets file for --workload replay")
    serve_run.add_argument(
        "--kill-stick", type=int, default=None, metavar="K",
        help="fail VPU stick K mid-run (runs a baseline first)")
    serve_run.add_argument(
        "--kill-at", type=float, default=0.5, metavar="FRAC",
        help="fault time as a fraction of the baseline's serving "
             "wall time (default 0.5)")
    serve_run.add_argument("--kind", default="death",
                           choices=_FAULT_KINDS)
    serve_run.add_argument(
        "--timeout", type=float, default=0.5,
        help="per-call NCAPI deadline in s for chaos runs "
             "(default 0.5)")
    serve_sweep.add_argument(
        "--configs", default="vpu1,vpu2,vpu4,vpu8",
        help="comma list of backend tokens, one configuration each "
             "(default vpu1,vpu2,vpu4,vpu8)")
    serve_sweep.add_argument(
        "--steps", type=int, default=8,
        help="bisection steps per configuration (default 8)")

    split_sweep = command(
        "split-sweep", _cmd_split_sweep,
        "map the latency/throughput/energy frontier of every "
        "two-tier layer cut")
    split_sweep.add_argument(
        "--devices", default="vpu1+cpu",
        help="placement pair <front>+<back> with exactly one vpu "
             "side (default vpu1+cpu)")
    split_sweep.add_argument(
        "--objective", default="latency",
        choices=["latency", "throughput", "energy"],
        help="objective of the best-cut line (default latency)")
    split_sweep.add_argument(
        "--smoke", action="store_true",
        help="CI-sized model (googlenet-micro) instead of the "
             "paper network")

    cluster_run = command(
        "cluster-run", _cmd_cluster_run,
        "one sharded multi-host serving run with roll-up report",
        [_cluster_options(), obs], requests=300)
    cluster_run.add_argument(
        "--hosts", type=int, default=4,
        help="number of serving hosts / ranks (default 4)")
    cluster_run.add_argument(
        "--rate", type=float, default=100.0,
        help="Poisson arrival rate in req/s (default 100)")
    cluster_run.add_argument(
        "--kill-host", type=int, default=None, metavar="K",
        help="kill whole host K mid-run (runs a baseline first)")
    cluster_run.add_argument(
        "--kill-at", type=float, default=0.5, metavar="FRAC",
        help="kill time as a fraction of the baseline's serving "
             "wall time (default 0.5)")

    cluster_sweep = command(
        "cluster-sweep", _cmd_cluster_sweep,
        "max sustainable arrival rate per cluster size",
        [_cluster_options(), jobs], requests=300)
    cluster_sweep.add_argument(
        "--hosts", default=None, metavar="LIST",
        help="comma list of host counts to sweep "
             "(default 1,2,4,8; 1,2 with --smoke)")
    cluster_sweep.add_argument(
        "--steps", type=int, default=8,
        help="bisection steps per host count (default 8)")
    cluster_sweep.add_argument(
        "--smoke", action="store_true",
        help="CI-sized sweep (96 requests, 3 steps, hosts 1,2)")

    autoscale = argparse.ArgumentParser(add_help=False)
    autoscale.add_argument(
        "--pool", type=int, default=4, metavar="N",
        help="host slots the frontend may scale across (default 4)")
    autoscale.add_argument(
        "--peak-rate", type=float, default=None, metavar="RPS",
        help="diurnal peak arrival rate (default: 2.5x one host's "
             "closed-loop throughput)")
    autoscale.add_argument(
        "--period", type=float, default=2.0, metavar="S",
        help="diurnal period — one traffic day — in seconds "
             "(default 2)")
    autoscale.add_argument(
        "--floor", type=float, default=0.1, metavar="FRAC",
        help="overnight trough as a fraction of peak (default 0.1)")
    autoscale.add_argument(
        "--min-hosts", type=int, default=1,
        help="autoscaler floor (default 1)")
    autoscale.add_argument(
        "--max-hosts", type=int, default=None,
        help="autoscaler ceiling (default: the pool size)")
    autoscale.add_argument(
        "--interval", type=float, default=20.0, metavar="MS",
        help="autoscaler tick interval in ms (default 20)")
    autoscale.add_argument(
        "--cooldown", type=float, default=50.0, metavar="MS",
        help="minimum gap between scale actions in ms (default 50)")
    autoscale.add_argument(
        "--warm-pool", type=int, default=1, metavar="N",
        help="idle slots kept pre-initialised (default 1)")
    autoscale.add_argument(
        "--high-water", type=float, default=4.0, metavar="N",
        help="reactive: per-host outstanding before scale-out "
             "(default 4)")
    autoscale.add_argument(
        "--low-water", type=float, default=1.0, metavar="N",
        help="reactive: per-host outstanding after removal that "
             "permits scale-in (default 1)")
    autoscale.add_argument(
        "--lead", type=float, default=100.0, metavar="MS",
        help="predictive: pre-warm lead time in ms (default 100)")
    autoscale.add_argument(
        "--utilization", type=float, default=0.7, metavar="FRAC",
        help="predictive: target per-host utilisation (default 0.7)")
    autoscale.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run (120 requests, pool of 3)")
    autoscale.add_argument(
        "--fluid", action="store_true",
        help="hybrid fluid/DES model instead of per-request DES "
             "(million-user days in milliseconds; see DESIGN.md "
             "section 16 for the validity envelope)")

    autoscale_run = command(
        "autoscale-run", _cmd_autoscale_run,
        "one elastic cluster run over a diurnal day trace",
        [_cluster_options(), autoscale, obs], requests=300)
    autoscale_run.add_argument(
        "--policy", default="reactive",
        choices=["reactive", "predictive"],
        help="scale policy (default reactive)")
    autoscale_run.add_argument(
        "--fluid-gate", action="store_true",
        help="run BOTH the fluid model and the pure-DES cluster, "
             "print the equivalence gate, exit non-zero on "
             "disagreement")
    command("autoscale-sweep", _cmd_autoscale_sweep,
            "cost-vs-SLO frontier: elastic policies vs fixed-N",
            [_cluster_options(), autoscale], requests=300)

    workflow_run = command(
        "workflow-run", _cmd_workflow_run,
        "one multi-model workflow DAG run (cascade / ensemble / "
        "escalate) with per-stage + workflow SLO report",
        [_flow_options(), obs], requests=80, slo=800.0)
    workflow_run.add_argument(
        "--workflow", default="cascade",
        choices=["cascade", "ensemble", "escalate", "monolithic"],
        help="built-in workflow to run (default cascade)")
    workflow_run.add_argument(
        "--rate", type=float, default=40.0,
        help="Poisson arrival rate in workflows/s (default 40)")
    workflow_run.add_argument(
        "--stage-slo", type=float, default=None, metavar="MS",
        help="per-stage SLO in ms for the cascade's model stages "
             "(default: none)")
    workflow_sweep = command(
        "workflow-sweep", _cmd_workflow_sweep,
        "cascade vs monolithic classify at matched offered rates",
        [_flow_options()], requests=80, slo=800.0)
    workflow_sweep.add_argument(
        "--rates", default=None, metavar="LIST",
        help="comma list of offered rates in workflows/s "
             "(default 20,40,80; 20,40 with --smoke)")

    trace_analyze = command(
        "trace-analyze", _cmd_trace_analyze,
        "analyze a recorded metrics JSONL dump offline")
    trace_analyze.add_argument(
        "path", metavar="PATH",
        help="metrics JSONL file from serve-run/cluster-run "
             "--metrics")
    trace_analyze.add_argument(
        "--window", type=float, default=50.0, metavar="MS",
        help="timeline aggregation window in ms (default 50)")
    trace_analyze.add_argument(
        "--slo", type=float, default=500.0, metavar="MS",
        help="SLO threshold in ms for burn-rate analysis "
             "(default 500)")
    trace_analyze.add_argument(
        "--waterfalls", type=int, default=1, metavar="N",
        help="completed request waterfalls to print (default 1)")

    perf_run = command(
        "perf-run", _cmd_perf_run,
        "time the wall-clock perf suite; write / check BENCH_PR9.json")
    perf_run.add_argument(
        "--smoke", action="store_true",
        help="CI-sized workloads (seconds instead of a minute)")
    perf_run.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the measured BENCH json here (both modes)")
    perf_run.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="previously recorded BENCH file to embed in --out "
             "(adds before/after speedups)")
    perf_run.add_argument(
        "--check", default=None, metavar="PATH",
        help="compare against this committed BENCH file; exits "
             "non-zero on a regression beyond --tolerance")
    perf_run.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional wall-clock regression for --check "
             "(default 0.25)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code (0 ok, 1 run
    failed, 2 bad input)."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"repro {args.command}: {type(exc).__name__}: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
