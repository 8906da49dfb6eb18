"""The benchmark's four workloads.

Each workload makes its inputs from the seed, builds everything a user
would build before the first request (``setup``), then runs one *unit*
of work through a public entry point of the program (``unit``).  A unit
is deterministic for a seed: the simulated results of every repeat are
identical, and ``check`` verifies them before any metric is reported.

Simulated metrics (``sim_metrics``) describe the modelled system and
are read from the program's own results.  Layer metrics that a layer's
results expose (``layer_metrics``) complement the span-derived ones in
:mod:`tracing`.

Why each workload exists:

* ``serve_vpu8`` is the paper's multi-VPU configuration as a service:
  paper-scale GoogLeNet timing on 8 sticks, open-loop Poisson arrivals
  at 0.75 of the rig's closed-loop capacity.  Host time is dominated by
  the VPU chip model and the DES kernel.
* ``classify_precision`` runs real arithmetic: a seeded validation
  subset through FP32 on the CPU and FP16 on 8 sticks, each a
  closed-loop NCSw batch-8 campaign.  Its latency metrics come from
  the FP16 rig served open-loop, timing-only, because a closed-loop
  campaign's simulated latency does not depend on its inputs at all.
  Host time is dominated by the network layers.
* ``cluster_hetero`` overloads a 4-host heterogeneous cluster in
  bursts, with deadlines and one host killed mid-run: the only
  workload that reaches cluster, MPI and split serving.
* ``cascade`` is the detect -> crop -> classify workflow near its
  classify stage's capacity: the only workload that reaches the
  workflow engine.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Optional

import numpy as np

#: The paper's single-stick GoogLeNet latency (ms), Table/Fig. 6.
PAPER_VPU_LATENCY_MS = 100.7
#: Completions a unit must hold so that ten lie beyond its p99.
MIN_SAMPLES = 1000
#: Images of the timing-only paper-scale 8-stick campaign.
CAMPAIGN_IMAGES = 640


class CheckFailed(Exception):
    """An output of the program failed a correctness check."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def seeded_rng(seed: int, salt: str) -> np.random.Generator:
    digest = hashlib.sha256(f"perfbench:{salt}:{seed}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def poisson_offsets(rng: np.random.Generator, rate: float,
                    n: int) -> list[float]:
    """Open-loop Poisson arrivals at exactly ``rate``: *n* offsets
    spread uniformly over ``n / rate`` seconds, which is a Poisson
    process conditioned on its count.  Fixing the count fixes the
    offered load, so seeds differ in arrival pattern, not in rate."""
    return np.sort(rng.uniform(0.0, n / rate, n)).tolist()


def onoff_offsets(rng: np.random.Generator, n: int, base: float,
                  burst: float, quiet_s: float, burst_s: float
                  ) -> tuple[list[float], list[tuple[float, float]]]:
    """Bursty arrivals: quiet windows of ``quiet_s`` at ``base`` req/s
    alternate with bursts of ``burst_s`` at ``burst`` req/s, each window
    a Poisson process conditioned on its count.  Returns the offsets
    and the ``(start, end)`` of every burst."""
    out: list[float] = []
    bursts: list[tuple[float, float]] = []
    t, bursting = 0.0, False
    while len(out) < n:
        dwell = burst_s if bursting else quiet_s
        count = round((burst if bursting else base) * dwell)
        out.extend(np.sort(rng.uniform(t, t + dwell, count)).tolist())
        if bursting:
            bursts.append((t, t + dwell))
        t += dwell
        bursting = not bursting
    return out[:n], bursts


# -- outcome checks and metrics ----------------------------------------------
def check_exactly_once(requests: list, n: int, label: str) -> None:
    """Every generated request resolved exactly once, terminally."""
    from repro.serve.workload import TERMINAL_STATES

    ids = sorted(r.request_id for r in requests)
    check(ids == list(range(n)),
          f"{label}: {len(ids)} resolutions for {n} generated requests "
          "(each must resolve exactly once)")
    open_ = [r.request_id for r in requests
             if r.status not in TERMINAL_STATES]
    check(not open_, f"{label}: requests {open_[:5]} never resolved")


def latency_metrics(result: Any, min_samples: int) -> dict[str, float]:
    """Simulated end-to-end metrics, read from the program's result."""
    check(result.completed >= min_samples,
          f"only {result.completed} completions: p99 needs {min_samples}")
    return {
        "sim_p50_ms": result.p50 * 1e3,
        "sim_p99_ms": result.p99 * 1e3,
        "sim_goodput_rps": result.goodput,
        "served_share": result.completed / result.offered,
        "samples": float(result.completed),
    }


def paper_error_pct(service_seconds: list[float]) -> float:
    med_ms = float(np.median(service_seconds)) * 1e3
    return abs(med_ms - PAPER_VPU_LATENCY_MS) / PAPER_VPU_LATENCY_MS * 100.0


def closed_loop(source: Any, target: Any, batch_size: int = 8) -> Any:
    """One closed-loop NCSw campaign of *source* through *target*."""
    from repro.ncsw import NCSw

    fw = NCSw()
    fw.add_source("campaign", source)
    fw.add_target("target", target)
    return fw.run("campaign", "target", batch_size=batch_size)


def paper_probe_error_pct() -> float:
    """Error of a one-stick closed-loop run of paper-scale GoogLeNet
    against the paper latency, for workloads that serve other models."""
    from repro.harness.experiment import paper_timing_graph
    from repro.ncsw import IntelVPU, SyntheticSource

    run = closed_loop(SyntheticSource(8), IntelVPU(
        graph=paper_timing_graph(), num_devices=1, functional=False),
        batch_size=1)
    return paper_error_pct([r.latency for r in run.records])


def paper_campaign_img_per_s() -> float:
    """Simulated throughput of paper-scale GoogLeNet closed-loop on the
    8-stick rig at batch 8, the paper's multi-VPU configuration."""
    from repro.harness.experiment import paper_timing_graph
    from repro.ncsw import IntelVPU, SyntheticSource

    return closed_loop(SyntheticSource(CAMPAIGN_IMAGES), IntelVPU(
        graph=paper_timing_graph(), num_devices=8, functional=False)
        ).throughput()


def serve_layer_metrics(results: list) -> dict[str, float]:
    """Per-layer serve metrics from serving results (all stages/hosts)."""
    done = [r for res in results for r in res.completed_requests()]
    every = [r for res in results for r in res.requests]

    def pct_ms(values: list, q: float) -> float:
        values = [v for v in values if v is not None]
        return float(np.percentile(values, q)) * 1e3 if values else 0.0

    queue = [r.queue_wait for r in done]
    return {
        "serve.queue_wait_p50_ms": pct_ms(queue, 50),
        "serve.queue_wait_p99_ms": pct_ms(queue, 99),
        "serve.batch_wait_p50_ms": pct_ms([r.batch_wait for r in done], 50),
        "serve.service_p50_ms": pct_ms([r.service_seconds for r in done],
                                       50),
        "serve.mean_batch": (float(np.mean([r.batch_size for r in done]))
                             if done else 0.0),
        "serve.admit_ratio": (sum(1 for r in every
                                  if r.admitted_at is not None)
                              / len(every) if every else 0.0),
        "serve.redirects": float(sum(r.redirects for r in every)),
    }


#: Per-layer metrics read from the program's results; the others come
#: from spans.  A workload that never reaches a layer reports 0.
RESULT_METRICS = (
    "serve.queue_wait_p50_ms", "serve.queue_wait_p99_ms",
    "serve.batch_wait_p50_ms", "serve.service_p50_ms", "serve.mean_batch",
    "serve.admit_ratio", "serve.redirects", "cluster.sticky_ratio",
    "cluster.spilled", "cluster.resharded", "flow.spawned",
    "flow.join_wait_p99_ms", "flow.detect_batch", "flow.classify_batch",
)


# -- workloads -----------------------------------------------------------------
class Workload:
    name = ""
    why = ""
    #: Requests (or images) per unit.
    size = 0
    #: Items a warm-up unit runs (None: a full unit).
    warm_size: Optional[int] = None
    params: dict[str, Any] = {}
    min_samples = MIN_SAMPLES

    def __init__(self, size: Optional[int] = None) -> None:
        if size is not None:
            # Reduced units are for the self-test; their p99 rests on
            # fewer samples, so the sample floor does not apply.
            self.size, self.min_samples = size, 1
            if self.warm_size is not None:
                self.warm_size = min(self.warm_size, size)

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def unit(self, size: Optional[int] = None) -> Any:
        raise NotImplementedError

    def items(self, outcome: Any) -> int:
        """Completed items of a unit (the host-rate numerator)."""
        raise NotImplementedError

    def offered(self, outcome: Any) -> int:
        raise NotImplementedError

    def check(self, outcome: Any) -> None:
        raise NotImplementedError

    def sim_metrics(self, outcome: Any) -> dict[str, float]:
        """Simulated metrics: identical for every unit of one seed."""
        raise NotImplementedError

    def paper_error(self, outcome: Any) -> float:
        """``paper_latency_err_pct``: the default probes a one-stick
        paper-scale GoogLeNet, for workloads that serve other models."""
        return paper_probe_error_pct()

    def campaign_img_per_s(self, outcome: Any) -> float:
        """``sim_img_per_s``: the default runs paper-scale GoogLeNet
        closed-loop on 8 sticks, because an open-loop run's throughput
        only echoes its offered load."""
        return paper_campaign_img_per_s()

    def layer_metrics(self, outcome: Any) -> dict[str, float]:
        return {}


class Served(Workload):
    """A workload whose unit is one run of a serving entry point,
    ``self.server.run(TraceWorkload, n)``, over the seeded offsets."""

    server: Any = None

    def unit(self, size: Optional[int] = None) -> Any:
        from repro.serve import TraceWorkload

        self.generated = n = size or self.size
        return self.server.run(TraceWorkload(self.offsets[:n]), n)

    def items(self, outcome: Any) -> int:
        return outcome.completed

    def offered(self, outcome: Any) -> int:
        return outcome.offered

    def requests(self, outcome: Any) -> list:
        """Every request the run resolved."""
        return list(outcome.requests)

    def check(self, outcome: Any) -> None:
        check(outcome.offered == self.generated,
              f"{self.name}: offered {outcome.offered}, generated "
              f"{self.generated}")
        check_exactly_once(self.requests(outcome), self.generated,
                           self.name)

    def sim_metrics(self, outcome: Any) -> dict[str, float]:
        return latency_metrics(outcome, self.min_samples)


class ServeVPU8(Served):
    name = "serve_vpu8"
    why = ("paper's 8-stick GoogLeNet rig served open-loop at 0.75 of "
           "capacity; VPU chip model and DES kernel dominate host time")
    size = 3000
    #: 0.75 of the rig's closed-loop capacity (77.6 img/s, NCSw batch 8).
    rate = 58.2
    slo_s = 0.5
    params = {"requests": size, "arrivals": "poisson", "rate_rps": rate,
              "sticks": 8, "model": "googlenet (paper scale, timing)",
              "slo_ms": 500, "queue_depth": 64}

    def setup(self, seed: int) -> None:
        from repro.harness.experiment import paper_timing_graph
        from repro.ncsw import IntelVPU
        from repro.serve import InferenceServer

        self.offsets = poisson_offsets(seeded_rng(seed, self.name),
                                       self.rate, self.size)
        self.server = InferenceServer(slo_seconds=self.slo_s,
                                      queue_depth=64)
        self.server.add_target("vpu8", IntelVPU(
            graph=paper_timing_graph(), num_devices=8, functional=False))

    def paper_error(self, outcome: Any) -> float:
        return paper_error_pct([r.service_seconds
                                for r in outcome.completed_requests()])

    def layer_metrics(self, outcome: Any) -> dict[str, float]:
        return serve_layer_metrics([outcome])


class _ItemSource:
    """NCSw source over already-decoded work items."""

    name = "items"

    def __init__(self, items: list) -> None:
        self._items = items

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)


class ClassifyPrecision(Workload):
    name = "classify_precision"
    why = ("seeded validation subset through FP32 CPU and FP16 8-stick "
           "VPU, both functional; network layers dominate host time")
    size = 1000
    warm_size = 64
    #: The default scale's subset count, each subset 1000 images.
    subsets = 5
    #: 0.75 of the FP16 rig's closed-loop capacity (2053 img/s).
    rate = 1540.0
    slo_s = 0.02
    params = {"images": size, "scale": "default (googlenet-mini, 64 px)",
              "validation_subsets": subsets,
              "fp32": "IntelCPU, NCSw closed loop, batch 8, functional",
              "fp16": "IntelVPU 8 sticks, NCSw closed loop, batch 8, "
                      "functional",
              "fp16_served": "IntelVPU 8 sticks, timing-only, open loop",
              "arrivals": "poisson", "rate_rps": rate, "slo_ms": 20}

    def setup(self, seed: int) -> None:
        from repro.harness.experiment import SCALES, build_context
        from repro.ncsw import IntelCPU, IntelVPU
        from repro.serve import InferenceServer

        scale = dataclasses.replace(SCALES["default"],
                                    images_per_subset=self.size)
        self.ctx = build_context(scale)
        self.subset = int(seeded_rng(seed, self.name).integers(
            self.subsets))
        self.offsets = poisson_offsets(seeded_rng(seed, "fp16-arrivals"),
                                       self.rate, self.size)
        self.cpu = IntelCPU(self.ctx.network, functional=True)
        self.vpu8 = IntelVPU(graph=self.ctx.graph, num_devices=8,
                             functional=True)
        self.server = InferenceServer(slo_seconds=self.slo_s,
                                      queue_depth=64)
        self.server.add_target("vpu8", IntelVPU(
            graph=self.ctx.graph, num_devices=8, functional=False))

    def unit(self, size: Optional[int] = None) -> Any:
        """FP32 and FP16 campaigns over the subset, then the FP16 rig
        served open-loop for latency: a closed-loop campaign's simulated
        latency does not depend on its inputs, and serving latency does
        not depend on the arithmetic, so the served pass is timing-only."""
        from repro.ncsw import ImageFolder
        from repro.serve import TraceWorkload

        n = size or self.size
        folder = ImageFolder(self.ctx.dataset, self.subset,
                             self.ctx.preprocessor, limit=n)
        items = list(folder)
        fp32 = closed_loop(_ItemSource(items), self.cpu)
        fp16 = closed_loop(_ItemSource(items), self.vpu8)
        served = self.server.run(TraceWorkload(self.offsets[:n]), n)
        return items, fp32, fp16, served

    def items(self, outcome: Any) -> int:
        _, fp32, fp16, _ = outcome
        return fp32.images + fp16.images

    def offered(self, outcome: Any) -> int:
        items, _, _, served = outcome
        return 2 * len(items) + served.offered

    def check(self, outcome: Any) -> None:
        from repro.harness.claims import FUNCTIONAL_CLAIMS

        items, fp32, fp16, served = outcome
        n = len(items)
        for run, label in ((fp32, "fp32"), (fp16, "fp16")):
            check(run.images == n and sorted(r.index for r in run.records)
                  == list(range(n)), f"{label}: every image classified "
                  "once")
        check_exactly_once(served.requests, n, "fp16 served")
        check(served.completed == n, f"fp16 served: "
              f"{n - served.completed} images not served")
        labels = np.array([i.label for i in items])
        by_index = {r.index: r for r in fp32.records}
        p32 = np.array([by_index[i].predicted for i in range(n)])
        p16 = np.array([r.predicted for r in
                        sorted(fp16.records, key=lambda r: r.index)])
        err32 = float(np.mean(p32 != labels))
        err16 = float(np.mean(p16 != labels))
        check(abs(err32 - fp32.top1_error()) < 1e-12,
              "fp32 top-1 error disagrees with the run's own")
        # FP16 rounding may only swap near-ties: where the labels
        # differ, FP16 picked FP32's runner-up.
        swaps = [i for i in np.nonzero(p16 != p32)[0]
                 if by_index[i].topk[1] != p16[i]]
        check(not swaps, f"fp16 labels of images {swaps[:5]} are not "
              "fp32's top two")
        agree = float(np.mean(p16 == p32))
        if n >= MIN_SAMPLES:
            # The audit's tolerances: top-1 error within the claim's
            # relative band, FP16 moving it by at most one point; and
            # FP16 changes at most one label in a hundred.
            claim = {c.claim_id: c
                     for c in FUNCTIONAL_CLAIMS}["top1-error"]
            check(abs(err32 - claim.paper_value)
                  <= claim.rel_tolerance * claim.paper_value,
                  f"fp32 top-1 error {err32:.4f} outside the audit band")
            check(abs(err16 - err32) <= 0.01,
                  f"fp16 top-1 error {err16:.4f} vs fp32 {err32:.4f}")
            check(agree >= 0.99, f"fp16 labels agree with fp32 on only "
                  f"{agree:.2%} of images")
        self.last_accuracy = {"fp32_top1_err": err32,
                              "fp16_top1_err": err16, "agree": agree}

    def sim_metrics(self, outcome: Any) -> dict[str, float]:
        return latency_metrics(outcome[3], self.min_samples)

    def campaign_img_per_s(self, outcome: Any) -> float:
        """The functional FP16 campaign's own throughput."""
        return outcome[2].throughput()

    def layer_metrics(self, outcome: Any) -> dict[str, float]:
        return serve_layer_metrics([outcome[3]])


class ClusterHetero(Served):
    name = "cluster_hetero"
    why = ("4 heterogeneous hosts overloaded in bursts with deadlines and "
           "a host killed mid-run; only workload reaching cluster/mpi/split")
    size = 4000
    hosts = ("vpu4", "vpu4+cpu", "cpu", "gpu")
    base_rate, burst_rate = 80.0, 320.0
    quiet_s, burst_s = 1.0, 0.25
    deadline_s = 0.25
    slo_s = 0.5
    #: Outstanding requests before a shard spills to the least-loaded
    #: host: one CPU/GPU batch, so bursts spill.
    spill_threshold = 16
    kill_host = 2
    params = {"requests": size, "hosts": list(hosts),
              "arrivals": "on-off bursts", "base_rps": base_rate,
              "burst_rps": burst_rate, "quiet_s": quiet_s,
              "burst_s": burst_s, "deadline_ms": 250, "slo_ms": 500,
              "spill_threshold": spill_threshold,
              "kill": "host 2 (cpu) in the first burst past half the "
                      "arrival span"}

    def _targets(self) -> list:
        from repro.harness.experiment import (paper_timing_graph,
                                              paper_timing_network)
        from repro.ncsw import IntelCPU, IntelVPU, NvGPU
        from repro.split import build_split_target

        graph, net = paper_timing_graph(), paper_timing_network()
        return [IntelVPU(graph=graph, num_devices=4, functional=False),
                build_split_target(net, graph=graph, front="vpu",
                                   back="cpu", num_sticks=4,
                                   functional=False),
                IntelCPU(net, functional=False),
                NvGPU(net, functional=False)]

    def setup(self, seed: int) -> None:
        from repro.cluster import ClusterServer
        from repro.ncsw import FaultPlan
        from repro.serve import TraceWorkload

        self.offsets, bursts = onoff_offsets(
            seeded_rng(seed, self.name), self.size, self.base_rate,
            self.burst_rate, self.quiet_s, self.burst_s)
        targets = self._targets()
        # The serving epoch (simulated target preparation) does not
        # depend on the arrivals: one request locates it.
        epoch = ClusterServer(targets).run(
            TraceWorkload([0.0]), 1).prepare_seconds
        # Kill mid-burst, past half the arrival span, so the victim
        # holds queued work that must re-shard.
        half, last = 0.5 * self.offsets[-1], self.offsets[-1]
        start, end = next(((max(a, half), min(b, last))
                           for a, b in bursts if b > half), (half, half))
        self.kill_at = epoch + 0.5 * (start + end)
        self.server = ClusterServer(
            targets, slo_seconds=self.slo_s,
            deadline_seconds=self.deadline_s,
            spill_threshold=self.spill_threshold,
            host_faults=FaultPlan.kill(self.kill_host, self.kill_at))

    def requests(self, outcome: Any) -> list:
        return ([r for s in outcome.shards for r in s.result.requests]
                + list(outcome.abandoned_requests))

    def check(self, outcome: Any) -> None:
        super().check(outcome)
        check(len(outcome.failures) >= 1, "the host kill never fired")

    def paper_error(self, outcome: Any) -> float:
        # host0 is the vpu4 host, which serves paper-scale GoogLeNet.
        return paper_error_pct([r.service_seconds
                                for s in outcome.shards if s.name == "host0"
                                for r in s.result.completed_requests()])

    def layer_metrics(self, outcome: Any) -> dict[str, float]:
        out = serve_layer_metrics([s.result for s in outcome.shards])
        out["cluster.sticky_ratio"] = (1.0 - outcome.spilled
                                       / outcome.sharded
                                       if outcome.sharded else 0.0)
        out["cluster.spilled"] = float(outcome.spilled)
        out["cluster.resharded"] = float(outcome.resharded)
        return out


class Cascade(Served):
    name = "cascade"
    why = ("detect -> crop fan-out -> classify -> join workflow near the "
           "classify stage's capacity; only workload reaching flow")
    size = 4000
    #: 0.72 of the classify stage's capacity: 6928 crops/s (CPU,
    #: batch 16) over 2.26 crops per workflow.  Closer to capacity the
    #: p99 of 4000 workflows swings by a tenth between seeds.
    rate = 2200.0
    slo_s = 0.02
    params = {"workflows": size, "workflow": "cascade", "scale": "mini",
              "detect": "tinydet on 4 sticks",
              "classify": "googlenet-mini on CPU",
              "arrivals": "poisson", "rate_rps": rate, "slo_ms": 20}

    def setup(self, seed: int) -> None:
        from repro.flow import FlowCoordinator, build_workflow

        self.offsets = poisson_offsets(seeded_rng(seed, self.name),
                                       self.rate, self.size)
        self.server = FlowCoordinator(
            build_workflow("cascade", "mini", vpu_devices=4), seed=seed,
            slo_seconds=self.slo_s)

    def check(self, outcome: Any) -> None:
        super().check(outcome)
        for region in outcome.fan_out:
            check(region.spawned == region.joined + region.abandoned,
                  f"fan-out {region.step}: {region.spawned} spawned, "
                  f"{region.joined} joined, {region.abandoned} abandoned")

    def layer_metrics(self, outcome: Any) -> dict[str, float]:
        out = serve_layer_metrics([s.result for s in outcome.stages])
        # A fan-out region's interval is labelled "<fanout>+<join>".
        joins = [t1 - t0 for r in outcome.completed_requests()
                 for label, t0, t1 in r.stage_intervals if "+" in label]
        out["flow.spawned"] = float(outcome.sub_requests_spawned)
        out["flow.join_wait_p99_ms"] = (
            float(np.percentile(joins, 99)) * 1e3 if joins else 0.0)
        for stage in ("detect", "classify"):
            done = outcome.stage(stage).result.completed_requests()
            out[f"flow.{stage}_batch"] = (
                float(np.mean([r.batch_size for r in done]))
                if done else 0.0)
        return out


WORKLOADS = {w.name: w for w in (ServeVPU8, ClassifyPrecision,
                                  ClusterHetero, Cascade)}
