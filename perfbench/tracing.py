"""Span tracing for the per-layer run, installed from outside the program.

The traced run wraps the synchronous public entry points of each layer
and :meth:`Environment.process`, so that every resumption of a DES
process becomes a span labelled with the package that defines the
process's generator.  Spans are kept in memory (flat arrays) and reduced
when the run ends: a span's self time is its duration minus the
durations of its direct children, so the self times of all spans sum
exactly to the root span.  The root span is the benchmark's own call
into the workload; its self time is the share no wrapper covers
(``trace.unattributed_pct``).

Events are counted from the kernel's sequence counter (``_seq``, which
:meth:`Environment.schedule` and every inlined fire site increment);
the tracer reads it at each span boundary, so the events a span
schedules are attributed to that span's layer exactly as its time is.
That counter is private to the kernel and is only read.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Optional

import numpy as np

#: Layers whose self time the traced run reports.  ``bench`` is the
#: root (the benchmark's own code); ``other`` holds every package not
#: listed here.
LAYERS = (
    "bench", "sim", "vpu", "ncs", "ncsw", "serve", "cluster", "mpi",
    "split", "flow", "nn.executor", "nn.conv", "nn.conv1x1",
    "nn.pool", "nn.lrn", "nn.other", "tensors", "numerics", "data",
    "baselines", "other",
)
_PACKAGE_LAYERS = {"sim", "vpu", "ncs", "ncsw", "serve", "cluster",
                   "mpi", "split", "flow", "nn", "tensors",
                   "numerics", "data", "baselines"}


def package_layer(filename: str) -> str:
    """Layer of a source file: the ``repro`` package that holds it."""
    parts = filename.replace("\\", "/").split("/")
    try:
        pkg = parts[len(parts) - 1 - parts[::-1].index("repro") + 1]
    except (ValueError, IndexError):
        return "other"
    if pkg == "nn":
        return "nn.executor"
    return pkg if pkg in _PACKAGE_LAYERS else "other"


class SpanTracer:
    """In-memory span recorder with exact self-time reduction."""

    def __init__(self) -> None:
        self.active = False
        self._lid = {name: i for i, name in enumerate(LAYERS)}
        self._code_layer: dict[Any, int] = {}
        self.envs: dict[int, Any] = {}
        self.counts: dict[str, float] = defaultdict(float)
        #: Objects the wrappers saw, for counters read after the run.
        self.seen: dict[str, dict[int, Any]] = defaultdict(dict)
        self._env: Optional[Any] = None
        self._base = 0
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counters (wrappers stay installed)."""
        self.layer = array("B")
        self.parent = array("l")
        self.t0 = array("q")
        self.t1 = array("q")
        self.e0 = array("q")
        self.e1 = array("q")
        self.stack: list[int] = []
        self.envs.clear()
        self.counts.clear()
        self.seen.clear()
        self._env = None
        self._base = 0

    # -- event counter ---------------------------------------------------
    def _events(self) -> int:
        env = self._env
        return self._base + (env._seq if env is not None else 0)

    def switch_env(self, env: Optional[Any]) -> Optional[Any]:
        """Make *env* the current environment; returns the previous
        one.  The global event counter stays continuous across the
        switch."""
        now = self._events()
        prev = self._env
        self._env = env
        self._base = now - (env._seq if env is not None else 0)
        if env is not None:
            self.envs[id(env)] = env
        return prev

    # -- spans -----------------------------------------------------------
    def layer_id(self, name: str) -> int:
        return self._lid[name]

    def code_layer(self, code: Any) -> int:
        lid = self._code_layer.get(code)
        if lid is None:
            lid = self._lid[package_layer(code.co_filename)]
            self._code_layer[code] = lid
        return lid

    def open(self, lid: int) -> int:
        idx = len(self.t0)
        stack = self.stack
        self.layer.append(lid)
        self.parent.append(stack[-1] if stack else -1)
        self.e0.append(self._events())
        self.e1.append(0)
        self.t1.append(0)
        stack.append(idx)
        self.t0.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.t1[idx] = time.perf_counter_ns()
        self.e1[idx] = self._events()
        self.stack.pop()

    # -- reduction -------------------------------------------------------
    def self_times(self) -> tuple[dict[str, float], dict[str, int],
                                  float]:
        """Per-layer self seconds, per-layer self events, root seconds.

        Raises when a span is left open or the self times do not sum
        to the root span (the accounting the per-layer table rests on).
        """
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} spans left open")
        n = len(self.t0)
        if n == 0:
            raise RuntimeError("no spans recorded")
        layer = np.frombuffer(self.layer, dtype=np.uint8).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.t1, dtype=np.int64)
               - np.frombuffer(self.t0, dtype=np.int64))
        ev = (np.frombuffer(self.e1, dtype=np.int64)
              - np.frombuffer(self.e0, dtype=np.int64))
        roots = parent < 0
        child = ~roots
        self_ns = dur - np.bincount(parent[child], weights=dur[child],
                                    minlength=n).astype(np.int64)
        self_ev = ev - np.bincount(parent[child], weights=ev[child],
                                   minlength=n).astype(np.int64)
        per_ns = np.bincount(layer, weights=self_ns, minlength=len(LAYERS))
        per_ev = np.bincount(layer, weights=self_ev, minlength=len(LAYERS))
        root_ns = int(dur[roots].sum())
        if int(per_ns.sum()) != root_ns:
            raise RuntimeError(
                f"self times sum to {int(per_ns.sum())} ns but the root "
                f"spans cover {root_ns} ns")
        seconds = {name: float(per_ns[i]) / 1e9
                   for i, name in enumerate(LAYERS)}
        events = {name: int(per_ev[i]) for i, name in enumerate(LAYERS)}
        return seconds, events, root_ns / 1e9

    def forward_accounting(self) -> tuple[float, float]:
        """(seconds in outermost ``Network.forward`` spans, seconds of
        nn/tensors/numerics self time inside them)."""
        n = len(self.t0)
        layer = np.frombuffer(self.layer, dtype=np.uint8)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.t1, dtype=np.int64)
               - np.frombuffer(self.t0, dtype=np.int64))
        compute = {self._lid[name] for name in LAYERS
                   if name.startswith("nn.")
                   or name in ("tensors", "numerics")}
        executor = self._lid["nn.executor"]
        inside = np.zeros(n, dtype=bool)
        outer = np.zeros(n, dtype=bool)
        # Spans are appended in open order, so a parent precedes its
        # children and one forward sweep propagates "inside a forward".
        for i in range(n):
            p = parent[i]
            if p >= 0 and inside[p]:
                inside[i] = True
            elif layer[i] == executor:
                inside[i] = outer[i] = True
        child = parent >= 0
        child_ns = np.bincount(parent[child], weights=dur[child],
                               minlength=n)
        self_ns = dur - child_ns
        in_compute = inside & np.isin(layer, list(compute))
        return (float(dur[outer].sum()) / 1e9,
                float(self_ns[in_compute].sum()) / 1e9)


# -- wrapper installation ----------------------------------------------------
def _wrap(tracer: SpanTracer, owner: Any, attr: str, layer: str,
          note: Optional[Callable[..., None]] = None,
          layer_of: Optional[Callable[..., str]] = None) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``note(args, result)`` records counters; ``layer_of(args)`` picks
    the span's layer per call (for layer types that share a class).
    """
    orig = getattr(owner, attr)
    lid = tracer.layer_id(layer)

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not tracer.active:
            return orig(*args, **kwargs)
        idx = tracer.open(lid if layer_of is None
                          else tracer.layer_id(layer_of(args)))
        try:
            result = orig(*args, **kwargs)
        finally:
            tracer.close(idx)
        if note is not None:
            note(args, result)
        return result

    wrapper.__wrapped__ = orig  # type: ignore[attr-defined]
    wrapper.__name__ = getattr(orig, "__name__", attr)
    setattr(owner, attr, wrapper)


def _traced_generator(tracer: SpanTracer, gen: Any, lid: int) -> Any:
    """Delegate to *gen*, recording one span per resumption."""
    value: Any = None
    exc: Optional[BaseException] = None
    while True:
        idx = tracer.open(lid)
        try:
            if exc is None:
                event = gen.send(value)
            else:
                event = gen.throw(exc)
        except StopIteration as stop:
            tracer.close(idx)
            return stop.value
        except BaseException:
            tracer.close(idx)
            raise
        tracer.close(idx)
        exc = None
        try:
            value = yield event
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as err:  # delivered into the process
            exc, value = err, None


def install(tracer: SpanTracer) -> None:
    """Install every wrapper.  Call before the first forward pass and
    before any DES process starts, so no cached plan or live process
    escapes the trace."""
    from repro.cluster.host import HostRank
    from repro.cluster.server import ClusterServer
    from repro.data.decode import JPEGDecoder
    from repro.data.preprocess import Preprocessor
    import repro.nn.concat, repro.nn.dropout, repro.nn.inner_product  # noqa: E401,F401
    import repro.nn.relu, repro.nn.softmax  # noqa: E401,F401
    from repro.flow.engine import FlowCoordinator
    from repro.flow.engine import _Stage as FlowStage
    from repro.mpi.comm import Communicator
    from repro.mpi.stream import StreamWindow
    from repro.ncs.ncapi import GraphHandle
    from repro.ncs.usb import USBTopology
    from repro.ncsw.targets import IntelVPU, _HostTarget
    from repro.nn.conv import Convolution
    from repro.nn.graph import Network
    from repro.nn.layer import Layer
    from repro.nn.lrn import LRN
    from repro.nn.pool import Pooling
    from repro.serve.batcher import DynamicBatcher
    from repro.serve.queue import AdmissionQueue
    from repro.serve.router import Backend, Router
    from repro.serve.server import InferenceServer
    from repro.sim.core import Environment
    from repro.split.target import SplitTarget
    from repro.vpu.myriad2 import Myriad2
    from repro.vpu.power_islands import PowerIslands

    # Package __init__ files re-export functions under the submodule
    # names, so fetch the modules themselves.
    quant = importlib.import_module("repro.numerics.quant")
    im2col_mod = importlib.import_module("repro.tensors.im2col")
    counts = tracer.counts
    seen = tracer.seen

    # sim: the kernel loop is a span; each process resumption is a span
    # of the package that defines its generator.
    orig_run = Environment.run
    sim_lid = tracer.layer_id("sim")

    def run(env: Any, until: Any = None) -> Any:
        if not tracer.active:
            return orig_run(env, until)
        prev = tracer.switch_env(env)
        idx = tracer.open(sim_lid)
        try:
            return orig_run(env, until)
        finally:
            tracer.close(idx)
            tracer.switch_env(prev)

    Environment.run = run  # type: ignore[method-assign]
    orig_process = Environment.process

    def process(env: Any, generator: Any) -> Any:
        if tracer.active:
            code = getattr(generator, "gi_code", None)
            if code is not None:
                generator = _traced_generator(
                    tracer, generator, tracer.code_layer(code))
        return orig_process(env, generator)

    Environment.process = process  # type: ignore[method-assign]

    def cancel_note(args: tuple, _result: Any) -> None:
        counts["sim.cancels"] += 1

    _wrap(tracer, Environment, "cancel", "sim", note=cancel_note)

    # nn: the executor and each layer type.
    def forward_note(args: tuple, _result: Any) -> None:
        counts["nn.forwards"] += 1

    _wrap(tracer, Network, "forward_with_blobs", "nn.executor",
          note=forward_note)
    _wrap(tracer, Convolution, "forward", "nn.conv",
          layer_of=lambda args: ("nn.conv1x1"
                                 if args[0].kernel_size == 1
                                 else "nn.conv"))
    _wrap(tracer, Pooling, "forward", "nn.pool")
    _wrap(tracer, LRN, "forward", "nn.lrn")
    for cls in Layer.__subclasses__():
        if cls not in (Convolution, Pooling, LRN) and \
                "forward" in vars(cls):
            _wrap(tracer, cls, "forward", "nn.other")

    # tensors: the im2col gather, looked up by conv2d_gemm at call time.
    def im2col_note(args: tuple, result: Any) -> None:
        counts["tensors.im2col_calls"] += 1
        counts["tensors.gather_bytes"] += result.nbytes

    _wrap(tracer, im2col_mod, "im2col", "tensors", note=im2col_note)

    # numerics: FP16 rounding as the precision policy calls it.
    def fp16_note(args: tuple, _result: Any) -> None:
        counts["numerics.fp16_calls"] += 1
        counts["numerics.fp16_bytes"] += np.asarray(args[0]).nbytes

    _wrap(tracer, quant, "round_fp16", "numerics", note=fp16_note)

    # data: decode and preprocess of validation images.
    def decode_note(args: tuple, _result: Any) -> None:
        counts["data.images"] += 1

    _wrap(tracer, JPEGDecoder, "decode", "data", note=decode_note)
    _wrap(tracer, Preprocessor, "__call__", "data")

    # ncsw: the TargetDevice batch entry of every target kind.
    def batch_note(args: tuple, _result: Any) -> None:
        counts["ncsw.batches"] += 1
        counts["ncsw.items"] += len(args[1])

    def split_batch_note(args: tuple, result: Any) -> None:
        batch_note(args, result)
        target = args[0]
        seen["split"][id(target)] = target
        counts[f"split.items.{id(target)}"] += len(args[1])

    for cls in (IntelVPU, _HostTarget):
        _wrap(tracer, cls, "process_batch", "ncsw", note=batch_note)
    _wrap(tracer, SplitTarget, "process_batch", "ncsw",
          note=split_batch_note)

    # ncs: NCAPI graph calls and the USB bytes they move.
    def ncs_note(args: tuple, event: Any) -> None:
        counts["ncs.calls"] += 1

        def failed(ev: Any) -> None:
            if not ev.ok:
                counts["ncs.failed"] += 1

        event.add_callback(failed)

    _wrap(tracer, GraphHandle, "load_tensor", "ncs", note=ncs_note)
    _wrap(tracer, GraphHandle, "get_result", "ncs", note=ncs_note)

    def usb_note(args: tuple, _result: Any) -> None:
        counts["ncs.usb_bytes"] += args[2]

    _wrap(tracer, USBTopology, "transfer", "ncs", note=usb_note)

    # vpu: inferences on the chip model and its power sampling.
    def inference_note(args: tuple, _result: Any) -> None:
        counts["vpu.inferences"] += 1
        chip = args[0]
        seen["chips"][id(chip)] = chip

    _wrap(tracer, Myriad2, "run_inference", "vpu", note=inference_note)

    def power_note(args: tuple, _result: Any) -> None:
        counts["vpu.power_samples"] += 1

    _wrap(tracer, PowerIslands, "current_power", "vpu", note=power_note)

    # serve, cluster, mpi, flow: entry points and per-request calls.
    _wrap(tracer, InferenceServer, "run", "serve")
    _wrap(tracer, AdmissionQueue, "offer", "serve")
    _wrap(tracer, Router, "dispatch", "serve")
    _wrap(tracer, Backend, "submit", "serve")
    _wrap(tracer, DynamicBatcher, "run", "serve")
    _wrap(tracer, ClusterServer, "run", "cluster")
    _wrap(tracer, FlowCoordinator, "run", "flow")
    # The callbacks through which serve components hand control back
    # to a cluster host or a workflow stage: without them that work
    # would count as serve's.
    for name in ("_complete", "_resolve_dropped"):
        _wrap(tracer, HostRank, name, "cluster")
    for name in ("_completed", "_dropped"):
        _wrap(tracer, FlowStage, name, "flow")

    def isend_note(args: tuple, _result: Any) -> None:
        comm = args[0]
        seen["comms"][id(comm)] = comm

    def push_note(args: tuple, _result: Any) -> None:
        stream = args[0]
        seen["streams"][id(stream)] = stream

    _wrap(tracer, Communicator, "isend", "mpi", note=isend_note)
    _wrap(tracer, StreamWindow, "push", "mpi", note=push_note)
    _wrap(tracer, StreamWindow, "pop", "mpi")


def traced(tracer: SpanTracer, fn: Callable[[], Any]) -> Any:
    """Run *fn* under the root ``bench`` span with tracing active."""
    tracer.reset()
    tracer.active = True
    idx = tracer.open(tracer.layer_id("bench"))
    try:
        return fn()
    finally:
        tracer.close(idx)
        tracer.active = False


def layer_table(tracer: SpanTracer) -> dict[str, float]:
    """Span- and counter-derived per-layer metrics of the last traced
    unit (result-derived metrics come from the workload)."""
    seconds, events, root_s = tracer.self_times()
    counts = tracer.counts
    total_events = sum(env._seq for env in tracer.envs.values())
    out: dict[str, float] = {
        "sim.self_s": seconds["sim"],
        "sim.events": float(total_events),
        "sim.us_per_event": (seconds["sim"] / total_events * 1e6
                             if total_events else 0.0),
        "sim.cancels": counts["sim.cancels"],
        "vpu.self_s": seconds["vpu"],
        "vpu.inferences": counts["vpu.inferences"],
        "vpu.events": float(events["vpu"]),
        "vpu.power_samples": counts["vpu.power_samples"],
        "ncs.self_s": seconds["ncs"],
        "ncs.calls": counts["ncs.calls"],
        "ncs.usb_mb": counts["ncs.usb_bytes"] / 1e6,
        "ncs.failed": counts["ncs.failed"],
        "ncsw.self_s": seconds["ncsw"],
        "ncsw.batches": counts["ncsw.batches"],
        "ncsw.mean_batch": (counts["ncsw.items"] / counts["ncsw.batches"]
                            if counts["ncsw.batches"] else 0.0),
        "serve.self_s": seconds["serve"],
        "cluster.self_s": seconds["cluster"],
        "mpi.self_s": seconds["mpi"],
        "split.self_s": seconds["split"],
        "flow.self_s": seconds["flow"],
        "nn.executor_s": seconds["nn.executor"],
        "nn.conv_s": seconds["nn.conv"],
        "nn.conv1x1_s": seconds["nn.conv1x1"],
        "nn.pool_s": seconds["nn.pool"],
        "nn.lrn_s": seconds["nn.lrn"],
        "nn.other_s": seconds["nn.other"],
        "nn.forwards": counts["nn.forwards"],
        "tensors.im2col_s": seconds["tensors"],
        "tensors.im2col_calls": counts["tensors.im2col_calls"],
        "tensors.gather_mb": counts["tensors.gather_bytes"] / 1e6,
        "numerics.fp16_s": seconds["numerics"],
        "numerics.fp16_calls": counts["numerics.fp16_calls"],
        "numerics.fp16_mb": counts["numerics.fp16_bytes"] / 1e6,
        "data.self_s": seconds["data"],
        "data.images": counts["data.images"],
        "baselines.self_s": seconds["baselines"],
        "other.self_s": seconds["other"],
        "trace.unattributed_pct": seconds["bench"] / root_s * 100.0,
    }
    chips = list(tracer.seen["chips"].values())
    out["vpu.shave_records"] = float(sum(
        s.kernels_run for chip in chips for s in chip.shaves))
    utils = [u for chip in chips for u in chip.shave_utilization()]
    out["vpu.shave_util"] = float(np.mean(utils)) if utils else 0.0
    out["mpi.messages"] = float(
        sum(c.messages_sent for c in tracer.seen["comms"].values())
        + sum(s.pushed for s in tracer.seen["streams"].values()))
    front = link = back = 0.0
    for key, target in tracer.seen["split"].items():
        items = counts[f"split.items.{key}"]
        front += items * target.plan.front_seconds
        link += items * target.plan.link_seconds
        back += items * target.plan.back_seconds
    out["split.front_busy_s"] = front
    out["split.link_busy_s"] = link
    out["split.back_busy_s"] = back
    return out
