"""Graph compilation: Network -> CompiledGraph -> graph file bytes.

Mirrors the NCSDK's ``mvNCCompile``: weights are quantised to FP16,
each layer gets a CMX tile plan, a SHAVE assignment and a cycle
estimate, and the result serialises to a binary blob whose magic
header the NCAPI validates on ``allocate_graph``.
"""

from __future__ import annotations

import io
import pickle
from dataclasses import dataclass, field

from repro.errors import CompileError, InvalidGraphFile, SimulationError
from repro.nn.graph import Network
from repro.numerics.quant import Precision, PrecisionPolicy
from repro.tensors.layout import BlobShape
from repro.units import cycles_to_seconds
from repro.vpu.compiler.schedule import ShaveAssignment, assign_shaves
from repro.vpu.compiler.tiling import TilePlan, plan_tiling
from repro.vpu.timing import LayerTiming, estimate_layer_cycles

#: Magic header of a compiled graph blob (version 2, like NCSDK 1.x's
#: graph file v2).
GRAPH_MAGIC = b"MVNCG002"


@dataclass(frozen=True)
class LayerSchedule:
    """Everything the device model needs to run/time one layer."""

    name: str
    type_name: str
    macs: int
    input_bytes: int
    output_bytes: int
    weight_bytes: int
    tile_plan: TilePlan
    assignment: ShaveAssignment
    timing: LayerTiming
    #: Name of an activation layer fused into this one (NCSDK fuses
    #: in-place ReLUs into the producing convolution).
    fused: str | None = None

    @property
    def total_cycles(self) -> int:
        """Total cycles including dispatch and memory overlap."""
        return self.timing.total_cycles


@dataclass(frozen=True)
class ExecutionSummary:
    """One inference of a compiled graph, folded ahead of time.

    A compiled graph's schedule is fixed, so everything the chip model
    used to accumulate layer by layer is known before the inference
    starts: the per-layer seconds (in schedule order, so that folding
    them from the start time reproduces the per-layer timeout chain
    float for float), and the integer counter increments the SHAVEs
    and the DMA engine are credited with when it completes.
    """

    #: Layer name -> seconds in schedule order (NCAPI ``TIME_TAKEN``);
    #: one entry per layer, since a network's layer names are unique.
    per_layer: dict[str, float]
    #: ``(busy_cycles, kernels_run)`` increment of SHAVE ``i``.
    shave_credits: tuple[tuple[int, int], ...]
    #: DDR<->CMX transfers of the layers that spill out of CMX.
    dma_transfers: int
    dma_bytes: int

    def finish_time(self, start: float) -> float:
        """Simulated time at which an inference started at *start*
        completes: ``((start + s1) + s2) + ...``, not ``start + sum``."""
        t = start
        for seconds in self.per_layer.values():
            t += seconds
        return t


def summarize_execution(layers: list[LayerSchedule], shaves: int,
                        freq_hz: float) -> ExecutionSummary:
    """Fold *layers* run on *shaves* SHAVEs at *freq_hz* into one
    :class:`ExecutionSummary`; raises :class:`SimulationError` for a
    negative cycle count, which no SHAVE can be credited with."""
    per_layer: dict[str, float] = {}
    busy = [0] * shaves
    runs = [0] * shaves
    transfers = 0
    nbytes = 0
    for sched in layers:
        per_layer[sched.name] = cycles_to_seconds(sched.total_cycles,
                                                  freq_hz)
        cycles = sched.timing.compute_cycles
        if cycles < 0 or sched.total_cycles < 0:
            raise SimulationError(
                f"layer {sched.name!r}: negative cycle count")
        for i in range(min(sched.assignment.shaves_used, shaves)):
            busy[i] += cycles
            runs[i] += 1
        if not sched.tile_plan.fits_cmx:
            transfers += 1
            nbytes += sched.tile_plan.ddr_traffic_bytes
    return ExecutionSummary(per_layer=per_layer,
                            shave_credits=tuple(zip(busy, runs)),
                            dma_transfers=transfers, dma_bytes=nbytes)


@dataclass
class CompiledGraph:
    """A compiled network graph (the NCSDK "graph file" content)."""

    name: str
    precision: Precision
    input_shape: BlobShape
    output_shape: BlobShape
    layers: list[LayerSchedule]
    network: Network = field(repr=False)
    freq_hz: float = 600e6
    num_shaves: int = 12
    _summaries: dict[tuple[int, float], ExecutionSummary] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def execution_summary(self, shaves: int,
                          freq_hz: float) -> ExecutionSummary:
        """The folded inference on *shaves* SHAVEs at *freq_hz*, built
        on first use and cached on the graph."""
        key = (shaves, freq_hz)
        summary = self._summaries.get(key)
        if summary is None:
            summary = summarize_execution(self.layers, shaves, freq_hz)
            self._summaries[key] = summary
        return summary

    def __getstate__(self) -> dict:
        # The summary cache is derived data: keep it out of graph files.
        state = dict(self.__dict__)
        state["_summaries"] = {}
        return state

    @property
    def total_cycles(self) -> int:
        """On-chip cycles for one inference (batch 1)."""
        return sum(l.total_cycles for l in self.layers)

    @property
    def inference_seconds(self) -> float:
        """On-chip time for one inference, excluding host transfer."""
        return self.total_cycles / self.freq_hz

    @property
    def input_tensor_bytes(self) -> int:
        """Bytes of one FP16 input tensor as shipped over USB."""
        return self.input_shape.count * self.precision.bytes_per_element

    @property
    def output_tensor_bytes(self) -> int:
        """Bytes of one FP16 result tensor."""
        return self.output_shape.count * self.precision.bytes_per_element

    @property
    def weight_bytes_total(self) -> int:
        """FP16 parameter bytes across all layers."""
        return sum(l.weight_bytes for l in self.layers)

    # -- graph file serialisation ------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialise to the binary graph-file format."""
        buf = io.BytesIO()
        buf.write(GRAPH_MAGIC)
        pickle.dump(self, buf, protocol=pickle.HIGHEST_PROTOCOL)
        return buf.getvalue()

    @staticmethod
    def from_bytes(blob: bytes) -> "CompiledGraph":
        """Parse a graph file; raises :class:`InvalidGraphFile`."""
        if not isinstance(blob, (bytes, bytearray)):
            raise InvalidGraphFile(
                f"graph blob must be bytes, got {type(blob).__name__}")
        if blob[:len(GRAPH_MAGIC)] != GRAPH_MAGIC:
            raise InvalidGraphFile("bad magic: not a compiled graph file")
        try:
            graph = pickle.loads(blob[len(GRAPH_MAGIC):])
        except Exception as exc:
            raise InvalidGraphFile(f"corrupt graph file: {exc}") from exc
        if not isinstance(graph, CompiledGraph):
            raise InvalidGraphFile("graph file payload has wrong type")
        return graph


def _fusable_relu_names(network: Network) -> dict[str, str]:
    """Map conv-layer name -> in-place ReLU name it can absorb.

    The NCSDK folds a plain in-place ReLU into the producing
    convolution's kernel epilogue: the clamp happens in registers
    before writeback, eliminating the separate dispatch and the extra
    CMX round-trip.
    """
    fusable: dict[str, str] = {}
    for prev, nxt in zip(network.layers, network.layers[1:]):
        if (prev.type_name() == "Convolution"
                and nxt.type_name() == "ReLU"
                and getattr(nxt, "negative_slope", 0.0) == 0.0
                and nxt.bottoms == [prev.tops[0]]
                and nxt.tops == nxt.bottoms):  # in-place
            fusable[prev.name] = nxt.name
    return fusable


def compile_graph(network: Network, *,
                  num_shaves: int = 12,
                  freq_hz: float = 600e6,
                  cmx_bytes: int | None = None,
                  ddr_bandwidth: float = 4e9,
                  fuse_relu: bool = True,
                  batch: int = 1) -> CompiledGraph:
    """Compile *network* for the Myriad 2 (always FP16, like the NCS).

    Parameters
    ----------
    network:
        The network to compile; weights must already be installed.
    num_shaves:
        SHAVEs available to the scheduler (the NCSDK exposes this; the
        SHAVE-scaling ablation sweeps it 1-12).
    freq_hz:
        Media clock frequency.
    cmx_bytes:
        Override the CMX capacity (defaults to the MA2450's 2 MiB).
    fuse_relu:
        Fold in-place ReLUs into the producing convolution (the
        NCSDK's fusion pass; disable for the fusion ablation).
    batch:
        Blob batch dimension (Caffe-style on-device batching — the
        alternative to the paper's multi-stick design; the batching
        ablation compares the two).
    """
    if num_shaves < 1:
        raise CompileError(f"num_shaves must be >= 1, got {num_shaves}")
    if batch < 1:
        raise CompileError(f"batch must be >= 1, got {batch}")
    if not network.layers:
        raise CompileError(f"network {network.name!r} has no layers")
    policy = PrecisionPolicy.fp16()
    bpe = policy.precision.bytes_per_element
    from repro.vpu.cmx import CMX_TOTAL_BYTES
    cmx = int(cmx_bytes if cmx_bytes is not None else CMX_TOTAL_BYTES)
    fusable = _fusable_relu_names(network) if fuse_relu else {}
    fused_relus = set(fusable.values())

    shapes = network.infer_shapes(batch=batch)
    schedules: list[LayerSchedule] = []
    for layer in network.layers:
        if layer.name in fused_relus:
            continue  # absorbed into the preceding convolution
        input_shapes = [shapes[b] for b in layer.bottoms]
        out_shapes = layer.output_shapes(input_shapes)
        tile = plan_tiling(layer, input_shapes, bpe, cmx)
        assignment = assign_shaves(layer, input_shapes, num_shaves)
        timing = estimate_layer_cycles(
            layer, input_shapes,
            shaves=assignment.shaves_used,
            freq_hz=freq_hz,
            bytes_per_element=bpe,
            ddr_streamed=not tile.fits_cmx,
            ddr_bandwidth=ddr_bandwidth)
        schedules.append(LayerSchedule(
            name=layer.name,
            type_name=layer.type_name(),
            macs=layer.macs(input_shapes),
            input_bytes=sum(s.count for s in input_shapes) * bpe,
            output_bytes=sum(s.count for s in out_shapes) * bpe,
            weight_bytes=layer.param_bytes(bpe),
            tile_plan=tile,
            assignment=assignment,
            timing=timing,
            fused=fusable.get(layer.name),
        ))

    in_shape = shapes[network.input_blob]
    out_shape = shapes[network.output_blob]
    return CompiledGraph(
        name=network.name,
        precision=policy.precision,
        input_shape=in_shape,
        output_shape=out_shape,
        layers=schedules,
        network=network,
        freq_hz=freq_hz,
        num_shaves=num_shaves,
    )
