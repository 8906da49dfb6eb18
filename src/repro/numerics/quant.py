"""Precision policies for network execution.

A :class:`PrecisionPolicy` tells the NN execution engine which dtype a
device computes in and where rounding happens.  The CPU/GPU baselines
use :meth:`PrecisionPolicy.fp32` (no rounding); the VPU path uses
:meth:`PrecisionPolicy.fp16`, which rounds weights once at graph-compile
time and every activation blob, so each holds binary16 values —
matching how the NCSDK compiler stores FP16 weights in the graph file
and the SHAVEs write FP16 activations back to CMX.  The executor rounds
each blob once: an output that only copies already-rounded values
(ReLU, MAX pooling, Concat, Dropout) is exact and is not rounded again.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.numerics.half import round_fp16


class Precision(enum.Enum):
    """Arithmetic precision of a device's inference datapath."""

    FP32 = "fp32"
    FP16 = "fp16"

    @property
    def dtype(self) -> np.dtype:
        """NumPy dtype of this precision."""
        return np.dtype(np.float32 if self is Precision.FP32
                        else np.float16)

    @property
    def bytes_per_element(self) -> int:
        """Storage bytes per tensor element."""
        return 4 if self is Precision.FP32 else 2


@dataclass(frozen=True)
class PrecisionPolicy:
    """How a device quantises tensors during inference.

    Attributes
    ----------
    precision:
        Nominal datapath precision.
    quantize_weights:
        Round parameters through binary16 when a graph is compiled for
        the device.
    quantize_activations:
        Each layer's output holds binary16 values before the next
        layer consumes it (rounded, unless it is already exact).
    accumulate_fp32:
        Inner products accumulate in FP32 even under FP16 storage —
        true for the Myriad 2 VAU, whose accumulators are wider than
        its storage format.  (NumPy float32 matmul provides this.)
    layer_filter:
        When set, quantisation applies only to layers whose names are
        in this set — the knob behind the per-layer precision
        ablation (which layers contribute the FP16 drift).  ``None``
        means every layer.
    quantize_input:
        Whether the network input blob is rounded at entry (the
        host-side FP16 conversion).  ``None`` keeps the historical
        derivation — quantise the input exactly when no
        ``layer_filter`` is set — while ``True``/``False`` override
        it.  Split execution needs the override: the front half of a
        cut network quantises its input like the monolithic run,
        while the back half must accept the cut blob exactly as the
        front produced it.
    """

    precision: Precision
    quantize_weights: bool
    quantize_activations: bool
    accumulate_fp32: bool = True
    layer_filter: frozenset[str] | None = None
    quantize_input: bool | None = None

    @staticmethod
    def fp32() -> "PrecisionPolicy":
        """Reference policy: everything in float32, no rounding."""
        return PrecisionPolicy(Precision.FP32, False, False)

    @staticmethod
    def fp16() -> "PrecisionPolicy":
        """Myriad 2 policy: FP16 storage, FP32 accumulation."""
        return PrecisionPolicy(Precision.FP16, True, True)

    @staticmethod
    def fp16_only(layers: frozenset[str] | set[str]) -> "PrecisionPolicy":
        """FP16 policy restricted to the named layers (ablation)."""
        return PrecisionPolicy(Precision.FP16, True, True,
                               layer_filter=frozenset(layers))

    @property
    def quantize_input_blob(self) -> bool:
        """Whether the network input is rounded at entry."""
        if not self.quantize_activations:
            return False
        if self.quantize_input is None:
            return self.layer_filter is None
        return self.quantize_input

    def applies_to(self, layer_name: str) -> bool:
        """Whether quantisation applies to the named layer."""
        return self.layer_filter is None or layer_name in \
            self.layer_filter

    def quantize_weight_array(self, w: np.ndarray) -> np.ndarray:
        """Apply compile-time weight quantisation."""
        return round_fp16(w) if self.quantize_weights else np.asarray(
            w, dtype=np.float32)

    def quantize_activation_array(self, a: np.ndarray) -> np.ndarray:
        """Apply post-layer activation quantisation."""
        return round_fp16(a) if self.quantize_activations else a

    @property
    def name(self) -> str:
        """Short policy name (the precision value)."""
        return self.precision.value
