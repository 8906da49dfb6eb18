"""DAG network container with Caffe-style named blobs.

A :class:`Network` is an ordered list of layers wired by blob names.
Construction validates the wiring (every bottom must be produced before
it is consumed; exactly one producer per blob), so execution is a simple
in-order sweep — the same invariant Caffe's net initialisation enforces.

Execution takes a :class:`~repro.numerics.quant.PrecisionPolicy`:

* FP32 — the reference CPU/GPU path; weights and activations untouched.
* FP16 — the VPU path; weights rounded once (cached), every blob
  rounded through binary16 before the next layer reads it.  Each blob
  is rounded once: a layer that only copies values (ReLU, MAX pool,
  Concat, Dropout) over already-rounded blobs is not rounded again,
  since rounding an exact binary16 value is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.errors import GraphError, ShapeError
from repro.numerics.quant import PrecisionPolicy
from repro.nn.layer import Layer
from repro.tensors.layout import BlobShape


#: Execution plans kept per network; one per (capture set, policy)
#: pair, so a precision ablation sweep cannot grow the cache unbounded.
_PLAN_CACHE_SIZE = 32


@dataclass(frozen=True)
class LayerCost:
    """Static per-layer cost summary used by compilers and timing models."""

    name: str
    type_name: str
    macs: int
    param_bytes: int
    activation_bytes: int


class Network:
    """An inference network: input blob + ordered, validated layers."""

    def __init__(self, name: str, input_blob: str,
                 input_shape: BlobShape) -> None:
        self.name = name
        self.input_blob = input_blob
        self.input_shape = input_shape
        self.layers: list[Layer] = []
        self._producers: dict[str, str] = {input_blob: "<input>"}
        # Cache of FP16-quantised parameters, built lazily per layer.
        self._fp16_params: dict[str, dict[str, np.ndarray]] = {}
        # Cached execution plans keyed by (capture set, policy);
        # invalidated when the topology changes.
        self._plan_cache: dict[tuple[frozenset, PrecisionPolicy],
                               tuple[list, dict[str, int], set[str]]] = {}

    # -- construction ---------------------------------------------------
    def add(self, layer: Layer) -> Layer:
        """Append a layer, validating blob wiring."""
        if any(l.name == layer.name for l in self.layers):
            raise GraphError(f"duplicate layer name {layer.name!r}")
        for bottom in layer.bottoms:
            if bottom not in self._producers:
                raise GraphError(
                    f"layer {layer.name!r} reads undefined blob "
                    f"{bottom!r}")
        for top in layer.tops:
            if top in self._producers and top not in layer.bottoms:
                # In-place layers (ReLU top == bottom) are allowed,
                # matching Caffe's in-place computation convention.
                raise GraphError(
                    f"blob {top!r} already produced by "
                    f"{self._producers[top]!r}")
            self._producers[top] = layer.name
        self.layers.append(layer)
        self._fp16_params.pop(layer.name, None)
        self._plan_cache.clear()
        return layer

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers)

    def layer(self, name: str) -> Layer:
        """Look up a layer by name."""
        for l in self.layers:
            if l.name == name:
                return l
        raise GraphError(f"no layer named {name!r} in {self.name!r}")

    @property
    def output_blob(self) -> str:
        """The top of the final layer."""
        if not self.layers:
            raise GraphError(f"network {self.name!r} has no layers")
        return self.layers[-1].tops[-1]

    # -- shape inference -------------------------------------------------
    def infer_shapes(
            self, batch: Optional[int] = None) -> dict[str, BlobShape]:
        """Shapes of every blob for the given batch size."""
        shape = (self.input_shape if batch is None
                 else self.input_shape.with_batch(batch))
        shapes: dict[str, BlobShape] = {self.input_blob: shape}
        for layer in self.layers:
            inputs = [shapes[b] for b in layer.bottoms]
            for top, out in zip(layer.tops, layer.output_shapes(inputs)):
                shapes[top] = out
        return shapes

    def validate(self) -> None:
        """Run shape inference end-to-end; raises on any mismatch."""
        self.infer_shapes()

    # -- cost model --------------------------------------------------------
    def layer_costs(self, batch: int = 1,
                    bytes_per_element: int = 4) -> list[LayerCost]:
        """Static cost table (MACs, bytes) for every layer.

        ``bytes_per_element`` sets the storage precision the byte
        columns are quoted at (4 for FP32 hosts, 2 for the FP16 VPU
        tier), so ``sum(c.param_bytes ...)`` always agrees with
        :meth:`total_param_bytes` at the same precision.
        """
        shapes = self.infer_shapes(batch)
        costs = []
        for layer in self.layers:
            inputs = [shapes[b] for b in layer.bottoms]
            costs.append(LayerCost(
                name=layer.name,
                type_name=layer.type_name(),
                macs=layer.macs(inputs),
                param_bytes=layer.param_bytes(bytes_per_element),
                activation_bytes=layer.activation_bytes(
                    inputs, bytes_per_element),
            ))
        return costs

    def total_macs(self, batch: int = 1) -> int:
        """Total multiply-accumulates for one forward pass."""
        return sum(c.macs for c in self.layer_costs(batch))

    def total_param_bytes(self, bytes_per_element: int = 4) -> int:
        """Total parameter storage at the given precision."""
        return sum(l.param_bytes(bytes_per_element) for l in self.layers)

    # -- execution ------------------------------------------------------------
    def _params_for(self, layer: Layer,
                    policy: PrecisionPolicy) -> dict[str, np.ndarray]:
        if (not policy.quantize_weights or not layer.params
                or not policy.applies_to(layer.name)):
            return layer.params
        cached = self._fp16_params.get(layer.name)
        if cached is None:
            cached = {role: policy.quantize_weight_array(arr)
                      for role, arr in layer.params.items()}
            self._fp16_params[layer.name] = cached
        return cached

    def invalidate_weight_cache(self) -> None:
        """Drop cached quantised weights (call after mutating params)."""
        self._fp16_params.clear()

    def _exec_plan(self, capture: frozenset, policy: PrecisionPolicy
                   ) -> tuple[list, dict[str, int], set[str]]:
        """Execution plan: steps, blob refcounts and the kept blobs.

        Each step is ``(layer, fused_relu, swap_weights, round_out,
        round_fused)``.  A Convolution immediately followed by the
        plain ReLU that is its sole consumer executes as one fused
        step: the ReLU is applied in place on the convolution output,
        skipping the intermediate blob round-trip.  Out-of-place ReLUs
        whose bottom is captured stay unfused so the pre-activation
        blob remains observable.

        ``round_out``/``round_fused`` say which outputs pass through
        binary16 rounding.  The policy rounds the layers it applies
        to, but a blob already exact in binary16 is never rounded
        again: the rounded input blob, the output of a rounded layer,
        and the output of a :attr:`~repro.nn.layer.Layer.copies_values`
        layer whose every input is exact.  Rounding such a blob is the
        identity, so skipping it never changes a value — a fused
        Conv+ReLU rounds once, and a ReLU, MAX pool, Concat or Dropout
        over rounded blobs not at all.
        """
        key = (capture, policy)
        cached = self._plan_cache.get(key)
        if cached is not None:
            return cached
        unknown = sorted(capture - self._producers.keys())
        if unknown:
            raise GraphError(
                f"cannot capture undefined blob(s) {unknown} in "
                f"{self.name!r}")
        from repro.nn.conv import Convolution
        from repro.nn.relu import ReLU

        keep = set(capture) | {self.output_blob}
        consumers: dict[str, int] = {}
        for l in self.layers:
            for b in l.bottoms:
                consumers[b] = consumers.get(b, 0) + 1

        def rounds(layer: Layer) -> bool:
            return (policy.quantize_activations
                    and policy.applies_to(layer.name))

        exact = {self.input_blob} if policy.quantize_input_blob else set()
        steps: list = []
        i = 0
        layers = self.layers
        while i < len(layers):
            layer = layers[i]
            fused = None
            if i + 1 < len(layers) and isinstance(layer, Convolution):
                nxt = layers[i + 1]
                if (isinstance(nxt, ReLU)
                        and nxt.negative_slope == 0.0
                        and len(layer.tops) == 1
                        and list(nxt.bottoms) == [layer.tops[0]]):
                    in_place = nxt.tops[0] == nxt.bottoms[0]
                    lone = (consumers.get(layer.tops[0], 0) == 1
                            and layer.tops[0] not in keep)
                    if in_place or lone:
                        fused = nxt
            swap = policy.quantize_weights and policy.applies_to(
                layer.name)
            if fused is None:
                copies = layer.copies_values and all(
                    b in exact for b in layer.bottoms)
                round_out = rounds(layer) and not copies
                round_fused = False
                tops_exact = rounds(layer) or copies
                tops = layer.tops
            else:
                round_out = rounds(layer)
                round_fused = rounds(fused) and not round_out
                tops_exact = round_out or round_fused
                tops = fused.tops
            if tops_exact:
                exact.update(tops)
            else:
                exact.difference_update(tops)
            steps.append((layer, fused, swap, round_out, round_fused))
            i += 2 if fused is not None else 1

        refcount: dict[str, int] = {}
        for layer, *_ in steps:
            for b in layer.bottoms:
                refcount[b] = refcount.get(b, 0) + 1
        plan = (steps, refcount, keep)
        self._plan_cache[key] = plan
        while len(self._plan_cache) > _PLAN_CACHE_SIZE:
            del self._plan_cache[next(iter(self._plan_cache))]
        return plan

    def forward(self, x: np.ndarray,
                policy: Optional[PrecisionPolicy] = None,
                capture: Optional[Sequence[str]] = None) -> np.ndarray:
        """Run inference on a batch.

        Parameters
        ----------
        x:
            Input batch, NCHW float array.
        policy:
            Precision policy (default FP32 reference).
        capture:
            Optional blob names whose values to retain; retrieve with
            :meth:`forward_with_blobs` instead for the full mapping.
        """
        out, _ = self.forward_with_blobs(x, policy, capture or ())
        return out

    def forward_with_blobs(
            self, x: np.ndarray, policy: Optional[PrecisionPolicy] = None,
            capture: Sequence[str] = (),
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Like :meth:`forward`, also returning requested blob values.

        Every name in *capture* must be a blob of this network (else
        :class:`GraphError`); the input blob is returned as the first
        layer sees it, after any input quantisation.
        """
        policy = policy or PrecisionPolicy.fp32()
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 4:
            raise ShapeError(f"input must be NCHW, got ndim={x.ndim}")
        expected = self.input_shape
        if x.shape[1:] != (expected.c, expected.h, expected.w):
            raise ShapeError(
                f"input shape {x.shape[1:]} != network geometry "
                f"({expected.c}, {expected.h}, {expected.w})")
        # The plan carries fused Conv+ReLU steps, which outputs to
        # round, and the blob reference counts that let us free dead
        # activations as we sweep — peak memory stays near the true
        # working set.
        steps, base_refcount, keep = self._exec_plan(
            frozenset(capture), policy)

        if policy.quantize_input_blob:
            # Host-side FP16 input conversion (the OpenEXR step); the
            # per-layer ablation policies keep the input in FP32 so
            # only the selected layers contribute drift, and the back
            # half of a split network keeps its input (the cut blob)
            # exactly as the front half produced it.
            x = policy.quantize_activation_array(x)
        blobs: dict[str, np.ndarray] = {self.input_blob: x}
        captured: dict[str, np.ndarray] = {}
        if self.input_blob in keep:
            captured[self.input_blob] = x
        refcount = dict(base_refcount)

        for layer, fused, swap, round_out, round_fused in steps:
            bottoms = layer.bottoms
            inputs = [blobs[b] for b in bottoms]
            saved_params = None
            if swap and layer.params:
                saved_params = layer.params
                layer.params = self._params_for(layer, policy)
            try:
                outputs = layer.forward(inputs)
            finally:
                if saved_params is not None:
                    layer.params = saved_params
            if fused is None:
                for top, out in zip(layer.tops, outputs):
                    out = np.asarray(out, dtype=np.float32)
                    if round_out:
                        out = policy.quantize_activation_array(out)
                    blobs[top] = out
                    if top in keep:
                        captured[top] = out
            else:
                # Fused Conv+ReLU: rectify in place on the conv
                # output (freshly allocated, so mutation is safe).
                out = np.asarray(outputs[0], dtype=np.float32)
                if round_out:
                    out = policy.quantize_activation_array(out)
                np.maximum(out, 0.0, out=out)
                if round_fused:
                    out = policy.quantize_activation_array(out)
                top = fused.tops[0]
                blobs[top] = out
                if top in keep:
                    captured[top] = out
            for b in bottoms:
                left = refcount[b] - 1
                refcount[b] = left
                if left == 0 and b not in keep:
                    blobs.pop(b, None)

        return blobs[self.output_blob], captured

    def predict(self, x: np.ndarray,
                policy: Optional[PrecisionPolicy] = None
                ) -> tuple[np.ndarray, np.ndarray]:
        """Top-1 labels and confidences for a batch.

        Returns ``(labels, confidences)`` where labels has shape (N,)
        and confidences the corresponding softmax probabilities.
        """
        probs = self.forward(x, policy).reshape(x.shape[0], -1)
        labels = probs.argmax(axis=1)
        return labels, probs[np.arange(len(labels)), labels]

    def __repr__(self) -> str:
        return (f"<Network {self.name!r} layers={len(self.layers)} "
                f"input={self.input_shape}>")
