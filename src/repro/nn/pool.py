"""Max and average pooling with Caffe ceil-mode geometry."""

from __future__ import annotations

import enum
from typing import Sequence

import numpy as np

from repro.errors import ShapeError
from repro.nn.layer import Layer, register_layer
from repro.tensors.layout import BlobShape, pool_output_hw


class PoolMethod(enum.Enum):
    """Pooling operators supported by Caffe's ``PoolingParameter``."""

    MAX = "max"
    AVE = "ave"


@register_layer
class Pooling(Layer):
    """Spatial pooling.

    ``global_pooling=True`` pools the whole feature map regardless of
    input size (Caffe's ``global_pooling``), used for GoogLeNet's final
    average pool so the topology works at any input geometry.

    Average pooling uses *inclusive* counting over the padded window
    (Caffe's historical behaviour).
    """

    def __init__(self, name: str, bottom: str, top: str, *,
                 method: PoolMethod = PoolMethod.MAX,
                 kernel_size: int = 2, stride: int = 1, pad: int = 0,
                 global_pooling: bool = False) -> None:
        super().__init__(name, [bottom], [top])
        self.method = method
        self.kernel_size = kernel_size
        self.stride = stride
        self.pad = pad
        self.global_pooling = global_pooling
        if global_pooling and pad != 0:
            raise ShapeError(f"{name}: global pooling cannot be padded")

    def _geometry(self, s: BlobShape) -> tuple[int, int, int]:
        """(kernel_h==kernel_w, stride, pad) resolved for this input."""
        if self.global_pooling:
            if s.h != s.w:
                raise ShapeError(
                    f"{self.name}: global pooling needs square input, "
                    f"got {s.h}x{s.w}")
            return s.h, 1, 0
        return self.kernel_size, self.stride, self.pad

    def output_shapes(
            self, input_shapes: Sequence[BlobShape]) -> list[BlobShape]:
        self._expect_bottoms(input_shapes, 1)
        s = input_shapes[0]
        k, stride, pad = self._geometry(s)
        oh, ow = pool_output_hw(s.h, s.w, k, stride, pad)
        return [BlobShape(s.n, s.c, oh, ow)]

    @property
    def copies_values(self) -> bool:
        return self.method is PoolMethod.MAX

    def forward(self, inputs: Sequence[np.ndarray]) -> list[np.ndarray]:
        x = inputs[0]
        n, c, h, w = x.shape
        s = BlobShape(n, c, h, w)
        k, stride, pad = self._geometry(s)
        oh, ow = pool_output_hw(h, w, k, stride, pad)

        if self.method is PoolMethod.MAX:
            # Separable max: fold the k column taps, then the k row
            # taps.  np.maximum returns its second operand on ties, so
            # which of +-0.0 survives depends on fold order; columns
            # first, rows second keeps the row-major window order.
            cols = _max_fold(x, 3, ow, k, stride, pad)
            return [_max_fold(cols, 2, oh, k, stride, pad)]

        xp = np.zeros((n, c, h + 2 * pad + k, w + 2 * pad + k),
                      dtype=x.dtype)
        xp[:, :, pad:pad + h, pad:pad + w] = x
        # Each (di, dj) window offset is a strided view of the
        # zero-padded input; the k*k views are stacked and reduced with
        # NumPy's pairwise sum.
        stack = np.empty((k * k, n, c, oh, ow), dtype=x.dtype)
        for di in range(k):
            for dj in range(k):
                stack[di * k + dj] = xp[
                    :, :, di:di + stride * (oh - 1) + 1:stride,
                    dj:dj + stride * (ow - 1) + 1:stride]
        # Caffe averages over the full k*k window including padding.
        return [stack.sum(axis=0) / np.float32(k * k)]

    def macs(self, input_shapes: Sequence[BlobShape]) -> int:
        out = self.output_shapes(input_shapes)[0]
        s = input_shapes[0]
        k, _, _ = self._geometry(s)
        return out.count * k * k


def _max_fold(x: np.ndarray, axis: int, out_len: int, kernel: int,
              stride: int, pad: int) -> np.ndarray:
    """Max over the *kernel* taps of each pooling window along *axis*.

    Output ``o`` reads input ``o * stride + d - pad`` for tap ``d``.
    Each tap touches only the output range whose input index lies in
    ``[0, size)``, so padding and ceil-mode overhang drop out with no
    padded copy.  An output's first in-range tap is copied and later
    taps are folded in as ``np.maximum(acc, tap)``, in tap order.
    """
    size = x.shape[axis]
    shape = list(x.shape)
    shape[axis] = out_len
    out = np.empty(shape, dtype=x.dtype)
    lead = (slice(None),) * axis
    filled = out_len  # lowest output already holding a tap (none yet)
    for d in range(kernel):
        lo = max(0, -((d - pad) // stride))
        hi = min(out_len, -((d - pad - size) // stride))
        if lo >= hi:
            continue
        start = lo * stride + d - pad
        src = x[lead + (slice(start, start + stride * (hi - lo - 1) + 1,
                              stride),)]
        first = min(filled, hi)
        if lo < first:
            out[lead + (slice(lo, first),)] = src[
                lead + (slice(0, first - lo),)]
        if first < hi:
            acc = out[lead + (slice(first, hi),)]
            np.maximum(acc, src[lead + (slice(first - lo, None),)],
                       out=acc)
        filled = min(filled, lo)
    return out
