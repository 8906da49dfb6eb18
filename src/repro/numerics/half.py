"""IEEE 754 binary16 (half precision) emulation.

The NCSw framework converts input pixels from FP32 to FP16 using the
OpenEXR ``half`` class before shipping them to the NCS (paper §III); the
Myriad 2 then executes the whole network in FP16.  We emulate this with
NumPy's ``float16``, which implements the same IEEE 754 binary16 format
with round-to-nearest-even, and wrap it so precision handling is explicit
and testable (saturation semantics, subnormal behaviour, ULP structure).
"""

from __future__ import annotations

import numpy as np

#: Largest finite binary16 value (65504.0).
FP16_MAX = float(np.finfo(np.float16).max)
#: Smallest positive *normal* binary16 value (2^-14).
FP16_MIN_NORMAL = float(np.finfo(np.float16).tiny)
#: Smallest positive subnormal binary16 value (2^-24).
FP16_MIN_SUBNORMAL = float(np.nextafter(np.float16(0), np.float16(1)))
#: Machine epsilon of binary16 (2^-10).
FP16_EPS = float(np.finfo(np.float16).eps)


def to_half(x: np.ndarray, saturate: bool = False) -> np.ndarray:
    """Convert an array to binary16.

    With ``saturate=True``, values whose magnitude exceeds
    :data:`FP16_MAX` clamp to ±FP16_MAX instead of overflowing to ±inf —
    this mirrors the saturating store mode of the SHAVE VAU.  NaNs pass
    through unchanged in both modes.
    """
    arr = np.asarray(x, dtype=np.float32)
    if saturate:
        clipped = np.clip(arr, -FP16_MAX, FP16_MAX)
        # clip propagates NaN already, so no special-casing needed.
        return clipped.astype(np.float16)
    with np.errstate(over="ignore"):
        return arr.astype(np.float16)


def from_half(x: np.ndarray) -> np.ndarray:
    """Widen a binary16 array back to float32 (exact, no rounding)."""
    return np.asarray(x, dtype=np.float16).astype(np.float32)


def round_fp16(x: np.ndarray) -> np.ndarray:
    """Round through binary16 and widen back to float32.

    This is the *quantisation* operator used by the FP16 execution
    policy: every intermediate tensor of a VPU layer is rounded through
    it once, so rounding error accumulates exactly as it would on
    hardware that stores activations in half precision.
    """
    arr = np.asarray(x, dtype=np.float32)
    with np.errstate(over="ignore"):
        return arr.astype(np.float16).astype(np.float32)


def is_representable_fp16(x: float) -> bool:
    """True if the scalar converts to binary16 and back without error."""
    if np.isnan(x):
        return True  # NaN is representable (payload aside)
    with np.errstate(over="ignore"):
        h = np.float32(x).astype(np.float16)
    return bool(np.isinf(h) == np.isinf(np.float32(x))
                and (np.isinf(h) or float(h) == float(np.float32(x))))


def quantization_error(x: np.ndarray) -> np.ndarray:
    """Absolute error introduced by a round-trip through binary16."""
    arr = np.asarray(x, dtype=np.float32)
    return np.abs(arr - round_fp16(arr))


def dynamic_range_bits(x: np.ndarray) -> float:
    """log2(max|x| / min nonzero |x|) — how much of FP16's range is used.

    Useful to diagnose when a tensor's dynamic range exceeds what
    binary16 can hold (≈ 40 bits from subnormal min to max).
    """
    arr = np.abs(np.asarray(x, dtype=np.float64)).ravel()
    nz = arr[arr > 0]
    if nz.size == 0:
        return 0.0
    return float(np.log2(nz.max() / nz.min()))
