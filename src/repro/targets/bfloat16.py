"""bfloat16 emulation on top of numpy.

numpy has no native bfloat16, so bf16 values are *stored* as float32 whose
mantissa has been truncated to bf16 precision.  Rounding uses
round-to-nearest-even on the upper 16 bits of the IEEE-754 float32
representation, which is what AMX / modern hardware implements.
"""

from __future__ import annotations

import numpy as np


def round_to_bfloat16(values: np.ndarray) -> np.ndarray:
    """Round float32 values to the nearest representable bfloat16.

    Returns float32 storage holding exactly-representable bf16 values.
    Values that are all bf16 already (and hold no NaN, which is
    canonicalised below) need no rounding and are returned as they came
    — without a copy when ``values`` is a float32 array, so the result
    is for reading, not for writing through.
    """
    f32 = np.asarray(values, dtype=np.float32)
    bits = f32.view(np.uint32)
    if not (bits & 0xFFFF).any() and not np.isnan(f32).any():
        return f32
    # round-to-nearest-even: add 0x7FFF + LSB of the upper half
    lsb = (bits >> 16) & 1
    rounded = bits + 0x7FFF + lsb
    truncated = rounded & np.uint32(0xFFFF0000)
    out = truncated.view(np.float32).copy()
    # NaN payloads must stay NaN (the rounding add can overflow them)
    nan_mask = np.isnan(f32)
    if np.any(nan_mask):
        out[nan_mask] = np.float32(np.nan)
    return out.reshape(f32.shape)


def is_bfloat16_exact(values: np.ndarray) -> np.ndarray:
    """True where a float32 value is exactly representable in bf16."""
    f32 = np.asarray(values, dtype=np.float32)
    bits = f32.view(np.uint32)
    return (bits & 0xFFFF) == 0
