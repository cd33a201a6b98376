"""Flat binary archive for model parameters.

Layout: magic ``TGCK``, u32 version, u32 entry count, then per entry a
u16 name length, the utf-8 name, a u8 rank, u32 dimensions, and the
row-major float64 little-endian payload. Loading rejects a non-finite value,
a name that repeats and bytes after the last entry.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"TGCK"
VERSION = 1


def save_checkpoint(path, params: dict[str, np.ndarray]) -> None:
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(params)))
        for name, value in params.items():
            arr = np.ascontiguousarray(value, dtype="<f8")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != MAGIC:
        raise FormatError(f"{path}: not a parameter checkpoint (bad magic)")
    params: dict[str, np.ndarray] = {}
    try:
        version, count = struct.unpack_from("<II", raw, 4)
        if version != VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        offset = 12
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", raw, offset)
            offset += 2
            name = raw[offset:offset + name_len].decode("utf-8")
            offset += name_len
            if name in params:
                raise FormatError(f"{path}: parameter '{name}' appears twice")
            (ndim,) = struct.unpack_from("<B", raw, offset)
            offset += 1
            shape = struct.unpack_from(f"<{ndim}I", raw, offset)
            offset += 4 * ndim
            count = math.prod(shape)
            if offset + 8 * count > len(raw):
                raise FormatError(f"{path}: truncated payload for parameter '{name}'")
            # a view of the bytes read, copied once
            value = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(shape).copy()
            if not np.isfinite(value).all():
                raise FormatError(f"{path}: parameter '{name}' holds a non-finite value")
            params[name] = value
            offset += 8 * count
        if offset != len(raw):
            raise FormatError(f"{path}: {len(raw) - offset} bytes after the last parameter")
    except struct.error as exc:
        raise FormatError(f"{path}: truncated checkpoint header") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: parameter name is not UTF-8") from exc
    return params
