"""Flat binary archive for model parameters.

Layout: magic ``TGCK``, u32 version, u32 entry count, then per entry a
u16 name length, the utf-8 name, a u8 rank (0 for a scalar), u32 dimensions,
and the row-major float64 little-endian payload. Loading reads each payload once,
straight from the file into its own array, so it never holds the file's bytes
as well. It rejects a non-finite value, a name that repeats and bytes after the
last entry.
"""

from __future__ import annotations

import math
import os
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
            arr = np.asarray(value, dtype="<f8")   # keeps rank 0; tobytes() is row-major
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    path = Path(path)
    params: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(4) != MAGIC:
            raise FormatError(f"{path}: not a parameter checkpoint (bad magic)")
        try:
            version, count = struct.unpack("<II", fh.read(8))
            if version != VERSION:
                raise FormatError(f"{path}: unsupported checkpoint version {version}")
            for _ in range(count):
                (name_len,) = struct.unpack("<H", fh.read(2))
                name = fh.read(name_len).decode("utf-8")
                if name in params:
                    raise FormatError(f"{path}: parameter '{name}' appears twice")
                (ndim,) = struct.unpack("<B", fh.read(1))
                shape = struct.unpack(f"<{ndim}I", fh.read(4 * ndim))
                if fh.tell() + 8 * math.prod(shape) > size:
                    raise FormatError(f"{path}: truncated payload for parameter '{name}'")
                value = np.empty(shape, dtype="<f8")
                fh.readinto(value.reshape(-1).view(np.uint8))
                if not np.isfinite(value).all():
                    raise FormatError(f"{path}: parameter '{name}' holds a non-finite value")
                params[name] = value
        except struct.error as exc:
            raise FormatError(f"{path}: truncated checkpoint header") from exc
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: parameter name is not UTF-8") from exc
        if fh.tell() != size:
            raise FormatError(f"{path}: {size - fh.tell()} bytes after the last parameter")
    return params
