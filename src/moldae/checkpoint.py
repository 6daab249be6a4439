"""Versioned binary checkpoint container.

Layout: magic bytes, format version (u32), config JSON (u32 length + UTF-8),
tensor count (u32), then per tensor: name length (u16), name, rank (u8),
dims (u32 each), and the values as little-endian float32.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .model import ModelConfig

MAGIC = b"MDAEckpt"
VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(path: str | Path, config: ModelConfig, tensors: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        blob = json.dumps(asdict(config), sort_keys=True).encode("utf-8")
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            arr = np.asarray(tensors[name], dtype="<f4")  # tobytes() emits C order
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path: str | Path) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    data = Path(path).read_bytes()
    if data[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    off = len(MAGIC)

    def take(fmt: str):
        nonlocal off
        size = struct.calcsize(fmt)
        try:
            vals = struct.unpack_from(fmt, data, off)
        except struct.error as exc:
            raise CheckpointError(f"{path}: truncated checkpoint") from exc
        off += size
        return vals

    (version,) = take("<I")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    (blob_len,) = take("<I")
    try:
        config = ModelConfig(**json.loads(data[off : off + blob_len].decode("utf-8")))
    except (ValueError, TypeError) as exc:
        raise CheckpointError(f"{path}: unreadable config block ({exc})") from exc
    off += blob_len
    (count,) = take("<I")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = take("<H")
        name = data[off : off + name_len].decode("utf-8")
        off += name_len
        (rank,) = take("<B")
        shape = take(f"<{rank}I") if rank else ()
        n = int(np.prod(shape)) if rank else 1
        if off + 4 * n > len(data):
            raise CheckpointError(f"{path}: truncated checkpoint")
        arr = np.frombuffer(data, dtype="<f4", count=n, offset=off).reshape(shape).copy()
        off += 4 * n
        tensors[name] = arr
    if off != len(data):
        raise CheckpointError(f"{path}: trailing bytes after last tensor")
    return config, tensors
