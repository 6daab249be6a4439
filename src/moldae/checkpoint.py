"""Versioned binary checkpoint container.

Layout: magic bytes, format version (u32), config JSON (u32 length + UTF-8),
tensor count (u32), then per tensor: name length (u16), name, dtype (u8:
0 float32, 1 float64, 2 uint8), rank (u8), dims (u32 each), and the values,
little-endian, in that dtype. Format 1, still readable, has no dtype byte (all
float32). The reader checks the config block against `ModelConfig` (exactly its
fields, each of its type, then `validate()`); `training` checks the tensors
against the config. A write goes to a temporary file that is then renamed over the
target, so a failed write leaves the previous file intact; `atomic_write`
does that for every file the CLI writes.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import typing
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .model import ModelConfig, ModelConfigError

MAGIC = b"MDAEckpt"
VERSION = 2
DTYPES = (np.dtype("<f4"), np.dtype("<f8"), np.dtype("u1"))  # indexed by the dtype byte


class CheckpointError(ValueError):
    pass


@contextlib.contextmanager
def atomic_write(path: str | Path, mode: str = "w"):
    """Open a temporary sibling of `path` for writing; on success rename it over `path`.

    Any error before the rename removes the temporary file, so `path` keeps its
    previous content and no `.tmp` file is left behind. Text mode is UTF-8.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, text: str) -> None:
    """Write `text` to `path` as UTF-8, atomically (see `atomic_write`)."""
    with atomic_write(path) as fh:
        fh.write(text)


def save_checkpoint(path: str | Path, config: ModelConfig, tensors: dict[str, np.ndarray]) -> None:
    with atomic_write(path, "wb") as fh:
        blob = json.dumps(asdict(config), sort_keys=True).encode("utf-8")
        fh.write(MAGIC + struct.pack("<II", VERSION, len(blob)) + blob + struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            arr = np.asarray(tensors[name])
            dtype = arr.dtype.newbyteorder("<")
            if dtype not in DTYPES:
                raise CheckpointError(f"{name}: cannot store dtype {arr.dtype}")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)) + encoded)
            fh.write(struct.pack(f"<BB{arr.ndim}I", DTYPES.index(dtype), arr.ndim, *arr.shape))
            fh.write(arr.astype(dtype, copy=False).tobytes())  # tobytes() emits C order


def load_checkpoint(path: str | Path) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    data = Path(path).read_bytes()
    if data[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    off = len(MAGIC)

    def take(fmt: str):
        nonlocal off
        try:
            vals = struct.unpack_from(fmt, data, off)
        except struct.error as exc:
            raise CheckpointError(f"{path}: truncated checkpoint") from exc
        off += struct.calcsize(fmt)
        return vals

    (version,) = take("<I")
    if version not in (1, VERSION):
        raise CheckpointError(f"{path}: unsupported format version {version}")
    (blob_len,) = take("<I")
    config = _model_config(path, data[off : off + blob_len])
    off += blob_len
    (count,) = take("<I")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = take("<H")
        try:
            name = data[off : off + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: tensor name at byte {off} is not UTF-8 ({exc})") from exc
        off += name_len
        (code,) = take("<B") if version > 1 else (0,)  # format 1: float32 only
        if code >= len(DTYPES):
            raise CheckpointError(f"{path}: tensor {name} has unknown dtype code {code}")
        dtype = DTYPES[code]
        (rank,) = take("<B")
        shape = take(f"<{rank}I")
        n = math.prod(shape)  # a Python int: np.prod would wrap past 2**63
        if off + dtype.itemsize * n > len(data):
            raise CheckpointError(f"{path}: truncated checkpoint")
        tensors[name] = np.frombuffer(data, dtype=dtype, count=n, offset=off).reshape(shape).copy()
        off += dtype.itemsize * n
    if off != len(data):
        raise CheckpointError(f"{path}: trailing bytes after last tensor")
    return config, tensors


def _model_config(path: str | Path, blob: bytes) -> ModelConfig:
    """The config block: a JSON object with exactly ModelConfig's fields, each of its
    field's type (an int may stand for a float), that passes `validate()`."""
    try:
        fields = json.loads(blob.decode("utf-8"))
    except ValueError as exc:  # not UTF-8 or not JSON
        raise CheckpointError(f"{path}: unreadable config block ({exc})") from exc
    if not isinstance(fields, dict):
        raise CheckpointError(f"{path}: config block is not a JSON object")
    types = typing.get_type_hints(ModelConfig)
    odd = sorted(fields.keys() ^ types.keys())
    if odd:
        raise CheckpointError(f"{path}: config field {odd[0]} is {'missing' if odd[0] in types else 'unknown'}")
    for name, kind in types.items():
        value = fields[name]
        if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
            raise CheckpointError(f"{path}: config field {name}: {value!r} is not {kind.__name__}")
        fields[name] = kind(value)
    try:
        return ModelConfig(**fields).validate()
    except ModelConfigError as exc:
        raise CheckpointError(f"{path}: config block: {exc}") from exc
