"""Versioned binary checkpoints: header + named parameter table + raw floats.

Layout (little-endian): magic b"TBF1", format version u32, config digest
(64 ascii hex bytes), array count u32; then per array: name length u16,
name utf8, dtype code u8 (0 = float32, 1 = float64), ndim u8, extents u32
each, raw data. Loading rejects a digest mismatch and a truncated file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

__all__ = ["config_digest", "save_checkpoint", "load_checkpoint", "CheckpointError"]

MAGIC = b"TBF1"
FORMAT_VERSION = 1
_DTYPES = {0: "<f4", 1: "<f8"}
_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


class CheckpointError(RuntimeError):
    pass


def config_digest(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()


def save_checkpoint(path, arrays: dict, config: dict) -> None:
    """arrays: name -> numpy array (float32/float64).

    Writes a sibling temporary file and renames it over `path`, so a crash
    mid-write leaves any earlier checkpoint intact rather than a partial one.
    """
    path = Path(path)
    digest = config_digest(config)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", FORMAT_VERSION))
            fh.write(digest.encode("ascii"))
            fh.write(struct.pack("<I", len(arrays)))
            for name, arr in arrays.items():
                arr = np.ascontiguousarray(arr)
                if arr.dtype not in _CODES:
                    arr = arr.astype(np.float32)
                nb = name.encode("utf-8")
                fh.write(struct.pack("<H", len(nb)))
                fh.write(nb)
                fh.write(struct.pack("<BB", _CODES[arr.dtype], arr.ndim))
                for dim in arr.shape:
                    fh.write(struct.pack("<I", dim))
                fh.write(arr.astype(_DTYPES[_CODES[arr.dtype]]).tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path, config: dict) -> dict:
    """Read arrays back; raises CheckpointError on bad magic, version, a
    config digest that does not match `config`, or a truncated file."""
    data = memoryview(Path(path).read_bytes())  # slices are views, not copies
    off = 0

    def take(n: int, what: str) -> memoryview:
        nonlocal off
        if off + n > len(data):
            raise CheckpointError(
                f"truncated checkpoint: {what} needs bytes {off}..{off + n}, file has {len(data)}"
            )
        chunk = data[off : off + n]
        off += n
        return chunk

    if take(4, "magic") != MAGIC:
        raise CheckpointError("bad magic; not a checkpoint file")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    digest = bytes(take(64, "config digest")).decode("ascii", errors="replace")
    if digest != config_digest(config):
        raise CheckpointError("config digest mismatch; checkpoint belongs to a different config")
    (count,) = struct.unpack("<I", take(4, "array count"))
    arrays = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        try:
            name = bytes(take(name_len, "array name")).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError("array name is not utf-8") from None
        code, ndim = struct.unpack("<BB", take(2, f"header of '{name}'"))
        if code not in _DTYPES:
            raise CheckpointError(f"unknown dtype code {code} for '{name}'")
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"shape of '{name}'"))
        dtype = np.dtype(_DTYPES[code])
        size = math.prod(shape)
        raw = take(size * dtype.itemsize, f"data of '{name}'")
        arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    return arrays
