"""Versioned binary checkpoints: header + JSON record + named array table + raw floats.

Layout (little-endian): magic b"TBF1", format version u32 (3), `config_digest`
of the record (64 ascii hex bytes), record length u32, the record as utf-8
JSON, array count u32; then per array: name length u16, name utf8, dtype
code u8 (0 = float32, 1 = float64), ndim u8, extents u32 each, raw data;
last, the CRC-32 (u32) of the array section, from the array count to the
end of the last array's data. Loading rejects another version, a record
that fails its digest, an array section that fails its checksum and a
truncated file. Version 3 names arrays by attribute path; files of
versions 1 and 2 must be re-created.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

__all__ = ["config_digest", "save_checkpoint", "load_checkpoint", "CheckpointError"]

MAGIC = b"TBF1"
FORMAT_VERSION = 3
_DTYPES = {0: "<f4", 1: "<f8"}
_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


class CheckpointError(RuntimeError):
    pass


def config_digest(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()


def save_checkpoint(path, arrays: dict, record: dict) -> None:
    """arrays: name -> numpy array (float32/float64); record: any JSON-able dict.

    Writes a sibling temporary file and renames it over `path`, so a crash
    mid-write leaves any earlier checkpoint intact rather than a partial one.
    """
    path = Path(path)
    text = json.dumps(record, sort_keys=True).encode()
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", FORMAT_VERSION))
            fh.write(config_digest(record).encode("ascii"))
            fh.write(struct.pack("<I", len(text)))
            fh.write(text)
            crc = 0
            for chunk in _array_section(arrays):
                fh.write(chunk)
                crc = zlib.crc32(chunk, crc)
            fh.write(struct.pack("<I", crc))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _array_section(arrays: dict):
    """The array section's bytes, a piece at a time."""
    yield struct.pack("<I", len(arrays))
    for name, arr in arrays.items():
        arr = np.asarray(arr)  # keeps 0-d arrays 0-d (ascontiguousarray makes them 1-d)
        if arr.dtype not in _CODES:
            arr = arr.astype(np.float32)
        nb = name.encode("utf-8")
        yield struct.pack("<H", len(nb)) + nb
        yield struct.pack(f"<BB{arr.ndim}I", _CODES[arr.dtype], arr.ndim, *arr.shape)
        yield arr.astype(_DTYPES[_CODES[arr.dtype]]).tobytes()


def load_checkpoint(path) -> tuple[dict, dict]:
    """Read (record, arrays) back; raises CheckpointError on bad magic or
    version, a record that does not match its digest, an array section that
    does not match its checksum, or a truncated file.

    The arrays are read-only views into the file's bytes: a caller that keeps
    or writes one copies it."""
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
    if version != FORMAT_VERSION:  # version 1 had no record, version 2 other array names
        raise CheckpointError(f"unsupported checkpoint version {version}; re-create the checkpoint")
    digest = bytes(take(64, "record digest")).decode("ascii", errors="replace")
    (size,) = struct.unpack("<I", take(4, "record length"))
    text = bytes(take(size, "record"))
    if hashlib.sha256(text).hexdigest() != digest:  # config_digest of the record saved as `text`
        raise CheckpointError("record digest mismatch; the checkpoint is corrupt")
    record = json.loads(text)
    section = off
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
        arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape)
    (crc,) = struct.unpack("<I", take(4, "array checksum"))
    if zlib.crc32(data[section : off - 4]) != crc:
        raise CheckpointError("array checksum mismatch; the checkpoint is corrupt")
    return record, arrays
