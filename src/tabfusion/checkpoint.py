"""Versioned binary checkpoints: header + JSON record + named array table + raw floats.

Layout (little-endian): magic b"TBF1", format version u32 (4), `config_digest`
of the record (64 ascii hex bytes), record length u32, the record as utf-8
JSON, array count u32; then per array: name length u16, name utf8, dtype
code u8 (0 = float32, 1 = float64), ndim u8, extents u32 each, raw data;
last, the CRC-32 (u32) of the array section, from the array count to the
end of the last array's data. Loading rejects another version, a record
that fails its digest, an array section that fails its checksum and a
truncated file. Arrays are named by attribute path. Version 4 has version
3's layout; what changed is what `Model.save` puts in it (the parts its
record names, and each SNGP head's variance factor in place of its
precision), so version-3 files still load. Files of versions 1 and 2 must
be re-created.

Both directions stream: saving writes each array's own contiguous buffer
(a copy only for an array that is not contiguous little-endian float32 or
float64), and loading reads each array straight into a fresh, writable
array that owns its memory, folding the checksum in as the bytes arrive.
Neither holds the file's bytes whole.
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
FORMAT_VERSION = 4
# the versions `load_checkpoint` reads: 3 differs from 4 only in what Model.save stores
READABLE_VERSIONS = (3, 4)
_DTYPES = {0: "<f4", 1: "<f8"}
_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


class CheckpointError(RuntimeError):
    pass


def config_digest(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()


def save_checkpoint(path, arrays: dict, record: dict) -> None:
    """arrays: name -> numpy array (float32/float64), or a zero-argument
    callable returning one, called when that array is written so that it
    exists only while it is; record: any JSON-able dict.

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
    """The array section a piece at a time: headers as bytes, each array's
    data as a contiguous little-endian array (the array itself when it is one)."""
    yield struct.pack("<I", len(arrays))
    for name, arr in arrays.items():
        nb = name.encode("utf-8")
        yield struct.pack("<H", len(nb)) + nb
        # a callable's array is made only now, when the caller holds the last
        # array written no longer; asarray keeps 0-d arrays 0-d
        # (ascontiguousarray makes them 1-d)
        arr = np.asarray(arr() if callable(arr) else arr)
        if arr.dtype not in _CODES:
            arr = arr.astype(np.float32)
        code = _CODES[arr.dtype]
        yield struct.pack(f"<BB{arr.ndim}I", code, arr.ndim, *arr.shape)
        yield np.ascontiguousarray(arr, dtype=_DTYPES[code])


def load_checkpoint(path) -> tuple[dict, dict]:
    """Read (record, arrays) back; raises CheckpointError on bad magic or
    version, a record that does not match its digest, an array section that
    does not match its checksum, or a truncated file.

    Each array is a new writable array that owns its memory, read straight
    from the file: a caller may keep it as it is."""
    with Path(path).open("rb") as fh:
        return _read(fh, os.fstat(fh.fileno()).st_size)


def _read(fh, length: int) -> tuple[dict, dict]:
    off = 0  # the offset of the next byte to read
    crc = 0  # CRC-32 of the bytes read since it was last reset

    def claim(n: int, what: str) -> None:
        """Step past the next n bytes, which the file must hold."""
        nonlocal off
        if off + n > length:
            raise CheckpointError(
                f"truncated checkpoint: {what} needs bytes {off}..{off + n}, file has {length}"
            )
        off += n

    def fill(buf, what: str) -> None:
        """Read the bytes just claimed into buf, a writable byte buffer of
        their length, and fold them into crc."""
        nonlocal crc
        view = memoryview(buf)
        got = fh.readinto(view)  # a buffered read stops short only at the end of the file
        if got != len(view):  # the file shrank after its length was taken
            start = off - len(view)
            raise CheckpointError(f"truncated checkpoint: {what} needs bytes {start}..{off}, file has {start + got}")
        crc = zlib.crc32(view, crc)

    def take(n: int, what: str) -> bytes:
        claim(n, what)
        buf = bytearray(n)
        fill(buf, what)
        return bytes(buf)

    if take(4, "magic") != MAGIC:
        raise CheckpointError("bad magic; not a checkpoint file")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version not in READABLE_VERSIONS:  # version 1 had no record, version 2 other array names
        raise CheckpointError(f"unsupported checkpoint version {version}; re-create the checkpoint")
    digest = take(64, "record digest").decode("ascii", errors="replace")
    (size,) = struct.unpack("<I", take(4, "record length"))
    text = take(size, "record")
    if hashlib.sha256(text).hexdigest() != digest:  # config_digest of the record saved as `text`
        raise CheckpointError("record digest mismatch; the checkpoint is corrupt")
    record = json.loads(text)
    crc = 0  # the checksum covers the array count to the end of the last array's data
    (count,) = struct.unpack("<I", take(4, "array count"))
    arrays = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        try:
            name = take(name_len, "array name").decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError("array name is not utf-8") from None
        code, ndim = struct.unpack("<BB", take(2, f"header of '{name}'"))
        if code not in _DTYPES:
            raise CheckpointError(f"unknown dtype code {code} for '{name}'")
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"shape of '{name}'"))
        dtype = np.dtype(_DTYPES[code])
        claim(math.prod(shape) * dtype.itemsize, f"data of '{name}'")  # before allocating it
        arrays[name] = np.empty(shape, dtype=dtype)
        fill(arrays[name].reshape(-1).view(np.uint8), f"data of '{name}'")
    section = crc
    (stored,) = struct.unpack("<I", take(4, "array checksum"))
    if section != stored:
        raise CheckpointError("array checksum mismatch; the checkpoint is corrupt")
    return record, arrays
