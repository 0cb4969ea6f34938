"""The one binary format: named tensors plus a JSON metadata block.

Layout: 8-byte magic, little-endian u32 header length, UTF-8 JSON header
(each tensor's name, dtype, shape, offset and byte count; the tensors tile
the data region), the raw tensor bytes, then a little-endian u32 CRC-32 of
every byte before it. Checkpoints with their provenance log, adapter files
and token sequence files all use it. Writes go to a temporary file that is
fsynced and then renamed over the target, so readers see the old file or
the whole new one; the directory is fsynced after the rename, so the new
file survives a power loss. A bad magic, checksum or header raises
DataError, and so does a missing or mistyped metadata entry read through
``meta_entry``.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"PBTENS02"

# 32-bit and byte payloads only; callers cast before writing.
_DTYPES = {code: np.dtype(code) for code in ("<f4", "<i4", "|u1")}


def write_tensors(path, tensors: dict[str, np.ndarray], meta: dict | None = None) -> None:
    entries, arrays, offset = [], [], 0
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        code = arr.dtype.str
        if code not in _DTYPES:
            raise DataError(
                f"tensor {name} has dtype {arr.dtype}; cast to float32, int32 or uint8 first"
            )
        entries.append({"name": name, "dtype": code, "shape": list(arr.shape),
                        "offset": offset, "nbytes": arr.nbytes})
        arrays.append(arr.reshape(-1))
        offset += arr.nbytes
    header = json.dumps(
        {"meta": meta or {}, "tensors": entries}, ensure_ascii=False, sort_keys=True
    ).encode("utf-8")
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            crc = 0
            for chunk in (MAGIC, struct.pack("<I", len(header)), header, *arrays):
                f.write(chunk)
                crc = zlib.crc32(chunk, crc)
            f.write(struct.pack("<I", crc))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    # The rename lives in the directory: sync it too, or a power loss may undo it.
    fd = os.open(out.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def read_tensors(path) -> tuple[dict[str, np.ndarray], dict]:
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise DataError(f"cannot read tensor file {path}: {e}") from e
    end = len(raw) - 4
    if end < len(MAGIC) + 4 or raw[: len(MAGIC)] != MAGIC:
        raise DataError(f"{path} is not a tensor container (bad magic)")
    if zlib.crc32(memoryview(raw)[:end]) != struct.unpack_from("<I", raw, end)[0]:
        raise DataError(f"{path} fails its checksum (truncated or corrupt)")
    try:
        return _parse(raw, end)
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"{path} has a malformed header: {e!r}") from e


def meta_entry(meta: dict, key: str, kind: type, path):
    """``meta[key]`` if it is a ``kind`` (an int counts as a float, a bool as
    neither); else DataError naming the entry."""
    value = meta.get(key)
    kinds = (int, float) if kind is float else kind
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise DataError(
            f"{path} has a missing or malformed {key!r} entry (want {kind.__name__}, "
            f"got {type(value).__name__})"
        )
    return value


def _parse(raw: bytes, end: int) -> tuple[dict[str, np.ndarray], dict]:
    """Header and tensors of a checksummed container whose data region ends at raw[end]."""
    (hlen,) = struct.unpack_from("<I", raw, len(MAGIC))
    data = offset = len(MAGIC) + 4 + hlen
    header = json.loads(raw[len(MAGIC) + 4 : data].decode("utf-8"))
    meta, tensors = header["meta"], {}
    if not isinstance(meta, dict) or not isinstance(header["tensors"], list):
        raise ValueError("meta must be an object and tensors a list")
    for ent in header["tensors"]:
        name, dtype = ent["name"], _DTYPES[ent["dtype"]]
        shape, nbytes = ent["shape"], ent["nbytes"]
        if (
            not isinstance(name, str)
            or name in tensors
            or data + ent["offset"] != offset
            or not all(type(v) is int and v >= 0 for v in (nbytes, *shape))
            or nbytes != math.prod(shape) * dtype.itemsize
            or offset + nbytes > end
        ):
            raise ValueError(f"entry for tensor {name!r} does not fit the data region")
        arr = np.frombuffer(raw, dtype, nbytes // dtype.itemsize, offset)
        tensors[name] = arr.reshape(shape).copy()
        offset += nbytes
    if offset != end:
        raise ValueError("data region length does not match its tensors")
    return tensors, meta
