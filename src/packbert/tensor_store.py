"""The one binary format: named tensors plus a JSON metadata block.

Layout: 8-byte magic, little-endian u32 header length, UTF-8 JSON header
(each tensor's name, dtype, shape, offset and byte count; the tensors tile
the data region), the raw tensor bytes, then a little-endian u32 CRC-32 of
every byte before it. Checkpoints with their provenance log, adapter files
and token sequence files all use it. Writes go to a temporary file that is
fsynced and then renamed over the target, so readers see the old file or
the whole new one; the directory is fsynced after the rename, so the new
file survives a power loss; ``link_tensors`` swaps in a second name for an
existing container the same way. A read fills each tensor's own array
straight from the file and checks the checksum before it returns. A bad
magic, checksum or header raises DataError, and so does a missing or
mistyped metadata entry read through ``meta_entry``.
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
    _sync_dir(out.parent)


def link_tensors(src, dst) -> bool:
    """Give the container ``src`` the second name ``dst``: a hard link made under
    a temporary name and renamed over ``dst``, as ``write_tensors`` renames.
    False, with nothing changed, if the filesystem refuses the link.  No
    container is ever edited in place, so two names can share one file."""
    out = Path(dst)
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    try:
        os.link(src, tmp)
    except OSError:
        return False
    try:
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _sync_dir(out.parent)
    return True


def _sync_dir(path) -> None:
    # A rename lives in the directory: sync it too, or a power loss may undo it.
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def read_tensors(path) -> tuple[dict[str, np.ndarray], dict]:
    """The tensors and metadata of a container, each tensor read straight into
    its own array, so a load holds the file's bytes once."""
    try:
        with open(path, "rb") as f:
            return _read(f, os.fstat(f.fileno()).st_size, path)
    except OSError as e:
        raise DataError(f"cannot read tensor file {path}: {e}") from e


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


def _read(f, size: int, path) -> tuple[dict[str, np.ndarray], dict]:
    end = size - 4  # the data region ends where the trailing CRC starts
    head = f.read(len(MAGIC) + 4)
    if end < len(head) or head[: len(MAGIC)] != MAGIC:
        raise DataError(f"{path} is not a tensor container (bad magic)")
    data = len(head) + struct.unpack_from("<I", head, len(MAGIC))[0]
    header = f.read(min(data, end) - len(head))
    crc = zlib.crc32(header, zlib.crc32(head))
    malformed = None
    try:
        tensors, meta = _parse(header, data, end)
    except (KeyError, TypeError, ValueError) as e:
        # The checksum of the rest tells a damaged file from a bad header.
        malformed, tensors, meta = e, {}, None
    for arr in tensors.values():
        if f.readinto(arr) != arr.nbytes:
            raise DataError(f"{path} is shorter than its header says (truncated)")
        crc = zlib.crc32(arr, crc)
    # Bytes no tensor claimed: the rest of the file, if the header is malformed.
    for chunk in iter(lambda: f.read(min(1 << 20, end - f.tell())), b""):
        crc = zlib.crc32(chunk, crc)
    if f.read(4) != struct.pack("<I", crc):
        raise DataError(f"{path} fails its checksum (truncated or corrupt)")
    if malformed is not None:
        raise DataError(f"{path} has a malformed header: {malformed!r}")
    return tensors, meta


def _parse(header: bytes, data: int, end: int) -> tuple[dict[str, np.ndarray], dict]:
    """Metadata and empty tensors of a JSON header whose data region is
    [data, end).  The tensors must tile the region exactly, so together they
    never take more memory than the file has bytes."""
    if data > end:
        raise ValueError("header runs past the data region")
    header = json.loads(header.decode("utf-8"))
    meta, tensors = header["meta"], {}
    if not isinstance(meta, dict) or not isinstance(header["tensors"], list):
        raise ValueError("meta must be an object and tensors a list")
    offset = data
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
        tensors[name] = np.empty(shape, dtype)
        offset += nbytes
    if offset != end:
        raise ValueError("data region length does not match its tensors")
    return tensors, meta
