"""Deterministic hashing, RNG-stream derivation and the JSONL reader shared across modules.

Every stochastic choice in the pipeline flows through a Philox generator
keyed by (seed, purpose, index), so any single decision can be replayed
without replaying the whole run.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import DataError

_U64 = (1 << 64) - 1

# Purpose words keep streams for different jobs disjoint even when the
# same (seed, index) pair shows up in more than one place.
PURPOSE_ORDER = 0x6F72646572696E67  # epoch shuffling
PURPOSE_MASK = 0x6D61736B6D61736B  # per-sequence corruption draws
PURPOSE_DROP = 0x64726F706F757473  # per-sequence dropout seeds
PURPOSE_DATA = 0x646174616467656E  # synthetic data generation
PURPOSE_NIAH = 0x6E6565646C657321  # haystack construction

# Thread-count setters of the BLAS builds numpy ships with or links against.
_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
    "MKL_Set_Num_Threads",
)


def derived_rng(seed: int, purpose: int, index: int = 0) -> np.random.Generator:
    """Independent generator for one (seed, purpose, index) triple."""
    key = np.array([seed & _U64, (purpose ^ index) & _U64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def derived_seed(seed: int, purpose: int, index: int = 0) -> int:
    """64-bit sub-seed, for APIs that take a seed rather than a Generator."""
    h = hashlib.blake2b(digest_size=8)
    for part in (seed & _U64, purpose & _U64, index & _U64):
        h.update(int(part).to_bytes(8, "little"))
    return int.from_bytes(h.digest(), "little")


def dataset_digest(sequences) -> str:
    """Order-sensitive fingerprint of a token dataset.

    Covers both lengths and contents, so any edit, reorder, insertion or
    removal changes the digest.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(len(sequences).to_bytes(8, "little"))
    for seq in sequences:
        arr = np.ascontiguousarray(np.asarray(seq, dtype=np.int32))
        h.update(arr.shape[0].to_bytes(8, "little"))
        h.update(arr.tobytes())
    return h.hexdigest()


def params_digest(params: dict) -> str:
    """Fingerprint of a named tensor dict; name order does not matter."""
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name])
        h.update(name.encode("utf-8"))
        h.update(str(arr.dtype).encode("ascii"))
        h.update(repr(arr.shape).encode("ascii"))
        h.update(arr.tobytes())
    return h.hexdigest()


def _json_typed(value, kind) -> bool:
    """Whether a JSON value is a str, an int (neither a bool nor a float) or a
    list of strs, as ``kind`` (str, int or list) asks."""
    if kind is list:
        return isinstance(value, list) and all(isinstance(s, str) for s in value)
    return isinstance(value, kind) and not isinstance(value, bool)


def read_jsonl(path, what: str, fields: dict, build, defaults=None) -> list:
    """``build(record)`` per non-blank line of a JSONL file of ``what`` records.

    ``fields`` maps each key a record must hold to its type, str, int or list
    (of strings); a key of ``defaults`` may be absent.  ``build`` gets those
    keys only.  An unreadable file, a line that is not a JSON object, a
    missing or mistyped field, and a TypeError or ValueError from ``build``
    raise DataError, naming ``path:line`` for a line.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read {what}s {path}: {e}") from e
    out = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            rec = {**(defaults or {}), **json.loads(line)}  # TypeError unless an object
            for key, kind in fields.items():
                if key not in rec or not _json_typed(rec[key], kind):
                    name = "list of str" if kind is list else kind.__name__
                    raise DataError(f"{key!r} must be {name}")
            out.append(build({key: rec[key] for key in fields}))
        except (TypeError, ValueError) as e:  # a JSONDecodeError or DataError among them
            raise DataError(f"{path}:{lineno}: malformed {what}: {e}") from e
    return out


def pin_blas_to_one_thread() -> bool:
    """Set the BLAS library mapped into this process to one thread; False if none is found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as f:
            libs = {line.split()[-1] for line in f if "blas" in line.lower() and ".so" in line}
    except OSError:
        return False
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn(1)  # ctypes passes an int argument as a C int
                return True
    return False
