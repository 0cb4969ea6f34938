"""What a run executed on: BLAS and its threads, library versions, CPUs, code."""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
from pathlib import Path

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
)


def _blas_threads() -> int | None:
    """Ask the BLAS library mapped into this process for its thread count."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as f:
            libs = {line.split()[-1] for line in f if "blas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_rev(root: Path) -> str | None:
    """HEAD of the repository rooted exactly at ``root``, if there is one."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return None
    return lines[1]


def source_digest(src: Path) -> str:
    """blake2b over every file of the package, so a checkout without git
    still names the code it ran."""
    h = hashlib.blake2b(digest_size=12)
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def collect(root: Path) -> dict:
    import numpy as np
    import scipy

    from packbert import kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    backend = getattr(kernels, "backend_name", None)
    attn = getattr(kernels, "attn_forward", None)
    return {
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_rev": _git_rev(root),
        "src_digest": source_digest(root / "src" / "packbert"),
        "attention_kernel": backend() if callable(backend) else (
            f"{attn.__module__}.{attn.__name__}" if attn is not None else None
        ),
    }
