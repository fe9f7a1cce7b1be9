"""Environment record attached to every benchmark output: interpreter and
library versions, BLAS threads, CPU and caches, the code measured, and the
computed working set of the workload."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path

import numpy as np


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str:
    text = _read(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict:
    """Data and unified cache sizes of CPU 0, keyed by level (L1d, L2, L3)."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        kind, level, size = (_read(index / f) for f in ("type", "level", "size"))
        if kind in ("Data", "Unified") and level and size:
            out[f"L{level}" + ("d" if kind == "Data" else "")] = size
    return out


def _openblas() -> list[dict]:
    """Every OpenBLAS loaded into this process, with its configuration and
    the thread count it will use."""
    paths = set()
    for line in (_read(Path("/proc/self/maps")) or "").splitlines():
        if "openblas" in line.lower() and "/" in line:
            paths.add(line[line.index("/"):])
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                entry["threads"] = threads()
                entry["config"] = config().decode()
                break
            if "threads" in entry:
                break
        found.append(entry)
    return found


def _git_commit(root: Path) -> str:
    head = _read(root / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(root / ".git" / ref)
    if commit:
        return commit
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def source_digest(src: Path) -> str:
    """sha256 over the package sources, identifying the code measured even
    where there is no git metadata."""
    h = hashlib.sha256()
    for path in sorted((src / "expgrad").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def record(root: Path, seed: int, working_set: dict) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas": _openblas(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches_cpu0": _caches(),
        "git_commit": _git_commit(root),
        "source_sha256_16": source_digest(root / "src"),
        "seed": seed,
        "working_set": working_set,
    }
