"""The environment a result was measured in."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import sys
from pathlib import Path

import numpy as np

# Thread-count getters exported by the OpenBLAS builds numpy ships or links.
_BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads")


def git_revision(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(root: Path) -> str:
    """sha256 over the program's source files, which identifies code outside git too."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "airmia").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _loaded_blas_libraries() -> list[str]:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def blas_threads() -> dict:
    """The BLAS thread count in effect and how it was read."""
    for path in _loaded_blas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_GETTERS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return {"count": int(fn()),
                        "method": f"{symbol}() via ctypes on {os.path.basename(path)}"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return {"count": int(os.environ[var]), "method": f"environment {var}"}
    return {"count": None, "method": "no BLAS thread getter found"}


def blas_library() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy releases before 1.26 print instead
        return {"name": None, "version": None, "configuration": None}
    return {"name": deps.get("name"), "version": deps.get("version"),
            "configuration": deps.get("openblas configuration")}


def collect(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_revision": git_revision(root),
        "source_sha256": source_digest(root),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_library(),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }
