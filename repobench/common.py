"""Paths, processes and host facts shared by every part of the benchmark.

The benchmark lives in its own directory next to ``src/``.  Everything it
builds or caches goes under ``.bench_cache/`` at the root of the checkout,
keyed by a digest of the program's sources, so a checkout never reuses a
fixture built by different code.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"

#: Bump when a fixture's recipe changes, so stale caches are rebuilt.
FIXTURE_VERSION = 1


class BenchError(RuntimeError):
    """A failure that ends the run without a result line."""


def require_program() -> None:
    """Fail fast when the checkout holds no program to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources at {SRC / 'repro'}: run the "
                         f"benchmark from the root of a full checkout")


def program_env(extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Environment for program processes: the checkout's ``src`` first.

    BLAS runs one thread per process.  With the host default (one thread
    per vCPU) every BLAS call waits for its slowest thread, so a vCPU the
    host lends elsewhere for a moment stalls the whole call, and the
    figures measure the host's scheduler rather than the program.
    """
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    if extra:
        env.update(extra)
    return env


def source_digest() -> str:
    """Digest of the program sources and the fixture recipe."""
    digest = hashlib.sha256(f"v{FIXTURE_VERSION}".encode())
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    digest.update((BENCH_DIR / "fixtures.py").read_bytes())
    return digest.hexdigest()[:16]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def proc_status_kb(pid: int, field: str) -> int:
    """One ``kB`` field of ``/proc/<pid>/status`` (0 when gone)."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def group_pids(pgid: int) -> List[int]:
    """Live processes whose process group is ``pgid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state ppid pgrp ...
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            pids.append(int(entry))
    return pids


# ----------------------------------------------------------------------
# host record
# ----------------------------------------------------------------------
def cpu_times() -> Dict[str, int]:
    """Aggregate jiffies from ``/proc/stat`` (steal included)."""
    with open("/proc/stat", "r", encoding="ascii") as fh:
        fields = fh.readline().split()[1:]
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq",
             "steal")
    return {name: int(value) for name, value in zip(names, fields)}


def steal_share(before: Dict[str, int], after: Dict[str, int]) -> float:
    total = sum(after.values()) - sum(before.values())
    return (after["steal"] - before["steal"]) / total if total else 0.0


def blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS numpy loaded in this process."""
    import numpy  # noqa: F401 — loads the BLAS library being probed
    with open("/proc/self/maps", "r", encoding="utf-8",
              errors="replace") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and "/" in line})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def host_record() -> Dict[str, object]:
    import numpy
    import scipy
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8",
                  errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads(),
            "program_blas_threads":
                int(program_env()["OPENBLAS_NUM_THREADS"])}


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def emit(record: Dict[str, object]) -> None:
    print(json.dumps(record, sort_keys=True), flush=True)


def now() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.monotonic()


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)

