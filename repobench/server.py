"""Launch ``python -m repro serve``, wait until it is ready, tear it down.

Every server runs in a process group of its own, so teardown reaches the
workers and helper processes it started even if the coordinator dies
first.  Teardown asks for a graceful stop (SIGINT, as Ctrl-C), escalates
to SIGTERM and SIGKILL for the whole group, and then reports any process
of the group still alive and any ``/dev/shm`` segment of the program left
behind (removing both).
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from common import (BENCH_DIR, BenchError, group_pids, now, proc_status_kb,
                    program_env)
from hooks import TRACE_DIR_ENV

SEGMENT_PREFIX = "repro-serve"
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 20.0
_SERVING = re.compile(r"serving on http://([\d.]+):(\d+)")


def shm_segments() -> List[str]:
    try:
        return sorted(name for name in os.listdir("/dev/shm")
                      if name.startswith(SEGMENT_PREFIX))
    except OSError:
        return []


def _unlink_segments(names: List[str]) -> None:
    for name in names:
        try:
            os.unlink(os.path.join("/dev/shm", name))
        except OSError:
            pass


class Server:
    """One server process group: :meth:`start`, then always :meth:`stop`."""

    def __init__(self, checkpoint: Path, run_dir: Path, workers: int = 1,
                 trace_dir: Optional[Path] = None) -> None:
        args = ["--checkpoint", str(checkpoint), "--host", "127.0.0.1",
                "--port", "0"]
        if workers > 1:
            args += ["--workers", str(workers)]
        extra = None
        if trace_dir is None:
            self.argv = [sys.executable, "-m", "repro", "serve", *args]
        else:
            self.argv = [sys.executable, str(BENCH_DIR / "traced_serve.py"),
                         *args]
            extra = {TRACE_DIR_ENV: str(trace_dir)}
        self.env = program_env(extra)
        launched = len(list(run_dir.glob("server-*")))
        self.log_path = run_dir / f"server-{launched}.log"
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.leaked_processes: List[int] = []
        self.leaked_segments: List[str] = []
        self._segments_before = shm_segments()

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> float:
        """Launch and wait for ``/healthz`` to report ``ok``; seconds taken."""
        started = now()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(self.argv, stdout=log,
                                         stderr=subprocess.STDOUT,
                                         stdin=subprocess.DEVNULL,
                                         env=self.env, start_new_session=True)
        deadline = started + READY_TIMEOUT_S
        while not self.port:
            self._check_alive(deadline)
            match = _SERVING.search(self.log_path.read_text(errors="replace"))
            if match:
                self.port = int(match.group(2))
            else:
                time.sleep(0.005)
        while True:
            self._check_alive(deadline)
            status, body = self.get("/healthz")
            if status == 200 and body.get("status") == "ok":
                return now() - started
            time.sleep(0.005)

    def _check_alive(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise BenchError(f"server exited with {self.proc.returncode} "
                             f"during start-up; see {self.log_path}")
        if now() > deadline:
            raise BenchError(f"server not ready after {READY_TIMEOUT_S}s; "
                             f"see {self.log_path}")

    def get(self, path: str):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            return 0, None
        finally:
            conn.close()
        return response.status, json.loads(raw)

    def peak_rss_mb(self) -> float:
        """Peak resident set, summed over every process of the server."""
        pids = group_pids(self.proc.pid)
        return sum(proc_status_kb(pid, "VmHWM") for pid in pids) / 1024.0

    def stop(self) -> int:
        """Stop the whole group; returns the coordinator's exit code."""
        if self.proc is None:
            return 0
        pgid = self.proc.pid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self._signal_group(pgid, signal.SIGTERM)
                try:
                    self.proc.wait(5.0)
                except subprocess.TimeoutExpired:
                    self._signal_group(pgid, signal.SIGKILL)
                    self.proc.wait(5.0)
        # Helpers (the multiprocessing resource tracker) exit once the
        # coordinator is gone; anything still alive after that leaked.
        deadline = now() + 5.0
        while group_pids(pgid) and now() < deadline:
            time.sleep(0.05)
        self.leaked_processes = group_pids(pgid)
        if self.leaked_processes:
            self._signal_group(pgid, signal.SIGKILL)
            deadline = now() + 5.0
            while group_pids(pgid) and now() < deadline:
                time.sleep(0.05)
        self.leaked_segments = [name for name in shm_segments()
                                if name not in self._segments_before]
        _unlink_segments(self.leaked_segments)
        code = self.proc.returncode
        self.proc = None
        return code

    @staticmethod
    def _signal_group(pgid: int, sig: int) -> None:
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            pass
