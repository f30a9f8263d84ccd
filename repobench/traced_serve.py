"""``python -m repro serve`` with every layer wrapped in spans.

Usage: ``python repobench/traced_serve.py <serve flags>``, with
``REPOBENCH_TRACE_DIR`` naming the directory span files go to.  The
coordinator and each ``--workers`` worker write one file each when they
shut down (SIGINT, as for the plain server).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import hooks
from spans import Recorder


def main(argv) -> int:
    trace_dir = Path(os.environ[hooks.TRACE_DIR_ENV])
    recorder = Recorder()
    hooks.install(recorder)
    from repro.serve import mp
    mp.worker_main = hooks.traced_worker_main
    from repro.cli import main as cli_main
    try:
        return cli_main(["serve", *argv])
    finally:
        recorder.dump(hooks.span_file(trace_dir))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
