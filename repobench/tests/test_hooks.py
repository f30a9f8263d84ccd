"""Each wrapped call is timed under the layer it was called through."""

import os
import subprocess
import sys

from common import BENCH_DIR, SRC

# Runs in a fresh interpreter: ``install`` patches the program's modules
# for the life of the process, and the case below needs them unimported.
PROBE = """
import numpy as np
import hooks
from spans import Recorder

recorder = Recorder()
hooks.install(recorder)
import repro.models.base as base
import repro.serve.http as http

http.rank_top_z(np.arange(12.0).reshape(2, 6), 3)
print(sorted(span.name for span in recorder.spans))
recorder.spans.clear()
base.rank_top_z(np.arange(12.0).reshape(2, 6), 3)
print(sorted(span.name for span in recorder.spans))
"""


def test_serving_rank_is_not_timed_as_evaluation():
    env = dict(os.environ, PYTHONPATH=f"{BENCH_DIR}{os.pathsep}{SRC}")
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["['serve.rank']", "['eval.rank']"]
