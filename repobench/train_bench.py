"""The ``train`` workload: Algorithm 1 on an event-log corpus, then eval.

Set-up is timed from launching a training process to its first training
batch; :data:`SETUP_LAUNCHES` processes are launched per run (all but the
last stop at that batch) and the median is reported.  The last process
trains ``fixtures.TRAIN_EPOCHS`` epochs.  The gated time is the median
training step (one batch of Algorithm 1: assembly, negatives, forward,
backward, optimizer) over all of them; the median epoch, ``epoch_s``, is
reported beside it.  Held-out users are evaluated over the full catalog
through ``repro.eval.evaluate_model`` after every epoch and with the
trained model; ``eval_users_per_s`` is the median over calls of 128 users.
HR@10 of the trained model is checked against ``reference.json``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

import fixtures
from common import BENCH_DIR, BenchError, now, program_env
from layers import span_metrics
from spans import load

SETUP_LAUNCHES = 5
JOB_TIMEOUT_S = 150.0
REFERENCE = BENCH_DIR / "reference.json"


def launch(run_dir: Path, seed: int, mode: str, seconds: float = 0.0,
           trace_dir: Optional[Path] = None) -> Dict:
    """Run one training process; its result with ``setup_s`` added."""
    out = run_dir / f"job-{len(list(run_dir.glob('job-*')))}.json"
    argv = [sys.executable, str(BENCH_DIR / "train_job.py"),
            "--eventlog", str(fixtures.train_eventlog()),
            "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--mode", mode,
            "--out", str(out)]
    if trace_dir is not None:
        argv += ["--trace-dir", str(trace_dir)]
    launched = now()
    try:
        proc = subprocess.run(argv, env=program_env(), capture_output=True,
                              text=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"training process timed out after "
                         f"{JOB_TIMEOUT_S}s") from exc
    if proc.returncode != 0:
        raise BenchError(f"training process exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    result = json.loads(out.read_text())
    result["setup_s"] = result["first_batch"] - launched
    return result


def reference() -> Dict:
    return json.loads(REFERENCE.read_text())["train"]


def check(job: Dict, problems: List[str]) -> None:
    ref = reference()
    if len(job["epochs"]) != fixtures.TRAIN_EPOCHS:
        problems.append(f"trained {len(job['epochs'])} epochs, "
                        f"expected {fixtures.TRAIN_EPOCHS}")
    if ref["epochs"] != fixtures.TRAIN_EPOCHS:
        problems.append(f"reference recorded for {ref['epochs']} epochs")
    if abs(job["hr_at_10"] - ref["hr_at_10"]) > ref["tolerance"]:
        problems.append(f"hr_at_10 {job['hr_at_10']:.4f} outside "
                        f"{ref['hr_at_10']:.4f} ± {ref['tolerance']}")


def run(seed: int, seconds: float, run_dir: Path) -> Dict:
    """Untraced run: every end-to-end metric plus the verdict."""
    setups = [launch(run_dir, seed, "setup")["setup_s"]
              for _ in range(SETUP_LAUNCHES - 1)]
    job = launch(run_dir, seed, "full", seconds=seconds)
    setups.append(job["setup_s"])
    problems: List[str] = []
    check(job, problems)
    step_ms = 1e3 * median(job["steps"])
    epoch_s = median(job["epochs"])
    eval_users_per_s = median(job["eval_rates"])
    return {
        "problems": problems,
        "attempted": len(job["epochs"]) + job["eval_users"],
        "failed": 0,
        "metrics": {
            "setup_s": median(setups),
            "peak_rss_mb": job["peak_rss_kb"] / 1024.0,
            "primary_p50_ms": step_ms,
            "secondary_p50_ms": 1e3 / eval_users_per_s,
        },
        "detail": {"epoch_s": epoch_s, "epochs_s": job["epochs"],
                   "steps": len(job["steps"]),
                   "eval_users_per_s": eval_users_per_s,
                   "eval_chunks": job["eval_chunks"],
                   "hr_at_10": job["hr_at_10"], "losses": job["losses"],
                   "setup_s_each": setups,
                   "blas_threads_seen_by_program": job["blas_threads"]},
    }


def run_traced(seed: int, seconds: float, run_dir: Path) -> Dict:
    """Traced run: per-layer metrics; odd epochs untraced for the overhead."""
    trace_dir = run_dir / "trace"
    trace_dir.mkdir()
    job = launch(run_dir, seed, "full", seconds=seconds, trace_dir=trace_dir)
    problems: List[str] = []
    check(job, problems)
    spans, values = load(sorted(trace_dir.glob("*.jsonl")))
    metrics = span_metrics(spans, values)
    untraced = median(job["epochs"][0::2])
    traced = median(job["epochs"][1::2])
    lookups = job["expm_hits"] + job["expm_misses"]
    metrics["causal.expm_hit_share"] = (job["expm_hits"] / lookups
                                        if lookups else 0.0)
    metrics["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    return {"problems": problems,
            "attempted": len(job["epochs"]) + job["eval_users"],
            "failed": 0, "metrics": metrics,
            "detail": {"epochs_s": job["epochs"],
                       "hr_at_10": job["hr_at_10"]}}

