"""Record the ``train`` workload's HR@10 reference in ``reference.json``.

Usage: ``python3 repobench/make_reference.py``

Trains the ``train`` workload's model once per seed of :data:`SEEDS` (the
seed reorders the training samples; corpus and initialisation are fixed)
and records the median HR@10 with a fixed tolerance.  Fails when the seeds' own
HR@10 values spread wider than that tolerance, since a run would then
fail its check on a correct program.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from statistics import median

import fixtures
import train_bench

#: Absolute HR@10 tolerance: about two binomial standard deviations of
#: HR@10 ≈ 0.18 over the corpus's 1,690 held-out users.
TOLERANCE = 0.02
#: Run seeds the reference is the median over.
SEEDS = (1, 2, 3, 4, 5)


def main() -> int:
    values = {}
    fixtures.train_eventlog()
    with tempfile.TemporaryDirectory(dir=fixtures.CACHE) as tmp:
        for seed in SEEDS:
            job = train_bench.launch(Path(tmp), seed, "full")
            values[seed] = job["hr_at_10"]
            print(f"seed {seed}: hr_at_10 {job['hr_at_10']:.4f}", flush=True)
    center = median(list(values.values()))
    worst = max(abs(value - center) for value in values.values())
    if worst > TOLERANCE:
        print(f"seeds spread {worst:.4f} from the median, wider than the "
              f"tolerance {TOLERANCE}", file=sys.stderr)
        return 1
    train_bench.REFERENCE.write_text(json.dumps({"train": {
        "corpus": f"{fixtures.PROFILE} scale {fixtures.TRAIN_SCALE} "
                  f"data seed {fixtures.DATA_SEED}",
        "model": "Causer (GRU)", "model_seed": fixtures.MODEL_SEED,
        "epochs": fixtures.TRAIN_EPOCHS, "hr_at_10": center,
        "tolerance": TOLERANCE,
        "by_seed": {str(seed): value for seed, value in values.items()},
    }}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
