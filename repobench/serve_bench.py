"""The serve workloads: ``serve``, ``serve_catalog`` and ``serve_workers``.

Each run launches ``python -m repro serve`` ``setup_launches`` times;
set-up is launch to the first ``/healthz`` reporting ``ok`` (checkpoint
loaded), and the median is reported.  The last server then gets the
seed's traffic (:mod:`traffic`): preload, the open-loop measure phase,
and the top-10 check.  Outputs are checked as they arrive:

* every request succeeds;
* each ``/v1/events`` reply's ``session_length`` equals the events the
  user has been sent, capped at the model's ``max_history``;
* no ``/v1/recommend`` after preload falls back to popularity;
* the served top 10 of the check users equals ``Causer.recommend`` on the
  same checkpoint and history, computed here offline;
* every server exits 0, with no process or ``/dev/shm`` segment left.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

import numpy as np

import fixtures
from layers import span_metrics
from loadgen import Outcome, run_lanes
from server import Server
from spans import Span, load
from traffic import Plan, expected_lengths, make_plan, sent_histories

#: Open-loop rate in requests per second, half events and half
#: recommends.  Well below saturation on every workload, so latency
#: reflects service time rather than a growing queue.
RATE = 50.0

#: ``setup_launches`` is the number of launches ``setup_s`` is the median
#: of.  A ``serve_workers`` launch costs about 7.5 s with its drain, so it
#: gets fewer; its longer set-up also varies less relative to its median.
WORKLOADS: Dict[str, Dict] = {
    "serve": {"fixture": fixtures.small_checkpoint, "workers": 1,
              "setup_launches": 5},
    "serve_catalog": {"fixture": fixtures.catalog_checkpoint, "workers": 1,
                      "setup_launches": 5},
    "serve_workers": {"fixture": fixtures.small_checkpoint, "workers": 2,
                      "setup_launches": 3},
}


class Tally:
    """Sent, succeeded and failed requests per (phase, endpoint)."""

    def __init__(self) -> None:
        self.counts: Dict[str, Dict[str, int]] = {}
        self.problems: List[str] = []

    def add(self, outcome: Outcome) -> None:
        key = f"{outcome.request.phase}/{outcome.request.endpoint}"
        row = self.counts.setdefault(key, {"sent": 0, "ok": 0, "failed": 0})
        row["sent"] += 1
        row["ok" if outcome.ok else "failed"] += 1

    @property
    def attempted(self) -> int:
        return sum(row["sent"] for row in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(row["failed"] for row in self.counts.values())


def _load_users(checkpoint_dir: Path) -> Tuple[Dict[int, List], int]:
    data = json.loads((checkpoint_dir / "users.json").read_text())
    histories = {int(user): baskets
                 for user, baskets in data["histories"].items()}
    return histories, int(data["max_history"])


def _drive(server: Server, plan: Plan, tally: Tally, budget_s: float,
           traced: bool) -> Dict[str, List[Outcome]]:
    """Send the three phases; outcomes per phase, in lane order."""
    expected = expected_lengths(plan)
    outcomes: Dict[str, List[Outcome]] = {}
    for phase, open_loop in (("preload", False), ("measure", True),
                             ("check", False)):
        lanes = [lane[phase] for lane in plan.lanes]
        results = run_lanes("127.0.0.1", server.port, lanes, open_loop,
                            budget_s=budget_s,
                            trace_prefix=f"{phase}-" if traced else None)
        outcomes[phase] = []
        for lane_index, lane_results in enumerate(results):
            for position, outcome in enumerate(lane_results):
                tally.add(outcome)
                outcomes[phase].append(outcome)
                _check_reply(outcome, expected.get(
                    (lane_index, phase, position)), tally)
    return outcomes


def _check_reply(outcome: Outcome, expected_length: Optional[int],
                 tally: Tally) -> None:
    if not outcome.ok:
        return
    body = outcome.body or {}
    request = outcome.request
    if request.endpoint == "events":
        if body.get("session_length") != expected_length:
            tally.problems.append(
                f"user {request.user_id}: session_length "
                f"{body.get('session_length')} != {expected_length}")
    elif body.get("source") != "model":
        tally.problems.append(f"user {request.user_id}: recommend fell "
                              f"back to {body.get('source')!r}")


def _check_top10(plan: Plan, checks: List[Outcome], checkpoint: Path,
                 tally: Tally) -> None:
    """Served top 10 == offline ``Causer.recommend`` on the same history."""
    from repro.data.interactions import EvalSample
    from repro.io import load_model
    model = load_model(checkpoint)
    histories = sent_histories(plan)
    for outcome in checks:
        if not outcome.ok:
            continue
        user = outcome.request.user_id
        history = tuple(tuple(b) for b in histories[user][-plan.max_history:])
        offline = model.recommend([EvalSample(user, history, ())],
                                  z=outcome.request.z)[0]
        if outcome.body.get("items") != offline:
            tally.problems.append(f"user {user}: served top-10 "
                                  f"{outcome.body.get('items')} != offline "
                                  f"{offline}")


def _stopped(server: Server, tally: Tally) -> None:
    code = server.stop()
    if code != 0:
        tally.problems.append(f"server exited {code}; see {server.log_path}")
    if server.leaked_processes:
        tally.problems.append(f"server left processes "
                              f"{server.leaked_processes} (killed)")
    if server.leaked_segments:
        tally.problems.append(f"server left /dev/shm segments "
                              f"{server.leaked_segments} (removed)")


def _latency_ms(outcomes: List[Outcome], endpoint: str) -> List[float]:
    return [1e3 * o.latency for o in outcomes
            if o.ok and o.request.endpoint == endpoint]


def _measure_once(workload: str, seed: int, seconds: float, run_dir: Path,
                  tally: Tally, trace_dir: Optional[Path] = None):
    """Launch one server, drive the seed's traffic, check, tear down."""
    spec = WORKLOADS[workload]
    checkpoint_dir = spec["fixture"]()
    histories, max_history = _load_users(checkpoint_dir)
    plan = make_plan(seed, seconds, RATE, histories, max_history)
    server = Server(checkpoint_dir / "model.npz", run_dir,
                    workers=spec["workers"], trace_dir=trace_dir)
    try:
        setup_s = server.start()
        outcomes = _drive(server, plan, tally, budget_s=seconds + 60.0,
                          traced=trace_dir is not None)
        peak_rss_mb = server.peak_rss_mb()
    finally:
        _stopped(server, tally)
    _check_top10(plan, outcomes["check"], checkpoint_dir / "model.npz", tally)
    return setup_s, peak_rss_mb, outcomes


def _launch_only(workload: str, run_dir: Path, tally: Tally) -> float:
    spec = WORKLOADS[workload]
    server = Server(spec["fixture"]() / "model.npz", run_dir,
                    workers=spec["workers"])
    try:
        return server.start()
    finally:
        _stopped(server, tally)


def client_stats(measure: List[Outcome]) -> Dict[str, float]:
    recommends = _latency_ms(measure, "recommend")
    late = [1e3 * max(0.0, o.late) for o in measure]
    return {"client.recommend_p90_ms": float(np.percentile(recommends, 90)),
            "client.recommend_p99_ms": float(np.percentile(recommends, 99)),
            "client.recommend_samples": float(len(recommends)),
            "client.late_p50_ms": median(late),
            "client.late_max_ms": max(late)}


def run(workload: str, seed: int, seconds: float, run_dir: Path) -> Dict:
    """Untraced run: every end-to-end metric plus the verdict."""
    tally = Tally()
    setups = [_launch_only(workload, run_dir, tally)
              for _ in range(WORKLOADS[workload]["setup_launches"] - 1)]
    setup_s, peak_rss_mb, outcomes = _measure_once(workload, seed, seconds,
                                                   run_dir, tally)
    setups.append(setup_s)
    measure = outcomes["measure"]
    recommend_p50 = median(_latency_ms(measure, "recommend"))
    event_p50 = median(_latency_ms(measure, "events"))
    return {
        "problems": tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {"setup_s": median(setups), "peak_rss_mb": peak_rss_mb,
                    "primary_p50_ms": recommend_p50,
                    "secondary_p50_ms": event_p50},
        "detail": {"recommend_p50_ms": recommend_p50,
                   "event_p50_ms": event_p50, "setup_s_each": setups,
                   "requests": tally.counts, **client_stats(measure)},
    }


def run_traced(workload: str, seed: int, seconds: float,
               run_dir: Path) -> Dict:
    """Traced run: an untraced and a traced server on the same traffic.

    Each gets half the seconds; the difference of their recommend p50 is
    the tracing overhead.  Client tails come from the untraced half.
    """
    tally = Tally()
    half = seconds / 2.0
    _, _, plain = _measure_once(workload, seed, half, run_dir, tally)
    trace_dir = run_dir / "trace"
    trace_dir.mkdir()
    setup_s, _, traced = _measure_once(workload, seed, half, run_dir, tally,
                                       trace_dir=trace_dir)
    spans, values = load(sorted(trace_dir.glob("*.jsonl")))
    spans += [Span("client.request", o.sent, o.done, f"client-{o.trace_id}",
                   trace=o.trace_id)
              for phase in traced.values() for o in phase if o.ok]
    metrics = span_metrics(spans, values)
    builds = [s.duration for s in spans if s.name == "serve.build_artifacts"]
    metrics["serve.build_artifacts_share"] = (median(builds) / setup_s
                                              if builds else 0.0)
    recommends = [o for o in traced["measure"]
                  if o.request.endpoint == "recommend"]
    metrics["serve.fallback_share"] = (
        sum(1 for o in recommends if o.ok and o.body.get("source") != "model")
        / len(recommends))
    metrics.update(client_stats(plain["measure"]))
    untraced_p50 = median(_latency_ms(plain["measure"], "recommend"))
    traced_p50 = median(_latency_ms(traced["measure"], "recommend"))
    metrics["trace.overhead_pct"] = (100.0 * (traced_p50 - untraced_p50)
                                     / untraced_p50)
    return {"problems": tally.problems, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics,
            "detail": {"requests": tally.counts}}
