"""Serve-workload traffic as a pure function of the seed.

The seed draws which users take part, which lane (client thread and
connection) owns each of them, and the order and content of the events
sent while measuring.  Histories and the basket pool come from a fixture
and never change between runs.

Phases:

* ``preload`` — every chosen user's training history, truncated to the
  model's ``max_history``, sent as ``/v1/events`` as fast as the lane can;
* ``measure`` — an open loop at ``rate`` requests per second: pair ``k``
  is an event for one user, due at ``2k / rate``, then a recommend for the
  same user, due ``1 / rate`` later, so every read follows a write;
* ``check`` — a fixed sample of users, asked for their top 10 after the
  measure phase, to compare with the offline model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

LANES = 2
NUM_USERS = 64
CHECK_USERS = 8
CHECK_Z = 10


@dataclass(frozen=True)
class Request:
    phase: str                  # preload | measure | check
    endpoint: str               # events | recommend
    user_id: int
    basket: Tuple[int, ...] = ()
    due: float = 0.0            # seconds after the phase starts
    z: int = CHECK_Z

    def payload(self) -> Dict[str, object]:
        if self.endpoint == "events":
            return {"user_id": self.user_id, "basket": list(self.basket)}
        return {"user_id": self.user_id, "z": self.z}


@dataclass(frozen=True)
class Plan:
    users: Tuple[int, ...]
    #: Per lane, per phase: the requests that lane sends, in order.
    lanes: Tuple[Dict[str, Tuple[Request, ...]], ...]
    check_users: Tuple[int, ...]
    max_history: int


def make_plan(seed: int, seconds: float, rate: float,
              histories: Dict[int, Sequence[Sequence[int]]],
              max_history: int) -> Plan:
    """The traffic of one run; equal seeds give equal plans."""
    rng = np.random.default_rng(seed)
    pool = sorted(histories)
    users = tuple(int(u) for u in rng.choice(pool, size=NUM_USERS,
                                             replace=False))
    baskets = [tuple(basket) for user in pool for basket in histories[user]]
    owners: List[List[int]] = [list(users[lane::LANES])
                               for lane in range(LANES)]
    lanes: List[Dict[str, List[Request]]] = [
        {"preload": [], "measure": [], "check": []} for _ in range(LANES)]
    for lane, owned in enumerate(owners):
        for user in owned:
            for basket in list(histories[user])[-max_history:]:
                lanes[lane]["preload"].append(
                    Request("preload", "events", user, tuple(basket)))
    pairs = int(seconds * rate / 2)
    lane_of = {user: lane for lane, owned in enumerate(owners)
               for user in owned}
    picks = rng.integers(0, len(users), size=pairs)
    basket_picks = rng.integers(0, len(baskets), size=pairs)
    for k in range(pairs):
        user = users[int(picks[k])]
        due = 2.0 * k / rate
        measure = lanes[lane_of[user]]["measure"]
        measure.append(Request("measure", "events", user,
                               baskets[int(basket_picks[k])], due))
        measure.append(Request("measure", "recommend", user,
                               due=due + 1.0 / rate))
    check_users = users[:CHECK_USERS]
    for user in check_users:
        lanes[lane_of[user]]["check"].append(
            Request("check", "recommend", user))
    frozen = tuple({phase: tuple(reqs) for phase, reqs in lane.items()}
                   for lane in lanes)
    return Plan(users=users, lanes=frozen, check_users=check_users,
                max_history=max_history)


def expected_lengths(plan: Plan) -> Dict[Tuple[int, str, int], int]:
    """``session_length`` each event reply must carry.

    Keyed by (lane, phase, position in that lane's phase); a lane owns its
    users, so their events reach the server in lane order.
    """
    counts: Dict[int, int] = {}
    expected = {}
    for lane_index, lane in enumerate(plan.lanes):
        for phase in ("preload", "measure"):
            for position, req in enumerate(lane[phase]):
                if req.endpoint != "events":
                    continue
                counts[req.user_id] = counts.get(req.user_id, 0) + 1
                expected[(lane_index, phase, position)] = min(
                    counts[req.user_id], plan.max_history)
    return expected


def sent_histories(plan: Plan) -> Dict[int, List[Tuple[int, ...]]]:
    """Every user's events in the order the server received them."""
    history: Dict[int, List[Tuple[int, ...]]] = {}
    for lane in plan.lanes:
        for phase in ("preload", "measure"):
            for req in lane[phase]:
                if req.endpoint == "events":
                    history.setdefault(req.user_id, []).append(req.basket)
    return history
