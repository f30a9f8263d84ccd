"""HTTP/1.1 keep-alive load generator: one thread and connection per lane.

Each lane sends its requests in order.  In an open-loop phase a request
is sent at its due time, or as soon as the previous one returns if the
lane is behind; latency is measured from the due time, so a stall counts
against every request it delays, and ``late`` records how far behind the
sender ran.  A closed-loop phase sends each request as soon as the
previous one returns.

The client keeps its connection open between requests when the server
allows it and reconnects when the server closes it.  A request that gets
no response (refused, reset, or no reply within :data:`TIMEOUT_S`) counts
as failed, as does any status other than 200.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from traffic import Request

TIMEOUT_S = 10.0
_RETRYABLE = (http.client.RemoteDisconnected, ConnectionResetError,
              BrokenPipeError)


@dataclass
class Outcome:
    request: Request
    due: float                  # absolute, monotonic clock
    sent: float
    done: float
    status: int                 # 0: no response
    body: Optional[Any]
    trace_id: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


class Client:
    """One keep-alive connection to the server."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)

    def call(self, method: str, path: str,
             payload: Optional[dict] = None):
        """``(status, parsed body)``; ``(0, None)`` when no response came."""
        body = None if payload is None else json.dumps(payload)
        headers = {"Content-Type": "application/json"} if body else {}
        for attempt in (0, 1):
            reused = self.conn.sock is not None
            try:
                self.conn.request(method, path, body=body, headers=headers)
                response = self.conn.getresponse()
                raw = response.read()
            except _RETRYABLE:
                self.conn.close()
                # A kept-alive connection the server already closed fails
                # before any reply; that request is sent again, once.
                if reused and attempt == 0:
                    continue
                return 0, None
            except (OSError, http.client.HTTPException):
                self.conn.close()
                return 0, None
            try:
                return response.status, json.loads(raw)
            except ValueError:
                return response.status, None
        return 0, None

    def close(self) -> None:
        self.conn.close()


def run_lanes(host: str, port: int, lanes: Sequence[Sequence[Request]],
              open_loop: bool, budget_s: float,
              trace_prefix: Optional[str] = None) -> List[List[Outcome]]:
    """Send every lane's requests on its own thread; outcomes per lane.

    Requests still unsent ``budget_s`` after the start count as failed
    without being sent, so a stalled server cannot hold the run forever.
    """
    start = time.monotonic() + 0.05
    deadline = start + budget_s
    results: List[List[Outcome]] = [[] for _ in lanes]

    def lane_main(index: int) -> None:
        client = Client(host, port)
        try:
            for position, request in enumerate(lanes[index]):
                due = start + request.due if open_loop else time.monotonic()
                if time.monotonic() > deadline:
                    results[index].append(Outcome(request, due, deadline,
                                                  deadline, 0, None))
                    continue
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                payload = request.payload()
                trace_id = None
                if trace_prefix is not None:
                    trace_id = f"{trace_prefix}{index}-{position}"
                    payload["trace_id"] = trace_id
                sent = time.monotonic()
                status, body = client.call("POST", "/v1/" + request.endpoint,
                                           payload)
                results[index].append(Outcome(request, due, sent,
                                              time.monotonic(), status, body,
                                              trace_id))
        finally:
            client.close()

    threads = [threading.Thread(target=lane_main, args=(i,), daemon=True,
                                name=f"repobench-lane-{i}")
               for i in range(len(lanes))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results
