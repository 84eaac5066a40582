"""Open-loop HTTP load generator over persistent keep-alive connections.

One process, ``connections`` threads, one HTTP/1.1 connection each —
what real clients use and what exposes transport stalls.  Requests have
fixed due times; a thread that is free sleeps until the next one is
due, one that is late sends at once.  Latency is timed from the due
time, so a stall also charges the requests queued behind it.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

#: Per-request socket timeout; a transport error fails the run.
TIMEOUT_S = 30.0


@dataclass
class Request:
    """One request of a schedule; ``due`` is seconds after the start."""

    due: float
    path: str
    body: dict
    bench_id: str
    meta: dict = field(default_factory=dict)


@dataclass
class Outcome:
    request: Request
    due: float = 0.0          # absolute perf_counter times from here on
    picked: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    payload: Optional[dict] = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == 200 and not self.error

    @property
    def latency_s(self) -> float:
        """From due to the last response byte (includes queueing)."""
        return self.done - self.due

    @property
    def service_s(self) -> float:
        """From send to the last response byte (what the client waited)."""
        return self.done - self.sent

    @property
    def queue_s(self) -> float:
        """How long the request waited for a free connection."""
        return max(0.0, self.picked - self.due)

    @property
    def lag_s(self) -> float:
        """How late a free connection sent it (sleep overshoot)."""
        return max(0.0, self.sent - max(self.due, self.picked))


class LoadGenerator:
    """Drives one server at ``host:port`` with a fixed connection pool."""

    def __init__(self, host: str, port: int, connections: int):
        self.host = host
        self.port = port
        self.connections = connections
        self._conns: list = []

    def __enter__(self) -> "LoadGenerator":
        self._conns = [self._connect() for _ in range(self.connections)]
        return self

    def __exit__(self, *exc) -> None:
        for conn in self._conns:
            conn.close()
        self._conns = []

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=TIMEOUT_S
        )

    def run(self, schedule: list, stop_after_s: Optional[float] = None
            ) -> list:
        """Send ``schedule`` open-loop; returns outcomes in schedule order.

        With ``stop_after_s`` set, requests not yet picked up that long
        after the start are dropped (the caller's ramp gave up on them);
        after a transport error every request not yet sent is dropped.
        """
        outcomes = [Outcome(request=r) for r in schedule]
        start = time.perf_counter()
        for outcome in outcomes:
            outcome.due = start + outcome.request.due
        cursor = [0]
        lock = threading.Lock()
        # A transport error fails the run; stop instead of waiting out
        # a timeout per remaining request.
        failed = threading.Event()

        def worker(slot: int) -> None:
            while True:
                with lock:
                    index = cursor[0]
                    if index >= len(outcomes):
                        return
                    cursor[0] += 1
                outcome = outcomes[index]
                outcome.picked = time.perf_counter()
                if failed.is_set() or (
                        stop_after_s is not None
                        and outcome.picked - start > stop_after_s):
                    outcome.error = "dropped"
                    continue
                delay = outcome.due - outcome.picked
                if delay > 0:
                    time.sleep(delay)
                if not self._send(slot, outcome):
                    failed.set()

        threads = [
            threading.Thread(target=worker, args=(slot,), daemon=True)
            for slot in range(self.connections)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return outcomes

    def _send(self, slot: int, outcome: Outcome) -> bool:
        """One request on connection ``slot``; False on a transport error."""
        request = outcome.request
        body = json.dumps(request.body).encode("utf-8")
        headers = {
            "Content-Type": "application/json",
            "X-Bench-Id": request.bench_id,
        }
        conn = self._conns[slot]
        outcome.sent = time.perf_counter()
        try:
            conn.request("POST", request.path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
            outcome.done = time.perf_counter()
            outcome.status = response.status
            outcome.payload = json.loads(data)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            outcome.done = time.perf_counter()
            outcome.error = f"{type(exc).__name__}: {exc}"
            conn.close()
            self._conns[slot] = self._connect()
            return False
        return True
