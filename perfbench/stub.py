"""Loopback stand-in for an OpenAI-compatible chat-completions endpoint.

Answers every request from the generator's plan after a fixed delay and
records, per request, the task, the segment text, and the arrival and
reply times.  Those records give the scheduling metrics of the live
path: round trips on a segment's critical path, mean in-flight requests,
and the client-side gap between one reply and the next request of the
same segment.  The server binds 127.0.0.1 only.
"""
from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ppanalyze.extraction.prompts import ENTITIES_MARK, SEGMENT_MARK


def segment_of(user: str) -> str:
    if user.startswith(SEGMENT_MARK + "\n"):
        return user[len(SEGMENT_MARK) + 1:].split("\n" + ENTITIES_MARK, 1)[0]
    return user


class StubEndpoint:
    """Serve planned responses: `table` maps (task, system, user) -> text."""

    def __init__(self, table: dict, delay_s: float):
        self.delay_s = delay_s
        self.answers = {(system, user): (task, text) for (task, system, user), text in table.items()}
        self.calls: list[tuple[str, str, float, float]] = []   # task, segment, arrival, reply
        self.unknown = 0
        self._lock = threading.Lock()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self) -> None:
                arrival = time.perf_counter()
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                messages = {m["role"]: m["content"] for m in body["messages"]}
                hit = stub.answers.get((messages.get("system"), messages.get("user")))
                time.sleep(stub.delay_s)
                if hit is None:
                    with stub._lock:
                        stub.unknown += 1
                    self.send_error(400, "prompt not in the plan")
                    return
                task, text = hit
                payload = json.dumps({"choices": [{"message": {"role": "assistant",
                                                               "content": text}}]}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)
                reply = time.perf_counter()
                with stub._lock:
                    stub.calls.append((task, segment_of(messages["user"]), arrival, reply))

            def log_message(self, *args) -> None:
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1"

    def __enter__(self) -> "StubEndpoint":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=30)

    def reset(self) -> None:
        with self._lock:
            self.calls.clear()
            self.unknown = 0

    def schedule_metrics(self, unique_segments: set[str]) -> dict:
        """Scheduling metrics over segments whose text occurs once in the
        corpus (so their calls are not mixed with another segment's) and
        that ran classification or relation queries."""
        with self._lock:
            calls = list(self.calls)
        if not calls:
            return {}
        by_segment: dict[str, list[tuple[float, float]]] = {}
        for task, segment, arrival, reply in calls:
            if segment in unique_segments:
                by_segment.setdefault(segment, []).append((arrival, reply))
        paths, gaps = [], []
        for spans in by_segment.values():
            if len(spans) <= 4:          # recognition only: no entities
                continue
            spans.sort()
            paths.append((max(r for _, r in spans) - spans[0][0]) / self.delay_s)
            gaps += [max(0.0, spans[k + 1][0] - spans[k][1]) for k in range(len(spans) - 1)]
        start = min(a for _, _, a, _ in calls)
        end = max(r for _, _, _, r in calls)
        return {
            "critical_path_round_trips": sum(paths) / len(paths) if paths else 0.0,
            "in_flight_mean": sum(r - a for _, _, a, r in calls) / (end - start),
            "inter_call_gap_s.p50": percentile(gaps, 0.5),
            "inter_call_gap_s.p90": percentile(gaps, 0.9),
        }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
