"""A loopback chat-completions endpoint for tests of the HTTP transport.

It answers each POST through a `respond(body) -> (status, payload)`
callable and records every request it reads, with the connections it
accepts and the ones still open.  In HTTP/1.1 mode a connection stays
open between requests until the client closes it (or `drop_connections`
does); in HTTP/1.0 mode, like `perfbench/stub.py`, each one closes after
its response.  A CONNECT request is recorded and refused with 502, so a
tunnel can be tested without TLS.  The server binds 127.0.0.1 only.
"""
from __future__ import annotations

import json
import socket
import sys
import threading
from contextlib import suppress
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

PROXY_VARIABLES = ("http_proxy", "https_proxy", "all_proxy", "no_proxy")


def clear_proxies(monkeypatch) -> None:
    """Unset the proxy variables urllib reads, in either case."""
    for name in PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


def completion(content: str) -> tuple[int, bytes]:
    """A 200 response whose message content is `content`."""
    return 200, json.dumps({"choices": [{"message": {"content": content}}]}).encode()


def empty_answer(body: bytes) -> tuple[int, bytes]:
    return completion("[]")


@dataclass(frozen=True)
class Request:
    method: str
    target: str          # the path, or the whole URL when sent to a proxy
    headers: dict[str, str]
    body: bytes


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    # room for every slot of a run to connect at once: with the default
    # backlog of 5, a connect that overflows it waits for the SYN to be
    # sent again, a second later
    request_queue_size = 64

    def handle_error(self, request, client_address) -> None:
        # a client that stopped waiting for an answer has closed its end
        if not isinstance(sys.exc_info()[1], OSError):
            super().handle_error(request, client_address)


class Endpoint:
    def __init__(self, respond: Callable[[bytes], tuple[int, bytes]] = empty_answer,
                 *, http11: bool = True):
        self.requests: list[Request] = []
        self.accepted = 0
        self._open: set[socket.socket] = set()
        self._changed = threading.Condition()
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if http11 else "HTTP/1.0"
            timeout = 30        # an idle connection the client never closes ends at last
            # the headers and the body go out in two sends: with Nagle's
            # algorithm on, a kept-alive connection would hold the body back
            # until the client's delayed ACK of the headers, some 40 ms
            disable_nagle_algorithm = True

            def setup(self) -> None:
                super().setup()
                with endpoint._changed:
                    endpoint.accepted += 1
                    endpoint._open.add(self.connection)

            def finish(self) -> None:
                try:
                    super().finish()
                finally:
                    with endpoint._changed:
                        endpoint._open.discard(self.connection)
                        endpoint._changed.notify_all()

            def _record(self, body: bytes) -> None:
                with endpoint._changed:
                    endpoint.requests.append(Request(self.command, self.path,
                                                     dict(self.headers), body))

            def do_POST(self) -> None:
                body = self.rfile.read(int(self.headers["Content-Length"]))
                self._record(body)
                status, payload = respond(body)
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def do_CONNECT(self) -> None:
                self._record(b"")
                self.send_error(502, "no tunnels here")

            def log_message(self, *args) -> None:
                pass

        self._server = _Server(("127.0.0.1", 0), Handler)
        # a short poll, so that `shutdown` returns at once
        self._thread = threading.Thread(target=self._server.serve_forever, args=(0.05,),
                                        daemon=True)

    @property
    def address(self) -> str:
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    @property
    def base_url(self) -> str:
        return f"http://{self.address}/v1"

    def open_connections(self) -> int:
        with self._changed:
            return len(self._open)

    def wait_closed(self, timeout: float = 5.0) -> bool:
        """Whether every accepted connection is closed within `timeout` seconds."""
        with self._changed:
            return self._changed.wait_for(lambda: not self._open, timeout)

    def drop_connections(self) -> None:
        """Close every open connection from the server's side, as a server
        does with a connection idle too long, and wait until they are gone."""
        self._shut_open()
        assert self.wait_closed()

    def _shut_open(self) -> None:
        with self._changed:
            for connection in self._open:
                with suppress(OSError):         # its handler may be closing it
                    connection.shutdown(socket.SHUT_RDWR)

    def __enter__(self) -> "Endpoint":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=30)
        self._shut_open()
        self.wait_closed()
