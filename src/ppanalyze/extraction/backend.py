"""Pluggable model backend with record/replay response caching.

One call to `Backend.invoke` is exactly one model query (plus transport
retries).  Every answer goes through one table, a `ResponseCache` keyed
by the digest of (model, task, system text, user text) and backed by an
append-friendly JSONL file, one `cache_record` per response; temperature
is pinned at 0 and therefore excluded.  Replay mode needs a cache file
that exists; on a miss it never touches the network and fails loudly,
which makes every downstream run deterministic and offline.  Record
mode asks the model once per distinct prompt in a run (equal prompts in
flight together share one ask; a failed ask stores nothing) and appends
the answer, so every run that asks the model can be replayed, and an
interrupted one resumes without asking again.  An answer that cannot be
encoded as UTF-8 (a lone surrogate) is an error, whether the model or
the cache gave it, and so is a completion whose body is not UTF-8 JSON
or whose message content is not a string.  Credentials come only from
the environment (PPA_API_KEY, falling back to OPENAI_API_KEY).

Record mode asks the model through `HttpTransport`, which holds one
`http.client` connection per request in flight and keeps it alive while
the server allows, so a run opens at most as many connections as it has
request slots.  A recorded answer reaches the cache file in one write.

A config names only the model, cache mode and cache path.  The HTTP
timeout and the retries of a transport error (3, after 0.5, 1 and 2 s)
are fixed here.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
import threading
import time
import warnings
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Optional, Union

from .. import Error
from .prompts import PromptMessages, TaskKind

API_KEY_ENV = "PPA_API_KEY"
API_KEY_FALLBACK_ENV = "OPENAI_API_KEY"
API_BASE_ENV = "PPA_API_BASE"
DEFAULT_API_BASE = "https://api.openai.com/v1"

RETRYABLE_HTTP = {408, 409, 429, 500, 502, 503, 504}
_MAX_RETRIES = 3
_RETRY_BASE_DELAY = 0.5     # seconds before the first retry, doubled for each next one
_TIMEOUT = 60.0             # seconds per HTTP request


class BackendError(Error):
    # the prompt digest of the call that failed, set by `Backend.invoke`
    digest: Optional[str] = None


class TransportError(BackendError):
    pass


@dataclass(frozen=True, kw_only=True)
class BackendConfig:
    model_name: str = "gpt-4o-mini"
    cache_mode: str = "record"        # "record" | "replay"
    cache_path: Path

    def __post_init__(self) -> None:
        if self.cache_mode not in ("record", "replay"):
            raise BackendError(f"unknown cache mode {self.cache_mode!r}; "
                               "choose record or replay")


# one encoder for every digest and append: `json.dumps` with a
# non-default argument builds a new encoder on each call
_encode = json.JSONEncoder(ensure_ascii=False).encode


@lru_cache(maxsize=64)
def _digest_prefix(model: str, task: str, system: str):
    """The hash state after the digest payload's first three items.  Never
    updated: callers copy it."""
    return hashlib.sha256(_encode([model, task, system])[:-1].encode("utf-8") + b", ")


def prompt_digest(model: str, task: str, prompt: PromptMessages) -> str:
    """SHA-256 of the UTF-8 bytes of `_encode([model, task, system, user])`.

    A query's model, task and system text repeat on every segment, so
    their prefix is hashed once.  The encoder writes a list as its items'
    encodings between "[" and "]", separated by ", ".
    """
    h = _digest_prefix(model, task, prompt.system).copy()
    h.update((_encode(prompt.user) + "]").encode("utf-8"))
    return h.hexdigest()


def cache_record(model: str, task: str, prompt: PromptMessages, response: str,
                 timestamp: Optional[str] = None) -> dict:
    """The cache line of one answer; `timestamp` defaults to the current UTC second."""
    return {
        "key": prompt_digest(model, task, prompt),
        "model": model,
        "task": task,
        "prompt": {"system": prompt.system, "user": prompt.user},
        "response": response,
        "timestamp": timestamp or time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# the answer memo beside a cache of at least this many bytes; below it a
# parse takes a few milliseconds
_MEMO_MIN_BYTES = 1 << 20
_MEMO_FORMAT = "ppanalyze-answer-memo-1"     # change it whenever the parse keeps other answers
_MEMO_CHUNK = 1000          # answers per memo line
_HASH_BLOCK = 1 << 16


def _read_answer(line: Union[str, bytes]) -> tuple[str, str]:
    """The key and response of one cache line."""
    record = json.loads(line)
    if not (isinstance(record, dict) and isinstance(record.get("key"), str)
            and isinstance(record.get("response"), str)):
        raise ValueError("not a record with a string key and response")
    return record["key"], record["response"]


class ResponseCache:
    """JSONL-backed response store; writes are serialized.

    Memory holds each key's answer and nothing else: the prompt, model
    and timestamp of a record stay in the file.  A cache of at least
    1 MiB keeps its answer table in a memo file beside it (`<name>.memo`),
    bound to the size and SHA-256 of the bytes parsed: a load of the same
    bytes reads the memo instead of every record.  Any other load parses
    every record and writes the memo anew; a memo that is missing, stale
    or malformed, or that cannot be written, is never an error.

    The first record of a key is the one kept, on load as on `put`, so a
    key appended twice replays the answer recorded first.

    A final line without a trailing newline that does not parse is a torn
    append (a crash mid-write): it is skipped with a warning and cut off
    before the next `put`, unless a line ends after it by then (another
    process cut it and appended).  Any other unparseable line, or one
    that is not UTF-8, is fatal and named by its line number.  A cache that
    exists but cannot be read is fatal too.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._answers: dict[str, str] = {}
        # byte offset to truncate to, and whether the tail lacks its newline
        self._torn_at: Optional[int] = None
        self._unterminated = False
        self._dir_made = False      # the cache's directory, made on the first append
        try:
            with self.path.open("rb") as f:
                header = self._load(f)
        except FileNotFoundError:       # only the open can raise it: a new cache
            return
        except OSError as exc:
            raise BackendError(f"cannot read cache {self.path}: {exc}") from exc
        self._torn_at, self._unterminated = header["torn_at"], header["unterminated"]
        if header["torn_line"] is not None:
            warnings.warn(f"skipped torn last line {header['torn_line']} in {self.path} "
                          f"({header['torn_bytes']} bytes without a newline)", stacklevel=2)

    def _load(self, f) -> dict:
        """Fill the table from the open cache `f`, through its memo when
        the memo matches; the memo header that describes `f`'s bytes."""
        size = os.fstat(f.fileno()).st_size
        if size < _MEMO_MIN_BYTES:
            return self._parse(f)
        memo = self.path.with_name(self.path.name + ".memo")
        header = self._read_memo(memo, f, size)
        if header is None:
            f.seek(0)
            header = self._parse(f)
            self._write_memo(memo, header)
        return header

    def _parse(self, f) -> dict:
        """Fill the table from every line of `f`; the memo header of the
        bytes read."""
        digest = hashlib.sha256()
        offset = line_no = 0
        tail = b""
        for raw in f:
            digest.update(raw)
            line_no += 1
            if not raw.endswith(b"\n"):
                tail = raw
                break
            offset += len(raw)
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise BackendError(f"cache line {line_no} in {self.path} is not UTF-8: "
                                   f"{exc}") from exc
            if not line.strip():
                continue
            try:
                key, answer = _read_answer(line)
            except ValueError as exc:
                raise BackendError(f"corrupt cache line {line_no} in {self.path}: "
                                   f"{exc}") from exc
            self._answers.setdefault(key, answer)
        header = {"format": _MEMO_FORMAT, "size": offset + len(tail),
                  "sha256": digest.hexdigest(), "torn_at": None, "unterminated": False,
                  "torn_line": None, "torn_bytes": None}
        if tail.strip():
            try:
                key, answer = _read_answer(tail)
            except ValueError:
                header.update(torn_at=offset, torn_line=line_no, torn_bytes=len(tail))
            else:
                self._answers.setdefault(key, answer)
                header["unterminated"] = True
        header["answers"] = len(self._answers)
        return header

    def _read_memo(self, memo: Path, f, size: int) -> Optional[dict]:
        """The header of `memo` after filling the table from it, or None
        and an empty table when it is not a whole memo of `f`'s bytes."""
        try:
            with memo.open("rb") as m:
                header = json.loads(m.readline())
                if not (isinstance(header, dict) and header.get("format") == _MEMO_FORMAT
                        and header.get("size") == size):
                    return None
                digest, read = hashlib.sha256(), 0
                for block in iter(partial(f.read, _HASH_BLOCK), b""):
                    digest.update(block)
                    read += len(block)
                if read != size or header.get("sha256") != digest.hexdigest():
                    return None
                for line in m:
                    chunk = json.loads(line)
                    if not (isinstance(chunk, dict)
                            and all(type(answer) is str for answer in chunk.values())):
                        raise ValueError("a memo line is not an object of answers")
                    self._answers.update(chunk)
            if len(self._answers) != header.get("answers"):
                raise ValueError("the memo is cut short")
            return header
        except (OSError, ValueError):
            self._answers.clear()
            return None

    def _write_memo(self, memo: Path, header: dict) -> None:
        """Write `memo` whole or not at all: a failed write leaves no file."""
        tmp = memo.with_name(f"{memo.name}.{os.getpid()}.tmp")
        try:
            with tmp.open("w", encoding="ascii") as m:
                m.write(json.dumps(header) + "\n")
                answers = iter(self._answers.items())
                while chunk := dict(islice(answers, _MEMO_CHUNK)):
                    m.write(json.dumps(chunk) + "\n")
            os.replace(tmp, memo)
        except OSError:
            with suppress(OSError):
                tmp.unlink()

    def __len__(self) -> int:
        return len(self._answers)

    def get(self, digest: str) -> Optional[dict]:
        """The stored record of `digest` as `{"key", "response"}`, or None."""
        answer = self._answers.get(digest)
        return None if answer is None else {"key": digest, "response": answer}

    def put(self, record: dict) -> None:
        """Store a record unless its key is already stored: like a replay,
        every reader sees the first answer.  A new record is appended in
        one `os.write` loop on an `O_APPEND` descriptor, with the newline
        that ends an unterminated last line, so each record reaches the
        file in one write."""
        key = record["key"]
        line = (_encode(record) + "\n").encode("utf-8")
        with self._lock:
            if key in self._answers:
                return
            self._answers[key] = record["response"]
            if not self._dir_made:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._dir_made = True
            if self._torn_at is not None:
                # cut only a tail that is still one line without a newline:
                # another process may have cut it and appended since the load
                with self.path.open("r+b") as f:
                    f.seek(self._torn_at)
                    tail = f.readline()
                    if tail and not tail.endswith(b"\n"):
                        f.truncate(self._torn_at)
                self._torn_at = None
            if self._unterminated:
                line = b"\n" + line
                self._unterminated = False
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
            try:
                data = memoryview(line)
                while data:
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)


@dataclass(frozen=True)
class BackendResponse:
    raw: str
    digest: str
    from_cache: bool        # the answer was in the cache file before this run


def _read_api_key() -> str:
    key = os.environ.get(API_KEY_ENV) or os.environ.get(API_KEY_FALLBACK_ENV)
    if not key:
        raise BackendError(
            f"no API credentials: set {API_KEY_ENV} (or {API_KEY_FALLBACK_ENV}) "
            "in the environment, or run with --replay"
        )
    return key


class HttpTransport:
    """POSTs chat completions to an OpenAI-compatible endpoint, one request
    per call, over connections kept alive between calls.

    The endpoint (`PPA_API_BASE`) and the API key are read when the
    transport is built; the proxy route on its first request, from the
    variables urllib honours (`http_proxy`, `https_proxy`, `no_proxy`).
    An https endpoint behind a proxy is reached through a CONNECT tunnel,
    and a proxy URL's `user:password@` becomes a `Proxy-Authorization`
    header.  Redirects are not followed.

    A call takes an idle connection, or opens one when none is idle, and
    puts it back when its response is read, so there are never more
    connections than requests in flight at once.  `http.client` reopens
    a connection the server closed.  A connection whose request failed is
    closed, so the retry of that call connects anew.  Nothing HTTP is
    imported until the first request.
    """

    def __init__(self) -> None:
        base = os.environ.get(API_BASE_ENV, DEFAULT_API_BASE).rstrip("/")
        self._url = f"{base}/chat/completions"
        scheme, sep, rest = self._url.partition("://")
        self._scheme = scheme.lower()
        if not sep or self._scheme not in ("http", "https"):
            raise BackendError(f"{API_BASE_ENV} must be an http or https URL, not {base!r}")
        self._host, _, path = rest.partition("/")
        self._target = "/" + path       # the request target: the URL itself through a proxy
        self._headers = {
            "Content-Type": "application/json",
            "Authorization": f"Bearer {_read_api_key()}",
            # the agent urllib named, so that the endpoint sees the same request
            "User-Agent": "Python-urllib/%d.%d" % sys.version_info[:2],
        }
        self._open: Optional[Callable[[], Any]] = None     # a new connection, once routed
        self._idle: list = []
        self._lock = threading.Lock()

    def __call__(self, prompt: PromptMessages, config: BackendConfig) -> str:
        body = json.dumps({
            "model": config.model_name,
            "temperature": 0.0,           # pinned: the cache digest leaves it out
            "messages": [
                {"role": "system", "content": prompt.system},
                {"role": "user", "content": prompt.user},
            ],
        }).encode("utf-8")
        import http.client      # here, not at the top: a replay never loads the HTTP client
        with self._lock:
            if self._open is None:
                self._route()
            connection = self._idle.pop() if self._idle else self._open()
        try:
            connection.request("POST", self._target, body, self._headers)
            response = connection.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException) as exc:
            connection.close()
            raise TransportError(f"transport failure: {exc}") from exc
        finally:
            with self._lock:        # even closed: its next request reconnects
                self._idle.append(connection)
        if not 200 <= response.status < 300:
            if response.status in RETRYABLE_HTTP:
                raise TransportError(f"HTTP {response.status} from model endpoint")
            raise BackendError(f"HTTP {response.status} from model endpoint: "
                               f"{payload[:200]!r}")
        try:
            content = json.loads(payload.decode("utf-8"))["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError):     # not UTF-8 JSON, or another shape
            content = None
        if not isinstance(content, str):
            raise BackendError("unexpected completion payload: "
                               f"{payload.decode('utf-8', 'replace')!r:.200}")
        return content

    def _route(self) -> None:
        """Choose how to reach the endpoint: directly, through a proxy, or
        through a tunnel that a proxy opens."""
        import base64
        import http.client
        import urllib.parse
        import urllib.request
        kinds = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}
        proxy = urllib.request.getproxies().get(self._scheme)
        if not proxy or urllib.request.proxy_bypass(self._host):
            self._open = partial(kinds[self._scheme], self._host, timeout=_TIMEOUT)
            return
        if "://" not in proxy:          # a bare host:port proxies with the endpoint's scheme
            proxy = f"{self._scheme}://{proxy}"
        proxy_scheme, _, rest = proxy.partition("://")
        userinfo, _, proxy_host = rest.split("/", 1)[0].rpartition("@")
        user, _, password = userinfo.partition(":")
        auth = {}
        if user and password:
            credentials = f"{urllib.parse.unquote(user)}:{urllib.parse.unquote(password)}"
            auth["Proxy-Authorization"] = \
                "Basic " + base64.b64encode(credentials.encode()).decode("ascii")
        proxy_host = urllib.parse.unquote(proxy_host)
        if self._scheme == "https":
            self._open = partial(self._tunnel, proxy_host, auth)
            return
        if proxy_scheme.lower() not in kinds:
            raise BackendError(f"unsupported proxy for {self._scheme}: {proxy!r}")
        self._open = partial(kinds[proxy_scheme.lower()], proxy_host, timeout=_TIMEOUT)
        self._target = self._url
        self._headers = {**self._headers, **auth}

    def _tunnel(self, proxy_host: str, auth: dict):
        """A TLS connection to the endpoint inside a CONNECT tunnel through `proxy_host`."""
        import http.client
        connection = http.client.HTTPSConnection(proxy_host, timeout=_TIMEOUT)
        connection.set_tunnel(self._host, headers=auth)
        return connection

    def close(self) -> None:
        """Close every connection; call it when no request is in flight."""
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()


Transport = Callable[[PromptMessages, BackendConfig], str]


def _utf8(raw: str, digest: str) -> str:
    """`raw` if it can be encoded as UTF-8, else a BackendError."""
    try:
        raw.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise BackendError(f"answer for digest {digest} is not valid UTF-8: "
                           f"{exc.reason} at index {exc.start}") from None
    return raw


class Backend:
    """Executes model queries under the configured cache mode.

    Thread-safe: the cache serializes writes, equal prompts in flight ask
    once under their digest's lock, and the counters are lock-protected.
    """

    def __init__(self, config: BackendConfig, transport: Optional[Transport] = None):
        if config.cache_mode == "replay" and not config.cache_path.exists():
            raise BackendError(f"replay cache {config.cache_path} does not exist")
        self.config = config
        self.cache = ResponseCache(config.cache_path)
        self._asking: dict[str, threading.Lock] = {}     # each digest missed in this run
        # built here when none is given, so that missing credentials fail
        # before any processing, not mid-run; a replay asks no model
        self._http = (HttpTransport() if transport is None
                      and config.cache_mode != "replay" else None)
        self.transport: Optional[Transport] = transport or self._http
        self.invocations = 0
        self.transport_calls = 0
        self._count_lock = threading.Lock()

    def close(self) -> None:
        """Close the connections of the transport built here; a transport
        passed in stays the caller's."""
        if self._http is not None:
            self._http.close()

    def invoke(self, task: TaskKind, prompt: PromptMessages) -> BackendResponse:
        with self._count_lock:
            self.invocations += 1
        digest = prompt_digest(self.config.model_name, task.value, prompt)
        try:
            record = self.cache.get(digest)
            if record is None:
                if self.config.cache_mode == "replay":
                    raise BackendError(f"replay cache has no entry for digest {digest} "
                                       f"(task {task.value})")
                with self._count_lock:
                    lock = self._asking.setdefault(digest, threading.Lock())
                with lock:
                    record = self.cache.get(digest)
                    if record is None:
                        raw = _utf8(self._call_with_retries(prompt), digest)
                        record = cache_record(self.config.model_name, task.value, prompt, raw)
                        self.cache.put(record)
            return BackendResponse(raw=_utf8(record["response"], digest), digest=digest,
                                   from_cache=digest not in self._asking)
        except BackendError as exc:
            exc.digest = digest
            raise

    def _call_with_retries(self, prompt: PromptMessages) -> str:
        last: Optional[Exception] = None
        for attempt in range(_MAX_RETRIES + 1):
            try:
                with self._count_lock:
                    self.transport_calls += 1
                return self.transport(prompt, self.config)
            except TransportError as exc:
                last = exc
                if attempt < _MAX_RETRIES:
                    time.sleep(_RETRY_BASE_DELAY * (2 ** attempt))
        raise TransportError(
            f"transport failed after {_MAX_RETRIES + 1} attempts: {last}"
        ) from last
