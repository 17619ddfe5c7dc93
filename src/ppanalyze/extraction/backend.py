"""Pluggable model backend with record/replay response caching.

One call to `Backend.invoke` is exactly one model query (plus transport
retries).  The cache store is an append-friendly JSONL file, one
`cache_record` per response, keyed by the digest of (model, task, system
text, user text); temperature is pinned at 0 and therefore excluded.
Record and replay mode both serve a cached answer when there is one.  On
a miss, record mode queries the model and appends the answer, so an
interrupted record run resumes without asking again; replay mode never
touches the network and fails loudly, which makes every downstream run
fully deterministic and offline.  Live mode reads no cache, so a cache
path there is an error.  An answer that cannot be encoded as UTF-8 (one
holding a lone surrogate) is an error too, whether the model or the
cache gave it, so it never reaches a prompt digest or an output file.
So is a completion whose body is not UTF-8 JSON or whose message content
is not a string.  Credentials come only from the environment
(PPA_API_KEY, falling back to OPENAI_API_KEY).

A config names only the model, cache mode and cache path.  The HTTP
timeout and the retries of a transport error (3, after 0.5, 1 and 2 s)
are fixed here.
"""
from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import warnings
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional, Union

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


class ConfigError(BackendError):
    pass


class TransportError(BackendError):
    pass


class ReplayMissError(BackendError):
    def __init__(self, digest: str, task: str):
        super().__init__(f"replay cache has no entry for digest {digest} (task {task})")


@dataclass(frozen=True)
class BackendConfig:
    model_name: str = "gpt-4o-mini"
    cache_mode: str = "live"          # "live" | "record" | "replay"
    cache_path: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.cache_mode not in ("live", "record", "replay"):
            raise ConfigError(f"unknown cache mode: {self.cache_mode!r}")
        if self.cache_mode in ("record", "replay") and self.cache_path is None:
            raise ConfigError(f"cache mode {self.cache_mode!r} requires a cache path")
        if self.cache_mode == "live" and self.cache_path is not None:
            raise ConfigError("live mode reads no cache: pass --record or --replay with --cache")


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
    and timestamp of a record stay in the file.  The file is read one
    line at a time.

    The first record of a key is the one kept, on load as on `put`, so a
    key appended twice replays the answer recorded first.

    A final line without a trailing newline that does not parse is a torn
    append (a crash mid-write): it is skipped with a warning and cut off
    before the next `put`.  Any other unparseable line, or one that is
    not UTF-8, is fatal and named by its line number.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._answers: dict[str, str] = {}
        # byte offset to truncate to, and whether the tail lacks its newline
        self._torn_at: Optional[int] = None
        self._unterminated = False
        if not self.path.exists():
            return
        offset = line_no = 0
        tail = b""
        with self.path.open("rb") as f:
            for raw in f:
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
        if tail.strip():
            try:
                key, answer = _read_answer(tail)
            except ValueError:
                self._torn_at = offset
                warnings.warn(f"skipped torn last line {line_no} in {self.path} "
                              f"({len(tail)} bytes without a newline)", stacklevel=2)
            else:
                self._answers.setdefault(key, answer)
                self._unterminated = True

    def __len__(self) -> int:
        return len(self._answers)

    def get(self, digest: str) -> Optional[dict]:
        """The stored record of `digest` as `{"key", "response"}`, or None."""
        answer = self._answers.get(digest)
        return None if answer is None else {"key": digest, "response": answer}

    def put(self, record: dict) -> dict:
        """Store a record unless its key is already stored, and return the
        stored one: like a replay, every reader sees the first answer.  A
        record stored before is returned as `{"key", "response"}`."""
        key = record["key"]
        with self._lock:
            if key in self._answers:
                return {"key": key, "response": self._answers[key]}
            self._answers[key] = record["response"]
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self._torn_at is not None:
                os.truncate(self.path, self._torn_at)
                self._torn_at = None
            with self.path.open("a", encoding="utf-8") as f:
                if self._unterminated:
                    f.write("\n")
                    self._unterminated = False
                f.write(_encode(record) + "\n")
            return record


@dataclass(frozen=True)
class BackendResponse:
    raw: str
    digest: str
    from_cache: bool


def _read_api_key() -> str:
    key = os.environ.get(API_KEY_ENV) or os.environ.get(API_KEY_FALLBACK_ENV)
    if not key:
        raise ConfigError(
            f"no API credentials: set {API_KEY_ENV} (or {API_KEY_FALLBACK_ENV}) "
            "in the environment, or run with --replay"
        )
    return key


def http_chat_transport(prompt: PromptMessages, config: BackendConfig) -> str:
    """POST one chat completion to an OpenAI-compatible endpoint."""
    import urllib.error     # here, not at the top: a replay never loads the HTTP client
    import urllib.request
    base = os.environ.get(API_BASE_ENV, DEFAULT_API_BASE).rstrip("/")
    body = json.dumps({
        "model": config.model_name,
        "temperature": 0.0,           # pinned: the cache digest leaves it out
        "messages": [
            {"role": "system", "content": prompt.system},
            {"role": "user", "content": prompt.user},
        ],
    }).encode("utf-8")
    request = urllib.request.Request(
        f"{base}/chat/completions",
        data=body,
        headers={
            "Content-Type": "application/json",
            "Authorization": f"Bearer {_read_api_key()}",
        },
    )
    try:
        with urllib.request.urlopen(request, timeout=_TIMEOUT) as resp:
            body = resp.read()
    except urllib.error.HTTPError as exc:
        if exc.code in RETRYABLE_HTTP:
            raise TransportError(f"HTTP {exc.code} from model endpoint") from exc
        raise BackendError(f"HTTP {exc.code} from model endpoint: {exc.read()[:200]!r}") from exc
    except (urllib.error.URLError, TimeoutError, OSError) as exc:
        raise TransportError(f"transport failure: {exc}") from exc
    try:
        content = json.loads(body.decode("utf-8"))["choices"][0]["message"]["content"]
    except (ValueError, LookupError, TypeError):     # not UTF-8 JSON, or another shape
        content = None
    if not isinstance(content, str):
        raise BackendError("unexpected completion payload: "
                           f"{body.decode('utf-8', 'replace')!r:.200}")
    return content


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

    Thread-safe: the cache serializes writes, and the invocation counter
    is lock-protected so tests can assert the one-query-per-step property.
    """

    def __init__(self, config: BackendConfig, transport: Optional[Transport] = None):
        self.config = config
        self.transport: Transport = transport or http_chat_transport
        self.cache = ResponseCache(config.cache_path) if config.cache_mode != "live" else None
        self.invocations = 0
        self.transport_calls = 0
        self._count_lock = threading.Lock()
        if config.cache_mode in ("live", "record") and self.transport is http_chat_transport:
            _read_api_key()  # fail before any processing, not mid-run

    def invoke(self, task: TaskKind, prompt: PromptMessages) -> BackendResponse:
        with self._count_lock:
            self.invocations += 1
        digest = prompt_digest(self.config.model_name, task.value, prompt)
        try:
            if self.config.cache_mode != "live":
                record = self.cache.get(digest)
                if record is not None:
                    return BackendResponse(raw=_utf8(record["response"], digest),
                                           digest=digest, from_cache=True)
                if self.config.cache_mode == "replay":
                    raise ReplayMissError(digest, task.value)

            raw = _utf8(self._call_with_retries(prompt), digest)
            if self.config.cache_mode == "record":
                # A concurrent miss on the same prompt may have stored its answer
                # first; this call returns it, but as `from_cache=False`, so with
                # segments in flight together the flags depend on timing, the
                # answers do not (ROADMAP item 13).
                raw = self.cache.put(cache_record(self.config.model_name, task.value,
                                                  prompt, raw))["response"]
            return BackendResponse(raw=raw, digest=digest, from_cache=False)
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
