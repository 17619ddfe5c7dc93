from __future__ import annotations

import json

import pytest

from ppanalyze.extraction.backend import (
    Backend,
    BackendConfig,
    BackendError,
    ConfigError,
    ReplayMissError,
    ResponseCache,
    TransportError,
    prompt_digest,
)
from ppanalyze.extraction.prompts import PromptMessages, TaskKind

PROMPT = PromptMessages(system="sys", user="usr")


class TestConfig:
    def test_modes_validated(self):
        with pytest.raises(ConfigError):
            BackendConfig(cache_mode="offline")

    def test_cache_modes_require_path(self):
        for mode in ("record", "replay"):
            with pytest.raises(ConfigError):
                BackendConfig(cache_mode=mode)

    def test_live_mode_rejects_a_cache_path(self, tmp_path):
        with pytest.raises(ConfigError, match="pass --record or --replay with --cache"):
            BackendConfig(cache_mode="live", cache_path=tmp_path / "cache.jsonl")

    def test_live_mode_without_credentials_fails_early(self, monkeypatch):
        monkeypatch.delenv("PPA_API_KEY", raising=False)
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        with pytest.raises(ConfigError):
            Backend(BackendConfig(cache_mode="live"))


class TestDigest:
    def test_digest_covers_model_task_and_prompt(self):
        base = prompt_digest("m", "t", PROMPT)
        assert prompt_digest("m2", "t", PROMPT) != base
        assert prompt_digest("m", "t2", PROMPT) != base
        assert prompt_digest("m", "t", PromptMessages("sys", "other")) != base
        assert prompt_digest("m", "t", PROMPT) == base


class TestRecordReplay:
    def test_record_adds_one_entry_keyed_by_digest(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        backend = Backend(
            BackendConfig(model_name="m", cache_mode="record", cache_path=path),
            transport=lambda prompt, config: "[]",
        )
        response = backend.invoke(TaskKind.DATA_RECOGNITION, PROMPT)
        assert not response.from_cache
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 1
        assert records[0]["key"] == prompt_digest("m", "data-recognition", PROMPT)
        assert records[0]["response"] == "[]"
        assert records[0]["prompt"] == {"system": "sys", "user": "usr"}

    def test_replay_round_trip_is_deterministic_and_offline(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        recorder = Backend(
            BackendConfig(model_name="m", cache_mode="record", cache_path=path),
            transport=lambda prompt, config: '{"entities": []}',
        )
        recorder.invoke(TaskKind.DATA_RECOGNITION, PROMPT)

        def exploding_transport(prompt, config):
            raise AssertionError("replay must not touch the network")

        replayer = Backend(
            BackendConfig(model_name="m", cache_mode="replay", cache_path=path),
            transport=exploding_transport,
        )
        first = replayer.invoke(TaskKind.DATA_RECOGNITION, PROMPT)
        second = replayer.invoke(TaskKind.DATA_RECOGNITION, PROMPT)
        assert first.raw == second.raw == '{"entities": []}'
        assert first.from_cache and second.from_cache
        assert replayer.transport_calls == 0

    def test_record_serves_hits_and_queries_only_misses(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        answers = iter(["first", "second", "third"])
        backend = Backend(
            BackendConfig(model_name="m", cache_mode="record", cache_path=path),
            transport=lambda prompt, config: next(answers),
        )
        backend.invoke(TaskKind.DATA_RECOGNITION, PROMPT)
        again = backend.invoke(TaskKind.DATA_RECOGNITION, PROMPT)
        other = backend.invoke(TaskKind.PURPOSE_RECOGNITION, PROMPT)
        assert (again.raw, again.from_cache) == ("first", True)
        assert (other.raw, other.from_cache) == ("second", False)
        assert backend.transport_calls == 2
        assert len(path.read_text().splitlines()) == 2

    def test_concurrent_misses_on_one_prompt_return_the_stored_answer(self, tmp_path):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        path = tmp_path / "cache.jsonl"
        both_missed = threading.Barrier(2)
        answers = iter(["first", "second"])
        lock = threading.Lock()

        def transport(prompt, config):
            both_missed.wait(timeout=10)
            with lock:
                return next(answers)

        backend = Backend(BackendConfig(model_name="m", cache_mode="record", cache_path=path),
                          transport=transport)
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(backend.invoke, TaskKind.DATA_RECOGNITION, PROMPT)
                       for _ in range(2)]
            raws = {f.result().raw for f in futures}
        stored = ResponseCache(path).get(prompt_digest("m", "data-recognition", PROMPT))
        assert raws == {stored["response"]}
        assert len(path.read_text().splitlines()) == 1

    def test_replay_miss_names_digest(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text("")
        backend = Backend(
            BackendConfig(model_name="m", cache_mode="replay", cache_path=path),
            transport=lambda prompt, config: "unused",
        )
        with pytest.raises(ReplayMissError) as err:
            backend.invoke(TaskKind.DATA_RECOGNITION, PROMPT)
        assert err.value.digest == prompt_digest("m", "data-recognition", PROMPT)

    def test_cache_survives_reload(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResponseCache(path)
        cache.put({"key": "k1", "model": "m", "task": "t",
                   "prompt": {}, "response": "r", "timestamp": "now"})
        again = ResponseCache(path)
        assert again.get("k1")["response"] == "r"

    @pytest.mark.parametrize("end", ["\n", ""])
    def test_load_keeps_the_first_record_of_a_key(self, tmp_path, end):
        # the second line is full, or the unterminated tail
        path = tmp_path / "cache.jsonl"
        first, second = ({**_record("k1"), "response": r} for r in ("first", "second"))
        path.write_text(json.dumps(first) + "\n" + json.dumps(second) + end)
        assert ResponseCache(path).get("k1")["response"] == "first"

    def test_corrupt_cache_line_reported(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text("not json\n")
        with pytest.raises(Exception) as err:
            ResponseCache(path)
        assert "line 1" in str(err.value)

    @pytest.mark.parametrize("line", [b"{}", b"[1]", b'{"key": "k1"}',
                                      b'{"key": "k1", "response": 1}', b"\xff"])
    def test_line_that_is_not_a_record_reported(self, tmp_path, line):
        path = tmp_path / "cache.jsonl"
        path.write_bytes(line + b"\n")
        with pytest.raises(BackendError):
            ResponseCache(path)

    def test_torn_last_line_skipped_then_appended_after(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        good = json.dumps(_record("k1")) + "\n"
        path.write_text(good + json.dumps(_record("k2"))[:25])
        with pytest.warns(UserWarning, match="torn last line 2"):
            cache = ResponseCache(path)
        assert len(cache) == 1 and "k2" not in cache
        cache.put(_record("k3"))
        assert path.read_text() == good + json.dumps(_record("k3")) + "\n"
        again = ResponseCache(path)
        assert len(again) == 2 and "k1" in again and "k3" in again

    def test_complete_last_line_without_newline_kept(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(json.dumps(_record("k1")))
        cache = ResponseCache(path)
        assert "k1" in cache
        cache.put(_record("k2"))
        lines = path.read_text().splitlines()
        assert [json.loads(line)["key"] for line in lines] == ["k1", "k2"]

    def test_corrupt_line_before_torn_tail_stays_fatal(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(json.dumps(_record("k1")) + "\nnot json\n{\"key\": ")
        with pytest.raises(BackendError, match="line 2"):
            ResponseCache(path)


class TestLoneSurrogates:
    """An answer that cannot be encoded as UTF-8 fails its query."""

    def test_transport_answer_rejected_and_not_recorded(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        backend = Backend(
            BackendConfig(model_name="m", cache_mode="record", cache_path=path),
            transport=lambda prompt, config: '["a\ud800"]',
        )
        with pytest.raises(BackendError, match="not valid UTF-8"):
            backend.invoke(TaskKind.DATA_RECOGNITION, PROMPT)
        assert not path.exists()

    def test_cached_answer_rejected(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        digest = prompt_digest("m", "data-recognition", PROMPT)
        # an escaped lone surrogate reads back as one
        path.write_text(json.dumps({**_record(digest), "response": "\ud800"}) + "\n")
        backend = Backend(BackendConfig(model_name="m", cache_mode="replay", cache_path=path))
        with pytest.raises(BackendError, match=f"digest {digest} is not valid UTF-8"):
            backend.invoke(TaskKind.DATA_RECOGNITION, PROMPT)


def _record(key: str) -> dict:
    return {"key": key, "model": "m", "task": "t", "prompt": {}, "response": "r",
            "timestamp": "now"}


class TestHttpTransport:
    def _fake_urlopen(self, monkeypatch, handler):
        import urllib.request
        captured = {}

        def urlopen(request, timeout=None):
            captured["request"] = request
            captured["timeout"] = timeout
            return handler(request)

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        return captured

    def test_request_shape_and_response_extraction(self, monkeypatch):
        import io
        from ppanalyze.extraction.backend import http_chat_transport

        monkeypatch.setenv("PPA_API_KEY", "sk-test")
        monkeypatch.setenv("PPA_API_BASE", "https://models.internal/v1")

        class FakeResponse(io.BytesIO):
            def __enter__(self):
                return self

            def __exit__(self, *args):
                return False

        payload = json.dumps({"choices": [{"message": {"content": "[]"}}]}).encode()
        captured = self._fake_urlopen(monkeypatch, lambda req: FakeResponse(payload))

        raw = http_chat_transport(PROMPT, BackendConfig(model_name="m", cache_mode="live"))
        assert raw == "[]"
        request = captured["request"]
        assert request.full_url == "https://models.internal/v1/chat/completions"
        assert request.get_header("Authorization") == "Bearer sk-test"
        body = json.loads(request.data)
        assert body["model"] == "m"
        assert body["temperature"] == 0.0
        assert [m["role"] for m in body["messages"]] == ["system", "user"]

    def test_retryable_http_code_maps_to_transport_error(self, monkeypatch):
        import io
        import urllib.error
        from ppanalyze.extraction.backend import http_chat_transport

        monkeypatch.setenv("PPA_API_KEY", "sk-test")

        def raise_429(request):
            raise urllib.error.HTTPError(request.full_url, 429, "slow down",
                                         None, io.BytesIO(b""))

        self._fake_urlopen(monkeypatch, raise_429)
        with pytest.raises(TransportError):
            http_chat_transport(PROMPT, BackendConfig(cache_mode="live"))

    def test_client_error_is_not_retryable(self, monkeypatch):
        import io
        import urllib.error
        from ppanalyze.extraction.backend import BackendError, http_chat_transport

        monkeypatch.setenv("PPA_API_KEY", "sk-test")

        def raise_400(request):
            raise urllib.error.HTTPError(request.full_url, 400, "bad request",
                                         None, io.BytesIO(b"detail"))

        self._fake_urlopen(monkeypatch, raise_400)
        with pytest.raises(BackendError) as err:
            http_chat_transport(PROMPT, BackendConfig(cache_mode="live"))
        assert not isinstance(err.value, TransportError)

    def test_malformed_completion_payload_reported(self, monkeypatch):
        import io
        from ppanalyze.extraction.backend import BackendError, http_chat_transport

        monkeypatch.setenv("PPA_API_KEY", "sk-test")

        class FakeResponse(io.BytesIO):
            def __enter__(self):
                return self

            def __exit__(self, *args):
                return False

        self._fake_urlopen(monkeypatch,
                           lambda req: FakeResponse(b'{"unexpected": true}'))
        with pytest.raises(BackendError):
            http_chat_transport(PROMPT, BackendConfig(cache_mode="live"))


class TestRetries:
    def test_transport_retried_then_succeeds(self, tmp_path):
        calls = []

        def flaky(prompt, config):
            calls.append(1)
            if len(calls) < 3:
                raise TransportError("rate limited")
            return "ok"

        backend = Backend(
            BackendConfig(max_retries=3, retry_base_delay=0.0, cache_mode="live"),
            transport=flaky,
        )
        assert backend.invoke(TaskKind.DATA_RECOGNITION, PROMPT).raw == "ok"
        assert len(calls) == 3
        assert backend.invocations == 1  # retries are transport-level, not new queries

    def test_exhausted_retries_raise(self):
        def always_down(prompt, config):
            raise TransportError("boom")

        backend = Backend(
            BackendConfig(max_retries=2, retry_base_delay=0.0, cache_mode="live"),
            transport=always_down,
        )
        with pytest.raises(TransportError) as err:
            backend.invoke(TaskKind.DATA_RECOGNITION, PROMPT)
        assert "3 attempts" in str(err.value)

    def test_non_transport_errors_not_retried(self):
        calls = []

        def broken(prompt, config):
            calls.append(1)
            raise ValueError("parse me not")

        backend = Backend(
            BackendConfig(max_retries=5, retry_base_delay=0.0, cache_mode="live"),
            transport=broken,
        )
        with pytest.raises(ValueError):
            backend.invoke(TaskKind.DATA_RECOGNITION, PROMPT)
        assert len(calls) == 1
