from __future__ import annotations

import base64
import errno
import json
import os
import re
import socket
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppanalyze import Error
from ppanalyze.cli import main
from ppanalyze.extraction import backend as backend_module
from ppanalyze.extraction.backend import (
    Backend,
    BackendConfig,
    BackendError,
    HttpTransport,
    ResponseCache,
    TransportError,
    prompt_digest,
)
from ppanalyze.extraction.prompts import PromptMessages, TaskKind

from .conftest import FIXTURES, fill_disk, record_backend
from .loopback import Endpoint, clear_proxies, completion
from .oracles import reference_load_cache, reference_prompt_digest

PROMPT = PromptMessages(system="sys", user="usr")
# any text; half the examples may hold lone surrogates, which UTF-8 cannot encode
ANY_TEXT = st.text() | st.text(st.characters(exclude_categories=())
                               | st.integers(0xD800, 0xDFFF).map(chr))


class TestConfig:
    def test_modes_validated(self, tmp_path):
        with pytest.raises(BackendError, match="^unknown cache mode 'offline'; "
                                               "choose record or replay$"):
            BackendConfig(cache_mode="offline", cache_path=tmp_path / "cache.jsonl")

    def test_cache_modes_require_path(self):
        for mode in ("record", "replay"):
            with pytest.raises(TypeError, match="cache_path"):
                BackendConfig(cache_mode=mode)

    def test_live_mode_rejects_a_cache_path(self, tmp_path):
        """`live` is no mode: a config naming it is refused, with the two
        modes there are, before its cache file is touched."""
        path = tmp_path / "cache.jsonl"
        with pytest.raises(BackendError, match="^unknown cache mode 'live'; "
                                               "choose record or replay$"):
            BackendConfig(cache_mode="live", cache_path=path)
        assert not path.exists()

    def test_live_mode_without_credentials_fails_early(self, monkeypatch, tmp_path):
        monkeypatch.delenv("PPA_API_KEY", raising=False)
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        with pytest.raises(BackendError, match="^no API credentials: set PPA_API_KEY"):
            Backend(BackendConfig(cache_mode="record", cache_path=tmp_path / "cache.jsonl"))

    def test_building_a_backend_loads_no_http_client(self, tmp_path):
        script = f"""
import sys
from pathlib import Path
from ppanalyze.extraction.backend import Backend, BackendConfig
Backend(BackendConfig(cache_mode="record", cache_path=Path({str(tmp_path / "c.jsonl")!r})))
print(sorted({{"http.client", "urllib.request"}} & set(sys.modules)))
"""
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src"),
               "PPA_API_KEY": "sk-test"}
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env=env, check=True)
        assert result.stdout.splitlines()[-1] == "[]"

    def test_endpoint_must_be_an_http_url(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PPA_API_KEY", "sk-test")
        monkeypatch.setenv("PPA_API_BASE", "localhost:8000/v1")
        with pytest.raises(BackendError, match="PPA_API_BASE must be an http or https URL"):
            record_backend(tmp_path)


class TestDigest:
    def test_digest_covers_model_task_and_prompt(self):
        base = prompt_digest("m", "t", PROMPT)
        assert prompt_digest("m2", "t", PROMPT) != base
        assert prompt_digest("m", "t2", PROMPT) != base
        assert prompt_digest("m", "t", PromptMessages("sys", "other")) != base
        assert prompt_digest("m", "t", PROMPT) == base

    @settings(max_examples=500, deadline=None)
    @given(*[ANY_TEXT] * 4)
    @example("m", "t", "\ud800", "u")
    @example("m", "t", "s", "a\udfffb")
    @example("m", "t", '"\\\n\x00\u2028é', '\x7f"\t😀')
    def test_digest_equals_hashing_the_whole_payload(self, model, task, system, user):
        """Lone surrogates included: a string UTF-8 cannot encode raises in both."""
        prompt = PromptMessages(system, user)
        try:
            expected = reference_prompt_digest(model, task, prompt)
        except UnicodeEncodeError:
            with pytest.raises(UnicodeEncodeError):
                prompt_digest(model, task, prompt)
        else:
            assert prompt_digest(model, task, prompt) == expected


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
        """An answer asked earlier in the run is served, but not marked as
        from the cache; one in the file before the run is."""
        path = tmp_path / "cache.jsonl"
        answers = iter(["first", "second", "third"])
        backend = Backend(
            BackendConfig(model_name="m", cache_mode="record", cache_path=path),
            transport=lambda prompt, config: next(answers),
        )
        backend.invoke(TaskKind.DATA_RECOGNITION, PROMPT)
        again = backend.invoke(TaskKind.DATA_RECOGNITION, PROMPT)
        other = backend.invoke(TaskKind.PURPOSE_RECOGNITION, PROMPT)
        assert (again.raw, again.from_cache) == ("first", False)
        assert (other.raw, other.from_cache) == ("second", False)
        assert backend.transport_calls == 2
        assert len(path.read_text().splitlines()) == 2

        resumed = Backend(BackendConfig(model_name="m", cache_mode="record", cache_path=path),
                          transport=lambda prompt, config: next(answers))
        stored = resumed.invoke(TaskKind.DATA_RECOGNITION, PROMPT)
        assert (stored.raw, stored.from_cache, resumed.transport_calls) == ("first", True, 0)

    def test_live_asks_each_prompt_once_and_writes_no_file(self, tmp_path, monkeypatch):
        """The default mode, once named live, asks each prompt once and
        writes no file beside its cache."""
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cache.jsonl"
        answers = iter(["first", "second"])
        backend = Backend(BackendConfig(model_name="m", cache_path=path),
                          transport=lambda prompt, config: next(answers))
        responses = [backend.invoke(TaskKind.DATA_RECOGNITION, PROMPT) for _ in range(2)]
        assert [(r.raw, r.from_cache) for r in responses] == [("first", False)] * 2
        assert (backend.invocations, backend.transport_calls) == (2, 1)
        assert list(tmp_path.iterdir()) == [path]
        assert len(path.read_text().splitlines()) == 1

    @pytest.mark.parametrize("mode", ["live", "record"])
    def test_equal_prompts_in_flight_ask_once(self, tmp_path, mode):
        """A second caller of a prompt being asked waits for that answer.
        `live` leaves the mode at its default, which records; `record` names it."""
        settings = {} if mode == "live" else {"cache_mode": mode}
        path = tmp_path / "cache.jsonl"
        asked = threading.Event()

        def slow_transport(prompt, config):
            asked.set()
            time.sleep(0.2)
            return "answer"

        backend = Backend(BackendConfig(model_name="m", cache_path=path, **settings),
                          transport=slow_transport)
        results = []
        first = threading.Thread(target=lambda: results.append(
            backend.invoke(TaskKind.DATA_RECOGNITION, PROMPT)))
        first.start()
        assert asked.wait(timeout=10)
        second = backend.invoke(TaskKind.DATA_RECOGNITION, PROMPT)
        first.join(timeout=10)
        assert not first.is_alive()
        assert [(r.raw, r.from_cache) for r in (*results, second)] == [("answer", False)] * 2
        assert (backend.invocations, backend.transport_calls) == (2, 1)
        assert len(path.read_text().splitlines()) == 1

    def test_failed_ask_is_not_memoized(self, tmp_path):
        """A caller waiting behind a failing ask asks for itself, and so
        does a later call, which then succeeds."""
        path = tmp_path / "cache.jsonl"
        asked, release = threading.Event(), threading.Event()
        outcomes = iter([BackendError("first down"), BackendError("second down"), "answer"])

        def transport(prompt, config):
            outcome = next(outcomes)
            if not asked.is_set():
                asked.set()
                release.wait(timeout=10)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        backend = Backend(BackendConfig(model_name="m", cache_mode="record", cache_path=path),
                          transport=transport)
        errors = []

        def invoke():
            try:
                backend.invoke(TaskKind.DATA_RECOGNITION, PROMPT)
            except BackendError as exc:
                errors.append(str(exc))

        first = threading.Thread(target=invoke)
        first.start()
        assert asked.wait(timeout=10)
        waiter = threading.Thread(target=invoke)
        waiter.start()
        time.sleep(0.1)         # the waiter blocks on the first ask's lock
        release.set()
        for thread in (first, waiter):
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert sorted(errors) == ["first down", "second down"]
        assert not path.exists()
        later = backend.invoke(TaskKind.DATA_RECOGNITION, PROMPT)
        assert (later.raw, later.from_cache, backend.transport_calls) == ("answer", False, 3)
        assert len(path.read_text().splitlines()) == 1

    def test_replay_miss_names_digest(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text("")
        backend = Backend(
            BackendConfig(model_name="m", cache_mode="replay", cache_path=path),
            transport=lambda prompt, config: "unused",
        )
        with pytest.raises(BackendError, match="^replay cache has no entry for digest "
                                               r"\w+ \(task data-recognition\)$") as err:
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
        assert len(cache) == 1 and cache.get("k2") is None
        cache.put(_record("k3"))
        assert path.read_text() == good + json.dumps(_record("k3")) + "\n"
        again = ResponseCache(path)
        assert len(again) == 2 and again.get("k1") and again.get("k3")

    def test_torn_tail_cut_by_another_process_keeps_its_appends(self, tmp_path):
        # two loads of one torn cache: the second to append must not cut
        # the record the first appended at the torn offset
        path = tmp_path / "cache.jsonl"
        good = json.dumps(_record("k0")) + "\n"
        path.write_text(good + json.dumps(_record("kx"))[:25])
        with pytest.warns(UserWarning, match="torn last line 2"):
            a, b = ResponseCache(path), ResponseCache(path)
        b.put(_record("kb"))
        a.put(_record("ka"))
        assert path.read_text() == good + "".join(json.dumps(_record(key)) + "\n"
                                                  for key in ("kb", "ka"))
        replay = ResponseCache(path)
        assert [key for key in ("k0", "kb", "ka") if replay.get(key)] == ["k0", "kb", "ka"]

    def test_a_failed_append_stops_every_later_one(self, tmp_path, monkeypatch):
        """The disk fills while a record is appended: the append is one
        `Error` that names the cache (not a `BackendError`, which would be
        filed as a failed call), no later record is appended, even once
        there is room again, and the next load skips the torn record and
        appends after the whole ones."""
        path = tmp_path / "cache.jsonl"
        cache = ResponseCache(path)
        cache.put(_record("k1"))
        whole = path.read_bytes()
        with monkeypatch.context() as disk:
            fill_disk(disk, path, 0)
            with pytest.raises(Error) as err:
                cache.put(_record("k2"))
        message = str(err.value)
        assert message.startswith(f"cannot write {path}: [Errno {errno.ENOSPC}] ")
        assert not isinstance(err.value, BackendError)
        torn = path.read_bytes()
        assert torn == whole + (json.dumps(_record("k2")) + "\n").encode()[:len(whole) // 2]
        for key in ("k3", "k2", "k1"):
            with pytest.raises(Error) as err:
                cache.put(_record(key))
            assert str(err.value) == message
        assert path.read_bytes() == torn
        assert cache.get("k2") is None and len(cache) == 1
        with pytest.warns(UserWarning, match="skipped torn last line 2"):
            again = ResponseCache(path)
        assert len(again) == 1 and again.get("k1")
        again.put(_record("k3"))
        assert path.read_bytes() == whole + json.dumps(_record("k3")).encode() + b"\n"

    def test_complete_last_line_without_newline_kept(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(json.dumps(_record("k1")))
        cache = ResponseCache(path)
        assert cache.get("k1")
        cache.put(_record("k2"))
        lines = path.read_text().splitlines()
        assert [json.loads(line)["key"] for line in lines] == ["k1", "k2"]

    def test_unterminated_last_line_ended_in_the_same_write(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.jsonl"
        first = json.dumps(_record("k1")).encode()
        path.write_bytes(first)
        cache = ResponseCache(path)
        writes = []
        write = os.write
        monkeypatch.setattr(backend_module.os, "write",
                            lambda fd, data: writes.append(bytes(data)) or write(fd, data))
        cache.put(_record("k2"))
        cache.put(_record("k3"))
        lines = [json.dumps(_record(key)).encode() + b"\n" for key in ("k2", "k3")]
        assert writes == [b"\n" + lines[0], lines[1]]
        assert path.read_bytes() == first + b"\n" + b"".join(lines)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_two_processes_appending_leave_whole_lines(self, tmp_path):
        # answers far larger than a file buffer, so that a record written
        # in pieces would interleave with the other process's records
        path = tmp_path / "sub" / "cache.jsonl"
        cache = ResponseCache(path)
        pids = []
        for name in "ab":
            pid = os.fork()
            if pid == 0:        # the child puts its records and exits at once
                code = 1
                try:
                    for i in range(200):
                        cache.put({**_record(f"{name}{i}"), "response": name * 20_000})
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
        assert [os.waitpid(pid, 0)[1] for pid in pids] == [0, 0]
        lines = path.read_bytes().split(b"\n")
        assert lines.pop() == b""
        records = [json.loads(line) for line in lines]
        assert sorted(r["key"] for r in records) == sorted(f"{n}{i}" for n in "ab"
                                                           for i in range(200))
        assert all(r["response"] == r["key"][0] * 20_000 for r in records)

    def test_corrupt_line_before_torn_tail_stays_fatal(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(json.dumps(_record("k1")) + "\nnot json\n{\"key\": ")
        with pytest.raises(BackendError, match="line 2"):
            ResponseCache(path)


    def test_put_keeps_the_first_record_of_a_key(self, tmp_path):
        # a short answer such as "[]" may be one interned object: membership
        # of the key, not identity of the answer, decides what is stored
        path = tmp_path / "cache.jsonl"
        cache = ResponseCache(path)
        first = {**_record("k1"), "response": "[]"}
        cache.put(first)
        cache.put({**_record("k1"), "response": "[]", "timestamp": "later"})
        cache.put({**_record("k1"), "response": "other"})
        assert cache.get("k1")["response"] == "[]"
        assert path.read_text() == json.dumps(first) + "\n"

    def test_first_bad_line_named_whatever_its_fault(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        good = json.dumps(_record("k1")).encode() + b"\n"
        path.write_bytes(good + b"not json\n\xff\n")
        with pytest.raises(BackendError, match="corrupt cache line 2"):
            ResponseCache(path)
        path.write_bytes(good + b"\xff\nnot json\n")
        with pytest.raises(BackendError, match="cache line 2 in .* is not UTF-8"):
            ResponseCache(path)

    def test_load_holds_answers_not_records(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with path.open("w", encoding="utf-8") as f:
            for i in range(2000):
                prompt = {"system": "s" * 1000, "user": f"segment {i}: " + "u" * 1700}
                f.write(json.dumps({**_record(f"{i:064x}"), "prompt": prompt,
                                    "response": '{"entities": []}'}) + "\n")
        size = path.stat().st_size
        tracemalloc.start()
        try:
            cache = ResponseCache(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cache) == 2000
        assert peak < size / 4, f"peak {peak} B while loading {size} B"


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


_KEYS = ("k0", "k1", "k2")
_FATAL_LINES = (
    b"not json", b"{", b'{"key": "k1", "response": "r"} x',                  # corrupt
    b"{}", b"[1]", b"null", b'{"key": "k1"}', b'{"key": 1, "response": "r"}',  # not a record
    b"\xff", b'{"key": "k1", "response": "\xff"}', b"\xed\xa0\x80",          # not UTF-8
)


@st.composite
def _record_lines(draw) -> bytes:
    record = {**_record(draw(st.sampled_from(_KEYS))),
              "response": draw(st.text(st.characters(blacklist_categories=("Cs",)),
                                       max_size=6))}
    return json.dumps(record, ensure_ascii=draw(st.booleans())).encode("utf-8")


_BLANK_LINES = st.sampled_from(["", " ", "\t", "\r", "\x1c", "\x85", "\u2028", "\u3000"]).map(
    lambda text: text.encode("utf-8"))
_TAILS = st.one_of(
    _BLANK_LINES,
    st.sampled_from([b"{}", b"\xff"]),
    _record_lines(),                                                           # unterminated
    _record_lines().flatmap(                                                   # torn
        lambda line: st.integers(1, len(line) - 1).map(lambda n: line[:n])),
)


@st.composite
def _cache_files(draw) -> bytes:
    """Full lines (records, duplicate keys, blanks), at most one fatal line,
    and a tail: none, blank, a complete record, a torn one or bad bytes.
    A file holds one fatal line at most: with two, the reference reports
    bad UTF-8 anywhere before a corrupt line, the line reader the first
    bad line of either kind."""
    lines = draw(st.lists(st.one_of(_record_lines(), _BLANK_LINES), max_size=8))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_FATAL_LINES)))
    return b"".join(line + b"\n" for line in lines) + draw(_TAILS)


def _fault_line(err: BackendError, data: bytes) -> int:
    named = re.search(r"line (\d+)", str(err))
    if named:
        return int(named[1])
    # the reference names no line for bad UTF-8: find it from the offset
    return data[:err.__cause__.start].count(b"\n") + 1


def _outcome(load, path: Path):
    """What `load(path)` returns, or its error and fault line, with the
    warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = load(path)
        except BackendError as err:
            result = ("error", _fault_line(err, path.read_bytes()))
    return result, [str(w.message) for w in caught]


class TestLoaderOracle:
    @given(data=_cache_files())
    @settings(max_examples=300, deadline=None)
    def test_line_reader_equals_whole_file_reference(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cache.jsonl"
            path.write_bytes(data)
            expected, expected_warnings = _outcome(reference_load_cache, path)
            cache, got_warnings = _outcome(ResponseCache, path)
            assert got_warnings == expected_warnings
            failed = expected[0] == "error"
            assert isinstance(cache, tuple) == failed
            if failed:
                assert cache == expected
                return
            entries, torn_at, unterminated = expected
            assert len(cache) == len(entries)
            for key in _KEYS:
                got, want = cache.get(key), entries.get(key)
                assert (got and got["response"]) == (want and want["response"])
            # the next append cuts a torn tail and ends an unterminated line
            extra = _record("k9")
            cache.put(extra)
            kept = data[:torn_at] if torn_at is not None else data + b"\n" * unterminated
            assert path.read_bytes() == kept + json.dumps(extra).encode() + b"\n"



@pytest.fixture
def memo_floor(monkeypatch):
    """Every cache, however small, gets an answer memo."""
    monkeypatch.setattr(backend_module, "_MEMO_MIN_BYTES", 0)


def _load_state(path: Path) -> tuple:
    """What a load leaves: the answers in order, the tail state and the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cache = ResponseCache(path)
    return (list(cache._answers.items()), cache._torn_at, cache._unterminated,
            [str(w.message) for w in caught])


def _no_parse(self, f):
    raise AssertionError("the cache was parsed again")


def _lines(*records: dict) -> bytes:
    return b"".join(json.dumps(record).encode() + b"\n" for record in records)


_MEMO_CASES = {
    "duplicate keys": _lines(*({**_record(key), "response": answer}
                               for key, answer in (("k1", "a"), ("k2", "b"), ("k1", "c")))),
    "blank lines": b"\n" + _lines(_record("k1")) + b" \n\t\n" + _lines(_record("k2")),
    "torn tail": _lines(_record("k1")) + json.dumps(_record("k2")).encode()[:20],
    "unterminated tail": _lines(_record("k1")) + json.dumps(_record("k2")).encode(),
    "lone surrogate": _lines({**_record("k1"), "response": "a\ud800b"}),
    "empty": b"",
}

# each turns the memo of five records, two answers a line, into one that
# is not a whole memo of this format
_SPOILED_MEMOS = {
    "cut mid-line": lambda memo: memo[:-5],
    "cut at a line end": lambda memo: memo[:memo.rstrip(b"\n").rfind(b"\n") + 1],
    "empty": lambda memo: b"",
    "garbage": lambda memo: b"not a memo\n",
    "not UTF-8": lambda memo: b"\xff\n",
    "other format": lambda memo: memo.replace(b"answer-memo-1", b"answer-memo-0"),
    "answer not a string": lambda memo: memo.replace(b'"k1": "r"', b'"k1": 1'),
    "line not an object": lambda memo: memo.replace(b'{"k0": "r", "k1": "r"}', b'["k0"]'),
}


class TestAnswerMemo:
    """A second load of the same bytes reads the cache's answer memo and
    ends in the state the parse left; any other memo is ignored and rewritten."""

    @pytest.mark.parametrize("data", _MEMO_CASES.values(), ids=list(_MEMO_CASES))
    def test_memo_hit_equals_the_parse(self, tmp_path, memo_floor, monkeypatch, data):
        path = tmp_path / "cache.jsonl"
        path.write_bytes(data)
        parsed = _load_state(path)
        assert (tmp_path / "cache.jsonl.memo").is_file()
        monkeypatch.setattr(ResponseCache, "_parse", _no_parse)
        assert _load_state(path) == parsed

    @given(data=_cache_files())
    @settings(max_examples=200, deadline=None)
    def test_memo_hit_equals_the_parse_for_any_file(self, data):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(backend_module, "_MEMO_MIN_BYTES", 0):
            path = Path(tmp) / "cache.jsonl"
            path.write_bytes(data)
            try:
                parsed = _load_state(path)
            except BackendError:
                assert os.listdir(tmp) == ["cache.jsonl"]
                return
            with mock.patch.object(ResponseCache, "_parse", _no_parse):
                assert _load_state(path) == parsed

    def test_small_cache_gets_no_memo(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_bytes(_lines(_record("k1")))
        ResponseCache(path)
        assert os.listdir(tmp_path) == ["cache.jsonl"]

    def test_corrupt_line_fails_every_load_and_writes_no_memo(self, tmp_path, memo_floor):
        path = tmp_path / "cache.jsonl"
        path.write_bytes(_lines(_record("k1")) + b"not json\n")
        for _ in range(2):
            with pytest.raises(BackendError, match="corrupt cache line 2"):
                ResponseCache(path)
        assert os.listdir(tmp_path) == ["cache.jsonl"]

    def test_memo_is_stale_after_an_append(self, tmp_path, memo_floor):
        path = tmp_path / "cache.jsonl"
        path.write_bytes(_lines(_record("k1")))
        ResponseCache(path).put(_record("k2"))
        assert [key for key, _ in _load_state(path)[0]] == ["k1", "k2"]

    def test_memo_is_stale_after_an_edit_of_the_same_size(self, tmp_path, memo_floor):
        path = tmp_path / "cache.jsonl"
        path.write_bytes(_lines({**_record("k1"), "response": "aaaa"}))
        ResponseCache(path)
        path.write_bytes(_lines({**_record("k1"), "response": "bbbb"}))
        assert ResponseCache(path).get("k1")["response"] == "bbbb"

    @pytest.mark.parametrize("spoil", _SPOILED_MEMOS.values(), ids=list(_SPOILED_MEMOS))
    def test_bad_memo_ignored_and_rewritten(self, tmp_path, memo_floor, monkeypatch, spoil):
        monkeypatch.setattr(backend_module, "_MEMO_CHUNK", 2)
        path, memo = tmp_path / "cache.jsonl", tmp_path / "cache.jsonl.memo"
        path.write_bytes(_lines(*(_record(f"k{i}") for i in range(5))))
        parsed = _load_state(path)
        good = memo.read_bytes()
        assert good.count(b"\n") == 4 and spoil(good) != good
        memo.write_bytes(spoil(good))
        assert _load_state(path) == parsed
        assert memo.read_bytes() == good

    def test_memo_that_cannot_be_written_is_skipped_silently(self, tmp_path, memo_floor):
        path = tmp_path / "cache.jsonl"
        path.write_bytes(_lines(_record("k1")))
        (tmp_path / "cache.jsonl.memo").mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ResponseCache(path).get("k1")
        assert sorted(os.listdir(tmp_path)) == ["cache.jsonl", "cache.jsonl.memo"]

    def test_memo_hit_holds_answers_not_records(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with path.open("w", encoding="utf-8") as f:
            for i in range(1000):
                prompt = {"system": "s" * 1000, "user": f"segment {i}: " + "u" * 1700}
                f.write(json.dumps({**_record(f"{i:064x}"), "prompt": prompt,
                                    "response": '{"entities": []}'}) + "\n")
        size = path.stat().st_size
        assert size >= backend_module._MEMO_MIN_BYTES
        ResponseCache(path)
        tracemalloc.start()
        try:
            with mock.patch.object(ResponseCache, "_parse", _no_parse):
                cache = ResponseCache(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cache) == 1000
        assert peak < size / 4, f"peak {peak} B while loading {size} B"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_replay_from_a_memo_writes_the_same_bytes(self, tmp_path, memo_floor, jobs):
        cache = tmp_path / "cache.jsonl"
        cache.write_bytes((FIXTURES / "replay_cache.jsonl").read_bytes())
        outputs = []
        for run in ("cold", "memo"):
            out = tmp_path / run
            assert main(["analyze", str(FIXTURES / "policy_example.org.txt"), "--replay",
                         "--cache", str(cache), "--model", "fixture-model", "--jobs", jobs,
                         "--out", str(out)]) == 0
            assert (tmp_path / "cache.jsonl.memo").is_file()
            outputs.append({p.relative_to(out): p.read_bytes()
                            for p in sorted(out.rglob("*")) if p.is_file()})
        assert outputs[0] == outputs[1]


@pytest.fixture
def endpoint_env(monkeypatch):
    """Credentials set and no proxy variables, so that a transport built
    now talks to the endpoint it is pointed at."""
    clear_proxies(monkeypatch)
    monkeypatch.setenv("PPA_API_KEY", "sk-test")

    def point_at(endpoint: Endpoint) -> Endpoint:
        monkeypatch.setenv("PPA_API_BASE", endpoint.base_url)
        return endpoint

    return point_at


def ask(model: str = "gpt-4o-mini") -> str:
    """One call of a new HTTP transport, closed after it; the transport
    reads only the model name of its config."""
    transport = HttpTransport()
    try:
        return transport(PROMPT, BackendConfig(model_name=model, cache_path=Path("unread")))
    finally:
        transport.close()


class TestHttpTransport:
    def test_request_shape_and_response_extraction(self, endpoint_env):
        with endpoint_env(Endpoint(lambda body: completion("[]"))) as endpoint:
            assert ask("m") == "[]"
        (request,) = endpoint.requests
        assert (request.method, request.target) == ("POST", "/v1/chat/completions")
        assert request.headers["Authorization"] == "Bearer sk-test"
        assert request.headers["Content-Type"] == "application/json"
        body = json.loads(request.body)
        assert body["model"] == "m"
        assert body["temperature"] == 0.0
        assert [m["role"] for m in body["messages"]] == ["system", "user"]

    def test_retryable_http_code_maps_to_transport_error(self, endpoint_env):
        with endpoint_env(Endpoint(lambda body: (429, b"slow down"))):
            with pytest.raises(TransportError, match="HTTP 429"):
                ask()

    def test_client_error_is_not_retryable(self, endpoint_env):
        with endpoint_env(Endpoint(lambda body: (400, b"detail"))):
            with pytest.raises(BackendError) as err:
                ask()
        assert not isinstance(err.value, TransportError)
        assert str(err.value) == "HTTP 400 from model endpoint: b'detail'"

    def test_redirect_is_not_followed(self, endpoint_env):
        with endpoint_env(Endpoint(lambda body: (302, b"moved"))) as endpoint:
            with pytest.raises(BackendError) as err:
                ask()
        assert not isinstance(err.value, TransportError)
        assert str(err.value) == "HTTP 302 from model endpoint: b'moved'"
        assert len(endpoint.requests) == 1

    def test_malformed_completion_payload_reported(self, endpoint_env):
        with endpoint_env(Endpoint(lambda body: (200, b'{"unexpected": true}'))):
            with pytest.raises(BackendError):
                ask()

    @pytest.mark.parametrize("body", [
        b"\xff\xfe not UTF-8", b"<html>busy</html>",
        b'{"choices": [{"message": {"content": null}}]}',
        b'{"choices": [{"message": {"content": [{"type": "text", "text": "[]"}]}}]}',
    ], ids=["not-utf8", "not-json", "null-content", "content-parts"])
    def test_bad_completion_body_is_a_backend_error_naming_it(self, endpoint_env, body):
        with endpoint_env(Endpoint(lambda request: (200, body))):
            with pytest.raises(BackendError) as err:
                ask()
        assert not isinstance(err.value, TransportError)
        assert str(err.value).startswith("unexpected completion payload: ")
        assert body.decode("utf-8", "replace")[:20] in str(err.value)


def unused_port() -> int:
    """A loopback port that nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def basic(credentials: str) -> str:
    return "Basic " + base64.b64encode(credentials.encode()).decode("ascii")


class TestProxies:
    """The transport takes the proxy route urllib would take."""

    def test_http_endpoint_asked_through_the_proxy(self, endpoint_env, monkeypatch):
        port = unused_port()
        with Endpoint() as proxy:
            monkeypatch.setenv("PPA_API_BASE", f"http://localhost:{port}/v1")
            monkeypatch.setenv("http_proxy", f"http://us%65r:p%40ss@{proxy.address}")
            assert ask() == "[]"
        (request,) = proxy.requests
        assert (request.method, request.target) == (
            "POST", f"http://localhost:{port}/v1/chat/completions")
        assert request.headers["Host"] == f"localhost:{port}"
        assert request.headers["Proxy-Authorization"] == basic("user:p@ss")
        assert request.headers["Authorization"] == "Bearer sk-test"

    def test_no_proxy_entry_bypasses_the_proxy(self, endpoint_env, monkeypatch):
        with Endpoint() as proxy, endpoint_env(Endpoint()) as endpoint:
            monkeypatch.setenv("http_proxy", f"http://{proxy.address}")
            monkeypatch.setenv("no_proxy", "example.org,127.0.0.1")
            assert ask() == "[]"
        assert proxy.requests == []
        assert [r.target for r in endpoint.requests] == ["/v1/chat/completions"]

    def test_https_endpoint_tunnelled_through_the_proxy(self, endpoint_env, monkeypatch):
        # the loopback proxy refuses the tunnel, so no TLS is needed
        port = unused_port()
        with Endpoint() as proxy:
            monkeypatch.setenv("PPA_API_BASE", f"https://localhost:{port}/v1")
            monkeypatch.setenv("https_proxy", f"http://user:secret@{proxy.address}")
            with pytest.raises(TransportError, match="Tunnel connection failed: 502"):
                ask()
        (request,) = proxy.requests
        assert (request.method, request.target) == ("CONNECT", f"localhost:{port}")
        assert request.headers["Proxy-Authorization"] == basic("user:secret")
        assert "Authorization" not in request.headers


class TestConnections:
    def invoke_each(self, backend: Backend, *users: str) -> list[str]:
        return [backend.invoke(TaskKind.DATA_RECOGNITION, PromptMessages("sys", user)).raw
                for user in users]

    def test_calls_in_sequence_share_one_connection_until_closed(self, tmp_path, endpoint_env):
        with endpoint_env(Endpoint()) as endpoint:
            backend = record_backend(tmp_path)
            assert self.invoke_each(backend, *"abcde") == ["[]"] * 5
            assert endpoint.accepted == 1 and endpoint.open_connections() == 1
            backend.close()
            assert endpoint.wait_closed()
        assert len(endpoint.requests) == 5

    def test_an_http_10_endpoint_answers_every_call(self, tmp_path, endpoint_env):
        with endpoint_env(Endpoint(http11=False)) as endpoint:
            backend = record_backend(tmp_path)
            assert self.invoke_each(backend, *"abcde") == ["[]"] * 5
            backend.close()
        assert endpoint.accepted == len(endpoint.requests) == 5

    def test_a_dropped_idle_connection_fails_one_attempt_then_reconnects(self, tmp_path,
                                                                          endpoint_env, sleeps):
        with endpoint_env(Endpoint()) as endpoint:
            backend = record_backend(tmp_path)
            assert self.invoke_each(backend, "a") == ["[]"]
            endpoint.drop_connections()
            assert self.invoke_each(backend, "b") == ["[]"]
            backend.close()
        assert backend.transport_calls == 3 and sleeps == [0.5]
        assert endpoint.accepted == 2 and len(endpoint.requests) == 2

    def test_a_timed_out_attempt_is_retried_on_a_new_connection(self, tmp_path, endpoint_env, sleeps,
                                                                monkeypatch):
        # a connection left waiting for the late answer could send no request
        monkeypatch.setattr(backend_module, "_TIMEOUT", 0.2)
        asked = []

        def late_once(body: bytes) -> tuple[int, bytes]:
            asked.append(body)
            if len(asked) == 1:
                threading.Event().wait(0.5)     # `sleeps` stubs out time.sleep
            return completion("[]")

        with endpoint_env(Endpoint(late_once)) as endpoint:
            backend = record_backend(tmp_path)
            assert self.invoke_each(backend, "a") == ["[]"]
            backend.close()
        assert backend.transport_calls == 2 and sleeps == [0.5]
        assert endpoint.accepted == 2


@pytest.fixture
def sleeps(monkeypatch) -> list[float]:
    """The backoff delays slept, without sleeping."""
    slept: list[float] = []
    monkeypatch.setattr(backend_module.time, "sleep", slept.append)
    return slept


class TestRetries:
    def test_transport_retried_then_succeeds(self, tmp_path, sleeps):
        calls = []

        def flaky(prompt, config):
            calls.append(1)
            if len(calls) < 3:
                raise TransportError("rate limited")
            return "ok"

        backend = record_backend(tmp_path, flaky)
        assert backend.invoke(TaskKind.DATA_RECOGNITION, PROMPT).raw == "ok"
        assert len(calls) == 3
        assert sleeps == [0.5, 1.0]      # the backoff doubles from its base
        assert backend.invocations == 1  # retries are transport-level, not new queries

    def test_exhausted_retries_raise(self, tmp_path, sleeps):
        def always_down(prompt, config):
            raise TransportError("boom")

        backend = record_backend(tmp_path, always_down)
        with pytest.raises(TransportError) as err:
            backend.invoke(TaskKind.DATA_RECOGNITION, PROMPT)
        assert "4 attempts" in str(err.value)
        assert sleeps == [0.5, 1.0, 2.0]   # none after the last attempt

    def test_refused_connection_is_a_transport_error_and_retried(self, tmp_path, sleeps,
                                                                 monkeypatch):
        import socket
        with socket.socket() as sock:       # a loopback port that nothing listens on
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        monkeypatch.setenv("PPA_API_KEY", "sk-test")
        monkeypatch.setenv("PPA_API_BASE", f"http://127.0.0.1:{port}/v1")
        monkeypatch.setenv("no_proxy", "*")
        backend = record_backend(tmp_path)
        with pytest.raises(TransportError) as err:
            backend.invoke(TaskKind.DATA_RECOGNITION, PROMPT)
        backend.close()
        assert str(err.value).startswith(
            "transport failed after 4 attempts: transport failure: ")
        assert "Connection refused" in str(err.value)
        assert backend.transport_calls == 4
        assert sleeps == [0.5, 1.0, 2.0]

    def test_non_transport_errors_not_retried(self, tmp_path):
        calls = []

        def broken(prompt, config):
            calls.append(1)
            raise ValueError("parse me not")

        backend = record_backend(tmp_path, broken)
        with pytest.raises(ValueError):
            backend.invoke(TaskKind.DATA_RECOGNITION, PROMPT)
        assert len(calls) == 1
