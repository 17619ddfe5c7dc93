"""`analyze` and `evaluate` run the same at every `jobs` setting.

With `jobs` above 1 a replay hands whole policies (`analyze`) or gold
documents (`evaluate`) to forked worker processes, and `corpus.ttl` is
merged from the per-policy statements.  A record `analyze` streams the segments of all its policies through one window of 4 x `jobs`
segment threads for the whole run, each segment asking its queries one
at a time, so at most 4 x `jobs` requests are in flight, over at most as
many connections to the endpoint.  The `analyze`
corpus here is a small
`perfbench/gen.py` corpus of four policies; the second cannot be read and
the third fails its graph invariants, so the failures are reported
between the policies that succeed.  The `evaluate` gold set is a
`perfbench/gen.py` set of four documents, one of whose queries fails.
"""
from __future__ import annotations

import concurrent.futures
import hashlib
import json
import multiprocessing
import os
import random
import shutil
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Any

import pytest

import ppanalyze.cli as cli
import ppanalyze.eval.benchmark as benchmark
import ppanalyze.extraction.pipeline as pipeline
from ppanalyze.corpus import load_policy
from ppanalyze.eval.gold import load_gold_corpus
from ppanalyze.extraction import backend as backend_module
from ppanalyze.extraction.pipeline import extract_document
from ppanalyze.extraction.prompts import RECOGNITION_TASKS
from ppanalyze.graph import STANDARD_PREFIXES
from ppanalyze.rdfio import parse_turtle

from .conftest import FIXTURE_MODEL, FIXTURES, make_document, record_backend, replay_backend
from .loopback import Endpoint, clear_proxies, completion
from .oracles import reference_corpus_turtle
from .scripted import (RICH_PLAN, RICH_SEGMENT, answer_through, cache_answers,
                       segment_text_of, task_of)

MARKETING = "https://w3id.org/dpv#Marketing"
SEED = 3


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch):
    for name in ("PPA_MODEL", "PPA_MODE", "PPA_CACHE", "PPA_TAXONOMY", "PPA_THRESHOLD",
                 "PPA_OUT", "PPA_JOBS", "PPA_CONFIG", "PPA_API_KEY", "OPENAI_API_KEY"):
        monkeypatch.delenv(name, raising=False)


@pytest.fixture(scope="module")
def corpus(gen, tmp_path_factory) -> tuple[list[str], Path]:
    """Four generated policies (the second unreadable) and their replay cache."""
    root = tmp_path_factory.mktemp("corpus")
    policies = gen.make_corpus(SEED, "jobs", 4, 12)
    table, _ = gen.plan_calls(policies, SEED, "jobs")
    paths = gen.write_policies(policies, root / "policies")
    gen.write_cache(table, root / "cache.jsonl")
    paths[1].write_bytes(b"not UTF-8: \xff\xfe\n")
    return [str(path) for path in paths], root / "cache.jsonl"


@pytest.fixture
def broken_third(monkeypatch, corpus):
    """The third policy has its data spans grounded to a purpose class, so
    its graph fails the invariants."""
    broken = Path(corpus[0][2]).stem
    extract = pipeline.extract_documents

    def extract_broken(*args, **kwargs):
        for result in extract(*args, **kwargs):
            if getattr(result, "service_id", None) == broken:  # None: an unreadable policy
                for seg in result.segments:
                    seg.spans = tuple(
                        replace(s, grounded_term=MARKETING)
                        if s.kind == "data" and s.grounded_term else s for s in seg.spans)
            yield result

    # `analyze` looks the name up in the pipeline module on each run
    monkeypatch.setattr(pipeline, "extract_documents", extract_broken)


@pytest.fixture
def slow_first_broken_third(broken_third, monkeypatch, corpus):
    """`broken_third`, and the first policy takes longest, so that with two
    workers the last one ends before it."""
    slow = Path(corpus[0][0]).stem
    extract = pipeline.extract_documents

    def extract_slow(*args, **kwargs):
        for result in extract(*args, **kwargs):
            if getattr(result, "service_id", None) == slow:
                time.sleep(0.5)
            yield result

    monkeypatch.setattr(pipeline, "extract_documents", extract_slow)


def run(argv: list[str], out: Path, capsys) -> tuple[int, dict, str, str]:
    """Exit status, output tree digests, stdout and stderr of one command,
    with the output path written out the same way and without the
    `config:` line, which names the resolved `jobs`."""
    capsys.readouterr()
    code = cli.main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    tree = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}
    stderr = [line for line in captured.err.splitlines() if not line.startswith("config: ")]
    return (code, tree, captured.out.replace(str(out), "OUT"),
            "\n".join(stderr).replace(str(out), "OUT"))


def analyze(corpus, out: Path, capsys, *extra: str) -> tuple[int, dict, str, str]:
    """`run` of one replay of the corpus."""
    paths, cache = corpus
    return run(["analyze", *paths, "--replay", "--cache", str(cache),
                "--model", "bench-model", *extra], out, capsys)


@pytest.mark.usefixtures("slow_first_broken_third")
def test_replay_is_the_same_at_every_jobs_setting(corpus, tmp_path, capsys):
    runs = {name: analyze(corpus, tmp_path / name, capsys, *extra)
            for name, extra in (("one", ("--jobs", "1")), ("two", ("--jobs", "2")),
                                ("default", ()))}
    assert runs["one"] == runs["two"] == runs["default"]
    code, tree, stdout, stderr = runs["one"]
    paths = corpus[0]
    assert code == 1
    assert sorted(tree) == sorted(
        [f"{Path(p).stem}{ext}" for p in (paths[0], paths[3]) for ext in (".ttl", ".nt")]
        + [f"audit/{Path(p).stem}.json" for p in (paths[0], paths[3])]
        + [f"logs/{Path(p).stem}.build.json" for p in (paths[0], paths[3])]
        + ["corpus.ttl", "run_log.jsonl"])
    errors = [line for line in stderr.splitlines() if line.startswith("error: ")]
    assert [line.split(": ")[1] for line in errors] == [paths[1], paths[2]]
    assert "graph invariant violation" in errors[1]
    assert [line.split(":")[0] for line in stdout.splitlines()[:2]] == [paths[0], paths[3]]


def test_corpus_ttl_equals_the_combined_graph(corpus, tmp_path, capsys):
    out = tmp_path / "out"
    assert analyze(corpus, out, capsys, "--jobs", "2")[0] == 1
    graphs = [parse_turtle((out / f"{Path(path).stem}.ttl").read_bytes())
              for path in corpus[0] if (out / f"{Path(path).stem}.ttl").exists()]
    assert len(graphs) == 3
    assert (out / "corpus.ttl").read_bytes() == reference_corpus_turtle(graphs,
                                                                        STANDARD_PREFIXES)


def test_no_worker_process_left_behind(corpus, tmp_path, monkeypatch, capsys):
    pids = tmp_path / "pids"
    analyze_policy = cli._analyze_policy

    def recording_pid(analysis, path):
        with pids.open("a") as f:
            f.write(f"{os.getpid()}\n")
        return analyze_policy(analysis, path)

    monkeypatch.setattr(cli, "_analyze_policy", recording_pid)
    analyze(corpus, tmp_path / "out", capsys, "--jobs", "2")
    workers = {int(pid) for pid in pids.read_text().split()}
    assert workers and os.getpid() not in workers
    assert multiprocessing.active_children() == []
    for pid in workers:
        with pytest.raises(ProcessLookupError):     # exited and reaped
            os.kill(pid, 0)


def test_a_one_policy_replay_starts_no_thread_pool(tmp_path, monkeypatch, taxonomy, capsys):
    pools = []
    thread_pool = concurrent.futures.ThreadPoolExecutor

    def counting_pool(*args, **kwargs):
        pools.append(kwargs)
        return thread_pool(*args, **kwargs)

    # the pipeline imports the name from the module when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counting_pool)
    policy, cache = FIXTURES / "policy_example.org.txt", FIXTURES / "replay_cache.jsonl"
    code = cli.main(["analyze", str(policy), "--replay", "--cache", str(cache),
                     "--model", FIXTURE_MODEL, "--jobs", "2", "--out", str(tmp_path / "out")])
    assert code == 0 and pools == []
    # the same segments asked in record mode start one pool of 4 x `jobs` segment threads
    answers = cache_answers(cache)
    pipeline.extract_document(
        load_policy(policy, "example.org"),
        record_backend(tmp_path, lambda prompt, config: answers[prompt.system, prompt.user],
                       FIXTURE_MODEL),
        taxonomy, jobs=2)
    assert pools == [{"max_workers": 8}]


# -- the record scheduler: each segment thread asks one query at a time --

def rich_document(segments: int):
    """`segments` segments, each asking 4 recognition queries, then 2
    classification queries and the relation query."""
    return make_document("".join(f"{RICH_SEGMENT} ({k})\n" for k in range(segments)))


def rich_answer(prompt, config) -> str:
    return RICH_PLAN[0, task_of(prompt)]


def rich_policy(path: Path, segments: int) -> str:
    """A policy file of `segments` rich segments, each naming the file."""
    path.write_text("".join(f"{RICH_SEGMENT} ({path.stem} {k})\n" for k in range(segments)),
                    encoding="utf-8")
    return str(path)


def record(paths: list[str], out: Path, transport, monkeypatch, capsys,
           *extra: str) -> tuple[int, dict, str, str]:
    """`run` of one `analyze --record` whose model answers through `transport`."""
    answer_through(monkeypatch, transport)
    monkeypatch.setenv("PPA_API_KEY", "test-key")
    return run(["analyze", *paths, "--record", "--cache", str(out.with_suffix(".jsonl")),
                "--model", "scripted", *extra], out, capsys)


@pytest.mark.parametrize("jobs", [1, 2])
def test_no_segment_has_two_queries_in_flight(tmp_path, taxonomy, jobs):
    lock = threading.Lock()
    in_flight: dict[str, int] = {}      # queries in flight, by segment text
    peaks: dict[str, int] = {}

    def transport(prompt, config):
        segment = segment_text_of(prompt)
        with lock:
            in_flight[segment] = in_flight.get(segment, 0) + 1
            peaks[segment] = max(peaks.get(segment, 0), in_flight[segment])
        time.sleep(0.005)
        with lock:
            in_flight[segment] -= 1
        return rich_answer(prompt, config)

    backend = record_backend(tmp_path, transport)
    doc = rich_document(2 * 4 * jobs)
    extract_document(doc, backend, taxonomy, jobs=jobs)
    assert backend.invocations == len(doc.segments) * 7
    assert peaks == {seg.text: 1 for seg in doc.segments}


def test_classification_and_relation_wait_for_every_recognition_answer(tmp_path, taxonomy):
    lock = threading.Lock()
    events = []     # (event, segment text, task), in the order they happened

    def transport(prompt, config):
        task, segment = task_of(prompt), segment_text_of(prompt)
        with lock:
            events.append(("asked", segment, task))
        time.sleep(0.01)
        with lock:
            events.append(("answered", segment, task))
        return rich_answer(prompt, config)

    doc = rich_document(4)
    extract_document(doc, record_backend(tmp_path, transport), taxonomy, jobs=2)
    for seg in doc.segments:
        mine = [(event, task in RECOGNITION_TASKS) for event, text, task in events
                if text == seg.text]
        last_recognition = max(i for i, event in enumerate(mine)
                               if event == ("answered", True))
        later_asks = [i for i, event in enumerate(mine) if event == ("asked", False)]
        assert len(later_asks) == 3 and min(later_asks) > last_recognition


@pytest.mark.parametrize("jobs", [1, 2, 6])
def test_four_queries_per_job_in_flight(tmp_path, taxonomy, jobs):
    """The query slots fill up, and never overflow."""
    lock = threading.Lock()
    in_flight = peak = 0

    def transport(prompt, config):
        nonlocal in_flight, peak
        with lock:
            in_flight += 1
            peak = max(peak, in_flight)
        time.sleep(0.02)
        with lock:
            in_flight -= 1
        return rich_answer(prompt, config)

    backend = record_backend(tmp_path, transport)
    # more segments than the 4 x 6 slots of the widest window
    extract_document(rich_document(32), backend, taxonomy, jobs=jobs)
    assert backend.invocations == 32 * 7
    assert peak == 4 * jobs


def test_a_stream_closed_early_starts_no_queued_segment(tmp_path, taxonomy):
    def transport(prompt, config):
        time.sleep(0.02)
        return rich_answer(prompt, config)

    backend = record_backend(tmp_path, transport)
    threads = threading.active_count()
    # with one job, the first document is handed out once 4 segments of the
    # second are queued behind it; the third is never queued
    stream = pipeline.extract_documents(
        [rich_document(1), rich_document(8), rich_document(8)], backend, taxonomy, jobs=1)
    assert len(next(stream).segments) == 1
    stream.close()
    assert threading.active_count() == threads
    # the second document's segments that had not started never run
    assert 7 < backend.invocations < (1 + 8) * 7


def test_the_next_policy_starts_while_the_previous_one_drains(tmp_path, monkeypatch,
                                                               capsys):
    """One run-wide window of segments: at `--jobs 1` the second policy's
    first query is asked before the first policy's last answer."""
    paths = [rich_policy(tmp_path / f"policy{p}.txt", 6) for p in (1, 2)]
    policy_of = {line: p for p, path in enumerate(paths)
                 for line in Path(path).read_text(encoding="utf-8").splitlines()}
    lock = threading.Lock()
    events = []     # (event, policy), in the order they happened

    def transport(prompt, config):
        policy = policy_of[segment_text_of(prompt)]
        with lock:
            events.append(("asked", policy))
        time.sleep(0.01)
        with lock:
            events.append(("answered", policy))
        return rich_answer(prompt, config)

    code, _, stdout, _ = record(paths, tmp_path / "out", transport, monkeypatch, capsys,
                                "--jobs", "1")
    assert code == 0
    assert [line.split(":")[0] for line in stdout.splitlines()[:2]] == paths
    last_answer_of_first = max(i for i, event in enumerate(events) if event == ("answered", 0))
    assert events.index(("asked", 1)) < last_answer_of_first


@pytest.mark.usefixtures("no_retries")
@pytest.mark.parametrize("second", ["readable", "unreadable", "every segment failing"])
def test_no_thread_left_behind(tmp_path, monkeypatch, capsys, second):
    paths = [rich_policy(tmp_path / name, 3) for name in ("first.txt", "second.txt")]
    if second == "unreadable":
        Path(paths[1]).write_bytes(b"not UTF-8: \xff\xfe\n")

    def transport(prompt, config):
        if second == "every segment failing" and "(second " in segment_text_of(prompt):
            raise backend_module.TransportError("endpoint down")
        return rich_answer(prompt, config)

    threads = threading.active_count()
    code, _, stdout, stderr = record(paths, tmp_path / "out", transport, monkeypatch, capsys,
                                     "--jobs", "2")
    assert threading.active_count() == threads
    assert stdout.startswith(paths[0] + ": ")
    if second == "readable":
        assert code == 0
    else:
        assert code == 1 and stderr.startswith(f"error: {paths[1]}: ")


def run_log_without_cache_flags(out: Path) -> str:
    return (out / "run_log.jsonl").read_text(encoding="utf-8").replace(
        '"from_cache": true', '"from_cache": false')


@pytest.mark.usefixtures("broken_third")
@pytest.mark.parametrize("jobs", [1, 2, 6])
def test_record_at_every_jobs_setting_replays_to_the_sequential_replay(
        corpus, gen, tmp_path, monkeypatch, capsys, jobs):
    """A record run asks in any order, but records the answers a replay
    reads back to the bytes of a sequential replay, and reports what the
    replay reports.  Threads switch often, so that a lost update to the
    backend's counters or cache would show."""
    paths, cache = corpus
    answers = cache_answers(cache)
    answer_through(monkeypatch, lambda prompt, config: answers[prompt.system, prompt.user])
    monkeypatch.setenv("PPA_API_KEY", "test-key")
    backends = []
    make_backend = cli._backend
    monkeypatch.setattr(cli, "_backend",
                        lambda config: backends.append(make_backend(config)) or backends[-1])
    recorded = tmp_path / "recorded.jsonl"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        record = run(["analyze", *paths, "--record", "--cache", str(recorded),
                      "--model", gen.MODEL, "--jobs", str(jobs)], tmp_path / "record", capsys)
    finally:
        sys.setswitchinterval(interval)

    replayed = analyze((paths, recorded), tmp_path / "replay", capsys, "--jobs", "1")
    sequential = analyze(corpus, tmp_path / "sequential", capsys, "--jobs", "1")
    assert replayed == sequential
    # one query per step, counted on the record run's threads as in sequence
    recorder, _, in_sequence = backends
    assert recorder.invocations == in_sequence.invocations > 0
    assert record[0] == 1 and record[2:] == sequential[2:]
    assert [line.split(": ")[1] for line in record[3].splitlines()
            if line.startswith("error: ")] == paths[1:3]
    assert (run_log_without_cache_flags(tmp_path / "record")
            == run_log_without_cache_flags(tmp_path / "sequential"))
    # and the record run wrote the graphs the replay writes
    graphs = {name: digest for name, digest in record[1].items()
              if name.endswith((".ttl", ".nt"))}
    assert graphs and graphs.items() <= sequential[1].items()


def test_live_and_record_ask_each_distinct_prompt_once(tmp_path, monkeypatch, capsys):
    """Ten copies of one policy, analyzed with no cache flag (so into
    `<out>/answers.jsonl`) and with `--record --cache` at `--jobs` 1, 2 and
    6, twice each, against a model that answers after a random 0-2 ms:
    every run writes the same bytes, `from_cache` flags included, asks
    each distinct prompt once, records each answer once and counts the
    invocations a replay counts."""
    policies = tmp_path / "policies"
    policies.mkdir()
    paths = []
    for i in range(10):
        paths.append(str(policies / f"copy{i}.txt"))
        Path(paths[-1]).write_bytes((FIXTURES / "policy_example.org.txt").read_bytes())
    answers = cache_answers(FIXTURES / "replay_cache.jsonl")
    delays = random.Random(SEED)
    asked = []

    def transport(prompt, config):
        asked.append((prompt.system, prompt.user))
        time.sleep(delays.uniform(0, 0.002))
        return answers[prompt.system, prompt.user]

    answer_through(monkeypatch, transport)
    monkeypatch.setenv("PPA_API_KEY", "test-key")
    backends = []
    make_backend = cli._backend
    monkeypatch.setattr(cli, "_backend",
                        lambda config: backends.append(make_backend(config)) or backends[-1])
    model = ("--model", FIXTURE_MODEL)
    replay = run(["analyze", *paths, "--replay", "--cache", str(FIXTURES / "replay_cache.jsonl"),
                  *model, "--jobs", "1"], tmp_path / "replay", capsys)
    invocations = backends[-1].invocations
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)         # threads switch often, so that a lost update would show
    try:
        for mode, jobs in [(mode, jobs) for _ in range(2) for mode in ("default", "record")
                           for jobs in ("1", "2", "6")]:
            asked.clear()
            out = tmp_path / f"run{len(runs)}"
            cache = tmp_path / f"cache{len(runs)}.jsonl" if mode == "record" else None
            flags = ("--record", "--cache", str(cache)) if cache else ()
            code, tree, stdout, stderr = run(["analyze", *paths, *flags, *model, "--jobs", jobs],
                                             out, capsys)
            if cache is None:       # the answers carry the time they were recorded
                cache = out / "answers.jsonl"
                del tree["answers.jsonl"]
            runs.append((code, tree, stdout, stderr))
            assert backends[-1].transport_calls == len(asked) == len(set(asked)) > 0
            assert backends[-1].invocations == invocations
            assert len(cache.read_bytes().splitlines()) == len(asked)
    finally:
        sys.setswitchinterval(interval)
    assert runs[0][0] == 0 and all(output == runs[0] for output in runs)
    assert ({name: digest for name, digest in runs[0][1].items() if name.endswith((".ttl", ".nt"))}
            == {name: digest for name, digest in replay[1].items()
                if name.endswith((".ttl", ".nt"))})


def endpoint_answering(cache: Path, monkeypatch, *, http11: bool = True) -> Endpoint:
    """A loopback endpoint that answers each prompt as `cache` does, and
    any other with HTTP 400, with the environment pointing at it."""
    answers = cache_answers(cache)

    def respond(body: bytes) -> tuple[int, bytes]:
        messages = {m["role"]: m["content"] for m in json.loads(body)["messages"]}
        answer = answers.get((messages["system"], messages["user"]))
        return (400, b"not in the cache") if answer is None else completion(answer)

    endpoint = Endpoint(respond, http11=http11)
    clear_proxies(monkeypatch)
    monkeypatch.setenv("PPA_API_KEY", "test-key")
    monkeypatch.setenv("PPA_API_BASE", endpoint.base_url)
    return endpoint


@pytest.mark.parametrize("http11", [True, False], ids=["HTTP/1.1", "HTTP/1.0"])
def test_record_over_http_holds_at_most_four_connections_per_job(
        corpus, gen, tmp_path, monkeypatch, capsys, http11):
    """`analyze --record --jobs 2` asks over at most 8 connections, kept
    alive while the server allows, and leaves none open; its cache
    replays to the sequential replay.  A server that closes each
    connection after its response still answers every call."""
    paths, cache = corpus
    recorded = tmp_path / "recorded.jsonl"
    with endpoint_answering(cache, monkeypatch, http11=http11) as endpoint:
        run(["analyze", *paths, "--record", "--cache", str(recorded), "--model", gen.MODEL,
             "--jobs", "2"], tmp_path / "record", capsys)
        assert endpoint.wait_closed()
    calls = len(endpoint.requests)
    assert calls >= 32 * len(RECOGNITION_TASKS)      # at least 32 segments
    assert endpoint.accepted <= 8 if http11 else endpoint.accepted == calls
    assert len(recorded.read_text(encoding="utf-8").splitlines()) == calls
    assert (analyze((paths, recorded), tmp_path / "replay", capsys, "--jobs", "1")
            == analyze(corpus, tmp_path / "sequential", capsys, "--jobs", "1"))


@pytest.fixture(scope="module")
def gold_set(gen, tmp_path_factory) -> tuple[Path, Path, str]:
    """Four generated gold documents, their replay cache and model name."""
    root = tmp_path_factory.mktemp("gold")
    table, _ = gen.make_gold(SEED, root / "gold", 4, 12)
    gen.write_cache(table, root / "cache.jsonl")
    return root / "gold", root / "cache.jsonl", gen.MODEL


@pytest.fixture(params=["fixture-full", "fixture-empty", "generated"])
def gold_run(request, gold_set) -> tuple[Path, Path, str]:
    """A gold directory, a replay cache of it and the model it was recorded for."""
    if request.param == "generated":
        return gold_set
    cache = "replay_cache.jsonl" if request.param == "fixture-full" else "replay_cache_empty.jsonl"
    return FIXTURES / "gold", FIXTURES / "gold" / cache, FIXTURE_MODEL


def evaluate(gold_run, out: Path, capsys, *extra: str) -> tuple[int, dict, str, str]:
    """`run` of one `evaluate` replay."""
    gold, cache, model = gold_run
    return run(["evaluate", str(gold), "--replay", "--cache", str(cache), "--model", model,
                *extra], out, capsys)


def failed_queries(out: Path) -> int:
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    return sum(task["failed_queries"] for task in report["tasks"])


def test_evaluate_replay_is_the_same_at_every_jobs_setting(gold_run, tmp_path, capsys):
    runs = {name: evaluate(gold_run, tmp_path / name, capsys, *extra)
            for name, extra in (("one", ("--jobs", "1")), ("two", ("--jobs", "2")),
                                ("default", ()))}
    assert runs["one"] == runs["two"] == runs["default"]
    code, tree, stdout, stderr = runs["one"]
    assert code == 0
    assert sorted(tree) == ["report.json", "report.tsv"]
    if gold_run[0] == FIXTURES / "gold":
        assert stderr == "report written to OUT/report.tsv"
    else:
        assert failed_queries(tmp_path / "one") == 1
        assert stderr == ("report written to OUT/report.tsv\n"
                          "warning: party-recognition: 1 of 48 calls failed")


def test_evaluate_in_process_equals_the_workers(gold_set, taxonomy, tmp_path, capsys):
    """The library call `run_benchmark` and `evaluate` on two workers score alike."""
    gold, cache, model = gold_set
    report = benchmark.run_benchmark(load_gold_corpus(gold), replay_backend(cache, model),
                                     taxonomy=taxonomy, threshold=0.9, denominator="max")
    evaluate(gold_set, tmp_path, capsys, "--jobs", "2")
    assert (tmp_path / "report.json").read_text() == report.to_json() + "\n"


def test_evaluate_record_is_the_same_at_jobs_one_and_two(gold_set, tmp_path, monkeypatch,
                                                         capsys):
    """A record run stays in one process and asks the model in sequence,
    whatever `jobs` is: it scores and records as the replay does."""
    gold, cache, model = gold_set
    answers = cache_answers(cache)
    pids = set()

    def transport(prompt, config):
        pids.add(os.getpid())
        return answers[prompt.system, prompt.user]

    answer_through(monkeypatch, transport)
    monkeypatch.setenv("PPA_API_KEY", "test-key")
    runs = [run(["evaluate", str(gold), "--record", "--cache",
                 str(tmp_path / f"{jobs}.jsonl"), "--model", model, "--jobs", str(jobs)],
                tmp_path / str(jobs), capsys)
            for jobs in (1, 2)]
    assert pids == {os.getpid()}
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and failed_queries(tmp_path / "1") == 1
    assert runs[0][1] == evaluate(gold_set, tmp_path / "replay", capsys)[1]
    keys = [[json.loads(line)["key"] for line in
             (tmp_path / f"{jobs}.jsonl").read_text(encoding="utf-8").splitlines()]
            for jobs in (1, 2)]
    assert keys[0] == keys[1] and len(set(keys[0])) == len(keys[0])


def test_evaluate_record_over_http_holds_one_connection(gold_set, tmp_path, monkeypatch,
                                                        capsys):
    """`evaluate --record` asks in sequence over one kept-alive connection
    and closes it when it ends."""
    gold, cache, model = gold_set
    with endpoint_answering(cache, monkeypatch) as endpoint:
        code, tree, _, _ = run(["evaluate", str(gold), "--record", "--cache",
                                str(tmp_path / "recorded.jsonl"), "--model", model],
                               tmp_path / "record", capsys)
        assert endpoint.wait_closed()
    assert code == 0 and endpoint.accepted == 1 and len(endpoint.requests) > 1
    assert tree == evaluate(gold_set, tmp_path / "replay", capsys)[1]


def without_cache_flags(out: Path) -> dict[str, Any]:
    """The files of an output tree but its answers, with the `from_cache`
    flags of the audits and the run log cleared."""
    files = {}
    for path in sorted(out.rglob("*")):
        name = path.relative_to(out).as_posix()
        if not path.is_file() or name == "answers.jsonl":
            continue
        files[name] = path.read_text(encoding="utf-8")
        if name.startswith("audit/"):
            audit = json.loads(files[name])
            for seg in audit["segments"]:
                for response in seg["responses"].values():
                    response.pop("from_cache", None)
            files[name] = audit
    if "run_log.jsonl" in files:
        files["run_log.jsonl"] = run_log_without_cache_flags(out)
    return files


def test_an_asking_run_with_no_cache_flag_replays_from_its_out(corpus, gold_set, tmp_path,
                                                                monkeypatch, capsys):
    """`analyze` and `evaluate` asked over HTTP with no `--cache` keep their
    answers in `<out>/answers.jsonl`; a replay of that file, which `--replay`
    reads from its own `--out`, writes the same graphs, audits, run log and
    report, `from_cache` flags aside."""
    paths, cache = corpus
    gold, gold_cache, model = gold_set
    commands = {"analyze": (["analyze", *paths, "--model", "bench-model"], cache),
                "evaluate": (["evaluate", str(gold), "--model", model], gold_cache)}
    for name, (argv, answers) in commands.items():
        asked, replayed = tmp_path / f"{name}-asked", tmp_path / f"{name}-replayed"
        with endpoint_answering(answers, monkeypatch) as endpoint:
            code, _, stdout, stderr = run(argv, asked, capsys)
        assert len((asked / "answers.jsonl").read_bytes().splitlines()) \
            == len(endpoint.requests) > 0
        replayed.mkdir()
        shutil.copy(asked / "answers.jsonl", replayed)
        assert run([*argv, "--replay"], replayed, capsys)[::2] == (code, stdout)
        assert without_cache_flags(replayed) == without_cache_flags(asked)


def test_a_run_again_into_its_out_asks_only_what_it_did_not_record(tmp_path, monkeypatch,
                                                                   capsys):
    """The endpoint fails about half the prompts of a first `analyze`; a
    second run into the same `--out` asks only for the prompts that the
    first did not record, and ends with the outputs of a replay."""
    policy = str(FIXTURES / "policy_example.org.txt")
    argv = ["analyze", policy, "--model", FIXTURE_MODEL]
    answers = cache_answers(FIXTURES / "replay_cache.jsonl")
    fail = True

    def respond(body: bytes) -> tuple[int, bytes]:
        messages = {m["role"]: m["content"] for m in json.loads(body)["messages"]}
        if fail and hashlib.sha256(messages["user"].encode()).digest()[0] % 2:
            return 400, b"not now"
        return completion(answers[messages["system"], messages["user"]])

    def prompts(requests) -> list[tuple[str, str]]:
        return [tuple(m["content"] for m in json.loads(r.body)["messages"]) for r in requests]

    out = tmp_path / "out"
    clear_proxies(monkeypatch)
    monkeypatch.setenv("PPA_API_KEY", "test-key")
    with Endpoint(respond) as endpoint:
        monkeypatch.setenv("PPA_API_BASE", endpoint.base_url)
        run(argv, out, capsys)
        first = prompts(endpoint.requests)
        recorded = set(cache_answers(out / "answers.jsonl"))
        fail = False
        endpoint.requests.clear()
        assert run(argv, out, capsys)[0] == 0
        second = prompts(endpoint.requests)
    assert 0 < len(recorded) < len(set(first))
    assert second and len(set(second)) == len(second)
    assert not recorded & set(second)
    assert set(cache_answers(out / "answers.jsonl")) == recorded | set(second)
    replay = run([*argv, "--replay", "--cache", str(FIXTURES / "replay_cache.jsonl")],
                 tmp_path / "replay", capsys)
    assert replay[0] == 0
    assert without_cache_flags(out) == without_cache_flags(tmp_path / "replay")


def test_no_evaluate_worker_left_behind(gold_set, tmp_path, monkeypatch, capsys):
    pids = tmp_path / "pids"
    score_document = benchmark.score_document

    def recording_pid(*args, **kwargs):
        with pids.open("a") as f:
            f.write(f"{os.getpid()}\n")
        return score_document(*args, **kwargs)

    monkeypatch.setattr(benchmark, "score_document", recording_pid)
    evaluate(gold_set, tmp_path / "out", capsys, "--jobs", "2")
    workers = {int(pid) for pid in pids.read_text().split()}
    assert workers and os.getpid() not in workers
    assert multiprocessing.active_children() == []
    for pid in workers:
        with pytest.raises(ProcessLookupError):     # exited and reaped
            os.kill(pid, 0)
