"""`analyze` and `evaluate` run the same at every `jobs` setting.

With `jobs` above 1 a replay hands whole policies (`analyze`) or gold
documents (`evaluate`) to forked worker processes, and `corpus.ttl` is
merged from the per-policy statements.  A live or record `analyze` has
`jobs` segments in flight, each asking its queries in two waves.  The
`analyze` corpus here is a small `perfbench/gen.py` corpus of four
policies; the second cannot be read and the third fails its graph
invariants, so the failures are reported between the policies that
succeed.  The `evaluate` gold set is a `perfbench/gen.py` set of four
documents, one of whose queries fails.
"""
from __future__ import annotations

import concurrent.futures
import hashlib
import json
import multiprocessing
import os
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

import ppanalyze.cli as cli
import ppanalyze.eval.benchmark as benchmark
import ppanalyze.extraction.pipeline as pipeline
from ppanalyze.corpus import load_policy
from ppanalyze.eval.gold import load_gold_corpus
from ppanalyze.extraction import backend as backend_module
from ppanalyze.extraction.backend import Backend, BackendConfig
from ppanalyze.extraction.pipeline import extract_document
from ppanalyze.extraction.prompts import RECOGNITION_TASKS
from ppanalyze.graph import STANDARD_PREFIXES
from ppanalyze.rdfio import parse_turtle

from .conftest import FIXTURE_MODEL, FIXTURES, make_document, replay_backend
from .oracles import reference_corpus_turtle
from .scripted import RICH_PLAN, RICH_SEGMENT, cache_answers, segment_text_of, task_of

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
def slow_first_broken_third(monkeypatch, corpus):
    """The first policy takes longest, so that with two workers the last
    one ends before it; the third has its data spans grounded to a purpose
    class."""
    slow, broken = Path(corpus[0][0]).stem, Path(corpus[0][2]).stem
    extract = pipeline.extract_document

    def extract_broken(doc, *args, **kwargs):
        result = extract(doc, *args, **kwargs)
        if doc.service_id == slow:
            time.sleep(0.5)
        if doc.service_id == broken:
            for seg in result.segments:
                seg.spans = tuple(
                    replace(s, grounded_term=MARKETING) if s.kind == "data" and s.grounded_term
                    else s for s in seg.spans)
        return result

    # `analyze` looks the name up in the pipeline module on each policy
    monkeypatch.setattr(pipeline, "extract_document", extract_broken)


def live_backend(transport, model: str = "scripted") -> Backend:
    return Backend(BackendConfig(model_name=model, cache_mode="live"), transport=transport)


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
    # the same segments asked live start one pool for the queries, 4 per
    # segment in flight, and one for the 2 segments in flight
    answers = cache_answers(cache)
    pipeline.extract_document(
        load_policy(policy, "example.org"),
        live_backend(lambda prompt, config: answers[prompt.system, prompt.user], FIXTURE_MODEL),
        taxonomy, jobs=2)
    assert pools == [{"max_workers": 8}, {"max_workers": 2}]


# -- the live scheduler: each segment asks its queries in two waves --

def rich_document(segments: int):
    """`segments` segments, each asking 4 recognition queries, then 2
    classification queries and the relation query."""
    return make_document("".join(f"{RICH_SEGMENT} ({k})\n" for k in range(segments)))


def rich_answer(prompt, config) -> str:
    return RICH_PLAN[0, task_of(prompt)]


def test_a_segments_recognition_queries_are_in_flight_together(taxonomy):
    barrier = threading.Barrier(len(RECOGNITION_TASKS), timeout=10)

    def transport(prompt, config):
        if task_of(prompt) in RECOGNITION_TASKS:
            barrier.wait()      # broken, and the call failed, unless all four wait
        return rich_answer(prompt, config)

    backend = live_backend(transport)
    result = extract_document(rich_document(3), backend, taxonomy, jobs=1)
    assert backend.invocations == 3 * 7
    assert not any(trace.error for seg in result.segments for trace in seg.traces.values())


def test_classification_and_relation_wait_for_every_recognition_answer(taxonomy):
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
    extract_document(doc, live_backend(transport), taxonomy, jobs=2)
    for seg in doc.segments:
        mine = [(event, task in RECOGNITION_TASKS) for event, text, task in events
                if text == seg.text]
        last_recognition = max(i for i, event in enumerate(mine)
                               if event == ("answered", True))
        second_wave = [i for i, event in enumerate(mine) if event == ("asked", False)]
        assert len(second_wave) == 3 and min(second_wave) > last_recognition


@pytest.mark.parametrize("jobs", [1, 2, 6])
def test_at_most_four_queries_per_job_in_flight(taxonomy, jobs):
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

    backend = live_backend(transport)
    extract_document(rich_document(16), backend, taxonomy, jobs=jobs)
    assert backend.invocations == 16 * 7
    assert len(RECOGNITION_TASKS) <= peak <= len(RECOGNITION_TASKS) * jobs


@pytest.mark.parametrize("jobs", [1, 2, 6])
def test_record_at_every_jobs_setting_replays_to_the_sequential_replay(
        corpus, gen, tmp_path, monkeypatch, capsys, jobs):
    """A record run asks in any order, but records the answers a replay
    reads back to the bytes of a sequential replay.  Threads switch often,
    so that a lost update to the backend's counters or cache would show."""
    paths, cache = corpus
    answers = cache_answers(cache)
    monkeypatch.setattr(backend_module, "http_chat_transport",
                        lambda prompt, config: answers[prompt.system, prompt.user])
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

    calls = [json.loads(line)["event"] == "backend_call" for line in
             (tmp_path / "record" / "run_log.jsonl").read_text(encoding="utf-8").splitlines()]
    (backend,) = backends
    assert backend.invocations == sum(calls)
    replayed = analyze((paths, recorded), tmp_path / "replay", capsys, "--jobs", "1")
    sequential = analyze(corpus, tmp_path / "sequential", capsys, "--jobs", "1")
    assert replayed == sequential
    # and the record run wrote the graphs the replay writes
    graphs = {name: digest for name, digest in record[1].items()
              if name.endswith((".ttl", ".nt"))}
    assert graphs and graphs.items() <= sequential[1].items()


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
    assert stderr == "report written to OUT/report.tsv"
    if gold_run[0] != FIXTURES / "gold":
        assert failed_queries(tmp_path / "one") == 1


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

    monkeypatch.setattr(backend_module, "http_chat_transport", transport)
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
